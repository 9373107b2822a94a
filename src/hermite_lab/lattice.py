"""Minimal vectors of the lattice of theta: brute-force certification, the
consecutive-successor algorithm, intrinsic coordinates, complete sequences.

A vector is stored as the integer pair (p, q); its embedded first coordinate
v1 = p - q*theta is recomputed exactly on demand (for a decimal, as exact
bounds over its window) rather than propagated, so long sequences never
accumulate width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .cf import HALF, expansion, reduce_theta
from .errors import AmbiguousComparison, NotConsecutive, SequenceEnds
from .numeric import (
    DecimalSpec,
    QuadraticReal,
    QuadraticSpec,
    RationalSpec,
    RealSpec,
)

BRUTEFORCE_MAX_Q = 10**6


def exact_sign(value) -> int:
    """Sign of an exact Fraction / int / QuadraticReal."""
    if isinstance(value, QuadraticReal):
        return value.sign()
    return (value > 0) - (value < 0)


@dataclass(frozen=True)
class MinimalVector:
    """Lattice point (p - q*theta, q) given by its integer coordinates."""

    p: int
    q: int
    index: int
    theta: RealSpec = field(repr=False, compare=False)

    def v1_exact(self):
        """Exact v1 for rational and quadratic theta; None for decimal."""
        if isinstance(self.theta, RationalSpec):
            return self.p - self.q * self.theta.value
        if isinstance(self.theta, QuadraticSpec):
            if self.q == 0:
                return Fraction(self.p)
            return Fraction(self.p) - self.theta.value * self.q
        return None

    def v1_window(self) -> tuple[Fraction, Fraction]:
        """Exact rational bounds on v1 (rational and decimal theta)."""
        if isinstance(self.theta, RationalSpec):
            v = self.p - self.q * self.theta.value
            return v, v
        if isinstance(self.theta, DecimalSpec):
            lo = self.p - self.q * self.theta.window_hi
            hi = self.p - self.q * self.theta.window_lo
            return lo, hi
        raise TypeError("v1_window needs rational bounds; use v1_exact for quadratics")

    def v1_sign(self) -> int:
        """Certified sign of v1 (0 means exactly zero)."""
        exact = self.v1_exact()
        if exact is not None:
            return exact_sign(exact)
        lo, hi = self.v1_window()
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        raise AmbiguousComparison("sign of p - q*theta undecided at declared precision")

    def is_zero_v1(self) -> bool:
        if isinstance(self.theta, RationalSpec):
            return self.p * self.theta.value.denominator == self.q * self.theta.value.numerator
        if isinstance(self.theta, QuadraticSpec):
            return False
        return False  # a decimal window never pins v1 to zero


@dataclass(frozen=True)
class IntrinsicCoords:
    """Normalized description (eps, x, y) of a consecutive pair.

    x is the exact pair (lo, hi) of bounds on |v1|/|u1|: lo == hi for a
    rational or quadratic theta, the window's hull for a decimal.
    """

    eps: int
    x: tuple[Fraction | QuadraticReal, Fraction | QuadraticReal]
    y: Fraction


def check_basis(u: MinimalVector, v: MinimalVector) -> bool:
    return abs(u.p * v.q - v.p * u.q) == 1


def complete_sequence(theta: RealSpec, n: int) -> list[MinimalVector]:
    """X_0 = (1, 0), X_1 = (nearest, 1), then successors; at most n + 1 vectors.

    Rational inputs terminate naturally at the vector with v1 = 0; decimal
    inputs stop where the next quotient is no longer certified.
    """
    if n < 1:
        raise ValueError("n must be positive")
    sign, x0, nearest = reduce_theta(theta)
    vectors = [
        MinimalVector(1, 0, 0, theta),
        MinimalVector(nearest, 1, 1, theta),
    ]
    pp, pq = sign, 0  # X_0 oriented so that consecutive v1 signs alternate
    cp, cq = nearest, 1
    session = expansion(x0)
    while len(vectors) < n + 1:
        a = session.advance()
        if a is None:
            break
        pp, cp = cp, pp + a * cp
        pq, cq = cq, pq + a * cq
        vectors.append(MinimalVector(cp, cq, len(vectors), theta))
    return vectors


# ---------------------------------------------------------------------------
# brute-force oracle


def _is_minimal_against_fraction(value: Fraction, p: int, q: int) -> bool:
    U, V = value.numerator, value.denominator
    c_scaled = abs(p * V - q * U)
    if c_scaled >= V:  # |p - q*theta| >= 1: (1, 0) violates the box
        return False
    step = U % V
    r = 0
    for b in range(1, q):
        r += step
        if r >= V:
            r -= V
        if min(r, V - r) <= c_scaled:
            return False
    r += step
    if r >= V:
        r -= V
    return min(r, V - r) == c_scaled


def _is_minimal_against_quadratic(x: QuadraticReal, p: int, q: int) -> bool:
    c_val = Fraction(p) - x * q
    if exact_sign(c_val) < 0:
        c_val = -c_val
    if exact_sign(c_val - 1) >= 0:
        return False
    for b in range(1, q + 1):
        t = x * b
        fr = t - math.floor(t)
        dist = fr if exact_sign(fr - HALF) < 0 else 1 - fr
        s = exact_sign(dist - c_val)
        if b < q and s <= 0:
            return False
        if b == q and s != 0:
            return False
    return True


def is_minimal_bruteforce(theta: RealSpec, p: int, q: int) -> bool:
    """Box-by-box certification that (p - q*theta, q) is a minimal vector.

    Enumerates b in [0, q] with the nearest-integer numerators, the only
    candidates the box condition constrains.  Oracle scale: q <= 1e6.
    """
    if q < 0:
        raise ValueError("q must be non-negative")
    if q > BRUTEFORCE_MAX_Q:
        raise ValueError(f"brute-force oracle limited to q <= {BRUTEFORCE_MAX_Q}")
    if q == 0:
        return abs(p) == 1
    if isinstance(theta, RationalSpec):
        return _is_minimal_against_fraction(theta.value, p, q)
    if isinstance(theta, QuadraticSpec):
        return _is_minimal_against_quadratic(theta.value, p, q)
    lo = _is_minimal_against_fraction(theta.window_lo, p, q)
    hi = _is_minimal_against_fraction(theta.window_hi, p, q)
    if lo != hi:
        raise AmbiguousComparison("minimality undecided at declared precision")
    return lo


# ---------------------------------------------------------------------------
# successor algorithm


def _abs_ratio_floor(u: MinimalVector, v: MinimalVector) -> int:
    """floor(|u1| / |v1|), certified."""
    if isinstance(u.theta, QuadraticSpec):
        return math.floor(abs(u.v1_exact()) / abs(v.v1_exact()))
    lo_u, hi_u = u.v1_window()
    lo_v, hi_v = v.v1_window()
    if lo_v <= 0 <= hi_v or lo_u <= 0 <= hi_u:
        raise AmbiguousComparison("v1 sign undecided at declared precision")
    au = (abs(lo_u), abs(hi_u))
    av = (abs(lo_v), abs(hi_v))
    floor_lo = math.floor(min(au) / max(av))
    floor_hi = math.floor(max(au) / min(av))
    if floor_lo != floor_hi:
        raise AmbiguousComparison("floor(|u1|/|v1|) undecided at declared precision")
    return floor_lo


def _pair_shape(u: MinimalVector, v: MinimalVector) -> None:
    if u.theta != v.theta:
        raise NotConsecutive("vectors belong to different inputs")
    if not (0 <= u.q < v.q):
        raise NotConsecutive("need 0 <= u2 < v2")
    if not check_basis(u, v):
        raise NotConsecutive("pair is not a lattice basis (det != +-1)")


def next_minimal(u: MinimalVector, v: MinimalVector) -> MinimalVector:
    """The minimal vector immediately after v, via w = (+-u) + floor(1/x) * v."""
    _pair_shape(u, v)
    if v.is_zero_v1():
        raise SequenceEnds("v1 = 0: theta is rational and v closes the sequence")
    s_u = u.v1_sign()
    s_v = v.v1_sign()
    if s_u == 0:
        raise NotConsecutive("u1 must be nonzero")
    if s_u == s_v:
        if u.q != 0:
            raise NotConsecutive("consecutive vectors with u2 > 0 have opposite v1 signs")
        sigma = -1  # reorient (1, 0); covers the v1 = u1/2 boundary flip
    else:
        sigma = 1
    a = _abs_ratio_floor(u, v)
    if a < 1:
        raise NotConsecutive("|v1| >= |u1| contradicts consecutiveness")
    return MinimalVector(
        sigma * u.p + a * v.p, sigma * u.q + a * v.q, v.index + 1, u.theta
    )


def intrinsic_coords(u: MinimalVector, v: MinimalVector) -> IntrinsicCoords:
    """Coordinates (eps, x, y) with u = (eps|u1|, v2*y), v = (-eps|u1|*x, v2)."""
    _pair_shape(u, v)
    s_u = u.v1_sign()
    if s_u == 0:
        raise NotConsecutive("u1 must be nonzero")
    s_v = v.v1_sign()
    y = Fraction(u.q, v.q)
    if s_v == 0:
        if y > HALF:
            raise NotConsecutive("x = 0 requires y <= 1/2")
        return IntrinsicCoords(s_u, (Fraction(0), Fraction(0)), y)
    if s_u == s_v and u.q != 0:
        raise NotConsecutive("consecutive vectors with u2 > 0 have opposite v1 signs")
    eps = -s_v
    x = _ratio_interval(v, u)
    if x[0] >= 1:
        raise NotConsecutive("|v1| < |u1| fails")
    if u.q == 0 and x[0] > HALF:
        raise NotConsecutive("y = 0 requires x <= 1/2")
    return IntrinsicCoords(eps, x, y)


def _ratio_interval(num_vec: MinimalVector, den_vec: MinimalVector) -> tuple:
    """Exact bounds (lo, hi) on |num_vec.v1| / |den_vec.v1|."""
    exact_n = num_vec.v1_exact()
    exact_d = den_vec.v1_exact()
    if exact_n is not None and exact_d is not None:
        ratio = abs(exact_n) / abs(exact_d)
        return ratio, ratio
    lo_n, hi_n = num_vec.v1_window()
    lo_d, hi_d = den_vec.v1_window()
    if lo_n <= 0 <= hi_n or lo_d <= 0 <= hi_d:
        raise AmbiguousComparison("v1 sign undecided at declared precision")
    an = sorted((abs(lo_n), abs(hi_n)))
    ad = sorted((abs(lo_d), abs(hi_d)))
    return an[0] / ad[1], an[1] / ad[0]
