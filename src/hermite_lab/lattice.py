"""Minimal vectors of the lattice of theta: brute-force certification, the
consecutive-successor algorithm, intrinsic coordinates, complete sequences.

A vector is stored as the integer pair (p, q); its embedded first coordinate
v1 = p - q*theta is recomputed exactly on demand, as the exact bounds
`v1_bounds` over theta's `bounds` (a decimal's window), rather than
propagated, so long sequences never accumulate width.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cf import expansion, reduce_theta, take
from .errors import AmbiguousComparison, InvalidArgument, NotConsecutive, SequenceEnds
from .numeric import QuadraticReal, QuadraticSpec, RationalSpec, RealSpec
from .record import Record

BRUTEFORCE_MAX_Q = 10**6
HALF = Fraction(1, 2)


def exact_sign(value) -> int:
    """Sign of an exact Fraction / int / QuadraticReal."""
    if isinstance(value, QuadraticReal):
        return value.sign()
    return (value > 0) - (value < 0)


class MinimalVector(Record):
    """Lattice point (p - q*theta, q) given by its integer coordinates."""

    __slots__ = ("p", "q", "index", "theta")
    _unshown = _uncompared = ("theta",)

    def __init__(self, p: int, q: int, index: int, theta: RealSpec):
        set_p, set_q, set_index, set_theta = self._setters
        set_p(self, p)
        set_q(self, q)
        set_index(self, index)
        set_theta(self, theta)

    def v1_bounds(self) -> tuple:
        """Exact bounds (lo, hi) on v1 = p - q*theta for every theta within theta.bounds."""
        lo, hi = self.theta.bounds
        return self.p - self.q * hi, self.p - self.q * lo

    def v1_sign(self) -> int:
        """Certified sign of v1 (0 means exactly zero): the sign both bounds share."""
        lo, hi = self.v1_bounds()
        sign = exact_sign(lo)
        if sign != exact_sign(hi):
            raise AmbiguousComparison("sign of p - q*theta undecided at declared precision")
        return sign

    def is_zero_v1(self) -> bool:
        lo, hi = self.theta.bounds  # a quadratic's v1 is never 0, nor its bounds a Fraction
        return (
            self.q != 0
            and lo == hi
            and isinstance(lo, Fraction)
            and lo.numerator * self.q == self.p * lo.denominator
        )


class IntrinsicCoords(Record):
    """Normalized description (eps, x, y) of a consecutive pair.

    x is the exact pair (lo, hi) of bounds on |v1|/|u1|: lo == hi for a
    rational or quadratic theta, the window's hull for a decimal.
    """

    __slots__ = ("eps", "x", "y")

    def __init__(
        self, eps: int, x: tuple[Fraction | QuadraticReal, Fraction | QuadraticReal], y: Fraction
    ):
        self._fill(eps, x, y)


def check_basis(u: MinimalVector, v: MinimalVector) -> bool:
    return abs(u.p * v.q - v.p * u.q) == 1


def complete_sequence(theta: RealSpec, n: int) -> list[MinimalVector]:
    """X_0 = (1, 0), X_1 = (nearest, 1), then successors; at most n + 1 vectors.

    Rational inputs terminate naturally at the vector with v1 = 0; decimal
    inputs stop where the next quotient is no longer certified.
    """
    if n < 1:
        raise InvalidArgument("n must be positive")
    sign, x0, nearest = reduce_theta(theta)
    vectors = [
        MinimalVector(1, 0, 0, theta),
        MinimalVector(nearest, 1, 1, theta),
    ]
    pp, pq = sign, 0  # X_0 oriented so that consecutive v1 signs alternate
    cp, cq = nearest, 1
    for a in take(expansion(x0), n - 1):
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
    c_val = abs(p - x * q)
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
        raise InvalidArgument("q must be non-negative")
    if q > BRUTEFORCE_MAX_Q:
        raise InvalidArgument(f"brute-force oracle limited to q <= {BRUTEFORCE_MAX_Q}")
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
    lo, hi = _ratio_interval(u, v)
    floor = math.floor(lo)
    if floor != math.floor(hi):
        raise AmbiguousComparison("floor(|u1|/|v1|) undecided at declared precision")
    return floor


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
    s_v = v.v1_sign()
    if s_v == 0:
        raise SequenceEnds("v1 = 0: theta is rational and v closes the sequence")
    s_u = u.v1_sign()
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
    """Exact bounds (lo, hi) on |num_vec.v1| / |den_vec.v1|, both signs certified nonzero."""
    n_lo, n_hi = _abs_v1_bounds(num_vec)
    d_lo, d_hi = _abs_v1_bounds(den_vec)
    return n_lo / d_hi, n_hi / d_lo


def _abs_v1_bounds(vec: MinimalVector) -> tuple:
    """Exact bounds (lo, hi) on |v1|, for a v1 of certified nonzero sign."""
    lo, hi = vec.v1_bounds()
    return (lo, hi) if exact_sign(lo) > 0 else (-hi, -lo)
