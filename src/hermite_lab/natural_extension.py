"""The invertible two-dimensional extension of the Gauss map on
U = ]0,1[^2 + ({0} x [0,1/2]) + ([0,1/2] x {0}), its inverse, orbits, the
invariant density, the skip region V, and the measure-of-V quadrature.

All maps are duck-typed: Fractions stay exact, floats stay floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, InvalidArgument, OrbitTerminates

LN2 = math.log(2)


class DomainPoint(NamedTuple):
    x: object
    y: object


def _check_in_U(x, y) -> None:
    if not (0 <= x < 1 and 0 <= y < 1):
        raise DomainError(f"({x}, {y}) outside the unit square")
    if x == 0 and y > Fraction(1, 2):
        raise DomainError("x = 0 requires y <= 1/2")
    if y == 0 and x > Fraction(1, 2):
        raise DomainError("y = 0 requires x <= 1/2")


def _as_pair(p):
    """Float coordinates stay float; integer coordinates become exact."""
    x, y = p
    if isinstance(x, float) or isinstance(y, float):
        return float(x), float(y)
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(y, int):
        y = Fraction(y)
    return x, y


def step_T(p) -> DomainPoint:
    """One forward step ( {1/x}, 1/(floor(1/x) + y) ); needs x > 0."""
    x, y = _as_pair(p)
    _check_in_U(x, y)
    if x == 0:
        raise DomainError("forward step undefined at x = 0")
    inv = 1 / x
    a = math.floor(inv)
    return DomainPoint(inv - a, 1 / (a + y))


def step_T_inv(p) -> DomainPoint:
    """One backward step ( 1/(floor(1/y) + x), {1/y} ); needs y > 0."""
    x, y = _as_pair(p)
    _check_in_U(x, y)
    if y == 0:
        raise DomainError("backward step undefined at y = 0")
    inv = 1 / y
    b = math.floor(inv)
    return DomainPoint(1 / (b + x), inv - b)


def orbit(p, n: int) -> list[DomainPoint]:
    """Points p, T(p), ..., T^n(p) (or inverse iterates for n < 0).

    Raises OrbitTerminates as soon as the orbit reaches a point the map
    cannot leave (x = 0 forward, y = 0 backward), carrying the partial orbit.
    """
    x, y = _as_pair(p)
    _check_in_U(x, y)
    points = [DomainPoint(x, y)]
    step = step_T if n >= 0 else step_T_inv
    for k in range(1, abs(n) + 1):
        cur = points[-1]
        blocked = cur.x == 0 if n >= 0 else cur.y == 0
        if blocked:
            raise OrbitTerminates(k - 1, points)
        nxt = step(cur)
        points.append(nxt)
        terminal = nxt.x == 0 if n >= 0 else nxt.y == 0
        if terminal:
            raise OrbitTerminates(k, points)
    return points


def in_region_V(p) -> bool:
    """Strict membership x > (2y+1)/(y+2); boundary points are not in V.

    The certified form of this test on a decimal's tail bounds, which may
    leave it undecided, is `hermite._region_flag`.  V lies in x > 1/2, so
    the criterion calls it only where the next partial quotient is 1 or
    not yet certified.
    """
    x, y = p
    _check_in_U(x, y)
    return x * (y + 2) > 2 * y + 1


def density_mu(p) -> float:
    """Invariant probability density 1 / (ln2 * (1 + x*y)^2)."""
    x, y = p
    _check_in_U(x, y)
    return 1.0 / (LN2 * float((1 + x * y)) ** 2)


def invariance_residual(p):
    """|g(T(p)) * jac(p) - g(p)| with g = 1/(1+xy)^2 and the ln2 factor cancelled.

    Exactly zero in rational arithmetic; bounded by roundoff in floats.
    """
    x, y = _as_pair(p)
    x2, y2 = step_T((x, y))
    g_here = 1 / (1 + x * y) ** 2
    g_there = 1 / (1 + x2 * y2) ** 2
    jac = (y2 / x) ** 2  # 1/(x*(a + y))^2 with y2 = 1/(a + y)
    return abs(g_there * jac - g_here)


def contraction_check(x, y, z) -> tuple:
    """Second-coordinate gaps after one and two forward steps from (x, y), (x, z)."""
    if not (0 < x < 1 and 0 < y < 1 and 0 < z < 1):
        raise DomainError("need x, y, z in ]0,1[")
    x1, y1 = step_T((x, y))
    z1 = step_T((x, z)).y
    if x1 == 0:
        raise DomainError("second iterate undefined: 1/x is an integer")
    y2, z2 = step_T((x1, y1)).y, step_T((x1, z1)).y
    return abs(z1 - y1), abs(z2 - y2)


def _inner_slice(y: float) -> float:
    """Closed form of the density integral over the x-extent of V at height y."""
    return (1.0 - y) / (2.0 * (1.0 + y) * (1.0 + y + y * y))


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, depth) -> float:
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _adaptive_simpson(
        f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1
    ) + _adaptive_simpson(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1)


def mu_measure_V(abs_tol: float) -> float:
    """mu(V) by one-dimensional quadrature of the exact inner integral.

    Converges to 1 - ln3/(2 ln2) = 0.20751874963942...; the requested
    absolute tolerance must be finite and at least 1e-12.
    """
    if not math.isfinite(abs_tol) or abs_tol < 1e-12:
        raise InvalidArgument("abs_tol must be a finite number >= 1e-12")
    a, b = 0.0, 1.0
    fa, fb = _inner_slice(a), _inner_slice(b)
    fm = _inner_slice(0.5)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    integral = _adaptive_simpson(
        _inner_slice, a, b, fa, fm, fb, whole, abs_tol * LN2 / 4.0, 48
    )
    return integral / LN2
