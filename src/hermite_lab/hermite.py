"""Which minimal vectors are Hermite vectors, decided three independent ways.

* criterion: the pair orbit under the two-dimensional Gauss-map extension,
  skipping X_{k+1} exactly when the orbit point lands in the region V;
* envelope: exact lower envelope of the norms |X_k| under the one-parameter
  family of Euclidean norms (lines A*tau + B in the parameter tau = t^4).
  Each line is built once as an integer triple from the vector's (p, q) and
  the integer coordinates of theta = (n + b*sqrt(d))/c, and hand-overs are
  compared by cross-multiplication, so no Fraction or QuadraticReal is built
  inside the envelope;
* delta scan: direct minimization of the quadratic forms (p - q*theta)^2 +
  q^2/Delta over a grid of Delta values.  Only the grid is approximate (it
  can miss a sliver); at each grid value a certified float prefilter drops
  the lines surely above the minimum, and the argmin of the rest is exact,
  computed on the envelope's integer lines and compared as p + r*sqrt(d).

All three run on exact arithmetic; decimal inputs certify per index and
report None where the declared precision cannot decide.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Optional, Sequence

from .cf import expansion, reduce_theta
from .errors import (
    AmbiguousComparison,
    GridTooCoarse,
    InsufficientSequence,
    MisalignedInput,
)
from .lattice import MinimalVector, complete_sequence
from .numeric import QuadraticReal, RealSpec, sqrt_ratio, surd_sign

_PREFILTER_MARGIN = 1e-9
_FLOAT_MIN = sys.float_info.min  # smallest normal float


@dataclass(frozen=True)
class HermiteFlags:
    """Per-index Hermite verdicts; None marks an undecided index."""

    theta: RealSpec
    flags: tuple
    method: str

    def __len__(self) -> int:
        return len(self.flags)

    def __getitem__(self, k):
        return self.flags[k]

    @property
    def decided_count(self) -> int:
        return len(self.flags) - self.undecided_count

    @property
    def undecided_count(self) -> int:
        return self.flags.count(None)


@dataclass(frozen=True)
class EnvelopeBreakpoint:
    """Norm-parameter value s = t^2 where the shortest vector hands over."""

    s_value: float
    left_index: int
    right_index: int


@dataclass(frozen=True)
class HermiteEntry:
    g: int
    h: int
    source_index: int


@dataclass(frozen=True)
class HermiteSubsequence:
    entries: tuple[HermiteEntry, ...]

    def h_values(self) -> list[int]:
        return [e.h for e in self.entries if e.h >= 1]


# ---------------------------------------------------------------------------
# method 1: orbit criterion


def _region_flag(session, q_prev: int, q_cur: int, y_float: float) -> Optional[bool]:
    """Hermite flag for the pair whose tail is the session's current state.

    The vector is skipped exactly when tail > (2y+1)/(y+2) with
    y = q_prev/q_cur; floats prefilter, exact integer arithmetic decides
    anything within the safety margin.
    """
    t_lo, t_hi = session.tail_float_bounds()
    boundary = (2.0 * y_float + 1.0) / (y_float + 2.0)
    if t_hi < boundary - _PREFILTER_MARGIN:
        return True
    if t_lo > boundary + _PREFILTER_MARGIN:
        return False
    verdict = session.tail_gt(2 * q_prev + q_cur, q_prev + 2 * q_cur)
    if verdict is None:
        return None
    return not verdict


@dataclass(frozen=True)
class ScanState:
    """Where a criterion scan stopped: deepest certified denominator q_cur.

    `hermite_q` is the denominator of the deepest vector flagged True at an
    index of 1 or more (0 if there is none); its rank among the Hermite
    vectors is the scan's final count of True flags at those indices.
    `quotients` are the partial quotients the scan certified, in order.
    """

    q_cur: int
    terminated: bool
    hermite_q: int
    quotients: tuple[int, ...]

    @property
    def quotient_count(self) -> int:
        return len(self.quotients)


def criterion_scan(theta: RealSpec, n: int) -> tuple[HermiteFlags, ScanState]:
    """Flags for X_0 .. X_{n-1} from the pair orbit; single certified pass."""
    if n < 2:
        raise ValueError("need n >= 2")
    _, x0, _ = reduce_theta(theta)
    session = expansion(x0)
    flags: list[Optional[bool]] = [True]  # X_0 = (1, 0) by convention
    quotients = []
    q_prev, q_cur = 0, 1
    hermite_q = 0
    y_float = 0.0
    m = 1
    while m <= n - 1:
        flag = _region_flag(session, q_prev, q_cur, y_float)
        flags.append(flag)
        if flag:
            hermite_q = q_cur
        a = session.advance()
        if a is None:
            break
        quotients.append(a)
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        y_float = 1.0 / (a + y_float)
        m += 1
    state = ScanState(q_cur, session.terminated, hermite_q, tuple(quotients))
    return HermiteFlags(theta, tuple(flags), "criterion"), state


def flags_via_criterion(theta: RealSpec, n: int) -> HermiteFlags:
    return criterion_scan(theta, n)[0]


# ---------------------------------------------------------------------------
# method 2: exact norm envelope


def _line_set(seq: Sequence[MinimalVector], value: Fraction | QuadraticReal):
    """(L, d, lines): the norm lines A*tau + B at theta = (n + b*sqrt(d))/c.

    Vector (p, q) has c*v1 = u - q*b*sqrt(d) with u = p*c - q*n, so its line
    is the integer triple (X, Y, Z) = (u^2 + q^2*b^2*d, -2*u*q*b, q^2): with
    the scale L = c^2, L*A = X + Y*sqrt(d) and B = Z.  b = d = 0 for a
    rational theta value.
    """
    if isinstance(value, QuadraticReal):
        n, b, c, d = value.a, value.b, value.c, value.d
    else:
        n, b, c, d = value.numerator, 0, value.denominator, 0
    bbd = b * b * d
    lines = []
    for vec in seq:
        q = vec.q
        u = vec.p * c - q * n
        lines.append((u * u + bbd * q * q, -2 * b * q * u, q * q))
    for k in range(1, len(lines)):
        if surd_sign(lines[k - 1][0] - lines[k][0], lines[k - 1][1] - lines[k][1], d) <= 0:
            raise AmbiguousComparison(
                f"|v1| not strictly decreasing at index {k}: not a certified prefix"
            )
    return c * c, d, lines


def _lower_envelope(lines, d: int) -> tuple[list[bool], list[tuple]]:
    """Touch flags and hand-overs of the lower envelope of the lines on tau > 0.

    The lines are triples (X, Y, Z) as `_line_set` builds them: slopes
    X + Y*sqrt(d) strictly decrease and intercepts Z strictly increase with
    the index.  Line m takes over from line j at tau = L*N/(U + V*sqrt(d))
    with N = Z_m - Z_j, U = X_j - X_m and V = Y_j - Y_m; the denominator is
    positive, so two hand-overs (N, U, V) compare by one cross-multiplication
    and `surd_sign`.  A line that meets the envelope in a single point
    (exact three-line tie) still counts as touching: it is shortest for
    that norm.
    """
    count = len(lines)
    touch = [False] * count
    stack = [(0, 0, 1, 0)]  # (line, N, U, V) where it starts: line 0 at tau = 0
    tentative = []
    for m in range(1, count):
        X_m, Y_m, Z_m = lines[m]
        while True:  # every hand-over lies above 0, so line 0 is never popped
            j, N_j, U_j, V_j = stack[-1]
            X_j, Y_j, Z_j = lines[j]
            N, U, V = Z_m - Z_j, X_j - X_m, Y_j - Y_m
            side = surd_sign(N * U_j - N_j * U, N * V_j - N_j * V, d)
            if side > 0:
                stack.append((m, N, U, V))
                break
            stack.pop()
            if side == 0:
                tentative.append((j, N_j, U_j, V_j))
    for j, *_ in stack:
        touch[j] = True
    for j, N, U, V in tentative:
        X_j, Y_j, Z_j = lines[j]
        # no line lies below line j at its hand-over, both sides scaled by U + V*sqrt(d)
        if all(
            surd_sign((X - X_j) * N + (Z - Z_j) * U, (Y - Y_j) * N + (Z - Z_j) * V, d) >= 0
            for X, Y, Z in lines
        ):
            touch[j] = True
    handovers = [
        (stack[i + 1][1:], stack[i][0], stack[i + 1][0]) for i in range(len(stack) - 1)
    ]
    return touch, handovers


def _envelopes(seq: Sequence[MinimalVector]):
    """One envelope pass over the sequence: (flags, hand-overs, line sets).

    The line sets hold one set per distinct value in theta's bounds (both
    window endpoints of a decimal).  The flags merge the per-value touch
    flags, None where they differ; the last index of a truncated sequence is
    withheld (None), as its status can depend on vectors not yet in the
    candidate set.  The exact ((N, U, V), left, right) hand-overs are those
    of the first line set.
    """
    if len(seq) < 3:
        raise InsufficientSequence("need at least 3 minimal vectors")
    line_sets = [_line_set(seq, value) for value in dict.fromkeys(seq[0].theta.bounds)]
    envelopes = [_lower_envelope(lines, d) for _, d, lines in line_sets]
    flags = [
        column[0] if all(f == column[0] for f in column) else None
        for column in zip(*(touch for touch, _ in envelopes))
    ]
    if not seq[-1].is_zero_v1():
        flags[-1] = None
    return flags, envelopes[0][1], line_sets


def _tau(line_set, handover) -> tuple[int, int, int]:
    """Hand-over (N, U, V) of the line set as (e, f, g): tau = (e + f*sqrt(d))/g, g > 0."""
    scale, d, _ = line_set
    N, U, V = handover
    if not V:
        return scale * N, 0, U
    e, f, g = scale * N * U, -scale * N * V, U * U - V * V * d
    return (e, f, g) if g > 0 else (-e, -f, -g)


def _root(e: int, f: int, g: int, d: int) -> float:
    """sqrt(tau) for tau = (e + f*sqrt(d))/g > 0, rounded from tau in lowest terms.

    A rational tau goes through `numeric.sqrt_ratio` (64-bit mantissa); a
    quadratic one through float arithmetic while its coefficients stay under
    500 bits, else on integers: `sqrt_ratio` of floor(tau*2^K) over 2^K,
    from floor(g*tau*2^K) = e*2^K + floor(f*sqrt(d)*2^K).  Whenever
    g*tau >= 1 (a hand-over has tau >= 1), floor(tau*2^K) holds every bit of
    tau down to 2^-K, so the mantissa is tau's own truncation.
    """
    k = math.gcd(e, f, g)
    e, f, g = e // k, f // k, g // k
    if not f:
        return sqrt_ratio(e, g)
    if max(abs(e), abs(f), g).bit_length() < 500:
        return math.sqrt((e + f * math.sqrt(d)) / g)
    K = g.bit_length() + 72
    s = math.isqrt(f * f * d << 2 * K)  # floor(|f|*sqrt(d)*2^K)
    return sqrt_ratio(((e << K) + (s if f > 0 else -s - 1)) // g, 1 << K)


def flags_via_envelope(seq: Sequence[MinimalVector]) -> HermiteFlags:
    """Flags from the exact envelope over the given complete-sequence prefix.

    The last index of a truncated sequence is withheld (None).  Terminated
    rational sequences are complete, so every index is reported.
    """
    flags = _envelopes(seq)[0]
    return HermiteFlags(seq[0].theta, tuple(flags), "envelope")


def envelope_breakpoints(seq: Sequence[MinimalVector]) -> list[EnvelopeBreakpoint]:
    """Hand-over points of the envelope, as s = t^2 = sqrt(tau).

    Raises OutOfFloatRange where s itself exceeds the float range.
    """
    _, handovers, line_sets = _envelopes(seq)
    d = line_sets[0][1]
    return [
        EnvelopeBreakpoint(_root(*_tau(line_sets[0], h), d), left, right)
        for h, left, right in handovers
    ]


# ---------------------------------------------------------------------------
# method 3: quadratic-form grid scan
#
# Grid values, like hand-overs, are integer triples (e, f, g) for the number
# (e + f*sqrt(d))/g, g > 0, in the field of the line sets' radicand d.


_GRID_UNIT = 1 << 64  # common denominator of the geometric grid values


def _floor_bound(e: int, f: int, g: int, d: int) -> int:
    """An integer at most (e + f*sqrt(d))/g: its floor, or one less."""
    s = math.isqrt(f * f * d)
    return (e + s if f >= 0 else e - s - 1) // g


def _midpoint(a, b) -> tuple[int, int, int]:
    (e1, f1, g1), (e2, f2, g2) = a, b
    return e1 * g2 + e2 * g1, f1 * g2 + f2 * g1, 2 * g1 * g2


def default_delta_grid(taus: list, d: int) -> list:
    """Geometric grid over the hand-overs `taus` (ascending, not empty) plus midpoints.

    The geometric values share the denominator 2^64, run from about
    taus[0]/2 to about 2*taus[-1] and step by about one sixteenth of a
    decade; the midpoints lie between consecutive hand-overs.
    """
    (e, f, g), (e_top, f_top, g_top) = taus[0], taus[-1]
    cur = _floor_bound(_GRID_UNIT * e, _GRID_UNIT * f, 2 * g, d)  # >= 2^63 - 1: tau >= 1
    top = -_floor_bound(-2 * _GRID_UNIT * e_top, -2 * _GRID_UNIT * f_top, g_top, d)
    grid = []
    while cur <= top:
        grid.append((cur, 0, _GRID_UNIT))
        cur = cur * 11548745 // 10**7
    grid += [_midpoint(a, b) for a, b in zip(taus, taus[1:])]
    return grid + [(e, f, 2 * g), (2 * e_top, 2 * f_top, g_top)]


def _surd_float(p: int, r: int, d: int, root: float, g: int = 1) -> Optional[float]:
    """(p + r*sqrt(d))/g >= 0 as a float within 6 ulps, or None outside the normal range.

    `root` is math.sqrt(d).  When p and r have opposite signs the number is
    read through its conjugate, (p^2 - r^2*d)/(p - r*sqrt(d)), so no
    subtraction cancels.  None means the float would overflow, be subnormal,
    or read a non-zero number as 0; 0.0 is returned only for an exact zero.
    """
    try:
        if not (r and d):
            x = p / g
        elif (p >= 0) == (r >= 0):
            x = (p + r * root) / g
        else:
            x = (p * p - r * r * d) / (p - r * root) / g
    except OverflowError:
        return None
    if x == 0.0:
        return None if p or (r and d) else x
    return x if _FLOAT_MIN <= x < math.inf else None


def _line_floats(scale: int, d: int, lines):
    """Prefilter data of a line set, or None if a float leaves the normal range.

    Per line (a_k, b_k) ~ (X + Y*sqrt(d), Z*L), so that L*(A*Delta + B) is
    a_k*Delta + b_k; with them the smallest non-zero a_k, the largest a_k
    and the largest b_k, which bound the range of a_k*Delta + b_k.
    """
    root = math.sqrt(d)
    floats = []
    for X, Y, Z in lines:
        a = _surd_float(X, Y, d, root)
        b = _surd_float(Z * scale, 0, 0, root)
        if a is None or b is None:
            return None
        floats.append((a, b))
    a_lo = min((a for a, _ in floats if a), default=math.inf)
    a_hi = max(a for a, _ in floats)
    b_hi = max(b for _, b in floats)
    return root, a_lo, a_hi, b_hi, floats


def _survivors(prefilter, e: int, f: int, g: int, d: int, count: int):
    """Indices of the lines the float prefilter keeps at Delta = (e + f*sqrt(d))/g.

    All `count` lines are kept where a float would leave the normal range.
    Otherwise the kept lines include the exact argmin and every line tied
    with it.  Proof: each float here is normal or an exact 0, so a_k and
    Delta_f are within 6 ulps and, all terms being non-negative,
    v_k = a_k*Delta_f + b_k is within 13 ulps of the exact value V_k:
    v_k = V_k*(1 + t_k) with |t_k| < eps = 2e-15.  Let j be a line of the
    float minimum m.  A dropped line has v_k > m*(1 + margin), rounding of
    the bound included with margin = _PREFILTER_MARGIN less 1e-15, so
    V_k > m*(1 + margin)/(1 + eps) >= V_j*(1 - eps)*(1 + margin)/(1 + eps)
    > V_j, as margin > 3*eps.  A dropped line lies strictly above line j:
    it is neither the argmin nor tied with it.
    """
    if prefilter is not None:
        root, a_lo, a_hi, b_hi, floats = prefilter
        delta = _surd_float(e, f, d, root, g)
        if delta is not None and a_lo * delta >= _FLOAT_MIN and a_hi * delta + b_hi < math.inf:
            values = [a * delta + b for a, b in floats]
            top = min(values) * (1 + _PREFILTER_MARGIN)
            return [k for k, v in enumerate(values) if v <= top]
    return range(count)


def _scan_witnesses(line_sets, grid) -> set[int]:
    """Indices minimizing A*Delta + B for some grid Delta, on every line set.

    Runs on integers: for a line set (L, d, lines) and a grid value
    Delta = (e + f*sqrt(d))/g, scaling by L*g > 0 turns each line value into
    p + r*sqrt(d), p = X*e + Y*f*d + Z*L*g and r = X*f + Y*e.  The float
    prefilter (`_survivors`, floats computed once per line set) first drops
    every line that a certified float bound puts strictly above another; a
    single survivor is the argmin.  Otherwise the survivors compare
    exactly, by `surd_sign` of their difference, and every one equal to the
    minimum (p and r both equal, as sqrt(d) is irrational) is kept, so
    exact ties are all witnessed.  As the prefilter never drops the exact
    argmin or a line tied with it, the result is the exact argmin set of
    the comparison over all lines.
    """
    witnessed: set[int] = set()
    prefilters = [_line_floats(*line_set) for line_set in line_sets]
    for e, f, g in grid:
        agreed = None
        for (scale, d, lines), prefilter in zip(line_sets, prefilters):
            if surd_sign(e, f, d) <= 0:
                raise ValueError("grid values must be positive")
            survivors = _survivors(prefilter, e, f, g, d, len(lines))
            if len(survivors) == 1:
                argmins = set(survivors)
            else:
                fd = f * d
                Lg = scale * g
                values = [
                    (X * e + Y * fd + Z * Lg, X * f + Y * e)
                    for X, Y, Z in map(lines.__getitem__, survivors)
                ]
                best = values[0]
                for p, r in values:
                    if surd_sign(p - best[0], r - best[1], d) < 0:
                        best = (p, r)
                argmins = {k for k, v in zip(survivors, values) if v == best}
            agreed = argmins if agreed is None else agreed & argmins
        witnessed |= agreed
    return witnessed


def flags_via_delta_scan(
    theta: RealSpec, n: int, delta_grid: Sequence | None = None
) -> HermiteFlags:
    """Grid minimization of the quadratic forms; consistency oracle.

    A grid can miss a vector whose winning parameter interval is a sliver
    (or a single point); the scan then refines once, adding the exact
    envelope hand-over values, before raising GridTooCoarse.  An explicit
    `delta_grid` holds rationals.
    """
    if n < 3:
        raise InsufficientSequence("need n >= 3")
    seq = complete_sequence(theta, n - 1)
    if len(seq) < 3:
        raise InsufficientSequence("fewer than 3 minimal vectors exist")
    envelope, handovers, line_sets = _envelopes(seq)
    d = line_sets[0][1]
    taus = [_tau(line_sets[0], h) for h, _, _ in handovers]
    if delta_grid is None:
        grid = default_delta_grid(taus, d)
    else:
        grid = [(v.numerator, 0, v.denominator) for v in map(Fraction, delta_grid)]
    witnessed = _scan_witnesses(line_sets, grid)
    must_witness = {k for k, f in enumerate(envelope) if f is True}
    if not must_witness <= witnessed:
        ordered = sorted(grid, key=cmp_to_key(
            lambda a, b: surd_sign(a[0] * b[2] - b[0] * a[2], a[1] * b[2] - b[1] * a[2], d)
        ))
        extra = taus + [_midpoint(a, b) for a, b in zip(ordered, ordered[1:])]
        witnessed |= _scan_witnesses(line_sets, extra)
    if not must_witness <= witnessed:
        missing = sorted(must_witness - witnessed)
        raise GridTooCoarse(
            f"vectors {missing} have no witnessing Delta even after refinement"
        )
    flags = tuple(None if f is None else k in witnessed for k, f in enumerate(envelope))
    return HermiteFlags(theta, flags, "delta_scan")


# ---------------------------------------------------------------------------
# subsequence extraction


def hermite_subsequence(
    flags: HermiteFlags, seq: Sequence[MinimalVector]
) -> HermiteSubsequence:
    """Flagged-true vectors in order; h values are strictly increasing."""
    if len(flags.flags) > len(seq):
        raise MisalignedInput("more flags than vectors")
    if seq and seq[0].theta != flags.theta:
        raise MisalignedInput("flags and sequence describe different inputs")
    for k, vec in enumerate(seq[: len(flags.flags)]):
        if vec.index != k:
            raise MisalignedInput("sequence indices must start at 0 and be contiguous")
    entries = [
        HermiteEntry(seq[k].p, seq[k].q, k)
        for k, f in enumerate(flags.flags)
        if f is True
    ]
    return HermiteSubsequence(tuple(entries))
