"""Which minimal vectors are Hermite vectors, decided three independent ways.

* criterion: the pair orbit under the two-dimensional Gauss-map extension,
  skipping X_{k+1} exactly when the orbit point lands in the region V.
  V lies in x > 1/2, so the next partial quotient decides first: a
  quotient of 2 or more means the vector is kept, and only after a
  quotient of 1 is the tail tested against the region;
* envelope: exact lower envelope of the norms |X_k| under the one-parameter
  family of Euclidean norms (lines A*tau + B in the parameter tau = t^4).
  Each line is built once as an integer triple from the vector's (p, q) and
  the integer coordinates of theta = (n + b*sqrt(d))/c, and hand-overs are
  compared by cross-multiplication, so no Fraction or QuadraticReal is built
  inside the envelope;
* delta scan: direct minimization of the quadratic forms (p - q*theta)^2 +
  q^2/Delta over a grid of Delta values: for each theta value, the exact
  envelope hand-overs.  A vector that some Delta makes shortest at every
  theta value is shortest at one of those hand-overs, so the grid misses
  none.  Each value is scanned exactly, with no float, on the envelope's
  integer lines compared as p + r*sqrt(d): the argmin moves only up the
  lines as Delta grows, so each search starts at the last value's argmin.

A hand-over and a grid value are the one integer triple (N, U, V) for
N/(U + V*sqrt(d)), N > 0 and U + V*sqrt(d) > 0, and `_compare` orders
them.  A grid value is Delta in units of the gcd of the line sets' c^2, so
the common factor of the scales never enters a product.

All three run on exact arithmetic; decimal inputs certify per index and
report None where the declared precision cannot decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cf import expansion, reduce_theta
from .errors import (
    AmbiguousComparison,
    GridTooCoarse,
    InsufficientSequence,
    InvalidArgument,
    MisalignedInput,
)
from .lattice import MinimalVector, complete_sequence
from .numeric import QuadraticReal, RealSpec, surd_sign

_PREFILTER_MARGIN = 1e-9


@dataclass(frozen=True)
class HermiteFlags:
    """Per-index Hermite verdicts; None marks an undecided index."""

    theta: RealSpec
    flags: tuple
    method: str

    def __len__(self) -> int:
        return len(self.flags)

    @property
    def decided_count(self) -> int:
        return len(self.flags) - self.undecided_count

    @property
    def undecided_count(self) -> int:
        return self.flags.count(None)


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


def _region_flag(session, a, q_prev: int, q_cur: int, y_float: float) -> Optional[bool]:
    """Hermite flag at index m, given a = a_m as `session.advance()` returned it.

    The vector is skipped exactly when its tail t = [0; a_m, a_{m+1}, ...]
    exceeds (2y+1)/(y+2) with y = q_prev/q_cur.  That bound is at least
    1/2, so the quotient decides first: a_m >= 2 gives t <= 1/2, and the
    flag is True without a call here.  After a_m = 1 the session holds t'
    with t = 1/(1 + t'), and the vector is skipped iff
    t' < (1-y)/(1+2y) = (q_cur - q_prev)/(2*q_prev + q_cur).  Where a_m is
    not certified (a is None) the session still holds t itself.  Floats
    prefilter; exact signs at the window ends decide anything within the
    safety margin: True if no end is skipped, False if both are, None
    otherwise.  An end on the boundary is not skipped.
    """
    if a is None:
        bound, skip = (2.0 * y_float + 1.0) / (y_float + 2.0), 1
    else:
        bound, skip = (1.0 - y_float) / (1.0 + 2.0 * y_float), -1
    t_lo, t_hi = session.tail_float_bounds()
    if t_hi < bound - _PREFILTER_MARGIN:
        return skip > 0
    if t_lo > bound + _PREFILTER_MARGIN:
        return skip < 0
    if a is None:
        s1, s2 = session.tail_signs(2 * q_prev + q_cur, q_prev + 2 * q_cur)
    else:
        s1, s2 = session.tail_signs(q_cur - q_prev, 2 * q_prev + q_cur)
    if s1 != skip and s2 != skip:
        return True
    if s1 == skip and s2 == skip:
        return False
    return None


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
        raise InvalidArgument("need n >= 2")
    _, x0, _ = reduce_theta(theta)
    session = expansion(x0)
    flags: list[Optional[bool]] = [True]  # X_0 = (1, 0) by convention
    quotients = []
    q_prev, q_cur = 0, 1
    hermite_q = 0
    y_float = 0.0
    advance = session.advance
    for _ in range(1, n):
        a = advance()
        if a is None or a == 1:
            flag = _region_flag(session, a, q_prev, q_cur, y_float)
        else:
            flag = True  # t <= 1/2 <= (2y+1)/(y+2)
        flags.append(flag)
        if flag:
            hermite_q = q_cur
        if a is None:
            break
        quotients.append(a)
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        y_float = 1.0 / (a + y_float) if a.bit_length() < 1000 else 0.0  # else y < 2**-999
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
        (X0, Y0, Z0), (X1, Y1, Z1) = lines[k - 1], lines[k]
        if Z0 >= Z1 or surd_sign(X0 - X1, Y0 - Y1, d) <= 0:
            raise AmbiguousComparison(
                f"|v1| not strictly decreasing or q not increasing at index {k}: "
                "not a certified prefix"
            )
    return c * c, d, lines


def _compare(a, b, d: int) -> int:
    """Sign of a - b for values a, b = (N, U, V) = N/(U + V*sqrt(d)), U + V*sqrt(d) > 0."""
    (N1, U1, V1), (N2, U2, V2) = a, b
    return surd_sign(N1 * U2 - N2 * U1, N1 * V2 - N2 * V1, d)


def _lower_envelope(lines, d: int) -> tuple[list[bool], list[tuple]]:
    """Touch flags and hand-overs of the lower envelope of the lines on tau > 0.

    The lines are triples (X, Y, Z) as `_line_set` builds them: slopes
    X + Y*sqrt(d) strictly decrease and intercepts Z strictly increase with
    the index.  Line m takes over from line j at tau = N/(U + V*sqrt(d))
    with N = Z_m - Z_j > 0, U = X_j - X_m and V = Y_j - Y_m, so that
    U + V*sqrt(d) > 0.  The hand-overs (N, U, V) of the envelope's lines
    after line 0 come strictly ascending.  A line that meets the envelope
    in a single point (exact three-line tie) still counts as touching: it
    is shortest for that norm.
    """
    count = len(lines)
    touch = [False] * count
    stack = [(0, (0, 1, 0))]  # (line, hand-over where it starts): line 0 at tau = 0
    tentative = []
    for m in range(1, count):
        X_m, Y_m, Z_m = lines[m]
        while True:  # every hand-over lies above 0, so line 0 is never popped
            j, start = stack[-1]
            X_j, Y_j, Z_j = lines[j]
            handover = (Z_m - Z_j, X_j - X_m, Y_j - Y_m)
            side = _compare(handover, start, d)
            if side > 0:
                stack.append((m, handover))
                break
            stack.pop()
            if side == 0:
                tentative.append((j, start))
    for j, _ in stack:
        touch[j] = True
    for j, (N, U, V) in tentative:
        X_j, Y_j, Z_j = lines[j]
        # no line lies below line j at its hand-over, both sides scaled by U + V*sqrt(d)
        if all(
            surd_sign((X - X_j) * N + (Z - Z_j) * U, (Y - Y_j) * N + (Z - Z_j) * V, d) >= 0
            for X, Y, Z in lines
        ):
            touch[j] = True
    return touch, [handover for _, handover in stack[1:]]


def _envelopes(seq: Sequence[MinimalVector]):
    """One envelope pass over the sequence: (flags, runs, line sets).

    The line sets hold one set per distinct value in theta's bounds (both
    window endpoints of a decimal).  The flags merge the per-value touch
    flags, None where they differ; the last index of a truncated sequence is
    withheld (None), as its status can depend on vectors not yet in the
    candidate set.  Each set's scale L is its c^2 over the gcd of all the
    sets' c^2, so a Delta on these sets is in units of that gcd: a set's
    run is its ascending hand-overs as grid values (L*N, U, V).  The scale
    is 1 for a rational or quadratic input, and at the smaller-scale end of
    a decimal literal with fewer digits than bits.
    """
    if len(seq) < 3:
        raise InsufficientSequence("need at least 3 minimal vectors")
    line_sets = [_line_set(seq, value) for value in dict.fromkeys(seq[0].theta.bounds)]
    unit = math.gcd(*(scale for scale, _, _ in line_sets))
    line_sets = [(scale // unit, d, lines) for scale, d, lines in line_sets]
    envelopes = [_lower_envelope(lines, d) for _, d, lines in line_sets]
    flags = [
        column[0] if all(f == column[0] for f in column) else None
        for column in zip(*(touch for touch, _ in envelopes))
    ]
    if not seq[-1].is_zero_v1():
        flags[-1] = None
    runs = [
        [(scale * N, U, V) for N, U, V in handovers]
        for (scale, _, _), (_, handovers) in zip(line_sets, envelopes)
    ]
    return flags, runs, line_sets


def flags_via_envelope(seq: Sequence[MinimalVector]) -> HermiteFlags:
    """Flags from the exact envelope over the given complete-sequence prefix.

    The last index of a truncated sequence is withheld (None).  Terminated
    rational sequences are complete, so every index is reported.
    """
    flags = _envelopes(seq)[0]
    return HermiteFlags(seq[0].theta, tuple(flags), "envelope")


# ---------------------------------------------------------------------------
# method 3: quadratic-form grid scan
#
# A grid value is a hand-over's triple (N, U, V): Delta = N/(U + V*sqrt(d)),
# N > 0 and U + V*sqrt(d) > 0, in the field of the line sets' radicand d.


def _argmins(line_set, p: int, delta) -> set[int]:
    """Exact argmin set at Delta among the lines from p on (see `_scan_witnesses`)."""
    scale, d, lines = line_set
    N, U, V = delta
    LU, LV = scale * U, scale * V
    X, Y, Z = lines[p]
    best, found = (X * N + Z * LU, Y * N + Z * LV), {p}
    for k in range(p + 1, len(lines)):
        X, Y, Z = lines[k]
        ZLU, ZLV = Z * LU, Z * LV
        if surd_sign(ZLU - best[0], ZLV - best[1], d) > 0:
            break  # this line and every later one lie above the minimum
        v = (X * N + ZLU, Y * N + ZLV)
        side = surd_sign(v[0] - best[0], v[1] - best[1], d)
        if side < 0:
            best, found = v, {k}
        elif side == 0:
            found.add(k)
    return found


def _check_run(run, d: int) -> None:
    """Raise InvalidArgument unless every N and U + V*sqrt(d) is positive and the run ascends."""
    if not all(N > 0 and surd_sign(U, V, d) > 0 for N, U, V in run):
        raise InvalidArgument("grid values must be positive")
    if not all(_compare(a, b, d) < 0 for a, b in zip(run, run[1:])):
        raise InvalidArgument("grid runs must be strictly ascending")


def _scan_witnesses(line_sets, runs) -> set[int]:
    """Indices minimizing A*Delta + B for some grid Delta, on every line set.

    The line sets share one radicand d.  `runs` are lists of grid values
    (N, U, V), each strictly ascending, with N > 0 and U + V*sqrt(d) > 0
    at every value (InvalidArgument otherwise).  Runs on integers: for a
    line set (L, d, lines) and Delta = N/(U + V*sqrt(d)), scaling by
    L*(U + V*sqrt(d)) > 0 turns each line value into p + r*sqrt(d),
    p = X*N + Z*L*U and r = Y*N + Z*L*V.  Lines compare by `surd_sign`
    of their difference, and every line equal to the minimum (p and r both
    equal, as sqrt(d) is irrational) is kept, so exact ties are all
    witnessed.  The slopes S_k = X_k + Y_k*sqrt(d) >= 0 strictly decrease
    and the Z_k strictly increase (`_line_set`), so:

    Fact 1: for Delta1 < Delta2, every argmin i at Delta1 and j at Delta2
    have i <= j.  Were j < i, adding the two minimality inequalities gives
    (S_j - S_i)*(Delta2 - Delta1) <= 0, yet both factors are positive.  So
    the argmins at the next value of a run are sought from p, the largest
    argmin at the last one, on.

    The search from p evaluates each line once and stops before the first
    line whose term Z_k*L*(U + V*sqrt(d)) alone lies strictly above the
    least value so far: S_k*Delta >= 0 and the Z_k increase, so every later
    line lies above it too.  A line whose term only equals that value may
    still tie (zero slope), so it is evaluated.  The argmins of a value are
    the intersection over the line sets of its argmin sets.
    """
    witnessed: set[int] = set()
    for run in filter(None, runs):
        _check_run(run, line_sets[0][1])
        starts = [0] * len(line_sets)
        for delta in run:
            argmins = [_argmins(*args, delta) for args in zip(line_sets, starts)]
            starts = [max(a) for a in argmins]
            witnessed |= set.intersection(*argmins)
    return witnessed


def flags_via_delta_scan(theta: RealSpec, n: int) -> HermiteFlags:
    """Grid minimization of the quadratic forms; consistency oracle.

    On each line set the Deltas that make a vector shortest form a closed
    interval whose finite ends are envelope hand-overs (one point for a
    three-line tie), so if some Delta makes it shortest on every line set,
    so does a hand-over: the grid is each line set's hand-overs, one run
    each.  GridTooCoarse marks a vector that the envelope flags but no
    single Delta makes shortest at every theta value.

    The scan still checks the envelope independently: at each hand-over it
    recomputes the exact argmin over all lines.  Had the envelope skipped a
    touching line k between its true neighbours j and m, the crossing of j
    and m would lie inside k's interval, so the scan would witness k there
    and the flags would differ.  A line the envelope kept wrongly is never
    shortest, so it goes unwitnessed and raises GridTooCoarse.
    """
    if n < 3:
        raise InsufficientSequence("need n >= 3")
    seq = complete_sequence(theta, n - 1)
    envelope, runs, line_sets = _envelopes(seq)
    witnessed = _scan_witnesses(line_sets, runs)
    missing = [k for k, f in enumerate(envelope) if f is True and k not in witnessed]
    if missing:
        raise GridTooCoarse(f"no single Delta makes vectors {missing} shortest for every theta")
    # from a list, not a generator: an exact-size tuple reuses CPython's free lists
    flags = tuple([None if f is None else k in witnessed for k, f in enumerate(envelope)])
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
