"""Which minimal vectors are Hermite vectors, decided three independent ways.

* criterion: the pair orbit under the two-dimensional Gauss-map extension,
  skipping X_{k+1} exactly when the orbit point lands in the region V;
* envelope: exact lower envelope of the norms |X_k| under the one-parameter
  family of Euclidean norms (lines A*tau + B in the parameter tau = t^4);
* delta scan: direct minimization of the quadratic forms (p - q*theta)^2 +
  q^2/Delta over a grid of Delta values.  Only the grid is approximate (it
  can miss a sliver); at each grid value the argmin is exact, computed on
  the lines scaled once to integers and compared as p + r*sqrt(d).

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
    MisalignedInput,
)
from .lattice import MinimalVector, complete_sequence
from .numeric import (
    DecimalSpec,
    QuadraticReal,
    RealSpec,
    float_ratio,
    surd_sign,
)

_PREFILTER_MARGIN = 1e-9


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

    def h_values(self, skip_origin: bool = True) -> list[int]:
        return [e.h for e in self.entries if e.h >= 1 or not skip_origin]

    @property
    def count_positive_q(self) -> int:
        return sum(1 for e in self.entries if e.h >= 1)


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
    """Where a criterion scan stopped: deepest certified denominator pair.

    `hermite_q` is the denominator of the deepest vector flagged True at an
    index of 1 or more (0 if there is none); its rank among the Hermite
    vectors is the scan's final count of True flags at those indices.
    """

    quotient_count: int
    q_prev: int
    q_cur: int
    terminated: bool
    exhausted: bool
    hermite_q: int


def criterion_scan(theta: RealSpec, n: int) -> tuple[HermiteFlags, ScanState]:
    """Flags for X_0 .. X_{n-1} from the pair orbit; single certified pass."""
    if n < 2:
        raise ValueError("need n >= 2")
    _, x0, _ = reduce_theta(theta)
    session = expansion(x0)
    flags: list[Optional[bool]] = [True]  # X_0 = (1, 0) by convention
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
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        y_float = 1.0 / (a + y_float)
        m += 1
    state = ScanState(
        session.count, q_prev, q_cur, session.terminated, session.exhausted, hermite_q
    )
    return HermiteFlags(theta, tuple(flags), "criterion"), state


def flags_via_criterion(theta: RealSpec, n: int) -> HermiteFlags:
    return criterion_scan(theta, n)[0]


# ---------------------------------------------------------------------------
# method 2: exact norm envelope


def _to_float(value) -> float:
    if isinstance(value, Fraction):
        sign = -1 if value < 0 else 1
        return sign * float_ratio(abs(value.numerator), value.denominator)
    if isinstance(value, QuadraticReal):
        return float(value) if max(abs(value.a), abs(value.b), value.c).bit_length() < 500 else value.to_interval(64).to_float()
    return float(value)


def _line_data(seq: Sequence[MinimalVector], theta_value: Fraction | QuadraticReal):
    """(A_k, B_k) for the lines A*tau + B, A = v1^2, B = v2^2, exact."""
    lines = []
    for vec in seq:
        if vec.q == 0:
            v1 = Fraction(vec.p)
        else:
            v1 = Fraction(vec.p) - theta_value * vec.q
        lines.append((v1 * v1, Fraction(vec.q * vec.q)))
    for k in range(1, len(lines)):
        if not lines[k - 1][0] > lines[k][0]:
            raise AmbiguousComparison(
                f"|v1| not strictly decreasing at index {k}: not a certified prefix"
            )
    return lines


def _lower_envelope(lines) -> tuple[list[bool], list[tuple]]:
    """Touch flags and transitions of the lower envelope of A*tau + B on tau > 0.

    Slopes strictly decrease and intercepts strictly increase with the index.
    A line that meets the envelope in a single point (exact three-line tie)
    still counts as touching: it is shortest for that norm.
    """
    count = len(lines)
    touch = [False] * count
    stack: list[tuple[int, object]] = []
    tentative = []
    for m in range(count):
        A_m, B_m = lines[m]
        if not stack:
            stack.append((m, Fraction(0)))
            continue
        while stack:
            j, start_j = stack[-1]
            A_j, B_j = lines[j]
            tau = (B_m - B_j) / (A_j - A_m)
            if tau > start_j:
                stack.append((m, tau))
                break
            stack.pop()
            if tau == start_j:
                tentative.append((j, start_j))
        else:
            raise AssertionError("line 0 starts the envelope and is never popped")
    for j, _ in stack:
        touch[j] = True
    for j, tau in tentative:
        A_j, B_j = lines[j]
        value_j = A_j * tau + B_j
        if all(not (lines[k][0] * tau + lines[k][1] < value_j) for k in range(count)):
            touch[j] = True
    transitions = [
        (stack[i + 1][1], stack[i][0], stack[i + 1][0]) for i in range(len(stack) - 1)
    ]
    return touch, transitions


def _envelopes(seq: Sequence[MinimalVector]):
    """One envelope pass over the sequence: (flags, transitions, line sets).

    The line sets hold one set per theta value (both window endpoints of a
    decimal).  The flags merge the per-value touch flags, None where they
    differ; the last index of a truncated sequence is withheld (None), as its
    status can depend on vectors not yet in the candidate set.  The exact
    (tau, left, right) hand-overs are those of the first theta value.
    """
    if len(seq) < 3:
        raise InsufficientSequence("need at least 3 minimal vectors")
    theta = seq[0].theta
    if isinstance(theta, DecimalSpec):
        values = [theta.window_lo, theta.window_hi]
    else:
        values = [theta.value]
    line_sets = [_line_data(seq, value) for value in values]
    envelopes = [_lower_envelope(lines) for lines in line_sets]
    flags = [
        column[0] if all(f == column[0] for f in column) else None
        for column in zip(*(touch for touch, _ in envelopes))
    ]
    if not seq[-1].is_zero_v1():
        flags[-1] = None
    return flags, envelopes[0][1], line_sets


def flags_via_envelope(seq: Sequence[MinimalVector]) -> HermiteFlags:
    """Flags from the exact envelope over the given complete-sequence prefix.

    The last index of a truncated sequence is withheld (None).  Terminated
    rational sequences are complete, so every index is reported.
    """
    flags = _envelopes(seq)[0]
    return HermiteFlags(seq[0].theta, tuple(flags), "envelope")


def envelope_breakpoints(seq: Sequence[MinimalVector]) -> list[EnvelopeBreakpoint]:
    """Hand-over points of the envelope, as s = t^2 = sqrt(tau)."""
    return [
        EnvelopeBreakpoint(math.sqrt(_to_float(tau)), left, right)
        for tau, left, right in _envelopes(seq)[1]
    ]


# ---------------------------------------------------------------------------
# method 3: quadratic-form grid scan


_GRID_RATIO = Fraction(11548745, 10**7)  # about one sixteenth of a decade


def _limit_fraction(value: Fraction, bits: int = 64) -> Fraction:
    shift = value.denominator.bit_length() - bits
    if shift <= 0:
        return value
    return Fraction(value.numerator >> shift, value.denominator >> shift)


def default_delta_grid(taus: list) -> list:
    """Geometric grid spanning the envelope hand-overs plus interval midpoints."""
    if not taus:
        return [Fraction(k) for k in (1, 2, 4, 8)]
    lo = _as_fraction_floor(taus[0]) / 2
    hi = _as_fraction_ceil(taus[-1]) * 2
    grid = []
    cur = lo
    while cur <= hi:
        grid.append(cur)
        cur = _limit_fraction(cur * _GRID_RATIO)
    midpoints = []
    previous = None
    for tau in taus:
        if previous is not None:
            midpoints.append((previous + tau) / 2)
        previous = tau
    midpoints.append(taus[0] / 2)
    midpoints.append(taus[-1] * 2)
    return grid + midpoints


def _as_fraction_floor(tau) -> Fraction:
    if isinstance(tau, Fraction):
        return tau
    lo = tau.to_interval(64).lo
    return lo


def _as_fraction_ceil(tau) -> Fraction:
    if isinstance(tau, Fraction):
        return tau
    return tau.to_interval(64).hi


def _surd_parts(value) -> tuple[int, int, int, int]:
    """(e, f, g, d) with value = (e + f*sqrt(d))/g and g > 0; f = d = 0 if rational."""
    if isinstance(value, QuadraticReal):
        return value.a, value.b, value.c, value.d
    return value.numerator, 0, value.denominator, 0


def _integer_lines(lines) -> tuple[int, list[tuple[int, int, int]]]:
    """Radicand d and triples (X, Y, Z) with L*A = X + Y*sqrt(d), L*B = Z.

    L > 0 is one common denominator of every A and (rational) B, so the
    scaled lines keep the order of the lines at every Delta.  d = 0 when
    every A is rational.
    """
    radicand = 0
    scale = 1
    parts = []
    for A, B in lines:
        a, b, c, d = _surd_parts(A)
        if d:
            if radicand and d != radicand:
                raise ValueError("mixed radicands")
            radicand = d
        scale = math.lcm(scale, c, B.denominator)
        parts.append((a, b, c, B))
    return radicand, [
        (a * (scale // c), b * (scale // c), B.numerator * (scale // B.denominator))
        for a, b, c, B in parts
    ]


def _scan_witnesses(line_sets, grid) -> set[int]:
    """Indices minimizing A*Delta + B for some grid Delta, on every line set.

    Runs on integers: each line set is scaled once to triples (X, Y, Z), and
    a grid value Delta = (e + f*sqrt(d))/g scales every line value by L*g > 0
    to p + r*sqrt(d), p = X*e + Y*f*d + Z*g and r = X*f + Y*e.  The argmin is
    exact: values compare by `surd_sign` of their difference, and every line
    equal to the minimum (p and r both equal, as sqrt(d) is irrational) is
    kept, so exact ties are all witnessed.  A rational line set takes the
    radicand of a quadratic Delta; two different radicands raise ValueError.
    """
    scaled = [_integer_lines(lines) for lines in line_sets]
    witnessed: set[int] = set()
    for delta in grid:
        e, f, g, delta_d = _surd_parts(delta)
        if surd_sign(e, f, delta_d) <= 0:
            raise ValueError("grid values must be positive")
        agreed = None
        for radicand, triples in scaled:
            if f and radicand and radicand != delta_d:
                raise ValueError("mixed radicands")
            d = radicand or delta_d
            fd = f * d
            values = [(X * e + Y * fd + Z * g, X * f + Y * e) for X, Y, Z in triples]
            best = values[0] if values else None
            for p, r in values:
                if surd_sign(p - best[0], r - best[1], d) < 0:
                    best = (p, r)
            argmins = {k for k, v in enumerate(values) if v == best}
            agreed = argmins if agreed is None else agreed & argmins
        witnessed |= agreed
    return witnessed


def flags_via_delta_scan(
    theta: RealSpec, n: int, delta_grid: Sequence | None = None
) -> HermiteFlags:
    """Grid minimization of the quadratic forms; consistency oracle.

    A grid can miss a vector whose winning parameter interval is a sliver
    (or a single point); the scan then refines once, adding the exact
    envelope hand-over values, before raising GridTooCoarse.
    """
    if n < 3:
        raise InsufficientSequence("need n >= 3")
    seq = complete_sequence(theta, n - 1)
    if len(seq) < 3:
        raise InsufficientSequence("fewer than 3 minimal vectors exist")
    envelope, transitions, line_sets = _envelopes(seq)
    taus = [tau for tau, _, _ in transitions]
    if delta_grid is None:
        grid = default_delta_grid(taus)
    else:
        grid = [
            value if isinstance(value, Fraction) else Fraction(value)
            for value in delta_grid
        ]
    witnessed = _scan_witnesses(line_sets, grid)
    must_witness = {k for k, f in enumerate(envelope) if f is True}
    if not must_witness <= witnessed:
        extra = list(taus)
        previous = None
        for value in sorted(grid):
            if previous is not None:
                extra.append((previous + value) / 2)
            previous = value
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
