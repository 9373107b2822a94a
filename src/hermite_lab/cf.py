"""Continued-fraction engine for the reduced input x0 = |theta - nearest(theta)|.

Expansion runs through one of two sessions: the classical integer
recurrence on (P + sqrt(D))/Q for quadratic irrationals, and lockstep Euclid
on both endpoints of a window for decimals and rationals, a rational being
the zero-width window.  A quotient is emitted only when every real in the
window shares it.  Long windows advance in Lehmer batches: quotients are
certified on a small window of leading bits that contains both endpoints,
and the long remainders take the batch's cosequence in one step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AmbiguousComparison,
    IndexOutOfRange,
    IntegerInput,
    InvalidArgument,
    TailUnavailable,
)
from .numeric import (
    DecimalSpec,
    QuadraticReal,
    QuadraticSpec,
    RationalSpec,
    RealSpec,
    make_decimal,
    spec_is_integer,
    surd_sign,
)

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class PartialQuotients:
    quotients: tuple[int, ...]
    terminated: bool

    def __post_init__(self):
        if min(self.quotients, default=1) < 1:
            raise InvalidArgument("partial quotients must be >= 1")
        if self.quotients and self.quotients[0] < 2:
            raise InvalidArgument("a1 >= 2 is forced by x0 <= 1/2")
        if self.terminated and self.quotients and self.quotients[-1] < 2:
            raise InvalidArgument("canonical terminating expansion ends with a quotient >= 2")


@dataclass(frozen=True)
class Convergent:
    p: int
    q: int
    index: int


@dataclass(frozen=True)
class TailValue:
    """Exact bounds (lo, hi) on the tail; lo == hi for a rational or quadratic."""

    index: int
    value: tuple[Fraction | QuadraticReal, Fraction | QuadraticReal]


def reduce_theta(spec: RealSpec) -> tuple[int, RealSpec, int]:
    """Split theta into (sign of theta', x0 = |theta'|, nearest integer).

    theta' = theta - nearest lies in (-1/2, 1/2]; the half-integer tie goes
    to +1/2 so outputs are deterministic.
    """
    if spec_is_integer(spec):
        raise IntegerInput(f"{spec!r} is an integer")
    if isinstance(spec, RationalSpec):
        m = math.ceil(spec.value - HALF)
        prime = spec.value - m
        sign = 1 if prime > 0 else -1
        return sign, RationalSpec(abs(prime)), m
    if isinstance(spec, QuadraticSpec):
        v = spec.value
        floor = math.floor(v)
        frac = v - floor
        m = floor + (1 if frac > HALF else 0)
        prime = v - m
        sign = prime.sign()
        return sign, QuadraticSpec(abs(prime)), m
    if isinstance(spec, DecimalSpec):
        m = math.ceil(spec.value - HALF)
        w_lo = spec.window_lo - m
        w_hi = spec.window_hi - m
        if w_lo >= 0:
            return 1, make_decimal(
                spec.value - m, spec.declared_bits, (w_lo, w_hi)
            ), m
        if w_hi <= 0:
            return -1, make_decimal(
                m - spec.value, spec.declared_bits, (-w_hi, -w_lo)
            ), m
        raise AmbiguousComparison(
            "theta is indistinguishable from an integer at its declared precision"
        )
    raise TypeError(f"not a RealSpec: {spec!r}")


# ---------------------------------------------------------------------------
# expansion sessions


class _QuadraticSession:
    """The classical integer recurrence; the expansion never terminates.

    The tail is (P + sqrt(D))/Q with Q dividing D - P**2.  Its inverse is
    (-P + sqrt(D))/Q' with Q' = (D - P**2)/Q, so a step costs a few integer
    operations on numbers bounded by 2*sqrt(D) once the tail is reduced, and
    the state (P, Q) is eventually periodic (Lagrange).
    """

    def __init__(self, value: QuadraticReal):
        a, b, c = value.a, value.b, value.c
        if b < 0:
            a, b, c = -a, -b, -c
        # scaling by |c| makes Q = c*|c| divide D - P**2 = c**2 * (b**2*d - a**2)
        self.P, self.f, self.Q, self.d = a * abs(c), b * abs(c), c * abs(c), value.d
        self.D = self.f * self.f * self.d
        self.root = math.isqrt(self.D << 128)  # floor(sqrt(D) * 2**64)
        self.r = self.root >> 64
        self.count = 0
        self.terminated = False
        self.exhausted = False

    def advance(self):
        P, Q = -self.P, (self.D - self.P * self.P) // self.Q
        # floor((P + sqrt(D))/Q) with r = floor(sqrt(D)); for Q < 0 it is
        # -floor((P + r)/|Q|) - 1, as the ratio is irrational
        a = (P + self.r) // Q if Q > 0 else (P + self.r + 1) // Q
        self.P, self.Q = P - a * Q, Q
        self.count += 1
        return a

    def tail_signs(self, num: int, den: int) -> tuple[int, int]:
        """Sign of tail - num/den (den > 0) twice: the two ends of a zero-width window."""
        s = surd_sign(den * self.P - num * self.Q, den, self.D)
        s = s if self.Q > 0 else -s
        return s, s

    def tail_float_bounds(self):
        # (P*2**64 + root)/(Q*2**64) and the same with root + 1 bracket the
        # tail; int true division rounds correctly, whatever the sizes
        n, g = (self.P << 64) + self.root, self.Q << 64
        lo, hi = (n / g, (n + 1) / g) if g > 0 else ((n + 1) / g, n / g)
        return max(0.0, lo - 1e-12), hi + 1e-12

    @property
    def tail(self) -> QuadraticReal:
        P, f, Q = (self.P, self.f, self.Q) if self.Q > 0 else (-self.P, -self.f, -self.Q)
        g = math.gcd(P, f, Q)
        return QuadraticReal(P // g, f // g, Q // g, self.d)


# A batch starts from the leading _HEAD_BITS of each endpoint and stops once
# a small-window denominator is down to _CUT_BITS: the window's tails are then
# still within about 2**(_HEAD_BITS - 2*_CUT_BITS) = 2**-48 of each other, far
# below the float prefilter's 1e-12 margin, so reading them instead of the
# exact tails leaves almost no flag to the exact fallback.
_HEAD_BITS = 256
_CUT_BITS = 152
# Batches start only on denominators past _BATCH_MIN_BITS: on a window only
# a few bits longer than the heads (the CLI's 256-bit decimals), the heads
# are nearly the whole numbers and a batch saves no big-integer work.
_BATCH_MIN_BITS = _HEAD_BITS + 64
_FLOAT_HEAD_BITS = 128


def _head_ratio(n: int, d: int) -> float:
    """Float n/d from the leading _FLOAT_HEAD_BITS of d, for 0 <= n <= d.

    Truncation adds at most 2**-126 to the float division's rounding error.
    """
    s = max(0, d.bit_length() - _FLOAT_HEAD_BITS)
    return (n >> s) / (d >> s)


def _head_bounds(n: int, d: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Small fractions strictly below and above n/d, from d's leading _HEAD_BITS."""
    s = d.bit_length() - _HEAD_BITS
    n, d = n >> s, d >> s
    return (n, d + 1), (n + 1, d)


class _WindowSession:
    """Lockstep Euclid on both window endpoints; emits only shared quotients.

    A rational is the zero-width window (value, value).  Both remainders
    reaching 0 on the same step means the expansion terminated; one alone,
    or differing quotients, means the window is exhausted.

    Long endpoints advance in Lehmer batches.  The leading bits of both give
    a small window that contains them, and lockstep Euclid on that window in
    small ints queues quotients that hold for every real inside it, both true
    endpoints included.  The long remainders are brought to the current
    position by the batch's cosequence only when the batch runs out or an
    exact comparison needs them; meanwhile the float prefilter reads the
    small window's tails, which bound the true ones.
    """

    def __init__(self, lo: Fraction, hi: Fraction):
        self.an, self.ad = lo.numerator, lo.denominator
        self.bn, self.bd = hi.numerator, hi.denominator
        self.count = 0
        self.terminated = False
        self.exhausted = False
        # quotients of the current batch, the small window before each of
        # them and after the last, and how many have been emitted: the long
        # remainders above lag the current position by that many
        self._batch: list[int] = []
        self._windows: list[tuple[int, int, int, int]] = []
        self._used = 0

    def advance(self):
        if self._batch:
            if self._used < len(self._batch):
                a = self._batch[self._used]
                self._used += 1
                self.count += 1
                return a
            self._sync()
        if self.exhausted:
            return None
        if self.an == 0 or self.bn == 0:
            if self.an == self.bn:
                self.terminated = True
            else:
                self.exhausted = True
            return None
        if self.ad >> _BATCH_MIN_BITS and self.bd >> _BATCH_MIN_BITS and self._start_batch():
            return self.advance()
        qa, ra = divmod(self.ad, self.an)
        qb, rb = divmod(self.bd, self.bn)
        if qa != qb:
            self.exhausted = True
            return None
        self.an, self.ad = ra, self.an
        self.bn, self.bd = rb, self.bn
        self.count += 1
        return qa

    def _start_batch(self) -> bool:
        """Queue the quotients that the leading bits of both endpoints certify.

        Needs both denominators longer than _HEAD_BITS; runs only on those
        longer than _BATCH_MIN_BITS.
        """
        (ln, ld), (un, ud) = _head_bounds(self.an, self.ad)
        (ln2, ld2), (un2, ud2) = _head_bounds(self.bn, self.bd)
        if ln2 * ld < ln * ld2:
            ln, ld = ln2, ld2
        if un2 * ud > un * ud2:
            un, ud = un2, ud2
        batch = []
        windows = [(ln, ld, un, ud)]
        while ln and un and min(ld, ud).bit_length() > _CUT_BITS:
            qa, ra = divmod(ld, ln)
            qb, rb = divmod(ud, un)
            if qa != qb:
                break
            ln, ld, un, ud = ra, ln, rb, un
            batch.append(qa)
            windows.append((ln, ld, un, ud))
        self._batch, self._windows = batch, windows
        return bool(batch)

    def _sync(self):
        """Bring the long remainders to the current position; drop the batch.

        After quotients a_1..a_j with convergents p_k/q_k, Euclid's
        remainders are |q_j n - p_j d| and |q_{j-1} n - p_{j-1} d|.
        """
        if self._used:
            p0, p1, q0, q1 = 1, 0, 0, 1
            for a in self._batch[: self._used]:
                p0, p1 = p1, a * p1 + p0
                q0, q1 = q1, a * q1 + q0
            an, ad, bn, bd = self.an, self.ad, self.bn, self.bd
            self.an, self.ad = abs(q1 * an - p1 * ad), abs(q0 * an - p0 * ad)
            self.bn, self.bd = abs(q1 * bn - p1 * bd), abs(q0 * bn - p0 * bd)
        self._batch, self._windows, self._used = [], [], 0

    def tail_signs(self, num: int, den: int) -> tuple[int, int]:
        """Signs of tail - num/den (den > 0) at the two window ends."""
        self._sync()
        s1 = self.an * den - self.ad * num
        s2 = self.bn * den - self.bd * num
        return (s1 > 0) - (s1 < 0), (s2 > 0) - (s2 < 0)

    def tail_float_bounds(self):
        if self._batch:
            an, ad, bn, bd = self._windows[self._used]
            x1, x2 = an / ad, bn / bd
        else:
            x1, x2 = _head_ratio(self.an, self.ad), _head_ratio(self.bn, self.bd)
        lo, hi = (x1, x2) if x1 <= x2 else (x2, x1)
        return max(0.0, lo - 1e-12), hi + 1e-12

    def tail_fraction_bounds(self) -> tuple[Fraction, Fraction]:
        self._sync()
        t1 = Fraction(self.an, self.ad)
        t2 = Fraction(self.bn, self.bd)
        return (t1, t2) if t1 <= t2 else (t2, t1)


ExpansionSession = _WindowSession | _QuadraticSession


def _is_reduced(spec: RealSpec) -> bool:
    """Whether the input lies in the domain (0, 1/2] of a reduced x0."""
    if isinstance(spec, (RationalSpec, DecimalSpec)):
        return 0 < spec.value <= HALF
    if isinstance(spec, QuadraticSpec):
        # c > 0: x0 and x0 - 1/2 have the signs of a + b*sqrt(d) and 2a - c + 2b*sqrt(d)
        a, b, c, d = spec.value.a, spec.value.b, spec.value.c, spec.value.d
        return surd_sign(a, b, d) > 0 and surd_sign(2 * a - c, 2 * b, d) <= 0
    raise TypeError(f"not a RealSpec: {spec!r}")


def expansion(x0: RealSpec) -> ExpansionSession:
    """Fresh certified expansion session for a reduced input."""
    if not _is_reduced(x0):
        raise InvalidArgument("x0 must lie in (0, 1/2]")
    if isinstance(x0, QuadraticSpec):
        return _QuadraticSession(x0.value)
    return _WindowSession(*x0.bounds)


def cf_expand(x0: RealSpec, n: int, strict: bool = False) -> PartialQuotients:
    """First n certified partial quotients of x0.

    Decimal inputs may certify fewer than n quotients; the certified prefix
    is returned, or AmbiguousComparison is raised when strict=True.
    """
    if n < 1:
        raise InvalidArgument("n must be positive")
    session = expansion(x0)
    quotients = []
    for _ in range(n):
        a = session.advance()
        if a is None:
            break
        quotients.append(a)
    if strict and session.exhausted and len(quotients) < n:
        raise AmbiguousComparison(
            f"only {len(quotients)} of {n} quotients certified at the declared precision"
        )
    return PartialQuotients(tuple(quotients), session.terminated)


def convergents(pq: PartialQuotients) -> list[Convergent]:
    """Convergents (p_k, q_k), k = 0..N, from the standard recurrence."""
    p_prev, q_prev = 1, 0
    p_cur, q_cur = 0, 1
    out = [Convergent(0, 1, 0)]
    for k, a in enumerate(pq.quotients, start=1):
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        out.append(Convergent(p_cur, q_cur, k))
    return out


def ratio_y(conv: list[Convergent], n: int) -> Fraction:
    """Exact q_n / q_{n+1}."""
    if n < 0 or n + 1 >= len(conv):
        raise IndexOutOfRange(f"need convergents {n} and {n + 1}, have {len(conv)}")
    return Fraction(conv[n].q, conv[n + 1].q)


def tail_value(spec: RealSpec, pq: PartialQuotients, n: int) -> TailValue:
    """Exact bounds on the tail [0; a_{n+2}, a_{n+3}, ...], n >= -1.

    The tail itself, twice, for a rational or quadratic input; for a decimal
    the tails at the two window endpoints, in order, which bound it for every
    real in the window.  `spec` is the reduced input x0 (a full theta is
    reduced first when it lies outside (0, 1/2]).
    """
    if n < -1:
        raise InvalidArgument("tail index starts at -1")
    x0 = spec if _is_reduced(spec) else reduce_theta(spec)[1]
    session = expansion(x0)
    for k in range(n + 1):
        a = session.advance()
        if a is None:
            if session.terminated:
                raise IndexOutOfRange(
                    f"expansion terminated after {session.count} quotients"
                )
            raise TailUnavailable(
                f"decimal input certifies only {session.count} quotients"
            )
        if k < len(pq.quotients) and pq.quotients[k] != a:
            raise InvalidArgument("partial quotients do not belong to this input")
    if isinstance(session, _QuadraticSession):
        tail = session.tail
        return TailValue(n, (tail, tail))
    return TailValue(n, session.tail_fraction_bounds())


def mirror_value(quotients: tuple[int, ...] | list[int]) -> Fraction:
    """Exact value of the reversed expansion [0; a_N, ..., a_1]."""
    value = Fraction(0)
    for a in quotients:
        value = 1 / (a + value)
    return value
