"""Continued-fraction engine for the reduced input x0 = |theta - nearest(theta)|.

Expansion runs through one of two sessions: the classical integer
recurrence on (P + sqrt(D))/Q for quadratic irrationals, and Euclid on the
endpoints of a window for decimals and rationals, a rational being
the zero-width window.  A quotient is emitted only when every real in the
window shares it.  The window session certifies each batch of quotients
in one loop of small steps.  A long window's batch (a Lehmer batch) runs
on the leading bits of its ends, the heads: Euclid on the lower head
alone, then one test that the upper head lies in the Gauss-map cylinder
of the batch's quotients and one that the heads' tails after it are
within 2**-34 of each other.  Where either test fails, the heads run in
lockstep, each step checked at both, as a short window's exact ends do
throughout: near exhaustion a short window's ends drift apart, and the
criterion then needs both ends' tails.  Either loop carries the batch's
cosequence, which then moves the remainders, the ends kept in order, the
lower first, and the convergent denominators past the batch in a few
multiplications.

Both sessions only move forward.  They keep their state at the current
position, after the quotients emitted so far, and only `run(limit)`
advances it: it hands out the next quotients certified together, with
float bounds on the tail after each quotient of 1 for the Hermite
criterion.  The other methods read the state: `denominators()` gives the
last two convergent denominators, `tail_signs(num, den)` the signs of
tail - num/den at both ends, and `tail_bounds()` exact bounds on the tail.
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
    spec_text,
    surd_floor,
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


def reduce_theta(spec: RealSpec) -> tuple[int, RealSpec, int]:
    """Split theta into (sign of theta', x0 = |theta'|, nearest integer).

    theta' = theta - nearest lies in (-1/2, 1/2]; the half-integer tie goes
    to +1/2 so outputs are deterministic.  A quadratic has no tie, and its
    nearest integer is `surd_floor` of theta + 1/2: no field arithmetic.
    """
    if isinstance(spec, (RationalSpec, DecimalSpec)) and spec.value.denominator == 1:
        raise IntegerInput(f"{spec_text(spec)} is an integer")
    if isinstance(spec, RationalSpec):
        m = math.ceil(spec.value - HALF)
        prime = spec.value - m
        sign = 1 if prime > 0 else -1
        return sign, RationalSpec(abs(prime)), m
    if isinstance(spec, QuadraticSpec):
        a, b, c, d = spec.value.a, spec.value.b, spec.value.c, spec.value.d
        m = surd_floor(2 * a + c, 2 * b, 2 * c, d)
        a -= m * c  # gcd(a, b, c) is unchanged: still the normal form
        sign = surd_sign(a, b, d)
        return sign, QuadraticSpec(QuadraticReal(sign * a, sign * b, c, d)), m
    if isinstance(spec, DecimalSpec):
        # the window moves with the value, so it still holds it: no check
        m = math.ceil(spec.value - HALF)
        w_lo = spec.window_lo - m
        w_hi = spec.window_hi - m
        if w_lo >= 0:
            return 1, DecimalSpec(spec.value - m, spec.declared_bits, w_lo, w_hi), m
        if w_hi <= 0:
            return -1, DecimalSpec(m - spec.value, spec.declared_bits, -w_hi, -w_lo), m
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
        self.root = math.isqrt(self.D << 64)  # floor(sqrt(D) * 2**32)
        self.r = self.root >> 32
        self.terminated = False
        self.exhausted = False
        self._q_prev, self._q_cur = 0, 1

    def denominators(self) -> tuple[int, int]:
        """(q_{k-1}, q_k) after the k quotients emitted so far; (0, 1) at k = 0."""
        return self._q_prev, self._q_cur

    def tail_signs(self, num: int, den: int) -> tuple[int, int]:
        """Sign of tail - num/den (den > 0) twice: the two ends of a zero-width window."""
        s = surd_sign(den * self.P - num * self.Q, den, self.D)
        s = s if self.Q > 0 else -s
        return s, s

    def run(self, limit: int):
        """One quotient and, after a 1, the float pair (lo, hi) around the tail.

        The recurrence certifies one quotient at a time, so a run is one
        quotient whatever `limit`; see `_WindowSession.run`.
        """
        P, Q = -self.P, (self.D - self.P * self.P) // self.Q
        # floor((P + sqrt(D))/Q) with r = floor(sqrt(D)); for Q < 0 it is
        # -floor((P + r)/|Q|) - 1, as the ratio is irrational
        a = (P + self.r) // Q if Q > 0 else (P + self.r + 1) // Q
        self.P, self.Q = P - a * Q, Q
        self._q_prev, self._q_cur = self._q_cur, a * self._q_cur + self._q_prev
        if a != 1:
            return (a,), (None,)
        # (P*2**32 + root)/(Q*2**32) and the same with root + 1 bracket the
        # tail within 2**-32, far inside the criterion's 1e-9 margin; int
        # true division rounds correctly, and on ints below 2**53, as they
        # are for radicands below about 2**40, it is one float division
        n, g = (self.P << 32) + self.root, self.Q << 32
        return (1,), ((n / g, (n + 1) / g) if g > 0 else ((n + 1) / g, n / g),)

    def tail_bounds(self) -> tuple[QuadraticReal, QuadraticReal]:
        """The tail itself, twice: the ends of a zero-width window."""
        P, f, Q = (self.P, self.f, self.Q) if self.Q > 0 else (-self.P, -self.f, -self.Q)
        g = math.gcd(P, f, Q)
        tail = QuadraticReal(P // g, f // g, Q // g, self.d)
        return tail, tail


# A Lehmer batch starts from the leading _HEAD_BITS of each endpoint and stops
# once the lower head's denominator (in lockstep, either head's) is down to
# _CUT_BITS: on a window narrower than the heads' rounding, their tails are
# then still within about 2**(_HEAD_BITS - 2*_CUT_BITS) = 2**-48 of each
# other.  That passes a one-end batch's 2**-_GAP_BITS gap test with room to
# spare, and it is far below the float prefilter's 1e-9 margin, so reading
# the heads' tails instead of the exact ones leaves almost no flag to the
# exact fallback.
_HEAD_BITS = 256
_CUT_BITS = 152
# Lehmer batches run only on denominators past _BATCH_MIN_BITS: on a window
# only a few bits longer than the heads (the CLI's 256-bit decimals), the
# heads are nearly the whole numbers and a batch saves no big-integer work.
_BATCH_MIN_BITS = _HEAD_BITS + 64
# A one-end batch holds only if the heads' tails after it are within
# 2**-_GAP_BITS of each other, and its tail pairs are widened by as much.
_GAP_BITS = 34


def _one_end_batch(ln: int, ld: int, un: int, ud: int, limit: int):
    """Euclid on the lower head ln/ld alone, tested once at the upper head un/ud.

    The loop stops at a remainder of 0, a denominator down to _CUT_BITS or
    `limit` quotients a_1..a_j.  The reals that start with a_1..a_j form the
    interval between p_j/q_j and (p_j + p_{j-1})/(q_j + q_{j-1}), a cylinder
    set of the Gauss map, and the tail of such an x after them is
    (q_j x - p_j)/(p_{j-1} - q_{j-1} x): N/D at x = un/ud, both negated
    after an odd j.  So 0 < N < D puts the upper head, and every real
    between the heads, in the cylinder; being strict, it also turns away a
    head on a convergent.  The gap test asks that N/D lie within
    2**-_GAP_BITS of the lower head's tail ln/ld.  As |T(x) - T(y)| =
    |x - y|/(xy) for T(t) = 1/t - a, the heads' tails were as close after
    every earlier quotient, and the ends' tails lie between theirs: the pair
    after a 1, the lower head's tail r/ln widened by 2**-_GAP_BITS each way,
    brackets both.

    Returns the quotients, their tail pairs and the cosequence (p_{j-1},
    p_j, q_{j-1}, q_j), or None for an empty batch or a failed test.
    """
    cut, gap = 1 << _CUT_BITS, 2.0**-_GAP_BITS
    batch, tails = [], []
    p0, p1, q0, q1 = 1, 0, 0, 1
    for _ in range(limit):
        if not ln or ld < cut:
            break
        a, r = divmod(ld, ln)
        batch.append(a)
        if a == 1:
            t = r / ln
            tails.append((t - gap, t + gap))
        else:
            tails.append(None)
        p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0
        ln, ld = r, ln
    N, D = q1 * un - p1 * ud, p0 * ud - q0 * un
    if len(batch) & 1:
        N, D = -N, -D
    if batch and 0 < N < D and abs(N * ld - ln * D) <= (D * ld) >> _GAP_BITS:
        return batch, tails, p0, p1, q0, q1
    return None


class _WindowSession:
    """Euclid on a window's endpoints; emits only shared quotients.

    A rational is the zero-width window (value, value).  The ends are kept
    in order: (an, ad) is the tail at the lower end and (bn, bd) the tail at
    the upper one.  A step maps t to 1/t - a, which reverses the order, so
    the ends swap after an odd number of quotients.  Both remainders
    reaching 0 on the same step means the expansion terminated; one alone,
    or differing quotients, means the window is exhausted.

    Each run is one batch of `_start_batch`: a one-end Lehmer batch on a
    long window, else a lockstep one.  It moves the remainders and the
    convergent denominators past the batch before it is handed out.
    """

    def __init__(self, lo: Fraction, hi: Fraction):
        self.an, self.ad = lo.numerator, lo.denominator
        self.bn, self.bd = hi.numerator, hi.denominator
        self.terminated = False
        self.exhausted = False
        self._q_prev, self._q_cur = 0, 1

    def run(self, limit: int):
        """The next certified quotients, at most `limit` (>= 1), and their tail pairs.

        A run is one batch; it is empty once the expansion terminated or the
        window is exhausted.  Beside each quotient of 1 is a float pair
        (lo, hi) that brackets both ends' tails after it up to one rounding,
        widened by 2**-34 on a one-end batch; None beside the others.
        """
        batch, tails = self._start_batch(limit)
        if batch:
            return batch, tails
        # both remainders 0 on the same step: terminated
        self.terminated = self.an == self.bn == 0
        self.exhausted = not self.terminated
        return (), ()

    def _start_batch(self, limit: int):
        """Certify at most `limit` quotients on a small window around both ends.

        A long window, both denominators past _BATCH_MIN_BITS, first runs on
        the lower end's leading _HEAD_BITS rounded down and the upper end's
        rounded up: `_one_end_batch` divides the lower head alone and tests
        the upper head once at the end.  If it rejects its batch, the heads
        run in lockstep until a denominator is down to _CUT_BITS, and if that
        certifies nothing, the exact ends take one step.  A short window runs
        in lockstep on its exact ends.  Each lockstep step divides the lower
        end ln/ld, checks that the quotient holds at the upper end un/ud,
        0 <= ud - a*un < un, and swaps the ends, as it reverses their order.

        Both loops carry the cosequence.  After quotients a_1..a_j with
        convergents p_k/q_k, Euclid's remainders are |q_j n - p_j d| and
        |q_{j-1} n - p_{j-1} d|, and the denominators (Q', Q) from before the
        batch become (q_{j-1} Q + p_{j-1} Q', q_j Q + p_j Q'); after an odd j
        the ends swap, as the lower end's tail is then the upper one.
        """
        an, ad, bn, bd = self.an, self.ad, self.bn, self.bd
        windows = [(an, ad, bn, bd, 0)]
        if ad >> _BATCH_MIN_BITS and bd >> _BATCH_MIN_BITS:
            sa, sb = ad.bit_length() - _HEAD_BITS, bd.bit_length() - _HEAD_BITS
            heads = an >> sa, (ad >> sa) + 1, (bn >> sb) + 1, bd >> sb
            certified = _one_end_batch(*heads, limit)
            if certified:
                batch, tails, p0, p1, q0, q1 = certified
                windows = []
            else:
                # each new denominator is an old numerator, below its end's
                # old denominator: a cut at the lesser old one stops after
                # one step
                windows = [(*heads, 1 << _CUT_BITS), (an, ad, bn, bd, min(ad, bd))]
        for ln, ld, un, ud, cut in windows:
            batch, tails = [], []
            p0, p1, q0, q1 = 1, 0, 0, 1
            for _ in range(limit):
                if not (ln and un and ld >= cut and ud >= cut):
                    break
                a, r = divmod(ld, ln)
                s = ud - un if a == 1 else ud - a * un
                if s < 0 or s >= un:
                    break
                batch.append(a)
                tails.append((s / un, r / ln) if a == 1 else None)
                p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0
                ln, ld, un, ud = s, un, r, ln
            if batch:
                break
        if len(batch) & 1:
            an, ad, bn, bd = bn, bd, an, ad
        self.an, self.ad = abs(q1 * an - p1 * ad), abs(q0 * an - p0 * ad)
        self.bn, self.bd = abs(q1 * bn - p1 * bd), abs(q0 * bn - p0 * bd)
        Q0, Q1 = self._q_prev, self._q_cur
        self._q_prev, self._q_cur = q0 * Q1 + p0 * Q0, q1 * Q1 + p1 * Q0
        return batch, tails

    def denominators(self) -> tuple[int, int]:
        """(q_{k-1}, q_k) after the k quotients emitted so far; (0, 1) at k = 0."""
        return self._q_prev, self._q_cur

    def tail_signs(self, num: int, den: int) -> tuple[int, int]:
        """Signs of tail - num/den (den > 0) at the lower and the upper window end."""
        s1 = self.an * den - self.ad * num
        s2 = self.bn * den - self.bd * num
        return (s1 > 0) - (s1 < 0), (s2 > 0) - (s2 < 0)

    def tail_bounds(self) -> tuple[Fraction, Fraction]:
        """Exact tails at the lower and the upper window end."""
        return Fraction(self.an, self.ad), Fraction(self.bn, self.bd)


ExpansionSession = _WindowSession | _QuadraticSession


def _is_reduced(spec: RealSpec) -> bool:
    """Whether the input lies in the domain (0, 1/2] of a reduced x0."""
    if isinstance(spec, (RationalSpec, DecimalSpec)):
        return 0 < spec.value <= HALF
    if isinstance(spec, QuadraticSpec):
        v = spec.value  # irrational: x0 lies in (0, 1/2) iff floor(2*x0) = 0
        return surd_floor(2 * v.a, 2 * v.b, v.c, v.d) == 0
    raise TypeError(f"not a RealSpec: {spec!r}")


def expansion(x0: RealSpec) -> ExpansionSession:
    """Fresh certified expansion session for a reduced input."""
    if not _is_reduced(x0):
        raise InvalidArgument("x0 must lie in (0, 1/2]")
    if isinstance(x0, QuadraticSpec):
        return _QuadraticSession(x0.value)
    return _WindowSession(*x0.bounds)


def take(session: ExpansionSession, n: int) -> list[int]:
    """The session's next quotients, until it has n or gets an empty run."""
    quotients: list[int] = []
    while len(quotients) < n:
        run = session.run(n - len(quotients))[0]
        if not run:
            break
        quotients += run
    return quotients


def cf_expand(x0: RealSpec, n: int, strict: bool = False) -> PartialQuotients:
    """First n certified partial quotients of x0.

    Decimal inputs may certify fewer than n quotients; the certified prefix
    is returned, or AmbiguousComparison is raised when strict=True.
    """
    if n < 1:
        raise InvalidArgument("n must be positive")
    session = expansion(x0)
    quotients = take(session, n)
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


def tail_value(
    spec: RealSpec, pq: PartialQuotients, n: int
) -> tuple[Fraction | QuadraticReal, Fraction | QuadraticReal]:
    """Exact bounds (lo, hi) on the tail [0; a_{n+2}, a_{n+3}, ...], n >= -1.

    The tail itself, twice, for a rational or quadratic input; for a decimal
    the tails at the two window endpoints, in order, which bound it for every
    real in the window.  `spec` is the reduced input x0 (a full theta is
    reduced first when it lies outside (0, 1/2]).
    """
    if n < -1:
        raise InvalidArgument("tail index starts at -1")
    x0 = spec if _is_reduced(spec) else reduce_theta(spec)[1]
    session = expansion(x0)
    got = take(session, n + 1)
    # a mismatch is reported before the expansion's end
    if any(a != b for a, b in zip(got, pq.quotients)):
        raise InvalidArgument("partial quotients do not belong to this input")
    if len(got) <= n:
        if session.terminated:
            raise IndexOutOfRange(f"expansion terminated after {len(got)} quotients")
        raise TailUnavailable(f"decimal input certifies only {len(got)} quotients")
    return session.tail_bounds()


def mirror_value(quotients: tuple[int, ...] | list[int]) -> Fraction:
    """Exact value of the reversed expansion [0; a_N, ..., a_1]."""
    value = Fraction(0)
    for a in quotients:
        value = 1 / (a + value)
    return value
