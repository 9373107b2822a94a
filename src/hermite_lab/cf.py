"""Continued-fraction engine for the reduced input x0 = |theta - nearest(theta)|.

Expansion runs through one of two sessions: the classical integer
recurrence on (P + sqrt(D))/Q for quadratic irrationals, and Euclid on the
endpoints of a window for decimals and rationals, a rational being
the zero-width window.  A quotient is emitted only when every real in the
window shares it.  The window session certifies each batch of quotients
in one loop of small steps.  A long window's batch (a Lehmer batch)
runs on the leading bits of its ends, the heads: Euclid on the lower head
alone, then one test that the upper head lies in the Gauss-map cylinder
of the batch's quotients and one that the heads' tails after it are
within 2**-34 of each other.  Where either test fails, the heads run in
lockstep, each step checked at both, as a short window's exact ends do
throughout.  Either loop yields the batch's cosequence, which then moves
the remainders, the ends kept in order, the lower first, and the
convergent denominators past the batch in a few multiplications.  The
lockstep loop carries all four of its numbers; the lower head's loop
carries the q half and recovers the p half after it by Lehmer's identity.

A window whose lower end lo has a denominator past 2,048 bits keeps only
lo's exact tail, and its batches run on the zero-width window (lo, lo).
On the cylinder of the quotients a_1..a_K the tail t of x has |dt/dx| <=
(Q_K + Q_{K-1})**2, so while that times the window's width stays below
2**-35, and t away from 0 and 1 by as much, the upper end's tail shares
the quotients and lies within 2**-35 of lo's.  Near exhaustion, where
that fails, the upper end's exact tail is built once and both ends go
on.  One exact end took the median `deep_decimal` sample from 10.57 to
9.23 ms (`BENCH_one_exact_end.json`), and a lower head's loop that carries
only the q half of the cosequence from 9.20 to 7.88 ms
(`BENCH_lean_batches.json`).

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
    lowest_terms,
    spec_text,
    surd_floor,
    surd_sign,
)
from .record import Record


class PartialQuotients(Record):
    __slots__ = ("quotients", "terminated")

    def __init__(self, quotients: tuple[int, ...], terminated: bool):
        if min(quotients, default=1) < 1:
            raise InvalidArgument("partial quotients must be >= 1")
        if quotients and quotients[0] < 2:
            raise InvalidArgument("a1 >= 2 is forced by x0 <= 1/2")
        if terminated and quotients and quotients[-1] < 2:
            raise InvalidArgument("canonical terminating expansion ends with a quotient >= 2")
        self._fill(quotients, terminated)


class Convergent(Record):
    __slots__ = ("p", "q", "index")

    def __init__(self, p: int, q: int, index: int):
        set_p, set_q, set_index = self._setters
        set_p(self, p)
        set_q(self, q)
        set_index(self, index)


def reduce_theta(spec: RealSpec) -> tuple[int, RealSpec, int]:
    """Split theta into (sign of theta', x0 = |theta'|, nearest integer).

    theta' = theta - nearest lies in (-1/2, 1/2]; the half-integer tie goes
    to +1/2 so outputs are deterministic.  All on integers: a quadratic has
    no tie, and its nearest integer is `surd_floor` of theta + 1/2.  A
    rational or decimal value n/d has nearest m = ceil(n/d - 1/2) =
    -((d - 2n) // (2d)), and n - m*d is prime to d as n is, so x0, and a
    decimal's window ends likewise, are built in lowest terms with no gcd.
    """
    if isinstance(spec, QuadraticSpec):
        a, b, c, d = spec.value.a, spec.value.b, spec.value.c, spec.value.d
        m = surd_floor(2 * a + c, 2 * b, 2 * c, d)
        a -= m * c  # gcd(a, b, c) is unchanged: still the normal form
        sign = surd_sign(a, b, d)
        return sign, QuadraticSpec(QuadraticReal(sign * a, sign * b, c, d)), m
    if not isinstance(spec, (RationalSpec, DecimalSpec)):
        raise TypeError(f"not a RealSpec: {spec!r}")
    n, d = spec.value.numerator, spec.value.denominator
    if d == 1:
        raise IntegerInput(f"{spec_text(spec)} is an integer")
    m = -((d - 2 * n) // (2 * d))
    n -= m * d  # not 0, as d > 1
    sign = 1 if n > 0 else -1
    if isinstance(spec, RationalSpec):
        return sign, RationalSpec(lowest_terms(sign * n, d)), m
    # the window moves with the value, so it still holds it: no check
    lo, hi = spec.window_lo, spec.window_hi
    lo_n, hi_n = lo.numerator - m * lo.denominator, hi.numerator - m * hi.denominator
    if lo_n >= 0:
        sign, ends = 1, ((lo_n, lo.denominator), (hi_n, hi.denominator))
    elif hi_n <= 0:
        sign, ends = -1, ((-hi_n, hi.denominator), (-lo_n, lo.denominator))
    else:
        raise AmbiguousComparison(
            "theta is indistinguishable from an integer at its declared precision"
        )
    w_lo, w_hi = (lowest_terms(*end) for end in ends)
    return sign, DecimalSpec(lowest_terms(sign * n, d), spec.declared_bits, w_lo, w_hi), m


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
# The pair after a 1 in a Lehmer batch is widened by 2**-_GAP_BITS.  On both
# exact ends a one-end batch holds if the heads' tails after it are within
# that much of each other.  On one exact end the heads' gap and the distance
# between the ends' tails are each held to 2**-_WIDTH_BITS, half as much.
_GAP_BITS = 34
_WIDTH_BITS = _GAP_BITS + 1
# A batch's q_j + q_{j-1} rarely has more than _BATCH_Q_BITS bits: about
# 2**(_HEAD_BITS - _CUT_BITS) times the last quotient plus 1.
_BATCH_Q_BITS = _HEAD_BITS - _CUT_BITS + 8
# A window starts on one exact end only if its lower end's denominator is
# past _ONE_END_MIN_BITS.  Scanned until it is exhausted, a shorter window
# spends more on the width and on building the other end than it saves on
# skipped updates of that end; 2,048 bits is the measured break-even.
_ONE_END_MIN_BITS = 2048


def _one_end_batch(ln: int, ld: int, un: int, ud: int, limit: int, gap_bits: int):
    """Euclid on the lower head ln/ld alone, tested once at the upper head un/ud.

    The loop stops at a remainder of 0, a denominator down to _CUT_BITS or
    `limit` quotients a_1..a_j.  It carries only the q half of the
    cosequence: with n0/d0 the lower head at entry, s = (-1)**j and
    (ln, ld) its remainders at exit, Lehmer's identity q_j n0 - p_j d0 =
    s ln and q_{j-1} n0 - p_{j-1} d0 = -s ld (Knuth, TAOCP vol. 2, 4.5.2)
    gives p_j and p_{j-1} after the loop by two exact divisions.  A
    quotient of 1 is found by one subtraction, and only the others divide.

    The reals that start with a_1..a_j form the interval between p_j/q_j
    and (p_j + p_{j-1})/(q_j + q_{j-1}), a cylinder set of the Gauss map,
    and the tail of such an x after them is (q_j x - p_j)/(p_{j-1} -
    q_{j-1} x): N/D at x = un/ud, both negated after an odd j.  So 0 < N <
    D puts the upper head, and every real between the heads, in the
    cylinder; being strict, it also turns away a head on a convergent.
    The gap test asks that N/D lie within 2**-gap_bits of the lower head's
    tail ln/ld.  As |T(x) - T(y)| = |x - y|/(xy) for T(t) = 1/t - a, the
    heads' tails were as close after every earlier quotient, and the ends'
    tails lie between theirs: the pair after a 1 is the lower head's tail
    r/ln widened by 2**-_GAP_BITS each way.  The heads are below 2**256, so
    r/ln is formed from two floats: its three roundings lie far inside the
    widening.

    Returns the quotients, their tail pairs and the cosequence (p_{j-1},
    p_j, q_{j-1}, q_j), or None for an empty batch or a failed test.
    """
    cut, gap = 1 << _CUT_BITS, 2.0**-_GAP_BITS
    n0, d0 = ln, ld
    batch, tails = [], []
    q0, q1 = 0, 1
    for _ in range(limit):
        if not ln or ld < cut:
            break
        r = ld - ln  # ln < ld: the quotient is 1 iff r < ln
        if r < ln:
            batch.append(1)
            t = float(r) / float(ln)
            tails.append((t - gap, t + gap))
            q0, q1 = q1, q1 + q0
        else:
            a, r = divmod(ld, ln)
            batch.append(a)
            tails.append(None)
            q0, q1 = q1, a * q1 + q0
        ln, ld = r, ln
    s = -1 if len(batch) & 1 else 1
    p0, p1 = (q0 * n0 + s * ld) // d0, (q1 * n0 - s * ln) // d0
    N, D = s * (q1 * un - p1 * ud), s * (p0 * ud - q0 * un)
    if batch and 0 < N < D and abs(N * ld - ln * D) <= (D * ld) >> gap_bits:
        return batch, tails, p0, p1, q0, q1
    return None


def _width(lo: Fraction, hi: Fraction):
    """(n, mul, div, shifts, wbits) with hi - lo = n/c <= 2**-wbits, lo <= hi.

    c is lo.den * mul = hi.den * div, with mul and div shift counts if
    `shifts`.  Where both denominators have the same odd part o, as in a
    decimal's window from `numeric._plus_ulp`, c is o * 2**m: n comes from
    shifts, and wbits is exact; infinite for a rational's (value, value).
    Otherwise c = lo.den * hi.den, n is one cross-multiplication, and wbits
    is bounded by the factors' bit lengths, without forming c.
    """
    an, ad, bn, bd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    sa, sb = (ad & -ad).bit_length() - 1, (bd & -bd).bit_length() - 1
    if ad >> sa == bd >> sb:
        m = max(sa, sb)
        n, c = (bn << (m - sb)) - (an << (m - sa)), ad << (m - sa)
        if not n:  # a rational: no width to test
            return n, 0, 0, True, math.inf
        wbits = c.bit_length() - n.bit_length()
        return n, m - sa, m - sb, True, wbits if n << wbits <= c else wbits - 1
    n = bn * ad - an * bd
    return n, bd, ad, False, ad.bit_length() + bd.bit_length() - 2 - n.bit_length()


class _WindowSession:
    """Euclid on a window's endpoints; emits only shared quotients.

    A rational is the zero-width window (value, value).  Both exact ends
    are kept in order: (an, ad) is the tail at the lower end and (bn, bd)
    the tail at the upper one.  A step maps t to 1/t - a, which reverses
    the order, so the ends swap after an odd number of quotients.  Both
    remainders reaching 0 on the same step means the expansion terminated;
    one alone, or differing quotients, means the window is exhausted.

    A window whose lower end lo has a denominator past _ONE_END_MIN_BITS
    starts on one exact end: (an, ad) is lo's tail alone, the upper one
    after an odd count (`_odd`), (bn, bd) is None, and `_one_end` holds
    `_width(lo, hi)`.  Near exhaustion, once the width no longer certifies
    a batch, the other end's exact tail is built from it and both ends go
    on; `_one_end` is then None.  `BENCH_one_exact_end.json` measures it
    against both exact ends throughout.

    Each run is one batch of `_start_batch`.  It moves the remainders and
    the convergent denominators past the batch before it is handed out.
    """

    def __init__(self, lo: Fraction, hi: Fraction):
        self.an, self.ad = lo.numerator, lo.denominator
        self.bn, self.bd = hi.numerator, hi.denominator
        self.terminated = False
        self.exhausted = False
        self._q_prev, self._q_cur = 0, 1
        self._one_end = None
        if self.ad >> _ONE_END_MIN_BITS:
            self._one_end = _width(lo, hi)
            self._odd = False
            self.bn = self.bd = None

    def run(self, limit: int):
        """The next certified quotients, at most `limit` (>= 1), and their tail pairs.

        A run is one batch; it is empty once the expansion terminated or the
        window is exhausted.  Beside each quotient of 1 is a float pair
        (lo, hi) that brackets both ends' tails after it up to a few
        roundings, widened by 2**-34 on a one-end batch or one exact end;
        None beside the others.
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

        Both loops give the cosequence.  After quotients a_1..a_j with
        convergents p_k/q_k, Euclid's remainders are |q_j n - p_j d| and
        |q_{j-1} n - p_{j-1} d|, and the denominators (Q', Q) from before the
        batch become (q_{j-1} Q + p_{j-1} Q', q_j Q + p_j Q'); after an odd j
        the ends swap, as the lower end's tail is then the upper one.

        On one exact end the batch runs on the zero-width window (lo, lo),
        with a 2**-_WIDTH_BITS gap test and its lockstep pairs widened by
        2**-_GAP_BITS, and only lo's tail moves.  On the Gauss-map cylinder
        of a_1..a_K a real is x = (P_K + t P_{K-1})/(Q_K + t Q_{K-1}), so
        |dt/dx| = (Q_K + t Q_{K-1})**2, at most (Q_K + Q_{K-1})**2
        (Khinchin; Iosifescu and Kraaikamp 2002).  With e = 2*bitlen(Q_K +
        Q_{K-1}) - wbits, the upper end's tail is then within 2**e of lo's
        tail t while both ends lie in the cylinder, and 2**e < t < 1 - 2**e
        keeps them there: by continuity the window cannot leave the cylinder
        before a tail reaches 0 or 1.  So the batch holds for the whole
        window if after it e <= -_WIDTH_BITS and t passes that test, here on
        bit lengths; as T expands, the tails were as close after every
        earlier quotient, and each pair after a 1 brackets lo's tail within
        2**-_WIDTH_BITS and so the upper end's too.  Where the test fails,
        once lo's denominator is down to _BATCH_MIN_BITS, or ahead of a
        batch that might cross e = -_WIDTH_BITS, `_both_ends` leaves one
        exact end before the session moves.
        """
        an, ad, bn, bd = self.an, self.ad, self.bn, self.bd
        one_end = self._one_end
        if one_end:
            # bit_length, not a shift: on a long window a shift copies it
            if ad.bit_length() <= _BATCH_MIN_BITS or 2 * (
                (self._q_prev + self._q_cur).bit_length() + _BATCH_Q_BITS
            ) > one_end[4] - _WIDTH_BITS:
                return self._both_ends(limit)
            bn, bd = an, ad
        windows = [(an, ad, bn, bd, 0)]
        if one_end or ad >> _BATCH_MIN_BITS and bd >> _BATCH_MIN_BITS:
            sa, sb = ad.bit_length() - _HEAD_BITS, bd.bit_length() - _HEAD_BITS
            heads = an >> sa, (ad >> sa) + 1, (bn >> sb) + 1, bd >> sb
            certified = _one_end_batch(*heads, limit, _WIDTH_BITS if one_end else _GAP_BITS)
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
        if one_end:
            # the ends are the same: only lo's tail moves, and only if the
            # width test holds after the batch
            an, ad = abs(q1 * an - p1 * ad), abs(q0 * an - p0 * ad)
            Q0, Q1 = self._q_prev, self._q_cur
            Q0, Q1 = q0 * Q1 + p0 * Q0, q1 * Q1 + p1 * Q0
            # 2**e < an/ad and 2**e < 1 - an/ad, on bit lengths, with e = -f;
            # a tail of 0, past a last quotient, fails it whatever f is
            f = one_end[4] - 2 * (Q0 + Q1).bit_length()
            span = max(ad.bit_length() - f, 0)
            if f < _WIDTH_BITS or an.bit_length() <= span or (ad - an).bit_length() <= span:
                return self._both_ends(limit)
            self.an, self.ad, self._q_prev, self._q_cur = an, ad, Q0, Q1
            self._odd ^= len(batch) & 1
            if windows:
                gap = 2.0**-_GAP_BITS
                tails = [t and (t[0] - gap, t[1] + gap) for t in tails]
            return batch, tails
        if len(batch) & 1:
            an, ad, bn, bd = bn, bd, an, ad
        self.an, self.ad = abs(q1 * an - p1 * ad), abs(q0 * an - p0 * ad)
        self.bn, self.bd = abs(q1 * bn - p1 * bd), abs(q0 * bn - p0 * bd)
        Q0, Q1 = self._q_prev, self._q_cur
        self._q_prev, self._q_cur = q0 * Q1 + p0 * Q0, q1 * Q1 + p1 * Q0
        return batch, tails

    def _both_ends(self, limit: int):
        """Leave one exact end: build the upper end's tail, then run the batch on both."""
        self.an, self.ad, self.bn, self.bd = self._tails()
        self._one_end = None
        return self._start_batch(limit)

    def _tails(self) -> tuple[int, int, int, int]:
        """(an, ad, bn, bd), the exact tails at the lower and the upper end, in order.

        On one exact end only, where the other end's tail is built without
        changing the session.  Write lo = A/c and hi = (A + n)/c as `_width`
        does, with A = lo.num * mul (where `shifts`, each product with or
        quotient by mul or div is a shift by it).  After K quotients, Euclid's
        remainders give Q_K A - P_K c = (-1)**K an*mul and Q_{K-1} A -
        P_{K-1} c = (-1)**(K-1) ad*mul.  hi's tail |Q_K (A + n) - P_K c| /
        |Q_{K-1} (A + n) - P_{K-1} c| is then |x*mul + Q_K n| / |Q_{K-1} n -
        y*mul| with (x, y) = (-1)**K (an, ad), both divided by div: hi's own
        remainders, in lowest terms as hi is, with no P_K.
        """
        an, ad = self.an, self.ad
        n, mul, div, shifts, _ = self._one_end
        x, y = (-an, -ad) if self._odd else (an, ad)
        Q0, Q1 = self._q_prev, self._q_cur
        if shifts:
            bn, bd = abs((x << mul) + Q1 * n) >> div, abs(Q0 * n - (y << mul)) >> div
        else:
            bn, bd = abs(x * mul + Q1 * n) // div, abs(Q0 * n - y * mul) // div
        return (bn, bd, an, ad) if self._odd else (an, ad, bn, bd)

    def denominators(self) -> tuple[int, int]:
        """(q_{k-1}, q_k) after the k quotients emitted so far; (0, 1) at k = 0."""
        return self._q_prev, self._q_cur

    def tail_signs(self, num: int, den: int) -> tuple[int, int]:
        """Signs of tail - num/den (den > 0) at the lower and the upper window end."""
        if self._one_end:
            an, ad, bn, bd = self._tails()
        else:
            an, ad, bn, bd = self.an, self.ad, self.bn, self.bd
        s1 = an * den - ad * num
        s2 = bn * den - bd * num
        return (s1 > 0) - (s1 < 0), (s2 > 0) - (s2 < 0)

    def tail_bounds(self) -> tuple[Fraction, Fraction]:
        """Exact tails at the lower and the upper window end."""
        if self._one_end:
            an, ad, bn, bd = self._tails()
        else:
            an, ad, bn, bd = self.an, self.ad, self.bn, self.bd
        return lowest_terms(an, ad), lowest_terms(bn, bd)  # Euclid's remainders: coprime


ExpansionSession = _WindowSession | _QuadraticSession


def _is_reduced(spec: RealSpec) -> bool:
    """Whether the input lies in the domain (0, 1/2] of a reduced x0."""
    if isinstance(spec, (RationalSpec, DecimalSpec)):
        n, d = spec.value.numerator, spec.value.denominator
        return 0 < n and 2 * n <= d
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
