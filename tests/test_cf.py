"""Reduction, expansion, convergents, exact ratios and certified tails."""

from __future__ import annotations

import copy
import math
import random
from fractions import Fraction
from math import isqrt

import pytest
from helpers import (
    count_one_end,
    next_quotient,
    quad_bounds,
    random_quadratic_specs,
    random_rational_specs,
)

from hermite_lab import (
    AmbiguousComparison,
    DecimalSpec,
    HermiteLabError,
    IndexOutOfRange,
    IntegerInput,
    InvalidArgument,
    PartialQuotients,
    QuadraticReal,
    QuadraticSpec,
    RationalSpec,
    TailUnavailable,
    cf_expand,
    convergents,
    make_decimal,
    mirror_value,
    parse_real,
    quadratic_or_rational,
    ratio_y,
    reduce_theta,
    tail_value,
)
from hermite_lab import cf
from hermite_lab.cf import _BATCH_MIN_BITS, expansion, take
from hermite_lab.hermite import criterion_scan
from hermite_lab.lattice import complete_sequence
from hermite_lab.stats import auto_precision_bits, sample_thetas
from test_hermite import per_index_scan

GOLDEN = parse_real("(1+1*sqrt(5))/2")
Q21 = parse_real("(-3+1*sqrt(21))/6")
# a session's float tail pair is correct to the rounding of one division each;
# a one-end batch's pair after a 1 takes three roundings, far inside its
# 2**-34 widening
ROUNDING = Fraction(1, 1 << 53)
# a pair handed out on one exact end holds lo's own tail at least this far inside
ONE_END_ROOM = Fraction(1, 1 << 35)


def _reduce_by_fractions(spec):
    """reduce_theta of a rational or decimal in Fraction arithmetic: the oracle."""
    if spec.value.denominator == 1:
        raise IntegerInput("an integer")
    m = math.ceil(spec.value - Fraction(1, 2))
    if isinstance(spec, RationalSpec):
        prime = spec.value - m
        return (1 if prime > 0 else -1), RationalSpec(abs(prime)), m
    w_lo, w_hi = spec.window_lo - m, spec.window_hi - m
    if w_lo >= 0:
        return 1, DecimalSpec(spec.value - m, spec.declared_bits, w_lo, w_hi), m
    if w_hi <= 0:
        return -1, DecimalSpec(m - spec.value, spec.declared_bits, -w_hi, -w_lo), m
    raise AmbiguousComparison("near an integer")


def _reduce_inputs(rng: random.Random):
    """Rationals of up to 4,000-bit terms, ties k + 1/2, decimals of every kind."""
    for _ in range(300):
        den = rng.getrandbits(rng.randint(1, 4000)) + 1
        num = rng.getrandbits(rng.randint(1, 4000)) * rng.choice((1, -1))
        yield RationalSpec(Fraction(num, den))
    ks = [0, 1, -1, 3, -4]
    ks += [rng.getrandbits(rng.randint(1, 4000)) * rng.choice((1, -1)) for _ in range(40)]
    for k in ks:
        yield RationalSpec(Fraction(2 * k + 1, 2))  # a tie, k + 1/2
        yield RationalSpec(Fraction(k))  # an integer
        for bits in (64, 200):
            for value in (Fraction(2 * k + 1, 2), k + Fraction(1, 3), k - Fraction(1, 3)):
                yield make_decimal(value, bits)  # above 0, or below it, mirrored
            # a window straddling the integer k, and two that end on it
            ulp = Fraction(1, 2**bits)
            yield make_decimal(k + ulp / 2, bits, (k - ulp, k + ulp))
            yield make_decimal(k - ulp, bits, (k - ulp, Fraction(k)))
            yield make_decimal(k + ulp, bits, (Fraction(k), k + ulp))
    for spec in sample_thetas(401, 4, 19400):
        k = rng.randint(-3, 3)
        lo, hi = spec.window_lo, spec.window_hi
        yield make_decimal(k + spec.value, 19400, (k + lo, k + hi))
        yield make_decimal(k - spec.value, 19400, (k - hi, k - lo))


def _terms(spec):
    return [(f.numerator, f.denominator) for f in (*spec.bounds, spec.value)]


class TestReduce:
    def test_integer_arithmetic_matches_the_fraction_oracle(self):
        kinds = set()
        for spec in _reduce_inputs(random.Random(33)):
            try:
                expected = _reduce_by_fractions(spec)
            except (IntegerInput, AmbiguousComparison) as exc:
                with pytest.raises(type(exc)):
                    reduce_theta(spec)
                kinds.add(type(exc))
                continue
            got = reduce_theta(spec)
            assert got == expected
            x0 = got[1]
            assert _terms(x0) == _terms(expected[1])  # in lowest terms, as the oracle's
            for value in (spec, x0):
                assert cf._is_reduced(value) == (0 < value.value <= Fraction(1, 2))
            kinds.add((type(spec), got[0], x0.value == Fraction(1, 2)))
        assert {IntegerInput, AmbiguousComparison} <= kinds
        for sign in (1, -1):
            for cls in (RationalSpec, DecimalSpec):
                assert (cls, sign, False) in kinds
            assert (RationalSpec, 1, True) in kinds  # ties go to +1/2
    def test_small_rational(self):
        assert reduce_theta(parse_real("3/8")) == (1, RationalSpec(Fraction(3, 8)), 0)

    def test_golden_ratio(self):
        sign, x0, nearest = reduce_theta(GOLDEN)
        assert (sign, nearest) == (-1, 2)
        # x0 = (3 - sqrt(5))/2 ~ 0.381966
        assert x0 == QuadraticSpec(QuadraticReal(3, -1, 2, 5))
        # quadratics within 1e-30 of the half-integer k + 1/2, on both sides:
        # theta = k + 1/2 + (p - q*sqrt(d))/q with p/q within 2**-110 of sqrt(d)
        rng = random.Random(46)
        q = 1 << 110
        for _ in range(200):
            d = rng.choice((2, 3, 5, 7, 10, 21, 1000003))
            k = rng.randint(-10**6, 10**6)
            p = isqrt(d * q * q) + rng.choice((0, 1))
            A, B, C = 2 * k * q + q + 2 * p, -2 * q, 2 * q
            theta = quadratic_or_rational(A, B, C, d)
            lo, hi = quad_bounds(theta.a, theta.b, theta.c, theta.d, 400)
            assert abs(lo - k - Fraction(1, 2)) < Fraction(1, 10**30)
            m = math.floor(lo + Fraction(1, 2))
            assert m == math.floor(hi + Fraction(1, 2))
            sign = 1 if lo > m else -1
            assert sign == (1 if hi > m else -1)
            x0 = QuadraticSpec(quadratic_or_rational(sign * (A - m * C), sign * B, C, d))
            assert reduce_theta(QuadraticSpec(theta)) == (sign, x0, m)

    def test_half_integer_tie_goes_up(self):
        assert reduce_theta(parse_real("7/2")) == (1, RationalSpec(Fraction(1, 2)), 3)

    def test_integer_rejected(self):
        with pytest.raises(IntegerInput):
            reduce_theta(parse_real("5"))

    def test_decimal_near_integer_is_ambiguous(self):
        spec = make_decimal(Fraction(1) - Fraction(1, 2**70), 64)
        with pytest.raises(AmbiguousComparison):
            reduce_theta(spec)

    def test_decimal_window_follows_sign(self):
        sign, x0, nearest = reduce_theta(make_decimal(Fraction(7, 10), 128))
        assert (sign, nearest) == (-1, 1)
        assert x0.value == Fraction(3, 10)
        assert x0.window_lo < x0.value <= x0.window_hi or x0.window_lo <= x0.value


class TestExpand:
    def test_three_eighths(self):
        pq = cf_expand(RationalSpec(Fraction(3, 8)), 10)
        assert pq.quotients == (2, 1, 2)
        assert pq.terminated

    def test_periodic_quadratic(self):
        _, x0, _ = reduce_theta(Q21)
        pq = cf_expand(x0, 6)
        assert pq.quotients == (3, 1, 3, 1, 3, 1)
        assert not pq.terminated

    def test_golden_tail_all_ones(self):
        _, x0, _ = reduce_theta(GOLDEN)
        assert cf_expand(x0, 5).quotients == (2, 1, 1, 1, 1)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            cf_expand(RationalSpec(Fraction(2, 3)), 5)
        # (2+sqrt(2))/7 ~ 0.488 is inside (0, 1/2]; the others lie outside
        assert next_quotient(expansion(parse_real("(2+1*sqrt(2))/7"))) == 2
        for text in ("(3+1*sqrt(2))/7", "(1-1*sqrt(2))/1", "(-2-1*sqrt(2))/7", "(1+1*sqrt(5))/2"):
            with pytest.raises(ValueError, match="x0 must lie in"):
                expansion(parse_real(text))

    def test_argument_errors_are_typed(self):
        x0 = RationalSpec(Fraction(3, 8))
        bad_calls = [
            lambda: PartialQuotients((2, 0), False),
            lambda: PartialQuotients((1, 2), False),
            lambda: PartialQuotients((2, 1), True),
            lambda: expansion(RationalSpec(Fraction(2, 3))),
            lambda: cf_expand(x0, 0),
            lambda: tail_value(x0, cf_expand(x0, 10), -2),
            lambda: tail_value(x0, PartialQuotients((3,), False), 0),
        ]
        for call in bad_calls:
            with pytest.raises(HermiteLabError):
                call()

    def test_canonical_final_quotient(self):
        for spec in random_rational_specs(50, 10**4, seed=2):
            _, x0, _ = reduce_theta(spec)
            pq = cf_expand(x0, 10**5)
            assert pq.terminated
            assert pq.quotients[-1] >= 2
            assert pq.quotients[0] >= 2

    def test_decimal_prefix_of_golden(self):
        # 25 digits of (3-sqrt(5))/2 cover the declared 64 bits, so every
        # certified quotient matches the exact expansion; the all-ones tail
        # burns ~1.39 bits per quotient, certifying ~45 of them
        spec = parse_real("0.3819660112501051517954131@64")
        pq = cf_expand(spec, 70)
        assert not pq.terminated
        assert 30 < len(pq.quotients) < 60
        assert pq.quotients == (2,) + (1,) * (len(pq.quotients) - 1)

    def test_decimal_strict_raises(self):
        spec = parse_real("0.3819660112501051517954131@64")
        with pytest.raises(AmbiguousComparison):
            cf_expand(spec, 70, strict=True)

    def test_overclaimed_precision_follows_the_exact_rational(self):
        # declaring 128 bits for 15 digits pins the value to the truncation,
        # whose own expansion legitimately diverges from the golden tail
        spec = parse_real("0.381966011250105@128")
        pq = cf_expand(spec, 60)
        assert len(pq.quotients) > 30
        assert any(a != 1 for a in pq.quotients[1:])

    def test_decimal_matches_exact_prefix(self):
        _, x0, _ = reduce_theta(GOLDEN)
        exact = cf_expand(x0, 60).quotients
        _, x0_dec, _ = reduce_theta(
            parse_real("1.618033988749894848204586834365@96")
        )
        approx = cf_expand(x0_dec, 60).quotients
        shared = min(len(exact), len(approx))
        assert shared > 20
        assert exact[:shared] == approx[:shared]


class TestConvergents:
    def test_three_eighths(self):
        pq = cf_expand(RationalSpec(Fraction(3, 8)), 10)
        assert [(c.p, c.q) for c in convergents(pq)] == [(0, 1), (1, 2), (1, 3), (3, 8)]

    def test_periodic(self):
        from hermite_lab.cf import PartialQuotients

        pq = PartialQuotients((3, 1, 3, 1), False)
        assert [(c.p, c.q) for c in convergents(pq)] == [
            (0, 1),
            (1, 3),
            (1, 4),
            (4, 15),
            (5, 19),
        ]

    def test_empty(self):
        from hermite_lab.cf import PartialQuotients

        assert [(c.p, c.q) for c in convergents(PartialQuotients((), False))] == [(0, 1)]

    def test_last_convergent_is_the_fraction(self):
        for spec in random_rational_specs(40, 10**6, seed=9):
            _, x0, _ = reduce_theta(spec)
            conv = convergents(cf_expand(x0, 10**6))
            assert Fraction(conv[-1].p, conv[-1].q) == x0.value

    def test_determinant_identity(self):
        for spec in random_rational_specs(30, 10**6, seed=4):
            _, x0, _ = reduce_theta(spec)
            conv = convergents(cf_expand(x0, 10**6))
            for a, b in zip(conv, conv[1:]):
                assert b.p * a.q - a.p * b.q in (1, -1)


class TestRatioY:
    @pytest.mark.parametrize("n,expected", [(0, Fraction(1, 3)), (2, Fraction(4, 15)), (3, Fraction(15, 19))])
    def test_examples(self, n, expected):
        from hermite_lab.cf import PartialQuotients

        conv = convergents(PartialQuotients((3, 1, 3, 1), False))
        assert ratio_y(conv, n) == expected

    def test_out_of_range(self):
        from hermite_lab.cf import PartialQuotients

        conv = convergents(PartialQuotients((3, 1), False))
        with pytest.raises(IndexOutOfRange):
            ratio_y(conv, 2)

    def test_mirror_identity_depth_100(self):
        _, x0, _ = reduce_theta(Q21)
        pq = cf_expand(x0, 101)
        conv = convergents(pq)
        for n in range(100):
            assert ratio_y(conv, n) == mirror_value(pq.quotients[: n + 1])


class TestTailValue:
    def test_quadratic_tail(self):
        _, x0, _ = reduce_theta(Q21)
        pq = cf_expand(x0, 6)
        tail = tail_value(x0, pq, 2)
        # [0;1,3,1,3,...] = 1/(1 + x0) with x0 the positive root of 3x^2+3x-1
        assert tail == (1 / (1 + x0.value),) * 2
        lo, hi = quad_bounds(-3, 1, 6, 21)
        assert 1 / (1 + hi) < tail[0] < 1 / (1 + lo)

    def test_rational_tail_exact(self):
        x0 = RationalSpec(Fraction(3, 8))
        pq = cf_expand(x0, 10)
        assert tail_value(x0, pq, 0) == (Fraction(2, 3), Fraction(2, 3))

    def test_golden_tail_fixed_point(self):
        _, x0, _ = reduce_theta(GOLDEN)
        pq = cf_expand(x0, 8)
        lo, hi = quad_bounds(-1, 1, 2, 5)  # (sqrt(5)-1)/2
        for n in (1, 3, 5):
            t_lo, t_hi = tail_value(x0, pq, n)
            assert t_lo == t_hi == QuadraticReal(-1, 1, 2, 5)
            assert lo < t_lo < hi

    def test_index_minus_one_is_x0(self):
        x0 = RationalSpec(Fraction(3, 8))
        tail = tail_value(x0, cf_expand(x0, 5), -1)
        assert tail == (Fraction(3, 8), Fraction(3, 8))

    def test_unreduced_theta_gets_the_tails_of_its_x0(self):
        # a theta outside (0, 1/2] is reduced first, however it got there
        thetas = [
            RationalSpec(Fraction(11, 8)),
            RationalSpec(Fraction(-5, 8)),
            GOLDEN,
            parse_real("(-7+3*sqrt(13))/2"),
            parse_real("1.3819660112501051517954131@64"),
        ]
        for theta in thetas:
            _, x0, _ = reduce_theta(theta)
            assert x0 != theta
            pq = cf_expand(x0, 6)
            for n in range(-1, len(pq.quotients) - 1):
                assert tail_value(theta, pq, n) == tail_value(x0, pq, n)

    def test_rational_exhaustion(self):
        x0 = RationalSpec(Fraction(3, 8))
        with pytest.raises(IndexOutOfRange):
            tail_value(x0, cf_expand(x0, 5), 5)

    def test_index_just_past_the_end(self):
        # 3/8 = [0; 2, 1, 2]: the tail after its last quotient is not one
        x0 = RationalSpec(Fraction(3, 8))
        with pytest.raises(IndexOutOfRange, match="^expansion terminated after 3 quotients$"):
            tail_value(x0, cf_expand(x0, 10), 3)

    def test_decimal_exhaustion(self):
        spec = parse_real("0.3819660112501051517954131@64")
        pq = cf_expand(spec, 70)
        with pytest.raises(TailUnavailable):
            tail_value(spec, pq, len(pq.quotients) + 5)

    def test_mismatch_is_reported_before_the_end(self):
        # 0.3@64 certifies [3, 3] and 3/10 ends there: a wrong second
        # quotient is reported as such, not as the end at the third
        for spec, end, message in (
            ("0.3@64", TailUnavailable, "decimal input certifies only 2 quotients"),
            ("3/10", IndexOutOfRange, "expansion terminated after 2 quotients"),
        ):
            with pytest.raises(InvalidArgument, match="do not belong to this input"):
                tail_value(parse_real(spec), PartialQuotients((3, 4), False), 5)
            with pytest.raises(end) as raised:
                tail_value(parse_real(spec), PartialQuotients((3, 3), False), 5)
            assert str(raised.value) == message

    def test_decimal_tail_certified_prefix(self):
        spec = parse_real("0.3819660112501051517954131@64")
        pq = cf_expand(spec, 70)
        t_lo, t_hi = tail_value(spec, pq, 3)
        lo, hi = quad_bounds(-1, 1, 2, 5)  # all-ones tail: (sqrt(5)-1)/2
        assert t_lo <= lo and hi <= t_hi

    def test_gauss_consistency(self):
        # tail(n+1) == {1 / tail(n)} for exact inputs
        _, x0, _ = reduce_theta(Q21)
        session = expansion(x0)
        previous = session.tail_bounds()[0]
        for _ in range(20):
            next_quotient(session)
            inv = previous.inverse()
            expected = inv - math.floor(inv)
            assert session.tail_bounds() == (expected, expected)
            previous = expected

    def test_rational_tails_are_euclid_remainders(self):
        rng = random.Random(8)
        for spec in random_rational_specs(20, 10**5, seed=rng.randint(0, 99)):
            _, x0, _ = reduce_theta(spec)
            session = expansion(x0)
            value = x0.value
            while True:
                a = next_quotient(session)
                if a is None:
                    break
                value = 1 / value - a if value else value
                assert session.tail_bounds() == (value, value)

    def test_exact_inputs_get_the_exact_gauss_iterate_at_every_index(self):
        # tail n is T^(n+1)(x0) with T(t) = 1/t - floor(1/t), in exact arithmetic
        rationals = random_rational_specs(200, 10**9, seed=901)
        for spec in rationals + random_quadratic_specs(50, seed=902):
            _, x0, _ = reduce_theta(spec)
            pq = cf_expand(x0, 30)
            t = x0.value
            for n, a in enumerate(pq.quotients, start=-1):
                assert tail_value(x0, pq, n) == (t, t)
                inv = 1 / t if isinstance(t, Fraction) else t.inverse()
                assert math.floor(inv) == a
                t = inv - a
            assert tail_value(x0, pq, len(pq.quotients) - 1) == (t, t)
            assert (t == 0) == pq.terminated

    def test_decimal_bounds_hold_every_real_in_the_window(self):
        # the tails of both window endpoints and of a random point inside,
        # by plain Fraction Euclid, lie within the bounds at each index checked
        rng = random.Random(903)
        for _ in range(50):
            bits = rng.choice((64, 128, 256, _BATCH_MIN_BITS + 100))
            value = Fraction(rng.randrange(1, 1 << bits), 1 << bits)
            _, x0, _ = reduce_theta(make_decimal(value, bits))
            inside = x0.window_lo + (x0.window_hi - x0.window_lo) * Fraction(
                rng.randrange(1, 1000), 1000
            )
            pq = cf_expand(x0, 10**4)
            last = len(pq.quotients) - 1
            indices = {-1, last, *rng.sample(range(last), min(12, last))}
            points = [x0.window_lo, x0.window_hi, inside]
            for n, a in enumerate(pq.quotients + (None,), start=-1):
                if n in indices:
                    lo, hi = tail_value(x0, pq, n)
                    assert all(lo <= t <= hi for t in points)
                if a is not None:
                    points = [1 / t - a for t in points]


class TestQuadraticSession:
    def test_integer_recurrence_matches_field_arithmetic(self):
        # the 2,736 small quadratics reduce to 357 distinct x0, each run once;
        # (-9-1*sqrt(2))/7 is among them: its x0 = (2+sqrt(2))/7 inverts to a
        # negative Q' at the first step, where the floor takes its other branch
        x0s = {
            reduce_theta(QuadraticSpec(quadratic_or_rational(a, b, c, d)))[1]
            for a in range(-9, 10)
            for b in (-3, -2, -1, 1, 2, 3)
            for c in range(1, 10)
            for d in (2, 3, 29)
        }
        negative_q = 0
        for x0 in x0s:
            session = expansion(x0)
            t = x0.value
            q_prev, q_cur = 0, 1
            for _ in range(20):
                assert session.tail_bounds() == (t, t)
                assert session.denominators() == (q_prev, q_cur)
                for num, den in ((1, 2), (2, 3), (2 * q_prev + q_cur, q_prev + 2 * q_cur)):
                    sign = (t - Fraction(num, den)).sign()
                    assert session.tail_signs(num, den) == (sign, sign)
                inv = t.inverse()
                a = math.floor(inv)
                t = inv - a
                run, tails = session.run(5)  # a run of one, whatever the limit
                assert run == (a,)
                if a == 1:
                    lo, hi = tails[0]
                    box_lo, box_hi = quad_bounds(t.a, t.b, t.c, t.d)
                    assert lo <= box_lo + ROUNDING and box_hi <= hi + ROUNDING
                else:
                    assert tails == (None,)
                negative_q += session.Q < 0
                q_prev, q_cur = q_cur, a * q_cur + q_prev
        assert negative_q

    def test_state_is_eventually_periodic(self):
        specs = [GOLDEN, Q21, parse_real("(-9-1*sqrt(2))/7")]
        periods = []
        for spec in specs + random_quadratic_specs(40, seed=701):
            _, x0, _ = reduce_theta(spec)
            session = expansion(x0)
            D = session.D
            seen: dict[tuple[int, int], int] = {}
            quotients = []
            while (session.P, session.Q) not in seen:
                assert len(quotients) <= 2 * D + 64
                seen[session.P, session.Q] = len(quotients)
                quotients.append(next_quotient(session))
            start = seen[session.P, session.Q]
            period = len(quotients) - start
            for (P, Q), k in seen.items():
                if k >= start:
                    # the next complete quotient (P' + sqrt(D))/Q' is reduced
                    P, Q = -P, (D - P * P) // Q
                    assert 0 < P and P * P < D and 0 < Q and Q * Q < 4 * D
            assert [next_quotient(session) for _ in range(period)] == quotients[start:]
            periods.append(period)
        assert periods[: len(specs)] == [1, 2, 4]


def _euclid(x: Fraction) -> list[int]:
    """Plain Euclid on the fraction x in (0, 1)."""
    num, den = x.numerator, x.denominator
    quotients = []
    while num:
        a, r = divmod(den, num)
        quotients.append(a)
        num, den = r, num
    return quotients


def _exact_flags(x: Fraction, count: int) -> tuple[list[bool], list[int]]:
    """First `count` criterion flags of the rational x0 = x, and the
    quotients read on the way.

    Flag m is false iff the tail after m - 1 quotients exceeds (2y+1)/(y+2),
    y = q_{m-2}/q_{m-1}; cross-multiplied to stay in integers.
    """
    flags, quotients = [True], []
    q_prev, q_cur = 0, 1
    num, den = x.numerator, x.denominator
    while len(flags) < count:
        flags.append(num * (q_prev + 2 * q_cur) <= den * (2 * q_prev + q_cur))
        if num == 0:
            break
        a, r = divmod(den, num)
        quotients.append(a)
        num, den = r, num
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    return flags, quotients


def _lockstep(lo: Fraction, hi: Fraction):
    """Unbatched lockstep Euclid on both endpoints, one divmod pair a step.

    Returns the shared quotients, the remainder pairs (an, ad, bn, bd) at
    every index, and whether both remainders reached 0 on the same step.
    """
    an, ad, bn, bd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    quotients, states = [], [(an, ad, bn, bd)]
    while an and bn:
        qa, ra = divmod(ad, an)
        qb, rb = divmod(bd, bn)
        if qa != qb:
            break
        an, ad, bn, bd = ra, an, rb, bn
        quotients.append(qa)
        states.append((an, ad, bn, bd))
    return quotients, states, an == bn == 0


def _assert_plain_euclid(specs) -> None:
    """Quotients one at a time and whole runs, each a batch, both give Euclid's."""
    for spec in specs:
        _, x0, _ = reduce_theta(spec)
        expected = _euclid(x0.value)
        session = expansion(x0)
        quotients = []
        while True:
            a = next_quotient(session)
            if a is None:
                break
            quotients.append(a)
        assert quotients == expected
        assert session.terminated and not session.exhausted
        session = expansion(x0)
        quotients = []
        while run := session.run(10**9)[0]:
            quotients += run
        assert quotients == expected
        assert session.terminated and not session.exhausted


def _assert_windows_agree(rng: random.Random, count: int, draw_bits) -> None:
    """Every certified quotient and decided flag holds at lo, hi and inside.

    `draw_bits(rng)` gives each window's declared precision.
    """
    for _ in range(count):
        bits = draw_bits(rng)
        digits = bits * 30103 // 100000 + 1
        ulp = Fraction(1, 1 << bits)
        while True:
            value = Fraction(rng.randrange(1, 10**digits // 2), 10**digits)
            if value + ulp <= Fraction(1, 2):
                break
        spec = make_decimal(value, bits)
        lo, hi = spec.window_lo, spec.window_hi
        inside = lo + (hi - lo) * Fraction(rng.randrange(1, 1 << 32), 1 << 32)
        depth = max(1000, bits)
        pq = cf_expand(spec, depth)
        quotients = pq.quotients
        flags = criterion_scan(spec, depth)[0].flags
        assert quotients and not pq.terminated
        assert len(flags) == len(quotients) + 2
        assert any(f is not None for f in flags[2:])
        for point in (lo, hi, inside):
            exact_flags, exact_quotients = _exact_flags(point, len(flags))
            assert tuple(exact_quotients[: len(quotients)]) == quotients
            assert len(exact_flags) == len(flags)
            for k, flag in enumerate(flags):
                if flag is not None:
                    assert flag == exact_flags[k], (spec, point, k)


def _width_bits(lo: Fraction, hi: Fraction) -> int | None:
    """floor(log2(1/(hi - lo))), the largest wbits with hi - lo <= 2**-wbits; None if lo == hi."""
    w = hi - lo
    return (w.denominator // w.numerator).bit_length() - 1 if w else None


def _assert_width_certificate(own: Fraction, q_prev: int, q_cur: int, wbits: int, k: int) -> None:
    """The width test of a session on one exact end, recomputed exactly at index k:
    e = 2*bitlen(q_{k-1} + q_k) - wbits <= -35 and 2**e < t < 1 - 2**e for lo's tail t."""
    e = 2 * (q_prev + q_cur).bit_length() - wbits
    assert e <= -35, k
    assert Fraction(1, 1 << -e) < own < 1 - Fraction(1, 1 << -e), k


def _assert_runs_match_lockstep(x0, quotients, states, terminated, rng) -> None:
    """Runs of random limits against `_lockstep`, and one `take` of random length.

    The runs concatenate to its quotients; denominators and exact tails at
    both ends agree at every run boundary; the float pair beside each
    quotient of 1 brackets the tails at both ends after it, None beside the
    others.  After a run that leaves the session on one exact end, the
    width test holds at its index, recomputed exactly, and each pair of the
    run, lo's tail widened by 2**-34, holds lo's own tail with 2**-35 to
    spare.  A second session read with `take(session, j)` holds the
    denominators and exact tails of index j.
    """
    session = expansion(x0)
    wbits = _width_bits(*x0.bounds)
    got = []
    q_prev, q_cur = 0, 1
    long_runs = 0
    while True:
        run, tails = session.run(rng.choice((1, 2, 7, 10**6)))
        if not run:
            break
        long_runs += len(run) > 2
        one_end = session._one_end is not None  # so the run held on one exact end
        room = ONE_END_ROOM if one_end else 0
        for a, tail in zip(run, tails):
            got.append(a)
            assert len(got) <= len(quotients) and a == quotients[len(got) - 1], len(got)
            q_prev, q_cur = q_cur, a * q_cur + q_prev
            an, ad, bn, bd = states[len(got)]
            if a == 1:
                lo, hi = map(Fraction, tail)
                own, other = Fraction(an, ad), Fraction(bn, bd)  # lo's tail, hi's tail
                assert lo + room <= own + ROUNDING and own + room <= hi + ROUNDING, len(got)
                assert lo <= other + ROUNDING and other <= hi + ROUNDING, len(got)
            else:
                assert tail is None
        an, ad, bn, bd = states[len(got)]
        if one_end and wbits is not None:
            _assert_width_certificate(Fraction(an, ad), q_prev, q_cur, wbits, len(got))
        # read through a copy, or directly, which changes nothing
        reader = session if rng.random() < 0.2 else copy.copy(session)
        assert reader.denominators() == (q_prev, q_cur), len(got)
        ends = tuple(sorted((Fraction(an, ad), Fraction(bn, bd))))
        assert session.tail_bounds() == ends, len(got)
    assert got == quotients
    assert long_runs
    assert (session.terminated, session.exhausted) == (terminated, not terminated)
    j = rng.randrange(len(quotients) + 1)
    placed = expansion(x0)
    assert take(placed, j) == quotients[:j]
    q_prev, q_cur = 0, 1
    for a in quotients[:j]:
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    assert placed.denominators() == (q_prev, q_cur), j
    an, ad, bn, bd = states[j]
    assert placed.tail_bounds() == tuple(sorted((Fraction(an, ad), Fraction(bn, bd)))), j


def _count_width_tests(monkeypatch) -> list:
    """Whether each run that starts on one exact end held there (False: the
    session left it and built both ends), in order."""
    outcomes = []
    run = cf._WindowSession.run

    def counted(session, limit):
        if session._one_end is None:
            return run(session, limit)
        certified = run(session, limit)
        outcomes.append(session._one_end is not None)
        return certified

    monkeypatch.setattr(cf._WindowSession, "run", counted)
    return outcomes


def _cylinder_point(quotients, t: Fraction):
    """(x, Q_{K-1}, Q_K): x = (P_K + t P_{K-1})/(Q_K + t Q_{K-1}), the real
    that starts with a_1..a_K and has the tail t after them."""
    p0, p1, q0, q1 = 1, 0, 0, 1
    for a in quotients:
        p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0
    return (p1 + t * p0) / (q1 + t * q0), q0, q1


def _straddle_window(rng: random.Random):
    """A window across the convergent P_K/Q_K of its lower end lo, K odd.

    lo's tail after a_1..a_K is about 2**-400 and the width is set so that
    e = -300 there: only the test 2**e < t keeps a_K, which hi lacks
    (its tail after a_{K-1} lies on the other side of 1/a_K), from being
    certified on one exact end.
    """
    quotients = [rng.randint(2, 9)] + [rng.randint(1, 9) for _ in range(2 * rng.randint(10, 30))]
    quotients[-1] = max(quotients[-1], 2)
    lo, q0, q1 = _cylinder_point(quotients, Fraction(rng.getrandbits(2000) | 1, 1 << 2400))
    return make_decimal(lo, 2 * (q0 + q1).bit_length() + 300)


def _crossing_window(rng: random.Random):
    """A window whose lower end has a quotient A of about 2**260 after a_1..a_k.

    No head holds A, so it is one exact step and a run of its own.  A puts
    Q_{k+1} just below 2**B and Q_{k+1} + Q_k at or past it, and the width
    is 2**-(2B + 36): after A, e = 2*bitlen(Q + Q') - wbits = -34 fails the
    width test by one bit, where 2*bitlen(Q) - wbits = -36 would pass.
    """
    quotients = [rng.randint(2, 9)] + [rng.randint(1, 9) for _ in range(rng.randint(20, 60))]
    _, q0, q1 = _cylinder_point(quotients, Fraction(0))
    B = q1.bit_length() + 260
    A = ((1 << B) - q0 - 1) // q1
    tail = Fraction(rng.getrandbits(2399) | 1 << 2399 | 1, 1 << 2400)  # in (1/2, 1)
    return make_decimal(_cylinder_point(quotients + [A], tail)[0], 2 * B + 36)


def _tie_window(rng: random.Random):
    """A window whose lower end's tail after a_1..a_k, a_k = 1, is 1/3 + about 2**-800.

    lo's two head roundings straddle 1/3, so they disagree on the next
    quotient: the batch that reaches it fails `_one_end_batch` and runs in
    lockstep on the heads, its pairs widened by 2**-34.
    """
    quotients = [rng.randint(2, 9)] + [rng.randint(1, 9) for _ in range(rng.randint(5, 40))] + [1]
    tail = Fraction(1, 3) + Fraction(rng.getrandbits(1600) | 1, 1 << 2400)
    lo, q0, q1 = _cylinder_point(quotients, tail)
    return make_decimal(lo, 2 * (q0 + q1).bit_length() + 400)


def _last_quotient_window(rng: random.Random, sign: int):
    """(x0, A): a 700-digit decimal whose expansion ends in a quotient A of about 2**325.

    Its value p/10**700 has p = sign/Q mod 10**700 for a 2,000-bit Q, so
    it lies 1/(Q * 10**700) from P/Q on the side of sign: P/Q is its
    convergent before the last, with the quotient A = 10**700 // Q.  lo's
    tail before A is 1/A, and one exact step on one exact end takes it to
    0, with e about -1,350 after it at a window of 2**-6000.  With sign +1
    that convergent's index is even, hi's tail before A is just above 1/A
    and hi's quotient is A - 1; with sign -1, A is shared.
    """
    digits = 700
    while True:
        Q = rng.getrandbits(2000) | 1 << 1999 | 1
        if Q % 5:
            p = sign * pow(Q, -1, 10**digits) % 10**digits
            if 2 * p < 10**digits - 1:
                return make_decimal(Fraction(p, 10**digits), 6000), 10**digits // Q


class _WholeBatches(random.Random):
    """Picks the longest run limit, so that each run of a session is a whole batch."""

    def choice(self, seq):
        return max(seq)


def _gap_window(rng: random.Random, outcomes: list) -> tuple[Fraction, Fraction, int]:
    """(lo, hi, j): a long window whose first one-end batch a_1..a_j passes
    the cylinder test, ends on a 1 and fails the gap test.

    lo has 2,500-bit terms, drawn until its own first run is a one-end batch
    (read from `outcomes`, on one exact end) that ends on a 1, with lo's
    exact tail t after it in (1/4, 3/4).  hi is the real with the quotients
    a_1..a_j and the tail t +- 2**-30, so that hi > lo.  The lower head is
    lo's alone, so the batch is the same, and the heads' tails after it
    differ by about 2**-30.
    """
    den = (1 << 2500) + 1
    while True:
        lo = Fraction(rng.randrange(den // 8, den // 2), den)
        run = expansion(RationalSpec(lo)).run(10**6)[0]
        if not (outcomes[-1] and run[-1] == 1):
            continue
        p0, p1, q0, q1 = 1, 0, 0, 1
        n, d = lo.numerator, lo.denominator
        for a in run:
            p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0
            n, d = d - a * n, n
        t = Fraction(n, d)
        if Fraction(1, 4) < t < Fraction(3, 4):
            t += Fraction(1 if len(run) % 2 == 0 else -1, 1 << 30)
            return lo, (p1 + t * p0) / (q1 + t * q0), len(run)


def _four_number_batch(ln: int, ld: int, un: int, ud: int, limit: int, gap_bits: int):
    """`cf._one_end_batch` as it was, carrying all four numbers p0, p1, q0, q1 of
    the cosequence at every step and the tail after a 1 as one division: the oracle."""
    cut, gap = 1 << cf._CUT_BITS, 2.0**-cf._GAP_BITS
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
    if batch and 0 < N < D and abs(N * ld - ln * D) <= (D * ld) >> gap_bits:
        return batch, tails, p0, p1, q0, q1
    return None


def _one_end_heads(rng: random.Random):
    """(kind, heads): lower and upper heads of the kinds `_one_end_batch` meets.

    'random' heads of 256 bits with the upper one up to 2**-136 above; a
    'terminating' lower head g*x/(g*y), g of 200 bits and y of 40, whose
    remainders reach 0 above the cut; a head 'below' the cut at entry; a
    'fibonacci' head F_k/F_{k+1} of all 1s; and a 'large' first quotient
    past 2**100.
    """
    kind = rng.choice(("random", "random", "terminating", "below", "fibonacci", "large"))
    ld = rng.getrandbits(256) | 1 << 255
    if kind == "terminating":
        y = rng.getrandbits(40) | 1 << 39
        g = rng.getrandbits(200) | 1 << 199
        ln, ld = g * rng.randrange(1, y), g * y
    elif kind == "below":
        ld >>= 105
        ln = rng.randrange(1, ld)
    elif kind == "fibonacci":
        ln, ld = 0, 1
        while ld >> 256 == 0:
            ln, ld = ld, ln + ld
    elif kind == "large":
        ln = rng.getrandbits(155) | 1 << 154
    else:
        ln = rng.randrange(ld // 8, ld // 2)
    un = ln + rng.randrange(1 << rng.randint(0, 120))
    return kind, (ln, ld, un, ld)


class TestWindowEngine:
    """Rationals and decimals share one Euclid engine on a window [lo, hi]."""

    def test_rational_is_plain_euclid(self):
        _assert_plain_euclid(random_rational_specs(300, 10**12, seed=21))

    def test_long_rational_is_plain_euclid(self):
        # denominators past _HEAD_BITS: the expansion runs in batches
        rng = random.Random(23)
        specs = []
        for _ in range(60):
            den = rng.getrandbits(rng.randint(300, 5000)) | 1
            specs.append(RationalSpec(Fraction(rng.randrange(1, den), den)))
        _assert_plain_euclid(specs)

    def test_rational_next_to_a_quotient_boundary_is_plain_euclid(self):
        # x = p/q +- delta, delta about 2**-256 x: a quotient boundary (p/q)
        # lies within the truncation error of the 256-bit batch window, so
        # a window that fails to contain x certifies a wrong quotient
        rng = random.Random(27)
        specs = []
        for _ in range(300):
            q = rng.randint(10**8, 10**9)
            p = rng.randint(1, q // 2 - 1)
            scale = rng.randrange(1 << 267, 1 << 268)
            delta = Fraction(p * rng.randrange(1, 1 << 12), q * scale)
            specs.append(RationalSpec(Fraction(p, q) + rng.choice((-1, 1)) * delta))
        _assert_plain_euclid(specs)

    def test_batched_rational_next_to_a_quotient_boundary_is_plain_euclid(self):
        # as above with denominators past _BATCH_MIN_BITS, so that every
        # expansion starts in a batch; delta is still about 2**-256 x
        rng = random.Random(28)
        specs = []
        for _ in range(300):
            q = rng.randint(10**8, 10**9)
            p = rng.randint(1, q // 2 - 1)
            scale = rng.randrange(1 << 331, 1 << 332)
            delta = Fraction(p * rng.randrange(1 << 64, 1 << 76), q * scale)
            specs.append(RationalSpec(Fraction(p, q) + rng.choice((-1, 1)) * delta))
        assert min(spec.value.denominator.bit_length() for spec in specs) > _BATCH_MIN_BITS
        _assert_plain_euclid(specs)

    def test_certified_window_agrees_with_every_point(self):
        _assert_windows_agree(random.Random(17), 200, lambda r: r.randint(64, 200))

    def test_long_window_agrees_with_every_point(self):
        # log-uniform in 300..4000 bits: nearly every window starts in batches
        _assert_windows_agree(
            random.Random(19), 100, lambda r: round(300 * (4000 / 300) ** r.random())
        )

    def test_tails_mid_batch_match_unbatched_lockstep(self):
        rng = random.Random(29)
        inputs = [
            make_decimal(Fraction(rng.randrange(1, 10**450), 2 * 10**450), 1500),
            make_decimal(Fraction(rng.randrange(1, 10**750), 2 * 10**750), 2500),
            RationalSpec(Fraction(rng.getrandbits(2000), (1 << 2001) + 1)),
        ]
        for x0 in inputs:
            lo, hi = (
                (x0.value, x0.value)
                if isinstance(x0, RationalSpec)
                else (x0.window_lo, x0.window_hi)
            )
            quotients, states, terminated = _lockstep(lo, hi)
            session = expansion(x0)  # only ever read through copies
            poked = expansion(x0)  # read directly too
            q_prev, q_cur = 0, 1
            for k, (an, ad, bn, bd) in enumerate(states):
                ends = tuple(sorted((Fraction(an, ad), Fraction(bn, bd))))  # (lower, upper)
                assert copy.copy(session).tail_bounds() == ends
                for s in (session, poked):
                    assert copy.copy(s).denominators() == (q_prev, q_cur), k
                num = rng.randint(1, 999)
                for cut in (Fraction(num, rng.randint(num + 1, 1000)), ends[0]):
                    expected = tuple((end > cut) - (end < cut) for end in ends)
                    got = copy.copy(session).tail_signs(cut.numerator, cut.denominator)
                    assert got == expected, (k, cut)
                if rng.random() < 0.3:
                    poked.tail_signs(num, 1000)
                if rng.random() < 0.3:
                    poked.tail_bounds()
                expected_a = quotients[k] if k < len(quotients) else None
                assert next_quotient(session) == expected_a
                assert next_quotient(poked) == expected_a
                if expected_a is not None:
                    q_prev, q_cur = q_cur, expected_a * q_cur + q_prev
            for s in (session, poked):
                assert (s.terminated, s.exhausted) == (terminated, not terminated)
            _assert_runs_match_lockstep(x0, quotients, states, terminated, rng)

    def test_reads_cut_inside_a_batch_match_plain_euclid(self):
        # cf_expand, complete_sequence and tail_value each read c quotients,
        # c strictly inside a Lehmer batch: they give unbatched lockstep
        # Euclid's prefix, its convergents and its exact tails at both ends
        rng = random.Random(31)
        inputs = []
        for _ in range(8):
            den = rng.getrandbits(rng.randint(400, 4000)) | 1
            inputs.append(RationalSpec(Fraction(rng.randrange(1, den // 2), den)))
            bits = round(300 * (4000 / 300) ** rng.random())
            inputs.append(make_decimal(Fraction(rng.randrange(1, 1 << bits), 2 << bits), bits))
        for x0 in inputs:
            quotients, states, _ = _lockstep(*x0.bounds)
            batches, k = [], 0  # (first index, length) of each batch
            session = expansion(x0)
            while run := session.run(10**9)[0]:
                if len(run) > 1:
                    batches.append((k, len(run)))
                k += len(run)
            assert batches, x0
            for first, length in rng.sample(batches, min(4, len(batches))):
                c = first + rng.randrange(1, length)
                pq = cf_expand(x0, c)
                assert pq == PartialQuotients(tuple(quotients[:c]), False)
                vectors = [(1, 0), (0, 1)]
                for a in quotients[:c]:
                    (p0, q0), (p1, q1) = vectors[-2:]
                    vectors.append((a * p1 + p0, a * q1 + q0))
                assert [(v.p, v.q) for v in complete_sequence(x0, c + 1)] == vectors
                an, ad, bn, bd = states[c]
                ends = tuple(sorted((Fraction(an, ad), Fraction(bn, bd))))
                assert tail_value(x0, pq, c - 1) == ends

    def test_short_window_is_one_batch(self):
        # a window with a denominator of at most _BATCH_MIN_BITS is its own
        # batch window: the whole expansion comes in one run, and runs of
        # random limits concatenate to lockstep Euclid's
        rng = random.Random(37)
        inputs = []
        for _ in range(20):
            den = rng.getrandbits(rng.randint(64, _BATCH_MIN_BITS)) | 1
            inputs.append(RationalSpec(Fraction(rng.randrange(den // 8, den // 2), den)))
            value = Fraction(rng.randrange(1 << 252, 1 << 255), 1 << 256)
            inputs.append(make_decimal(value, 256))
        for x0 in inputs:
            quotients, states, terminated = _lockstep(*x0.bounds)
            assert len(quotients) > 10
            session = expansion(x0)
            assert session.run(10**6)[0] == quotients
            assert session.run(10**6) == ((), ())
            _assert_runs_match_lockstep(x0, quotients, states, terminated, rng)

    def test_ends_stay_in_order(self):
        # the lower end first at every position, read mid-batch through a
        # copy, on one exact end too: tail_signs reads 0 at each end and the
        # order at the other
        rng = random.Random(41)
        inputs = [
            make_decimal(Fraction(rng.randrange(1, 10**80), 2 * 10**80), 256),
            make_decimal(Fraction(rng.randrange(1, 10**450), 2 * 10**450), 1500),
            RationalSpec(Fraction(rng.getrandbits(2000), (1 << 2001) + 1)),
            make_decimal(Fraction(rng.randrange(1, 10**900), 2 * 10**900), 3000),
        ]
        for x0 in inputs:
            session = expansion(x0)
            positions = 0  # quotients read
            while True:
                lower, upper = copy.copy(session).tail_bounds()
                gap = (lower < upper) - (lower > upper)
                assert gap == (0 if isinstance(x0, RationalSpec) else 1), positions
                for end, signs in ((lower, (0, gap)), (upper, (-gap, 0))):
                    got = copy.copy(session).tail_signs(end.numerator, end.denominator)
                    assert got == signs, positions
                run = session.run(rng.choice((1, 3)))[0]
                if not run:
                    break
                positions += len(run)
            assert positions > 60

    def test_reads_change_no_attribute(self):
        # the state is always at the current position, after every run of a
        # long or a short window, on one exact end or both: denominators,
        # tail_signs and tail_bounds only read it
        rng = random.Random(53)
        inputs = [
            make_decimal(Fraction(rng.randrange(1, 10**80), 2 * 10**80), 256),
            make_decimal(Fraction(rng.randrange(1, 10**450), 2 * 10**450), 1500),
            RationalSpec(Fraction(rng.getrandbits(2000), (1 << 2001) + 1)),
            make_decimal(Fraction(rng.randrange(1, 10**900), 2 * 10**900), 3000),
            RationalSpec(Fraction(rng.getrandbits(3000), (1 << 3001) + 1)),
        ]
        for x0 in inputs:
            session = expansion(x0)
            while session.run(rng.choice((1, 5, 10**6)))[0]:
                before = dict(vars(session))
                session.denominators()
                session.tail_signs(rng.randint(1, 999), 1000)
                session.tail_bounds()
                assert vars(session) == before

    def test_paper_width_rational_next_to_a_quotient_boundary_is_plain_euclid(self):
        # p/q + 2**-19400, as wide as a depth-5000 sample: after p/q's
        # quotients comes one of about 19,340 bits, which the exact ends take
        rng = random.Random(43)
        specs = []
        for _ in range(3):
            q = rng.randint(10**8, 10**9)
            p = rng.randint(1, q // 2 - 1)
            specs.append(RationalSpec(Fraction(p, q) + Fraction(rng.choice((-1, 1)), 1 << 19400)))
        _assert_plain_euclid(specs)

    def test_gap_test_sends_a_batch_to_lockstep(self, monkeypatch):
        # the window's width, about 2**-30 after a_1..a_j, leaves no room
        # for one exact end: the width test turns its first batch away, and
        # both ends are built.  Their one-end batch would then hold without
        # the gap test, and its last pair, 2**-34 around the lower head's
        # tail, would miss the upper end's tail, 2**-30 away
        lo, hi, j = _gap_window(random.Random(59), count_one_end(monkeypatch, cf._WIDTH_BITS))
        quotients, states, terminated = _lockstep(lo, hi)
        assert len(quotients) > j and quotients[j - 1] == 1
        an, ad, bn, bd = states[j]
        assert abs(Fraction(an, ad) - Fraction(bn, bd)) > Fraction(1, 1 << 34)
        x0 = make_decimal(lo, 200, (lo, hi))
        assert lo.denominator >> cf._ONE_END_MIN_BITS and expansion(x0)._one_end
        widths = _count_width_tests(monkeypatch)
        outcomes = count_one_end(monkeypatch, cf._GAP_BITS)
        _assert_runs_match_lockstep(x0, quotients, states, terminated, _WholeBatches(61))
        assert widths[0] is False and outcomes[0] is False

    def test_deep_samples_take_both_batch_paths(self, monkeypatch):
        # every batch of a depth-5000 sample holds on one exact end, nearly
        # all on lo's heads alone and a few in lockstep on them; scanned
        # until it is exhausted, a sample builds its other end once
        heads = count_one_end(monkeypatch, cf._WIDTH_BITS)
        widths = _count_width_tests(monkeypatch)
        samples = sample_thetas(401, 12, auto_precision_bits(5000))
        for spec in samples[:10]:
            criterion_scan(spec, 5000)
        assert widths and all(widths)
        assert heads.count(True) > 50 * heads.count(False) > 0
        widths.clear()
        for spec in samples[10:]:
            criterion_scan(spec, 10**9)
        assert widths.count(False) == 2 and widths.count(True) > 100

    def test_long_windows_match_lockstep_until_exhausted(self, monkeypatch):
        # windows of 400-3,000 bits, whose upper ends are a dyadic offset of
        # the value or arbitrary; those past _ONE_END_MIN_BITS start on one
        # exact end.  Four kinds are built to reach each of its tests:
        # _straddle_window the test 2**e < t, _crossing_window the bound
        # (Q + Q')**2 and e <= -35, _tie_window the lockstep on lo's heads,
        # _last_quotient_window the test on a tail of 0, on both sides of
        # the convergent before the last quotient.
        # Each is scanned until it is exhausted in runs of random limits,
        # read between runs, against unbatched lockstep Euclid, and by
        # criterion_scan against the exact per-index scan
        rng = random.Random(67)
        inputs = []
        for _ in range(12):
            bits = rng.randint(400, 3000)
            digits = bits * 30103 // 100000 + 1
            value = Fraction(rng.randrange(1, 10**digits // 2 - 10**digits // 2**bits), 10**digits)
            inputs.append(make_decimal(value, bits))
            lo = value - Fraction(1, rng.randrange(1 << bits, 1 << bits + 1))
            offset = Fraction(rng.randrange(1, 1 << 40), rng.randrange(1 << bits + 40, 1 << bits + 41))
            hi = value + offset
            inputs.append(make_decimal(value, bits, (lo, hi)))
        for build in (_straddle_window, _crossing_window, _tie_window):
            inputs += [build(rng) for _ in range(3)]
        last = [_last_quotient_window(rng, sign) for sign in (1, -1, 1, -1)]
        assert [_lockstep(*x0.bounds)[0][-1] == A for x0, A in last] == [False, True] * 2
        inputs += [x0 for x0, _ in last]
        heads = count_one_end(monkeypatch, cf._WIDTH_BITS)
        widths = _count_width_tests(monkeypatch)
        one_end = 0
        for x0 in inputs:
            lo, hi = x0.bounds
            assert lo.denominator >> 400 and lo < hi <= Fraction(1, 2)
            one_end += expansion(x0)._one_end is not None
            quotients, states, terminated = _lockstep(lo, hi)
            _assert_runs_match_lockstep(x0, quotients, states, terminated, rng)
            assert criterion_scan(x0, 10**9) == per_index_scan(x0, 10**9), x0.value
        assert one_end >= 15 and False in heads and False in widths

    def test_recovered_cosequence_matches_the_four_number_loop(self):
        # _one_end_batch carries only q_{j-1}, q_j and recovers p_{j-1}, p_j
        # from Lehmer's identity after the loop: its quotients, the
        # positions of its pairs, its cosequence and its verdict are the
        # four-number loop's, and its pairs within a few roundings
        rng = random.Random(71)
        certified = {kind: [0, 0] for kind in ("random", "fibonacci", "large")}  # j even, odd
        terminated = 0  # certified batches whose lower head reached a remainder of 0
        for _ in range(1500):
            kind, heads = _one_end_heads(rng)
            limit = rng.randint(1, 80)
            for gap_bits in (cf._GAP_BITS, cf._WIDTH_BITS):
                got = cf._one_end_batch(*heads, limit, gap_bits)
                want = _four_number_batch(*heads, limit, gap_bits)
                if kind == "below":
                    assert want is None
                if want is None:
                    assert got is None, (kind, heads, limit)
                    continue
                assert got is not None, (kind, heads, limit)
                batch, tails, p0, p1, q0, q1 = got
                assert (batch, p0, p1, q0, q1) == (want[0], *want[2:]), (kind, heads, limit)
                assert abs(p1 * q0 - p0 * q1) == 1
                assert [t is None for t in tails] == [t is None for t in want[1]]
                for t, w in zip(tails, want[1]):
                    assert t is None or max(abs(t[0] - w[0]), abs(t[1] - w[1])) <= 2.0**-50
                if kind == "fibonacci":
                    assert set(batch) == {1}
                if kind == "large":
                    assert batch[0] >> 100
                if kind == "terminating":
                    # the upper head lies in the cylinder of the lower one's
                    # whole expansion, on the side of an even count
                    terminated += len(batch) == len(_euclid(Fraction(heads[0], heads[1])))
                else:
                    certified[kind][len(batch) & 1] += 1
        assert all(min(counts) > 0 for counts in certified.values()), certified
        assert terminated

    def test_pairs_stand_beside_exactly_the_quotients_of_1(self, monkeypatch):
        # hermite.criterion_scan steps y = 1/(1 + y) wherever a run hands a
        # pair: on every session kind and batch path, a pair stands beside
        # each quotient of 1 and None beside every other quotient
        rng = random.Random(79)
        outcomes = count_one_end(monkeypatch, cf._WIDTH_BITS)
        gap_lo, gap_hi, _ = _gap_window(random.Random(59), outcomes)
        heads = count_one_end(monkeypatch, cf._GAP_BITS)
        one_end = count_one_end(monkeypatch, cf._WIDTH_BITS)
        widths = _count_width_tests(monkeypatch)
        inputs = [
            *(reduce_theta(spec)[1] for spec in random_quadratic_specs(6, seed=83)),
            *(reduce_theta(spec)[1] for spec in random_rational_specs(20, 10**12, seed=89)),
            make_decimal(Fraction(rng.randrange(1, 10**80), 2 * 10**80), 256),
            make_decimal(Fraction(rng.randrange(1, 10**450), 2 * 10**450), 1500),
            make_decimal(gap_lo, 200, (gap_lo, gap_hi)),
            make_decimal(Fraction(rng.randrange(1, 10**900), 2 * 10**900), 3000),
        ]
        ones = 0
        for x0 in inputs:
            session = expansion(x0)
            read = 0
            while read < 2000:
                run, tails = session.run(rng.choice((1, 7, 10**6)))
                if not run:
                    break
                assert len(tails) == len(run)
                for a, tail in zip(run, tails):
                    assert (tail is not None) == (a == 1), (x0, read)
                    if tail is not None:
                        assert isinstance(tail[0], float) and tail[0] <= tail[1]
                ones += run.count(1)
                read += len(run)
        assert ones > 1000
        # one-end batches held on both exact ends and on one, and failed the gap
        # test; one exact end held and, near exhaustion, left for both ends
        assert True in heads and False in heads and True in one_end
        assert True in widths and False in widths

    def test_long_window_fallback_takes_one_step(self):
        # x0 = 1/(a + y) with a of 2,000 bits: a Lehmer window's lower head is
        # 0, so the exact ends certify a, and they take that one step only
        rng = random.Random(47)
        a = rng.getrandbits(2000) | 1 << 1999
        x0 = RationalSpec(1 / (a + Fraction(rng.getrandbits(1000), (1 << 1000) + 1)))
        session = expansion(x0)
        assert session.run(10**6) == ([a], [None])
        rest = []
        while run := session.run(10**6)[0]:
            rest += run
        assert [a] + rest == _euclid(x0.value)

    def test_one_endpoint_reaching_zero_exhausts_the_window(self):
        # 3/10 = [0; 3, 3]: the lower endpoint terminates while the upper
        # one, 2**-64 above it, still shares both quotients
        session = expansion(parse_real("0.3@64"))
        quotients = [next_quotient(session) for _ in range(3)]
        assert quotients == [3, 3, None]
        assert session.exhausted and not session.terminated
