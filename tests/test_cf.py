"""Reduction, expansion, convergents, exact ratios and certified tails."""

from __future__ import annotations

import copy
import math
import random
from fractions import Fraction
from math import isqrt

import pytest
from helpers import (
    next_quotient,
    quad_bounds,
    random_quadratic_specs,
    random_rational_specs,
)

from hermite_lab import (
    AmbiguousComparison,
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

GOLDEN = parse_real("(1+1*sqrt(5))/2")
Q21 = parse_real("(-3+1*sqrt(21))/6")
# a session's float tail pair is correct to the rounding of one division each
ROUNDING = Fraction(1, 1 << 53)


class TestReduce:
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


def _assert_runs_match_lockstep(x0, quotients, states, terminated, rng) -> None:
    """Runs of random limits against `_lockstep`, and one `take` of random length.

    The runs concatenate to its quotients; denominators and exact tails at
    both ends agree at every run boundary; the float pair beside each
    quotient of 1 brackets the tails at both ends after it, None beside the
    others.  A second session read with `take(session, j)` holds the
    denominators and exact tails of index j.
    """
    session = expansion(x0)
    got = []
    q_prev, q_cur = 0, 1
    long_runs = 0
    while True:
        run, tails = session.run(rng.choice((1, 2, 7, 10**6)))
        if not run:
            break
        long_runs += len(run) > 2
        for a, tail in zip(run, tails):
            got.append(a)
            q_prev, q_cur = q_cur, a * q_cur + q_prev
            an, ad, bn, bd = states[len(got)]
            if a == 1:
                lo, hi = tail
                ends = Fraction(an, ad), Fraction(bn, bd)
                assert lo <= min(ends) + ROUNDING and max(ends) <= hi + ROUNDING, len(got)
            else:
                assert tail is None
        # read through a copy, or directly, which changes nothing
        reader = session if rng.random() < 0.2 else copy.copy(session)
        assert reader.denominators() == (q_prev, q_cur), len(got)
        an, ad, bn, bd = states[len(got)]
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


def _count_one_end(monkeypatch) -> list:
    """Whether each one-end batch held (False: the lockstep batch ran), in order."""
    outcomes = []
    one_end_batch = cf._one_end_batch

    def counted(*args):
        certified = one_end_batch(*args)
        outcomes.append(certified is not None)
        return certified

    monkeypatch.setattr(cf, "_one_end_batch", counted)
    return outcomes


class _WholeBatches(random.Random):
    """Picks the longest run limit, so that each run of a session is a whole batch."""

    def choice(self, seq):
        return max(seq)


def _gap_window(rng: random.Random, outcomes: list) -> tuple[Fraction, Fraction, int]:
    """(lo, hi, j): a long window whose first one-end batch a_1..a_j passes
    the cylinder test, ends on a 1 and fails the gap test.

    lo has 1,000-bit terms, drawn until its own first run is a one-end batch
    (read from `outcomes`) that ends on a 1, with lo's exact tail t after it
    in (1/4, 3/4).  hi is the real with the quotients a_1..a_j and the tail
    t +- 2**-30, so that hi > lo.  The lower head is lo's alone, so the batch
    is the same, and the heads' tails after it differ by about 2**-30.
    """
    den = (1 << 1000) + 1
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
        # (an, ad) is the lower end at every position, read mid-batch through
        # a copy: tail_signs reads 0 at each end and the order at the other
        rng = random.Random(41)
        inputs = [
            make_decimal(Fraction(rng.randrange(1, 10**80), 2 * 10**80), 256),
            make_decimal(Fraction(rng.randrange(1, 10**450), 2 * 10**450), 1500),
            RationalSpec(Fraction(rng.getrandbits(2000), (1 << 2001) + 1)),
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
        # long or a short window: denominators, tail_signs and tail_bounds
        # only read it
        rng = random.Random(53)
        inputs = [
            make_decimal(Fraction(rng.randrange(1, 10**80), 2 * 10**80), 256),
            make_decimal(Fraction(rng.randrange(1, 10**450), 2 * 10**450), 1500),
            RationalSpec(Fraction(rng.getrandbits(2000), (1 << 2001) + 1)),
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
        # without the gap test, the one-end batch would hold, and its last
        # pair, 2**-34 around the lower head's tail, would miss the upper
        # end's tail, 2**-30 away
        outcomes = _count_one_end(monkeypatch)
        lo, hi, j = _gap_window(random.Random(59), outcomes)
        quotients, states, terminated = _lockstep(lo, hi)
        assert len(quotients) > j and quotients[j - 1] == 1
        an, ad, bn, bd = states[j]
        assert abs(Fraction(an, ad) - Fraction(bn, bd)) > Fraction(1, 1 << 34)
        x0 = make_decimal(lo, 200, (lo, hi))
        outcomes.clear()
        _assert_runs_match_lockstep(x0, quotients, states, terminated, _WholeBatches(61))
        assert outcomes[0] is False

    def test_deep_samples_take_both_batch_paths(self, monkeypatch):
        # nearly every batch of a depth-5000 sample holds on the lower head
        # alone, and a few run in lockstep
        outcomes = _count_one_end(monkeypatch)
        for spec in sample_thetas(401, 10, auto_precision_bits(5000)):
            criterion_scan(spec, 5000)
        assert outcomes.count(True) > 50 * outcomes.count(False) > 0

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
