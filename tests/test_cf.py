"""Reduction, expansion, convergents, exact ratios and certified tails."""

from __future__ import annotations

import copy
import math
import random
from fractions import Fraction

import pytest
from helpers import quad_bounds, random_quadratic_specs, random_rational_specs

from hermite_lab import (
    AmbiguousComparison,
    HermiteLabError,
    IndexOutOfRange,
    IntegerInput,
    PartialQuotients,
    QuadraticReal,
    QuadraticSpec,
    RationalSpec,
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
from hermite_lab.cf import _BATCH_MIN_BITS, expansion
from hermite_lab.hermite import criterion_scan

GOLDEN = parse_real("(1+1*sqrt(5))/2")
Q21 = parse_real("(-3+1*sqrt(21))/6")


class TestReduce:
    def test_small_rational(self):
        assert reduce_theta(parse_real("3/8")) == (1, RationalSpec(Fraction(3, 8)), 0)

    def test_golden_ratio(self):
        sign, x0, nearest = reduce_theta(GOLDEN)
        assert (sign, nearest) == (-1, 2)
        # x0 = (3 - sqrt(5))/2 ~ 0.381966
        assert x0 == QuadraticSpec(QuadraticReal(3, -1, 2, 5))

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
        assert expansion(parse_real("(2+1*sqrt(2))/7")).advance() == 2
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
        assert tail.value == (1 / (1 + x0.value),) * 2
        lo, hi = quad_bounds(-3, 1, 6, 21)
        assert 1 / (1 + hi) < tail.value[0] < 1 / (1 + lo)

    def test_rational_tail_exact(self):
        x0 = RationalSpec(Fraction(3, 8))
        pq = cf_expand(x0, 10)
        assert tail_value(x0, pq, 0).value == (Fraction(2, 3), Fraction(2, 3))

    def test_golden_tail_fixed_point(self):
        _, x0, _ = reduce_theta(GOLDEN)
        pq = cf_expand(x0, 8)
        lo, hi = quad_bounds(-1, 1, 2, 5)  # (sqrt(5)-1)/2
        for n in (1, 3, 5):
            t_lo, t_hi = tail_value(x0, pq, n).value
            assert t_lo == t_hi == QuadraticReal(-1, 1, 2, 5)
            assert lo < t_lo < hi

    def test_index_minus_one_is_x0(self):
        x0 = RationalSpec(Fraction(3, 8))
        tail = tail_value(x0, cf_expand(x0, 5), -1)
        assert tail.value == (Fraction(3, 8), Fraction(3, 8))

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

    def test_decimal_exhaustion(self):
        from hermite_lab import TailUnavailable

        spec = parse_real("0.3819660112501051517954131@64")
        pq = cf_expand(spec, 70)
        with pytest.raises(TailUnavailable):
            tail_value(spec, pq, len(pq.quotients) + 5)

    def test_decimal_tail_certified_prefix(self):
        spec = parse_real("0.3819660112501051517954131@64")
        pq = cf_expand(spec, 70)
        t_lo, t_hi = tail_value(spec, pq, 3).value
        lo, hi = quad_bounds(-1, 1, 2, 5)  # all-ones tail: (sqrt(5)-1)/2
        assert t_lo <= lo and hi <= t_hi

    def test_gauss_consistency(self):
        # tail(n+1) == {1 / tail(n)} for exact inputs
        _, x0, _ = reduce_theta(Q21)
        session = expansion(x0)
        previous = session.tail
        for _ in range(20):
            session.advance()
            inv = previous.inverse()
            expected = inv - math.floor(inv)
            assert session.tail == expected
            previous = session.tail

    def test_rational_tails_are_euclid_remainders(self):
        rng = random.Random(8)
        for spec in random_rational_specs(20, 10**5, seed=rng.randint(0, 99)):
            _, x0, _ = reduce_theta(spec)
            session = expansion(x0)
            value = x0.value
            while True:
                a = session.advance()
                if a is None:
                    break
                value = 1 / value - a if value else value
                assert session.tail_fraction_bounds() == (value, value)

    def test_exact_inputs_get_the_exact_gauss_iterate_at_every_index(self):
        # tail n is T^(n+1)(x0) with T(t) = 1/t - floor(1/t), in exact arithmetic
        rationals = random_rational_specs(200, 10**9, seed=901)
        for spec in rationals + random_quadratic_specs(50, seed=902):
            _, x0, _ = reduce_theta(spec)
            pq = cf_expand(x0, 30)
            t = x0.value
            for n, a in enumerate(pq.quotients, start=-1):
                assert tail_value(x0, pq, n).value == (t, t)
                inv = 1 / t if isinstance(t, Fraction) else t.inverse()
                assert math.floor(inv) == a
                t = inv - a
            assert tail_value(x0, pq, len(pq.quotients) - 1).value == (t, t)
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
                    lo, hi = tail_value(x0, pq, n).value
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
                assert session.tail == t
                for num, den in ((1, 2), (2, 3), (2 * q_prev + q_cur, q_prev + 2 * q_cur)):
                    sign = (t - Fraction(num, den)).sign()
                    assert session.tail_signs(num, den) == (sign, sign)
                lo, hi = session.tail_float_bounds()
                box_lo, box_hi = quad_bounds(t.a, t.b, t.c, t.d)
                assert lo <= box_lo and box_hi <= hi
                inv = t.inverse()
                a = math.floor(inv)
                t = inv - a
                assert session.advance() == a
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
                quotients.append(session.advance())
            start = seen[session.P, session.Q]
            period = len(quotients) - start
            for (P, Q), k in seen.items():
                if k >= start:
                    # the next complete quotient (P' + sqrt(D))/Q' is reduced
                    P, Q = -P, (D - P * P) // Q
                    assert 0 < P and P * P < D and 0 < Q and Q * Q < 4 * D
            assert [session.advance() for _ in range(period)] == quotients[start:]
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
    for spec in specs:
        _, x0, _ = reduce_theta(spec)
        session = expansion(x0)
        quotients = []
        while True:
            a = session.advance()
            if a is None:
                break
            quotients.append(a)
        assert quotients == _euclid(x0.value)
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
            poked = expansion(x0)  # read directly, dropping its batches
            batched = 0
            for k, (an, ad, bn, bd) in enumerate(states):
                ends = (Fraction(an, ad), Fraction(bn, bd))
                assert copy.copy(session).tail_fraction_bounds() == tuple(sorted(ends))
                num = rng.randint(1, 999)
                for cut in (Fraction(num, rng.randint(num + 1, 1000)), ends[0]):
                    expected = tuple((end > cut) - (end < cut) for end in ends)
                    got = copy.copy(session).tail_signs(cut.numerator, cut.denominator)
                    assert got == expected, (k, cut)
                if rng.random() < 0.3:
                    poked.tail_signs(num, 1000)
                if rng.random() < 0.3:
                    poked.tail_fraction_bounds()
                batched += bool(session._batch)
                expected_a = quotients[k] if k < len(quotients) else None
                assert session.advance() == expected_a
                assert poked.advance() == expected_a
            assert batched > len(states) // 2
            for s in (session, poked):
                assert (s.terminated, s.exhausted) == (terminated, not terminated)

    def test_one_endpoint_reaching_zero_exhausts_the_window(self):
        # 3/10 = [0; 3, 3]: the lower endpoint terminates while the upper
        # one, 2**-64 above it, still shares both quotients
        session = expansion(parse_real("0.3@64"))
        quotients = [session.advance(), session.advance(), session.advance()]
        assert quotients == [3, 3, None]
        assert session.exhausted and not session.terminated
