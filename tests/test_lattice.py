"""Minimal vectors: successor algorithm vs brute force, intrinsic coordinates."""

from __future__ import annotations

from fractions import Fraction

import pytest
from helpers import random_quadratic_specs, random_rational_specs

from hermite_lab import (
    AmbiguousComparison,
    IntegerInput,
    InvalidArgument,
    NotConsecutive,
    QuadraticReal,
    RationalSpec,
    SequenceEnds,
    cf_expand,
    check_basis,
    complete_sequence,
    flags_via_envelope,
    intrinsic_coords,
    is_minimal_bruteforce,
    make_decimal,
    next_minimal,
    parse_real,
    reduce_theta,
    step_T,
    tail_value,
)
from hermite_lab.lattice import MinimalVector

GOLDEN = parse_real("(1+1*sqrt(5))/2")
Q21 = parse_real("(-3+1*sqrt(21))/6")
THETA38 = parse_real("3/8")


def minimal_q_oracle(value: Fraction) -> list[int]:
    """Strict running minima of dist(b*theta, Z): the q's of minimal vectors."""
    U, V = value.numerator % value.denominator, value.denominator
    best = V  # scaled by V; anything < V is a real distance below 1
    out = []
    r = 0
    for b in range(1, V + 1):
        r += U
        if r >= V:
            r -= V
        d = min(r, V - r)
        if d < best:
            out.append(b)
            best = d
        if best == 0:
            break
    return out


class TestCompleteSequence:
    def test_three_eighths(self):
        seq = complete_sequence(THETA38, 10)
        assert [(v.p, v.q) for v in seq] == [(1, 0), (0, 1), (1, 2), (1, 3), (3, 8)]
        assert [v.index for v in seq] == list(range(5))

    def test_quadratic_q_ladder(self):
        assert [v.q for v in complete_sequence(Q21, 4)] == [0, 1, 3, 4, 15]

    def test_golden_fibonacci(self):
        seq = complete_sequence(GOLDEN, 6)
        assert [(v.p, v.q) for v in seq] == [
            (1, 0),
            (2, 1),
            (3, 2),
            (5, 3),
            (8, 5),
            (13, 8),
            (21, 13),
        ]

    def test_integer_rejected(self):
        with pytest.raises(IntegerInput):
            complete_sequence(parse_real("5"), 4)

    def test_length_cap(self):
        assert len(complete_sequence(Q21, 7)) == 8

    def test_length_must_be_positive(self):
        with pytest.raises(InvalidArgument):
            complete_sequence(Q21, 0)

    def test_decimal_matches_quadratic_prefix(self):
        exact = complete_sequence(GOLDEN, 20)
        approx = complete_sequence(parse_real("1.618033988749894848204586834365@96"), 20)
        shared = min(len(exact), len(approx))
        assert shared > 10
        assert [(v.p, v.q) for v in exact[:shared]] == [
            (v.p, v.q) for v in approx[:shared]
        ]


class TestBruteForce:
    def test_examples_three_eighths(self):
        assert is_minimal_bruteforce(THETA38, 1, 2)
        assert not is_minimal_bruteforce(THETA38, 1, 1)
        assert is_minimal_bruteforce(THETA38, 1, 0)
        assert not is_minimal_bruteforce(THETA38, 2, 2)

    def test_golden_small(self):
        assert is_minimal_bruteforce(GOLDEN, 2, 1)
        assert is_minimal_bruteforce(GOLDEN, 3, 2)
        assert not is_minimal_bruteforce(GOLDEN, 1, 1)
        assert not is_minimal_bruteforce(GOLDEN, 4, 2)

    def test_origin_convention(self):
        assert is_minimal_bruteforce(THETA38, -1, 0)
        assert not is_minimal_bruteforce(THETA38, 2, 0)

    def test_decimal_window_ends_must_agree(self):
        spec = make_decimal(Fraction(3, 8), 64)  # both ends near 3/8
        assert is_minimal_bruteforce(spec, 1, 2)
        assert not is_minimal_bruteforce(spec, 1, 1)
        # at 1/3, |1 - 2*theta| ties theta itself; just above, (1, 2) is minimal
        with pytest.raises(AmbiguousComparison):
            is_minimal_bruteforce(make_decimal(Fraction(1, 3), 64), 1, 2)

    def test_oracle_scale_guard(self):
        with pytest.raises(ValueError):
            is_minimal_bruteforce(THETA38, 1, 10**6 + 1)

    def test_sequence_matches_record_oracle(self):
        for spec in random_rational_specs(12, 800, seed=21):
            seq = complete_sequence(spec, 10**4)
            assert [v.q for v in seq[1:]] == minimal_q_oracle(spec.value)

    def test_sequence_vectors_pass_bruteforce(self):
        for spec in random_rational_specs(6, 400, seed=33):
            for vec in complete_sequence(spec, 10**4):
                assert is_minimal_bruteforce(spec, vec.p, vec.q)
        for spec in random_quadratic_specs(4, seed=14):
            for vec in complete_sequence(spec, 6):
                if vec.q <= 300:
                    assert is_minimal_bruteforce(spec, vec.p, vec.q)


class TestIntrinsic:
    def test_three_eighths_start(self):
        u, v = complete_sequence(THETA38, 2)[:2]
        coords = intrinsic_coords(u, v)
        assert coords.eps == 1
        assert coords.x == (Fraction(3, 8), Fraction(3, 8))
        assert coords.y == 0

    def test_golden_start(self):
        u, v = complete_sequence(GOLDEN, 2)[:2]
        coords = intrinsic_coords(u, v)
        assert coords.eps == -1
        assert coords.y == 0
        assert coords.x == (QuadraticReal(3, -1, 2, 5),) * 2  # (3 - sqrt(5))/2

    def test_half_boundary_flips_orientation(self):
        theta = parse_real("-1/2")
        u = MinimalVector(1, 0, 0, theta)
        v = MinimalVector(0, 1, 1, theta)  # v1 = +1/2 = +u1/2
        coords = intrinsic_coords(u, v)
        assert coords.eps == -1
        assert coords.x == (Fraction(1, 2), Fraction(1, 2))
        assert coords.y == 0

    def test_sign_pattern_violation(self):
        theta = THETA38
        u = MinimalVector(0, 1, 1, theta)
        w = MinimalVector(1, 3, 3, theta)  # v1 also negative: not consecutive
        with pytest.raises(NotConsecutive):
            intrinsic_coords(u, w)

    def test_det_violation(self):
        theta = THETA38
        u = MinimalVector(1, 0, 0, theta)
        w = MinimalVector(2, 2, 1, theta)
        with pytest.raises(NotConsecutive):
            intrinsic_coords(u, w)

    def test_eps_alternates_and_T_drives_the_pair(self):
        for spec in random_rational_specs(8, 2000, seed=51) + list(
            random_quadratic_specs(3, seed=52)
        ):
            seq = complete_sequence(spec, 12)
            eps_values = []
            coords_list = []
            for u, v in zip(seq, seq[1:]):
                c = intrinsic_coords(u, v)
                eps_values.append(c.eps)
                coords_list.append(c)
            for a, b in zip(eps_values, eps_values[1:]):
                assert b == -a
            # exact dynamics check in rational arithmetic
            if isinstance(spec, RationalSpec):
                value = spec.value
                exact = []
                for u, v in zip(seq, seq[1:]):
                    x = abs(Fraction(v.p) - value * v.q) / abs(
                        Fraction(u.p) - value * u.q
                    )
                    exact.append((x, Fraction(u.q, v.q)))
                for (x0, y0), (x1, y1) in zip(exact, exact[1:]):
                    assert step_T((x0, y0)) == (x1, y1)

    def test_exact_inputs_get_the_exact_ratio_and_tail(self):
        # x of the pair (X_k, X_k+1) is |v1|/|u1| exactly, and it is the tail
        # after k quotients, the natural-extension point of the pair
        for spec in random_rational_specs(200, 10**9, seed=911) + list(
            random_quadratic_specs(50, seed=912)
        ):
            theta = spec.value
            _, x0, _ = reduce_theta(spec)
            pq = cf_expand(x0, 30)
            seq = complete_sequence(spec, 31)
            for k, (u, v) in enumerate(zip(seq, seq[1:])):
                r = abs(theta * v.q - v.p) / abs(theta * u.q - u.p)
                coords = intrinsic_coords(u, v)
                assert coords.x == (r, r)
                assert coords.x == tail_value(x0, pq, k - 1)
                assert coords.y == Fraction(u.q, v.q)


class TestSuccessor:
    def test_chain_three_eighths(self):
        theta = THETA38
        u = MinimalVector(1, 0, 0, theta)
        v = MinimalVector(0, 1, 1, theta)
        w = next_minimal(u, v)
        assert (w.p, w.q) == (1, 2)
        w2 = next_minimal(v, w)
        assert (w2.p, w2.q) == (1, 3)
        w3 = next_minimal(w, w2)
        assert (w3.p, w3.q) == (3, 8)
        with pytest.raises(SequenceEnds):
            next_minimal(w2, w3)

    def test_matches_complete_sequence(self):
        for spec in random_rational_specs(10, 5000, seed=61) + list(
            random_quadratic_specs(4, seed=62)
        ):
            seq = complete_sequence(spec, 10)
            u, v = seq[0], seq[1]
            for expected in seq[2:]:
                w = next_minimal(u, v)
                assert (w.p, w.q, w.index) == (expected.p, expected.q, expected.index)
                u, v = v, w

    def test_sign_alternation_along_sequence(self):
        for spec in random_rational_specs(10, 3000, seed=71):
            seq = complete_sequence(spec, 15)
            signs = [v.v1_sign() for v in seq[1:] if v.v1_sign() != 0]
            for a, b in zip(signs, signs[1:]):
                assert b == -a

    def test_basis_examples(self):
        theta = THETA38
        assert check_basis(MinimalVector(1, 0, 0, theta), MinimalVector(0, 1, 1, theta))
        assert check_basis(MinimalVector(1, 2, 2, theta), MinimalVector(1, 3, 3, theta))
        assert not check_basis(
            MinimalVector(1, 0, 0, theta), MinimalVector(2, 2, 1, theta)
        )

    def test_every_consecutive_pair_is_a_basis(self):
        for spec in random_rational_specs(10, 10**4, seed=81) + list(
            random_quadratic_specs(5, seed=82)
        ):
            seq = complete_sequence(spec, 20)
            assert all(check_basis(u, v) for u, v in zip(seq, seq[1:]))


class TestDecimalPairwise:
    def test_next_minimal_certified(self):
        spec = parse_real("1.618033988749894848204586834365@96")
        seq = complete_sequence(spec, 12)
        u, v = seq[0], seq[1]
        for expected in seq[2:]:
            w = next_minimal(u, v)
            assert (w.p, w.q) == (expected.p, expected.q)
            u, v = v, w

    def test_intrinsic_certified(self):
        from helpers import quad_bounds

        spec = parse_real("1.618033988749894848204586834365@96")
        seq = complete_sequence(spec, 8)
        coords = intrinsic_coords(seq[0], seq[1])
        assert coords.eps == -1 and coords.y == 0
        coords = intrinsic_coords(seq[3], seq[4])
        g_lo, g_hi = quad_bounds(-1, 1, 2, 5)  # all-ones tail (sqrt(5)-1)/2
        assert coords.x[0] <= g_lo and g_hi <= coords.x[1]

    def test_ambiguous_ratio_beyond_certification(self):
        from hermite_lab import AmbiguousComparison
        from hermite_lab.lattice import MinimalVector
        from hermite_lab import make_decimal

        # v1 window straddles zero: the successor quotient cannot certify
        spec = make_decimal(Fraction(1, 3), 64)
        u = MinimalVector(0, 1, 1, spec)
        v = MinimalVector(1, 3, 2, spec)
        with pytest.raises(AmbiguousComparison):
            next_minimal(u, v)


class TestBounds:
    def test_zero_width_decimal_behaves_like_its_rational(self):
        assert GOLDEN.bounds == (GOLDEN.value, GOLDEN.value)
        lo, hi = Fraction(123456789, 10**9), Fraction(123456789, 10**9) + Fraction(1, 2**64)
        spec = parse_real("0.123456789@64")
        assert spec.bounds == (lo, hi)
        assert MinimalVector(1, 8, 2, spec).v1_bounds() == (1 - 8 * hi, 1 - 8 * lo)
        # a window of width 0 pins theta to a rational: every answer is the
        # rational's, the exact zero at the closing vector included
        for rational in [THETA38] + random_rational_specs(1, 10**6, seed=1001):
            value = rational.value
            decimal = make_decimal(value, 64, (value, value))
            assert decimal.bounds == rational.bounds == (value, value)
            seq_r = complete_sequence(rational, 100)
            seq_d = complete_sequence(decimal, 100)
            assert seq_d == seq_r
            for r, d in zip(seq_r, seq_d):
                assert d.v1_bounds() == r.v1_bounds()
                assert d.v1_sign() == r.v1_sign()
            assert seq_d[-1].v1_sign() == 0
            for seq in (seq_r, seq_d):
                with pytest.raises(SequenceEnds):
                    next_minimal(seq[-2], seq[-1])
            flags_d = flags_via_envelope(seq_d).flags
            assert flags_d == flags_via_envelope(seq_r).flags
            assert None not in flags_d
