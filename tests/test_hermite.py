"""Three-way Hermite flag determination and the extracted subsequence."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import chain

import pytest
from helpers import no_two_consecutive_false, random_quadratic_specs, random_rational_specs

from hermite_lab import (
    DecimalSpec,
    InsufficientSequence,
    InvalidArgument,
    MisalignedInput,
    QuadraticSpec,
    RationalSpec,
    cf_expand,
    complete_sequence,
    flags_via_criterion,
    flags_via_delta_scan,
    flags_via_envelope,
    hermite_subsequence,
    make_decimal,
    next_minimal,
    parse_real,
    quadratic_or_rational,
    reduce_theta,
)
from hermite_lab import hermite
from hermite_lab.hermite import (
    _compare,
    _envelopes,
    _lower_envelope,
    _scan_witnesses,
    criterion_scan,
)
from hermite_lab.stats import auto_precision_bits, sample_thetas

GOLDEN = parse_real("(1+1*sqrt(5))/2")
Q21 = parse_real("(-3+1*sqrt(21))/6")
SILVER = parse_real("(1+1*sqrt(2))/1")
THETA38 = parse_real("3/8")
BOUNDARY_TIE = parse_real("5/14")  # the pair orbit lands exactly on the V border


def boundary_ties(value: Fraction, depth: int = 40) -> list[int]:
    """Indices m >= 1 whose tail [0; a_m, ...] equals (2y+1)/(y+2), y = q_{m-2}/q_{m-1}.

    Plain Fraction arithmetic on the Gauss map, for a rational in (0, 1/2].
    """
    ties, t, q_prev, q_cur = [], value, 0, 1
    for m in range(1, depth):
        y = Fraction(q_prev, q_cur)
        if t == (2 * y + 1) / (y + 2):
            ties.append(m)
        if t == 0:
            break
        a = math.floor(1 / t)
        t = 1 / t - a
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    return ties


def decided_agree(a, b) -> bool:
    return all(
        fa == fb
        for fa, fb in zip(a.flags, b.flags)
        if fa is not None and fb is not None
    )


def theta_values(spec) -> list:
    """The exact theta values the envelope runs on: both ends of a decimal's window."""
    if isinstance(spec, DecimalSpec):
        return [spec.window_lo, spec.window_hi]
    return [spec.value]


def exact_lines(seq, value) -> list:
    """(A_k, B_k) = (v1^2, v2^2) in Fraction / QuadraticReal arithmetic."""
    lines = []
    for vec in seq:
        v1 = Fraction(vec.p) - value * vec.q if vec.q else Fraction(vec.p)
        lines.append((v1 * v1, Fraction(vec.q * vec.q)))
    return lines


def exact_number(triple, d):
    """The grid value or hand-over N/(U + V*sqrt(d)) as a Fraction or QuadraticReal."""
    N, U, V = triple
    return N / quadratic_or_rational(U, V, 1, d) if V else Fraction(N, U)


def touch_oracle(lines) -> list[bool]:
    """flag[k] iff some tau > 0 has line k weakly below every other line."""
    touch = []
    for k, (A_k, B_k) in enumerate(lines):
        low = Fraction(0)
        high = None
        for j, (A_j, B_j) in enumerate(lines):
            if j == k:
                continue
            if A_j > A_k:
                low = max(low, (B_k - B_j) / (A_j - A_k))
            elif A_j < A_k:
                bound = (B_j - B_k) / (A_k - A_j)
                high = bound if high is None else min(high, bound)
        touch.append(high is None or low <= high)
    return touch


class TestCriterion:
    def test_quadratic_period_two_pattern(self):
        flags = flags_via_criterion(Q21, 40).flags
        assert flags[:5] == (True, True, False, True, False)
        for k, f in enumerate(flags):
            expected = True if k in (0, 1) or k % 2 == 1 else False
            assert f == expected

    def test_golden_all_true(self):
        assert all(flags_via_criterion(GOLDEN, 30).flags)

    def test_silver_all_true(self):
        assert all(flags_via_criterion(SILVER, 30).flags)

    def test_rational_all_true_and_complete(self):
        flags = flags_via_criterion(THETA38, 50).flags
        assert flags == (True,) * 5

    def test_first_two_flags_always_true(self):
        specs = random_rational_specs(20, 10**5, seed=101) + list(
            random_quadratic_specs(8, seed=102)
        )
        for spec in specs:
            flags = flags_via_criterion(spec, 12).flags
            assert flags[0] is True and flags[1] is True

    def test_quotients_past_the_float_range(self):
        # a quotient above 2**1024 has no float; the three oracles still agree
        for value in (Fraction(3, 3 * 2**1100 + 1), Fraction(1, 10**5000)):
            spec = RationalSpec(value)
            criterion = flags_via_criterion(spec, 40)
            assert criterion.flags == flags_via_envelope(complete_sequence(spec, 39)).flags
            assert criterion.flags == flags_via_delta_scan(spec, 40).flags

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            flags_via_criterion(GOLDEN, 1)
        with pytest.raises(InvalidArgument, match="n >= 2"):  # a HermiteLabError too
            flags_via_criterion(THETA38, 1)

    def test_hermite_q_is_the_deepest_true_denominator(self):
        rng = random.Random(103)
        decimals = [
            make_decimal(Fraction(rng.randrange(1, 1 << 96), 1 << 96), 64) for _ in range(6)
        ]
        specs = [Q21, THETA38, BOUNDARY_TIE] + decimals + random_rational_specs(
            10, 10**6, seed=104
        )
        for spec in specs:
            for n in (40, 41, 60):  # Q21's flags end on False at an odd depth
                flags, state = criterion_scan(spec, n)
                seq = complete_sequence(spec, len(flags) - 1)
                deepest = max(k for k, f in enumerate(flags.flags) if f is True)
                assert deepest >= 1
                assert state.hermite_q == seq[deepest].q

    def test_boundary_tie_is_hermite(self):
        # x_1 = 4/5 equals (2y+1)/(y+2) at y = 1/2: not in V, so X_2 stays
        flags = flags_via_criterion(BOUNDARY_TIE, 10).flags
        assert flags == (True, True, True, True, True)
        # ties after a unit quotient, at deeper indices: 3/14 = [0; 4, 1, 2],
        # 11/26 = [0; 2, 2, 1, 3], 17/62 = [0; 3, 1, 1, 1, 4]
        for literal, index in (("3/14", 2), ("11/26", 3), ("17/62", 4)):
            spec = parse_real(literal)
            assert boundary_ties(spec.value) == [index]
            criterion = flags_via_criterion(spec, 10)
            assert criterion.flags[index] is True
            assert criterion.flags == flags_via_envelope(complete_sequence(spec, 10)).flags

    def test_window_end_on_a_boundary_tie(self):
        # an end exactly on the V border is not skipped; a window of width
        # 2**-64 next to it keeps that flag where the other end agrees
        # (5/14 below, 11/26 above) and leaves it undecided where it does not
        width = Fraction(1, 1 << 64)
        cases = [
            (Fraction(5, 14), 0, (True, True, True, True)),
            (Fraction(5, 14), -1, (True, True, None, True, True)),
            (Fraction(11, 26), 0, (True, True, True, None, True, True)),
            (Fraction(11, 26), -1, (True, True, True, True, True)),
        ]
        for tie, shift, expected in cases:
            lo = tie + shift * width
            spec = make_decimal(lo + width / 2, 64, (lo, lo + width))
            assert flags_via_criterion(spec, 6).flags == expected, (tie, shift)

    def test_quotient_of_two_or_more_is_hermite(self):
        # (2y+1)/(y+2) >= 1/2 >= every tail after a quotient a >= 2, so the
        # vector is never skipped: checked against the envelope, which reads
        # no quotient, on rationals, quadratics and decimals at their limit
        rng = random.Random(181)
        specs = random_rational_specs(60, 10**9, seed=182) + random_quadratic_specs(20, seed=183)
        for _ in range(40):
            bits = rng.randint(64, 160)
            digits = bits * 3 // 10 + 2
            specs.append(parse_real(f"0.{rng.randrange(10**digits):0{digits}d}@{bits}"))
        checked = 0
        for spec in specs:
            seq = complete_sequence(spec, 40 if isinstance(spec, QuadraticSpec) else 10**6)
            flags = flags_via_envelope(seq).flags
            quotients = cf_expand(reduce_theta(spec)[1], len(seq)).quotients
            for m in range(1, min(len(flags), len(quotients) + 1)):
                if quotients[m - 1] >= 2:
                    withheld = m == len(flags) - 1 and not seq[-1].is_zero_v1()
                    assert flags[m] is (None if withheld else True), (spec, m)
                    checked += 1
        assert checked > 1000

    def test_decimal_undecidable_boundary_reports_none(self):
        # truncating 5/14 puts the exact boundary inside the uncertainty window
        from hermite_lab import make_decimal

        value = Fraction((5 << 64) // 14, 1 << 64)
        spec = make_decimal(value, 64)
        flags = flags_via_criterion(spec, 6).flags
        assert flags[2] is None
        assert flags[1] is True

    def test_skip_forces_unit_quotient_successor(self):
        # a skipped vector means the next minimal vector is the plain sum
        for spec in [Q21] + random_rational_specs(25, 10**5, seed=103):
            seq = complete_sequence(spec, 25)
            flags = flags_via_criterion(spec, 25).flags
            for k in range(1, min(len(seq), len(flags)) - 1):
                if flags[k] is False:
                    w = next_minimal(seq[k - 1], seq[k])
                    assert (w.p, w.q) == (
                        seq[k - 1].p + seq[k].p,
                        seq[k - 1].q + seq[k].q,
                    )


class TestEnvelope:
    def test_rational_complete_sequence_fully_reported(self):
        flags = flags_via_envelope(complete_sequence(THETA38, 10))
        assert flags.flags == (True,) * 5

    def test_truncated_last_index_withheld(self):
        flags = flags_via_envelope(complete_sequence(Q21, 7))
        assert flags.flags[-1] is None
        assert flags.flags[:7] == (True, True, False, True, False, True, False)

    def test_matches_criterion_on_rationals(self):
        for spec in random_rational_specs(40, 10**4, seed=111):
            criterion = flags_via_criterion(spec, 10**5)
            envelope = flags_via_envelope(complete_sequence(spec, 10**5))
            assert len(criterion.flags) == len(envelope.flags)
            assert decided_agree(criterion, envelope)

    def test_matches_criterion_on_quadratics(self):
        for spec in random_quadratic_specs(6, seed=112):
            criterion = flags_via_criterion(spec, 30)
            envelope = flags_via_envelope(complete_sequence(spec, 29))
            assert decided_agree(criterion, envelope)

    def test_boundary_tie_touch(self):
        seq = complete_sequence(BOUNDARY_TIE, 10)
        flags = flags_via_envelope(seq)
        assert flags.flags == (True, True, True, True, True)
        # the line touching in one point hands over nowhere: hand-overs strictly increase
        _, runs, line_sets = _envelopes(seq)
        assert len(runs[0]) == 3
        d = line_sets[0][1]
        assert all(_compare(a, b, d) < 0 for a, b in zip(runs[0], runs[0][1:]))

    def test_breakpoints_increase(self):
        seq = complete_sequence(THETA38, 10)
        run = _envelopes(seq)[1][0]
        # crossing formula: tau = (B_r - B_l) / (A_l - A_r), exact
        assert all(V == 0 for _, _, V in run)
        # in units of c^2 = 64
        assert [Fraction(N, U) for N, U, _ in run] == [
            Fraction(1, 55),
            Fraction(3, 5),
            Fraction(5, 3),
            Fraction(55),
        ]

    def test_short_sequence_rejected(self):
        with pytest.raises(InsufficientSequence):
            flags_via_envelope(complete_sequence(GOLDEN, 3)[:2])

    def test_against_quantifier_oracle(self):
        # the integer envelope of each theta value against the exact oracle,
        # rationals, quadratics, decimal window endpoints and ties included
        rng = random.Random(114)
        decimals = [
            make_decimal(Fraction(rng.randrange(1, 1 << 80), 1 << 80), 64) for _ in range(4)
        ]
        specs = (
            [(spec, 10**4) for spec in random_rational_specs(15, 3000, seed=113)]
            + [(spec, 12) for spec in random_quadratic_specs(6, seed=115)]
            + [(spec, 30) for spec in decimals]
            + [(BOUNDARY_TIE, 10), (Q21, 12)]
        )
        for spec, depth in specs:
            seq = complete_sequence(spec, depth)
            line_sets = _envelopes(seq)[2]
            assert len(line_sets) == len(theta_values(spec))
            for value, (_, d, lines) in zip(theta_values(spec), line_sets):
                touch, _ = _lower_envelope(lines, d)
                assert touch == touch_oracle(exact_lines(seq, value))


class TestDeltaScan:
    def test_quadratic_agrees(self):
        scan = flags_via_delta_scan(Q21, 10)
        envelope = flags_via_envelope(complete_sequence(Q21, 9))
        assert scan.flags == envelope.flags

    def test_rational_agrees(self):
        scan = flags_via_delta_scan(THETA38, 20)
        assert scan.flags == (True,) * 5

    def test_small_delta_selects_origin(self):
        line_sets = _envelopes(complete_sequence(THETA38, 10))[2]
        assert _scan_witnesses(line_sets, [[(1, 10**9, 0)]]) == {0}

    def test_no_delta_selects_the_skipped_vector(self):
        # q = 3 vector of the period-two fixture is never a minimizer
        scan = flags_via_delta_scan(Q21, 12)
        assert scan.flags[2] is False

    def test_boundary_tie_witnessed(self, monkeypatch):
        # the line touching in one point is shortest at a hand-over, which
        # the grid holds, so one scan witnesses it
        calls = []
        scan_witnesses = hermite._scan_witnesses
        monkeypatch.setattr(
            hermite, "_scan_witnesses", lambda *a: calls.append(a) or scan_witnesses(*a)
        )
        scan = flags_via_delta_scan(BOUNDARY_TIE, 10)
        assert scan.flags == (True, True, True, True, True)
        assert len(calls) == 1

    def test_sliver_shared_by_both_window_ends(self):
        # each flagged vector is shortest on both window ends only in a
        # sliver of Delta that a grid of midpoints missed
        for literal, n in (
            ("0.880107801774017430089@64", 21),
            ("0.704089537375357613616522912835@96", 33),
            ("0.739695490825592417329402306045@96", 36),
        ):
            spec = parse_real(literal)
            scan = flags_via_delta_scan(spec, n)
            assert scan.flags == flags_via_envelope(complete_sequence(spec, n - 1)).flags
            assert decided_agree(scan, flags_via_criterion(spec, n))

    def test_random_decimals_at_their_limit(self):
        # the draws include one decimal whose shared sliver holds no midpoint
        # of consecutive hand-overs
        rng = random.Random(231)
        start = time.process_time()
        for _ in range(200):
            bits = rng.randint(64, 128)
            digits = bits * 3 // 10 + 2
            spec = parse_real(f"0.{rng.randrange(10**digits):0{digits}d}@{bits}")
            seq = complete_sequence(spec, 10**6)
            scan = flags_via_delta_scan(spec, len(seq))
            assert scan.flags == flags_via_envelope(seq).flags
        assert time.process_time() - start < 2.0


def _reference_witnesses(line_sets, grid) -> set[int]:
    """The scan in Fraction/QuadraticReal arithmetic, compared with < and >."""
    witnessed: set[int] = set()
    for delta in grid:
        if not delta > 0:
            raise ValueError("grid values must be positive")
        per_set = []
        for lines in line_sets:
            best = None
            argmins: list[int] = []
            for k, (A, B) in enumerate(lines):
                value = A * delta + B
                if best is None or value < best:
                    best = value
                    argmins = [k]
                elif not (value > best):  # exact tie
                    argmins.append(k)
            per_set.append(set(argmins))
        agreed = per_set[0]
        for other in per_set[1:]:
            agreed = agreed & other
        witnessed |= agreed
    return witnessed


def _default_runs(spec, depth: int):
    """Integer and exact line sets of the spec's vectors, and each set's hand-over run.

    The scan reads a grid value t as Delta = unit*t, with unit the gcd of the
    theta values' c^2.  The exact lines carry the unit in their slopes, so the
    reference's A*unit*t + B is the quadratic form at the absolute Delta.
    """
    seq = complete_sequence(spec, depth)
    _, runs, line_sets = _envelopes(seq)
    values = theta_values(spec)
    unit = math.gcd(*(v.denominator if isinstance(v, Fraction) else v.c for v in values)) ** 2
    exact_sets = [[(A * unit, B) for A, B in exact_lines(seq, value)] for value in values]
    return line_sets, exact_sets, runs


def _scan_inputs(spec, depth: int):
    """Integer and exact line sets of the spec's vectors, and the first set's hand-overs."""
    line_sets, exact_sets, runs = _default_runs(spec, depth)
    return line_sets, exact_sets, runs[0]


def _probes(runs) -> list:
    """Each hand-over halved and doubled: values between and beyond them."""
    return [t for N, U, V in chain(*runs) for t in ((N, 2 * U, 2 * V), (2 * N, U, V))]


def _assert_same(line_sets, exact_sets, grid) -> list[set[int]]:
    """Each grid value alone has the reference's witnesses; returns the scan's."""
    d = line_sets[0][1]
    scan = [_scan_witnesses(line_sets, [[t]]) for t in grid]
    assert scan == [_reference_witnesses(exact_sets, [exact_number(t, d)]) for t in grid]
    return scan


class TestScanAgainstReference:
    """The integer-form scan equals the object-arithmetic scan, ties included."""

    def test_random_inputs_on_hand_overs_and_probes(self):
        rng = random.Random(171)
        decimals = [
            make_decimal(Fraction(rng.randrange(1, 1 << 80), 1 << 80), 64)
            for _ in range(6)
        ]
        specs = (
            [(spec, 10**6) for spec in random_rational_specs(12, 10**9, seed=172)]
            + [(spec, 40) for spec in decimals]
            + [(spec, 10) for spec in random_quadratic_specs(8, seed=173)]
            + [(BOUNDARY_TIE, 10), (Q21, 12)]
            + [(make_decimal(Fraction(rng.randrange(1, 1 << 400), 1 << 400), 256), 40)]
        )
        for spec, depth in specs:
            line_sets, exact_sets, taus = _scan_inputs(spec, depth)
            _assert_same(line_sets, exact_sets, _probes([taus]))
            ties = _assert_same(line_sets, exact_sets, taus)  # every value an exact tie
            if len(line_sets) == 1:
                assert all(len(witnesses) >= 2 for witnesses in ties)

    def test_quadratic_delta_on_rational_lines(self):
        for spec in random_rational_specs(10, 10**6, seed=174):
            line_sets, exact_sets, taus = _scan_inputs(spec, 10**6)
            # rational lines read in Q(sqrt 2); grid tau*sqrt(2) and tau/sqrt(2)
            line_sets = [(scale, 2, lines) for scale, _, lines in line_sets]
            grid = [(2 * N, 0, U) for N, U, _ in taus] + [(N, 0, U) for N, U, _ in taus]
            _assert_same(line_sets, exact_sets, grid)

    def test_window_ends_of_different_scales(self):
        # decimal literals, whose window ends' c^2 are 10^2k and a multiple of
        # it, and a window whose ends' c^2, a power of 3 and one of 5, are coprime
        rng = random.Random(175)
        specs = []
        for _ in range(8):
            bits = rng.randint(64, 128)
            digits = bits * 3 // 10 + 2
            specs.append(parse_real(f"0.{rng.randrange(10**digits):0{digits}d}@{bits}"))
        lo = Fraction(rng.randrange(1, 3**40, 3), 3**40)
        hi = Fraction(math.floor(lo * 5**28) + 2, 5**28)
        specs.append(make_decimal(lo, 64, window=(lo, hi)))
        for spec in specs:
            line_sets, exact_sets, runs = _default_runs(spec, 10**6)
            assert len(line_sets) == 2 and line_sets[1][0] > 1
            grid = [t for run in runs for t in run]
            _assert_same(line_sets, exact_sets, grid)
            assert _scan_witnesses(line_sets, runs) == _reference_witnesses(
                exact_sets, [exact_number(t, line_sets[0][1]) for t in grid]
            )

    def test_planted_three_line_tie(self):
        lines = [(4, 0, 0), (2, 0, 2), (1, 0, 3), (0, 0, 5)]
        assert _scan_witnesses([(1, 0, lines)], [[(1, 1, 0)]]) == {0, 1, 2}
        # the tie inside the run [1/2, 1, 2]
        run = [(1, 2, 0), (1, 1, 0), (2, 1, 0)]
        assert _scan_witnesses([(1, 0, lines)], [run]) == {0, 1, 2, 3}
        exact = [(Fraction(X), Fraction(Z)) for X, _, Z in lines]
        _assert_same([(1, 0, lines)], [exact], [(1, 1, 0), (1, 2, 0), (1, 3, 0)])
        # the same tie at Delta = sqrt(5) - 1, on lines with quadratic slopes
        # A = (3 - B)/Delta = (3 - B)*(1 + sqrt(5))/4, so L = 4, X = Y = 3 - B
        surd_lines = [(3 - B, 3 - B, B) for B in (0, 1, 2)] + [(0, 0, 5)]
        delta = (4, 1, 1)  # 4/(1 + sqrt(5))
        assert _scan_witnesses([(4, 5, surd_lines)], [[delta]]) == {0, 1, 2}
        run = [(1, 1, 0), delta, (8, 1, 1)]
        assert _scan_witnesses([(4, 5, surd_lines)], [run]) == {0, 1, 2}
        exact = [(Fraction(3 - B) / exact_number(delta, 5), Fraction(B)) for B in (0, 1, 2)]
        exact.append((Fraction(0), Fraction(5)))
        _assert_same([(4, 5, surd_lines)], [exact], run)

    def test_non_positive_delta_rejected(self):
        line_sets, _, _ = _scan_inputs(parse_real("(1+1*sqrt(2))/3"), 8)
        for delta in ((0, 1, 0), (-1, 1, 0), (1, 1, -1)):  # 1 - sqrt(2) < 0
            with pytest.raises(ValueError, match="positive"):
                _scan_witnesses(line_sets, [[delta]])


class TestScanSweep:
    """The scan of ascending runs equals a scan of every grid value alone."""

    def test_sweep_equals_one_value_scans(self):
        rng = random.Random(211)
        decimals = [
            make_decimal(Fraction(rng.randrange(1, 1 << 160), 1 << 160), bits)
            for bits in (64, 96, 128)
        ]
        specs = (
            [(spec, 10**6) for spec in random_rational_specs(8, 10**9, seed=212)]
            + [(spec, 40) for spec in decimals]
            + [(spec, 16) for spec in random_quadratic_specs(6, seed=213)]
            + [(BOUNDARY_TIE, 10), (Q21, 20)]
        )
        for number, (spec, depth) in enumerate(specs):
            line_sets, exact_sets, runs = _default_runs(spec, depth)
            grid = [t for run in runs for t in run]
            swept = _scan_witnesses(line_sets, runs)
            assert swept == set().union(*(_scan_witnesses(line_sets, [[t]]) for t in grid))
            if number % 3 == 0:
                d = line_sets[0][1]
                exact = [exact_number(t, d) for t in grid]
                assert swept == _reference_witnesses(exact_sets, exact)

    def test_600_bit_rational_on_its_whole_grid(self):
        # c^2 = 2^1200, the grid's unit: far past the float range, Delta up to ~2^2000
        spec = RationalSpec(Fraction(random.Random(600).randrange(1, 1 << 600) | 1, 1 << 600))
        line_sets, exact_sets, runs = _default_runs(spec, 10**6)
        assert len(line_sets[0][2]) > 300
        grid = [t for run in runs for t in run]
        assert max((N << 1200) // U for N, U, _ in grid).bit_length() > 2000
        start = time.process_time()
        swept = _scan_witnesses(line_sets, runs)
        assert time.process_time() - start < 1.0
        flags = flags_via_envelope(complete_sequence(spec, 10**6)).flags
        assert swept == {k for k, f in enumerate(flags) if f}
        _assert_same(line_sets, exact_sets, grid[::40])

    def test_least_crossing_is_not_skipped(self):
        # line 1 meets line 0 at 10, line 2 (larger q) already at 8: the
        # scan must not miss 9, where line 2 alone is shortest
        lines = [(10, 0, 0), (9, 0, 10), (1, 0, 72), (0, 0, 82)]
        run = [(1, 1, 0), (9, 1, 0), (11, 1, 0)]
        exact = [(Fraction(X), Fraction(Z)) for X, _, Z in lines]
        assert _scan_witnesses([(1, 0, lines)], [run]) == {0, 2, 3}
        _assert_same([(1, 0, lines)], [exact], run)

    def test_extreme_values_match_reference(self):
        # Delta = 2^-1100 .. 2^1100, and in between, as one run and alone
        decimal = make_decimal(Fraction(random.Random(195).randrange(1, 1 << 80), 1 << 80), 64)
        run = [(1, 1 << 1100, 0), (1, 1 << 1000, 0), (1, 1, 0), (1 << 1020, 1, 0)]
        run.append((1 << 1100, 1, 0))
        for spec, depth in ((Q21, 20), (decimal, 40)):
            line_sets, exact_sets, _ = _scan_inputs(spec, depth)
            d = line_sets[0][1]
            expected = _reference_witnesses(exact_sets, [exact_number(t, d) for t in run])
            assert _scan_witnesses(line_sets, [run]) == expected
            _assert_same(line_sets, exact_sets, run)

    def test_argmins_once_per_hand_over_and_line_set(self, monkeypatch):
        # the grid is the hand-overs alone: each is scanned once on each line set
        calls = []
        argmins = hermite._argmins
        monkeypatch.setattr(hermite, "_argmins", lambda *a: calls.append(a) or argmins(*a))
        decimal = make_decimal(Fraction(random.Random(241).randrange(1, 1 << 80), 1 << 80), 64)
        for spec, n in ((Q21, 20), (parse_real("1234567/7654321"), 10**6), (decimal, 30)):
            line_sets, _, runs = _default_runs(spec, n - 1)
            calls.clear()
            flags_via_delta_scan(spec, n)
            assert len(line_sets) == 1 + (spec is decimal)
            expected = [(line_set, t) for run in runs for t in run for line_set in line_sets]
            assert [(line_set, delta) for line_set, _, delta in calls] == expected

    def test_probes_witness_nothing_the_hand_overs_miss(self):
        # no Delta between or beyond the hand-overs adds a witness
        rng = random.Random(251)
        decimals = [
            make_decimal(Fraction(rng.randrange(1, 1 << 128), 1 << 128), rng.randint(64, 96))
            for _ in range(40)
        ]
        specs = (
            [(spec, 10**6) for spec in random_rational_specs(40, 10**9, seed=252)]
            + [(spec, 30) for spec in random_quadratic_specs(20, seed=253)]
            + [(spec, 10**6) for spec in decimals]
        )
        start = time.process_time()
        for spec, depth in specs:
            line_sets, _, runs = _default_runs(spec, depth)
            witnessed = _scan_witnesses(line_sets, runs)
            assert _scan_witnesses(line_sets, [[t] for t in _probes(runs)]) <= witnessed
        assert time.process_time() - start < 2.0

    def test_bad_runs_rejected(self):
        line_sets, _, _ = _scan_inputs(Q21, 10)
        bad = {
            # out of order, repeated, and sqrt(21) - 4 = 5/(4 + sqrt(21)) < 1
            "ascending": [[(2, 1, 0), (1, 1, 0)], [(1, 1, 0), (1, 1, 0)], [(1, 1, 0), (5, 4, 1)]],
            # zero, negative, and 2 = -2/-1 with a negative numerator and denominator
            "positive": [
                [(0, 1, 0), (1, 1, 0)],
                [(-1, 1, 0), (1, 1, 0), (2, 1, 0)],
                [(1, 1, 0), (-2, -1, 0)],
            ],
        }
        for match, runs in bad.items():
            for run in runs:
                with pytest.raises(InvalidArgument, match=match):
                    _scan_witnesses(line_sets, [[(1, 1, 0)], run])


class TestAgreementAtScale:
    """criterion == envelope == delta scan on inputs larger than criterion 5's."""

    def test_rationals_at_full_depth(self):
        for spec in random_rational_specs(100, 10**12, seed=181):
            criterion = flags_via_criterion(spec, 10**6)
            envelope = flags_via_envelope(complete_sequence(spec, 10**6))
            scan = flags_via_delta_scan(spec, len(criterion.flags))
            assert decided_agree(criterion, envelope)
            assert decided_agree(envelope, scan)

    def test_quadratics_at_depth_50(self):
        for spec in random_quadratic_specs(10, seed=182):
            criterion = flags_via_criterion(spec, 50)
            envelope = flags_via_envelope(complete_sequence(spec, 49))
            scan = flags_via_delta_scan(spec, 50)
            assert decided_agree(criterion, envelope)
            assert decided_agree(envelope, scan)

    def test_untruncated_deep_sample_at_depth_500(self):
        # the envelope and the delta scan on a sample of the paper's
        # depth-5000 experiment, all of its ~19,400 bits
        spec = sample_thetas(401, 1, auto_precision_bits(5000))[0]
        criterion = flags_via_criterion(spec, 500)
        envelope = flags_via_envelope(complete_sequence(spec, 499))
        assert envelope.decided_count >= 499
        assert decided_agree(criterion, envelope)
        assert decided_agree(criterion, flags_via_delta_scan(spec, 500))


class TestSubsequence:
    def test_golden_h_ladder(self):
        seq = complete_sequence(GOLDEN, 10)
        flags = flags_via_criterion(GOLDEN, 11)
        sub = hermite_subsequence(flags, seq)
        assert sub.h_values() == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
        assert sub.entries[0].h == 0  # the conventional first vector rides along

    def test_quadratic_skips(self):
        seq = complete_sequence(Q21, 8)
        flags = flags_via_criterion(Q21, 9)
        sub = hermite_subsequence(flags, seq)
        assert sub.h_values()[:4] == [1, 4, 19, 91]
        assert len(sub.h_values()) == 4

    def test_empty_flags(self):
        from hermite_lab import HermiteFlags

        seq = complete_sequence(GOLDEN, 5)
        sub = hermite_subsequence(HermiteFlags(GOLDEN, (), "criterion"), seq)
        assert sub.entries == ()

    def test_misaligned_lengths(self):
        seq = complete_sequence(GOLDEN, 3)
        flags = flags_via_criterion(GOLDEN, 20)
        with pytest.raises(MisalignedInput):
            hermite_subsequence(flags, seq)

    def test_misaligned_theta(self):
        seq = complete_sequence(GOLDEN, 6)
        flags = flags_via_criterion(Q21, 5)
        with pytest.raises(MisalignedInput):
            hermite_subsequence(flags, seq)

    def test_h_strictly_increasing(self):
        for spec in random_rational_specs(10, 10**4, seed=121):
            seq = complete_sequence(spec, 30)
            sub = hermite_subsequence(flags_via_criterion(spec, 31), seq)
            hs = [e.h for e in sub.entries]
            assert hs == sorted(set(hs))


class TestDefinitionOracle:
    def test_flags_match_full_lattice_scan(self):
        # definition-level check: a vector is flagged iff its norm line is
        # weakly minimal, for some parameter value, among the lines of EVERY
        # candidate lattice point (nearest numerator per denominator up to
        # the full period; everything else is pointwise dominated)
        for spec in random_rational_specs(10, 300, seed=151):
            value = spec.value
            V = value.denominator
            lines = [(Fraction(1), Fraction(0))]  # the (1, 0) vector
            by_q = {0: 0}
            r = 0
            step = value.numerator % V
            for b in range(1, V + 1):
                r += step
                if r >= V:
                    r -= V
                dist = Fraction(min(r, V - r), V)
                lines.append((dist * dist, Fraction(b * b)))
                by_q[b] = len(lines) - 1

            def feasible(k: int) -> bool:
                A_k, B_k = lines[k]
                low, high = Fraction(0), None
                for j, (A_j, B_j) in enumerate(lines):
                    if j == k:
                        continue
                    if A_j > A_k:
                        low = max(low, (B_k - B_j) / (A_j - A_k))
                    elif A_j < A_k:
                        bound = (B_j - B_k) / (A_k - A_j)
                        high = bound if high is None else min(high, bound)
                    elif B_j < B_k:
                        return False
                return high is None or low <= high

            flags = flags_via_criterion(spec, 10**5)
            seq = complete_sequence(spec, 10**5)
            for k, flag in enumerate(flags.flags):
                assert flag == feasible(by_q[seq[k].q])


class TestMoreInputs:
    def test_half_integer_theta(self):
        theta = parse_real("7/2")
        flags = flags_via_criterion(theta, 10)
        assert flags.flags == (True, True, True)
        envelope = flags_via_envelope(complete_sequence(theta, 10))
        assert envelope.flags == (True, True, True)

    def test_negative_theta(self):
        theta = parse_real("-22/7")  # reduces to x0 = 1/7
        seq = complete_sequence(theta, 10)
        assert [v.q for v in seq] == [0, 1, 7]
        assert seq[1].p == -3
        flags = flags_via_criterion(theta, 10)
        assert flags.flags == (True, True, True)
        assert flags.flags == flags_via_envelope(seq).flags

    def test_quadratic_pair_dynamics_exact(self):
        # the intrinsic coordinates of consecutive pairs are driven by the
        # forward map, verified in exact field arithmetic
        from fractions import Fraction as F

        from hermite_lab import step_T

        value = Q21.value
        seq = complete_sequence(Q21, 10)
        pairs = []
        for u, v in zip(seq, seq[1:]):
            x = abs(F(v.p) - value * v.q) / abs(F(u.p) - value * u.q)
            pairs.append((x, F(u.q, v.q)))
        for (x0, y0), (x1, y1) in zip(pairs, pairs[1:]):
            nx, ny = step_T((x0, y0))
            assert nx == x1 and ny == y1


class TestSkipPattern:
    def test_no_two_consecutive_false(self):
        specs = (
            [GOLDEN, Q21, SILVER, THETA38, BOUNDARY_TIE]
            + random_rational_specs(30, 10**6, seed=131)
            + list(random_quadratic_specs(10, seed=132))
        )
        for spec in specs:
            assert no_two_consecutive_false(flags_via_criterion(spec, 40).flags)

    def test_flag_zero_and_final_rational_true(self):
        for spec in random_rational_specs(20, 10**4, seed=141):
            flags = flags_via_criterion(spec, 10**5).flags
            assert flags[0] is True and flags[-1] is True
