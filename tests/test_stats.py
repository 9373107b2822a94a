"""Sampling determinism, per-input reports, experiment aggregation."""

from __future__ import annotations

import math
import os
from fractions import Fraction

import pytest

from hermite_lab import (
    HERMITE_GROWTH_RATE,
    HERMITE_PROPORTION,
    LEVY_RATE,
    DecimalSpec,
    ExperimentConfig,
    HermiteLabError,
    InvalidArgument,
    RationalSpec,
    analyze_theta,
    parse_real,
    run_experiment,
    sample_thetas,
)
from hermite_lab import stats
from hermite_lab.stats import auto_precision_bits

GOLDEN = parse_real("(1+1*sqrt(5))/2")
Q21 = parse_real("(-3+1*sqrt(21))/6")


class TestSampler:
    def test_deterministic(self):
        a = sample_thetas(1, 3, 256)
        b = sample_thetas(1, 3, 256)
        assert a == b

    def test_seed_range(self):
        # the seed keys blake2b as 8 unsigned bytes: [0, 2**64)
        assert sample_thetas(0, 1, 64) != sample_thetas((1 << 64) - 1, 1, 64)
        for seed in (-1, 1 << 64):
            with pytest.raises(InvalidArgument, match=r"seed must lie in \[0, 2\*\*64\)"):
                sample_thetas(seed, 1, 64)

    def test_precision_range(self, monkeypatch):
        # a negative precision once reached a bare "negative shift count",
        # and one past 2**20 bits drew 315,654 digits before a ParseError
        for bits in (-5, 0, 63):
            with pytest.raises(InvalidArgument, match="precision_bits must be >= 64"):
                sample_thetas(1, 1, bits)
        assert sample_thetas(1, 1, 64)[0].declared_bits == 64

        def no_digits(*args, **kwargs):
            raise AssertionError("a digit was drawn")

        monkeypatch.setattr(stats.hashlib, "blake2b", no_digits)
        for bits in (DecimalSpec.MAX_BITS + 1, 2**40):
            with pytest.raises(InvalidArgument, match=r"precision_bits must be <= 2\*\*20"):
                sample_thetas(1, 1, bits)

    def test_in_unit_interval(self):
        for spec in sample_thetas(9, 20, 256):
            assert 0 < spec.value < 1
            assert spec.declared_bits == 256

    def test_seed_changes_output(self):
        assert sample_thetas(1, 3, 256) != sample_thetas(2, 3, 256)

    def test_text_matches_value(self):
        from fractions import Fraction

        spec = sample_thetas(4, 1, 128)[0]
        digits = spec.text[2:]
        assert spec.value == Fraction(int(digits), 10 ** len(digits))


class TestAnalyze:
    def test_golden(self):
        report = analyze_theta(GOLDEN, 30)
        assert report.proportion == 1.0
        assert abs(report.levy_rate - math.log((1 + math.sqrt(5)) / 2)) < 0.02
        assert report.undecided_count == 0

    def test_alternating_quadratic(self):
        report = analyze_theta(Q21, 41)
        assert report.proportion == 0.5
        assert report.hermite_count == 20

    def test_finite_rational(self):
        report = analyze_theta(parse_real("3/8"), 50)
        assert report.depth == 5
        assert report.n_flags_decided == 4
        assert report.proportion == 1.0
        assert report.terminated

    def test_long_decimal_id_shows_its_bits(self):
        # 120 bits: the sampled text fits in 40 characters, with its @bits it does not
        for bits in (120, 127):
            spec = sample_thetas(42, 1, bits)[0]
            assert analyze_theta(spec, 10).theta_id == f"{spec.text[:28]}...({bits}b)"

    def test_id_of_a_rational_past_the_int_limit(self):
        # its text has 10,003 characters, past CPython's 4,300-digit int/str
        # limit, which only the CLI lifts
        spec = RationalSpec(Fraction(10**5000 + 1, 3 * 10**5000))
        cfg = ExperimentConfig(sample_count=1, depth_n=10, theta_source=[spec])
        assert run_experiment(cfg).reports[0].theta_id == f"1{'0' * 27}...(10003)"

    def test_counts_are_consistent(self):
        for seed in (3, 4, 5):
            spec = sample_thetas(seed, 1, 2048)[0]
            report = analyze_theta(spec, 200)
            assert report.hermite_count <= report.n_flags_decided
            assert report.n_flags_decided + report.undecided_count == report.depth - 1

    def test_proportion_times_growth_is_levy(self):
        spec = sample_thetas(11, 1, 8192)[0]
        report = analyze_theta(spec, 2000)
        # (k/n) * (1/k) ln h_k = (1/n) ln q_{n_k} tracks (1/n) ln q_n
        product = report.proportion * report.hermite_growth
        assert abs(product - report.levy_rate) < 5 / 2000 + 0.02


class TestExperiment:
    def test_reproducible_and_sane(self):
        cfg = ExperimentConfig(sample_count=12, depth_n=150, seed=7)
        first = run_experiment(cfg)
        second = run_experiment(cfg)
        assert first.as_dict() == second.as_dict()
        assert first.rejected_count == 0
        assert abs(first.proportion.mean - HERMITE_PROPORTION) < 0.08
        assert abs(first.levy_rate.mean - LEVY_RATE) < 0.15
        assert abs(first.hermite_growth.mean - HERMITE_GROWTH_RATE) < 0.2

    def test_workers_do_not_change_the_result(self):
        cfg1 = ExperimentConfig(sample_count=6, depth_n=120, seed=3, workers=1)
        cfg2 = ExperimentConfig(sample_count=6, depth_n=120, seed=3, workers=2)
        assert run_experiment(cfg1).as_dict() == run_experiment(cfg2).as_dict()

    def test_pool_is_no_larger_than_the_samples_or_cpus(self, monkeypatch):
        # a stand-in pool records its size and maps serially: no process starts
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        serial = run_experiment(ExperimentConfig(sample_count=3, depth_n=60, seed=3))
        for cpus in (8, 2, 1, None):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            cfg = ExperimentConfig(sample_count=3, depth_n=60, seed=3, workers=10**6)
            assert run_experiment(cfg).as_dict() == serial.as_dict()
        assert sizes == [3, 2]  # one CPU, or an unknown count, runs serially

    def test_stderr_definition(self):
        cfg = ExperimentConfig(sample_count=10, depth_n=120, seed=5)
        report = run_experiment(cfg)
        s = report.proportion
        assert abs(s.stderr - s.stddev / math.sqrt(10)) < 1e-15

    def test_insufficient_precision_rejects(self):
        cfg = ExperimentConfig(sample_count=2, depth_n=500, seed=1, precision_bits=64)
        with pytest.raises(HermiteLabError):
            run_experiment(cfg)

    def test_explicit_theta_list(self):
        cfg = ExperimentConfig(
            sample_count=2,
            depth_n=41,  # 40 decided flags: the period-two input splits evenly
            seed=0,
            theta_source=[GOLDEN, Q21],
        )
        report = run_experiment(cfg)
        assert report.reports[0].proportion == 1.0
        assert report.reports[1].proportion == 0.5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(sample_count=0)
        with pytest.raises(ValueError):
            ExperimentConfig(sample_count=1, depth_n=5)
        with pytest.raises(ValueError):
            ExperimentConfig(sample_count=1, precision_bits=32)
        with pytest.raises(ValueError):  # past DecimalSpec.MAX_BITS = 2**20
            ExperimentConfig(sample_count=1, precision_bits=(1 << 20) + 1)
        # without precision_bits the depth sets the bits: 272,903 is the
        # deepest whose auto_precision_bits fits in DecimalSpec.MAX_BITS
        assert ExperimentConfig(1, 272903).effective_bits == 1 << 20
        with pytest.raises(InvalidArgument, match="effective_bits must be <= 2"):
            ExperimentConfig(1, 272904)
        with pytest.raises(ValueError):
            ExperimentConfig(sample_count=1, workers=0)

    def test_samples_times_bits_cost_rule(self):
        # at depth 5000 each sample has 19,400 bits: 55,347 fit in 2**30
        assert ExperimentConfig(55347, 5000).effective_bits * 55347 <= 1 << 30
        with pytest.raises(InvalidArgument, match=r"sample_count \* effective_bits must be <= 2"):
            ExperimentConfig(55348, 5000)
        assert ExperimentConfig(1 << 24, 10, precision_bits=64).sample_count == 1 << 24
        for bits in (64, 1 << 20):
            with pytest.raises(InvalidArgument, match="lower sample_count"):
                ExperimentConfig(((1 << 30) // bits) + 1, 10, precision_bits=bits)
        # the rule bounds the sampler: given specs are not sampled
        assert ExperimentConfig(55348, 5000, theta_source=[GOLDEN] * 55348).sample_count == 55348

    def test_argument_errors_are_typed(self):
        bad_calls = [
            lambda: ExperimentConfig(sample_count=0),
            lambda: ExperimentConfig(sample_count=1, depth_n=5),
            lambda: ExperimentConfig(sample_count=1, precision_bits=32),
            lambda: ExperimentConfig(sample_count=1, workers=0),
            lambda: sample_thetas(1, 0, 64),
            lambda: run_experiment(ExperimentConfig(sample_count=2, theta_source=[GOLDEN])),
            # any other string would be iterated into one-character "specs"
            lambda: run_experiment(
                ExperimentConfig(sample_count=3, depth_n=10, theta_source="abc")
            ),
        ]
        for call in bad_calls:
            with pytest.raises(HermiteLabError):
                call()

    def test_auto_precision_covers_depth(self):
        assert auto_precision_bits(5000) > 5000 * 3.43
