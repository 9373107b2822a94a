"""Sampling harness: empirical Hermite proportions, growth rates and their
comparison against the three limit constants.

Per-sample work is a single certified scan (quotients, flags, denominator
logs), about 9.2 ms at depth 5000 on a 2-core Xeon (`deep_decimal` in
`BENCH_one_exact_end.json`), so a 200-sample run takes seconds on one
core; samples are independent and can be farmed out to processes without
changing the result.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
from typing import Optional, Sequence

from .errors import InvalidArgument, PrecisionExceedsInput
from .hermite import criterion_scan
from .numeric import (
    DecimalSpec,
    RealSpec,
    decimal_fraction,
    int_of_digits,
    ln_big,
    make_decimal,
    spec_text,
)
from .record import Record

HERMITE_PROPORTION = math.log(3) / math.log(4)  # 0.79248125036...
LEVY_RATE = math.pi**2 / (12 * math.log(2))  # 1.18656911041...
HERMITE_GROWTH_RATE = math.pi**2 / (6 * math.log(3))  # 1.49728349682...

_BITS_PER_LEVEL = 3.43  # expected input bits consumed per certified quotient


def auto_precision_bits(depth: int) -> int:
    """Input precision that certifies `depth` quotients with ample slack."""
    return max(256, int(depth * _BITS_PER_LEVEL * 1.12) + 192)


class ExperimentConfig(Record):
    __slots__ = ("sample_count", "depth_n", "seed", "precision_bits", "theta_source", "workers")

    def __init__(
        self, sample_count: int, depth_n: int = 5000, seed: int = 42,
        precision_bits: int | None = None, theta_source: Sequence[RealSpec] | str = "uniform01",
        workers: int = 1,
    ):
        self._fill(sample_count, depth_n, seed, precision_bits, theta_source, workers)
        if self.sample_count < 1:
            raise InvalidArgument("sample_count must be positive")
        if self.depth_n < 10:
            raise InvalidArgument("depth_n must be >= 10")
        if self.precision_bits is not None and self.precision_bits < 64:
            raise InvalidArgument("precision_bits must be >= 64")
        if self.workers < 1:
            raise InvalidArgument("workers must be >= 1")
        if isinstance(self.theta_source, str) and self.theta_source != "uniform01":
            raise InvalidArgument("theta_source must be 'uniform01' or a sequence of specs")
        # checked before the sampler forms numbers of this many bits
        if self.effective_bits > DecimalSpec.MAX_BITS:
            raise InvalidArgument(
                f"effective_bits must be <= 2**20, got {self.effective_bits}:"
                " lower depth_n or precision_bits"
            )
        # the sampler's cost rule, checked before it runs: the samples are
        # held at once, about one byte per bit of effective_bits each (their
        # Fractions and digit text), so sample_count * effective_bits is at
        # most 2**30, about 1.1 GB: 55,347 samples of 19,400 bits at depth 5000
        if isinstance(self.theta_source, str) and self.sample_count * self.effective_bits > 1 << 30:
            raise InvalidArgument(
                f"sample_count * effective_bits must be <= 2**30, got {self.sample_count}"
                f" * {self.effective_bits}: lower sample_count, depth_n or precision_bits"
            )

    @property
    def effective_bits(self) -> int:
        if self.precision_bits is not None:
            return self.precision_bits
        return auto_precision_bits(self.depth_n)


class ThetaReport(Record):
    __slots__ = (
        "theta_id", "depth", "n_flags_decided", "hermite_count", "proportion", "levy_rate",
        "hermite_growth", "undecided_count", "terminated",
    )

    def __init__(
        self, theta_id: str, depth: int, n_flags_decided: int, hermite_count: int,
        proportion: Optional[float], levy_rate: Optional[float], hermite_growth: Optional[float],
        undecided_count: int, terminated: bool = False,
    ):
        self._fill(
            theta_id, depth, n_flags_decided, hermite_count, proportion, levy_rate, hermite_growth,
            undecided_count, terminated,
        )

    def as_row(self) -> dict:
        return {
            "theta_id": self.theta_id,
            "n": self.depth,
            "decided": self.n_flags_decided,
            "hermite_count": self.hermite_count,
            "proportion": self.proportion,
            "levy_rate": self.levy_rate,
            "hermite_growth": self.hermite_growth,
            "undecided": self.undecided_count,
        }


class StatSummary(Record):
    __slots__ = ("mean", "stddev", "stderr", "target", "deviation")

    def __init__(self, mean: float, stddev: float, stderr: float, target: float, deviation: float):
        self._fill(mean, stddev, stderr, target, deviation)


class AggregateReport(Record):
    __slots__ = (
        "sample_count", "depth", "seed", "proportion", "levy_rate", "hermite_growth",
        "rejected_count", "reports",
    )
    _unshown = ("reports",)

    def __init__(
        self, sample_count: int, depth: int, seed: int, proportion: StatSummary,
        levy_rate: StatSummary, hermite_growth: StatSummary, rejected_count: int,
        reports: tuple[ThetaReport, ...],
    ):
        self._fill(
            sample_count, depth, seed, proportion, levy_rate, hermite_growth, rejected_count,
            reports,
        )

    def as_dict(self) -> dict:
        return {
            "sample_count": self.sample_count,
            "depth": self.depth,
            "seed": self.seed,
            "rejected_count": self.rejected_count,
            "statistics": {
                name: {key: getattr(summary, key) for key in summary.__slots__}
                for name, summary in (
                    ("proportion", self.proportion),
                    ("levy_rate", self.levy_rate),
                    ("hermite_growth", self.hermite_growth),
                )
            },
            "per_theta": [r.as_row() for r in self.reports],
        }


# ---------------------------------------------------------------------------
# sampling


_CHUNK_DIGITS = 18
_CHUNK_BYTES = 15  # 120 random bits per 18-digit chunk: mod bias ~ 1e-18


def sample_thetas(seed: int, count: int, precision_bits: int) -> list[DecimalSpec]:
    """Deterministic counter-mode decimals, uniform on (0, 1).

    Sample i depends only on (seed, i): bytes come from blake2b keyed with
    the seed over a running block counter.  Digits are assembled in chunks,
    so precisions of tens of thousands of bits stay cheap.  The value and
    its window's upper end are built in lowest terms, by `decimal_fraction`
    and `make_decimal`, so no gcd of long integers runs: the 40 depth-5000
    samples of `deep_decimal` take about 0.05 s, against 0.17 s when
    `Fraction` normalized them (`setup_s` in `BENCH_lowest_terms.json`).
    """
    if count < 1:
        raise InvalidArgument("count must be >= 1")
    if not 0 <= seed < 1 << 64:  # the blake2b key is the seed's 8 bytes
        raise InvalidArgument("seed must lie in [0, 2**64)")
    # as ExperimentConfig and make_decimal ask, before any digit is drawn
    if precision_bits < 64:
        raise InvalidArgument("precision_bits must be >= 64")
    if precision_bits > DecimalSpec.MAX_BITS:
        raise InvalidArgument("precision_bits must be <= 2**20")
    digits = precision_bits * 30103 // 100000 + 1  # 0.30103 > log10(2): 10**digits > 2**bits
    chunks = -(-digits // _CHUNK_DIGITS)
    need_bytes = chunks * _CHUNK_BYTES
    key = seed.to_bytes(8, "big", signed=False)
    out = []
    for i in range(count):
        stream = b""
        block = 0
        while len(stream) < need_bytes:
            h = hashlib.blake2b(
                i.to_bytes(8, "big") + block.to_bytes(4, "big"), key=key
            )
            stream += h.digest()
            block += 1
        pieces = []
        for k in range(chunks):
            raw = int.from_bytes(stream[k * _CHUNK_BYTES : (k + 1) * _CHUNK_BYTES], "big")
            pieces.append(f"{raw % 10**_CHUNK_DIGITS:0{_CHUNK_DIGITS}d}")
        digit_str = "".join(pieces)[:digits]
        if digit_str == "0" * digits:
            digit_str = digit_str[:-1] + "1"
        value = decimal_fraction(int_of_digits(digit_str), digits)
        out.append(make_decimal(value, precision_bits, text="0." + digit_str))
    return out


# ---------------------------------------------------------------------------
# per-theta analysis


def _short_id(spec: RealSpec) -> str:
    """Display identifier: full text for small specs, a prefix for long ones.

    The prefix ends in a decimal's declared bits, or any other text's length.
    """
    text = spec_text(spec)
    if len(text) <= 40:
        return text
    size = f"{spec.declared_bits}b" if isinstance(spec, DecimalSpec) else len(text)
    return f"{text[:28]}...({size})"


def analyze_theta(spec: RealSpec, n: int) -> ThetaReport:
    """Flags, Hermite proportion, denominator growth rates for one input."""
    flags, state = criterion_scan(spec, n)
    # X_0 is conventional; proportions count the q >= 1 vectors
    decided = flags.decided_count - 1
    true_count = flags.flags.count(True) - 1
    levy = ln_big(state.q_cur) / len(state.quotients) if state.quotients else None
    growth = ln_big(state.hermite_q) / true_count if state.hermite_q else None
    return ThetaReport(
        theta_id=_short_id(spec),
        depth=len(flags.flags),
        n_flags_decided=decided,
        hermite_count=true_count,
        proportion=true_count / decided if decided else None,
        levy_rate=levy,
        hermite_growth=growth,
        undecided_count=flags.undecided_count,
        terminated=state.terminated,
    )


# ---------------------------------------------------------------------------
# experiment driver


def _experiment_samples(cfg: ExperimentConfig) -> list[RealSpec]:
    if cfg.theta_source == "uniform01":
        return list(sample_thetas(cfg.seed, cfg.sample_count, cfg.effective_bits))
    specs = list(cfg.theta_source)
    if len(specs) != cfg.sample_count:
        raise InvalidArgument("theta_source length must equal sample_count")
    return specs


def _summary(values: list[float], target: float) -> StatSummary:
    count = len(values)
    mean = sum(values) / count
    if count > 1:
        var = sum((v - mean) ** 2 for v in values) / (count - 1)
        stddev = math.sqrt(var)
    else:
        stddev = 0.0
    return StatSummary(mean, stddev, stddev / math.sqrt(count), target, mean - target)


def run_experiment(cfg: ExperimentConfig) -> AggregateReport:
    """Analyze every sample and aggregate against the three limit constants.

    Samples whose undecided flags exceed 1% of the depth (or that produce no
    statistic at all) are rejected and counted, never silently averaged.
    Results are bit-identical for a fixed config regardless of `workers`,
    which is capped at the number of samples and of CPUs.
    """
    specs = _experiment_samples(cfg)
    workers = min(cfg.workers, len(specs), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool machinery adds about 2 MB to any process importing this module
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(
                pool.map(analyze_theta, specs, itertools.repeat(cfg.depth_n), chunksize=8)
            )
    else:
        reports = [analyze_theta(spec, cfg.depth_n) for spec in specs]
    accepted: list[ThetaReport] = []
    rejected = 0
    for report in reports:
        # a terminated (rational) input is complete however short it is;
        # anything else must certify all but 1% of the requested flags
        shortfall = (cfg.depth_n - 1) - report.n_flags_decided
        unusable = (
            (not report.terminated and shortfall > 0.01 * cfg.depth_n)
            or report.proportion is None
            or report.levy_rate is None
            or report.hermite_growth is None
        )
        if unusable:
            rejected += 1
        else:
            accepted.append(report)
    if not accepted:
        raise PrecisionExceedsInput("every sample was rejected; raise precision_bits")
    return AggregateReport(
        sample_count=cfg.sample_count,
        depth=cfg.depth_n,
        seed=cfg.seed,
        proportion=_summary([r.proportion for r in accepted], HERMITE_PROPORTION),
        levy_rate=_summary([r.levy_rate for r in accepted], LEVY_RATE),
        hermite_growth=_summary(
            [r.hermite_growth for r in accepted], HERMITE_GROWTH_RATE
        ),
        rejected_count=rejected,
        reports=tuple(reports),
    )

