"""Inputs, operations and correctness gates of the three benchmark workloads.

Every input is generated from the workload seed; the library only ever sees
the generated inputs.  All load is closed-loop from one client process: the
next operation starts when the previous one has returned.  No workload starts
worker processes; the library's pool runs only in the traced pass.

Each workload has a `build(seed, size)` step, timed as part of `setup_s`, and
a `run(inputs, seconds, size, tally)` step that times one closed loop and
checks every result.  `Size` holds the knobs; `FULL` is the benchmark and
`TINY` only serves the self-check.

Ops are timed with `op_clock`, the CPU time of this process.  The library
is single-threaded and CPU-bound and no workload starts a child, so on an
idle machine this equals the wall time of the op; on a shared host it
leaves out the time other tenants hold the CPU, which would otherwise
decide the run-to-run spread.  A `Tally` given a `Pace` (see pace.py) also
runs the calibration kernel between ops, so that op times can be reported
at reference speed.  The run itself lasts `seconds` of wall time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time as op_clock

from hermite_lab import cf, cli, hermite, lattice, numeric, stats
from hermite_lab.errors import GridTooCoarse

from pace import Pace

SCHEMA_PATH = Path(cli.__file__).resolve().parent / "schemas" / "output.schema.json"
MU_V = 1.0 - math.log(3) / (2.0 * math.log(2))


@dataclass(frozen=True)
class Size:
    samples: int  # decimals per run_experiment call; >= 40 keeps 10 ops above p75
    depth: int  # flags per decimal sample
    prefix: int  # criterion-vs-envelope prefix checked on two samples
    cross_depth: int  # flags per exact_crosscheck input
    cross_cycles: int  # distinct 3-input cycles built for exact_crosscheck; a power of 2
    cli_blocks: int  # distinct 20-call blocks built for cli_mixed
    trace_samples: int  # decimals traced one call at a time
    trace_cross_cycles: int
    trace_cli_blocks: int


FULL = Size(40, 5000, 300, 20, 64, 64, 8, 3, 10)
TINY = Size(4, 300, 60, 12, 2, 2, 2, 2, 1)


@dataclass
class Tally:
    """Ops attempted and failed, per-op latency, and why anything failed."""

    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)  # CPU seconds of each op
    busy_s: float = 0.0  # CPU time the program spent on the timed ops
    problems: list = field(default_factory=list)
    pace: Pace | None = None
    marks: list = field(default_factory=list)  # kernel run that followed each op

    def record(self, elapsed: float) -> None:
        """One op's time; a paced tally then runs the kernel if it is due."""
        self.latencies.append(elapsed)
        if self.pace is not None:
            self.marks.append(self.pace.tick())

    @property
    def kernel_s(self) -> float:
        """CPU time spent in the pace's kernel runs so far."""
        return self.pace.spent if self.pace is not None else 0.0

    def scaled(self) -> list[float]:
        """Op times at reference speed; as measured if the tally is not paced."""
        if self.pace is None:
            return list(self.latencies)
        return [t * self.pace.scale(m) for t, m in zip(self.latencies, self.marks)]

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)


def digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, allow_nan=False).encode()
    ).hexdigest()


# ---------------------------------------------------------------------------
# deep_decimal: the paper's experiment


def build_deep(seed: int, size: Size) -> list:
    bits = stats.auto_precision_bits(size.depth)
    return stats.sample_thetas(seed, size.samples, bits)


class TimedAnalyze:
    """Stand-in for `stats.analyze_theta` that records each call's duration.

    `run_experiment` looks `analyze_theta` up at call time, so the op is timed
    exactly where the library does the work.
    """

    def __init__(self, analyze, tally: Tally):
        self.analyze = analyze
        self.tally = tally

    def __call__(self, spec, n, *args, **kwargs):
        start = op_clock()
        report = self.analyze(spec, n, *args, **kwargs)
        self.tally.record(op_clock() - start)
        return report


@contextlib.contextmanager
def patched(module, name, replacement):
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, original)


TARGETS = {
    "proportion": stats.HERMITE_PROPORTION,
    "levy_rate": stats.LEVY_RATE,
    "hermite_growth": stats.HERMITE_GROWTH_RATE,
}


def check_aggregate(report, targets=TARGETS) -> list[str]:
    """Gate on one AggregateReport: nothing rejected, every mean within 4 stderr."""
    problems = []
    if report.rejected_count:
        problems.append(f"{report.rejected_count} samples rejected")
    for name, target in targets.items():
        summary = getattr(report, name)
        if not abs(summary.mean - target) <= 4 * summary.stderr:
            problems.append(
                f"{name} mean {summary.mean:.6f} is not within 4 stderr "
                f"({summary.stderr:.2e}) of {target:.6f}"
            )
    return problems


def experiment(specs, depth: int, workers: int):
    cfg = stats.ExperimentConfig(
        len(specs), depth_n=depth, theta_source=specs, workers=workers
    )
    return stats.run_experiment(cfg)


def run_deep(specs, seconds, size, tally, targets=TARGETS) -> str:
    """Repeat the K-sample experiment until `seconds` have passed.

    Returns the digest of `AggregateReport.as_dict()`, which must repeat on
    every batch (and on every run of the seed).
    """
    digests = set()
    started = perf_counter()
    with patched(stats, "analyze_theta", TimedAnalyze(stats.analyze_theta, tally)):
        while True:
            t0, k0 = op_clock(), tally.kernel_s
            report = experiment(specs, size.depth, workers=1)
            tally.busy_s += op_clock() - t0 - (tally.kernel_s - k0)
            tally.attempted += len(specs)
            digests.add(digest(report.as_dict()))
            problems = check_aggregate(report, targets)
            if problems:
                tally.fail(len(specs), "; ".join(problems))
            if perf_counter() - started >= seconds:
                break
    if len(digests) != 1:
        tally.fail(len(specs), "AggregateReport digest changed between batches")
    check_prefix(specs[:2], size, tally)
    return min(digests)


def truncated(spec, bits: int):
    """The sample known to `bits` bits: a wider window that contains its own."""
    lo, hi = spec.window_lo, spec.window_hi
    floor = Fraction((lo.numerator << bits) // lo.denominator, 1 << bits)
    ceil = Fraction(-((-hi.numerator << bits) // hi.denominator), 1 << bits)
    return numeric.make_decimal(floor, bits, (floor, ceil))


def check_prefix(specs, size: Size, tally: Tally) -> None:
    """Criterion flags of each sample equal the envelope's decided flags.

    The envelope runs on the sample truncated to enough bits for the prefix:
    its window contains the sample's, so wherever it decides a flag, the
    flag holds for the sample.  At the full 19,400 bits the exact envelope
    alone costs seconds per sample.
    """
    bits = stats.auto_precision_bits(size.prefix)
    for spec in specs:
        tally.attempted += 1
        crit = hermite.flags_via_criterion(spec, size.prefix)
        env = hermite.flags_via_envelope(
            lattice.complete_sequence(truncated(spec, bits), size.prefix - 1)
        )
        decided = [
            (a, b)
            for a, b in zip(crit.flags, env.flags)
            if a is not None and b is not None
        ]
        if len(decided) < size.prefix - 2 or any(a != b for a, b in decided):
            tally.fail(1, "criterion and envelope disagree on a decimal prefix")


# ---------------------------------------------------------------------------
# exact_crosscheck: acceptance criterion 5 in shape

_SQUAREFREE = [d for d in range(2, 30) if all(d % (p * p) for p in (2, 3, 5))]
# One quadratic to two rationals: p50 falls among the (far faster) rational
# ops and p75 among the quadratic ones, each well away from the boundary.
CROSS_PATTERN = "QRR"


def _random_quadratic(rng: random.Random):
    while True:
        a = rng.randint(-9, 9)
        b = rng.choice((-3, -2, -1, 1, 2, 3))
        c = rng.randint(1, 9)
        d = rng.choice(_SQUAREFREE)
        value = numeric.quadratic_or_rational(a, b, c, d)
        if isinstance(value, numeric.QuadraticReal):
            return numeric.QuadraticSpec(value)


def _random_rational(rng: random.Random, max_den: int):
    den = rng.randint(2, max_den)
    return numeric.RationalSpec(Fraction(rng.randrange(1, den), den))


# Candidates drawn per input kept: the stratified sample below keeps one of
# every STRATUM candidates, ranked by a cheap predictor of the op's cost.
STRATUM = 4


def _bit_reversed(count: int) -> list[int]:
    """0 .. count-1 (a power of 2) in bit-reversed order."""
    bits = count.bit_length() - 1
    return [int(format(k, f"0{bits}b")[::-1], 2) for k in range(count)]


def _stratified(rng: random.Random, draw, cost, count: int) -> list:
    """`count` random inputs, one from each of `count` cost strata.

    `count * STRATUM` candidates are drawn and sorted by `cost`, and one is
    kept at random from each run of STRATUM neighbours.  The inputs keep the
    distribution of `draw`, but a run sees its spread of costs evenly rather
    than by luck, so the latency quantiles vary far less from seed to seed.
    They come in bit-reversed stratum order, so that the part of the list a
    timed run gets through is spread evenly over the strata as well.
    """
    pool = sorted((draw(rng) for _ in range(count * STRATUM)), key=cost)
    kept = [pool[k * STRATUM + rng.randrange(STRATUM)] for k in range(count)]
    return [kept[k] for k in _bit_reversed(count)]


def _cost_rank(depth: int):
    """Sort key predicting the cost of `cross_op`: the length of the expansion
    to `depth` quotients, then the size of its last convergent denominator
    (rank correlation 0.9 with the op's time on either kind of input)."""

    def rank(spec):
        pq = cf.cf_expand(cf.reduce_theta(spec)[1], depth)
        return len(pq.quotients), cf.convergents(pq)[-1].q

    return rank


def build_cross(seed: int, size: Size) -> list:
    rng = random.Random(seed)
    rank = _cost_rank(size.cross_depth)
    kinds = {
        "Q": _random_quadratic,
        "R": lambda r: _random_rational(r, 10**6),
    }
    streams = {
        kind: iter(_stratified(rng, draw, rank, size.cross_cycles * CROSS_PATTERN.count(kind)))
        for kind, draw in kinds.items()
    }
    return [next(streams[kind]) for _ in range(size.cross_cycles) for kind in CROSS_PATTERN]


def cross_op(spec, depth: int):
    """The three flag methods on one input; returns their flag tuples."""
    crit = hermite.flags_via_criterion(spec, depth)
    seq = lattice.complete_sequence(spec, depth - 1)
    env = hermite.flags_via_envelope(seq)
    scan = hermite.flags_via_delta_scan(spec, depth)
    return crit.flags, env.flags, scan.flags


def cross_mismatches(results) -> int:
    crit, env, scan = results
    bad = 0
    for column in zip(crit, env, scan):
        decided = {f for f in column if f is not None}
        bad += len(decided) > 1
    if sum(f is not None for f in crit) < 2:
        bad += 1  # nothing was compared
    return bad


def cross_step(spec, size: Size, tally: Tally, around=contextlib.nullcontext) -> None:
    """One timed exact_crosscheck op, run inside `around()`, and its check."""
    tally.attempted += 1
    t0 = op_clock()
    try:
        with around():
            results = cross_op(spec, size.cross_depth)
    except GridTooCoarse as exc:
        tally.fail(1, f"GridTooCoarse on {numeric.spec_text(spec)}: {exc}")
        return
    finally:
        elapsed = op_clock() - t0
        tally.record(elapsed)
        tally.busy_s += elapsed
    bad = cross_mismatches(results)
    if bad:
        tally.fail(1, f"{bad} flag mismatches on {numeric.spec_text(spec)}")


# A run stops only after a whole number of blocks of CROSS_BLOCK patterns:
# in bit-reversed order every such block has one input from each of
# CROSS_BLOCK equal cost ranges, so the mix of costs does not depend on how
# far a run gets.
CROSS_BLOCK = 16


def run_cross(inputs, seconds, size, tally) -> None:
    block = len(CROSS_PATTERN) * min(CROSS_BLOCK, size.cross_cycles)
    for spec in _cycle(inputs, perf_counter(), seconds, block):
        cross_step(spec, size, tally)


def _cycle(items, started, seconds, group):
    """Items in order, wrapping around, in whole groups, until time is up."""
    while True:
        for start in range(0, len(items), group):
            yield from items[start : start + group]
            if perf_counter() - started >= seconds:
                return


# ---------------------------------------------------------------------------
# cli_mixed: the command line in-process, where per-call cost dominates


@dataclass(frozen=True)
class Call:
    argv: tuple
    expect: int  # documented exit code


def _decimal_text(rng: random.Random, digits: int, bits: int) -> str:
    body = "".join(rng.choice("0123456789") for _ in range(digits - 1))
    return f"0.{body}{rng.choice('123456789')}@{bits}"


def _quadratic_text(rng: random.Random) -> str:
    return numeric.spec_text(_random_quadratic(rng))


def _rational_text(rng: random.Random) -> str:
    return numeric.spec_text(_random_rational(rng, 10**12))


_BAD_THETAS = ("7/0", "(1+2*sqrt(5)/3", "0.5@32", "1/2/3", "sqrt(2)")


def _block(rng: random.Random, failing: int) -> list[Call]:
    """20 calls: 5 expand, 6 flags --verify, 4 orbit, 4 measure, 1 failure."""
    theta = (_rational_text, _quadratic_text, lambda r: _decimal_text(r, 78, 256))
    calls = []
    for k in range(5):
        n = 40 if k % 3 == 2 else rng.randint(5, 40)  # 256 bits certify ~74
        calls.append(Call(("expand", "--theta", theta[k % 3](rng), "--n", str(n)), 0))
    for k in range(6):
        kind = k % 3
        n = rng.randint(10, 60) if kind == 2 else rng.randint(20, 200)
        argv = ("flags", "--theta", theta[kind](rng), "--n", str(n), "--verify")
        calls.append(Call(argv, 0))
    for _ in range(4):
        den = rng.randint(3, 10**6)
        x = f"{rng.randrange(1, den)}/{den}"
        y = f"0.{rng.randint(1, 999999):06d}"
        calls.append(Call(("orbit", "--x", x, "--y", y, "--n", str(rng.randint(5, 30))), 0))
    for _ in range(4):
        calls.append(Call(("measure", "--tol", f"1e-{rng.randint(6, 10)}"), 0))
    if failing % 2:
        bad = _decimal_text(rng, 20, 64)  # 64 bits certify ~18 quotients
        calls.append(Call(("expand", "--theta", bad, "--n", "60"), 3))
    else:
        calls.append(Call(("expand", "--theta", rng.choice(_BAD_THETAS), "--n", "6"), 2))
    rng.shuffle(calls)
    return calls


def build_cli(seed: int, size: Size) -> list[Call]:
    rng = random.Random(seed)
    return [call for k in range(size.cli_blocks) for call in _block(rng, k)]


def invoke(argv) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = op_clock()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects: not in the mix
            code = exc.code if isinstance(exc.code, int) else 1
        elapsed = op_clock() - t0
    return code, out.getvalue(), elapsed


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def _euclid(value: Fraction, n: int) -> list[int]:
    """Reference quotients of x0 = |theta - nearest| for a rational theta."""
    m = math.ceil(value - Fraction(1, 2))
    x = abs(value - m)
    num, den = x.numerator, x.denominator
    out = []
    while num and len(out) < n:
        a, r = divmod(den, num)
        out.append(a)
        num, den = r, num
    return out


class CliChecker:
    """Exit code, strict JSON, schema and a value check for every call.

    Output is deterministic, so a call seen before must print exactly the
    same bytes; only a call's first output is parsed and validated.
    """

    def __init__(self):
        import jsonschema  # the test extra; only the checker needs it

        schema = json.loads(SCHEMA_PATH.read_text())
        self.validator = jsonschema.Draft7Validator(schema)
        self.invalid = jsonschema.ValidationError
        self.seen: dict[tuple, str] = {}

    def problem(self, call: Call, code: int, stdout: str) -> str | None:
        if code != call.expect:
            return f"exit {code}, expected {call.expect}: {' '.join(call.argv)}"
        if code != 0:
            return None if stdout == "" else "output printed on a failing call"
        previous = self.seen.get(call.argv)
        if previous is not None:
            return None if previous == stdout else "output changed on a repeat"
        try:
            record = json.loads(stdout, parse_constant=_reject_constant)
        except ValueError as exc:  # JSONDecodeError and non-JSON constants
            return f"invalid JSON from {' '.join(call.argv)}: {exc}"
        try:
            self.validator.validate(record)
        except self.invalid as exc:
            return f"schema violation from {' '.join(call.argv)}: {exc.message}"
        why = self._value_problem(call, record)
        if why is None:
            self.seen[call.argv] = stdout
        return why

    @staticmethod
    def _value_problem(call: Call, record: dict) -> str | None:
        command, results = call.argv[0], record["results"]
        if record["command"] != command:
            return f"record names {record['command']} for {command}"
        if command == "expand":
            spec = numeric.parse_real(call.argv[2])
            n = int(call.argv[4])
            if isinstance(spec, numeric.RationalSpec):
                expected = _euclid(spec.value, n)
            else:
                expected = list(cf.cf_expand(cf.reduce_theta(spec)[1], n).quotients)
            if results["quotients"] != expected:
                return f"wrong quotients for {call.argv[2]}"
        elif command == "flags":
            if results.get("verified") is not True:
                return f"flags --verify did not verify {call.argv[2]}"
        elif command == "orbit":
            n = int(call.argv[6])
            if results["terminated_at"] is None and len(results["points"]) != n + 1:
                return "orbit length differs from --n"
        elif command == "measure":
            tol = float(call.argv[2])
            if not abs(results["mu_V"] - MU_V) <= tol:
                return f"mu_V {results['mu_V']} off by more than {tol}"
        return None


def cli_step(call: Call, tally: Tally, checker: CliChecker, around=contextlib.nullcontext) -> None:
    """One timed in-process CLI call, run inside `around()`, and its check."""
    tally.attempted += 1
    with around():
        code, stdout, elapsed = invoke(call.argv)
    tally.record(elapsed)
    tally.busy_s += elapsed
    why = checker.problem(call, code, stdout)
    if why:
        tally.fail(1, why)


def run_cli(calls, seconds, size, tally) -> None:
    checker = CliChecker()
    for call in _cycle(calls, perf_counter(), seconds, 20):
        cli_step(call, tally, checker)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    build: object  # (seed, size) -> inputs
    run: object  # (inputs, seconds, size, tally) -> digest or None


WORKLOADS = {
    "deep_decimal": Workload(build_deep, run_deep),
    "exact_crosscheck": Workload(build_cross, run_cross),
    "cli_mixed": Workload(build_cli, run_cli),
}


def percentile(values, q: float) -> float:
    """Quantile q of `values` by the method `statistics.quantiles` uses."""
    cut = round(q * 100)
    return statistics.quantiles(values, n=100, method="exclusive")[cut - 1]
