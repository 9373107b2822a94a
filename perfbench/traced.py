"""The traced run: per-layer metrics from spans around library calls.

One traced run covers every workload at a fixed, small size, so its metric
set does not depend on `--workload`.  Each section first times its ops with
tracing off, then again with the library's public functions patched to
record spans (see `tracer.py`); the difference is the tracing overhead.
Pool workers are never traced: the pool section only yields its scaling
efficiency and the determinism check against the single-process run.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

from hermite_lab import cf, cli, hermite, lattice, natural_extension, numeric, stats

import workloads as wl
from tracer import Tracer, instrument

THEORY_BITS_PER_QUOTIENT = math.pi**2 / (6 * math.log(2) ** 2)  # 3.42371...

_KIND = {
    numeric.RationalSpec: "rational",
    numeric.QuadraticSpec: "quadratic",
    numeric.DecimalSpec: "decimal",
}


def _flag_counts(result, args):
    flags = result[0] if isinstance(result, tuple) else result
    decided = sum(f is not None for f in flags.flags)
    return {"decided": decided, "undecided": len(flags.flags) - decided}


def _scan_attrs(result, args):
    return {**_flag_counts(result, args), "quotients": result[1].quotient_count}


def _expand_attrs(result, args):
    return {"kind": _KIND[type(args[0])], "quotients": len(result.quotients)}


def _targets():
    """(module, attribute, span name, annotate, starts an op) for every patch.

    A function is patched in every module that calls it by its bare name.
    """
    targets = [
        (stats, "sample_thetas", "stats.sample_thetas", None, False),
        (stats, "run_experiment", "stats.run_experiment", None, False),
        (stats, "analyze_theta", "stats.analyze_theta", None, True),
        (cf, "cf_expand", "cf.cf_expand", _expand_attrs, False),
        (lattice, "complete_sequence", "lattice.complete_sequence", None, False),
        (natural_extension, "orbit", "natural_extension.orbit", None, False),
        (natural_extension, "mu_measure_V", "natural_extension.mu_measure_V", None, False),
    ]
    for module in (stats, hermite):
        targets.append((module, "criterion_scan", "hermite.criterion_scan", _scan_attrs, False))
    for module in (hermite, cli):
        targets += [
            (module, "flags_via_criterion", "hermite.flags_via_criterion", None, False),
            (module, "complete_sequence", "lattice.complete_sequence", None, False),
            (module, "flags_via_envelope", "hermite.flags_via_envelope", _flag_counts, False),
        ]
    targets += [
        (hermite, "flags_via_delta_scan", "hermite.flags_via_delta_scan", _flag_counts, False),
        (cli, "parse_real", "numeric.parse_real", None, False),
        (cli, "reduce_theta", "cf.reduce_theta", None, False),
        (cli, "cf_expand", "cf.cf_expand", _expand_attrs, False),
        (cli, "convergents", "cf.convergents", None, False),
        (cli, "hermite_subsequence", "hermite.hermite_subsequence", None, False),
        (cli, "spec_text", "numeric.spec_text", None, False),
    ]
    return targets


def _mean(values) -> float:
    return statistics.fmean(values)


def _us_per_quotient(expands) -> float:
    return 1000 * sum(e.ms for e in expands) / sum(e.attrs["quotients"] for e in expands)


class Layers:
    """Collects layer metrics with the workload each was measured on."""

    def __init__(self):
        self.rows: dict[str, tuple[float, str, str]] = {}

    def put(self, name: str, value: float, unit: str, workload: str) -> None:
        self.rows[name] = (value, unit, workload)


def traced_pass(seed: int, size: wl.Size, tally: wl.Tally, layers: Layers) -> Tracer:
    tracer = Tracer()
    _deep(seed, size, tally, layers, tracer)
    _cross(seed, size, tally, layers, tracer)
    _cli(seed, size, tally, layers, tracer)
    decided = undecided = 0
    for span in tracer.spans:
        decided += span.attrs.get("decided", 0)
        undecided += span.attrs.get("undecided", 0)
    layers.put("hermite.flags_decided", decided, "count", "all")
    layers.put("hermite.flags_undecided", undecided, "count", "all")
    return tracer


def _overhead(traced_s: float, plain_s: float) -> float:
    return 100.0 * (traced_s - plain_s) / plain_s


def _deep(seed, size, tally, layers, tracer):
    name = "deep_decimal"
    specs = wl.build_deep(seed, size)
    plain = wl.Tally()
    with wl.patched(stats, "analyze_theta", wl.TimedAnalyze(stats.analyze_theta, plain)):
        t0 = perf_counter()
        serial = wl.experiment(specs, size.depth, 1)
        serial_s = perf_counter() - t0
    t0 = perf_counter()
    pooled = wl.experiment(specs, size.depth, 2)
    pool_s = perf_counter() - t0
    for report in (serial, pooled):
        tally.attempted += len(specs)
        problems = wl.check_aggregate(report)
        if problems:
            tally.fail(len(specs), "; ".join(problems))
    serial_digest = wl.digest(serial.as_dict())
    pool_digest = wl.digest(pooled.as_dict())
    tally.attempted += 1
    if serial_digest != pool_digest:
        tally.fail(1, "pool and single-process AggregateReport digests differ")
    layers.put("stats.pool.efficiency", serial_s / (2 * pool_s), "ratio", name)

    start = len(tracer.spans)
    traced = specs[: size.trace_samples]
    bits = stats.auto_precision_bits(size.depth)
    with instrument(tracer, _targets()):
        stats.sample_thetas(seed, size.samples, bits)
        report = wl.experiment(traced, size.depth, 1)
        scans = [s for s in tracer.spans[start:] if s.name == "hermite.criterion_scan"]
        for spec, scan in zip(traced, scans):
            cf.cf_expand(cf.reduce_theta(spec)[1], scan.attrs["quotients"])
    tally.attempted += len(traced)
    if report.rejected_count:
        tally.fail(report.rejected_count, "traced samples rejected")
    spans = tracer.spans[start:]
    own = tracer.self_ms()
    by = {}
    for span in spans:
        by.setdefault(span.name, []).append(span)
    expands = by["cf.cf_expand"]
    layers.put("stats.sample_thetas.ms", by["stats.sample_thetas"][0].ms, "ms", name)
    layers.put(
        "stats.analyze_theta.self_ms",
        _mean(own[s.index] for s in by["stats.analyze_theta"]),
        "ms",
        name,
    )
    layers.put(
        "stats.run_experiment.self_ms", own[by["stats.run_experiment"][0].index], "ms", name
    )
    layers.put(
        "hermite.criterion_scan.self_ms",
        _mean(own[s.index] - e.ms for s, e in zip(by["hermite.criterion_scan"], expands)),
        "ms",
        name,
    )
    layers.put(
        "cf.cf_expand.decimal.us_per_quotient",
        _us_per_quotient(expands),
        "us/quotient",
        name,
    )
    traced_s = sum(s.ms for s in by["stats.analyze_theta"]) / 1000
    plain_s = sum(plain.latencies[: len(traced)])
    layers.put(f"trace.overhead_pct.{name}", _overhead(traced_s, plain_s), "%", name)

    # declared bits over the quotients certified when expanded to exhaustion
    quotients = declared = 0
    for spec in traced:
        x0 = cf.reduce_theta(spec)[1]
        quotients += len(cf.cf_expand(x0, 4 * spec.declared_bits).quotients)
        declared += spec.declared_bits
    layers.put("cf.quotients", quotients, "count", name)
    layers.put("cf.bits_per_quotient", declared / quotients, "bits/quotient", name)


def _cross(seed, size, tally, layers, tracer):
    name = "exact_crosscheck"
    inputs = wl.build_cross(seed, size)[: len(wl.CROSS_PATTERN) * size.trace_cross_cycles]
    plain, traced = wl.Tally(), wl.Tally()
    for spec in inputs:
        wl.cross_step(spec, size, plain)
    start = len(tracer.spans)
    with instrument(tracer, _targets()):
        for spec in inputs:
            wl.cross_step(spec, size, traced, lambda: tracer.span("op.exact_crosscheck", op=True))
        for spec in inputs:
            if isinstance(spec, numeric.QuadraticSpec):
                cf.cf_expand(cf.reduce_theta(spec)[1], size.cross_depth)
    spans = tracer.spans[start:]
    own = tracer.self_ms()
    scans = [s for s in spans if s.name == "hermite.flags_via_delta_scan"]
    layers.put(
        "hermite.flags_via_delta_scan.self_ms", _mean(own[s.index] for s in scans), "ms", name
    )
    layers.put(
        "lattice.complete_sequence.ms",
        _mean(s.ms for s in spans if s.name == "lattice.complete_sequence"),
        "ms",
        name,
    )
    expands = [s for s in spans if s.name == "cf.cf_expand" and s.attrs["kind"] == "quadratic"]
    layers.put(
        "cf.cf_expand.quadratic.us_per_quotient",
        _us_per_quotient(expands),
        "us/quotient",
        name,
    )
    layers.put(f"trace.overhead_pct.{name}", _overhead(traced.busy_s, plain.busy_s), "%", name)
    _merge(tally, plain, traced)


def _cli(seed, size, tally, layers, tracer):
    name = "cli_mixed"
    calls = wl.build_cli(seed, size)[: 20 * size.trace_cli_blocks]
    checker = wl.CliChecker()
    plain, traced = wl.Tally(), wl.Tally()
    for call in calls:
        wl.invoke(call.argv)  # warm-up: first calls pay one-off imports
    for call in calls:
        wl.cli_step(call, plain, checker)
    start = len(tracer.spans)
    with instrument(tracer, _targets()):
        for call in calls:
            command = call.argv[0]
            wl.cli_step(
                call, traced, checker, lambda: tracer.span("cli.main", op=True, command=command)
            )
    spans = tracer.spans[start:]
    own = tracer.self_ms()
    mains = [s for s in spans if s.name == "cli.main"]
    for command in ("expand", "flags", "orbit", "measure"):
        layers.put(
            f"cli.main.{command}.ms_p50",
            statistics.median(s.ms for s in mains if s.attrs["command"] == command),
            "ms",
            name,
        )
    layers.put("cli.main.self_ms", _mean(own[s.index] for s in mains), "ms", name)

    def mean_ms(span_name):
        return _mean(s.ms for s in spans if s.name == span_name)

    layers.put("numeric.parse_real.us", 1000 * mean_ms("numeric.parse_real"), "us", name)
    layers.put("natural_extension.orbit.us", 1000 * mean_ms("natural_extension.orbit"), "us", name)
    layers.put(
        "natural_extension.mu_measure_V.ms", mean_ms("natural_extension.mu_measure_V"), "ms", name
    )
    layers.put("hermite.flags_via_envelope.ms", mean_ms("hermite.flags_via_envelope"), "ms", name)
    expands = [s for s in spans if s.name == "cf.cf_expand" and s.attrs.get("kind") == "rational"]
    layers.put(
        "cf.cf_expand.rational.us_per_quotient",
        _us_per_quotient(expands),
        "us/quotient",
        name,
    )
    layers.put(f"trace.overhead_pct.{name}", _overhead(traced.busy_s, plain.busy_s), "%", name)
    _merge(tally, plain, traced)


def _merge(tally: wl.Tally, *parts: wl.Tally) -> None:
    for part in parts:
        tally.attempted += part.attempted
        tally.failed += part.failed
        tally.problems.extend(part.problems)
