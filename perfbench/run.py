"""hermite-lab benchmark: one workload per run, every metric by name and unit.

    python3 perfbench/run.py --workload deep_decimal --seed 1 --seconds 35 --trace 0

`--trace 0` times one workload closed-loop for at least `--seconds` and
reports the end-to-end metrics; `--trace 1` runs the traced pass over every
workload (see traced.py) and reports the per-layer metrics.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines before it are for people.  The library is imported from
`src/` of the checkout this file sits in, never from anywhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from hashlib import sha256
from pathlib import Path
from time import process_time

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("deep_decimal", "exact_crosscheck", "cli_mixed")
SETUP_REPEATS = 7
PROBE_KERNELS = 9
SETUP_MODULES = {"cli_mixed": ("hermite_lab", "hermite_lab.cli")}


def import_library():
    """Import hermite_lab from this checkout's src/, or exit non-zero without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import hermite_lab
    except ImportError as exc:
        sys.exit(f"error: cannot import hermite_lab from {SRC}: {exc}")
    if Path(hermite_lab.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: hermite_lab was imported from {hermite_lab.__file__}, not {SRC}")
    return hermite_lab


def probe_setup(workload: str, seed: int, size_name: str) -> None:
    """Fresh interpreter: CPU time of importing the library plus input
    generation, then the median of a few calibration kernel runs."""
    import importlib

    t0 = process_time()
    sys.path.insert(0, str(SRC))
    for module in SETUP_MODULES.get(workload, ("hermite_lab",)):
        importlib.import_module(module)
    imported = process_time() - t0
    import workloads as wl  # the benchmark's own code: not set-up

    t1 = process_time()
    wl.WORKLOADS[workload].build(seed, getattr(wl, size_name))
    took = imported + process_time() - t1
    print(took, statistics.median(pace.kernel_seconds() for _ in range(PROBE_KERNELS)))


def setup_seconds(workload: str, seed: int, size_name: str) -> float:
    """Median set-up time at reference speed over SETUP_REPEATS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, __file__, "--probe-setup", "--workload", workload,
             "--seed", str(seed), "--size", size_name],
            capture_output=True, text=True, check=True, timeout=120,
        )
        took, kernel = map(float, done.stdout.split())
        times.append(took * pace.KERNEL_REF_MS / (1000 * kernel))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set of this process; ru_maxrss is in KiB on Linux."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(hermite_lab) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    source = sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(SRC).as_posix().encode())
            source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "package_version": hermite_lab.__version__,
        "git_sha": git_sha(),
        "src_sha256": source.hexdigest()[:16],
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(args, wl) -> tuple[dict, object]:
    size = getattr(wl, args.size)
    spec = wl.WORKLOADS[args.workload]
    inputs = spec.build(args.seed, size)
    if args.plant:
        inputs = plant(args.workload, inputs, wl)
    tally = wl.Tally(pace=pace.Pace())
    extra = spec.run(inputs, args.seconds, size, tally)
    rss = peak_rss_mb()
    setup = setup_seconds(args.workload, args.seed, args.size)
    raw, lat = tally.latencies, tally.scaled()
    slowdown = sum(raw) / sum(lat)  # op time here over op time at reference speed
    metrics = {
        "ops_per_s": (slowdown * len(lat) / tally.busy_s, "1/s"),
        "op_ms_p50": (1000 * wl.percentile(lat, 0.50), "ms"),
        "op_ms_p75": (1000 * wl.percentile(lat, 0.75), "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    print(f"workload {args.workload}: {len(lat)} ops timed in {tally.busy_s:.2f} CPU s")
    print(
        f"as measured, before scaling to reference speed: {len(raw) / tally.busy_s:.4f} ops/s, "
        f"p50 {1000 * wl.percentile(raw, 0.50):.4f} ms, "
        f"p75 {1000 * wl.percentile(raw, 0.75):.4f} ms; "
        f"ops took {slowdown:.3f} times as long as at reference speed "
        f"({len(tally.pace.samples)} kernel runs)"
    )
    if extra:
        print(f"AggregateReport digest: {extra}")
    return metrics, tally


def plant(workload: str, inputs, wl):
    """A wrong expected value, which the self-check requires to be counted as failed."""
    if workload == "cli_mixed":
        first = inputs[0]
        return [wl.Call(first.argv, first.expect + 1)] + inputs[1:]
    if workload == "deep_decimal":
        wl.TARGETS["proportion"] += 0.05
        return inputs
    raise SystemExit(f"error: nothing to plant in {workload}")


def run_traced(args, wl) -> tuple[dict, object]:
    import traced

    size = getattr(wl, args.size)
    tally = wl.Tally()
    layers = traced.Layers()
    tracer = traced.traced_pass(args.seed, size, tally, layers)
    out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.dump(out)
    print(f"{len(tracer.spans)} spans written to {out.relative_to(ROOT)}")
    print(f"{'per-layer metric':44} {'value':>12}  {'unit':13} measured on")
    for name, (value, unit, workload) in layers.rows.items():
        print(f"{name:44} {value:12.4f}  {unit:13} {workload}")
    bpq = layers.rows["cf.bits_per_quotient"][0]
    print(
        f"cf.bits_per_quotient {bpq:.4f} measured vs pi^2/(6 ln^2 2) = "
        f"{traced.THEORY_BITS_PER_QUOTIENT:.4f} in theory"
    )
    return {name: (value, unit) for name, (value, unit, _) in layers.rows.items()}, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("FULL", "TINY"), default="FULL",
                        help="TINY only serves the self-check")
    parser.add_argument("--plant", action="store_true",
                        help="plant a wrong expected value (self-check)")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.workload, args.seed, args.size)
        return 0

    hermite_lab = import_library()
    import workloads as wl

    print("provenance:", json.dumps(provenance(hermite_lab)))
    if args.trace:
        metrics, tally = run_traced(args, wl)
    else:
        metrics, tally = run_workload(args, wl)
        print(f"{'end-to-end metric':20} {'value':>12}  unit")
        for name, (value, unit) in metrics.items():
            print(f"{name:20} {value:12.4f}  {unit}")
    fail_ratio = tally.failed / tally.attempted
    print(f"{'fail_ratio':20} {fail_ratio:12.4f}  ratio ({tally.failed} of {tally.attempted} ops)")
    for why in tally.problems:
        print("failed:", why)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
