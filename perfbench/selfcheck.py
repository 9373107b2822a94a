"""Quick self-check of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selfcheck.py

Checks that every metric BENCHMARK.json names is emitted with its unit, in
untraced runs of each workload and in the traced run; that a planted wrong
expected value is counted as failed; that the experiment digest repeats (the
traced run also requires it to be the same with the worker pool); and that
the benchmark exits non-zero without a result where the library's sources
are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args, cwd=ROOT, check=True):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--seed", "3",
           "--seconds", "0", "--size", "TINY", *args]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    if check and done.returncode != 0:
        raise AssertionError(f"{' '.join(args)} exited {done.returncode}: {done.stderr}")
    return done


def result_of(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def digest_of(done) -> str:
    for line in done.stdout.splitlines():
        if line.startswith("AggregateReport digest: "):
            return line.split(": ", 1)[1]
    raise AssertionError("no digest printed")


def expect_metrics(result: dict, declared: list, label: str) -> None:
    wanted = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, f"{label}: metrics {sorted(got)} differ from {sorted(wanted)}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), f"{label}: {name} is not a number"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first_digest = None
    for workload in spec["workloads"]:
        name = workload["name"]
        done = bench("--workload", name, "--trace", "0")
        result = result_of(done)
        assert result["correct"] and result["failed"] == 0, f"{name}: {done.stdout}"
        expect_metrics(result, spec["end_to_end"], name)
        if name == "deep_decimal":
            first_digest = digest_of(done)
        print(f"ok  {name}: every end-to-end metric emitted with its unit")

    again = digest_of(bench("--workload", "deep_decimal", "--trace", "0"))
    assert again == first_digest, "digest changed between runs of one seed"
    print("ok  AggregateReport digest repeats across runs of one seed")

    traced = result_of(bench("--workload", "deep_decimal", "--trace", "1"))
    assert traced["correct"], "traced run reported failures"
    expect_metrics(traced, spec["per_layer"], "traced run")
    print("ok  traced run: every per-layer metric emitted with its unit; "
          "pool and single-process digests equal")

    for name in ("cli_mixed", "deep_decimal"):
        planted = result_of(bench("--workload", name, "--trace", "0", "--plant"))
        assert planted["failed"] >= 1 and not planted["correct"], f"{name}: plant not counted"
        print(f"ok  {name}: a planted wrong expectation counts {planted['failed']} failed "
              f"of {planted['attempted']}")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = bench("--workload", "cli_mixed", "--trace", "0", cwd=bare, check=False)
    shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip(), "ran without the library"
    print("ok  without src/ the benchmark exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
