"""Time a `hermite-lab flags` process from start to exit, in two checkouts.

    python3 scripts/cold_start_pairs.py --side change=. --side parent=../parent [--runs 40]

Each run starts `python -m hermite_lab.cli flags --theta 3/8 --n 5` with
`<side>/src` on PYTHONPATH and waits for it to exit: one process at a time,
never two at once, the sides alternating and the side that goes first
alternating from one pair of runs to the next.  A run's wall time is
`time.perf_counter` around it, and its CPU time the rise in
`resource.getrusage(RUSAGE_CHILDREN)`'s user plus system time.  The child
runs with bytecode caching on (PYTHONDONTWRITEBYTECODE is dropped from its
environment), and one uncounted run per side writes the caches first, so
every counted run imports the package from bytecode, as an installed
command does.  The script prints, per side, the median and quartiles of
both times in ms, then the first side's medians over the second's.
Standard library only.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

COMMAND = ["-m", "hermite_lab.cli", "flags", "--theta", "3/8", "--n", "5"]


def run_once(path: Path) -> tuple[float, float]:
    """Wall and CPU seconds of one `flags` process on the checkout at `path`."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(path / "src")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    subprocess.run([sys.executable, *COMMAND], env=env, check=True, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(names: list[str], times: list[list[tuple[float, float]]]) -> list[str]:
    """Lines for each side's (wall, cpu) seconds per run, the first side over the second."""
    lines = ["side wall_q1 wall_median wall_q3 cpu_q1 cpu_median cpu_q3 (ms)"]
    medians = []
    for name, runs in zip(names, times):
        wall = quartiles([w * 1000 for w, _ in runs])
        cpu = quartiles([c * 1000 for _, c in runs])
        medians.append((wall[1], cpu[1]))
        lines.append(f"{name} " + " ".join(f"{v:.1f}" for v in wall + cpu))
    (wall_a, cpu_a), (wall_b, cpu_b) = medians
    lines.append(
        f"{names[0]}/{names[1]} median wall {wall_a / wall_b:.3f}, cpu {cpu_a / cpu_b:.3f}"
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", metavar="NAME=PATH",
                        help="a checkout to run; give two")
    parser.add_argument("--runs", type=int, default=40, help="counted runs per side")
    args = parser.parse_args(argv)
    if not args.side or len(args.side) != 2:
        parser.error("give two --side NAME=PATH")
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    sides = [(name, Path(path).resolve()) for name, path in (s.split("=", 1) for s in args.side)]
    for _, path in sides:
        run_once(path)  # writes the bytecode caches; not counted
    times: list[list[tuple[float, float]]] = [[], []]
    for r in range(args.runs):
        for k in (0, 1) if r % 2 == 0 else (1, 0):
            times[k].append(run_once(sides[k][1]))
    print("\n".join(report([name for name, _ in sides], times)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
