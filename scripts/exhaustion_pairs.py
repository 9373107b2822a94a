"""Time criterion scans run until their windows are exhausted, in two checkouts.

    python3 scripts/exhaustion_pairs.py --side change=. --side parent=../parent
        [--seeds 1 2 3 4 5] [--reps 5] [--count 150]

The input set, per seed: `--count` decimals, each of a uniform 400-3,000
bits, with as many decimal digits as `stats.sample_thetas` draws for that
precision (`decimals`).  Each is scanned with `criterion_scan(x, 10**9)`, so
the scan runs until the window is exhausted; most Lehmer batches of these
inputs run on a long window, and the last ones near exhaustion.

For every seed each side gets one worker process with `<side>/src` on
`PYTHONPATH`, which builds the set and then scans the inputs it is sent,
timing each scan with `time.process_time`.  The script sends every input
`--reps` times to each worker, the sides alternating and the side that
goes first alternating from one scan to the next, so that a change in the
machine's speed, even within a second, falls on both alike.  A side's time
for the seed is the sum over the inputs of its least scan.  The script
prints one line per seed (each side's time in ms and their ratio, the
first side over the second), then the median ratio over the seeds and the
number of seeds on which the first side was faster.  Standard library
only.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path


def decimals(seed: int, count: int) -> list:
    """`count` decimals in (0, 1/2) of 400-3,000 bits; needs hermite_lab on the path."""
    from hermite_lab import make_decimal

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        bits = rng.randint(400, 3000)
        digits = bits * 30103 // 100000 + 1
        ulp = Fraction(1, 1 << bits)
        while True:
            value = Fraction(rng.randrange(1, 10**digits // 2), 10**digits)
            if value + ulp <= Fraction(1, 2):
                break
        out.append(make_decimal(value, bits))
    return out


def serve(specs: list) -> None:
    """Worker loop: scan the input whose index is read on stdin, print its CPU seconds."""
    from hermite_lab.hermite import criterion_scan

    print("ready", flush=True)
    for line in sys.stdin:
        spec = specs[int(line)]
        start = time.process_time()
        criterion_scan(spec, 10**9)
        print(time.process_time() - start, flush=True)


def start_worker(path: Path, seed: int, count: int) -> subprocess.Popen:
    """A worker process on the checkout at `path`, once it has built the seed's set."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--worker",
        "--seeds", str(seed), "--count", str(count),
    ]
    env = dict(os.environ, PYTHONPATH=str(path / "src"))
    worker = subprocess.Popen(
        command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env
    )
    if worker.stdout.readline().strip() != "ready":
        raise RuntimeError(f"worker on {path} did not start")
    return worker


def scan(worker: subprocess.Popen, index: int) -> float:
    """CPU seconds of one scan of input `index` in `worker`."""
    worker.stdin.write(f"{index}\n")
    worker.stdin.flush()
    return float(worker.stdout.readline())


def time_seed(paths: list[Path], seed: int, count: int, reps: int) -> list[float]:
    """For both sides, the sum over the seed's inputs of the least of `reps` scans, in ms."""
    workers = [start_worker(path, seed, count) for path in paths]
    totals = [0.0, 0.0]
    try:
        for i in range(count):
            best = [math.inf, math.inf]
            for r in range(reps):
                for k in (0, 1) if (i + r) % 2 == 0 else (1, 0):
                    best[k] = min(best[k], scan(workers[k], i))
            totals = [t + b for t, b in zip(totals, best)]
    finally:
        for worker in workers:
            worker.stdin.close()
            worker.wait()
    return [t * 1000 for t in totals]


def report(names: list[str], rows: list[tuple[int, list[float]]]) -> list[str]:
    """Lines for (seed, [time of each side]) rows, the first side over the second."""
    first, second = names
    lines = [f"seed {first}_ms {second}_ms ratio"]
    ratios = []
    for seed, (a, b) in rows:
        ratios.append(a / b)
        lines.append(f"{seed} {a:.2f} {b:.2f} {a / b:.4f}")
    faster = sum(r < 1 for r in ratios)
    lines.append(
        f"median ratio {statistics.median(ratios):.4f}; {first} faster on {faster} of {len(ratios)}"
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", metavar="NAME=PATH",
                        help="a checkout to run; give two")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--count", type=int, default=150)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        serve(decimals(args.seeds[0], args.count))
        return 0
    if not args.side or len(args.side) != 2:
        parser.error("give two --side NAME=PATH")
    sides = [(name, Path(path).resolve()) for name, path in (s.split("=", 1) for s in args.side)]
    rows = []
    for seed in args.seeds:
        sums = time_seed([path for _, path in sides], seed, args.count, args.reps)
        rows.append((seed, sums))
        print(f"seed {seed}: " + " ".join(f"{n} {m:.2f} ms" for (n, _), m in zip(sides, sums)),
              file=sys.stderr, flush=True)
    print("\n".join(report([name for name, _ in sides], rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
