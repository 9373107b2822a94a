"""SHA-256 digests of the criterion's flags and scan state, per input family.

    PYTHONPATH=src python scripts/flag_digest.py [--seed 401] [--tiny]

For each family the script runs `hermite.criterion_scan` on every input and
hashes `repr((flags, state))` of all of them in order, then prints one line
`<family> <inputs> <sha256>`.  Run it in two checkouts (copy the script
into one that lacks it) and compare the lines: equal digests mean equal
flags, quotients, denominators and stop reasons.  The families:

* `criterion5`: the 100 rationals and 10 quadratics of acceptance
  criterion 5, at depths 10**6 and 50;
* `crosscheck`: the inputs of perfbench's `exact_crosscheck` workload for
  `--seed`, at its depth of 20;
* `decimals`: 1,200 random decimals of 64-128 bits (seed 7), each scanned
  until its window is exhausted;
* `ties`: flags that land on the border of the skip region, and shallow
  fixtures, at depths 2, 3, 10 and 183;
* `deep`: the 40 samples of perfbench's `deep_decimal` workload for
  `--seed`, about 19,400 bits each, at depth 5000.

`--tiny` takes a few inputs of each family and the deep samples at depth
300, for a smoke test.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

from hermite_lab import make_decimal, parse_real
from hermite_lab.hermite import criterion_scan

ROOT = Path(__file__).resolve().parent.parent

TIES = (
    "5/14", "3/8", "(-3+1*sqrt(21))/6", "(-320874+987817*sqrt(11))/158177",
    "3/14", "11/26", "17/62", "0.5@64", "4/5",
)


def _random_decimals(count: int) -> list:
    rng = random.Random(7)
    out = []
    for _ in range(count):
        bits = rng.randint(64, 128)
        out.append(make_decimal(Fraction(rng.randrange(1, 1 << bits), 2 << bits), bits))
    return out


def families(seed: int, tiny: bool) -> dict[str, list]:
    """Family name -> list of (spec, depth); needs tests/ and perfbench/ on the path."""
    import workloads
    from helpers import random_quadratic_specs, random_rational_specs

    size = workloads.TINY if tiny else workloads.FULL
    rationals = random_rational_specs(100, 10**6, seed=501)
    quadratics = random_quadratic_specs(10, seed=502)
    cross = workloads.build_cross(seed, workloads.FULL)
    decimals = _random_decimals(1200)
    if tiny:
        rationals, quadratics = rationals[:5], quadratics[:2]
        cross, decimals = cross[:6], decimals[:20]
    return {
        "criterion5": [(s, 10**6) for s in rationals] + [(s, 50) for s in quadratics],
        "crosscheck": [(s, workloads.FULL.cross_depth) for s in cross],
        "decimals": [(s, 10**6) for s in decimals],
        "ties": [(parse_real(t), n) for t in TIES for n in (2, 3, 10, 183)],
        "deep": [(s, size.depth) for s in workloads.build_deep(seed, size)],
    }


def digest(cases) -> str:
    h = hashlib.sha256()
    for spec, depth in cases:
        h.update(repr(criterion_scan(spec, depth)).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=401)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # a deep ScanState's repr passes 4,300 digits
    try:
        for name, cases in families(args.seed, args.tiny).items():
            print(f"{name} {len(cases)} {digest(cases)}", flush=True)
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
