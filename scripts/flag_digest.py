"""SHA-256 digests of the criterion's flags and scan state, per input family.

    PYTHONPATH=src python scripts/flag_digest.py [--seed 401] [--tiny]

For each family the script runs `hermite.criterion_scan` on every input and
hashes `repr((flags, state))` of all of them in order, then prints one line
`<family> <inputs> <sha256>`.  Run it in two checkouts (copy the script
into one that lacks it) and compare the lines: equal digests mean equal
flags, quotients, denominators and stop reasons.  The families
`sequences` and `expansions` hash the layers below the criterion instead,
and `cli` the command line above it.  The families:

* `criterion5`: the 100 rationals and 10 quadratics of acceptance
  criterion 5, at depths 10**6 and 50;
* `crosscheck`: the inputs of perfbench's `exact_crosscheck` workload for
  `--seed`, at its depth of 20;
* `decimals`: 1,200 random decimals of 64-128 bits
  (`helpers.random_decimal_specs`, seed 7), each scanned until its window
  is exhausted;
* `ties`: flags that land on the border of the skip region, and shallow
  fixtures, at depths 2, 3, 10 and 183;
* `deep`: the 40 samples of perfbench's `deep_decimal` workload for
  `--seed`, about 19,400 bits each, at depth 5000.
* `sequences`: the `criterion5` and `crosscheck` inputs again, hashing
  `repr` of `cf.reduce_theta(spec)`, the `(p, q)` of
  `lattice.complete_sequence(spec, depth - 1)` and the flags of
  `hermite.flags_via_envelope` on that sequence.
* `expansions`: the `criterion5`, `crosscheck`, `decimals` and `deep`
  inputs again, hashing `repr` of `cf.cf_expand(x0, depth)` on the reduced
  input x0 and of the `(lo, hi)` bounds `cf.tail_value` returns at three
  indices: 0, the middle and the last quotient's.
* `cli`: the 1,280 calls of perfbench's `cli_mixed` workload for `--seed`,
  then `helpers.ARGUMENT_REJECTIONS` (the argument rejections of
  `tests/test_cli.py`) and `--help`, all through `cli.main` in this one
  process, hashing `repr` of each call's exit code, standard output and
  standard error.  Help text is formatted 80 columns wide, whatever the
  terminal.  `experiment` is left out, as it writes files.
* `cli_csv`: the `cli_mixed` calls of `cli` again, each with `--format
  csv`, hashing the same record per call.
* `long_decimals`: 100 random decimals of 400-3,000 bits
  (`helpers.random_decimal_specs`, seed 9) and 20 samples of
  `stats.sample_thetas` for `--seed` at each of 1,000, 2,100 and 3,000
  bits, each scanned until its window is exhausted.  The windows past
  2,048 bits start on one exact end and build the other near exhaustion.
* `boundary`: inputs whose flag at index m lies delta from the border of
  the skip region (`helpers.boundary_theta`), for m of 5, 40, 400 and
  2,000 and each delta of `helpers.BOUNDARY_DELTAS`, each as a rational
  and as a decimal of 6m + 400 bits, scanned until it terminates or its
  window is exhausted.

`--tiny` takes a few inputs of each family (m of 5 and 40 only in
`boundary`), the deep samples at depth 300 and the first 20 calls of `cli`
and `cli_csv`, for a smoke test.
Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import sys
from pathlib import Path
from unittest import mock

from hermite_lab import RationalSpec, cli, make_decimal, parse_real, stats
from hermite_lab.cf import cf_expand, reduce_theta, tail_value
from hermite_lab.hermite import criterion_scan, flags_via_envelope
from hermite_lab.lattice import complete_sequence

ROOT = Path(__file__).resolve().parent.parent

TIES = (
    "5/14", "3/8", "(-3+1*sqrt(21))/6", "(-320874+987817*sqrt(11))/158177",
    "3/14", "11/26", "17/62", "0.5@64", "4/5",
)


def families(seed: int, tiny: bool) -> dict[str, list]:
    """Family name -> list of (spec, depth); needs tests/ and perfbench/ on the path."""
    import workloads
    from helpers import (
        ARGUMENT_REJECTIONS,
        BOUNDARY_DELTAS,
        boundary_quotients,
        boundary_theta,
        random_decimal_specs,
        random_quadratic_specs,
        random_rational_specs,
    )

    size = workloads.TINY if tiny else workloads.FULL
    rationals = random_rational_specs(100, 10**6, seed=501)
    quadratics = random_quadratic_specs(10, seed=502)
    cross = workloads.build_cross(seed, workloads.FULL)
    decimals = random_decimal_specs(1200, 64, 128, seed=7)
    long_decimals = random_decimal_specs(100, 400, 3000, seed=9)
    samples = [stats.sample_thetas(seed, 20, bits) for bits in (1000, 2100, 3000)]
    if tiny:
        rationals, quadratics = rationals[:5], quadratics[:2]
        cross, decimals = cross[:6], decimals[:20]
        long_decimals, samples = long_decimals[:10], [s[:2] for s in samples]
    criterion5 = [(s, 10**6) for s in rationals] + [(s, 50) for s in quadratics]
    crosscheck = [(s, workloads.FULL.cross_depth) for s in cross]
    decimals = [(s, 10**6) for s in decimals]
    deep = [(s, size.depth) for s in workloads.build_deep(seed, size)]
    calls = [call.argv for call in workloads.build_cli(seed, workloads.FULL)]
    if tiny:
        calls = calls[:20]
    boundary, rng = [], random.Random(11)
    for m in (5, 40) if tiny else (5, 40, 400, 2000):
        quotients = boundary_quotients(rng, m)
        for delta in BOUNDARY_DELTAS:
            x0 = boundary_theta(quotients, delta)
            boundary += [(RationalSpec(x0), 10**6), (make_decimal(x0, 6 * m + 400), 10**6)]
    return {
        "criterion5": criterion5,
        "crosscheck": crosscheck,
        "decimals": decimals,
        "ties": [(parse_real(t), n) for t in TIES for n in (2, 3, 10, 183)],
        "deep": deep,
        "sequences": criterion5 + crosscheck,
        "expansions": criterion5 + crosscheck + decimals + deep,
        "cli": [(tuple(argv),) for argv in calls + ARGUMENT_REJECTIONS + [["--help"]]],
        "cli_csv": [(tuple(argv) + ("--format", "csv"),) for argv in calls],
        "long_decimals": [(s, 10**6) for s in long_decimals + sum(samples, [])],
        "boundary": boundary,
    }


def sequence_record(spec, depth: int) -> tuple:
    """reduce_theta, the complete sequence's (p, q) and its envelope flags."""
    seq = complete_sequence(spec, depth - 1)
    return reduce_theta(spec), [(v.p, v.q) for v in seq], flags_via_envelope(seq).flags


def expansion_record(spec, depth: int) -> tuple:
    """cf_expand on the reduced input, and the (lo, hi) pair that tail_value returns
    at its first, middle and last index."""
    x0 = reduce_theta(spec)[1]
    pq = cf_expand(x0, depth)
    last = len(pq.quotients) - 1  # -1 when no quotient is certified
    return pq, [tail_value(x0, pq, n) for n in (min(0, last), last // 2, last)]


def cli_record(argv: tuple) -> tuple:
    """Exit code, standard output and standard error of `cli.main(argv)`.

    `workloads.invoke` makes the same call but keeps no standard error.
    argparse wraps help to the terminal width, read from COLUMNS at call
    time, so the width is pinned for the call.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse's rejections and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


RECORDS = {
    "sequences": sequence_record, "expansions": expansion_record,
    "cli": cli_record, "cli_csv": cli_record,
}


def digest(cases, record=criterion_scan) -> str:
    """SHA-256 of `repr(record(*case))` over the cases, in order."""
    h = hashlib.sha256()
    for case in cases:
        h.update(repr(record(*case)).encode())
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
            record = RECORDS.get(name, criterion_scan)
            print(f"{name} {len(cases)} {digest(cases, record)}", flush=True)
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
