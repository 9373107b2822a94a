"""CPU time of two flag oracles on one untruncated sample of the paper's experiment.

    PYTHONPATH=src python scripts/envelope_depth.py [--seed 401] [--depths 1000 5000]
        [--scan-depths 50 100]

The sample is the first of `stats.sample_thetas(seed, 1, auto_precision_bits(5000))`
(about 19,400 bits).  For each of `--depths` the script times
`flags_via_envelope` on the sample's first `depth` minimal vectors (both
window endpoints), and for each of `--scan-depths` it times
the whole `flags_via_delta_scan(sample, depth)` call (it builds its own
sequence and envelope), both with `time.process_time`.  Each oracle's
decided flags are checked against the criterion's; the script exits 1 if any
of them disagrees.  `--scan-depths 5000`, the paper's depth, times a scan of
about a minute: 53-66 s of CPU on a 2-core Intel Xeon under CPython 3.11.7.
"""

from __future__ import annotations

import argparse
import platform
import sys
import time

from hermite_lab import (
    complete_sequence,
    flags_via_criterion,
    flags_via_delta_scan,
    flags_via_envelope,
)
from hermite_lab.stats import auto_precision_bits, sample_thetas


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=401)
    parser.add_argument("--depths", type=int, nargs="+", default=[1000, 5000])
    parser.add_argument("--scan-depths", type=int, nargs="+", default=[50, 100])
    args = parser.parse_args()
    spec = sample_thetas(args.seed, 1, auto_precision_bits(5000))[0]
    print(f"python {platform.python_version()} on {platform.machine()}, seed {args.seed}")
    runs = [("envelope", depth) for depth in args.depths]
    runs += [("delta scan", depth) for depth in args.scan_depths]
    all_agree = True
    for oracle, depth in runs:
        if oracle == "envelope":
            seq = complete_sequence(spec, depth - 1)
            start = time.process_time()
            flags = flags_via_envelope(seq)
        else:
            start = time.process_time()
            flags = flags_via_delta_scan(spec, depth)
        seconds = time.process_time() - start
        criterion = flags_via_criterion(spec, depth)
        decided = [(a, b) for a, b in zip(criterion.flags, flags.flags) if None not in (a, b)]
        agree = all(a == b for a, b in decided)
        all_agree &= agree
        print(f"depth {depth}: {oracle} {seconds:.2f} s, {len(decided)} decided flags, agree={agree}")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
