"""CPU time of the exact envelope on one untruncated sample of the paper's experiment.

    PYTHONPATH=src python scripts/envelope_depth.py [--seed 401] [--depths 1000 5000]

The sample is the first of `stats.sample_thetas(seed, 1, auto_precision_bits(5000))`
(about 19,400 bits).  For each depth the script times `flags_via_envelope`
on the sample's first `depth` minimal vectors (both window endpoints) with
`time.process_time`, and checks its decided flags against the criterion's.
"""

from __future__ import annotations

import argparse
import platform
import time

from hermite_lab import complete_sequence, flags_via_criterion, flags_via_envelope
from hermite_lab.stats import auto_precision_bits, sample_thetas


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=401)
    parser.add_argument("--depths", type=int, nargs="+", default=[1000, 5000])
    args = parser.parse_args()
    spec = sample_thetas(args.seed, 1, auto_precision_bits(5000))[0]
    print(f"python {platform.python_version()} on {platform.machine()}, seed {args.seed}")
    for depth in args.depths:
        seq = complete_sequence(spec, depth - 1)
        start = time.process_time()
        envelope = flags_via_envelope(seq)
        seconds = time.process_time() - start
        criterion = flags_via_criterion(spec, depth)
        decided = [
            (a, b) for a, b in zip(criterion.flags, envelope.flags) if None not in (a, b)
        ]
        agree = all(a == b for a, b in decided)
        print(f"depth {depth}: envelope {seconds:.2f} s, {len(decided)} decided flags, agree={agree}")


if __name__ == "__main__":
    main()
