"""Machine-speed calibration: a fixed kernel timed between the ops of a run.

The host the baseline was taken on is a shared VM whose speed drifts by up
to half between runs of the same code, in CPU time as well as wall time,
because what the host's other tenants do changes how fast its cores run.
The kernel below is the benchmark's own code (it never calls the library):
`Pace.tick` runs it between ops, outside their timing, about every
SPACING_S of CPU time, and `Pace.scale` turns an op's measured time into
milliseconds at reference speed, the speed at which one kernel run takes
KERNEL_REF_MS.  Each op is scaled by the median of the kernel runs nearest
to it, so a change of machine speed in the middle of a run is followed too.
A change to the library moves op times and leaves the kernel alone, so it
shows in the scaled times in full.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import process_time

KERNEL_REF_MS = 1.0  # reference speed: one kernel run takes this long
SPACING_S = 0.05  # CPU time between kernel runs: costs under 2% of a run
WINDOW = 5  # kernel runs on each side of an op that set its scale


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def key(self) -> tuple[int, int]:
        return self.b, self.a


_BIG_N = 3**12000 + 7  # about 19,000 bits, the size of a deep_decimal window
_BIG_D = 5**8000 + 11


def kernel() -> int:
    """About a millisecond of the kinds of work the library does, always the same.

    Euclid on a pair of 500-bit integers and a few steps of it on 19,000-bit
    ones, Fraction sums, small objects, a sort, a dict and string formatting.
    """
    n, d = 7**180 + 12345, 3**250 + 678
    quotients = []
    while d:
        q, r = divmod(n, d)
        quotients.append(q)
        n, d = d, r
    n, d = _BIG_N, _BIG_D
    for _ in range(40):
        q, r = divmod(n, d)
        quotients.append(q.bit_length())
        n, d = d, r + 3 * q
    x = Fraction(0)
    for i, q in enumerate(quotients[:60], 1):
        x += Fraction(q % 97 + 1, i * i + 1)
    pairs = [_Pair(i * 7919 % 1009, q % 1013) for i, q in enumerate(quotients)]
    pairs.sort(key=_Pair.key)
    table: dict[int, int] = {}
    for pair in pairs:
        table[pair.a % 31] = table.get(pair.a % 31, 0) + pair.b
    text = ",".join(f"{k}:{v}" for k, v in sorted(table.items()))
    return len(text) + x.numerator % 7


def kernel_seconds() -> float:
    start = process_time()
    kernel()
    return process_time() - start


class Pace:
    """Kernel runs interleaved with a run's ops, and the scale they give."""

    def __init__(self):
        self.samples: list[float] = []  # CPU seconds of each kernel run
        self.spent = 0.0  # CPU seconds spent in kernel runs, to leave out of busy time
        self._due = 0.0

    def tick(self) -> int:
        """Run the kernel if it is due; return the index of the latest run."""
        now = process_time()
        if now >= self._due:
            took = kernel_seconds()
            self.samples.append(took)
            self.spent += took
            self._due = process_time() + SPACING_S
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Reference-speed factor for an op followed by kernel run `index`."""
        near = self.samples[max(0, index - WINDOW) : index + WINDOW + 1]
        return KERNEL_REF_MS / (1000 * statistics.median(near))
