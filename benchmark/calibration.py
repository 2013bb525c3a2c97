"""Machine-speed calibration: a fixed pure-Python kernel timed between problems.

The benchmark runs on shared virtual CPUs whose speed drifts by up to about
1.5x, for seconds and sometimes minutes at a time, with no steal time to show
for it.  Wall-clock times taken minutes apart then differ by more than a code
change would.  The kernel below never changes and never touches wittzeta, so
its time follows the machine's speed alone.  It is the ghost recurrence of
a Witt vector on plain ints: interpreter loops over integer products, the
bulk of the library's own work.  Of the kernels tried (this one, operator
dispatch on small objects, 3000-bit products, dict traffic, random reads
over a 1M-entry list, allocation of small lists), this one's time followed
the workloads' times most closely overall.

``Speedometer`` times the kernel every ``INTERVAL_S`` seconds between problems.
A span of wall time is rescaled by ``REF_S`` over the median kernel time
sampled within ``HALO_S`` seconds of it, so a reported second is a reference
second: a second on a machine on which one kernel run takes exactly ``REF_S``
(about this kernel's time on a 2.1 GHz Xeon vCPU in its fast state).
"""

from __future__ import annotations

import array
import bisect
import random
import statistics
import time

REF_S = 0.0015
INTERVAL_S = 0.05
HALO_S = 1.0
# Fewest kernel samples a rescaling factor is taken over.
MIN_SAMPLES = 5

_rng = random.Random("wittzeta-benchmark-calibration")
_SMALL = [_rng.randint(-10, 10) for _ in range(40)]


def kernel() -> int:
    """Fixed work of about REF_S; returns a checksum so nothing is skipped."""
    check = 0
    for _ in range(13):
        ghosts: list[int] = []
        for n in range(1, len(_SMALL) + 1):
            acc = n * _SMALL[n - 1]
            for i in range(1, n):
                acc -= _SMALL[i - 1] * ghosts[n - 1 - i]
            ghosts.append(acc)
        check ^= ghosts[-1]
    return check


class Speedometer:
    """Kernel times, sampled between problems, and rescaling factors from them."""

    def __init__(self) -> None:
        self.at = array.array("d")
        self.seconds = array.array("d")
        self.last = float("-inf")
        kernel()  # the first call pays for cold caches; it is not a sample

    def sample(self) -> float:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.at.append((start + end) / 2)
        self.seconds.append(end - start)
        self.last = end
        return end - start

    def tick(self) -> None:
        """Sample if INTERVAL_S has passed since the last sample."""
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REF_S over the median kernel time within HALO_S of [start, end]."""
        lo = bisect.bisect_left(self.at, start - HALO_S)
        hi = bisect.bisect_right(self.at, end + HALO_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return REF_S / statistics.median(self.seconds[lo:hi])

    def factor_now(self) -> float:
        """REF_S over the median of three kernel samples taken now."""
        return REF_S / statistics.median(self.sample() for _ in range(3))

    def median_s(self) -> float:
        return statistics.median(self.seconds)
