"""How fast the machine is running around each op, measured in-pass.

On a shared VM the same code runs up to twice as slow for stretches of
seconds to minutes while neighbours are busy, often longer than a whole run,
so neither the fastest nor the median of several passes removes it.  A pass
therefore runs a fixed small kernel right after each op, for about `DUTY` of
the op time, so kernel samples are spread evenly over the pass.  An op's
slowdown is the mean time of the `NEAREST` kernel samples taken closest to it
over `REFERENCE_NS`, about the kernel's time on the unloaded baseline machine
(2-core Xeon VM, Python 3.11); its latency is divided by that.  Set-up time
is divided by the slowdown of the warm-up samples taken right after set-up.

The kernel is the benchmark's own code, a small backtracking count over
frozensets (the kind of interpreter work the library does), so a change to
the library never changes it.  BASELINE.json records the end-to-end metrics
with and without this correction over the same ten seeds, which shows what
it buys on the machine the baseline was taken on.
"""
from __future__ import annotations

import statistics
import time
from itertools import accumulate

DUTY = 0.1
WARMUP = 50
NEAREST = 5
REFERENCE_NS = 300_000

# a 9-vertex digraph of out-degree 3; the kernel counts its walks of length 5
_ADJ = {v: frozenset(((v + 1) % 9, (v + 3) % 9, (v - 1) % 9)) for v in range(9)}


def _walks(depth: int, prev: int) -> int:
    if depth == 0:
        return 1
    return sum(_walks(depth - 1, w) for w in _ADJ[prev])


def kernel() -> int:
    """One calibration sample (about 0.3 ms unloaded), in ns."""
    t0 = time.perf_counter_ns()
    sum(_walks(5, v) for v in range(3))
    return time.perf_counter_ns() - t0


class Calibrator:
    def __init__(self):
        self.warmup = [kernel() for _ in range(WARMUP)]
        self.paid: list[tuple[int, int]] = []  # per op: kernel ns and samples run after it
        self._debt = 0.0

    def setup_slowdown(self) -> float:
        """Median warm-up sample over the reference time."""
        return statistics.median(self.warmup) / REFERENCE_NS

    def pay(self, op_ns: int) -> None:
        """Run the kernel for about DUTY of the op time just spent."""
        self._debt += DUTY * op_ns
        total = count = 0
        while self._debt > 0:
            k = kernel()
            total += k
            count += 1
            self._debt -= k
        self.paid.append((total, count))

    def slowdowns(self) -> list[float]:
        """Per op: mean time of the NEAREST kernel samples around it (the
        window of ops grows both ways until it holds that many) over the
        reference time."""
        n = len(self.paid)
        ksum = list(accumulate((s for s, _ in self.paid), initial=0))
        kcnt = list(accumulate((c for _, c in self.paid), initial=0))
        out = []
        for i in range(n):
            lo, hi = i, i + 1
            while kcnt[hi] - kcnt[lo] < NEAREST and (lo > 0 or hi < n):
                lo, hi = max(0, lo - 1), min(n, hi + 1)
            count = kcnt[hi] - kcnt[lo]
            out.append((ksum[hi] - ksum[lo]) / count / REFERENCE_NS if count else self.setup_slowdown())
        return out
