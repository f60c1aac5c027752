"""The CPU's speed while the benchmark runs, sampled with a reference chunk.

On a shared virtual machine the speed of one vCPU was seen to drift by up to
2x, in phases from under a second to minutes, so a plain wall time moves by
20% between runs of the same code. A SpeedSampler times a fixed chunk of pure
Python (no library call) on a SIGALRM every PERIOD_S while the workload runs.
A time at reference speed is a wall time scaled by REF_S / the mean chunk time
sampled over it: what it would have been on a CPU that runs the chunk in
REF_S. Sampling inside the ops themselves, not between them, is what makes
the chunk track the speed an op saw; the chunk's own time is taken back out
of every op it interrupted.
"""

import gc
import signal
from array import array
from bisect import bisect_left
from time import perf_counter

REF_S = 0.001  # the reference chunk's time on the nominal CPU
PERIOD_S = 0.05  # between two samples: about 2% of the CPU
WINDOW_S = 0.2  # a span shorter than this is judged by the samples of the last WINDOW_S


def reference_chunk() -> int:
    """A fixed mix of small-int, tuple, sort, set and dict work; about 1 ms."""
    acc = 0
    counts: dict[int, int] = {}
    for i in range(150):
        t = tuple((i * j) % 97 for j in range(8))
        s = sorted(t)
        counts[t[1]] = counts.get(t[1], 0) + s[3]
        acc += sum(x for x in t if x & 1)
    for n in range(40):
        beads = {i * 3 + n % 5 for i in range(20)} | {n % 7, n % 11}
        runners: dict[int, list[int]] = {}
        for b in sorted(beads, reverse=True):
            q, r = divmod(b, 5)
            runners.setdefault(r, []).append(q)
        acc += max(max(v) for v in runners.values())
    return acc + len(counts)


class SpeedSampler:
    """Context manager: samples the reference chunk's time until it exits."""

    def __init__(self):
        self.starts = array("d")
        self.times = array("d")
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self._sample()  # so that every span has a sample at or before it
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self) -> None:
        # With the collector off, the library's heap cannot slow the yardstick.
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        reference_chunk()
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.times.append(t1 - t0)

    def busy(self, start: float, end: float) -> float:
        """Time spent sampling between `start` and `end`."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        return sum(self.times[lo:hi])

    def ref(self, start: float, end: float) -> float:
        """Mean chunk time over [start, end], widened back to WINDOW_S; the
        last sample before it when none falls inside."""
        lo, hi = bisect_left(self.starts, min(start, end - WINDOW_S)), bisect_left(self.starts, end)
        if lo == hi:
            lo = max(hi - 1, 0)
            hi = lo + 1
        return sum(self.times[lo:hi]) / (hi - lo)

    def scale(self, start: float, end: float) -> float:
        """Factor from a wall time over [start, end] to reference speed."""
        return REF_S / self.ref(start, end)
