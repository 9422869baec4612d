"""Operation timings corrected for the host's drifting speed.

The machines this benchmark runs on share their cores with other work, and
a fixed piece of pure-Python code can take anywhere from one to two times
its best time, in phases that last from a fraction of a second to tens of
seconds. Such drift swamps the differences a benchmark is meant to show.
The meter therefore times a fixed reference kernel of about a millisecond
every quarter of a second, from a timer signal, so that long operations
are sampled while they run too. Each operation's wall time, less the
kernel runs inside it, is scaled by the kernel's nominal time over its
mean time in the samples inside the operation and the two around it. A
program change that makes an operation faster or slower still shows in
full; the host's phases largely cancel.

A subprocess's time follows the host's speed at starting processes (exec,
file system, imports), which drifts apart from the kernel's: over 90 s of
alternating runs, a CLI call's time correlated 0.82 with a bare
interpreter's start-up and 0.01 with the kernel. Subprocesses are
therefore scaled by a bare interpreter started just before each of them.
"""

from __future__ import annotations

import bisect
import random
import signal
from time import perf_counter

# The kernel's time on an unloaded core of the reference machine (2 GHz
# Xeon, CPython 3.11). It only sets the scale of the reported seconds.
NOMINAL_S = 0.0006
INTERVAL_S = 0.25
# A bare interpreter's start-up (`python3 -c pass`) on the same machine;
# it only sets the scale of the times `startup_scaled` gives.
STARTUP_NOMINAL_S = 0.06

_rng = random.Random(7)
_DATA = [_rng.randrange(1000) for _ in range(600)]


def _kernel() -> int:
    # Dict updates, tuple keys, short sorts, calls: the mix the analysis runs.
    counts: dict = {}
    acc = 0
    for i, x in enumerate(_DATA):
        key = (x, i & 7)
        counts[key] = counts.get(key, 0) + 1
        acc += len(sorted(_DATA[i:i + 8]))
    return acc + len(counts)


def reference_seconds() -> float:
    """Best of three back-to-back runs of the kernel: warm, uninterrupted."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


class Meter:
    """Kernel samples every INTERVAL_S from SIGALRM, and on request."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.refs: list[float] = []
        self._busy = False
        self.sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def sample(self) -> None:
        # The timer may fire during a requested sample; samples must not nest.
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        self.refs.append(reference_seconds())
        self.starts.append(start)
        self.ends.append(perf_counter())
        self._busy = False

    @staticmethod
    def stop(start: float) -> tuple[float, float]:
        return (start, perf_counter())

    def close(self) -> None:
        """Stop the timer and take the closing sample, so that the last operation is bracketed."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()

    def scaled(self, span: tuple[float, float]) -> float:
        """Wall time of a (start, end) span at the kernel's nominal speed.

        A sample runs in the handler of the timer signal, between two
        bytecodes of the interrupted code, so it lies wholly inside or
        wholly outside the span. Call after `close`.
        """
        start, end = span
        before = max(0, bisect.bisect_right(self.ends, start) - 1)
        after = min(bisect.bisect_left(self.starts, end), len(self.refs) - 1)
        inside = sum(self.ends[i] - self.starts[i] for i in range(before + 1, after))
        refs = self.refs[before:after + 1]
        return (end - start - inside) * NOMINAL_S * len(refs) / sum(refs)


def startup_scaled(span: tuple[float, float], bare: tuple[float, float]) -> float:
    """Wall time of a subprocess at the nominal start-up speed.

    `bare` is the span of a bare interpreter started just before it.
    """
    return (span[1] - span[0]) * STARTUP_NOMINAL_S / (bare[1] - bare[0])
