"""Machine speed, sampled with a fixed reference kernel around the timed work.

The virtual machines the benchmark was tuned on switch between a fast and
a slow mode, about two times slower, every few to few dozen milliseconds,
and spend from a fifth to nearly all of their time in the slow mode,
changing over seconds to minutes.  Thread CPU time moves with wall time, so
the slowdown is the processor's, not preemption.  Raw request times then
spread between runs far more than any change worth finding.  The
benchmark therefore runs a short pure-Python kernel, which never changes,
``EDGE`` times right before and right after each request, and on a thread
every ``INTERVAL_S`` during it (their time is taken off the request's).  It
scales every gated timing to a reference speed: a measured time ``t`` is
reported as ``t * REFERENCE_S / k``, where ``k`` is the mean time of those
kernel runs, leaving out runs that were preempted.  Run the process on one
processor (``harness.pin_to_one_cpu``), so that the kernel runs where the
timed work does.  A slower program keeps its slowdown; a slower machine
slows the kernel too and cancels out.  The unit stays ``ms`` (or ``s``):
time on a machine where the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

# the kernel's time on the machine the benchmark was tuned on (2 vCPUs,
# Python 3.11) in its fast mode, so that scaled times read as times there
REFERENCE_S = 0.0006
KERNEL_STEPS = 400
# kernel runs taken right before and right after each timed piece of work
EDGE = 2
# the interval of the kernel runs on a thread during a request
INTERVAL_S = 0.02
# a kernel run over this many times the median of its neighbours was
# preempted or interrupted, and is left out of the mean
OUTLIER = 2.5


@dataclass(frozen=True)
class _Cell:
    index: int
    key: tuple


def kernel() -> int:
    """Interpreter work of the kinds smckit does: calls, tuples, dicts, frozen dataclasses, sorting."""
    counts: dict = {}
    kept = []
    for i in range(KERNEL_STEPS):
        key = (i & 63, i % 7)
        counts[key] = counts.get(key, 0) + 1
        cell = _Cell(i, key)
        kept.append(cell)
        if cell.key in counts:
            kept.append(str(i))
    ranked = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    return len(kept) + len(ranked)


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.costs: list[float] = []

    def _run(self) -> None:
        """Time one kernel run, with the collector off so that the program's heap does not count."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(t0)
        self.costs.append(t1 - t0)

    def edge(self) -> None:
        for _ in range(EDGE):
            self._run()

    @contextmanager
    def during(self):
        """Run the kernel every ``INTERVAL_S`` on a thread while the block runs."""
        stop = threading.Event()

        def loop():
            while not stop.wait(INTERVAL_S):
                self._run()

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def taken(self, t0: float, t1: float) -> float:
        """Kernel time that started within ``[t0, t1]``."""
        return sum(self.costs[bisect.bisect_left(self.starts, t0):bisect.bisect_right(self.starts, t1)])

    def scale(self, t0: float, t1: float) -> float:
        """``REFERENCE_S`` over the mean kernel time of the runs within
        ``[t0, t1]`` and the ``EDGE`` runs on either side, outliers left out."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_right(self.starts, t1)
        near = self.costs[max(0, i - EDGE):j + EDGE]
        if not near:
            return 1.0
        limit = OUTLIER * statistics.median(near)
        return REFERENCE_S / statistics.fmean(c for c in near if c <= limit)

    def median_cost(self) -> float:
        return statistics.median(self.costs) if self.costs else 0.0
