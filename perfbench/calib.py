"""Host-speed calibration for the host-time metrics.

The benchmark shares a few cores of a host whose speed drifts: a fixed
pure-Python loop runs up to 2x slower for several seconds at a time
(measured on a 2-vCPU VM, with no steal time reported).  A run-long
average, median or minimum then mostly measures how much of the run fell
into slow phases, and a loop run only before and after a call of a
second or more misses the phases inside it.  So host time is measured in
slices of ~30 ms with a calibration loop between them, and each slice is
scaled by ``REFERENCE_S / (the loop's time next to it)``: the result is
in seconds of a reference CPU on which the loop takes ``REFERENCE_S``.
A workload is calibrated with the loop whose slowdowns track its own.

The loop lives here, not in the program, so that a change to the
program cannot move the yardstick.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
import time
from typing import Callable, Dict, List, Tuple, TypeVar

__all__ = ["REFERENCE_S", "SlicedClock"]

T = TypeVar("T")

#: entries of the table the loops read (a 64 KiB list of 224 KiB of ints)
TABLE_SIZE = 1 << 13
#: dependent reads in one loop
LOOP_READS = 4000
#: objects the mixed loop pushes through a small heap
LOOP_OBJECTS = 300
#: loop time on the reference CPU, s, per calibration loop (about its
#: fastest time on the 2-vCPU VM the bounds were set on)
REFERENCE_S = {"memory": 0.0002, "mixed": 0.0004}
#: host seconds between two calibration loops
PERIOD_S = 0.03
#: calibration loops run (and their median taken) before and after an
#: interval, for intervals shorter than one slice
EDGE_LOOPS = 3

#: a random cyclic walk over the table, fixed for every run
_TABLE: List[int] = random.Random(1).sample(range(TABLE_SIZE), TABLE_SIZE)


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight

    def score(self, x: int) -> float:
        return self.key + x * self.weight


def _memory_loop() -> int:
    """Dependent reads scattered over a table that fits the CPU's caches:
    like the simulator, it waits on memory more than it computes."""
    table, mask, j = _TABLE, TABLE_SIZE - 1, 0
    for i in range(LOOP_READS):
        j = table[(j + i) & mask]
    return j


def _mixed_loop() -> int:
    """The memory loop plus small objects through a heap and a dict, for
    code that computes as much as it waits (codec, event loop)."""
    heap: list = []
    index = {}
    for i in range(LOOP_OBJECTS):
        item = _Item(i, 0.5)
        heapq.heappush(heap, (item.score(i) % 97.0, i, item))
        index[i & 63] = item
        if len(heap) > 32:
            heapq.heappop(heap)
    return _memory_loop() + len(index)


#: Of the loops tried on the simulator (float arithmetic, objects through
#: a heap, tables of 64 KiB to 1 MiB, mixes), compute-bound ones slowed
#: down more than it in slow phases and over-corrected, and the memory
#: loop left the least spread; on wire-loopback the memory loop
#: under-corrected and the mixed one left the least.
LOOPS: Dict[str, Callable[[], int]] = {"memory": _memory_loop,
                                       "mixed": _mixed_loop}


def _timed_loop(loop: Callable[[], int]) -> Tuple[float, float]:
    """Run *loop* twice and time the second run, so the time does not
    depend on how much of the caches the measured code left to it."""
    loop()
    t0 = time.perf_counter()
    loop()
    return t0, time.perf_counter()


def loop_s(loop: Callable[[], int]) -> float:
    """Host seconds of one calibration loop."""
    t0, t1 = _timed_loop(loop)
    return t1 - t0


class SlicedClock:
    """Host time of one interval, cut into slices by an interval timer.

    Every ``PERIOD_S`` a ``SIGALRM`` handler runs the calibration loop in
    the main thread, between two bytecodes of the measured code (or while
    an event loop waits); the loop's own time is left out of the slices.
    The measured code sees nothing else, so a deterministic simulation
    stays deterministic.  One clock measures one interval."""

    def __init__(self, loop: str = "memory") -> None:
        self.loop = LOOPS[loop]
        self.reference = REFERENCE_S[loop]
        #: calibration loop times; entry j was taken before slice j
        self.cals: List[float] = []
        #: raw host seconds of each slice
        self.slices: List[float] = []
        #: (slice end, calibration start, next slice start)
        self._marks: List[Tuple[float, float, float]] = []
        self._previous = None
        self._start = 0.0

    def _on_alarm(self, signum, frame) -> None:
        paused = time.perf_counter()
        self._marks.append((paused,) + _timed_loop(self.loop))

    def _edge_loop_s(self) -> float:
        return statistics.median(loop_s(self.loop)
                                 for _ in range(EDGE_LOOPS))

    def start(self) -> None:
        self.cals.append(self._edge_loop_s())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        # a handler still pending at *end* runs after it: leave it out
        marks = [mark for mark in self._marks if mark[0] < end]
        edges = [self._start]
        edges += [t for mark in marks for t in (mark[0], mark[2])]
        edges.append(end)
        self.slices = [edges[k + 1] - edges[k]
                       for k in range(0, len(edges), 2)]
        self.cals += [t2 - t1 for _, t1, t2 in marks]
        self.cals.append(self._edge_loop_s())

    def run(self, fn: Callable[[], T]) -> T:
        self.start()
        try:
            return fn()
        finally:
            self.stop()

    @property
    def raw_s(self) -> float:
        return sum(self.slices)

    @property
    def reference_s(self) -> float:
        """The slices' time on the reference CPU: slice j is scaled by the
        median of the four loops before it and the four after it (about
        a quarter of a second), so a loop disturbed by an interrupt does
        not move it."""
        total = 0.0
        for j, took in enumerate(self.slices):
            near = statistics.median(self.cals[max(0, j - 3):j + 5])
            total += took * self.reference / near
        return total
