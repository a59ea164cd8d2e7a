"""Host-speed calibration: a fixed loop that owes nothing to the program.

The host this benchmark was built on is shared with other tenants, and
its speed drifts by 20-30 % within seconds. Each unit's work time is
therefore measured between two passes of this loop, and reported scaled to
a reference host on which the loop takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / mean(loop before, loop after)

The loop does what the simulator spends its time on — small-object
allocation, pointer chasing over a working set of a few thousand objects,
heap pushes and pops, tuple-keyed dict churn, small pickles — with the
garbage collector off, so the program's heap cannot slow the yardstick.
Of the loops tried, this one tracked the simulator's speed best: on the
host ``RESULTS.md`` names it brought the run-to-run spread of
``host_us_per_req`` from 0.15-0.29 unscaled to 0.04-0.06. A change to the
program moves the measured time but not the loop, so it moves the
reported value by the same factor.
"""

from __future__ import annotations

import gc
import heapq
import pickle
import time

#: Loop time on the reference host (the host RESULTS.md names).
REFERENCE_S = 0.07
_ITERATIONS = 50_000
_SLOTS = 8192


class _Node:
    __slots__ = ("seq", "prev", "tag")

    def __init__(self, seq: int, prev: "_Node | None", tag: tuple[str, int]) -> None:
        self.seq = seq
        self.prev = prev
        self.tag = tag


def loop_s() -> float:
    """Host seconds for one pass of the calibration loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        heap: list[tuple[int, int, _Node]] = []
        table: dict[tuple[int, int], _Node | None] = {}
        slots: list[_Node | None] = [None] * _SLOTS
        for i in range(_ITERATIONS):
            j = (i * 40503) & (_SLOTS - 1)
            node = _Node(i, slots[j], ("m", j))
            slots[j] = node
            heapq.heappush(heap, (j, i, node))
            if len(heap) > 2048:
                heapq.heappop(heap)
            table[(j, i & 3)] = node.prev
            if not i & 1023:
                pickle.dumps(heap[:32])
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, loop: float) -> float:
    """``seconds`` measured next to a loop of ``loop`` s, on the reference host."""
    return seconds * REFERENCE_S / loop
