"""The host's speed, from a fixed reference unit of work.

The benchmark runs on shared hosts whose speed drifts by tens of percent
(and between hosts by more) over minutes.  A pass's host seconds
therefore measure the host as much as the program.  Each pass times a
fixed unit of work that does not touch the ``repro`` package, right
before and right after its timed call, in as many processes at once as
the pass runs, and reports its times in
*reference seconds*: host seconds × ``REFERENCE_UNIT_S`` ÷ the unit's
time.  A change to ``repro`` moves reference seconds as it moves host
seconds; a slower or faster host moves both the pass and the unit and
cancels out.

The unit is interpreted object, dict and list work, what the figure
pipeline spends most of its time on.  Of the candidates tried (this
unit, a numpy sort, numpy gathers over 16 MiB), its speed tracked the
speed of trace generation and simulation best.  It must never change:
a change rescales every reference-second figure.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time

#: Seconds of one unit on the host the benchmark was tuned on (2-vCPU
#: x86-64 KVM guest, Python 3.11.7), so that reference seconds read close
#: to host seconds there.
REFERENCE_UNIT_S = 0.0230

#: Host seconds of units timed at each end of a pass.
WINDOW_S = 1.0


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, nxt) -> None:
        self.key = key
        self.value = value
        self.next = nxt


def unit() -> int:
    """One fixed unit of work; returns a checksum so nothing is elided."""
    index = {}
    head = None
    acc = 0
    for i in range(20000):
        key = (i * 2654435761) & 0xFFFFF
        head = _Node(key, i, head)
        index[key] = head
        acc ^= index.get((i * 40503) & 0xFFFFF, head).value
    chain = []
    while head is not None:
        chain.append(head.key)
        head = head.next
    chain.sort()
    return acc + chain[len(chain) // 2]


def unit_seconds(processes: int = 1) -> float:
    """Mean host seconds of one unit over about ``WINDOW_S`` seconds, run
    in *processes* processes at once (a host is slower with all its CPUs
    busy).  A mean is a throughput, so that a host that time-slices the
    process slows the units as it slows the pass."""
    if processes == 1:
        return _window()
    with multiprocessing.get_context("fork").Pool(processes) as pool:
        return statistics.mean(pool.starmap(_window, [()] * processes))


def _window() -> float:
    unit()  # warm-up, not timed
    units = 0
    begun = time.perf_counter()
    while True:
        unit()
        units += 1
        elapsed = time.perf_counter() - begun
        if elapsed >= WINDOW_S:
            return elapsed / units
