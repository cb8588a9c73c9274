"""A fixed reference workload that the benchmark times next to every
operation.

The host is shared: for stretches of seconds to minutes, other tenants slow
this process by up to 2x, and the slowdown drifts from run to run. The
program's time divided by the time of this loop, taken right before and
right after each operation (and each set-up), cancels most of that. The loop is the
benchmark's own code and never changes with the program, so a faster
program still reads as a smaller ratio. It mixes what the program spends
its time on: interpreted arithmetic and dict lookups, a binary heap, small
numpy calls, and one larger numpy sort.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

_SMALL = np.linspace(0.0, 1.0, 33)
_LARGE = np.arange(8192.0)


def _work() -> float:
    acc, table, heap = 0.0, {}, []
    for i in range(3000):
        acc += (i * 0.5) % 7.0
        table[i & 63] = acc
        heapq.heappush(heap, ((i * 7919) % 1000 / 1000.0, i))
        if len(heap) > 24:
            acc += heapq.heappop(heap)[0]
        if i % 8 == 0:
            x = _SMALL * (i + 1.0)
            acc += float(np.searchsorted(x, 0.5 * i)) + float(x[-1])
    b = _LARGE
    for _ in range(12):
        b = np.sort(b[::-1] * 1.0001)
    return acc + float(b[0])


def seconds() -> float:
    """Wall time of one pass of the reference loop (a few milliseconds)."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
