"""A fixed piece of work that times the machine, not the program.

The benchmark runs on shared machines whose cores slow down and speed up by
a third or more for minutes at a time.  Every child process times
``work()`` right before and right after its CLI call, and ``run.py`` scales
each operation's times by ``REFERENCE_S`` over the mean calibration time of
the operation: the times are then seconds on a machine where ``work()``
takes ``REFERENCE_S``.  ``work()`` uses nothing from ``leovn``, so a change
to the program moves the scaled times as much as the raw ones.

The mix follows the program's: Python loops over small objects, dicts and
sets, ``math`` calls, a heap-driven shortest-path search and small numpy
array operations.
"""
import gc
import heapq
import math
import time

import numpy as np

# About the median of work() on the 2-core shared x86-64 machine the bounds
# were set on.
REFERENCE_S = 0.1
SIDE = 30


def work() -> float:
    """A deterministic mix of the program's kinds of work; returns a checksum."""
    n = SIDE * SIDE
    pos = [(math.cos(0.37 * i), math.sin(0.37 * i), math.sin(0.11 * i)) for i in range(n)]
    adj: dict[int, list[tuple[int, float]]] = {i: [] for i in range(n)}
    for i in range(n):
        r, c = divmod(i, SIDE)
        for j in (r * SIDE + (c + 1) % SIDE, ((r + 1) % SIDE) * SIDE + c):
            w = math.dist(pos[i], pos[j]) + 1e-3
            adj[i].append((j, w))
            adj[j].append((i, w))
    total = 0.0
    for source in range(0, n, n // 6):
        dist = {source: 0.0}
        done: set[int] = set()
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in adj[u]:
                if d + w < dist.get(v, math.inf):
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
        total += sum(dist.values())
    xyz = np.array(pos)
    for _ in range(40):
        gaps = np.linalg.norm(xyz[:, None, :] - xyz[None, :64, :], axis=2)
        total += float(np.sort(gaps, axis=1)[:, 1].sum())
        xyz = np.roll(xyz, 1, axis=0)
    return total


def timed() -> float:
    """Wall seconds of one ``work()`` call, with the garbage collector off so
    that the objects the program left alive do not count."""
    gc.disable()
    try:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start
    finally:
        gc.enable()
