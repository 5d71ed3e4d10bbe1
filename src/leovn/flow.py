"""Maximum flow on networks with integer capacities.

A solve is Edmonds–Karp: breadth-first shortest augmenting paths on a
residual graph held in plain Python lists.  Residual arcs ``2i`` and
``2i + 1`` are twins: entry ``i`` of the network runs tail -> head on arc
``2i`` and head -> tail on arc ``2i + 1``, so pushing ``f`` along arc ``a``
is ``res[a] -= f; res[a ^ 1] += f``.  A directed arc starts with a
0-capacity twin; an undirected edge is one twin pair with its capacity both
ways.  Capacities and flows are exact Python ints, and the module imports
no scipy (``verify`` holds scipy's ``maximum_flow`` as the oracle).

The class keeps the names ``add_arc`` and ``solve`` and the alias
``MinCostMaxFlow``: ``perfbench/child.py`` traces ``MinCostMaxFlow.add_arc``
and ``MinCostMaxFlow.solve`` by name in its ``SPECS``, and its
``flow.solve.augmentations`` counter reads ``solve``'s ``result[0]``
(ROADMAP item 1 moves those traces off this module).
"""
from __future__ import annotations

import numpy as np


class MaxFlowNetwork:
    """Flow network; add arcs and edges, then solve(source, sink)."""

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        # one entry per add_arc call or add_edges edge, in insertion order:
        # ends[2i], ends[2i + 1] = tail, head; res[2i], res[2i + 1] = the
        # capacity forward and back
        self._ends: list[int] = []
        self._res: list[int] = []

    def add_arc(self, src: int, dst: int, cap: int) -> None:
        """Add one directed arc of capacity ``cap``."""
        self._ends += (src, dst)
        self._res += (cap, 0)

    def add_edges(self, a, b, cap) -> None:
        """Undirected capacity ``cap`` on each edge (a[i], b[i]), shared by
        both directions.  ``cap`` broadcasts against ``a``."""
        a, b = np.asarray(a), np.asarray(b)
        cap = np.broadcast_to(cap, a.shape)
        self._ends += np.stack([a, b], axis=-1).ravel().tolist()
        self._res += np.stack([cap, cap], axis=-1).ravel().tolist()

    def solve(self, source: int, sink: int) -> tuple[int, list[int]]:
        """Return (max flow value, per-entry flows in insertion order).

        A directed arc's flow lies in 0..cap; an undirected edge's is signed,
        positive from a[i] to b[i].
        """
        if source == sink:
            raise ValueError("source and sink must differ")
        n, ends, res = self.num_nodes, self._ends, self._res[:]
        # adjacency: (arc, head) pairs of every residual arc, grouped by tail
        tails = np.array(ends, dtype=np.int64)
        order = np.argsort(tails, kind="stable")
        bounds = np.searchsorted(tails[order], np.arange(n + 1)).tolist()
        pairs = list(zip(order.tolist(), tails[order ^ 1].tolist()))
        adj = [pairs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        value = 0
        while True:
            pred = [-1] * n            # residual arc that reached each node
            pred[source] = -2
            queue = [source]
            for u in queue:            # grows while it is read: a BFS
                for a, v in adj[u]:
                    if pred[v] == -1 and res[a]:
                        pred[v] = a
                        queue.append(v)
                if pred[sink] != -1:
                    break
            else:
                break
            path, v = [], sink
            while v != source:
                a = pred[v]
                path.append(a)
                v = ends[a]
            f = min(res[a] for a in path)
            for a in path:
                res[a] -= f
                res[a ^ 1] += f
            value += f
        cap = self._res
        return value, [c - r for c, r in zip(cap[::2], res[::2])]


MinCostMaxFlow = MaxFlowNetwork   # perfbench's traced name (see module docstring)
