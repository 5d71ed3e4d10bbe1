"""Maximum flow on networks with integer capacities.

A solve is Boykov–Kolmogorov (IEEE TPAMI 26(9), 2004): a source tree and a
sink tree grow until they meet, the path through them is augmented, and
only the tree parts that the augmentation cut off are repaired.  It
replaced Edmonds–Karp, whose fresh breadth-first search per flow unit
re-visited most of the 18x36 ISL grid each time.

Residual arcs ``2i`` and ``2i + 1`` are twins: entry ``i`` runs tail ->
head on arc ``2i`` and back on ``2i + 1``, so pushing ``f`` along arc ``a``
is ``res[a] -= f; res[a ^ 1] += f``.  A directed arc has a 0-capacity twin;
an undirected edge is one twin pair with its capacity both ways.  The
layout stays because the sink tree grows along ``a ^ 1`` where the source
tree grows along ``a``, so one code path serves both.  Capacities and
flows are exact Python ints, and scipy is not imported: its
``maximum_flow`` is an oracle of ``verify.max_flow_failures``, the one
comparison of a solve with its oracles.

The names ``add_arc`` and ``solve`` and the alias ``MinCostMaxFlow`` stay:
``perfbench/child.py`` traces them by name, and its
``flow.solve.augmentations`` counter reads ``solve``'s ``result[0]``
(ROADMAP item 1 moves those traces off this module).
"""
from __future__ import annotations

from collections import deque

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
        positive from a[i] to b[i].  Raises ``RuntimeError`` if the search
        trees are ever inconsistent (a path with no residual capacity, or a
        walk to a root longer than the network), rather than loop.
        """
        if source == sink:
            raise ValueError("source and sink must differ")
        n, ends, res = self.num_nodes, self._ends, self._res[:]
        # adjacency: (arc, head) of every residual arc, grouped by tail
        adj = [[] for _ in range(n)]
        for a, u, v in zip(range(0, len(ends), 2), ends[::2], ends[1::2]):
            adj[u].append((a, v))
            adj[v].append((a + 1, u))
        # tree[v] is 0 in the source tree, 1 in the sink tree, -1 free; par[v]
        # is an arc from v's parent to v, -1 for an orphan, -2 at a root.  For
        # t = tree[v], arc a ^ t runs the tree's way (parent -> child from the
        # source, child -> parent to the sink): v's tree arc is par[v] ^ t.
        tree, par, stamp = [-1] * n, [-1] * n, [0] * n
        tree[source], tree[sink] = 0, 1
        par[source] = par[sink] = -2
        active, value, time = deque((source, sink)), 0, 0
        while active:                   # grow: the front node claims free ones
            u = active[0]
            t = tree[u]
            if t < 0:
                active.popleft()
                continue
            for a, v in adj[u]:
                if res[a ^ t]:
                    if tree[v] < 0:
                        tree[v], par[v] = t, a
                        active.append(v)
                    elif tree[v] != t:
                        break
            else:
                active.popleft()
                continue
            # the trees meet on arc a ^ t; u stays at the front.  path holds
            # (arc, child whose tree arc it is), from the meeting arc up
            path = [(a ^ t, -1)]
            for s, v in ((0, u), (1, v)) if t == 0 else ((0, v), (1, u)):
                while par[v] >= 0:
                    path.append((par[v] ^ s, v))
                    v = ends[par[v]]
                    if len(path) > n:
                        raise RuntimeError("tree walk longer than num_nodes")
            f = min(res[a] for a, _ in path)
            if not f:
                raise RuntimeError("augmenting path with bottleneck 0")
            value += f
            orphans = []
            for a, v in reversed(path):   # rootward orphans first
                res[a] -= f
                res[a ^ 1] += f
                if not res[a] and v >= 0:
                    par[v] = -1
                    orphans.append(v)
            # adopt each orphan under a tree neighbour whose root is the
            # terminal.  stamp[v] == time: v was found rooted since this
            # augmentation, so walks stop there.  An orphan with no such
            # neighbour is freed and its children become orphans
            time += 1
            for o in orphans:           # grows while it is read
                t = tree[o]
                for a, q in adj[o]:
                    if tree[q] == t and res[a ^ 1 ^ t]:
                        walk, v = [], q
                        while stamp[v] != time and par[v] >= 0:
                            walk.append(v)
                            v = ends[par[v]]
                            if len(walk) > n:
                                raise RuntimeError("tree walk longer than num_nodes")
                        if stamp[v] == time or par[v] == -2:
                            for v in walk:
                                stamp[v] = time
                            par[o], stamp[o] = a ^ 1, time
                            break
                else:
                    tree[o] = -1
                    for a, q in adj[o]:
                        if tree[q] == t:
                            if res[a ^ 1 ^ t]:
                                active.append(q)
                            if par[q] >= 0 and ends[par[q]] == o:
                                par[q] = -1
                                orphans.append(q)
        cap = self._res
        return value, [c - r for c, r in zip(cap[::2], res[::2])]


MinCostMaxFlow = MaxFlowNetwork   # perfbench's traced name (see module docstring)
