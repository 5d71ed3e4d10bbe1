"""Maximum flow on directed networks with integer arc capacities.

A solve is one ``scipy.sparse.csgraph.maximum_flow`` call on an int32 CSR
matrix of the network's arcs, parallel arcs summed into one entry.  scipy is
imported inside ``solve``, so importing this module (and the CLI) loads no
scipy module.

The class keeps the names ``add_arc`` and ``solve`` and the alias
``MinCostMaxFlow``: ``perfbench/child.py`` traces ``MinCostMaxFlow.add_arc``
and ``MinCostMaxFlow.solve`` by name in its ``SPECS``, and its
``flow.solve.augmentations`` counter reads ``solve``'s ``result[0]``
(ROADMAP item 1 moves those traces off this module).
"""
from __future__ import annotations

import numpy as np


class MaxFlowNetwork:
    """Directed flow network; add arcs, then solve(source, sink)."""

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self._arcs: list[tuple[int, int, int]] = []   # add_arc's (tail, head, cap)
        self._edges: list[np.ndarray] = []            # add_edges' (3, k) blocks

    def add_arc(self, src: int, dst: int, cap: int) -> None:
        """Add one directed arc of capacity ``cap``."""
        self._arcs.append((src, dst, cap))

    def add_edges(self, a, b, cap) -> None:
        """Undirected capacity on each edge (a[i], b[i]): antiparallel arcs of
        ``cap`` each.  ``cap`` broadcasts against ``a``."""
        a, b = np.asarray(a), np.asarray(b)
        cap = np.broadcast_to(cap, a.shape)
        self._edges.append(np.array([np.r_[a, b], np.r_[b, a], np.r_[cap, cap]]))

    def solve(self, source: int, sink: int):
        """Return (max flow value, flow matrix).

        The flow matrix is scipy's skew-symmetric ``(num_nodes, num_nodes)``
        CSR matrix: entry (u, v) is the net flow from u to v.
        """
        from scipy.sparse import csr_matrix          # slow import; keep it off CLI start-up
        from scipy.sparse.csgraph import maximum_flow
        n = self.num_nodes
        tail, head, cap = np.concatenate(
            [np.array(self._arcs, dtype=np.int64).reshape(-1, 3).T, *self._edges], axis=1)
        graph = csr_matrix((cap, (tail, head)), shape=(n, n))   # sums parallel arcs
        if graph.data.max(initial=0) > np.iinfo(np.int32).max:
            raise ValueError("an arc pair's capacity exceeds int32")
        graph.data = graph.data.astype(np.int32)
        result = maximum_flow(graph, source, sink)
        return int(result.flow_value), result.flow


MinCostMaxFlow = MaxFlowNetwork   # perfbench's traced name (see module docstring)
