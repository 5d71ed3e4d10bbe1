"""Min-cost max-flow on small directed graphs.

Successive shortest augmenting paths with Johnson potentials: every
augmentation runs scipy's compiled Dijkstra on the reduced costs of the
residual arcs, pushes the bottleneck residual capacity along the path, and
updates potentials.  Capacities are integers (flow arrives in whole units);
costs are non-negative floats.  Sized for the constellation graphs used here
(hundreds of nodes, thousands of arcs).
"""
from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

INF_CAPACITY = 10 ** 9


class MinCostMaxFlow:
    """Directed flow network; add arcs, then solve(source, sink).

    Arc k (numbered in ``add_arc`` order) runs ``tail[k] -> head[k]`` with
    capacity ``cap[k]``, cost ``cost[k]`` and current flow ``flow[k]``.
    """

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self.tail: list[int] = []
        self.head: list[int] = []
        self.cap: list[int] = []
        self.cost: list[float] = []
        self.flow: list[int] = []

    def add_arc(self, src: int, dst: int, cap: int, cost: float = 0.0) -> int:
        """Add a directed arc; returns its index."""
        if cost < 0:
            raise ValueError("arc costs must be non-negative")
        self.tail.append(src)
        self.head.append(dst)
        self.cap.append(cap)
        self.cost.append(cost)
        self.flow.append(0)
        return len(self.cap) - 1

    def add_edge(self, a: int, b: int, cap: int, cost: float = 0.0) -> None:
        """Undirected capacity: antiparallel arcs of ``cap`` each."""
        self.add_arc(a, b, cap, cost)
        self.add_arc(b, a, cap, cost)

    def solve(self, source: int, sink: int) -> tuple[int, float]:
        """Return (max flow value, cost of the min-cost max flow)."""
        if source == sink:
            raise ValueError("source and sink must differ")
        n, m = self.num_nodes, len(self.cap)
        flow = np.array(self.flow, dtype=np.int64)
        cost = np.array(self.cost, dtype=float)
        # residual arc k < m is arc k; residual arc m + k is its reverse
        tail = np.array(self.tail + self.head, dtype=np.int64)
        head = np.array(self.head + self.tail, dtype=np.int64)
        cost = np.concatenate([cost, -cost])
        resid = np.concatenate([np.array(self.cap, dtype=np.int64) - flow, flow])
        # within a (tail, head) pair every arc's reduced cost differs from its
        # cost by the same potential difference, so the cheapest live arc of a
        # pair is the first live one in (tail, head, cost) order
        order = np.lexsort((cost, head, tail))
        position = np.empty_like(order)
        position[order] = np.arange(2 * m)
        mate = position[np.where(order < m, order + m, order - m)]
        tail, head, cost, resid = tail[order], head[order], cost[order], resid[order]
        key = tail * n + head
        pair = np.cumsum(np.diff(key, prepend=-1) != 0)
        potential = np.zeros(n)
        total_flow, total_cost = 0, 0.0
        while True:
            live = np.flatnonzero(resid > 0)
            best = live[np.diff(pair[live], prepend=0) != 0]
            # exact reduced costs are >= 0; clamp the float dust
            reduced = np.maximum(cost[best] + potential[tail[best]] - potential[head[best]], 0.0)
            indptr = np.searchsorted(tail[best], np.arange(n + 1))
            graph = csr_matrix((reduced, head[best], indptr), shape=(n, n))
            dist, pred = dijkstra(graph, indices=source, return_predecessors=True)
            if dist[sink] == np.inf:
                break
            reached = dist < np.inf
            potential[reached] += dist[reached]
            nodes = [sink]
            while nodes[-1] != source:
                nodes.append(int(pred[nodes[-1]]))
            nodes = np.array(nodes)  # sink back to source
            path = best[np.searchsorted(key[best], nodes[1:] * n + nodes[:-1])]
            bottleneck = min(INF_CAPACITY, int(resid[path].min()))
            resid[path] -= bottleneck
            resid[mate[path]] += bottleneck
            total_cost += bottleneck * float(cost[path].sum())
            total_flow += bottleneck
        self.flow = resid[position[m:]].tolist()
        return total_flow, total_cost

    def check_feasible(self, source: int, sink: int) -> bool:
        """Capacity bounds and per-node conservation of the current flow."""
        flow = np.array(self.flow, dtype=np.int64)
        if ((flow < 0) | (flow > np.array(self.cap, dtype=np.int64))).any():
            return False
        net = (np.bincount(np.array(self.head, dtype=np.intp), flow, self.num_nodes)
               - np.bincount(np.array(self.tail, dtype=np.intp), flow, self.num_nodes))
        net[[source, sink]] = 0
        return not net.any()
