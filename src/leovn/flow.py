"""Min-cost max-flow on small directed graphs.

Successive shortest augmenting paths with Johnson potentials: every
augmentation runs scipy's compiled Dijkstra on the reduced costs of the
residual arcs, pushes the bottleneck residual capacity along the path, and
updates potentials; a solve builds one CSR graph with an entry per (tail,
head) pair of residual arcs, and each round rewrites only its weights.
Capacities are integers (flow arrives in whole units); costs are
non-negative floats.  Sized for the constellation graphs used here.
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

    def add_edges(self, a, b, cap, cost) -> None:
        """Undirected capacity on each edge (a[i], b[i]): antiparallel arcs of
        ``cap`` each, all a -> b arcs first, then all b -> a.  ``cap`` and
        ``cost`` broadcast against ``a``."""
        a, b = np.asarray(a), np.asarray(b)
        cap, cost = np.broadcast_to(cap, a.shape), np.broadcast_to(cost, a.shape)
        if (cost < 0).any():
            raise ValueError("arc costs must be non-negative")
        self.tail += a.tolist() + b.tolist()
        self.head += b.tolist() + a.tolist()
        self.cap += 2 * cap.tolist()
        self.cost += 2 * cost.tolist()
        self.flow += [0] * (2 * len(a))

    def solve(self, source: int, sink: int) -> tuple[int, float]:
        """Return (max flow value, cost of the min-cost max flow)."""
        if source == sink:
            raise ValueError("source and sink must differ")
        n, m = self.num_nodes, len(self.cap)
        ends = np.array([self.tail, self.head], dtype=np.int64)
        cost = np.array(self.cost, dtype=float)
        flow = np.array(self.flow, dtype=np.int64)
        # residual arc k < m is arc k; residual arc m + k is its reverse
        tail, head, cost = ends.ravel(), ends[::-1].ravel(), np.concatenate([cost, -cost])
        resid = np.concatenate([np.array(self.cap, dtype=np.int64) - flow, flow])
        key = tail * n + head
        # within a (tail, head) pair every arc's reduced cost differs from its
        # cost by the same potential difference, so the cheapest live arc of a
        # pair is the first live one in (tail, head, cost) order; two stable
        # sorts give that order faster than lexsort
        order = np.argsort(cost, kind="stable")
        order = order[np.argsort(key[order], kind="stable")]
        position = np.empty_like(order)
        position[order] = np.arange(2 * m)
        mate = position[np.where(order < m, order + m, order - m)]
        key, cost = key[order], cost[order]
        # arc 2m is the sentinel "no live arc": always live, at cost +inf
        resid, arc_cost = np.append(resid[order], 1), np.append(cost, np.inf)
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        pair_key, pair_tail, pair_head = key[starts], tail[order[starts]], head[order[starts]]
        # rank j of every pair: its (j+1)-th arc, or the sentinel past its end
        length = np.diff(starts, append=2 * m)
        ranks = [np.where(length > j, starts + j, 2 * m)
                 for j in range(length.max(initial=0))]
        no_arc = np.full(len(starts), 2 * m)
        # one entry per pair; a round writes only the weights
        graph = csr_matrix((np.empty(len(starts)), pair_head.astype(np.int32),
                            np.searchsorted(pair_tail, np.arange(n + 1)).astype(np.int32)),
                           shape=(n, n))
        potential = np.zeros(n)
        total_flow, total_cost = 0, 0.0
        while True:
            # pair -> its first live arc, or 2m when none is live: the lowest
            # live rank wins, so fold from the highest rank down
            live, best = resid > 0, no_arc
            for rank in reversed(ranks):
                best = np.where(live[rank], rank, best)
            # exact reduced costs are >= 0; clamp the float dust
            np.maximum(arc_cost[best] + potential[pair_tail] - potential[pair_head], 0.0,
                       out=graph.data)
            dist, pred = dijkstra(graph, indices=source, return_predecessors=True)
            if dist[sink] == np.inf:
                break
            np.add(potential, dist, out=potential, where=dist < np.inf)
            nodes = [sink]
            while nodes[-1] != source:
                nodes.append(int(pred[nodes[-1]]))
            nodes = np.array(nodes)  # sink back to source
            path = best[np.searchsorted(pair_key, nodes[1:] * n + nodes[:-1])]
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
