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


# one record per arc, in add order
_ARC = np.dtype([("tail", np.int64), ("head", np.int64), ("cap", np.int64),
                 ("cost", np.float64), ("flow", np.int64)])


class MinCostMaxFlow:
    """Directed flow network; add arcs, then solve(source, sink).

    Arc k (numbered in add order) runs ``tail[k] -> head[k]`` with
    capacity ``cap[k]``, cost ``cost[k]`` and current flow ``flow[k]``.
    Each is a view of one field of the network's record array of arcs, so
    ``net.flow[k] += 1`` edits the network.
    """

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self._arcs = np.zeros(0, _ARC)
        self._added: list[tuple] = []      # add_arc records not yet in _arcs

    def _table(self) -> np.ndarray:
        """Record array of every arc, ``add_arc`` records included."""
        if self._added:
            self._arcs = np.concatenate([self._arcs, np.array(self._added, _ARC)])
            self._added = []
        return self._arcs

    tail, head, cap, cost, flow = (property(lambda self, name=name: self._table()[name])
                                   for name in _ARC.names)

    def add_arc(self, src: int, dst: int, cap: int, cost: float = 0.0) -> int:
        """Add a directed arc; returns its index."""
        if cost < 0:
            raise ValueError("arc costs must be non-negative")
        self._added.append((src, dst, cap, cost, 0))
        return len(self._arcs) + len(self._added) - 1

    def add_edges(self, a, b, cap, cost) -> None:
        """Undirected capacity on each edge (a[i], b[i]): antiparallel arcs of
        ``cap`` each, all a -> b arcs first, then all b -> a.  ``cap`` and
        ``cost`` broadcast against ``a``."""
        a, b = np.asarray(a), np.asarray(b)
        cap, cost = np.broadcast_to(cap, a.shape), np.broadcast_to(cost, a.shape)
        if (cost < 0).any():
            raise ValueError("arc costs must be non-negative")
        edges = np.zeros(2 * len(a), _ARC)
        edges["tail"], edges["head"] = np.concatenate([a, b]), np.concatenate([b, a])
        edges["cap"], edges["cost"] = np.tile(cap, 2), np.tile(cost, 2)
        self._arcs = np.concatenate([self._table(), edges])

    def solve(self, source: int, sink: int) -> tuple[int, float]:
        """Return (max flow value, cost of the min-cost max flow)."""
        if source == sink:
            raise ValueError("source and sink must differ")
        arcs = self._table()
        n, m = self.num_nodes, len(arcs)
        # residual arc k < m is arc k; residual arc m + k is its reverse
        tail = np.concatenate([arcs["tail"], arcs["head"]])
        head = np.concatenate([arcs["head"], arcs["tail"]])
        cost = np.concatenate([arcs["cost"], -arcs["cost"]])
        resid = np.concatenate([arcs["cap"] - arcs["flow"], arcs["flow"]])
        # within a (tail, head) pair every arc's reduced cost differs from its
        # cost by the same potential difference, so the cheapest live arc of a
        # pair is the first live one in (tail, head, cost, arc) order: sort
        # the keys in arc order, then by cost inside the pairs of more than
        # one arc, by odd-even transposition over their ranks (a swap only of
        # neighbours strictly out of cost order keeps equal costs in arc order)
        key = tail * n + head
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        length = np.diff(starts, append=2 * m)
        longest = length.max(initial=0)
        for phase in range(longest):
            for j in range(phase % 2, longest - 1, 2):
                i = starts[length > j + 1] + j
                a, b = order[i], order[i + 1]
                swap = cost[b] < cost[a]
                order[i[swap]], order[i[swap] + 1] = b[swap], a[swap]
        position = np.empty_like(order)
        position[order] = np.arange(2 * m)
        mate = position[np.where(order < m, order + m, order - m)]
        cost = cost[order]
        # arc 2m is the sentinel "no live arc": always live, at cost +inf
        resid, arc_cost = np.append(resid[order], 1), np.append(cost, np.inf)
        pair_key, pair_tail, pair_head = key[starts], tail[order[starts]], head[order[starts]]
        # rank j of every pair: its (j+1)-th arc, or the sentinel past its end
        ranks = [np.where(length > j, starts + j, 2 * m) for j in range(longest)]
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
        arcs["flow"] = resid[position[m:]]
        return total_flow, total_cost

    def check_feasible(self, source: int, sink: int) -> bool:
        """Capacity bounds and per-node conservation of the current flow."""
        arcs = self._table()
        flow = arcs["flow"]
        if ((flow < 0) | (flow > arcs["cap"])).any():
            return False
        net = (np.bincount(arcs["head"], flow, self.num_nodes)
               - np.bincount(arcs["tail"], flow, self.num_nodes))
        net[[source, sink]] = 0
        return not net.any()
