import math
import random

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from leovn.analysis import (
    ISL_CAPACITY_GBPS,
    SINK_BOX,
    SOURCE_BOX,
    max_flow_throughput,
    snapshot_at,
)
from leovn.constellation import ConstellationConfig
from leovn.flow import INF_CAPACITY, MinCostMaxFlow
from leovn.isl import IslMode
from leovn.verify import (
    all_paths_min_delay,
    min_cost_lp,
    min_cut_exhaustive,
    random_flow_graph,
)


def solve(n, arcs, source, sink):
    net = MinCostMaxFlow(n)
    for a, b, cap, cost in arcs:
        net.add_arc(a, b, cap, cost)
    value, cost = net.solve(source, sink)
    assert net.check_feasible(source, sink)
    return value, cost


class TestMinCostMaxFlow:
    def test_single_path(self):
        value, cost = solve(3, [(0, 1, 5, 1.0), (1, 2, 3, 2.0)], 0, 2)
        assert value == 3
        assert cost == pytest.approx(9.0)

    def test_parallel_paths_prefer_cheap_first(self):
        arcs = [(0, 1, 2, 1.0), (1, 3, 2, 1.0),   # cheap path, cap 2
                (0, 2, 2, 5.0), (2, 3, 2, 5.0)]   # expensive path, cap 2
        value, cost = solve(4, arcs, 0, 3)
        assert value == 4
        assert cost == pytest.approx(2 * 2.0 + 2 * 10.0)

    def test_bottleneck(self):
        arcs = [(0, 1, 10, 0.0), (1, 2, 1, 0.0), (2, 3, 10, 0.0)]
        assert solve(4, arcs, 0, 3)[0] == 1

    def test_disconnected(self):
        assert solve(4, [(0, 1, 5, 1.0), (2, 3, 5, 1.0)], 0, 3)[0] == 0

    def test_min_cost_uses_detour_only_when_needed(self):
        # classic: direct arc cap 1 cost 1; detour cost 3; max flow 2 must
        # pay 1 + 3
        arcs = [(0, 1, 1, 1.0), (0, 2, 1, 1.0), (2, 1, 1, 1.0), (1, 3, 2, 1.0)]
        value, cost = solve(4, arcs, 0, 3)
        assert value == 2
        assert cost == pytest.approx(1.0 + 1.0 + 1.0 + 1.0 + 1.0)

    def test_parallel_arcs_are_taken_cheapest_live_first(self):
        # one (tail, head) pair of three parallel arcs, added out of cost
        # order: the cost-1 arc saturates first, then the cost-2 one, and
        # the cost-5 one only after the 4.5 detour; the reverse arcs of the
        # three form a pair of three as well
        arcs = [(0, 1, 3, 5.0), (0, 1, 2, 1.0), (0, 1, 4, 2.0), (1, 3, 8, 0.0),
                (0, 2, 1, 4.0), (2, 3, 5, 0.5)]
        value, cost = solve(4, arcs, 0, 3)
        assert value == min_cut_exhaustive(4, arcs, 0, 3) == 9
        assert cost == pytest.approx(min_cost_lp(4, arcs, 0, 3, value), rel=1e-12)
        assert cost == pytest.approx(2 * 1.0 + 4 * 2.0 + 4.5 + 2 * 5.0)

    def test_equal_cost_parallel_arcs_fill_in_arc_order(self):
        # a pair of five parallel arcs: the cheapest live one carries each
        # unit, and of equal costs the one added first
        arcs = [(0, 1, 1, 2.0), (0, 1, 1, 1.0), (0, 1, 1, 2.0), (0, 1, 1, 1.0),
                (0, 1, 1, 0.0), (1, 2, 4, 0.0)]
        net = MinCostMaxFlow(3)
        for arc in arcs:
            net.add_arc(*arc)
        assert net.solve(0, 2) == (4, pytest.approx(4.0))
        assert net.flow.tolist() == [1, 1, 0, 1, 1, 4]

    def test_undirected_edge_carries_both_directions(self):
        net = MinCostMaxFlow(3)
        net.add_edges([0, 1], [1, 2], 2, 1.0)
        assert (net.tail.tolist(), net.head.tolist()) == ([0, 1, 1, 2], [1, 2, 0, 1])
        value, _ = net.solve(0, 2)
        assert value == 2
        net = MinCostMaxFlow(3)
        net.add_edges(np.array([0, 1]), np.array([1, 2]), [2, 2], np.array([1.0, 1.0]))
        assert net.solve(2, 0) == (2, pytest.approx(4.0))

    def test_source_equals_sink_rejected(self):
        with pytest.raises(ValueError):
            MinCostMaxFlow(2).solve(0, 0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            MinCostMaxFlow(2).add_arc(0, 1, 1, -1.0)

    def test_negative_edge_cost_rejected(self):
        net = MinCostMaxFlow(3)
        with pytest.raises(ValueError):
            net.add_edges([0, 1], [1, 2], 1, [1.0, -1.0])
        assert len(net.tail) == len(net.cost) == 0

    def test_matches_exhaustive_min_cut_on_20_graphs(self):
        for seed in range(20):
            n, arcs = random_flow_graph(seed)
            value, cost = solve(n, arcs, 0, n - 1)
            assert value == min_cut_exhaustive(n, arcs, 0, n - 1), seed
            assert cost == pytest.approx(min_cost_lp(n, arcs, 0, n - 1, value), rel=1e-9), seed

    def test_tampered_flow_is_infeasible(self):
        n, arcs = random_flow_graph(0)
        k = next(i for i, (a, b, _, _) in enumerate(arcs) if {a, b}.isdisjoint({0, n - 1}))
        for delta in (1, -1):
            net = MinCostMaxFlow(n)
            for arc in arcs:
                net.add_arc(*arc)
            net.solve(0, n - 1)
            assert net.check_feasible(0, n - 1)
            net.flow[k] += delta
            assert not net.check_feasible(0, n - 1)

    def test_arc_flows_carry_the_flow_value(self):
        n, arcs = random_flow_graph(3)
        net = MinCostMaxFlow(n)
        for arc in arcs:
            net.add_arc(*arc)
        value, cost = net.solve(0, n - 1)
        assert sum(f for f, (a, _, _, _) in zip(net.flow, arcs) if a == 0) \
            - sum(f for f, (_, b, _, _) in zip(net.flow, arcs) if b == 0) == value
        assert sum(f * c for f, (*_, c) in zip(net.flow, arcs)) == pytest.approx(cost, rel=1e-12)

    def test_unbounded_arcs_do_not_overflow(self):
        arcs = [(0, 1, INF_CAPACITY, 0.0), (1, 2, 7, 0.25), (2, 3, INF_CAPACITY, 0.0)]
        value, cost = solve(4, arcs, 0, 3)
        assert value == 7
        assert cost == pytest.approx(7 * 0.25)


class TestPaperScale:
    """The throughput network of 18x36 snapshots: thousands of arcs, where the
    tests above reach at most 12 nodes."""

    @pytest.mark.parametrize("f", [0, 6, 14])
    @pytest.mark.parametrize("mode", list(IslMode))
    def test_cost_is_lp_optimum_and_value_is_max_flow(self, f, mode):
        cfg = ConstellationConfig(num_planes=18, sats_per_plane=36, phasing_factor=f,
                                  polar_threshold_deg=70.0)
        snap = snapshot_at(cfg, mode, cfg.period / 3)
        lat, lon = np.degrees(snap.lats), np.degrees(snap.lons)
        n = snap.num_sats + 2
        source, sink = n - 2, n - 1
        # the network that max_flow_throughput builds
        net = MinCostMaxFlow(n)
        for i in np.flatnonzero(SOURCE_BOX.contains(lat, lon)):
            net.add_arc(source, int(i), INF_CAPACITY)
        for i in np.flatnonzero(SINK_BOX.contains(lat, lon)):
            net.add_arc(int(i), sink, INF_CAPACITY)
        net.add_edges(snap.edges[:, 0], snap.edges[:, 1], 1, snap.delay_s)
        value, cost = net.solve(source, sink)
        assert value > 0 and value * ISL_CAPACITY_GBPS == max_flow_throughput(snap)
        assert net.check_feasible(source, sink)
        arcs = list(zip(net.tail, net.head, net.cap, net.cost))
        assert cost == pytest.approx(min_cost_lp(n, arcs, source, sink, value), rel=1e-9)
        graph = csr_matrix((np.array(net.cap, dtype=np.int32), (net.tail, net.head)),
                           shape=(n, n))
        assert value == maximum_flow(graph, source, sink).flow_value


class TestShortestPathKernel:
    def build_snapshot_like(self, n, edges):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra
        rows, cols, vals = [], [], []
        for a, b, w in edges:
            rows += [a, b]
            cols += [b, a]
            vals += [w, w]
        return dijkstra(csr_matrix((vals, (rows, cols)), shape=(n, n)),
                        directed=False, indices=list(range(n)))

    def test_matches_enumeration_on_20_graphs(self):
        for seed in range(100, 120):
            rng = random.Random(seed)
            n = rng.randrange(4, 11)
            edges = [(a, b, rng.uniform(0.1, 5.0))
                     for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
            if not edges:
                edges = [(0, n - 1, 1.0)]
            dist = self.build_snapshot_like(n, edges)
            for dst in range(1, n):
                want = all_paths_min_delay(n, edges, 0, dst)
                got = float(dist[0][dst])
                if math.isinf(want):
                    assert math.isinf(got)
                else:
                    assert got == pytest.approx(want, abs=1e-9)

    def test_triangle_inequality_shortcut(self):
        dist = self.build_snapshot_like(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
        assert dist[0][2] == pytest.approx(2.0)
