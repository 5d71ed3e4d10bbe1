import itertools
import random

import numpy as np
import pytest

from leovn.analysis import (
    INF_CAPACITY,
    ISL_CAPACITY_GBPS,
    max_flow_throughput,
    snapshot_at,
)
from leovn.constellation import ConstellationConfig
from leovn.flow import MaxFlowNetwork
from leovn.isl import IslMode
from leovn.verify import (
    CANCELLING_GRAPH,
    directed_arcs,
    flow_is_feasible,
    min_cut_exhaustive,
    net_outflow,
    random_flow_graph,
    scipy_max_flow,
    throughput_arcs,
    throughput_flow_failures,
)


def solve(n, arcs, source, sink):
    """(value, per-arc flows), the flows checked feasible and carrying the
    value."""
    net = MaxFlowNetwork(n)
    for arc in arcs:
        net.add_arc(*arc)
    value, flow = net.solve(source, sink)
    assert flow_is_feasible(n, arcs, flow, source, sink)
    sent = net_outflow(n, arcs, flow)
    assert sent[source] == -sent[sink] == value
    return value, flow


class TestMaxFlowNetwork:
    def test_single_path(self):
        assert solve(3, [(0, 1, 5), (1, 2, 3)], 0, 2) == (3, [3, 3])

    def test_parallel_paths_add_up(self):
        arcs = [(0, 1, 2), (1, 3, 2), (0, 2, 2), (2, 3, 2)]
        assert solve(4, arcs, 0, 3)[0] == 4

    def test_bottleneck(self):
        arcs = [(0, 1, 10), (1, 2, 1), (2, 3, 10)]
        assert solve(4, arcs, 0, 3)[0] == 1

    def test_disconnected(self):
        assert solve(4, [(0, 1, 5), (2, 3, 5)], 0, 3) == (0, [0, 0])

    def test_detour_carries_the_second_unit(self):
        arcs = [(0, 1, 1), (0, 2, 1), (2, 1, 1), (1, 3, 2)]
        assert solve(4, arcs, 0, 3) == (2, [1, 1, 1, 2])

    def test_first_augmenting_path_is_cancelled(self):
        n, arcs = CANCELLING_GRAPH
        assert solve(n, arcs, 0, n - 1) == (2, [1, 1, 0, 1, 1, 1, 1, 1])

    def test_parallel_arcs_add_their_capacities(self):
        arcs = [(0, 1, 3), (0, 1, 2), (0, 1, 4), (1, 3, 8), (0, 2, 1), (2, 3, 5)]
        value, flow = solve(4, arcs, 0, 3)
        assert value == min_cut_exhaustive(4, arcs, 0, 3) == 9
        assert sum(flow[:3]) == 8
        value, flow = solve(3, [(0, 1, 1)] * 5 + [(1, 2, 4)], 0, 2)
        assert value == sum(flow[:5]) == 4

    def test_undirected_edge_carries_both_directions(self):
        net = MaxFlowNetwork(3)
        net.add_edges([0, 1], [1, 2], 2)
        assert net.solve(0, 2) == (2, [2, 2])
        # a second solve starts from the stored capacities again
        assert net.solve(2, 0) == (2, [-2, -2])
        net = MaxFlowNetwork(3)
        net.add_edges(np.array([1, 0]), np.array([2, 1]), [2, 3])
        value, flow = net.solve(2, 0)
        assert (value, flow) == (2, [-2, -2])
        assert flow_is_feasible(3, [(1, 2, 2), (0, 1, 3)], flow, 2, 0, undirected=True)

    def test_flows_follow_insertion_order(self):
        net = MaxFlowNetwork(4)
        net.add_arc(0, 1, 3)
        net.add_edges([2], [1], [5])
        net.add_arc(2, 3, 4)
        assert net.solve(0, 3) == (3, [3, -3, 3])

    def test_source_equals_sink_rejected(self):
        with pytest.raises(ValueError):
            MaxFlowNetwork(2).solve(0, 0)

    def test_capacities_beyond_int32_are_exact(self):
        net = MaxFlowNetwork(4)
        net.add_arc(0, 1, 2 ** 40)
        net.add_arc(0, 1, 2 ** 40)
        net.add_edges([2], [1], 2 ** 41 + 1)
        net.add_arc(2, 3, 2 ** 42)
        value, flow = net.solve(0, 3)
        assert type(value) is int
        assert (value, flow) == (2 ** 41, [2 ** 40, 2 ** 40, -2 ** 41, 2 ** 41])

    def test_feasibility_check_rejects_broken_flows(self):
        moved = 0
        for seed in range(20):
            n, arcs = random_flow_graph(seed)
            value, flow = solve(n, arcs, 0, n - 1)
            flow = np.array(flow)
            assert value > 0, seed
            # doubling keeps conservation; a cut arc goes over capacity
            assert not flow_is_feasible(n, arcs, 2 * flow, 0, n - 1), seed
            # one unit less on a loaded source arc 0 -> x, x not the sink,
            # breaks conservation at x only, within capacity
            i = next(i for i, (a, b, _) in enumerate(arcs)
                     if a == 0 and b != n - 1 and flow[i] > 0)
            broken = flow.copy()
            broken[i] -= 1
            assert not flow_is_feasible(n, arcs, broken, 0, n - 1), seed
            # reversed, the flow runs against directed arcs; undirected
            # edges would carry it
            assert not flow_is_feasible(n, arcs, -flow, n - 1, 0), seed
            assert flow_is_feasible(n, arcs, -flow, n - 1, 0, undirected=True), seed
            # capacity holds per arc, not per pair of parallel arcs: the
            # appended source/sink arcs may repeat a drawn one
            for i, j in itertools.permutations(range(len(arcs)), 2):
                if arcs[i][:2] == arcs[j][:2] and flow[i] + flow[j] > arcs[i][2]:
                    broken = flow.copy()
                    broken[[i, j]] = flow[i] + flow[j], 0
                    assert not flow_is_feasible(n, arcs, broken, 0, n - 1), seed
                    moved += 1
        assert moved > 0

    def test_matches_scipy_on_400_mixed_graphs(self):
        # sparser and larger than random_flow_graph, with directed arcs and
        # undirected edges interleaved and capacities far apart
        positive = 0
        for seed in range(400):
            rng = random.Random(seed)
            n = rng.randrange(4, 80)
            net, arcs, undirected = MaxFlowNetwork(n), [], []
            for _ in range(rng.randrange(1, 4 * n + 1)):
                a = rng.randrange(n)
                b = (a + rng.randrange(1, n)) % n
                cap = rng.choice((1, 1, 1, 2, 3, 7, 10 ** 6))
                both = rng.random() < 0.5
                if both:
                    net.add_edges([a], [b], cap)
                else:
                    net.add_arc(a, b, cap)
                arcs.append((a, b, cap))
                undirected.append(both)
            value, flow = net.solve(0, n - 1)
            assert value == scipy_max_flow(n, directed_arcs(arcs, undirected), 0, n - 1), seed
            assert flow_is_feasible(n, arcs, flow, 0, n - 1, undirected), seed
            positive += value > 0
        assert positive > 200

    def test_unbounded_arcs_do_not_overflow(self):
        arcs = [(0, 1, INF_CAPACITY), (1, 2, 7), (2, 3, INF_CAPACITY)]
        assert solve(4, arcs, 0, 3)[0] == 7


class TestPaperScale:
    """The throughput network of 18x36 snapshots: thousands of arcs, where the
    tests above reach at most 12 nodes."""

    # flow units at t = T/3, from an earlier successive-shortest-path
    # min-cost solver
    PINNED = {(IslMode.CONVENTIONAL, 0): 19, (IslMode.OPTIMIZED, 0): 19,
              (IslMode.CONVENTIONAL, 6): 16, (IslMode.OPTIMIZED, 6): 20,
              (IslMode.CONVENTIONAL, 14): 4, (IslMode.OPTIMIZED, 14): 19}

    @pytest.mark.parametrize("f", [0, 6, 14])
    @pytest.mark.parametrize("mode", list(IslMode))
    def test_value_is_pinned_and_flow_feasible(self, f, mode):
        cfg = ConstellationConfig(num_planes=18, sats_per_plane=36, phasing_factor=f,
                                  polar_threshold_deg=70.0)
        snap = snapshot_at(cfg, mode, cfg.period / 3)
        source, sink, arcs, undirected = throughput_arcs(snap)
        # the same network as directed arcs, each ISL a unit arc each way
        value = solve(snap.num_sats + 2, directed_arcs(arcs, undirected), source, sink)[0]
        assert value == self.PINNED[mode, f]
        assert value * ISL_CAPACITY_GBPS == max_flow_throughput(snap)
        assert throughput_flow_failures(snap) == []

