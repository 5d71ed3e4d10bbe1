import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import dijkstra

import leovn.analysis
from leovn.analysis import (
    ISL_CAPACITY_GBPS,
    SINK_BOX,
    SOURCE_BOX,
    SPEED_OF_LIGHT,
    draw_pairs,
    max_flow_throughput,
    mean_latency,
    mean_throughput,
    seeded_pairs,
    shortest_path_delays,
    snapshot_at,
    sweep,
    weight_snapshot,
)
from leovn.constellation import SIDEREAL_DAY, ConfigError, ConstellationConfig, propagate_all
from leovn.division import switching_epochs
from leovn.isl import IslKind, IslMode, ShutoffRule, active_hisl_count, snapshot_edges
from leovn.verify import (
    _keep_edges,
    all_paths_min_delay,
    delay_matrix,
    directed_arcs,
    enumeration_snapshots,
    latency_equals_dijkstra,
    latency_equals_enumeration,
    min_cut_exhaustive,
    seeded_snapshots,
    throughput_arcs,
    throughput_flow_failures,
)

from helpers import configs


def make_config(F=0, n1=18, n2=36, altitude_km=629.0):
    # altitude 629 km puts the orbit radius at exactly 7000 km
    return ConstellationConfig(num_planes=n1, sats_per_plane=n2, phasing_factor=F,
                               altitude_km=altitude_km, polar_threshold_deg=70.0)


class TestWeightSnapshot:
    def test_v_isl_chord_length(self):
        cfg = make_config()
        snap = snapshot_at(cfg, IslMode.CONVENTIONAL, 0.0)
        expect = 2 * 7000e3 * math.sin(math.pi / 36)   # 1220.18 km
        v_lengths = snap.delay_s[snap.kind == IslKind.V_ISL] * SPEED_OF_LIGHT
        assert len(v_lengths) == 648
        assert all(length == pytest.approx(expect, rel=1e-9) for length in v_lengths)
        assert expect == pytest.approx(1220.18e3, rel=1e-4)

    def test_equatorial_h_isl_matches_v_chord(self):
        # F=0: slot 8 sits on the equator at t=0; same-chord geometry
        cfg = make_config()
        snap = snapshot_at(cfg, IslMode.CONVENTIONAL, 0.0)
        expect = 2 * 7000e3 * math.sin(math.radians(5.0))
        eq_edges = (snap.kind == IslKind.H_ISL) & (snap.edges[:, 0] % 36 == 7)
        assert eq_edges.any()
        for length in snap.delay_s[eq_edges] * SPEED_OF_LIGHT:
            assert length == pytest.approx(expect, rel=1e-9)

    def test_h_isl_shrinks_toward_polar_threshold(self):
        cfg = make_config()
        snap = snapshot_at(cfg, IslMode.CONVENTIONAL, 0.0)
        by_slot = {}
        for (a, _), kind, delay in zip(snap.edges.tolist(), snap.kind, snap.delay_s):
            if kind == IslKind.H_ISL and a // 36 == 0:
                by_slot[a % 36] = delay
        assert by_slot[13] < by_slot[9] < by_slot[7]  # lat 60 < lat 20 < equator

    def test_delay_is_length_over_c(self):
        cfg = make_config()
        snap = snapshot_at(cfg, IslMode.CONVENTIONAL, 100.0)
        positions = propagate_all(cfg, 100.0)[0]
        for (a, b), delay in zip(snap.edges[:20].tolist(), snap.delay_s[:20]):
            length = np.linalg.norm(positions[a] - positions[b])
            assert delay == pytest.approx(length / SPEED_OF_LIGHT)
        assert (snap.delay_s > 0).all()

    def test_lengths_equal_per_edge_norm_bitwise(self):
        # reference loop: one np.linalg.norm per edge, as CLI outputs expect
        cfg = make_config(F=2, altitude_km=780.0)
        snap = snapshot_at(cfg, IslMode.OPTIMIZED, 1234.5)
        positions = propagate_all(cfg, 1234.5)[0]
        want = [float(np.linalg.norm(positions[a] - positions[b]))
                for a, b in snap.edges.tolist()]
        assert snap.delay_s.tolist() == [length / SPEED_OF_LIGHT for length in want]

    def test_only_active_edges_kept(self):
        cfg = make_config()
        edges = snapshot_edges(cfg, IslMode.CONVENTIONAL, 0.0)
        snap = weight_snapshot(cfg, edges, 0.0)
        assert len(snap.edges) == edges.active.sum() == 648 + 476
        assert snap.edges.tolist() == edges.pairs[edges.active].tolist()


class TestFlowScenario:
    def test_default_regions_disjoint(self):
        # the source and sink boxes share latitudes, so their longitudes must not meet
        assert (SOURCE_BOX.lat_min, SOURCE_BOX.lat_max) == (SINK_BOX.lat_min, SINK_BOX.lat_max)
        assert SOURCE_BOX.lon_max < SINK_BOX.lon_min

    @pytest.mark.parametrize("box", [SOURCE_BOX, SINK_BOX])
    def test_boxes_are_closed(self, box):
        low, high = np.array([box.lat_min, box.lon_min]), np.array([box.lat_max, box.lon_max])
        below, above = np.nextafter(low, -np.inf), np.nextafter(high, np.inf)
        lat = [low[0], high[0], below[0], above[0], low[0], low[0]]
        lon = [low[1], high[1], low[1], low[1], below[1], above[1]]
        assert box.contains(np.array(lat), np.array(lon)).tolist() == [True, True] + [False] * 4


class TestThroughput:
    def test_uncovered_region_yields_zero(self):
        # a 2x6 constellation leaves the source box empty while the sink box is
        # covered at some sample of one period
        cfg = make_config(n1=2, n2=6)
        for t in np.linspace(0.0, cfg.period, 60):
            snap = snapshot_at(cfg, IslMode.CONVENTIONAL, t)
            lat, lon = np.degrees(snap.lats), np.degrees(snap.lons)
            if not SOURCE_BOX.contains(lat, lon).any() and SINK_BOX.contains(lat, lon).any():
                break
        else:
            pytest.fail("no sample with an empty source box and a covered sink box")
        assert max_flow_throughput(snap) == 0.0

    def test_positive_for_default_scenario(self):
        cfg = make_config()
        snap = snapshot_at(cfg, IslMode.CONVENTIONAL, 0.0)
        assert max_flow_throughput(snap) > 0

    @staticmethod
    def times(cfg):
        # t=0 puts satellites exactly on the closed edges of both boxes
        return 0.0, cfg.period / 3, 0.71 * cfg.period

    # flow units at times(cfg), from an earlier successive-shortest-path
    # min-cost solver
    PINNED = {
        (IslMode.CONVENTIONAL, 0): (18, 19, 20), (IslMode.OPTIMIZED, 0): (18, 19, 20),
        (IslMode.CONVENTIONAL, 2): (17, 19, 22), (IslMode.OPTIMIZED, 2): (18, 19, 22),
        (IslMode.CONVENTIONAL, 6): (15, 16, 18), (IslMode.OPTIMIZED, 6): (18, 20, 22),
        (IslMode.CONVENTIONAL, 14): (4, 4, 4), (IslMode.OPTIMIZED, 14): (18, 19, 22),
    }

    @pytest.mark.parametrize("f", [0, 2, 6, 14])
    @pytest.mark.parametrize("mode", list(IslMode))
    def test_equals_pinned_flow_values(self, f, mode):
        cfg = make_config(F=f)
        got = [max_flow_throughput(snapshot_at(cfg, mode, t)) for t in self.times(cfg)]
        assert got == [units * ISL_CAPACITY_GBPS for units in self.PINNED[mode, f]]

    @pytest.mark.parametrize("f", [0, 2, 6, 14])
    @pytest.mark.parametrize("mode", list(IslMode))
    def test_equals_scipy_maximum_flow(self, f, mode):
        cfg = make_config(F=f)
        for t in self.times(cfg):
            assert throughput_flow_failures(snapshot_at(cfg, mode, t)) == [], (f, mode, t)

    @pytest.mark.parametrize("n1,n2", [(2, 3), (2, 4), (2, 5), (3, 3)])
    def test_equals_min_cut_on_small_snapshots(self, n1, n2):
        # at most 10 satellites: the network, super-source and super-sink
        # included, has at most 12 nodes, so every cut can be enumerated
        positive = 0
        for f in range(min(n1, n2 - 1) + 1):
            cfg = make_config(F=f, n1=n1, n2=n2)
            for mode in IslMode:
                for t in np.linspace(0.0, SIDEREAL_DAY, 49):
                    snap = snapshot_at(cfg, mode, t)
                    source, sink, arcs, undirected = throughput_arcs(snap)
                    want = min_cut_exhaustive(snap.num_sats + 2, directed_arcs(arcs, undirected),
                                              source, sink)
                    assert max_flow_throughput(snap) == want * ISL_CAPACITY_GBPS, (f, mode, t)
                    positive += want > 0
        assert positive > 0

    def test_zero_snapshots_rejected(self):
        with pytest.raises(ConfigError, match="snapshots"):
            mean_throughput(make_config(), IslMode.CONVENTIONAL, snapshots=0)

    def test_optimized_not_worse_than_conventional(self):
        for f in (2, 5, 9):
            cfg = make_config(F=f)
            conv = mean_throughput(cfg, IslMode.CONVENTIONAL, snapshots=4)
            opt = mean_throughput(cfg, IslMode.OPTIMIZED, snapshots=4)
            assert opt >= conv


class TestLatency:
    def test_pair_stream_is_seed_deterministic(self):
        a = draw_pairs(648, 100, 42)
        b = draw_pairs(648, 100, 42)
        c = draw_pairs(648, 100, 43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_self_pair_zero_delay(self):
        cfg = make_config()
        snap = snapshot_at(cfg, IslMode.CONVENTIONAL, 0.0)
        dist = shortest_path_delays(snap, np.array([5]))
        assert dist[0, 0, 5] == 0.0

    def test_adjacent_same_plane_pair_is_single_hop(self):
        cfg = make_config()
        snap = snapshot_at(cfg, IslMode.CONVENTIONAL, 0.0)
        chord = 2 * 7000e3 * math.sin(math.pi / 36)
        dist = shortest_path_delays(snap, np.array([0]))
        assert dist[0, 0, 1] == pytest.approx(chord / SPEED_OF_LIGHT, rel=1e-9)

    def test_deterministic_under_seed(self):
        cfg = make_config()
        r1 = mean_latency(cfg, IslMode.CONVENTIONAL, seeded_pairs(cfg, 500, 7), 2)
        r2 = mean_latency(cfg, IslMode.CONVENTIONAL, seeded_pairs(cfg, 500, 7), 2)
        assert r1 == r2

    def test_unreachable_pairs_left_out_of_the_mean(self):
        # conventional F=14 has no inter-plane links: cross-plane pairs drop,
        # and the mean is over the finite delays of the pooled samples
        cfg = make_config(F=14)
        pairs = draw_pairs(cfg.total_sats, 800, 3)
        total, count, unreachable = 0.0, 0, 0
        for t in (0.0, cfg.period / 2):
            delays = dijkstra(delay_matrix(snapshot_at(cfg, IslMode.CONVENTIONAL, t)),
                              directed=False, indices=pairs[:, 0])[np.arange(800), pairs[:, 1]]
            finite = np.isfinite(delays)
            total += float(delays[finite].sum())
            count += int(finite.sum())
            unreachable += int((~finite).sum())
        assert unreachable / (2 * 800) > 0.8
        got = mean_latency(cfg, IslMode.CONVENTIONAL, seeded_pairs(cfg, 800, 3), 2)
        assert math.isfinite(got)
        assert got == (total / count) * 1e3

    def test_delay_matrix_is_symmetric(self):
        cfg = make_config()
        snap = snapshot_at(cfg, IslMode.CONVENTIONAL, 50.0)
        mat = delay_matrix(snap)
        assert (mat != mat.T).nnz == 0
        want = np.zeros((cfg.total_sats,) * 2)
        for (a, b), delay in zip(snap.edges.tolist(), snap.delay_s.tolist()):
            want[a, b] = want[b, a] = delay
        assert np.array_equal(mat.toarray(), want)

    @pytest.mark.parametrize("pairs, snapshots, field", [(0, 2, "pairs"), (10, 0, "snapshots")])
    def test_empty_sample_counts_rejected(self, pairs, snapshots, field):
        cfg = make_config()
        with pytest.raises(ConfigError, match=field):
            mean_latency(cfg, IslMode.CONVENTIONAL, seeded_pairs(cfg, pairs, 1), snapshots)

    def test_negative_seed_is_config_error(self):
        # numpy's default_rng raised a ValueError, which the CLI took for a fault
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            seeded_pairs(make_config(), 10, -1)

    def test_seed_zero_draws_the_pair_stream(self):
        cfg, pairs = make_config(n1=2, n2=6), draw_pairs(12, 50, 0)
        sources, src_rows, planes, slots = seeded_pairs(cfg, 50, 0)
        assert np.array_equal(sources[src_rows], pairs[:, 0])
        assert np.array_equal(planes * cfg.sats_per_plane + slots, pairs[:, 1])


class TestLatencyKernel:
    """The ring/row sweep must return scipy's Dijkstra distances bit for bit,
    unreachable (+inf) entries included."""

    @staticmethod
    def dijkstra_reference(snap, sources):
        return dijkstra(delay_matrix(snap), directed=False, indices=sources)

    @pytest.mark.parametrize("f", [0, 2, 6, 14])
    @pytest.mark.parametrize("mode", list(IslMode))
    def test_equals_dijkstra_at_paper_scale(self, f, mode):
        cfg = make_config(F=f)
        sources = np.arange(cfg.total_sats)
        for t in (0.0, 0.3 * cfg.period):
            snap = snapshot_at(cfg, mode, t)
            got = shortest_path_delays(snap, sources).reshape(len(sources), -1)
            assert np.array_equal(got, self.dijkstra_reference(snap, sources)), t
        if (f, mode) == (14, IslMode.CONVENTIONAL):   # no H links: planes split
            assert not (snap.kind == IslKind.H_ISL).any()

    def test_result_is_plane_slot_view(self):
        # a view, so the sweep never holds a second (sources, N) copy
        cfg = make_config(F=2)
        snap = snapshot_at(cfg, IslMode.OPTIMIZED, 0.3 * cfg.period)
        sources = np.array([0, 7, 123, 400, 647])
        got = shortest_path_delays(snap, sources)
        assert got.shape == (len(sources), cfg.num_planes, cfg.sats_per_plane)
        assert got.base is not None
        i, p, s = np.indices(got.shape)
        want = self.dijkstra_reference(snap, sources)
        assert np.array_equal(got[i, p, s], want[i, p * cfg.sats_per_plane + s])

    @pytest.mark.parametrize("f", [0, 2, 14])
    @pytest.mark.parametrize("mode", list(IslMode))
    @pytest.mark.parametrize("sources", [[0, 9, 35], [612, 621, 647], [0, 9, 35, 612, 621, 647],
                                         [37 * p for p in range(18)]],
                             ids=["first plane", "last plane", "end planes", "one per plane"])
    def test_outward_first_round_at_its_edges(self, f, mode, sources):
        # the first row pass splits the columns at each boundary by source
        # plane: all of them on one side, or every plane in between empty
        cfg = make_config(F=f)
        snap = snapshot_at(cfg, mode, 0.3 * cfg.period)
        got = shortest_path_delays(snap, np.array(sources)).reshape(len(sources), -1)
        assert np.array_equal(got, self.dijkstra_reference(snap, sources))

    @pytest.mark.parametrize("sources", [[-1, 5], [5, 648], [7, 5], [5, 5]],
                             ids=["negative", "past the last", "unsorted", "duplicated"])
    def test_rejects_sources_out_of_rule(self, sources):
        # -1 would otherwise wrap to satellite 647's plane
        snap = snapshot_at(make_config(), IslMode.CONVENTIONAL, 0.0)
        with pytest.raises(ValueError, match="strictly increasing flat indices in 0..647"):
            shortest_path_delays(snap, np.array(sources))

    @settings(max_examples=100, deadline=None)
    @given(case=configs(), mode=st.sampled_from(IslMode),
           shutoff=st.sampled_from(ShutoffRule), data=st.data())
    def test_equals_dijkstra_over_config_domain(self, case, mode, shutoff, data):
        # off the uniform ring too: a drawn subset of the links is dropped,
        # V-ISLs included, and one V-ISL is made up to 40 times as long
        cfg, t = case
        if mode is IslMode.OPTIMIZED and cfg.phasing_factor > cfg.num_planes:
            mode = IslMode.CONVENTIONAL   # optimized layout requires F <= n1
        edges = snapshot_edges(cfg, mode, t, shutoff)
        snap = weight_snapshot(cfg, edges, t)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        drop = data.draw(st.sampled_from([0.0, 0.02, 0.2, 0.6]), label="drop")
        keep = rng.random(len(snap.edges)) >= drop
        snap = replace(snap, edges=snap.edges[keep], kind=snap.kind[keep],
                       delay_s=snap.delay_s[keep])
        v_isls = np.flatnonzero(snap.kind == IslKind.V_ISL)
        if len(v_isls):
            link = v_isls[data.draw(st.integers(0, len(v_isls) - 1), label="link")]
            delay_s = snap.delay_s.copy()
            delay_s[link] *= data.draw(st.floats(1.0, 40.0), label="factor")
            snap = replace(snap, delay_s=delay_s)
        sources = np.unique(data.draw(st.lists(st.integers(0, cfg.total_sats - 1),
                                               min_size=1, max_size=40)))
        got = shortest_path_delays(snap, sources).reshape(len(sources), -1)
        assert np.array_equal(got, self.dijkstra_reference(snap, sources))


class TestPathEnumeration:
    """``verify.all_paths_min_delay``, the latency kernel's oracle, on graphs
    whose answer can be read off, and the exact check built on it."""

    def test_two_links_beat_a_long_one(self):
        assert all_paths_min_delay(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)], 0) == [0, 1, 2]

    def test_unreachable_nodes_are_inf(self):
        assert all_paths_min_delay(4, [(0, 1, 2.0), (2, 3, 1.0)], 1) == [2, 0, math.inf, math.inf]

    def test_least_of_parallel_links(self):
        assert all_paths_min_delay(2, [(0, 1, 3.0), (1, 0, 2.0)], 1) == [2, 0]

    def test_kernel_goes_the_long_way_round_a_broken_ring(self):
        # V-ISLs only, 0-1 off: the route runs n2-1 = 5 chords of 7000 km
        snap = snapshot_at(make_config(n1=2, n2=6), IslMode.CONVENTIONAL, 0.0)
        link = (np.sort(snap.edges, axis=1) == [0, 1]).all(axis=1)
        assert np.count_nonzero(link) == 1
        snap = _keep_edges(snap, (snap.kind == IslKind.V_ISL) & ~link)
        assert latency_equals_enumeration(snap)
        got = shortest_path_delays(snap, np.array([0]))[0, 0, 1]
        assert got == pytest.approx(5 * 7000e3 / SPEED_OF_LIGHT, rel=1e-9)

    @staticmethod
    def lengthen_one_entry(monkeypatch):
        kernel = leovn.analysis.shortest_path_delays

        def one_ulp_long(snap, sources):
            got = kernel(snap, sources).copy()
            got[0, 0, 1] = np.nextafter(got[0, 0, 1], math.inf)
            return got
        monkeypatch.setattr(leovn.analysis, "shortest_path_delays", one_ulp_long)

    def test_one_ulp_off_is_a_mismatch(self, monkeypatch):
        _, snap = next(enumeration_snapshots())
        assert latency_equals_enumeration(snap)
        self.lengthen_one_entry(monkeypatch)
        assert not latency_equals_enumeration(snap)

    def test_one_ulp_off_fails_the_dijkstra_check(self, monkeypatch):
        _, snap = next(enumeration_snapshots())
        assert latency_equals_dijkstra(snap)
        self.lengthen_one_entry(monkeypatch)
        assert not latency_equals_dijkstra(snap)

    def test_each_enumeration_snapshot_drops_one_v_isl(self):
        # every seeded snapshot with one V-ISL off, and each seed's first also
        # as bare rings without plane 1's V-ISL from slot n2-1 to slot n2
        whole = dict(itertools.chain.from_iterable(
            seeded_snapshots(seed, max_planes=4, max_sats=12) for seed in range(100, 120)))
        rings_only = []
        for label, snap in enumeration_snapshots():
            rings_only.append(" rings only," in label)
            full = whole[label.split(" rings only,")[0].rsplit(" V-ISL", 1)[0]]
            v_isls = [np.count_nonzero(s.kind == IslKind.V_ISL) for s in (full, snap)]
            assert snap.num_sats <= 12 and v_isls[0] - v_isls[1] == 1
            if rings_only[-1]:
                n2 = full.sats_per_plane
                assert len(snap.edges) == v_isls[1]
                assert [n2 - 2, n2 - 1] not in snap.edges.tolist()
            else:
                assert len(full.edges) - len(snap.edges) == 1
        assert rings_only.count(False) == len(whole) == 80 and rings_only.count(True) == 20


class TestSweep:
    def test_optimized_flat_at_442(self):
        cfg = make_config(altitude_km=780.0)
        rows = sweep(cfg, f_values=range(1, 18), modes=(IslMode.OPTIMIZED,))
        assert {r.n_hisl for r in rows} == {442}

    @settings(max_examples=100, deadline=None)
    @given(configs())
    def test_hisl_column_equals_snapshot_count(self, drawn):
        # every inclination, threshold and F: the sweep's count is the
        # snapshot's, at a handover epoch and in the middle of its dwell
        cfg, _ = drawn
        modes = [m for m in IslMode
                 if m is IslMode.CONVENTIONAL or cfg.phasing_factor <= cfg.num_planes]
        epoch, next_epoch = switching_epochs(cfg, 2)
        for row, mode in zip(sweep(cfg, (cfg.phasing_factor,), modes), modes):
            for t in (epoch, (epoch + next_epoch) / 2):
                assert row.n_hisl == active_hisl_count(snapshot_edges(cfg, mode, t)), (mode, t)

    def test_optimized_count_never_below_conventional(self):
        for polar in (60.0, 64.0, 70.0, 80.0):
            cfg = ConstellationConfig(num_planes=18, sats_per_plane=36,
                                      polar_threshold_deg=polar)
            rows = sweep(cfg, f_values=range(1, 18),
                         modes=(IslMode.CONVENTIONAL, IslMode.OPTIMIZED))
            assert {r.polar_threshold_deg for r in rows} == {polar}
            by_mode = {}
            for r in rows:
                by_mode.setdefault(r.phasing_factor, {})[r.mode] = r.n_hisl
            for f, counts in by_mode.items():
                assert counts["optimized"] >= counts["conventional"], (polar, f)

    def test_grid_point_keeps_every_other_field(self):
        # a point is the template with F replaced: the epoch phase and the
        # polar threshold are the template's, not their defaults
        cfg = ConstellationConfig(num_planes=6, sats_per_plane=12, phasing_factor=3,
                                  polar_threshold_deg=64.0, phase0_deg=7.0)
        point = ConstellationConfig(num_planes=6, sats_per_plane=12, phasing_factor=1,
                                    polar_threshold_deg=64.0, phase0_deg=7.0)
        drawn = seeded_pairs(cfg, 500, 3)
        seen = []

        def metric(config, mode):
            seen.append((config, mode))
            return mean_latency(config, mode, drawn, 3)

        [row] = sweep(cfg, (1,), (IslMode.CONVENTIONAL,), metric)
        assert row.polar_threshold_deg == 64.0
        assert seen == [(point, IslMode.CONVENTIONAL)]
        assert row.value == mean_latency(point, IslMode.CONVENTIONAL, drawn, 3)

    @pytest.mark.parametrize("polar", [70.0, 90.0])
    def test_layout_reuse_equals_per_mode_calls(self, polar):
        # at polar 90 no row ever shuts off, so the conventional layout is
        # the same at every F: a reuse across F values would show there
        cfg = replace(make_config(altitude_km=780.0), polar_threshold_deg=polar)
        drawn = seeded_pairs(cfg, 300, 5)
        for metric in (lambda point, mode: mean_throughput(point, mode, 2),
                       lambda point, mode: mean_latency(point, mode, drawn, 2)):
            rows = sweep(cfg, range(4), list(IslMode), metric)
            assert [(r.phasing_factor, r.mode) for r in rows] == [
                (f, mode.value) for f in range(4) for mode in IslMode]
            for row in rows:
                point = replace(cfg, phasing_factor=row.phasing_factor)
                assert row.value == metric(point, IslMode(row.mode))

    def test_metric_runs_once_per_layout(self):
        # both modes share the layout at F <= 1, and a sweep without a
        # metric leaves the value empty
        cfg = make_config(altitude_km=780.0)
        calls = []

        def metric(point, mode):
            calls.append((point.phasing_factor, mode))
            return 1.5

        rows = sweep(cfg, range(4), list(IslMode), metric)
        assert calls == [(0, IslMode.CONVENTIONAL), (1, IslMode.CONVENTIONAL),
                         (2, IslMode.CONVENTIONAL), (2, IslMode.OPTIMIZED),
                         (3, IslMode.CONVENTIONAL), (3, IslMode.OPTIMIZED)]
        assert {r.value for r in rows} == {1.5}
        assert {r.value for r in sweep(cfg, range(4), list(IslMode))} == {None}

    def test_failing_point_becomes_error_row(self):
        cfg = make_config()
        rows = sweep(cfg, f_values=(0, 99), modes=(IslMode.CONVENTIONAL,))
        errors = [r for r in rows if r.error]
        assert len(errors) == 1 and errors[0].phasing_factor == 99
        assert len(rows) == 2

    def test_metric_error_is_not_an_error_row(self):
        # only building a grid point may become an error row: the metric
        # runs on a point whose layout was built, so its ConfigError is a fault
        with pytest.raises(ConfigError, match="snapshots"):
            sweep(make_config(), (0,), (IslMode.CONVENTIONAL,),
                  lambda point, mode: mean_throughput(point, mode, 0))

    def test_program_fault_is_not_an_error_row(self, monkeypatch):
        def broken(*args):
            raise IndexError("kernel bug")

        monkeypatch.setattr(leovn.analysis, "hisl_count", broken)
        with pytest.raises(IndexError, match="kernel bug"):
            sweep(make_config(), (0,), (IslMode.CONVENTIONAL,))
