import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra, maximum_flow

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
from leovn.constellation import ConfigError, ConstellationConfig, propagate_all
from leovn.flow import INF_CAPACITY
from leovn.division import switching_epochs
from leovn.isl import IslKind, IslMode, ShutoffRule, active_hisl_count, snapshot_edges
from leovn.verify import delay_matrix

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
        positions = propagate_all(cfg, 100.0)[1]
        for (a, b), delay in zip(snap.edges[:20].tolist(), snap.delay_s[:20]):
            length = np.linalg.norm(positions[a] - positions[b])
            assert delay == pytest.approx(length / SPEED_OF_LIGHT)
        assert (snap.delay_s > 0).all()

    def test_lengths_equal_per_edge_norm_bitwise(self):
        # reference loop: one np.linalg.norm per edge, as CLI outputs expect
        cfg = make_config(F=2, altitude_km=780.0)
        snap = snapshot_at(cfg, IslMode.OPTIMIZED, 1234.5)
        positions = propagate_all(cfg, 1234.5)[1]
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

    @pytest.mark.parametrize("f", [0, 2, 6, 14])
    @pytest.mark.parametrize("mode", list(IslMode))
    def test_equals_scipy_maximum_flow(self, f, mode):
        # t=0 puts satellites exactly on the closed edges of both boxes
        cfg = make_config(F=f)
        for t in (0.0, cfg.period / 3, 0.71 * cfg.period):
            snap = snapshot_at(cfg, mode, t)
            lat, lon = np.degrees(snap.lats), np.degrees(snap.lons)
            src = np.flatnonzero(SOURCE_BOX.contains(lat, lon))
            dst = np.flatnonzero(SINK_BOX.contains(lat, lon))
            n = snap.num_sats
            a, b = snap.edges.T
            rows = np.concatenate([np.full(len(src), n), dst, a, b])
            cols = np.concatenate([src, np.full(len(dst), n + 1), b, a])
            caps = np.concatenate([np.full(len(src) + len(dst), INF_CAPACITY),
                                   np.ones(2 * len(a), dtype=np.int64)])
            graph = csr_matrix((caps.astype(np.int32), (rows, cols)), shape=(n + 2, n + 2))
            want = maximum_flow(graph, n, n + 1).flow_value
            assert max_flow_throughput(snap) == want * ISL_CAPACITY_GBPS, t

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
        sources = np.array([400, 7, 7, 123, 0, 647])    # unsorted, duplicated
        got = shortest_path_delays(snap, sources)
        assert got.shape == (len(sources), cfg.num_planes, cfg.sats_per_plane)
        assert got.base is not None
        i, p, s = np.indices(got.shape)
        want = self.dijkstra_reference(snap, sources)
        assert np.array_equal(got[i, p, s], want[i, p * cfg.sats_per_plane + s])

    @pytest.mark.parametrize("broken", ["removed", "delay_x30"])
    def test_equals_dijkstra_with_a_broken_ring(self, broken):
        # F=14 conventional has no H links, so a ring route is the only
        # route: with V-ISL 25 -> 26 off (or 30 times as long) a shortest
        # segment runs up to n2-1 links, past the n2/2 of equal chords
        cfg = make_config(F=14)
        snap = snapshot_at(cfg, IslMode.CONVENTIONAL, 0.0)
        assert not (snap.kind == IslKind.H_ISL).any()
        link = (snap.kind == IslKind.V_ISL) & (snap.edges[:, 0] == 25)
        assert np.count_nonzero(link) == 1
        if broken == "removed":
            keep = ~link
            snap = replace(snap, edges=snap.edges[keep], kind=snap.kind[keep],
                           delay_s=snap.delay_s[keep])
        else:
            snap = replace(snap, delay_s=np.where(link, 30 * snap.delay_s, snap.delay_s))
        sources = np.arange(cfg.total_sats)
        got = shortest_path_delays(snap, sources).reshape(len(sources), -1)
        assert np.array_equal(got, self.dijkstra_reference(snap, sources))

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
        sources = np.array(data.draw(st.lists(st.integers(0, cfg.total_sats - 1),
                                              min_size=1, max_size=40)))
        got = shortest_path_delays(snap, sources).reshape(len(sources), -1)
        assert np.array_equal(got, self.dijkstra_reference(snap, sources))


class TestSweep:
    def test_hisl_columns_match_reference_counts(self):
        cfg = make_config(altitude_km=780.0)
        rows = sweep(cfg, f_values=(0, 2, 14), modes=(IslMode.CONVENTIONAL,))
        by_f = {r.phasing_factor: r.n_hisl for r in rows}
        assert by_f == {0: 476, 2: 408, 14: 0}

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

    @pytest.mark.parametrize("f", [0, 1])
    def test_modes_share_the_layout_below_f2(self, f):
        # no backward link before F=2, so the sweep solves such a point once
        cfg = make_config(F=f)
        for t in (0.0, 0.3 * cfg.period):
            conv, opt = (snapshot_edges(cfg, mode, t) for mode in IslMode)
            for name in ("pairs", "kind", "active"):
                assert np.array_equal(getattr(conv, name), getattr(opt, name)), (name, t)

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
