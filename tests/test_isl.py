import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from leovn.constellation import ConfigError, ConstellationConfig
from leovn.division import cell_shifts_deg, switching_epochs
from leovn.isl import (
    IslKind,
    IslMode,
    ShutoffRule,
    active_hisl_count,
    active_row_set,
    bh_planes,
    hisl_count,
    polar_cap_phase_spans,
    row_chains,
    row_spreads_deg,
    snapshot_edges,
)
from leovn.verify import boundaries_by_scan, rows_by_scan, theorem1_bruteforce

from helpers import configs, initial_phase_deg


def make_config(n1=18, n2=36, F=0, polar=70.0):
    return ConstellationConfig(num_planes=n1, sats_per_plane=n2, phasing_factor=F,
                               altitude_km=780.0, polar_threshold_deg=polar)


def sat_id(index, n2=36):
    """(plane, slot) of a flat satellite index."""
    return int(index) // n2 + 1, int(index) % n2 + 1


def east_neighbor(rows, plane, slot, n2=36):
    """(plane, slot) after a satellite in its row chain, None at the last plane."""
    r = int(np.flatnonzero(rows[:, plane - 1] == (plane - 1) * n2 + slot - 1)[0])
    return sat_id(rows[r, plane], n2) if plane < rows.shape[1] else None


def max_spreads(cfg):
    """(delta_f, max conventional row spread, max optimized row spread)."""
    return (cfg.phase_offset_deg, max(row_spreads_deg(cfg, IslMode.CONVENTIONAL)),
            max(cell_shifts_deg(cfg)))


class TestPhaseAnalysis:
    def test_zero_phasing_all_quantities_zero(self):
        cfg = make_config(F=0)
        assert max_spreads(cfg) == (0, 0, 0)
        assert max(row_spreads_deg(cfg, IslMode.OPTIMIZED)) == 0
        assert bh_planes(cfg) == frozenset()

    def test_f2_k9(self):
        delta_f, conventional, optimized = max_spreads(make_config(F=2))
        assert delta_f == Fraction(360 * 2, 648)
        assert optimized == (9 - 1) * delta_f
        assert conventional == 17 * delta_f

    def test_fractional_k_spread(self):
        # F=5: K=3.6, max of mod(h-1, 3.6) over h-1 in 0..17 is 3.4
        delta_f, _, optimized = max_spreads(make_config(F=5))
        assert optimized == Fraction(17, 5) * delta_f

    @pytest.mark.parametrize("n1,n2,f", [(18, 36, 2), (18, 36, 5), (12, 24, 7), (6, 12, 4)])
    def test_backward_links_before_each_plane(self, n1, n2, f):
        # c(h) = floor((h-1)F/n1) backward links lie before plane h
        bh = bh_planes(make_config(n1=n1, n2=n2, F=f))
        for h in range(1, n1 + 1):
            assert len([b for b in bh if b < h]) == ((h - 1) * f) // n1


class TestBhPlanes:
    @pytest.mark.parametrize("n1,f,expect", [
        (18, 6, {3, 6, 9, 12, 15}),    # K = 3
        (18, 2, {9}),                  # K = 9
        (18, 1, set()),                # K = 18: purely conventional
        (6, 6, {1, 2, 3, 4, 5}),       # K = 1: every boundary
        (6, 4, {2, 3, 5}),             # K = 3/2
    ])
    def test_expected_bh_sets(self, n1, f, expect):
        assert bh_planes(make_config(n1=n1, F=f)) == expect

    def test_k_below_one_rejected(self):
        assert bh_planes(make_config(n1=6, F=12)) is None
        with pytest.raises(ConfigError, match="optimized layout requires F <= n1"):
            snapshot_edges(make_config(n1=6, F=12), IslMode.OPTIMIZED, 0.0)


class TestLayoutProperties:
    @settings(max_examples=100, deadline=None)
    @given(configs())
    def test_rows_follow_the_backward_link_count(self, drawn):
        cfg, _ = drawn
        n1, n2 = cfg.num_planes, cfg.sats_per_plane
        assume(cfg.phasing_factor <= n1)
        rows = row_chains(cfg, IslMode.OPTIMIZED)
        spreads = row_spreads_deg(cfg, IslMode.OPTIMIZED)
        assert all(0 <= s < Fraction(360, n2) for s in spreads)
        for row in rows:
            base = initial_phase_deg(cfg, *sat_id(row[0], n2))
            for h, member in enumerate(row):
                assert (initial_phase_deg(cfg, *sat_id(member, n2)) - base) % 360 == spreads[h]
        # the chain steps one slot down exactly at the backward boundaries
        slot_step = (rows[:, 1:] - rows[:, :-1] - n2) % n2
        assert set(slot_step.ravel().tolist()) <= {0, n2 - 1}
        down = np.flatnonzero(slot_step[0] == n2 - 1) + 1
        assert set(down.tolist()) == bh_planes(cfg)
        assert (slot_step == slot_step[0]).all()
        # the scan's domain: a polar orbit whose caps are not empty; with
        # F <= n1 the member windows of a row leave no gap a cap fits in
        polar = cfg.polar_threshold_deg
        if polar < 90:
            for mode in IslMode:
                spread = max(row_spreads_deg(cfg, mode))
                assert active_row_set(replace(cfg, inclination_deg=90.0), mode) == (
                    rows_by_scan(n2, polar, spread))


class TestHNeighbor:
    """Inter-plane neighbors as laid out by ``row_chains``."""

    def test_seam_has_no_link(self):
        # every row runs plane 1 -> plane n1 once, so no link wraps the seam
        for f, mode in ((0, IslMode.CONVENTIONAL), (6, IslMode.OPTIMIZED)):
            rows = row_chains(make_config(F=f), mode)
            assert (rows // 36 == np.arange(18)).all()
        rows = row_chains(make_config(), IslMode.OPTIMIZED)
        assert east_neighbor(rows, 18, 5) is None

    def test_conventional_same_slot(self):
        rows = row_chains(make_config(F=2), IslMode.CONVENTIONAL)
        assert east_neighbor(rows, 5, 7) == (6, 7)

    def test_backward_boundary_steps_one_slot_down(self):
        # K=3 (F=6): boundary 3 is backward; the partner one slot down is the
        # neighbor sitting step - delta_f behind, which zeroes the row spread
        cfg = make_config(F=6)
        partner = east_neighbor(row_chains(cfg, IslMode.OPTIMIZED), 3, 7)
        assert partner == (4, 6)
        u3 = initial_phase_deg(cfg, 3, 7)
        u4 = initial_phase_deg(cfg, *partner)
        u1 = initial_phase_deg(cfg, 1, 7)
        assert u4 - u3 == cfg.phase_offset_deg - Fraction(10)   # behind by step - delta_f
        assert u4 - u1 == 0                               # row spread resets to zero

    def test_west_mirrors_east(self):
        # each plane column is a permutation of its plane, so the east link
        # of a boundary is a bijection and its inverse is the west link
        rows = row_chains(make_config(F=6), IslMode.OPTIMIZED)
        for h in range(18):
            assert sorted(rows[:, h]) == list(range(h * 36, (h + 1) * 36))
        for plane, slot in ((3, 7), (9, 1), (10, 36)):
            east_plane, east_slot = east_neighbor(rows, plane, slot)
            r = np.flatnonzero(rows[:, east_plane - 1] == (east_plane - 1) * 36 + east_slot - 1)
            assert sat_id(rows[r[0], plane - 1]) == (plane, slot)


class TestRowChains:
    def test_rows_partition_all_satellites(self):
        cfg = make_config(F=6)
        rows = row_chains(cfg, IslMode.OPTIMIZED)
        seen = rows.ravel().tolist()
        assert len(seen) == len(set(seen)) == 648

    def test_spreads_match_chain_phases(self):
        cfg = make_config(F=5)
        for mode in (IslMode.CONVENTIONAL, IslMode.OPTIMIZED):
            rows = row_chains(cfg, mode)
            spreads = row_spreads_deg(cfg, mode)
            base = initial_phase_deg(cfg, *sat_id(rows[0][0]))
            for h, member in enumerate(rows[0]):
                assert (initial_phase_deg(cfg, *sat_id(member)) - base) % 360 == spreads[h] % 360

    def test_optimized_spread_caps_at_analysis_value(self):
        cfg = make_config(F=5)
        assert max(row_spreads_deg(cfg, IslMode.OPTIMIZED)) == max(cell_shifts_deg(cfg))


class TestSnapshotEdges:
    def test_visl_count_and_always_active(self):
        cfg = make_config()
        snap = snapshot_edges(cfg, IslMode.CONVENTIONAL, 500.0)
        v_edges = snap.kind == IslKind.V_ISL
        assert np.count_nonzero(v_edges) == 648
        assert snap.active[v_edges].all()
        assert len(snap) == 648 + 17 * 36

    def test_edge_order_v_plane_major_then_h_row_major(self):
        cfg = make_config(F=2)
        snap = snapshot_edges(cfg, IslMode.OPTIMIZED, 0.0)
        assert snap.pairs[:2].tolist() == [[0, 1], [1, 2]]
        assert snap.pairs[35].tolist() == [35, 0]              # ring closes in plane 1
        rows = row_chains(cfg, IslMode.OPTIMIZED)
        assert snap.pairs[648:648 + 17].tolist() == np.stack(
            [rows[0, :-1], rows[0, 1:]], axis=1).tolist()
        # K=9: boundary 9 of every row carries the backward link (slot - 1)
        slot_step = (rows[0, 1:] - rows[0, :-1]) % 36
        assert slot_step.tolist() == [0] * 8 + [35] + [0] * 8

    def test_no_edge_crosses_the_seam(self):
        cfg = make_config(F=3)
        for mode in (IslMode.CONVENTIONAL, IslMode.OPTIMIZED):
            snap = snapshot_edges(cfg, mode, 123.0)
            planes = snap.pairs[snap.kind == IslKind.H_ISL] // 36 + 1
            for a_plane, b_plane in planes.tolist():
                assert {a_plane, b_plane} != {1, 18}
                assert abs(a_plane - b_plane) == 1

    def test_equator_row_active(self):
        cfg = make_config()
        snap = snapshot_edges(cfg, IslMode.CONVENTIONAL, 0.0)
        # slot 8 starts at phase 0 (the equator) at t=0: its row must be on
        row8 = (snap.kind == IslKind.H_ISL) & (snap.pairs[:, 0] == 7)   # a = (1, 8)
        assert row8.any() and snap.active[row8].all()

    def test_epoch_counts_f0(self):
        cfg = make_config()
        edges = snapshot_edges(cfg, IslMode.CONVENTIONAL, 0.0)
        assert active_hisl_count(edges) == 476

    def test_epoch_counts_f2_optimized(self):
        cfg = make_config(F=2)
        edges = snapshot_edges(cfg, IslMode.OPTIMIZED, 0.0)
        assert active_hisl_count(edges) == 442

    def test_counts_constant_between_epochs(self):
        cfg = make_config(F=2)
        counts = {active_hisl_count(snapshot_edges(cfg, IslMode.OPTIMIZED, t))
                  for t in (0.0, 37.0, 101.0, cfg.period / 2, cfg.period * 0.93)}
        assert counts == {442}

    def test_optimized_with_f0_degenerates_to_conventional(self):
        cfg = make_config(F=0)
        for t in (0.0, 333.0, cfg.period * 0.71):
            conv = snapshot_edges(cfg, IslMode.CONVENTIONAL, t)
            opt = snapshot_edges(cfg, IslMode.OPTIMIZED, t)
            for field in ("pairs", "kind", "active"):
                assert np.array_equal(getattr(conv, field), getattr(opt, field))

    def test_per_satellite_rule_differs_mid_dwell(self):
        # per-satellite switching flips links inside a dwell when phased
        cfg = make_config(F=2)
        epochs = switching_epochs(cfg, 2)
        mid = (epochs[0] + epochs[1]) / 2
        row_rule = snapshot_edges(cfg, IslMode.CONVENTIONAL, mid)
        per_sat = snapshot_edges(cfg, IslMode.CONVENTIONAL, mid,
                                 ShutoffRule.PER_SATELLITE)
        assert np.array_equal(row_rule.pairs, per_sat.pairs)
        assert not np.array_equal(row_rule.active, per_sat.active)

    def test_active_rows_match_region_table(self):
        for f, mode in ((0, IslMode.CONVENTIONAL), (2, IslMode.OPTIMIZED),
                        (5, IslMode.OPTIMIZED), (3, IslMode.CONVENTIONAL)):
            cfg = make_config(F=f)
            spread = max(row_spreads_deg(cfg, mode))
            assert active_row_set(cfg, mode) == rows_by_scan(36, 70, spread)


def fraction_active_rows(config, mode):
    """Reference for ``active_row_set``: every member window of every dwell
    row, tested in exact Fraction degrees against the open cap spans; row 1
    starts at -polar and rows are 360/n2 tall."""
    spans = polar_cap_phase_spans(config)
    step = Fraction(360, config.sats_per_plane)
    origin = -Fraction(config.polar_threshold_deg)

    def hits(start):
        s = start % 360
        pieces = [(s, min(s + step, Fraction(360)))]
        if s + step > 360:
            pieces.append((Fraction(0), s + step - 360))
        return any(lo < hi and a < hi and b > lo for a, b in pieces for lo, hi in spans)

    return frozenset(
        v for v in range(1, config.sats_per_plane + 1)
        if not any(hits(origin + (v - 1) * step + s)
                   for s in row_spreads_deg(config, mode)))


def scan_active_rows(config, mode):
    """Reference for the closed form of ``active_row_set``: every dwell row's
    member windows scanned one by one on the same scaled integers, each
    window split where it wraps past 360 and tested against the open caps."""
    spans = polar_cap_phase_spans(config)
    step = Fraction(360, config.sats_per_plane)
    offsets = {-Fraction(config.polar_threshold_deg) + s
               for s in row_spreads_deg(config, mode)}
    exact = [step, *offsets, *(x for span in spans for x in span)]
    scale = math.lcm(*(x.denominator for x in exact))

    def scaled(x):
        return x.numerator * (scale // x.denominator)

    full, width = 360 * scale, scaled(step)
    caps = [(scaled(lo), scaled(hi)) for lo, hi in spans]

    def hits(start):
        start %= full
        end = start + width
        pieces = [(start, min(end, full))] + ([(0, end - full)] if end > full else [])
        return any(a < hi and b > lo for a, b in pieces for lo, hi in caps)

    starts = [scaled(x) for x in offsets]
    return frozenset(v for v in range(1, config.sats_per_plane + 1)
                     if not any(hits(s + (v - 1) * width) for s in starts))


class TestActiveRowClosedForm:
    @settings(max_examples=300, deadline=None)
    @given(configs(max_planes=29, max_slots=59), st.sampled_from(IslMode))
    def test_equals_row_scan(self, drawn, mode):
        # configs() draws inclinations over (0, 180], mostly off 90 deg
        cfg, _ = drawn
        if mode is IslMode.OPTIMIZED and cfg.phasing_factor > cfg.num_planes:
            mode = IslMode.CONVENTIONAL
        assert active_row_set(cfg, mode) == scan_active_rows(cfg, mode)

    def test_window_edges_on_cap_edges(self):
        # 90-deg rows from -45 against the caps (45, 135) and (225, 315):
        # rows 2 and 4 are the caps exactly; row 1 starts on the open end of
        # the second cap (wrapped) and ends on the open start of the first
        cfg = ConstellationConfig(num_planes=2, sats_per_plane=4, polar_threshold_deg=45.0)
        for mode in IslMode:
            assert active_row_set(cfg, mode) == scan_active_rows(cfg, mode) == {1, 3}
        # a hair wider caps reach into rows 1 and 3 too
        wider = replace(cfg, polar_threshold_deg=44.9)
        assert active_row_set(wider, IslMode.CONVENTIONAL) == frozenset()

    def test_one_cap_meeting_every_window_of_a_start(self):
        # 120-deg rows; the start 29 deg has windows [-91, 29), [29, 149)
        # and [149, 269), and the cap (1, 179) meets all three
        cfg = ConstellationConfig(num_planes=4, sats_per_plane=3, phasing_factor=1,
                                  polar_threshold_deg=1.0)
        assert 30 in row_spreads_deg(cfg, IslMode.CONVENTIONAL)     # start -1 + 30
        assert active_row_set(cfg, IslMode.CONVENTIONAL) == frozenset()
        assert scan_active_rows(cfg, IslMode.CONVENTIONAL) == frozenset()

    @pytest.mark.parametrize("polar,inclination", [(90.0, 90.0), (40.0, 30.0)])
    def test_no_cap_keeps_every_row(self, polar, inclination):
        # polar 90 at 90 deg, or an orbit that never reaches the threshold
        cfg = ConstellationConfig(num_planes=5, sats_per_plane=11, phasing_factor=3,
                                  polar_threshold_deg=polar, inclination_deg=inclination)
        assert polar_cap_phase_spans(cfg) == []
        for mode in IslMode:
            assert active_row_set(cfg, mode) == frozenset(range(1, 12))


class TestActiveRowOracle:
    @settings(max_examples=150, deadline=None)
    @given(n1=st.integers(2, 20), n2=st.integers(3, 40), f=st.integers(0, 39),
           polar=st.one_of(st.sampled_from([1.0, 45.0, 55.0, 63.5, 70.0, 70.3, 85.0,
                                            89.99, 90.0]),
                           st.floats(0.0, 90.0, exclude_min=True), st.none()),
           inclination=st.one_of(st.sampled_from([90.0, 86.4, 53.0]),
                                 st.floats(0.0, 180.0, exclude_min=True)),
           mode=st.sampled_from(IslMode))
    # a wrapped window ending on a cap edge; a row straddling a narrow cap;
    # F > n1 on a tilted orbit
    @example(n1=2, n2=4, f=0, polar=45.0, inclination=90.0, mode=IslMode.CONVENTIONAL)
    @example(n1=3, n2=20, f=6, polar=85.0, inclination=90.0, mode=IslMode.CONVENTIONAL)
    @example(n1=5, n2=9, f=7, polar=70.0, inclination=86.4, mode=IslMode.OPTIMIZED)
    def test_matches_fraction_windows(self, n1, n2, f, polar, inclination, mode):
        # None: cap edge at half a row step, where wrapped windows end on it
        polar = 180 / n2 if polar is None else polar
        f %= n2
        if mode is IslMode.OPTIMIZED and f > n1:
            mode = IslMode.CONVENTIONAL
        cfg = ConstellationConfig(num_planes=n1, sats_per_plane=n2, phasing_factor=f,
                                  polar_threshold_deg=polar, inclination_deg=inclination)
        assert active_row_set(cfg, mode) == fraction_active_rows(cfg, mode)


class TestHislCount:
    @pytest.mark.parametrize("f,mode,expect", [
        (0, IslMode.CONVENTIONAL, 476),     # rows 1..14 and 19..32
        (2, IslMode.OPTIMIZED, 442),        # rows 1..13 and 19..31
    ])
    def test_known_counts(self, f, mode, expect):
        cfg = make_config(F=f)
        assert hisl_count(cfg, mode) == expect
        assert 17 * len(rows_by_scan(36, 70, max(row_spreads_deg(cfg, mode)))) == expect

    @settings(max_examples=200, deadline=None)
    @given(configs())
    def test_optimized_never_carries_fewer(self, drawn):
        # the paper's headline count claim, over the accepted domain
        cfg, _ = drawn
        assume(cfg.phasing_factor <= cfg.num_planes)
        assert hisl_count(cfg, IslMode.OPTIMIZED) >= hisl_count(cfg, IslMode.CONVENTIONAL)

    def test_empty_equatorial_bands(self):
        # n1=2, n2=8, polar 20: every 45-deg row meets a 140-deg cap
        cfg = make_config(n1=2, n2=8, polar=20.0)
        assert boundaries_by_scan(8, 20) == (0, 5, 4)
        assert rows_by_scan(8, 20) == frozenset()
        assert hisl_count(cfg, IslMode.CONVENTIONAL) == 0


class TestTheorem1:
    def test_small_case_unique_layout(self):
        spread, layout = theorem1_bruteforce(6, 12, 2)
        assert spread == 2 * Fraction(360 * 2, 72)
        assert layout == frozenset({3})

    def test_zero_phasing(self):
        assert theorem1_bruteforce(4, 12, 0) == (Fraction(0), frozenset())

    def test_integer_k_matches_closed_form(self):
        spread, layout = theorem1_bruteforce(9, 18, 3)
        cfg = make_config(n1=9, n2=18, F=3)
        assert spread == (Fraction(9, 3) - 1) * cfg.phase_offset_deg
        assert layout == bh_planes(cfg)

    def test_spreads_are_multiples_of_base_unit(self):
        for n1, n2, f in ((6, 12, 4), (9, 18, 5), (12, 24, 7)):
            cfg = make_config(n1=n1, n2=n2, F=f)
            unit = cfg.phase_offset_deg / f
            for s in cell_shifts_deg(cfg):
                assert s >= 0 and (s / unit).denominator == 1

    def test_size_guard(self):
        with pytest.raises(ConfigError):
            theorem1_bruteforce(13, 36, 2)

    def test_k_below_one_refused(self):
        with pytest.raises(ConfigError):
            theorem1_bruteforce(6, 36, 7)
