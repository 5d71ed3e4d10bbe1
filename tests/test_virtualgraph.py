import os
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import leovn
from leovn.constellation import SIDEREAL_DAY, ConstellationConfig
from leovn.division import (
    build_grd_grid,
    grd_assignment,
    switching_epochs,
)
from leovn.isl import (
    IslKind,
    IslMode,
    IslSnapshot,
    ShutoffRule,
    polar_mask,
    row_activity,
    row_chains,
    snapshot_edges,
)
from leovn.virtualgraph import (
    EventCause,
    EventChange,
    VnMethod,
    _edge_keys,
    _missing,
    csd_addressing,
    edge_addresses,
    event_causes,
    map_snapshot,
    method_instance,
    sample_times,
    seam_columns,
    static_graph_for,
    staticness_report,
)
from leovn.verify import is_connected

from helpers import configs, edge_count, report_blocks

# rows 1..14 and 19..32: the active rows at 18x36, polar 70, F=0
PAPER_ROWS = frozenset(range(1, 15)) | frozenset(range(19, 33))


def make_config(F=0, polar=70.0):
    return ConstellationConfig(num_planes=18, sats_per_plane=36, phasing_factor=F,
                               altitude_km=780.0, polar_threshold_deg=polar)


def instance_at(cfg, method, mode, t, grid):
    """The method's instance at time t: its snapshot mapped through its
    serving array."""
    snapshot, serving, _ = method_instance(cfg, method, mode, t, grid)
    return map_snapshot(snapshot, serving)


class TestStaticGraph:
    def test_reference_edge_counts(self):
        keys = static_graph_for(make_config(), IslMode.CONVENTIONAL)
        assert edge_count(keys, IslKind.V_ISL) == 648
        assert edge_count(keys, IslKind.H_ISL) == 476
        # every key decodes to cells of the 648-cell grid, H-links on PAPER_ROWS
        a_v, a_h, b_v, b_h, kind = edge_addresses(keys, 18, 648)
        assert a_v.min() >= 1 and max(a_v.max(), b_v.max()) <= 36
        assert a_h.min() >= 1 and max(a_h.max(), b_h.max()) <= 18
        assert set(a_v[kind == IslKind.H_ISL].tolist()) == PAPER_ROWS

    def test_tiny_graph_without_equatorial_rows(self):
        # 2x4 at polar 20: every 90-deg row meets a 140-deg cap
        cfg = ConstellationConfig(num_planes=2, sats_per_plane=4, polar_threshold_deg=20.0)
        keys = static_graph_for(cfg, IslMode.CONVENTIONAL)
        assert edge_count(keys, IslKind.H_ISL) == 0
        assert edge_count(keys, IslKind.V_ISL) == 8

    def test_connected_when_h_links_exist(self):
        assert is_connected(static_graph_for(make_config(), IslMode.CONVENTIONAL), 648)

    def test_disconnected_without_h_links(self):
        # 3x6 at polar 20: no 60-deg row fits between the 140-deg caps
        cfg = ConstellationConfig(num_planes=3, sats_per_plane=6, polar_threshold_deg=20.0)
        keys = static_graph_for(cfg, IslMode.CONVENTIONAL)
        assert edge_count(keys, IslKind.H_ISL) == 0
        assert not is_connected(keys, 18)


def test_import_loads_no_scipy():
    # the graph code runs on numpy alone; scipy is for the oracles in verify
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(leovn.__file__).parents[1]), env.get("PYTHONPATH")]))
    code = ("import sys, leovn.virtualgraph; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


class TestMapping:
    def test_csd_instance_equals_static_graph_at_epochs(self):
        for f, mode in ((0, IslMode.CONVENTIONAL), (2, IslMode.OPTIMIZED),
                        (6, IslMode.OPTIMIZED)):
            cfg = make_config(F=f)
            static = static_graph_for(cfg, mode)
            for t in switching_epochs(cfg, 2) + [137.0, cfg.period * 0.4]:
                instance = instance_at(cfg, VnMethod.CSD, mode, t, None)
                assert np.array_equal(instance, static)

    def test_csd_addressing_is_bijective(self):
        cfg = make_config(F=2)
        serving = csd_addressing(cfg, 512.0)
        assert serving.shape == (36, 18)
        assert sorted(serving.ravel().tolist()) == list(range(648))

    def test_grd2_frozen_epoch_matches_csd(self):
        cfg = make_config()
        grid = build_grd_grid(cfg)
        serving = grd_assignment(cfg, grid, 0.0, VnMethod.GRD2)
        _, _, conflicts = method_instance(cfg, VnMethod.GRD2, IslMode.CONVENTIONAL,
                                          0.0, grid)
        assert conflicts == 0
        assert np.array_equal(serving, csd_addressing(cfg, 0.0))
        # with a common shut-off rule the mapped instances coincide too
        edges = snapshot_edges(cfg, IslMode.CONVENTIONAL, 0.0,
                               ShutoffRule.PER_SATELLITE)
        assert np.array_equal(map_snapshot(edges, serving),
                              map_snapshot(edges, csd_addressing(cfg, 0.0)))

    def test_grd_mapping_conflicts_counted(self):
        cfg = make_config()
        _, _, conflicts = method_instance(cfg, VnMethod.GRD2, IslMode.CONVENTIONAL,
                                          SIDEREAL_DAY / 5, build_grd_grid(cfg))
        assert conflicts > 0  # drifted geometry doubles some satellites up


def oracle_instance(snapshot, serving):
    """Per-edge reference: invert cell -> satellite, relabel each active edge."""
    n2, n1 = serving.shape
    cells_of = defaultdict(list)
    for v in range(n2):
        for h in range(n1):
            if serving[v, h] >= 0:
                cells_of[int(serving[v, h])].append((v + 1, h + 1))
    out = set()
    for (a, b), kind, active in zip(snapshot.pairs.tolist(), snapshot.kind.tolist(),
                                    snapshot.active.tolist()):
        for addr_a in cells_of[a] if active else ():
            for addr_b in cells_of[b]:
                out.add((min(addr_a, addr_b), max(addr_a, addr_b), kind))
    conflicts = sum(1 for cells in cells_of.values() if len(cells) > 1)
    return out, conflicts


def oracle_cause(edge, serving, polar, cfg, method):
    """Per-edge reference for the cause of an edge absent at this sample."""
    (va, ha), (vb, hb), _ = edge
    sa, sb = int(serving[va - 1, ha - 1]), int(serving[vb - 1, hb - 1])
    if sa < 0 or sb < 0:
        return EventCause.COVERAGE_LOSS
    planes = {sa // cfg.sats_per_plane + 1, sb // cfg.sats_per_plane + 1}
    if method is VnMethod.GRD2 and planes == {1, cfg.num_planes}:
        return EventCause.SEAM_DRIFT
    in_a, in_b = (bool(polar[s]) for s in (sa, sb))
    return EventCause.ASYNC_SWITCH if in_a != in_b else EventCause.POLAR


class TestHandBuiltMapping:
    # 2 rows x 4 planes = 8 cells and 8 satellites: satellite 0 serves cells
    # 0, 3 and 5, satellite 1 cells 1 and 6, satellites 2 and 3 one cell each,
    # cell 7 is unserved and satellites 4..7 serve nothing
    SERVING = np.array([[0, 1, 2, 0], [3, 0, 1, -1]])
    PAIRS = np.array([[0, 1], [0, 1], [1, 2], [2, 4], [3, 5], [2, 3]])
    KIND = np.array([IslKind.V_ISL, IslKind.H_ISL, IslKind.V_ISL, IslKind.H_ISL,
                     IslKind.V_ISL, IslKind.H_ISL])
    ACTIVE = np.array([True, True, True, True, True, False])

    def snapshot(self):
        return IslSnapshot(pairs=self.PAIRS, kind=self.KIND, active=self.ACTIVE)

    def test_multi_cell_satellites_link_every_cell_pair(self):
        keys = map_snapshot(self.snapshot(), self.SERVING)
        assert keys.dtype == np.int64 and np.all(np.diff(keys) > 0)
        a_v, a_h, b_v, b_h, kind = edge_addresses(keys, 4, 8)
        got = list(zip(zip(a_v.tolist(), a_h.tolist()), zip(b_v.tolist(), b_h.tolist()),
                       kind.tolist()))
        want, conflicts = oracle_instance(self.snapshot(), self.SERVING)
        assert got == sorted(want) and conflicts == 2
        # edge (0, 1) of each kind: 3 x 2 cell pairs; (1, 2): 2; to unserved: none
        cells_0, cells_1 = [(1, 1), (1, 4), (2, 2)], [(1, 2), (2, 3)]
        for k in IslKind:
            assert {(min(a, b), max(a, b), k) for a in cells_0 for b in cells_1} <= set(got)
        assert len(got) == 6 + 6 + 2

    def test_unserved_satellites_link_nothing(self):
        keys = map_snapshot(self.snapshot(), np.full((2, 4), -1))
        assert keys.dtype == np.int64 and keys.size == 0
        assert oracle_instance(self.snapshot(), np.full((2, 4), -1)) == (set(), 0)


class TestMappingOracle:
    @settings(max_examples=40, deadline=None)
    @given(n1=st.integers(2, 8), n2=st.integers(3, 12), f=st.integers(0, 11),
           polar=st.sampled_from([55.0, 63.5, 70.0, 85.0]),
           method=st.sampled_from(VnMethod), mode=st.sampled_from(IslMode),
           t1=st.floats(0.0, SIDEREAL_DAY), t2=st.floats(0.0, SIDEREAL_DAY))
    @example(n1=18, n2=36, f=0, polar=70.0, method=VnMethod.GRD2,
             mode=IslMode.CONVENTIONAL, t1=SIDEREAL_DAY / 5, t2=0.0)
    def test_keys_and_causes_match_per_edge_oracle(self, n1, n2, f, polar, method,
                                                   mode, t1, t2):
        f %= n2
        if mode is IslMode.OPTIMIZED and f > n1:
            mode = IslMode.CONVENTIONAL
        cfg = ConstellationConfig(num_planes=n1, sats_per_plane=n2, phasing_factor=f,
                                  polar_threshold_deg=polar)
        grid = None if method is VnMethod.CSD else build_grd_grid(cfg)
        rule = (ShutoffRule.ROW_SYNCHRONIZED if method is VnMethod.CSD
                else ShutoffRule.PER_SATELLITE)
        states = []
        for t in (t1, t2):
            snapshot, serving, conflicts = method_instance(cfg, method, mode, t, grid)
            keys = map_snapshot(snapshot, serving)
            want, want_conflicts = oracle_instance(
                snapshot_edges(cfg, mode, t, rule), serving)
            a_v, a_h, b_v, b_h, kind = edge_addresses(keys, n1, n1 * n2)
            got = list(zip(zip(a_v.tolist(), a_h.tolist()),
                           zip(b_v.tolist(), b_h.tolist()), kind.tolist()))
            assert got == sorted(want)          # key order is tuple order
            assert conflicts == want_conflicts
            states.append((keys, serving, polar_mask(cfg, t)))
        union = np.union1d(states[0][0], states[1][0])
        a_v, a_h, b_v, b_h, kind = edge_addresses(union, n1, n1 * n2)
        edges = list(zip(zip(a_v.tolist(), a_h.tolist()),
                         zip(b_v.tolist(), b_h.tolist()), kind.tolist()))
        for _, serving, polar in states:
            got = event_causes(union, serving, polar, cfg, method).tolist()
            assert got == [oracle_cause(e, serving, polar, cfg, method) for e in edges]


@pytest.mark.parametrize("polar,phase0,link_on", [
    (70.0, 110.0, False),   # descending at the threshold: polar
    (70.0, 70.0, True),     # ascending at the threshold: not polar
    (54.0, 126.0, True),    # a latitude test (arcsin of the sine) says polar
])
def test_event_cause_agrees_with_the_shutoff_at_the_threshold(polar, phase0, link_on):
    # 2x3, F=1: satellite 0 sits exactly at the threshold latitude and its
    # row-1 partner in plane 2, 60 deg further along, is clear of both caps,
    # so the link is off iff satellite 0 is polar, and then its event is an
    # asynchronous switch
    cfg = ConstellationConfig(num_planes=2, sats_per_plane=3, phasing_factor=1,
                              polar_threshold_deg=polar, phase0_deg=phase0)
    rule = row_activity(cfg, IslMode.CONVENTIONAL, 0.0, ShutoffRule.PER_SATELLITE)
    assert bool(rule[0, 0]) is link_on
    serving = csd_addressing(cfg, 0.0)
    cell_a, cell_b = (np.flatnonzero(serving.ravel() == s)[0]
                      for s in row_chains(cfg, IslMode.CONVENTIONAL)[0].tolist())
    key = _edge_keys(np.array([cell_a]), np.array([cell_b]), IslKind.H_ISL, serving.size)
    cause = event_causes(key, serving, polar_mask(cfg, 0.0), cfg, VnMethod.GRD1)
    assert (cause[0] == EventCause.ASYNC_SWITCH) == (not link_on)


class TestSeam:
    def test_epoch_is_structural_boundary(self):
        assert seam_columns(make_config(), 0.0) == 1

    def test_fan_advance_after_one_nth_day(self):
        # ground turns 2 column widths per sidereal_day/n1 against the pi fan
        cfg = make_config()
        assert seam_columns(cfg, SIDEREAL_DAY / 18) == 17

    def test_full_day_period(self):
        cfg = make_config()
        assert seam_columns(cfg, SIDEREAL_DAY) == 1


def oracle_events(cfg, method, mode, duration_s, samples):
    """Report event rows from mapping every sample and diffing every
    consecutive pair with setdiff1d, the polar mask at every sample (the
    earlier loop), and the per-sample sum of satellites serving more than one cell."""
    grid = None if method is VnMethod.CSD else build_grd_grid(cfg)
    rows = [np.empty((0, 4), dtype=np.int64)]
    conflicts = 0
    prev = None
    for i, t in enumerate(sample_times(cfg, duration_s, samples)):
        snapshot, serving, _ = method_instance(cfg, method, mode, t, grid)
        instance = map_snapshot(snapshot, serving)
        _, cells_per_sat = np.unique(serving[serving >= 0], return_counts=True)
        conflicts += int(np.count_nonzero(cells_per_sat > 1))
        polar = polar_mask(cfg, t)
        if prev is not None:
            added = np.setdiff1d(instance, prev[0], assume_unique=True)
            removed = np.setdiff1d(prev[0], instance, assume_unique=True)
            causes = np.concatenate([event_causes(added, prev[1], prev[2], cfg, method),
                                     event_causes(removed, serving, polar, cfg, method)])
            changes = np.repeat([EventChange.ADDED, EventChange.REMOVED],
                                [len(added), len(removed)])
            keys = np.concatenate([added, removed])
            rows.append(np.stack([np.full(len(keys), i), keys, changes, causes], axis=1))
        prev = instance, serving, polar
    return np.concatenate(rows), conflicts


class TestStaticnessReport:
    @pytest.mark.parametrize("method", VnMethod)
    @pytest.mark.parametrize("n1,n2,f,mode,inclination", [
        (6, 12, 1, IslMode.CONVENTIONAL, 90.0),
        (5, 9, 3, IslMode.OPTIMIZED, 90.0),
        (7, 11, 0, IslMode.CONVENTIONAL, 86.4),
        (9, 18, 2, IslMode.CONVENTIONAL, 90.0),    # serving moves under equal instances
        # GRD2 keeps its serving array and active mask over 5 sample pairs,
        # each time with satellites serving two cells
        (4, 12, 1, IslMode.CONVENTIONAL, 60.0),
    ])
    def test_events_match_every_pair_setdiff_oracle(self, method, n1, n2, f, mode,
                                                    inclination):
        cfg = ConstellationConfig(num_planes=n1, sats_per_plane=n2, phasing_factor=f,
                                  inclination_deg=inclination)
        rep, blocks = report_blocks(cfg, method, mode, 15000.0, 40)
        want, want_conflicts = oracle_events(cfg, method, mode, 15000.0, 40)
        times = sample_times(cfg, 15000.0, 40)
        rows = [np.empty((0, 4), dtype=np.int64)]
        for t, keys, changes, causes in blocks:
            i = times.index(t)
            assert type(t) is type(times[i])    # the sample-time object itself
            rows.append(np.stack([np.full(len(keys), i), keys, changes, causes], axis=1))
        got = np.concatenate(rows)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert rep.mapping_conflicts == want_conflicts
        # the tallies count the blocks' events, causes in first-appearance order
        by_cause = Counter(EventCause(code).name for code in got[:, 3].tolist())
        assert rep.event_count == len(got)
        assert list(rep.events_by_cause.items()) == list(by_cause.items())

    @given(a=st.sets(st.integers(0, 300)), b=st.sets(st.integers(0, 300)))
    def test_missing_keys_equal_setdiff(self, a, b):
        keys, other = (np.array(sorted(x), dtype=np.int64) for x in (a, b))
        got = _missing(keys, other)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.setdiff1d(keys, other, assume_unique=True))

    def test_csd_matched_division_is_event_free(self):
        for f in (0, 2):
            cfg = make_config(F=f)
            rep = staticness_report(cfg, VnMethod.CSD, IslMode.OPTIMIZED,
                                    cfg.period, 90)
            assert rep.event_count == 0
            assert rep.events_by_cause == {}
            assert rep.seam_column_history == []

    @settings(max_examples=150, deadline=None)
    @given(case=configs(max_planes=9, max_slots=17))
    def test_csd_matched_division_is_event_free_over_small_configs(self, case):
        # the paper's headline staticness claim, over the accepted domain at
        # small sizes: one orbit, handover epochs included
        cfg, t = case
        assume(cfg.phasing_factor <= cfg.num_planes)
        rep = staticness_report(cfg, VnMethod.CSD, IslMode.OPTIMIZED, cfg.period, 6)
        assert rep.event_count == 0
        instance = instance_at(cfg, VnMethod.CSD, IslMode.OPTIMIZED, t, None)
        assert np.array_equal(instance, static_graph_for(cfg, IslMode.OPTIMIZED))

    def test_csd_conventional_rows_are_static_but_skewed(self):
        # row-synchronized shut-off keeps even conventional chains static;
        # the phased grid absorbs whole-step offsets, so the instance is
        # time-invariant but picks up diagonal links instead of same-row ones
        cfg = make_config(F=2)
        rep = staticness_report(cfg, VnMethod.CSD, IslMode.CONVENTIONAL,
                                cfg.period / 4, 120)
        assert rep.event_count == 0
        instance = instance_at(cfg, VnMethod.CSD, IslMode.CONVENTIONAL, 0.0, None)
        assert not np.array_equal(instance, static_graph_for(cfg, IslMode.CONVENTIONAL))

    def test_grd2_seam_history_and_drift_events(self):
        cfg = make_config()
        rep = staticness_report(cfg, VnMethod.GRD2, IslMode.CONVENTIONAL,
                                SIDEREAL_DAY / 6, 240)
        cols = {c for _, c in rep.seam_column_history}
        assert len(cols) >= 3  # a sixth of a day sweeps a third of the fan
        assert rep.events_by_cause.get("SEAM_DRIFT", 0) >= 3
        assert rep.event_count == sum(rep.events_by_cause.values())

    def test_grd1_records_coverage_loss(self):
        cfg = make_config()
        rep = staticness_report(cfg, VnMethod.GRD1, IslMode.CONVENTIONAL,
                                SIDEREAL_DAY / 4, 120)
        assert rep.events_by_cause.get("COVERAGE_LOSS", 0) >= 1

    def test_grd_async_switches_require_phasing(self):
        cfg = make_config(F=2)
        rep = staticness_report(cfg, VnMethod.GRD2, IslMode.CONVENTIONAL,
                                cfg.period / 2, 150)
        assert rep.events_by_cause.get("ASYNC_SWITCH", 0) >= 1

    def test_sample_guard(self):
        with pytest.raises(ValueError):
            staticness_report(make_config(), VnMethod.CSD, IslMode.CONVENTIONAL,
                              100.0, 1)
