import csv
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leovn.cli import main
from leovn.constellation import (
    R_EARTH,
    SIDEREAL_DAY,
    ConstellationConfig,
    propagate_all,
)
from leovn.division import (
    GrdVariant,
    build_grd_grid,
    cell_bounds,
    cell_shifts_deg,
    csd_rows_all,
    fold_lat_deg,
    grd_assignment,
    grd_switch_interval,
    phase_step_deg,
    row_start_deg,
    switching_epochs,
)
from leovn.isl import IslMode, active_row_set
from leovn.verify import boundaries_by_scan, rows_by_scan

from helpers import configs


def make_config(**kw):
    base = dict(num_planes=18, sats_per_plane=36, phasing_factor=0,
                altitude_km=780.0, polar_threshold_deg=70.0)
    base.update(kw)
    return ConstellationConfig(**base)


def lon_range(config, plane):
    cell = cell_bounds(config, 1, plane)
    return cell.lon_low, cell.lon_high


def lat_range(config, row, plane):
    cell = cell_bounds(config, row, plane)
    return cell.lat_low, cell.lat_high, cell.pole_wrap


class TestLongitudeRange:
    # 18 planes: columns 10 deg wide
    def test_first_cell_at_origin(self):
        assert lon_range(make_config(), 1) == (0.0, 10.0)

    def test_antimeridian_wraparound(self):
        assert lon_range(make_config(), 18) == (170.0, -180.0)

    def test_offset_origin(self):
        assert lon_range(make_config(raan0_deg=5.0), 10) == (95.0, 105.0)

    @given(lon0=st.integers(-720, 720), n1=st.integers(2, 64), data=st.data())
    def test_outputs_always_normalized(self, lon0, n1, data):
        h = data.draw(st.integers(1, n1))
        lo, hi = lon_range(make_config(num_planes=n1, raan0_deg=lon0), h)
        assert -180 <= lo < 180 and -180 <= hi < 180


class TestLatitudeRange:
    def test_first_band_ascending(self):
        assert lat_range(make_config(), 1, 1) == (-70.0, -60.0, False)

    def test_band_over_the_pole_descends(self):
        lo, hi, wrap = lat_range(make_config(), 17, 1)
        assert (lo, hi) == (90.0, 80.0)
        assert wrap  # band [90, 100) holds the pole crossing

    def test_band_just_below_pole_not_wrapped(self):
        assert lat_range(make_config(), 16, 1) == (80.0, 90.0, False)

    def test_phased_offset_shifts_band(self):
        # n1=4, F=2: K=2, delta_f=5 deg, so plane 2's grid sits 5 deg further
        # along track
        cfg = make_config(num_planes=4, phasing_factor=2)
        assert lat_range(cfg, 1, 2) == (-65.0, -55.0, False)

    @given(theta=st.fractions(min_value=-1000, max_value=1000))
    def test_fold_stays_in_latitude_range(self, theta):
        folded = fold_lat_deg(theta)
        assert -90 <= folded <= 90

    @given(theta=st.fractions(min_value=-500, max_value=500))
    def test_fold_mirror_symmetry(self, theta):
        # the fold is symmetric about the pole at 90
        assert fold_lat_deg(theta) == fold_lat_deg(180 - theta)


class TestPlaneShift:
    @given(n1=st.integers(2, 24), n2=st.integers(3, 39), data=st.data())
    def test_equals_mod_k_times_delta_f(self, n1, n2, data):
        # the paper's form: mod(h-1, K) * delta_f, K = n1/F, in exact rationals
        f, h = data.draw(st.integers(0, n2 - 1)), data.draw(st.integers(1, n1))
        want = Fraction(0)
        if f:
            k = Fraction(n1, f)
            want = ((h - 1) - math.floor((h - 1) / k) * k) * Fraction(360 * f, n1 * n2)
        cfg = make_config(num_planes=n1, sats_per_plane=n2, phasing_factor=f)
        assert cell_shifts_deg(cfg)[h - 1] == want


def divide_regions(tmp_path, n1, n2, polar, f=0, mode="conventional"):
    """Row -> region label of a ``divide`` CSV; every cell of a row agrees."""
    out = tmp_path / f"division-{n1}x{n2}-{polar}-{f}-{mode}.csv"
    assert main(["divide", "--n1", str(n1), "--n2", str(n2), "--polar-deg", str(polar),
                 "--f", str(f), "--mode", mode, "--out", str(out)]) == 0
    labels = {}
    with open(out, newline="") as fh:
        for row in csv.DictReader(fh):
            assert labels.setdefault(int(row["v"]), row["region"]) == row["region"]
    return labels


class TestRegionBoundaries:
    """The paper's region rows (``verify.boundaries_by_scan``) and the
    geometric active rows (``isl.active_row_set``) that they describe on a
    polar orbit."""

    @pytest.mark.parametrize("n2,polar,expect", [
        (36, 70, (14, 19, 32)),
        (36, 90, (18, 19, 36)),
        (36, 64, (12, 19, 30)),
    ])
    def test_known_values(self, n2, polar, expect):
        assert boundaries_by_scan(n2, polar, 0) == expect

    def test_threshold_90_leaves_no_polar_rows(self, tmp_path):
        assert rows_by_scan(36, 90) == frozenset(range(1, 37))
        assert set(divide_regions(tmp_path, 2, 36, 90).values()) == {"R1", "R2"}

    @staticmethod
    def integer_k_spread(n2, k):
        """(K-1) * delta_f, the optimized row spread at integer K."""
        return (k - 1) / k * Fraction(360, n2)

    @pytest.mark.parametrize("n2,polar,k,expect_r1_end", [
        (36, 70, Fraction(9), 13),    # F=2, n1=18
        (36, 70, Fraction(2), 13),
        (36, 64, Fraction(3), 12),    # F=6, n1=18
    ])
    def test_phased_closed_form(self, n2, polar, k, expect_r1_end):
        assert boundaries_by_scan(n2, polar, self.integer_k_spread(n2, k))[0] == expect_r1_end

    def test_phased_k9_full_boundaries(self):
        spread = self.integer_k_spread(36, Fraction(9))
        assert boundaries_by_scan(36, 70, spread) == (13, 19, 31)

    @pytest.mark.parametrize("f,mode,expect", [
        (0, IslMode.CONVENTIONAL, (14, 19, 32)),
        (2, IslMode.OPTIMIZED, (13, 19, 31)),
    ])
    def test_paper_scale_active_rows(self, f, mode, expect):
        r1_end, r2_start, r2_end = expect
        cfg = make_config(phasing_factor=f)
        want = set(range(1, r1_end + 1)) | set(range(r2_start, r2_end + 1))
        assert active_row_set(cfg, mode) == want
        assert rows_by_scan(36, 70, max(cell_shifts_deg(cfg))) == want

    def test_fractional_k_uses_realized_spread(self):
        # F=5, n1=18: K=3.6, max spread = 3.4 * delta_f
        delta_f = Fraction(360 * 5, 18 * 36)
        spread = Fraction(17, 5) * delta_f
        assert boundaries_by_scan(36, 64, spread)[0] == 11
        cfg = make_config(phasing_factor=5, polar_threshold_deg=64.0)
        assert active_row_set(cfg, IslMode.OPTIMIZED) == rows_by_scan(36, 64, spread)

    def test_r1_end_monotone_in_spread(self):
        step = Fraction(360, 36)
        prev = None
        for spread in (Fraction(0), step / 4, step / 2, step, 2 * step):
            r1 = boundaries_by_scan(36, 70, spread)[0]
            if prev is not None:
                assert r1 <= prev
            prev = r1

    def test_degenerate_spread_clamps_to_empty(self):
        # n1=6, n2=12, F=5 conventional: spread exceeds the safe arc entirely
        spread = 5 * Fraction(360 * 5, 6 * 12)
        assert boundaries_by_scan(12, 60, spread)[0] == 0
        assert rows_by_scan(12, 60, spread) == frozenset()
        cfg = make_config(num_planes=6, sats_per_plane=12, phasing_factor=5,
                          polar_threshold_deg=60.0)
        assert active_row_set(cfg, IslMode.CONVENTIONAL) == frozenset()

    def test_classify_partitions_every_row(self, tmp_path):
        for n2, polar in ((12, 60), (24, 64), (36, 70), (66, 80)):
            r1_end, r2_start, r2_end = boundaries_by_scan(n2, polar)
            labels = divide_regions(tmp_path, 2, n2, polar)
            assert labels == {v: "R1" if v <= r1_end else "P1" if v < r2_start
                              else "R2" if v <= r2_end else "P2" for v in range(1, n2 + 1)}

    @pytest.mark.parametrize("v,expect", [
        (1, "R1"), (14, "R1"), (18, "P1"), (19, "R2"), (32, "R2"), (33, "P2"),
    ])
    def test_classify_examples(self, tmp_path, v, expect):
        assert divide_regions(tmp_path, 18, 36, 70)[v] == expect


class TestCsdMap:
    def test_cell_start_identity(self):
        cfg = make_config()
        assert csd_rows_all(cfg, 0.0)[0, 0] == 1

    def test_half_open_cells(self):
        # satellite (1,1) placed on the boundary between rows 4 and 5
        # (the division's row 1 starts at -70 whatever the epoch phase)
        def row_at(phase0):
            cfg = make_config(phase0_deg=phase0)
            return csd_rows_all(cfg, 0.0)[0, 0]

        boundary = -70.0 + 4 * 10.0
        assert row_at(boundary) == 5
        assert row_at(boundary - 1e-13) == 5  # snap
        assert row_at(boundary - 1e-6) == 4

    def test_full_period_sweep_cycles_in_order(self):
        cfg = make_config(sats_per_plane=12, num_planes=6)
        seen = []
        for t in range(0, int(cfg.period) + 2, 1):
            row = csd_rows_all(cfg, float(t))[0, 0]
            if not seen or seen[-1] != row:
                seen.append(row)
        assert seen[:13] == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1]

    @pytest.mark.parametrize("F", [0, 2, 5])
    def test_bijection_at_sampled_times(self, F):
        cfg = make_config(phasing_factor=F)
        full = {(v, h) for v in range(1, 37) for h in range(1, 19)}
        for t in (0.0, 100.0, cfg.period / 3, cfg.period * 0.77):
            rows = csd_rows_all(cfg, t)
            got = {(int(rows[h, j]), h + 1) for h in range(18) for j in range(36)}
            assert got == full

    def test_address_stable_between_epochs(self):
        cfg = make_config(phasing_factor=2)
        epochs = switching_epochs(cfg, 3)
        mid_a = (epochs[0] + epochs[1]) / 2
        mid_b = epochs[0] + 0.9 * (epochs[1] - epochs[0])
        assert np.array_equal(csd_rows_all(cfg, mid_a), csd_rows_all(cfg, mid_b))
        assert not np.array_equal(csd_rows_all(cfg, mid_a),
                                  csd_rows_all(cfg, epochs[1] + 0.1))

    def test_cells_tile_the_phase_circle(self):
        cfg = make_config(phasing_factor=2)
        step = phase_step_deg(cfg)
        for h in (1, 2, 7, 18):
            spans = [row_start_deg(cfg, v + 1, h) - row_start_deg(cfg, v, h)
                     for v in range(1, 36)]
            assert sum(spans) + step == 360
            assert all(s == step for s in spans)


class TestSwitchInterval:
    @pytest.mark.parametrize("period,n2,expect", [
        (6540.0, 36, 6540.0 / 36),
        (6000.0, 1, 6000.0),
        (5400.0, 30, 180.0),
    ])
    def test_values(self, period, n2, expect):
        assert grd_switch_interval(period, n2) == expect

    def test_epochs_are_uniform(self):
        cfg = make_config()
        epochs = switching_epochs(cfg, 5)
        assert epochs[0] == pytest.approx(0.0, abs=1e-9)
        steps = np.diff(epochs)
        assert np.allclose(steps, cfg.period / 36)


def sub_points(config, t):
    """(N, 3) Earth-fixed unit vectors of the satellites' sub-points."""
    _, _, lats, lons = propagate_all(config, t)
    return np.stack([np.cos(lats) * np.cos(lons),
                     np.cos(lats) * np.sin(lons),
                     np.sin(lats)], axis=1)


def grd_assignment_oracle(config, grid, t, variant):
    """Serving arrays from the full cells x satellites score matrix, the
    own-plane scores read back out of it (the earlier implementation)."""
    n1, n2 = config.num_planes, config.sats_per_plane
    score = grid.reshape(-1, 3) @ sub_points(config, t).T
    cells = np.arange(len(score))
    cell_planes = cells % n1
    own = score.reshape(-1, n1, n2)[cells, cell_planes]
    own_slot = np.argmax(own, axis=1)
    own_top = own[cells, own_slot]
    own_best = np.ravel_multi_index((cell_planes, own_slot), (n1, n2))
    if variant is GrdVariant.INTER_PLANE:
        best = np.argmax(score, axis=1)
        top = score[cells, best]
        tie = np.isclose(top, 1.0, atol=1e-12) & (own_top >= top - 1e-12)
        best = np.where(tie, own_best, best)
    else:
        best, top = own_best, own_top
    horizon = math.cos(math.acos(R_EARTH / config.orbit_radius))
    return np.where(top >= horizon, best, -1).reshape(n2, n1)


class TestGrdAssignmentOracle:
    """Own-plane stacked scores must pick exactly what the full score matrix
    picks, ties and horizon cut-offs included."""

    @settings(max_examples=150, deadline=None)
    @given(case=configs(), variant=st.sampled_from(GrdVariant))
    def test_matches_full_score_matrix(self, case, variant):
        cfg, t = case
        grid = build_grd_grid(cfg)
        assert np.array_equal(grd_assignment(cfg, grid, t, variant),
                              grd_assignment_oracle(cfg, grid, t, variant))

    @settings(max_examples=50, deadline=None)
    @given(t=st.floats(0.0, 2 * SIDEREAL_DAY), inclination=st.floats(0.5, 180.0))
    def test_own_plane_blocks_equal_full_gemm_bits_at_paper_scale(self, t, inclination):
        # README "Conventions": at 18x36 the stacked own-plane gemm and the
        # full gemm round alike (other shapes may differ in the last bit)
        cfg = make_config(inclination_deg=inclination)
        n1, n2 = cfg.num_planes, cfg.sats_per_plane
        grid = build_grd_grid(cfg)
        sub = sub_points(cfg, t)
        blocks = np.matmul(grid.transpose(1, 0, 2),
                           sub.reshape(n1, n2, 3).transpose(0, 2, 1))
        full = (grid.reshape(-1, 3) @ sub.T).reshape(n2, n1, n1, n2)
        planes = np.arange(n1)
        assert np.array_equal(blocks, full[:, planes, planes].transpose(1, 0, 2))

    def test_matches_full_score_matrix_at_paper_scale_epochs(self):
        # handover epochs put satellites exactly on cell boundaries
        cfg = make_config()
        grid = build_grd_grid(cfg)
        for t in switching_epochs(cfg, 130):
            for variant in GrdVariant:
                assert np.array_equal(grd_assignment(cfg, grid, t, variant),
                                      grd_assignment_oracle(cfg, grid, t, variant))


class TestGrdGrid:
    def test_frozen_assignment_matches_csd_at_epoch(self):
        cfg = make_config()
        grid = build_grd_grid(cfg)
        serving = grd_assignment(cfg, grid, 0.0, GrdVariant.INTER_PLANE)
        rows = csd_rows_all(cfg, 0.0)
        for h in range(18):
            for j in range(36):
                v = int(rows[h, j])
                assert serving[v - 1, h] == h * 36 + j
        intra = grd_assignment(cfg, grid, 0.0, GrdVariant.INTRA_ONLY)
        assert np.array_equal(serving, intra)

    def test_intra_only_loses_coverage_eventually(self):
        cfg = make_config()
        grid = build_grd_grid(cfg)
        # after a ~90 deg Earth rotation the equatorial anchors sit far from
        # their planes' tracks
        serving = grd_assignment(cfg, grid, SIDEREAL_DAY / 4, GrdVariant.INTRA_ONLY)
        assert (serving == -1).any()

    def test_inter_plane_rarely_uncovered(self):
        cfg = make_config()
        grid = build_grd_grid(cfg)
        serving = grd_assignment(cfg, grid, SIDEREAL_DAY / 4, GrdVariant.INTER_PLANE)
        assert (serving >= 0).all()

    def test_quarter_day_shifts_serving_plane_by_half_fan(self):
        # Earth turns 90 deg = n1/2 columns of the pi-wide fan
        cfg = make_config()
        grid = build_grd_grid(cfg)
        t = SIDEREAL_DAY / 4
        serving = grd_assignment(cfg, grid, t, GrdVariant.INTER_PLANE)
        shifts = []
        for h in range(18):
            # equatorial-ish cell of each column
            plane_now = int(serving[7, h]) // 36 + 1
            shift = (plane_now - (h + 1)) % 18
            shifts.append(shift)
        common = max(set(shifts), key=shifts.count)
        assert common in (8, 9, 10)
        assert shifts.count(common) >= 12

    def test_assignment_serves_own_cell_or_nothing(self):
        cfg = make_config()
        grid = build_grd_grid(cfg)
        # at the frozen epoch satellite (1,1) serves exactly cell (1,1)
        serving = grd_assignment(cfg, grid, 0.0, GrdVariant.INTER_PLANE)
        assert np.argwhere(serving == 0).tolist() == [[0, 0]]
        # a satellite whose plane drifted off its column serves nothing
        late = grd_assignment(cfg, grid, SIDEREAL_DAY / 4, GrdVariant.INTRA_ONLY)
        assert not (late == 0).any()


class TestCellBounds:
    def test_bounds_assemble_lat_and_lon(self):
        cell = cell_bounds(make_config(), 1, 1)
        assert (cell.lat_low, cell.lat_high) == (-70.0, -60.0)
        assert (cell.lon_low, cell.lon_high) == (0.0, 10.0)
        assert not cell.pole_wrap

    def test_pole_wrap_off_grid_origin(self):
        # origin not aligned with the pole: exactly one band strictly
        # contains +90
        cfg = make_config(polar_threshold_deg=64.0)
        wraps = [cell_bounds(cfg, v, 1).pole_wrap for v in range(1, 37)]
        assert sum(wraps) == 2  # one north, one south crossing
        assert wraps[15]  # band [86, 96) holds the north pole
