import csv
import math
import multiprocessing
import os
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leovn.cli import _division_rows, _fold_lat, main
from leovn.constellation import (
    R_EARTH,
    SIDEREAL_DAY,
    ConstellationConfig,
    _orbit_unit_vectors,
    propagate_all,
)
from leovn.division import (
    VnMethod,
    _coverage_cos_limit,
    _score_blocks,
    backward_links,
    build_grd_grid,
    cell_starts,
    csd_rows_all,
    exact_angles,
    grd_assignment,
    switching_epochs,
)
from leovn.isl import IslMode, active_row_set
from leovn.verify import _table_spreads_deg, boundaries_by_scan, rows_by_scan, theorem1_layouts

from helpers import (
    cell_bounds,
    cell_shifts_deg,
    configs,
    fold_lat_deg,
    fraction_active_rows,
    phase_offset_deg,
    phase_step_deg,
    polar_cap_phase_spans,
    raan_deg,
    row_origin_deg,
    row_start_deg,
    switching_epochs_by_fractions,
)

GRD_METHODS = (VnMethod.GRD1, VnMethod.GRD2)


def make_config(**kw):
    base = dict(num_planes=18, sats_per_plane=36, phasing_factor=0,
                altitude_km=780.0, polar_threshold_deg=70.0)
    base.update(kw)
    return ConstellationConfig(**base)


def divide_cell(config, row, plane):
    """``divide``'s [lat_low, lat_high, lon_low, lon_high, pole_wrap] of cell
    (row, plane)."""
    return _division_rows(config, IslMode.CONVENTIONAL)[
        (row - 1) * config.num_planes + plane - 1][3:]


def lon_range(config, plane):
    return tuple(divide_cell(config, 1, plane)[2:4])


def lat_range(config, row, plane):
    lat_low, lat_high, _, _, pole_wrap = divide_cell(config, row, plane)
    return lat_low, lat_high, pole_wrap


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

    @pytest.mark.parametrize("theta,want", [(0, 0.0), (80, 80.0), (100, 80.0),
                                            (180, 0.0), (250, -70.0)])
    def test_fold_examples(self, theta, want):
        assert _fold_lat(theta, 1) == want

    @given(theta=st.fractions(min_value=-1000, max_value=1000))
    def test_fold_stays_in_latitude_range(self, theta):
        folded = _fold_lat(theta.numerator, theta.denominator)
        assert -90 <= folded <= 90
        assert folded == float(fold_lat_deg(theta))

    @given(theta=st.fractions(min_value=-500, max_value=500))
    def test_fold_mirror_symmetry(self, theta):
        # the fold is symmetric about the pole at 90
        n, d = theta.numerator, theta.denominator
        assert _fold_lat(n, d) == _fold_lat(180 * d - n, d)


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
        assert _table_spreads_deg(cfg, backward_links(n1, f))[h - 1] == want

    def test_uncrossed_row_spreads_by_delta_f_per_plane(self):
        cfg = make_config(phasing_factor=2)
        assert _table_spreads_deg(cfg, np.zeros(18, dtype=int)) == [
            h * phase_offset_deg(cfg) for h in range(18)]


class TestBackwardLinks:
    @pytest.mark.parametrize("n1,f,expect", [
        (18, 0, [0] * 18),
        (18, 2, [0] * 9 + [1] * 9),     # one link, before plane 10
        (3, 3, [0, 1, 2]),              # K = 1: one before every plane
        (4, 6, [0, 1, 3, 4]),           # F > n1: two before plane 3
    ])
    def test_known_values(self, n1, f, expect):
        assert backward_links(n1, f).tolist() == expect

    def test_at_most_one_link_per_boundary_up_to_f_equals_n1(self):
        for n1 in range(2, 25):
            for f in range(n1 + 1):
                assert set(np.diff(backward_links(n1, f)).tolist()) <= {0, 1}, (n1, f)


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
        starts, step, den = cell_starts(cfg)
        assert Fraction(step, den) == phase_step_deg(cfg)
        for h in (1, 2, 7, 18):
            spans = np.diff(starts[:, h - 1]).tolist()
            assert sum(spans) + step == 360 * den
            assert all(s == step for s in spans)


class TestSwitchingEpochs:
    @pytest.mark.parametrize("kw", [
        dict(),
        dict(num_planes=6, sats_per_plane=30, altitude_km=550.0),
        dict(num_planes=4, sats_per_plane=3, phasing_factor=1, polar_threshold_deg=64.0),
    ])
    def test_epochs_are_uniform(self, kw):
        cfg = make_config(**kw)
        epochs = switching_epochs(cfg, 5)
        assert epochs[0] == pytest.approx(0.0, abs=1e-9)
        steps = np.diff(epochs)
        assert np.allclose(steps, cfg.period / cfg.sats_per_plane)


def sub_points(config, t):
    """(N, 3) Earth-fixed unit vectors of the satellites' sub-points."""
    _, lats, lons = propagate_all(config, t)
    return np.stack([np.cos(lats) * np.cos(lons),
                     np.cos(lats) * np.sin(lons),
                     np.sin(lats)], axis=1)


def grd_assignment_oracle(config, grid, t, method):
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
    if method is VnMethod.GRD2:
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
    @given(case=configs(), method=st.sampled_from(GRD_METHODS))
    def test_matches_full_score_matrix(self, case, method):
        cfg, t = case
        grid = build_grd_grid(cfg)
        assert np.array_equal(grd_assignment(cfg, grid, t, method),
                              grd_assignment_oracle(cfg, grid, t, method))

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

    @pytest.mark.parametrize("t,near", [(0.0, 648), (3000.0, 0), (1000.0, 36)])
    def test_matches_full_score_matrix_near_and_off_zenith(self, t, near):
        # only cells whose top score passes isclose(top, 1) can tie: every
        # cell at t=0 (each satellite over its own anchor), none at 3000 s,
        # and 36 at 1000 s
        cfg = make_config()
        grid = build_grd_grid(cfg)
        top = (grid.reshape(-1, 3) @ sub_points(cfg, t).T).max(axis=1)
        assert np.count_nonzero(np.isclose(top, 1.0, atol=1e-12)) == near
        for method in GRD_METHODS:
            assert np.array_equal(grd_assignment(cfg, grid, t, method),
                                  grd_assignment_oracle(cfg, grid, t, method))

    def test_matches_full_score_matrix_at_paper_scale_epochs(self):
        # handover epochs put satellites exactly on cell boundaries
        cfg = make_config()
        grid = build_grd_grid(cfg)
        for t in switching_epochs(cfg, 130):
            for method in GRD_METHODS:
                assert np.array_equal(grd_assignment(cfg, grid, t, method),
                                      grd_assignment_oracle(cfg, grid, t, method))

    def test_rejects_the_celestial_method(self):
        cfg = make_config()
        with pytest.raises(ValueError, match="GRD1 or GRD2"):
            grd_assignment(cfg, build_grd_grid(cfg), 0.0, VnMethod.CSD)


def blocked_scores(grid, sub):
    """The GRD2 score matrix as ``grd_assignment`` builds it: one gemm per
    ``_score_blocks`` block, into one reused buffer."""
    flat = grid.reshape(-1, 3)
    bounds = _score_blocks(len(flat), len(sub))
    buf = np.empty((max(np.diff(bounds)), len(sub)))
    score = np.empty((len(flat), len(sub)))
    for lo, hi in zip(bounds, bounds[1:]):
        score[lo:hi] = np.matmul(flat[lo:hi], sub.T, out=buf[:hi - lo])
    return score


@pytest.fixture(scope="module")
def serial_gemm():
    """``a @ b`` with BLAS pinned to one thread, in a spawned worker.

    Multithreaded OpenBLAS splits a large product's rows among its threads
    at bounds that need not be multiples of 12 (462 rows at 2 threads: 231),
    and rounds the rows past such a bound unlike the one-thread product.
    """
    pinned = dict.fromkeys(["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"], "1")
    saved = {name: os.environ.get(name) for name in pinned}
    os.environ.update(pinned)
    try:
        pool = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn"))
        pool.submit(int).result()       # the worker starts, and reads its BLAS settings, here
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name)
            else:
                os.environ[name] = value
    with pool:
        yield lambda a, b: pool.submit(np.matmul, a, b).result()


class TestGrdScoreBlocks:
    """GRD2 scores cells in cache-sized blocks of rows; README "Conventions"
    says when these equal the full cells x satellites gemm bit for bit."""

    @pytest.mark.parametrize("cells,sats,bounds", [
        (648, 648, [0, 96, 192, 288, 384, 480, 576, 648]),  # 18x36: 96 rows fit 512 KiB
        (3600, 3600, list(range(0, 3600, 24)) + [3600]),    # 60x60: never under 24 rows
        (1537, 1537, list(range(0, 1536, 24)) + [1537]),    # 29x53: 1-row tail folded in
        (97, 648, [0, 97]),                                 # 96 rows and a 1-row tail
        (6, 6, [0, 6]),                                     # fits one block: one gemm
    ])
    def test_block_rule(self, cells, sats, bounds):
        assert _score_blocks(cells, sats) == bounds

    @settings(max_examples=50, deadline=None)
    @given(t=st.floats(0.0, 2 * SIDEREAL_DAY), inclination=st.floats(0.5, 180.0))
    def test_blocks_equal_full_gemm_bits_at_paper_scale(self, serial_gemm, t, inclination):
        cfg = make_config(inclination_deg=inclination)
        grid = build_grd_grid(cfg)
        sub = sub_points(cfg, t)
        assert np.array_equal(blocked_scores(grid, sub), serial_gemm(grid.reshape(-1, 3), sub.T))

    @pytest.mark.parametrize("t", [0.0, 1234.5, 50000.0])
    @pytest.mark.parametrize("n1,n2", [
        (23, 23), (29, 53),     # their 1-row tails, scored by gemv, round unlike gemm
        (11, 63), (14, 33),     # 64- or 20-row blocks round unlike the full gemm
    ])
    def test_blocks_equal_full_gemm_bits_off_paper_scale(self, serial_gemm, n1, n2, t):
        cfg = make_config(num_planes=n1, sats_per_plane=n2)
        grid = build_grd_grid(cfg)
        sub = sub_points(cfg, t)
        assert np.array_equal(blocked_scores(grid, sub), serial_gemm(grid.reshape(-1, 3), sub.T))

    @pytest.mark.parametrize("n1", [18, 20, 25])
    def test_pole_ties_resolve_to_own_plane_in_every_block(self, n1):
        # at t=0 one satellite of every plane sits on each pole; at 20 and
        # 25 planes the pole rows fall in blocks that start mid-row
        cfg = make_config(num_planes=n1)
        grid = build_grd_grid(cfg)
        method = VnMethod.GRD2
        assert np.array_equal(grd_assignment(cfg, grid, 0.0, method),
                              grd_assignment_oracle(cfg, grid, 0.0, method))

    def test_inter_plane_memory_is_bounded_at_60x60(self):
        # the full 3600 x 3600 float64 score matrix alone would take 104 MB
        cfg = make_config(num_planes=60, sats_per_plane=60)
        grid = build_grd_grid(cfg)
        grd_assignment(cfg, grid, 1000.0, VnMethod.GRD2)   # fill the caches
        tracemalloc.start()
        try:
            grd_assignment(cfg, grid, 2000.0, VnMethod.GRD2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestGrdTieGate:
    """A GRD2 block skips its tie pass when its best score is farther below
    1.0 than isclose's band about 1.0.  At t=0 one satellite of each of the
    18 planes sits on the north pole, so a cell anchored near the pole ties
    all 18, and the first (plane 1) wins unless the tie pass runs."""

    BAND = 1e-12 + 1e-5     # isclose(top, 1.0, atol=1e-12) with its default rtol

    def edge_scores(self):
        """The lowest score inside the band about 1.0, and one ulp below it."""
        inside = 1.0 - self.BAND
        while 1.0 - inside > self.BAND:
            inside = np.nextafter(inside, 2.0)
        while 1.0 - np.nextafter(inside, 0.0) <= self.BAND:
            inside = np.nextafter(inside, 0.0)
        outside = np.nextafter(inside, 0.0)
        assert np.isclose(inside, 1.0, atol=1e-12) and not np.isclose(outside, 1.0, atol=1e-12)
        return inside, outside

    @pytest.mark.parametrize("edge", ["inside", "outside", "above_one"])
    def test_gate_at_the_band_edge(self, edge):
        cfg = make_config()
        n1, n2 = cfg.num_planes, cfg.sats_per_plane
        inside, outside = self.edge_scores()
        top = {"inside": inside, "outside": outside, "above_one": np.nextafter(1.0, 2.0)}[edge]
        # every other cell anchored ~5 deg from its nearest satellite
        lat, lon = math.radians(4.0), math.radians(3.0)
        grid = np.empty((n2, n1, 3))
        grid[:] = (math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat))
        # cell (1, 6), in the first score block, over the pole: its pole
        # satellites' sub-points are (~6e-17, ~6e-17, 1.0), so each scores top
        cell = 5
        grid[0, cell] = (math.sqrt(max(0.0, 1.0 - top * top)), 0.0, top)
        scores = blocked_scores(grid, sub_points(cfg, 0.0))
        pole_slot = 16
        assert np.all(scores[cell].reshape(n1, n2)[:, pole_slot] == top)
        assert scores[cell].max() == top
        assert np.delete(scores.max(axis=1), cell).max() < 1.0 - 1e-3
        for method in GRD_METHODS:
            assert np.array_equal(grd_assignment(cfg, grid, 0.0, method),
                                  grd_assignment_oracle(cfg, grid, 0.0, method))
        serving = grd_assignment(cfg, grid, 0.0, VnMethod.GRD2)
        own_plane = 0 if edge == "outside" else cell
        assert serving[0, cell] == own_plane * n2 + pole_slot


def grid_by_fractions(config):
    """``build_grd_grid`` from one ``float(row_start_deg(...))`` per cell."""
    n1, n2 = config.num_planes, config.sats_per_plane
    u = np.radians([[float(row_start_deg(config, v, h)) for h in range(1, n1 + 1)]
                    for v in range(1, n2 + 1)])
    raan = np.radians([float(raan_deg(config, h)) for h in range(1, n1 + 1)])
    return _orbit_unit_vectors(u, np.cos(raan), np.sin(raan), config.inclination)


class TestCellStartsExact:
    """The one integer-numerator cell table equals the per-cell ``Fraction``
    reference, and so does ``divide``'s table read from it, floats bit for
    bit."""

    @settings(max_examples=60, deadline=None)
    @given(case=configs())
    def test_table_equals_per_cell_reference(self, case):
        cfg, _ = case
        n1, n2 = cfg.num_planes, cfg.sats_per_plane
        starts, step, den = cell_starts(cfg)
        assert starts.shape == (n2, n1) and Fraction(step, den) == phase_step_deg(cfg)
        cells = [(v, h) for v in range(1, n2 + 1) for h in range(1, n1 + 1)]
        want = [row_start_deg(cfg, v, h) for v, h in cells]
        assert [Fraction(x, den) for x in starts.ravel().tolist()] == want
        floats = np.array([float(x) for x in want])
        assert (starts / den).astype(float).ravel().tobytes() == floats.tobytes()
        rows = _division_rows(cfg, IslMode.CONVENTIONAL)
        assert [row[:2] for row in rows] == [list(cell) for cell in cells]
        got = [row[3:] for row in rows]
        ref = [cell_bounds(cfg, v, h) for v, h in cells]
        assert got == ref
        assert np.array(got, dtype=float).tobytes() == np.array(ref, dtype=float).tobytes()
        assert all(-90 <= row[3] <= 90 and -90 <= row[4] <= 90 for row in rows)


class TestGrdGridExact:
    """The integer-numerator anchor grid equals the per-cell Fraction grid
    bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=configs())
    def test_equals_per_cell_fraction_grid(self, case):
        cfg, _ = case
        assert build_grd_grid(cfg).tobytes() == grid_by_fractions(cfg).tobytes()

    @pytest.mark.parametrize("n1,n2,f,polar,inclination", [
        (18, 36, 6, 70.1, 90.0),
        (18, 36, 14, 33.3, 53.0),
        (24, 48, 5, 70.1, 97.6),
        (7, 11, 10, 33.3, 178.9),
        (5, 3, 2, 89.999999999, 45.0),
    ])
    def test_off_integer_thresholds_and_inclinations(self, n1, n2, f, polar, inclination):
        cfg = make_config(num_planes=n1, sats_per_plane=n2, phasing_factor=f,
                          polar_threshold_deg=polar, inclination_deg=inclination)
        assert build_grd_grid(cfg).tobytes() == grid_by_fractions(cfg).tobytes()


class TestExactAngles:
    """``exact_angles`` and every reader of it equal the ``Fraction``
    expressions of ``helpers``, exactly and as floats bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(case=configs())
    # a 2^k threshold, tilted orbits whose cap edge has a 2^k denominator of
    # its own, and a non-zero raan0 and phase0
    @example(case=(make_config(phasing_factor=5, polar_threshold_deg=70.1), 0.0))
    @example(case=(make_config(num_planes=12, sats_per_plane=24, phasing_factor=7,
                               inclination_deg=86.4), 0.0))
    @example(case=(make_config(num_planes=9, sats_per_plane=18, phasing_factor=3,
                               polar_threshold_deg=64.25, inclination_deg=97.5), 0.0))
    @example(case=(make_config(phasing_factor=2, raan0_deg=-170.2, phase0_deg=3.7), 0.0))
    def test_table_equals_fraction_expressions(self, case):
        cfg, _ = case
        n1, n2, f = cfg.num_planes, cfg.sats_per_plane, cfg.phasing_factor
        a = exact_angles(cfg)

        def deg(x):
            return Fraction(x, a.den)

        assert a.den % (n1 * n2) == 0
        assert [deg(x) for x in (a.origin, a.step, a.unit, a.raan0, a.raan_step, a.phase0)] == [
            row_origin_deg(cfg), phase_step_deg(cfg), Fraction(360, n1 * n2),
            Fraction(cfg.raan0_deg), Fraction(180, n1), Fraction(cfg.phase0_deg)]
        assert [(deg(lo), deg(hi)) for lo, hi in a.caps] == polar_cap_phase_spans(cfg)
        starts, step, den = cell_starts(cfg)
        want = [row_start_deg(cfg, v, h) for v in range(1, n2 + 1) for h in range(1, n1 + 1)]
        assert [Fraction(x, den) for x in starts.ravel().tolist()] == want
        assert (starts / den).astype(float).ravel().tobytes() == np.array(
            [float(x) for x in want]).tobytes()
        for mode in IslMode:
            if mode is IslMode.CONVENTIONAL or f <= n1:
                assert active_row_set(cfg, mode) == fraction_active_rows(cfg, mode)
        assert np.array(switching_epochs(cfg, 4)).tobytes() == np.array(
            switching_epochs_by_fractions(cfg, 4)).tobytes()
        assert build_grd_grid(cfg).tobytes() == grid_by_fractions(cfg).tobytes()
        lons = [row[5:7] for row in _division_rows(cfg, IslMode.CONVENTIONAL)[:n1]]
        assert np.array(lons).tobytes() == np.array(
            [[float((raan_deg(cfg, h + k) + 180) % 360 - 180) for k in (0, 1)]
             for h in range(1, n1 + 1)]).tobytes()
        shifts = cell_shifts_deg(cfg)
        assert _table_spreads_deg(cfg, backward_links(n1, f)) == list(shifts)
        if n1 <= 12 and f <= n1:        # theorem1_bruteforce's domain
            (spread, _), _ = theorem1_layouts(cfg)
            assert spread == max(shifts)


class TestGrdGrid:
    def test_frozen_assignment_matches_csd_at_epoch(self):
        cfg = make_config()
        grid = build_grd_grid(cfg)
        serving = grd_assignment(cfg, grid, 0.0, VnMethod.GRD2)
        rows = csd_rows_all(cfg, 0.0)
        for h in range(18):
            for j in range(36):
                v = int(rows[h, j])
                assert serving[v - 1, h] == h * 36 + j
        intra = grd_assignment(cfg, grid, 0.0, VnMethod.GRD1)
        assert np.array_equal(serving, intra)

    def test_intra_only_loses_coverage_eventually(self):
        cfg = make_config()
        grid = build_grd_grid(cfg)
        # after a ~90 deg Earth rotation the equatorial anchors sit far from
        # their planes' tracks
        serving = grd_assignment(cfg, grid, SIDEREAL_DAY / 4, VnMethod.GRD1)
        assert (serving == -1).any()

    def test_horizon_limit_is_the_radius_ratio(self):
        # cos(acos(R/r)) rounds back to R/r in every bit over this scan, so
        # the horizon limit skips the round trip and moves no serving array
        drifted = [km for km in np.linspace(100.0, 3000.0, 200001).tolist()
                   if math.cos(math.acos(ratio := R_EARTH / (R_EARTH + km * 1000.0)))
                   != ratio]
        assert drifted == []
        for km in (100.0, 780.0, 3000.0):
            cfg = make_config(altitude_km=km)
            assert _coverage_cos_limit(cfg) == math.cos(math.acos(R_EARTH / cfg.orbit_radius))

    def test_inter_plane_rarely_uncovered(self):
        cfg = make_config()
        grid = build_grd_grid(cfg)
        serving = grd_assignment(cfg, grid, SIDEREAL_DAY / 4, VnMethod.GRD2)
        assert (serving >= 0).all()

    def test_quarter_day_shifts_serving_plane_by_half_fan(self):
        # Earth turns 90 deg = n1/2 columns of the pi-wide fan
        cfg = make_config()
        grid = build_grd_grid(cfg)
        t = SIDEREAL_DAY / 4
        serving = grd_assignment(cfg, grid, t, VnMethod.GRD2)
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
        serving = grd_assignment(cfg, grid, 0.0, VnMethod.GRD2)
        assert np.argwhere(serving == 0).tolist() == [[0, 0]]
        # a satellite whose plane drifted off its column serves nothing
        late = grd_assignment(cfg, grid, SIDEREAL_DAY / 4, VnMethod.GRD1)
        assert not (late == 0).any()


class TestCellBounds:
    def test_bounds_assemble_lat_and_lon(self):
        assert divide_cell(make_config(), 1, 1) == [-70.0, -60.0, 0.0, 10.0, False]

    def test_pole_wrap_off_grid_origin(self):
        # origin not aligned with the pole: exactly one band strictly
        # contains +90
        cfg = make_config(polar_threshold_deg=64.0)
        wraps = [divide_cell(cfg, v, 1)[4] for v in range(1, 37)]
        assert sum(wraps) == 2  # one north, one south crossing
        assert wraps[15]  # band [86, 96) holds the north pole
