import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leovn.constellation import (
    CONFIG_FIELDS,
    OMEGA_EARTH,
    R_EARTH,
    SIDEREAL_DAY,
    ConfigError,
    ConstellationConfig,
    _phase,
    _plane_slot_index,
    _raan_trig,
    phases_deg,
    propagate_all,
    read_config_file,
)
from leovn.cli import _build_config, build_parser
from leovn.division import (
    VnMethod,
    build_grd_grid,
    cell_starts,
    csd_rows_all,
    grd_assignment,
    phase_step_deg,
)
from leovn.isl import IslMode, ShutoffRule, polar_mask, row_activity, row_chains

from helpers import configs, initial_phase_deg


def make_config(**kw):
    base = dict(num_planes=18, sats_per_plane=36, phasing_factor=0,
                altitude_km=780.0, polar_threshold_deg=70.0)
    base.update(kw)
    return ConstellationConfig(**base)


def flat(cfg, plane, slot):
    return (plane - 1) * cfg.sats_per_plane + slot - 1


def circular_gap(a, b):
    d = np.mod(np.asarray(a) - np.asarray(b), 2 * math.pi)
    return np.minimum(d, 2 * math.pi - d)


def rotation_oracle(cfg, plane, slot, t):
    """(phase, position, lat, lon) of one satellite from explicit rotations:
    R3(raan) R1(inclination) applied to the in-plane vector at phase u."""
    u = math.radians(float(initial_phase_deg(cfg, plane, slot))) + 2 * math.pi * t / cfg.period
    raan = math.radians(float(cfg.raan_deg(plane)))
    inc = cfg.inclination
    x, y = math.cos(u), math.sin(u)
    y, z = y * math.cos(inc), y * math.sin(inc)
    x, y = x * math.cos(raan) - y * math.sin(raan), x * math.sin(raan) + y * math.cos(raan)
    pos = cfg.orbit_radius * np.array([x, y, z])
    lon = math.atan2(y, x) - OMEGA_EARTH * t
    return u % (2 * math.pi), pos, math.asin(z), lon


class TestBuildConstellation:
    def test_f0_no_interplane_offset(self):
        cfg = make_config(phasing_factor=0)
        phases = phases_deg(cfg, 0.0)
        assert phases.shape == (648,)
        # same slot in adjacent planes: identical initial phase
        assert phases[flat(cfg, 2, 1)] == phases[flat(cfg, 1, 1)]

    def test_f2_offset_is_two_base_units(self):
        cfg = make_config(phasing_factor=2)
        delta = 360 * 2 / 648
        phases = phases_deg(cfg, 0.0)
        assert phases[flat(cfg, 2, 1)] - phases[flat(cfg, 1, 1)] == pytest.approx(delta)

    def test_plane4_leads_plane1_by_quarter_pi(self):
        # n1=6, n2=12, F=3: 3 plane steps of 360*3/72 deg add up to 45 deg
        cfg = ConstellationConfig(num_planes=6, sats_per_plane=12, phasing_factor=3,
                                  altitude_km=780.0, polar_threshold_deg=70.0)
        phases = phases_deg(cfg, 0.0)
        assert phases[flat(cfg, 4, 5)] - phases[flat(cfg, 1, 5)] == pytest.approx(45.0)

    def test_raan_spacing(self):
        # slot 1 starts at the ascending node, so its inertial longitude is the RAAN
        cfg = make_config(phase0_deg=0.0)
        pos, _, _ = propagate_all(cfg, 0.0)
        nodes = pos[[flat(cfg, h, 1) for h in range(1, 19)]]
        assert np.allclose(nodes[:, 2], 0.0, atol=1e-6)
        raans = np.arctan2(nodes[:, 1], nodes[:, 0])
        assert np.allclose(np.diff(raans), math.pi / 18)

    @pytest.mark.parametrize("n1,n2,f", [(18, 36, 2), (7, 11, 5), (2, 3, 0)])
    def test_radian_steps_are_the_exact_degree_steps(self, n1, n2, f):
        cfg = make_config(num_planes=n1, sats_per_plane=n2, phasing_factor=f)
        assert cfg.raan_step_deg * n1 == 180 and cfg.phase_offset_deg * n1 * n2 == 360 * f
        assert cfg.raan_deg(n1) == (n1 - 1) * cfg.raan_step_deg
        assert cfg.raan_step == pytest.approx(math.radians(cfg.raan_step_deg), rel=1e-15, abs=0)

    @pytest.mark.parametrize("kw,fragment", [
        (dict(num_planes=1), "num_planes"),
        (dict(sats_per_plane=2), "sats_per_plane"),
        (dict(phasing_factor=36), "phasing_factor"),
        (dict(phasing_factor=-1), "phasing_factor"),
        (dict(phasing_factor=1.5), "phasing_factor must be an integer"),
        (dict(inclination_deg=0.0), "inclination_deg"),
        (dict(inclination_deg=180.5), "inclination_deg"),
        (dict(altitude_km=0), "altitude_km"),
        (dict(polar_threshold_deg=0), "polar_threshold_deg"),
        (dict(polar_threshold_deg=95), "polar_threshold_deg"),
    ])
    def test_invalid_config_names_field(self, kw, fragment):
        with pytest.raises(ConfigError, match=fragment):
            make_config(**kw)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["altitude_km", "inclination_deg", "polar_threshold_deg",
                                       "raan0_deg", "phase0_deg"])
    def test_non_finite_float_names_field(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            make_config(**{field: value})


class TestPropagate:
    def test_epoch_identity(self):
        cfg = make_config()
        phases = phases_deg(cfg, 0.0)
        for slot in range(1, 6):
            assert phases[flat(cfg, 1, slot)] == float(initial_phase_deg(cfg, 1, slot))

    def test_periodicity(self):
        cfg = make_config()
        p0, _, _ = propagate_all(cfg, 0.0)
        p1, _, _ = propagate_all(cfg, cfg.period)
        gap = circular_gap(np.radians(phases_deg(cfg, cfg.period)), np.radians(phases_deg(cfg, 0.0)))
        assert gap.max() <= 1e-9
        assert np.linalg.norm(p1 - p0, axis=1).max() <= 1e-9 * cfg.orbit_radius

    def test_quarter_period_polar_orbit_reaches_pole(self):
        cfg = make_config(phase0_deg=0.0)
        _, lats, _ = propagate_all(cfg, cfg.period / 4)
        u = math.radians(phases_deg(cfg, cfg.period / 4)[0])
        assert lats[0] == pytest.approx(math.pi / 2, abs=1e-9)
        assert lats[0] == pytest.approx(
            math.asin(math.sin(cfg.inclination) * math.sin(u)), abs=1e-12)

    def test_radius_invariant_over_time(self):
        cfg = make_config(phasing_factor=5)
        r = R_EARTH + 780e3
        for t in np.linspace(0, cfg.period, 7):
            pos, _, _ = propagate_all(cfg, float(t))
            assert np.allclose(np.linalg.norm(pos, axis=1), r, rtol=1e-9)

    def test_phase_spacing_within_and_across_planes(self):
        cfg = make_config(phasing_factor=2)
        phases = phases_deg(cfg, 1234.5)
        sa, sb, sc = phases[flat(cfg, 3, 10)], phases[flat(cfg, 3, 11)], phases[flat(cfg, 4, 10)]
        wf = 360 / 36
        df = 360 * 2 / 648
        assert (sb - sa) % 360 == pytest.approx(wf, abs=1e-9)
        assert (sc - sa) % 360 == pytest.approx(df, abs=1e-9)

    def test_earth_rotation_cancels_over_sidereal_day(self):
        cfg = make_config()
        idx = flat(cfg, 5, 7)
        t = 1000.0
        p0, _, lon0 = propagate_all(cfg, t)
        p1, _, lon1 = propagate_all(cfg, t + SIDEREAL_DAY)
        ground_shift = (lon1[idx] - lon0[idx]) % (2 * math.pi)
        inertial_shift = (math.atan2(p1[idx, 1], p1[idx, 0])
                          - math.atan2(p0[idx, 1], p0[idx, 0])) % (2 * math.pi)
        assert circular_gap(ground_shift, inertial_shift) <= 1e-6

    def test_vectorized_matches_scalar(self):
        cfg = make_config(phasing_factor=3, inclination_deg=86.4, raan0_deg=7.5)
        t = 777.0
        pos, lats, lons = propagate_all(cfg, t)
        phases = np.radians(phases_deg(cfg, t))
        for idx in (0, 100, 647):
            u, p, lat, lon = rotation_oracle(cfg, idx // 36 + 1, idx % 36 + 1, t)
            assert circular_gap(phases[idx], u) <= 1e-9
            assert np.allclose(pos[idx], p, atol=1e-3)
            assert lats[idx] == pytest.approx(lat, abs=1e-12)
            assert circular_gap(lons[idx], lon) <= 1e-12


    def test_plane_slot_index_is_cached_read_only(self):
        # every phases_deg / propagate_all call of an equal config shares it
        planes, slots = _plane_slot_index(make_config())
        again = _plane_slot_index(make_config())
        assert again[0] is planes and again[1] is slots
        assert planes[36] == 1 and slots[36] == 0
        with pytest.raises(ValueError):
            slots[0] = 5


class TestKinematicsProperties:
    @settings(max_examples=100, deadline=None)
    @given(case=configs())
    def test_radian_phase_matches_degree_phase(self, case):
        cfg, t = case
        u = _phase(cfg, t, 2 * math.pi)
        want = np.radians(phases_deg(cfg, t))
        assert circular_gap(u, want).max() <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(case=configs())
    def test_csd_rows_match_exact_phase(self, case):
        cfg, t = case
        n1, n2 = cfg.num_planes, cfg.sats_per_plane
        rows = csd_rows_all(cfg, t)
        step = phase_step_deg(cfg)
        advance = 360 * Fraction(t) / Fraction(cfg.period)
        starts, _, den = cell_starts(cfg)
        for plane in range(1, n1 + 1):
            for slot in range(1, n2 + 1):
                phase = initial_phase_deg(cfg, plane, slot) + advance
                rel = (phase - Fraction(starts[0, plane - 1], den)) % 360
                if min(rel % step, step - rel % step) < Fraction(1, 10**6):
                    continue  # within float reach of a cell boundary
                assert rows[plane - 1, slot - 1] == 1 + math.floor(rel / step) % n2


class TestSharedKinematics:
    """The one phase formula, the cached plane trig and ``polar_mask`` give
    the bits of the expressions that each caller computed for itself before,
    written out here."""

    @settings(max_examples=100, deadline=None)
    @given(case=configs())
    def test_phases_deg_equals_inline_degree_sum(self, case):
        cfg, t = case
        planes, slots = _plane_slot_index(cfg)
        want = (cfg.phase0_deg + slots * (360.0 / cfg.sats_per_plane)
                + planes * float(cfg.phase_offset_deg)
                + 360.0 * t / cfg.period)
        assert np.array_equal(phases_deg(cfg, t), want)

    @settings(max_examples=100, deadline=None)
    @given(case=configs())
    def test_propagate_all_equals_inline_plane_trig(self, case):
        cfg, t = case
        planes, slots = _plane_slot_index(cfg)
        u0 = (math.radians(cfg.phase0_deg) + slots * (2.0 * math.pi / cfg.sats_per_plane)
              + planes * (2.0 * math.pi * cfg.phasing_factor / cfg.total_sats))
        u = np.mod(u0 + 2.0 * math.pi * t / cfg.period, 2.0 * math.pi)
        raan = math.radians(cfg.raan0_deg) + planes * cfg.raan_step
        cu, su, co, so = np.cos(u), np.sin(u), np.cos(raan), np.sin(raan)
        ci, si = math.cos(cfg.inclination), math.sin(cfg.inclination)
        unit = np.stack([cu * co - su * ci * so, cu * so + su * ci * co, su * si], axis=-1)
        pos = cfg.orbit_radius * unit
        lats = np.arcsin(np.clip(unit[:, 2], -1.0, 1.0))
        lons = np.mod(np.arctan2(pos[:, 1], pos[:, 0]) - OMEGA_EARTH * t + math.pi,
                      2.0 * math.pi) - math.pi
        for got, want in zip(propagate_all(cfg, t), (pos, lats, lons), strict=True):
            assert np.array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(case=configs(), mode=st.sampled_from(IslMode))
    def test_per_satellite_rule_equals_inline_latitude_sine(self, case, mode):
        cfg, t = case
        if mode is IslMode.OPTIMIZED and cfg.phasing_factor > cfg.num_planes:
            mode = IslMode.CONVENTIONAL   # optimized layout requires F <= n1
        rows = row_chains(cfg, mode)
        phases = np.mod(phases_deg(cfg, t), 360.0)
        polar = np.abs(math.sin(cfg.inclination)
                       * np.sin(np.radians(phases))) > math.sin(cfg.polar_threshold)
        want = ~(polar[rows[:, :-1]] | polar[rows[:, 1:]])
        assert np.array_equal(row_activity(cfg, mode, t, ShutoffRule.PER_SATELLITE), want)

    @settings(max_examples=100, deadline=None)
    @given(case=configs())
    def test_polar_mask_equals_inline_latitude_sine(self, case):
        cfg, t = case
        u = np.radians(np.mod(phases_deg(cfg, t), 360.0))
        want = np.abs(math.sin(cfg.inclination) * np.sin(u)) > math.sin(cfg.polar_threshold)
        assert np.array_equal(polar_mask(cfg, t), want)

    def test_polar_mask_is_read_only_and_keyed_by_config(self):
        # at 60 deg inclination no satellite reaches the 70-deg threshold
        cfg, tilted = make_config(), make_config(inclination_deg=60.0)
        values, other = polar_mask(cfg, 100.0), polar_mask(tilted, 100.0)
        assert values.any() and not other.any()
        assert polar_mask(cfg, 100.0) is values      # both entries stay cached
        with pytest.raises(ValueError):
            values[0] = False

    def test_plane_trig_is_cached_read_only(self):
        co, so = _raan_trig(make_config())
        again = _raan_trig(make_config())
        assert again[0] is co and again[1] is so
        assert co[36] == pytest.approx(math.cos(math.pi / 18), abs=1e-15) and so[0] == 0.0
        with pytest.raises(ValueError):
            so[0] = 1.0


class TestOrbitalPeriod:
    def test_seven_thousand_km_radius(self):
        # Kepler with mu = 3.986004418e14: 2*pi*sqrt((7e6)^3/mu) = 5828.5 s
        cfg = make_config(altitude_km=629.0)
        assert cfg.orbit_radius == 7000e3
        assert cfg.period == pytest.approx(5828.52, abs=0.01)

    def test_780_km(self):
        # R_E = 6371.0 km exactly per the module constant
        assert make_config().period == pytest.approx(6018.12, abs=0.01)

    def test_monotone_in_altitude(self):
        periods = [make_config(altitude_km=a).period
                   for a in (300.0, 500.0, 780.0, 1200.0, 2000.0)]
        assert periods == sorted(periods)


class TestInPolarRegion:
    """Polar-cap membership is strict (|lat| > threshold), as applied by the
    per-satellite shut-off rule.  Two planes of three satellites, F=0: slot j
    of both planes shares one phase, so row j's link is off iff slot j is in
    a cap."""

    @staticmethod
    def row_links(phase0_deg):
        cfg = make_config(num_planes=2, sats_per_plane=3, phase0_deg=phase0_deg)
        return row_activity(cfg, IslMode.CONVENTIONAL, 0.0,
                            ShutoffRule.PER_SATELLITE)[:, 0].tolist()

    def test_strictly_above(self):
        assert self.row_links(75.0) == [False, True, True]

    def test_boundary_excluded(self):
        assert self.row_links(70.0) == [True, True, True]
        assert self.row_links(-70.0) == [True, True, True]

    def test_southern_cap(self):
        assert self.row_links(-71.0) == [False, True, True]


class TestElevation:
    """Coverage of the geographic division: a frozen cell is served only by a
    satellite at or above its horizon.  Satellite (1,1) of a 2x3 shell starts
    on the equator at longitude 0; its plane mates are 120 deg away, so under
    intra-plane serving column 1 is served by (1,1) or by nobody."""

    @staticmethod
    def column1_servers(anchor):
        cfg = make_config(num_planes=2, sats_per_plane=3, phase0_deg=0.0)
        anchors = np.broadcast_to(anchor, (3, 2, 3))
        return grd_assignment(cfg, anchors, 0.0, VnMethod.GRD1)[:, 0].tolist()

    def test_zenith(self):
        # t=0, default epoch: every satellite sits at the zenith of its own anchor
        cfg = make_config()
        grid = build_grd_grid(cfg)
        _, lats, lons = propagate_all(cfg, 0.0)
        sub = np.stack([np.cos(lats) * np.cos(lons), np.cos(lats) * np.sin(lons),
                        np.sin(lats)], axis=1)
        assert float(grid[0, 0] @ sub[0]) == pytest.approx(1.0, abs=1e-12)
        assert grd_assignment(cfg, grid, 0.0, VnMethod.GRD1)[0, 0] == 0

    def test_antipode_below_horizon(self):
        assert self.column1_servers(np.array([-1.0, 0.0, 0.0])) == [-1, -1, -1]

    def test_zero_elevation_at_coverage_circle_edge(self):
        # a ground point at central angle acos(R/r) from the sub-point sees the
        # satellite exactly on its horizon
        psi = math.acos(R_EARTH / make_config().orbit_radius)
        inside, outside = psi - 1e-6, psi + 1e-6
        assert self.column1_servers(
            np.array([math.cos(inside), 0.0, math.sin(inside)])) == [0, 0, 0]
        assert self.column1_servers(
            np.array([math.cos(outside), 0.0, math.sin(outside)])) == [-1, -1, -1]


class TestConfigFile:
    def test_load_with_defaults(self, tmp_path):
        path = tmp_path / "walker.cfg"
        path.write_text("""
# test constellation
n1 = 18
n2 = 36
F = 2
altitude_km = 780
polar_threshold_deg = 70
""")
        cfg = ConstellationConfig(**read_config_file(path))
        assert cfg.num_planes == 18 and cfg.phasing_factor == 2
        assert cfg.inclination_deg == 90.0
        assert cfg.raan0_deg == 0.0
        assert cfg.phase0_deg == -70.0  # defaults to -polar threshold

    def test_unknown_key_is_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n1 = 18\nn2 = 36\nbogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            read_config_file(path)

    def test_period_s_is_an_unknown_key(self, tmp_path):
        # the period follows altitude_km by Kepler's third law alone
        path = tmp_path / "old.cfg"
        path.write_text("n1 = 6\nn2 = 12\nperiod_s = 6000\n")
        with pytest.raises(ConfigError, match="unknown key 'period_s'"):
            read_config_file(path)

    def test_config_fields_name_every_field_once(self):
        assert [row[2] for row in CONFIG_FIELDS] == [f.name for f in fields(ConstellationConfig)]

    def test_bad_value_is_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n1 = 18\nn2 = thirty\n")
        with pytest.raises(ConfigError, match="n2"):
            read_config_file(path)

    def test_repeated_key_names_both_lines(self, tmp_path):
        # the last value used to win without a word: n1 = 8 built 8 planes
        path = tmp_path / "bad.cfg"
        path.write_text("n1 = 6\nn2 = 12\n# planes\nn1 = 8\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:4: repeated key 'n1', first set on line 1"):
            read_config_file(path)

    def test_missing_required(self, tmp_path):
        # the file may leave n1/n2 to flags; the CLI names what neither gave
        path = tmp_path / "bad.cfg"
        path.write_text("n1 = 18\n")
        with pytest.raises(ConfigError, match="sats_per_plane"):
            _build_config(build_parser().parse_args(["divide", "--config", str(path)]))
