"""Exact-angle oracles, per-cell reference bounds, graph counts, staticness
event blocks and Hypothesis strategies shared by the test modules.

The exact angles are written out here as ``Fraction`` expressions of the
configuration, the references for the integer table
``division.exact_angles`` and everything that reads it."""
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from hypothesis import strategies as st

from leovn.constellation import SIDEREAL_DAY, ConstellationConfig
from leovn.division import backward_links
from leovn.isl import IslMode
from leovn.virtualgraph import staticness_report


def row_origin_deg(cfg) -> Fraction:
    """Along-track phase where row 1 of plane 1 starts: -polar threshold."""
    return -Fraction(cfg.polar_threshold_deg)


def phase_step_deg(cfg) -> Fraction:
    """Along-track height of a cell: 360/n2 deg."""
    return Fraction(360, cfg.sats_per_plane)


def phase_offset_deg(cfg) -> Fraction:
    """Adjacent-plane phase offset delta_f: 360*F/(n1*n2) deg."""
    return Fraction(360 * cfg.phasing_factor, cfg.num_planes * cfg.sats_per_plane)


def raan_deg(cfg, plane: int) -> Fraction:
    """RAAN of plane 1..n1 (n1+1 is the far edge of plane n1's column):
    raan0 + (plane-1) * 180/n1 deg."""
    return Fraction(cfg.raan0_deg) + (plane - 1) * Fraction(180, cfg.num_planes)


def spreads_deg(cfg, crossed) -> tuple[Fraction, ...]:
    """(h-1)*delta_f - c(h)*360/n2 per plane h: the phase of a row's plane-h
    member relative to its plane-1 member when the row has crossed c(h) =
    ``crossed[h-1]`` backward links before plane h."""
    return tuple(h * phase_offset_deg(cfg) - c * phase_step_deg(cfg)
                 for h, c in enumerate(crossed.tolist()))


@lru_cache(maxsize=None)
def cell_shifts_deg(cfg) -> tuple[Fraction, ...]:
    """Along-track shift of each plane's cells: the spreads at the
    backward-link count, mod(h-1, K) * delta_f for every F (cached, since
    ``row_start_deg`` reads it once per cell)."""
    return spreads_deg(cfg, backward_links(cfg.num_planes, cfg.phasing_factor))


def row_spreads_deg(cfg, mode) -> tuple[Fraction, ...]:
    """The spreads of a mode's rows: uncrossed conventional, the cell shifts
    optimized."""
    if mode is IslMode.CONVENTIONAL:
        return spreads_deg(cfg, np.zeros(cfg.num_planes, dtype=int))
    return cell_shifts_deg(cfg)


def polar_cap_phase_spans(cfg) -> list[tuple[Fraction, Fraction]]:
    """Open spans of along-track phase (degrees) where |latitude| >
    threshold: (p, 180-p) and (180+p, 360-p), p the threshold at 90 deg
    inclination and the float asin(sin(threshold)/sin(inclination)) off it;
    empty when the orbit never reaches the threshold latitude."""
    if cfg.inclination_deg == 90.0:
        p = Fraction(cfg.polar_threshold_deg)
    else:
        sin_i = math.sin(cfg.inclination)
        if sin_i == 0 or (q := math.sin(cfg.polar_threshold) / sin_i) >= 1.0:
            return []
        p = Fraction(math.degrees(math.asin(q)))
    if p >= 90:
        return []
    return [(p, 180 - p), (180 + p, 360 - p)]


def fraction_active_rows(cfg, mode) -> frozenset[int]:
    """Reference for ``active_row_set``: every member window of every dwell
    row, tested in exact Fraction degrees against the open cap spans; row 1
    starts at -polar and rows are 360/n2 tall."""
    spans = polar_cap_phase_spans(cfg)
    step, origin = phase_step_deg(cfg), row_origin_deg(cfg)

    def hits(start):
        s = start % 360
        pieces = [(s, min(s + step, Fraction(360)))]
        if s + step > 360:
            pieces.append((Fraction(0), s + step - 360))
        return any(lo < hi and a < hi and b > lo for a, b in pieces for lo, hi in spans)

    return frozenset(
        v for v in range(1, cfg.sats_per_plane + 1)
        if not any(hits(origin + (v - 1) * step + s) for s in row_spreads_deg(cfg, mode)))


def switching_epochs_by_fractions(cfg, count: int) -> list[float]:
    """``division.switching_epochs`` with its lag taken from one ``Fraction``
    expression: plane 1 sits on a cell boundary when phase0 + 360 t/T is the
    row origin mod the row height."""
    step_t = cfg.period / cfg.sats_per_plane
    lag_deg = float((row_origin_deg(cfg) - Fraction(cfg.phase0_deg)) % phase_step_deg(cfg))
    t0 = lag_deg / 360.0 * cfg.period
    k0 = math.ceil(-t0 / step_t - 1e-12)
    return [t0 + k * step_t for k in range(k0, k0 + count)]


def initial_phase_deg(cfg, plane: int, slot: int) -> Fraction:
    """Epoch phase of satellite (plane 1..n1, slot 1..n2) of a
    ``ConstellationConfig``, exact degrees (not wrapped)."""
    return (Fraction(cfg.phase0_deg)
            + (slot - 1) * Fraction(360, cfg.sats_per_plane)
            + (plane - 1) * phase_offset_deg(cfg))


def row_start_deg(cfg, row: int, plane: int) -> Fraction:
    """Unfolded start angle of cell (row, plane), exact degrees, one
    ``Fraction`` sum per cell: the reference for ``division.cell_starts``."""
    return (row_origin_deg(cfg) + cell_shifts_deg(cfg)[plane - 1]
            + (row - 1) * phase_step_deg(cfg))


def fold_lat_deg(value) -> Fraction:
    """An unfolded phase-as-latitude angle (degrees) folded into [-90, 90]."""
    return 90 - abs(180 - (Fraction(value) + 90) % 360)


def cell_bounds(cfg, row: int, plane: int) -> list:
    """``divide``'s [lat_low, lat_high, lon_low, lon_high, pole_wrap] of cell
    (row, plane), from exact ``Fraction`` per cell: the reference for the
    table."""
    start, step = row_start_deg(cfg, row, plane), phase_step_deg(cfg)
    lon_low, lon_high = (float((raan_deg(cfg, h) + 180) % 360 - 180) for h in (plane, plane + 1))
    pole_wrap = (90 - start) % 360 < step or (270 - start) % 360 < step
    return [float(fold_lat_deg(start)), float(fold_lat_deg(start + step)),
            lon_low, lon_high, pole_wrap]


def edge_count(keys, kind) -> int:
    """Virtual edges of one ``IslKind`` among edge keys (the kind is the low
    bit of each key)."""
    return int(np.count_nonzero(keys % 2 == kind))


def report_blocks(cfg, method, mode, duration_s, samples):
    """A staticness report and the (t, keys, changes, causes) blocks it
    passed to its consumer, in order."""
    blocks = []
    report = staticness_report(cfg, method, mode, duration_s, samples,
                               lambda *block: blocks.append(block))
    return report, blocks


@st.composite
def configs(draw, max_planes=24, max_slots=48):
    """Any constellation ConstellationConfig accepts, with a sample time."""
    n1 = draw(st.integers(2, max_planes))
    n2 = draw(st.integers(3, max_slots))
    cfg = ConstellationConfig(
        num_planes=n1, sats_per_plane=n2,
        phasing_factor=draw(st.integers(0, n2 - 1)),
        altitude_km=draw(st.floats(200.0, 36000.0)),
        inclination_deg=draw(st.floats(0.5, 180.0)),
        polar_threshold_deg=draw(st.floats(1.0, 90.0)),
        raan0_deg=draw(st.floats(-360.0, 360.0)),
        phase0_deg=draw(st.none() | st.floats(-360.0, 360.0)),
    )
    return cfg, draw(st.floats(0.0, 2 * SIDEREAL_DAY))
