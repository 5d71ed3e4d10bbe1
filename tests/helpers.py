"""Exact-angle helpers, per-cell reference bounds, graph counts, staticness
event blocks and Hypothesis strategies shared by the test modules."""
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from leovn.constellation import SIDEREAL_DAY, ConstellationConfig
from leovn.division import cell_shifts_deg, phase_step_deg, row_origin_deg
from leovn.virtualgraph import staticness_report


def initial_phase_deg(cfg, plane: int, slot: int) -> Fraction:
    """Epoch phase of satellite (plane 1..n1, slot 1..n2) of a
    ``ConstellationConfig``, exact degrees (not wrapped)."""
    return (Fraction(cfg.phase0_deg)
            + (slot - 1) * Fraction(360, cfg.sats_per_plane)
            + (plane - 1) * cfg.phase_offset_deg)


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
    lon_low, lon_high = (float((cfg.raan_deg(h) + 180) % 360 - 180) for h in (plane, plane + 1))
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
