"""Virtual-node division: celestial-sphere cells and the geographic baseline.

The celestial division (CSD) follows from the constellation alone: row 1
starts at -polar threshold of along-track phase, column 1 at raan0, rows are
360/n2 tall and the cells of plane h are shifted along track by
mod(h-1, K) * delta_f (K = n1/F), the in-row phase spread of the optimized
link layout; the backward-link count c(h) and the spread it leaves are
defined here once and read by ``isl``.  The division assigns each satellite
a virtual address (v, h): h is its plane, v the index of the along-track
phase band it currently occupies.  Bands are half-open [start, start +
360/n2) so a satellite exactly on a boundary belongs to the upper cell.
The geographic division (GRD) freezes the t=0 ground projection of those
cells and serves each frozen cell with whichever satellite covers it, either
from the original plane only (variant 1) or from any plane (variant 2).

Row-boundary arithmetic is exact (Fraction degrees); see angles.py.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .angles import CELL_SNAP, fold_lat_deg, normalize_lon_deg
from .constellation import (
    R_EARTH,
    ConfigError,
    ConstellationConfig,
    _orbit_unit_vectors,
    phases_deg,
    propagate_all,
)


@dataclass(frozen=True)
class VnCellBounds:
    """Raw cell bounds in degrees.

    Longitudes are normalized to [-180, 180); latitudes are the folds of the
    band's start/end phase, so descending bands have lat_low > lat_high.
    pole_wrap marks cells whose half-open phase band [start, start+step)
    contains a pole crossing.
    """
    lon_low: float
    lon_high: float
    lat_low: float
    lat_high: float
    pole_wrap: bool


# -- the celestial division of a constellation ---------------------------------

def row_origin_deg(config: ConstellationConfig) -> Fraction:
    """Along-track phase where row 1 of plane 1 starts: -polar threshold."""
    return -Fraction(config.polar_threshold_deg)


def phase_step_deg(config: ConstellationConfig) -> Fraction:
    """Along-track height of a cell: 360/n2 deg."""
    return Fraction(360, config.sats_per_plane)


def backward_links(num_planes: int, phasing_factor: int) -> np.ndarray:
    """c(h) = floor((h-1)F/n1) for h = 1..n1: the backward links an
    optimized row crosses before plane h.

    Theorem 1 puts a backward link on each boundary where c steps, which
    holds the in-row spread to mod(h-1, K) * delta_f.  For F > n1 (K < 1) c
    steps by more than one, which one link per boundary cannot absorb.
    """
    return np.arange(num_planes) * phasing_factor // num_planes


def spreads_deg(config: ConstellationConfig, crossed: np.ndarray) -> tuple[Fraction, ...]:
    """(h-1)*delta_f - c(h)*360/n2 per plane h, exact degrees: the phase of a
    row's plane-h member relative to its plane-1 member when the row has
    crossed c(h) backward links before plane h."""
    n1, n2, f = config.num_planes, config.sats_per_plane, config.phasing_factor
    return tuple(Fraction(360 * (h * f - c * n1), n1 * n2)
                 for h, c in enumerate(crossed.tolist()))


@lru_cache(maxsize=None)
def cell_shifts_deg(config: ConstellationConfig) -> tuple[Fraction, ...]:
    """Along-track shift of each plane's cells, exact degrees.

    The spread of the backward-link layout, mod(h-1, K) * delta_f with
    K = n1/F and delta_f = 360F/(n1 n2), for every F (0 when F = 0).
    """
    return spreads_deg(config, backward_links(config.num_planes, config.phasing_factor))


@lru_cache(maxsize=None)
def _plane_shifts(config: ConstellationConfig) -> np.ndarray:
    """(n1, 1) read-only column of the cell shifts in float degrees."""
    shifts = np.array(cell_shifts_deg(config), dtype=float)[:, None]
    shifts.flags.writeable = False
    return shifts


def row_start_deg(config: ConstellationConfig, row: int, plane: int) -> Fraction:
    """Unfolded start angle of cell (row, plane), exact degrees."""
    return (row_origin_deg(config) + cell_shifts_deg(config)[plane - 1]
            + (row - 1) * phase_step_deg(config))


# -- cell bounds -------------------------------------------------------------

def vn_longitude_range(plane: int, lon_origin_deg, raan_step_deg) -> tuple[float, float]:
    """Longitude bounds of column ``plane``: origin + (h-1)/h * step, wrapped."""
    lo = normalize_lon_deg(Fraction(lon_origin_deg) + (plane - 1) * Fraction(raan_step_deg))
    hi = normalize_lon_deg(Fraction(lon_origin_deg) + plane * Fraction(raan_step_deg))
    return float(lo), float(hi)


def vn_latitude_range(config: ConstellationConfig, row: int,
                      plane: int) -> tuple[float, float, bool]:
    """Latitude bounds of cell (row, plane) plus the pole_wrap flag.

    Bounds are the folds of the band's start and end angle; on descending
    bands the first value exceeds the second.  pole_wrap is set when the
    half-open band [start, start + step) contains +90 or 270 deg of unfolded
    phase (i.e. the cell rides over a pole).
    """
    start = row_start_deg(config, row, plane)
    step = phase_step_deg(config)
    low = fold_lat_deg(start)
    high = fold_lat_deg(start + step)
    rel_north = (90 - start) % 360
    rel_south = (270 - start) % 360
    pole_wrap = rel_north < step or rel_south < step
    return float(low), float(high), pole_wrap


def cell_bounds(config: ConstellationConfig, row: int, plane: int) -> VnCellBounds:
    lon_low, lon_high = vn_longitude_range(plane, config.raan0_deg, config.raan_step_deg)
    lat_low, lat_high, pole_wrap = vn_latitude_range(config, row, plane)
    return VnCellBounds(lon_low=lon_low, lon_high=lon_high,
                        lat_low=lat_low, lat_high=lat_high, pole_wrap=pole_wrap)


# -- satellite -> address mapping ---------------------------------------------

@lru_cache(maxsize=1)
def csd_rows_all(config: ConstellationConfig, t: float) -> np.ndarray:
    """Vectorized CSD row index for every satellite at time t.

    Returns a read-only int array shaped (n1, n2) indexed by (plane-1,
    slot-1), cached for the row rule and the addressing of one sample.  The
    row comes from the along-track phase, not the geodetic latitude, so
    ascending and descending passes map to distinct rows.
    """
    n1, n2 = config.num_planes, config.sats_per_plane
    step = 360.0 / n2
    phase = phases_deg(config, t).reshape(n1, n2)
    rel = np.mod(phase - float(row_origin_deg(config)) - _plane_shifts(config), 360.0)
    rows = 1 + np.floor(rel / step + CELL_SNAP).astype(int) % n2
    rows.flags.writeable = False
    return rows


def switching_epochs(config: ConstellationConfig, count: int) -> list[float]:
    """First ``count`` cell-handover instants at or after t = 0.

    Handovers happen when plane 1 sits exactly on its cell boundaries, one
    ``grd_switch_interval`` apart.
    """
    step_t = grd_switch_interval(config.period, config.sats_per_plane)
    # offset of the first epoch: phase0 + 360 t/T == lat origin (mod step)
    lag_deg = float((row_origin_deg(config) - Fraction(config.phase0_deg)) %
                    phase_step_deg(config))
    t0 = lag_deg / 360.0 * config.period
    k0 = math.ceil(-t0 / step_t - 1e-12)
    return [t0 + k * step_t for k in range(k0, k0 + count)]


def grd_switch_interval(period: float, sats_per_plane: int) -> float:
    """Ground-cell handover interval of the geographic division: T / n2."""
    if period <= 0:
        raise ConfigError(f"period must be > 0, got {period}")
    return period / sats_per_plane


# -- geographic (GRD) grid ----------------------------------------------------

class GrdVariant(enum.Enum):
    INTRA_ONLY = "intra_only"     # cells only ever served by their t=0 plane
    INTER_PLANE = "inter_plane"   # cells served by the best satellite anywhere


@dataclass(frozen=True, eq=False)
class GrdGrid:
    """Earth-fixed grid frozen from the t=0 ground projection of the cells.

    ``anchors`` holds unit vectors (Earth-fixed frame) of each cell's anchor
    point, the t=0 sub-point of the cell's along-track start, shaped
    (n2, n1, 3).  At t=0 with the default epoch phase the satellite addressed
    (v, h) sits at the zenith of anchor (v, h).
    """
    anchors: np.ndarray


def build_grd_grid(config: ConstellationConfig) -> GrdGrid:
    n1, n2 = config.num_planes, config.sats_per_plane
    u = np.radians([[float(row_start_deg(config, v, h)) for h in range(1, n1 + 1)]
                    for v in range(1, n2 + 1)])
    raan = np.radians([float(config.raan_deg(h)) for h in range(1, n1 + 1)])
    return GrdGrid(anchors=_orbit_unit_vectors(u, raan, config.inclination))


def _coverage_cos_limit(config: ConstellationConfig) -> float:
    """cos of the horizon central angle acos(R/r): the widest separation
    between sub-point and anchor at which the elevation is still >= 0."""
    return math.cos(math.acos(R_EARTH / config.orbit_radius))


def grd_assignment(config: ConstellationConfig, grid: GrdGrid, t: float,
                   variant: GrdVariant) -> np.ndarray:
    """Serving satellite of every frozen cell at time t.

    Returns an int array (n2, n1): flat satellite index (plane-1)*n2 +
    (slot-1), or -1 where no eligible satellite is above the horizon.
    Serving = maximum elevation, which for a single shell is the minimum
    central angle (largest unit-vector dot product).  The inter-plane variant
    scores every cell against every satellite in one gemm; the intra-plane
    variant only each column against its own plane, in one stacked gemm
    (see README "Conventions" for when the two agree bit for bit).
    """
    n1, n2 = config.num_planes, config.sats_per_plane
    _, _, lats, lons = propagate_all(config, t)
    sub = np.stack([np.cos(lats) * np.cos(lons),
                    np.cos(lats) * np.sin(lons),
                    np.sin(lats)], axis=1)          # (N, 3) Earth-fixed units
    cells = np.arange(n1 * n2)                       # row-major (v, h)
    cell_planes = cells % n1
    if variant is GrdVariant.INTRA_ONLY:
        # (column, row, slot) blocks: each column's anchors against its own plane
        blocks = np.matmul(grid.anchors.transpose(1, 0, 2), sub.reshape(n1, n2, 3).transpose(0, 2, 1))
        own = blocks.transpose(1, 0, 2).reshape(-1, n2)
    else:
        score = grid.anchors.reshape(-1, 3) @ sub.T    # (cells, sats)
        own = score.reshape(-1, n1, n2)[cells, cell_planes]   # the cell's own column
    own_slot = np.argmax(own, axis=1)
    own_top = own[cells, own_slot]
    own_best = np.ravel_multi_index((cell_planes, own_slot), (n1, n2))
    if variant is GrdVariant.INTER_PLANE:
        best = np.argmax(score, axis=1)
        top = score[cells, best]
        # exact geometric ties (satellites meeting over a pole) resolve to the
        # cell's own column, keeping the frozen-epoch assignment unambiguous;
        # isclose keeps its default rtol, so cells within ~0.26 deg of a
        # zenith count as ties too
        tie = np.isclose(top, 1.0, atol=1e-12) & (own_top >= top - 1e-12)
        best = np.where(tie, own_best, best)
    else:
        best, top = own_best, own_top
    serving = np.where(top >= _coverage_cos_limit(config), best, -1)
    return serving.reshape(n2, n1)

