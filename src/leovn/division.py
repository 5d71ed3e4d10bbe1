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
from the original plane only (GRD1) or from any plane (GRD2); ``VnMethod``
names the three methods.

Geometry runs in float radians; cell-boundary bookkeeping runs in exact
rational degrees (``fractions.Fraction``), so that floor/ceil expressions and
interval comparisons are bit-reproducible: a threshold like 70 deg does not
survive the round trip through radians, and the division formulas sit
exactly on integer boundaries for the configurations of interest.
"""
from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .constellation import (
    R_EARTH,
    ConstellationConfig,
    _orbit_unit_vectors,
    phases_deg,
    propagate_all,
)


# Snap tolerance for float phase -> integer cell index.  Satellites that are
# mathematically on a cell boundary land within ~1e-12 of it in double
# precision; anything a real sample places inside a cell is >> 1e-9 away.
CELL_SNAP = 1e-9


# -- the celestial division of a constellation ---------------------------------

def row_origin_deg(config: ConstellationConfig) -> Fraction:
    """Along-track phase where row 1 of plane 1 starts: -polar threshold."""
    return -Fraction(config.polar_threshold_deg)


def phase_step_deg(config: ConstellationConfig) -> Fraction:
    """Along-track height of a cell: 360/n2 deg."""
    return Fraction(360, config.sats_per_plane)


def common_numerators(values: list[Fraction]) -> tuple[list[int], int]:
    """Exact ``values`` as Python-int numerators over their least common
    denominator, and that denominator, so that sums, floor divisions and
    comparisons of them run on ints.  Python ints, not int64: a float
    threshold such as 70.1 has a 2^k denominator."""
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


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


def cell_starts(config: ConstellationConfig) -> tuple[np.ndarray, int, int]:
    """Exact unfolded start angle of every cell (v, h), the one source of
    the cell bounds.

    Returns ``(starts, step, den)``: ``starts`` an (n2, n1) object array of
    Python-int numerators, ``step`` the row height's numerator, both over
    the common denominator ``den`` of the row origin, the row height and
    the plane shifts (``common_numerators``), so that ``starts / den`` is
    the correctly rounded float of each exact start.
    """
    (origin, step, *shifts), den = common_numerators(
        [row_origin_deg(config), phase_step_deg(config), *cell_shifts_deg(config)])
    columns = np.array([origin + s for s in shifts], dtype=object)
    return np.arange(config.sats_per_plane, dtype=object)[:, None] * step + columns, step, den


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
    T/n2 apart.
    """
    step_t = config.period / config.sats_per_plane
    # offset of the first epoch: phase0 + 360 t/T == lat origin (mod step)
    lag_deg = float((row_origin_deg(config) - Fraction(config.phase0_deg)) %
                    phase_step_deg(config))
    t0 = lag_deg / 360.0 * config.period
    k0 = math.ceil(-t0 / step_t - 1e-12)
    return [t0 + k * step_t for k in range(k0, k0 + count)]


# -- geographic (GRD) grid ----------------------------------------------------

class VnMethod(enum.Enum):
    GRD1 = "grd1"   # geographic cells, intra-plane takeover only
    GRD2 = "grd2"   # geographic cells, any-plane takeover
    CSD = "csd"     # celestial cells


def build_grd_grid(config: ConstellationConfig) -> np.ndarray:
    """Earth-fixed grid frozen from the t=0 ground projection of the cells.

    Returns the anchors, unit vectors (Earth-fixed frame) of the t=0
    sub-point of each cell's along-track start, shaped (n2, n1, 3).  At t=0
    with the default epoch phase the satellite addressed (v, h) sits at the
    zenith of anchor (v, h).

    The start angles are the ``cell_starts`` table, each numerator divided
    by the denominator with int true division, which rounds the exact
    quotient correctly.
    """
    starts, _, den = cell_starts(config)
    u = np.radians((starts / den).astype(float))
    raan = np.radians([float(config.raan_deg(h)) for h in range(1, config.num_planes + 1)])
    return _orbit_unit_vectors(u, np.cos(raan), np.sin(raan), config.inclination)


def _coverage_cos_limit(config: ConstellationConfig) -> float:
    """cos of the horizon central angle acos(R/r), i.e. R/r: the widest
    separation between sub-point and anchor at which the elevation is still
    >= 0.  ``math.cos(math.acos(R/r))`` rounds back to R/r in every bit at
    every altitude from 100 to 3000 km (``tests/test_division.py``)."""
    return R_EARTH / config.orbit_radius


# GRD2 score blocks: the tallest multiple of 24 rows whose float64 block
# fits 512 KiB, so a block is scored, reduced and dropped while it is still
# in cache; blocks that start on such rows round like the full gemm on the
# OpenBLAS build measured (see README "Conventions")
_SCORE_BLOCK_BYTES = 512 * 1024
_SCORE_TILE_ROWS = 24


def _score_blocks(cells: int, sats: int) -> list[int]:
    """Row bounds [0, ..., cells] of the GRD2 score blocks.

    Blocks are the largest multiple of 24 rows that fits
    ``_SCORE_BLOCK_BYTES`` (24 at least); a 1-row remainder joins the block
    before it, since numpy scores a single row by gemv, which rounds unlike
    gemm.  A matrix that fits one block is one block.
    """
    fit = _SCORE_BLOCK_BYTES // (8 * sats)
    height = max(_SCORE_TILE_ROWS, fit - fit % _SCORE_TILE_ROWS)
    bounds = [*range(0, cells, height), cells]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return bounds


@lru_cache(maxsize=None)
def _grd_tables(num_planes: int, sats_per_plane: int):
    """Per-shape tables of ``grd_assignment``, read-only: the flat cell
    indices (row-major (v, h)), each cell's plane index, the ``_score_blocks`` bounds, and the
    flat offset of each block row in a row-major block of scores."""
    cells = np.arange(num_planes * sats_per_plane)
    cell_planes = cells % num_planes
    bounds = tuple(_score_blocks(len(cells), len(cells)))
    offsets = np.arange(max(np.diff(bounds))) * len(cells)
    for table in (cells, cell_planes, offsets):
        table.flags.writeable = False
    return cells, cell_planes, bounds, offsets


# isclose(top, 1.0, atol=1e-12) with its default rtol: the near-zenith band
# in which a GRD2 cell's best score can tie
_NEAR_ZENITH = 1e-12 + 1e-5


def grd_assignment(config: ConstellationConfig, anchors: np.ndarray, t: float,
                   method: VnMethod) -> np.ndarray:
    """Serving satellite of every frozen cell (``build_grd_grid`` anchors) at
    time t.

    Returns an int array (n2, n1): flat satellite index (plane-1)*n2 +
    (slot-1), or -1 where no eligible satellite is above the horizon.
    Serving = maximum elevation, which for a single shell is the minimum
    central angle (largest unit-vector dot product).  GRD2 scores every
    cell against every satellite, one block of cells per gemm
    (``_score_blocks``); GRD1 only each column against its own plane, in
    one stacked gemm (see README "Conventions" for when these agree bit for
    bit with the full cells x satellites product).

    A GRD2 block skips its tie pass when ``1.0 - block_top.max()`` exceeds
    ``_NEAR_ZENITH``, which holds exactly when no cell of the block has
    ``|top - 1.0| <= _NEAR_ZENITH``: a best score above 1.0 makes the
    difference negative and never skips, and for tops at or below 1.0,
    ``1.0 - top`` is exact by Sterbenz from 0.5 up and rounds monotonically
    below, so no cell of the block is nearer 1.0 than its best.
    """
    if method is VnMethod.CSD:
        raise ValueError("grd_assignment serves GRD1 or GRD2, not CSD")
    n1, n2 = config.num_planes, config.sats_per_plane
    cells, cell_planes, bounds, offsets = _grd_tables(n1, n2)
    _, lats, lons = propagate_all(config, t)
    cos_lats = np.cos(lats)
    sub = np.stack([cos_lats * np.cos(lons),
                    cos_lats * np.sin(lons),
                    np.sin(lats)], axis=1)          # (N, 3) Earth-fixed units
    if method is VnMethod.GRD1:
        # (column, row, slot) blocks: each column's anchors against its own
        # plane, read in place; top and slot come out (column, row) and are
        # flattened to the row-major (row, column) cells
        blocks = np.matmul(anchors.transpose(1, 0, 2), sub.reshape(n1, n2, 3).transpose(0, 2, 1))
        own_slot = np.argmax(blocks, axis=2)[:, :, None]
        top = np.take_along_axis(blocks, own_slot, axis=2).T.ravel()
        best = cell_planes * n2 + own_slot.T.ravel()
    else:
        flat = anchors.reshape(-1, 3)
        buf = np.empty((len(offsets), len(sub)))
        at = np.empty(len(offsets), dtype=np.intp)
        best = np.empty(len(cells), dtype=np.intp)
        top = np.empty(len(cells))
        for lo, hi in zip(bounds, bounds[1:]):
            score = np.matmul(flat[lo:hi], sub.T, out=buf[:hi - lo])   # (block, sats)
            block_best = np.argmax(score, axis=1, out=best[lo:hi])
            block_top = score.take(np.add(offsets[:hi - lo], block_best, out=at[:hi - lo]),
                                   out=top[lo:hi])
            # exact geometric ties (satellites meeting over a pole) resolve to
            # the cell's own column, keeping the frozen-epoch assignment
            # unambiguous.  Only cells whose top is within _NEAR_ZENITH of 1.0
            # can tie, those within ~0.26 deg of a zenith; their own columns
            # are read from the same block.  Most blocks hold no such cell,
            # and skip the pass.
            if 1.0 - block_top.max() > _NEAR_ZENITH:
                continue
            near = np.flatnonzero(np.abs(block_top - 1.0) <= _NEAR_ZENITH)
            planes = cell_planes[lo + near]
            own = score.reshape(-1, n1, n2)[near, planes]
            own_slot = np.argmax(own, axis=1)
            tie = own[cells[:len(near)], own_slot] >= block_top[near] - 1e-12
            block_best[near[tie]] = planes[tie] * n2 + own_slot[tie]
    serving = np.where(top >= _coverage_cos_limit(config), best, -1)
    return serving.reshape(n2, n1)
