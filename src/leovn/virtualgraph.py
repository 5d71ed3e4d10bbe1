"""Static virtual graph, snapshot mapping, and topology-change measurement.

The celestial division yields a time-invariant virtual graph: column rings of
V-links plus H-links on every active row (``isl.active_row_set``).  Mapping a
physical snapshot through an addressing (celestial or geographic) produces an
instance edge set over virtual addresses; diffing consecutive instances produces
topology events, classified by cause so the dynamics of the three methods can
be compared quantitatively.

Addressings are cell -> satellite arrays shaped (n2, n1); cells are flat
indices (row-1)*n1 + plane-1 and virtual edges are int64 keys, so graphs and
instances are sorted key arrays and diffs are set differences of arrays.
"""
from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .constellation import OMEGA_EARTH, ConfigError, ConstellationConfig
from .division import (
    CELL_SNAP,
    VnMethod,
    build_grd_grid,
    csd_rows_all,
    grd_assignment,
    grd_switch_interval,
    switching_epochs,
)
from .isl import (
    IslKind,
    IslMode,
    IslSnapshot,
    ShutoffRule,
    active_row_set,
    polar_mask,
    snapshot_edges,
)


class EventCause(enum.IntEnum):
    """Cause of a topology event; the value is the code kept in event arrays."""
    POLAR = 0
    SEAM_DRIFT = 1
    ASYNC_SWITCH = 2
    COVERAGE_LOSS = 3


class EventChange(enum.IntEnum):
    ADDED = 0
    REMOVED = 1


@dataclass
class StaticnessReport:
    """Tallies of one staticness window; no event is kept.  ``event_count``
    counts the events of every sample and ``events_by_cause`` splits it by
    ``EventCause`` name, in order of first appearance.  The events
    themselves go, one sample at a time, to ``staticness_report``'s
    ``on_events``."""
    method: VnMethod
    mode: IslMode
    duration_s: float
    samples: int
    event_count: int
    events_by_cause: dict[str, int]
    seam_column_history: list[tuple[float, int]]
    mapping_conflicts: int = 0


# -- cell indices and edge keys ------------------------------------------------

def _edge_keys(a, b, kind, num_cells: int) -> np.ndarray:
    """Keys (lo*C + hi)*2 + kind of the undirected cell pairs (a, b), C the
    cell count and ``kind`` an ``IslKind`` or an array of codes: sorting keys
    sorts by (lower cell, higher cell, kind)."""
    lo = np.minimum(a, b).astype(np.int64)
    return (lo * num_cells + np.maximum(a, b)) * 2 + kind


def _split_keys(keys: np.ndarray, num_cells: int):
    """(lower cell, higher cell, kind code) arrays of edge keys."""
    pair, kind = np.divmod(keys, 2)
    lo, hi = np.divmod(pair, num_cells)
    return lo, hi, kind


def edge_addresses(keys: np.ndarray, num_planes: int, num_cells: int):
    """1-based (lo row, lo plane, hi row, hi plane) and kind code of each key."""
    lo, hi, kind = _split_keys(keys, num_cells)
    (lo_row, lo_plane), (hi_row, hi_plane) = np.divmod(lo, num_planes), np.divmod(hi, num_planes)
    return lo_row + 1, lo_plane + 1, hi_row + 1, hi_plane + 1, kind


def static_graph_for(config: ConstellationConfig, mode: IslMode) -> np.ndarray:
    """The static virtual graph as sorted unique edge keys: V-link rings plus
    H-links on the mode's active rows (``isl.active_row_set``)."""
    n1, n2 = config.num_planes, config.sats_per_plane
    cells = np.arange(n1 * n2).reshape(n2, n1)      # flat cell (row-1)*n1 + plane-1
    h_rows = np.isin(np.arange(1, n2 + 1), list(active_row_set(config, mode)))
    edges = np.concatenate([
        _edge_keys(cells, np.roll(cells, -1, axis=0), IslKind.V_ISL, cells.size).ravel(),
        _edge_keys(cells[h_rows, :-1], cells[h_rows, 1:], IslKind.H_ISL, cells.size).ravel()])
    return np.unique(edges)


# -- addressing and mapping -----------------------------------------------------

def csd_addressing(config: ConstellationConfig, t: float) -> np.ndarray:
    """Cell -> satellite array (n2, n1) of the celestial division: a permutation
    of the flat satellite indices."""
    n1, n2 = config.num_planes, config.sats_per_plane
    serving = np.full((n2, n1), -1)
    rows = csd_rows_all(config, t) - 1     # indexed (plane-1, slot-1)
    serving[rows, np.arange(n1)[:, None]] = np.arange(n1 * n2).reshape(n1, n2)
    return serving


def map_snapshot(snapshot: IslSnapshot, serving: np.ndarray) -> np.ndarray:
    """Relabel the active physical edges through a cell -> satellite array.

    Returns the instance as sorted unique edge keys.  Served cells are
    grouped by satellite, and each active edge (a, b) expands to all
    count[a] * count[b] pairs of their cells, so a satellite serving several
    cells links all of them and an unserved satellite none.  There are as
    many cells as satellites.
    """
    cells = serving.size
    flat = serving.ravel()
    by_sat = np.argsort(flat, kind="stable")[np.count_nonzero(flat < 0):]
    count = np.bincount(flat[by_sat], minlength=cells)
    start = np.cumsum(count) - count            # first cell of each satellite in by_sat
    a, b = snapshot.pairs[snapshot.active].T
    pairs = count[a] * count[b]                 # cell pairs per active edge
    edge = np.repeat(np.arange(len(pairs)), pairs)
    offset = np.arange(len(edge)) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    i, j = np.divmod(offset, count[b][edge])
    keys = np.sort(_edge_keys(by_sat[start[a][edge] + i], by_sat[start[b][edge] + j],
                              snapshot.kind[snapshot.active][edge], cells))
    # keys are >= 0; this sorted unique is ~10x faster than np.unique at this size
    return keys[np.diff(keys, prepend=-1) != 0]


def seam_columns(config: ConstellationConfig, t: float) -> int:
    """Virtual column boundary currently holding the seam, as an index 1..n1.

    Index k means the seam sits at the western boundary of column k (k = 1 is
    the structural n1 <-> 1 boundary).  The seam's inertial longitude is fixed
    at the far edge of the plane fan; in the rotating frame it sweeps all n1
    columns twice per sidereal day.
    """
    n1 = config.num_planes
    col_width = 180.0 / n1
    seam_ground_deg = config.raan0_deg + 180.0 - math.degrees(OMEGA_EARTH * t)
    rel = (seam_ground_deg - config.raan0_deg) % 180.0
    # snapped like the CSD rows: a seam exactly on a boundary is in the upper column
    return 1 + math.floor(rel / col_width + CELL_SNAP) % n1


# -- instances per method ------------------------------------------------------

def method_instance(config: ConstellationConfig, method: VnMethod, mode: IslMode,
                    t: float, anchors: np.ndarray | None):
    """(physical snapshot, cell -> satellite array, conflicts) at one sample
    time: the method's instance is ``map_snapshot(snapshot, serving)``.

    CSD uses the row-synchronized shut-off and its own (bijective)
    addressing; the geographic variants use per-satellite shut-off and the
    elevation-based serving assignment over the frozen grid.  ``conflicts``
    counts satellites serving more than one cell (a mapping ambiguity of the
    geographic division, reported, not fatal).
    """
    if method is VnMethod.CSD:
        snapshot = snapshot_edges(config, mode, t, ShutoffRule.ROW_SYNCHRONIZED)
        serving = csd_addressing(config, t)
    else:
        serving = grd_assignment(config, anchors, t, method)
        snapshot = snapshot_edges(config, mode, t, ShutoffRule.PER_SATELLITE)
    cells_per_sat = np.bincount(serving[serving >= 0], minlength=serving.size)
    conflicts = int(np.count_nonzero(cells_per_sat > 1))
    return snapshot, serving, conflicts


def event_causes(keys: np.ndarray, serving: np.ndarray, polar: np.ndarray,
                 config: ConstellationConfig, method: VnMethod) -> np.ndarray:
    """``EventCause`` code of each changed edge, judged at the sample where
    the edge is absent (its serving array and ``isl.polar_mask``)."""
    lo, hi, _ = _split_keys(keys, serving.size)
    flat = serving.ravel()
    sat_a, sat_b = flat[lo], flat[hi]
    plane_a, plane_b = sat_a // config.sats_per_plane, sat_b // config.sats_per_plane
    seam = ((method is VnMethod.GRD2) & (np.minimum(plane_a, plane_b) == 0)
            & (np.maximum(plane_a, plane_b) == config.num_planes - 1))
    # lowest priority first: each later mask overrides the earlier ones
    causes = np.full(len(keys), EventCause.POLAR, dtype=np.int64)
    causes[polar[sat_a] != polar[sat_b]] = EventCause.ASYNC_SWITCH
    causes[seam] = EventCause.SEAM_DRIFT
    causes[(sat_a < 0) | (sat_b < 0)] = EventCause.COVERAGE_LOSS
    return causes


def sample_times(config: ConstellationConfig, duration_s: float,
                 samples: int) -> list[float]:
    """Evenly spaced samples over [0, duration] plus the CSD handover epochs
    (``switching_epochs``) inside it.  GRD1 hands over near the half-epochs
    instead, so for the geographic methods the epochs are only extra sample
    points."""
    times = list(np.linspace(0.0, duration_s, samples))
    n_epochs = int(duration_s / grd_switch_interval(config.period, config.sats_per_plane)) + 1
    for t in switching_epochs(config, n_epochs):
        if 0.0 <= t <= duration_s:
            times.append(t)
    times.sort()
    out = [times[0]]
    for t in times[1:]:
        if t - out[-1] > 1e-9:
            out.append(t)
    return out


def _missing(keys: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Sorted unique keys (>= 0) absent from sorted unique ``other``: a merge."""
    return keys[np.append(other, -1)[np.searchsorted(other, keys)] != keys]


def staticness_report(config: ConstellationConfig, method: VnMethod, mode: IslMode,
                      duration_s: float, samples: int,
                      on_events: Callable[[float, np.ndarray, np.ndarray, np.ndarray], None]
                      | None = None) -> StaticnessReport:
    """Diff mapped snapshots over a time window and tally events by cause.

    A celestial division matched to the connecting mode must report zero
    events; the geographic variants exhibit seam drift (GRD2), coverage
    loss (GRD1), and asynchronous switching when the inter-plane phase
    offset is non-zero.  A sample whose serving array and active mask equal
    the previous sample's keeps its instance unmapped; only changed
    instances are diffed, and the polar mask is read only at samples whose
    events are classified.  Conflicts count at every sample.

    Each sample whose instance differs from the previous one passes its
    events to ``on_events(t, keys, changes, causes)``, in sample order: ``t``
    is the sample-time object of ``sample_times``, ``keys`` the ADDED edge
    keys then the REMOVED ones, each run sorted, and ``changes`` and
    ``causes`` their ``EventChange`` and ``EventCause`` codes.  The report
    keeps only tallies, so its memory does not grow with the event count.
    """
    if samples < 2:
        raise ConfigError(f"samples must be >= 2, got {samples}")
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise ConfigError(f"duration_s must be finite and > 0, got {duration_s}")
    anchors = build_grd_grid(config) if method is not VnMethod.CSD else None
    times = sample_times(config, duration_s, samples)

    def classify(keys, serving, i):     # sin_lat caches samples i-1 and i
        polar = polar_mask(config, times[i])
        return event_causes(keys, serving, polar, config, method) if len(keys) else keys

    cause_counts = np.zeros(len(EventCause), dtype=np.int64)
    cause_order: list[int] = []     # codes in order of first appearance
    seam_history: list[tuple[float, int]] = []
    conflicts_total = 0

    prev = None
    for i, t in enumerate(times):
        snapshot, serving, conflicts = method_instance(config, method, mode, t, anchors)
        conflicts_total += conflicts
        if method is VnMethod.GRD2:
            seam_history.append((t, seam_columns(config, t)))
        # the layout is fixed per (config, mode): equal serving arrays and
        # active masks map to the previous instance, so nothing changed
        if (prev is not None and np.array_equal(snapshot.active, prev[2])
                and np.array_equal(serving, prev[1])):
            continue
        instance = map_snapshot(snapshot, serving)
        if prev is not None and not np.array_equal(instance, prev[0]):
            prev_instance, prev_serving, _ = prev
            added, removed = _missing(instance, prev_instance), _missing(prev_instance, instance)
            causes = np.concatenate([classify(added, prev_serving, i - 1),
                                     classify(removed, serving, i)])
            counts = np.bincount(causes, minlength=len(EventCause))
            new = [c for c in np.flatnonzero(counts).tolist() if c not in cause_order]
            cause_order += sorted(new, key=lambda c: int(np.argmax(causes == c)))
            cause_counts += counts
            if on_events is not None:
                changes = np.repeat([EventChange.ADDED, EventChange.REMOVED],
                                    [len(added), len(removed)])
                on_events(t, np.concatenate([added, removed]), changes, causes)
        prev = instance, serving, snapshot.active

    return StaticnessReport(
        method=method, mode=mode, duration_s=duration_s, samples=len(times),
        event_count=int(cause_counts.sum()),
        events_by_cause={EventCause(c).name: int(cause_counts[c]) for c in cause_order},
        seam_column_history=seam_history, mapping_conflicts=conflicts_total)
