"""Inter-satellite link topology under both connecting modes.

A satellite carries two intra-plane links (V-ISLs, always on) and two
inter-plane links (H-ISLs).  H-ISLs never cross the seam between the first
and last plane, and a whole row of H-ISL-chained satellites shuts off while
any member rides through a polar cap.  The conventional mode chains
same-slot satellites; in the optimized mode a row has crossed
c(h) = floor((h-1)F/n1) backward links (to the trailing neighbor, one slot
down) before plane h, one at every boundary where c steps (about every K-th,
K = n1/F), which caps the in-row phase spread at mod(h-1, K) * delta_f
instead of (n1-1) * delta_f.  c(h) is ``division.backward_links``; the
row's member windows and the polar caps are ``division.exact_angles``
numerators (``division.plane_starts``).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constellation import ConfigError, ConstellationConfig, phases_deg
from .division import backward_links, csd_rows_all, exact_angles, plane_starts


class IslMode(enum.Enum):
    CONVENTIONAL = "conventional"
    OPTIMIZED = "optimized"


class IslKind(enum.IntEnum):
    """Link kind; the value is the code stored in edge arrays and virtual-edge keys."""
    V_ISL = 0
    H_ISL = 1


class ShutoffRule(enum.Enum):
    """How polar shut-off is applied to H-ISLs.

    ROW_SYNCHRONIZED holds each row's state constant over a full cell dwell:
    the row is off for the entire handover interval whenever any member would
    enter a polar cap during it.  PER_SATELLITE switches each link the
    instant either endpoint's latitude crosses the threshold (the
    asynchronous behavior of the geographic baseline).
    """
    ROW_SYNCHRONIZED = "row"
    PER_SATELLITE = "per_satellite"


@dataclass(frozen=True, eq=False)
class IslSnapshot:
    """Physical edge set at one instant.

    ``pairs`` holds flat satellite indices (E, 2), V edges plane-major then H
    edges row-major; ``pairs`` and ``kind`` are the cached, read-only layout
    shared by every snapshot of a (config, mode), and only the boolean
    ``active`` mask depends on time.  An H edge is backward (BH) iff its
    second satellite sits one slot below its first.
    """
    pairs: np.ndarray
    kind: np.ndarray
    active: np.ndarray

    def __len__(self) -> int:
        # perfbench's traced isl.snapshot_edges.edges counter takes len()
        # of every snapshot
        return len(self.pairs)


def bh_planes(config: ConstellationConfig) -> frozenset[int] | None:
    """Plane boundaries h (between planes h and h+1) that carry the
    optimized layout's backward links, where c(h) steps; None when F > n1."""
    if config.phasing_factor > config.num_planes:
        return None
    crossed = backward_links(config.num_planes, config.phasing_factor)
    return frozenset((np.flatnonzero(np.diff(crossed)) + 1).tolist())


def _crossed(config: ConstellationConfig, mode: IslMode) -> np.ndarray:
    """c(h) of a mode's layout: zero in conventional mode; optimized F > n1
    is a ConfigError."""
    n1, f = config.num_planes, config.phasing_factor
    if mode is IslMode.CONVENTIONAL:
        return np.zeros(n1, dtype=int)
    if f > n1:
        raise ConfigError("optimized layout requires F <= n1")
    return backward_links(n1, f)


@lru_cache(maxsize=None)
def row_chains(config: ConstellationConfig, mode: IslMode) -> np.ndarray:
    """The n2 rows of H-ISL-chained satellites, one member per plane.

    Returns a read-only int array (n2 rows, n1 planes) of flat satellite
    indices (plane-1)*n2 + slot-1.  Row r (0-based) starts at (plane 1,
    slot r+1); its member in plane h is slot r+1 - c(h), so no row crosses
    the seam.
    """
    n1, n2 = config.num_planes, config.sats_per_plane
    slots = (np.arange(n2)[:, None] - _crossed(config, mode)) % n2
    rows = np.arange(n1) * n2 + slots
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=None)
def active_row_set(config: ConstellationConfig, mode: IslMode) -> frozenset[int]:
    """Dwell rows v whose full handover interval keeps every member clear of
    the polar caps.

    Member h of a row anchored at dwell row v sweeps the half-open window
    [origin + (v-1)*step + spread_h, ... + step) of along-track phase during
    the dwell; the row is active for that dwell iff no window, wrapped past
    360, meets an open cap span.  The window starts (``plane_starts``), the
    row height and the caps are ``exact_angles`` numerators, so the test
    runs on Python ints.  Snapshots, sweep counts, the static virtual graph
    and the ``divide`` regions all read these rows; the paper's closed forms
    and the ``Fraction`` windows of ``verify`` and the tests are their
    oracles.

    The windows of one start s tile the phase line, n2 of them per turn,
    and the caps lie inside (0, 360), so the rows whose window
    [s + (v-1)*step, s + v*step) meets the open cap (lo, hi) are one run,
    v = (lo - s)//step + 1 .. -((s - hi)//step), taken mod n2.
    """
    n2 = config.sats_per_plane
    a = exact_angles(config)
    hit = set()
    for s in set(plane_starts(config, _crossed(config, mode))):
        for lo, hi in a.caps:
            first, last = (lo - s) // a.step + 1, -((s - hi) // a.step)
            hit.update((v - 1) % n2 + 1 for v in range(first, last + 1))
    return frozenset(range(1, n2 + 1)) - hit


@lru_cache(maxsize=None)
def _static_pairs(config: ConstellationConfig, mode: IslMode):
    """Time-invariant layout: (pairs, kind) of every edge."""
    n1, n2 = config.num_planes, config.sats_per_plane
    rows = row_chains(config, mode)
    sats = np.arange(n1 * n2).reshape(n1, n2)
    v_pairs = np.stack([sats.ravel(), np.roll(sats, -1, axis=1).ravel()], axis=1)
    h_pairs = np.stack([rows[:, :-1].ravel(), rows[:, 1:].ravel()], axis=1)
    pairs = np.concatenate([v_pairs, h_pairs])
    kind = np.repeat([IslKind.V_ISL, IslKind.H_ISL], [len(v_pairs), len(h_pairs)])
    for array in (pairs, kind):
        array.flags.writeable = False
    return pairs, kind


@lru_cache(maxsize=2)
def polar_mask(config: ConstellationConfig, t: float) -> np.ndarray:
    """True where a satellite is polar at time t: the sine of its sub-point
    latitude, sin(i) * sin(radians(phases_deg mod 360)), is strictly beyond
    the threshold's, flat-indexed like ``phases_deg``.  The one polar test:
    the per-satellite shut-off rule and the event causes read it for the
    same samples, so it is read-only and cached for the two latest times.
    At the threshold itself a satellite is polar as its sine rounds: at 70
    deg on the descending leg only."""
    u = np.radians(np.mod(phases_deg(config, t), 360.0))
    mask = np.abs(math.sin(config.inclination) * np.sin(u)) > math.sin(config.polar_threshold)
    mask.flags.writeable = False
    return mask


def row_activity(config: ConstellationConfig, mode: IslMode, t: float,
                 shutoff: ShutoffRule) -> np.ndarray:
    """Active flag of every H boundary, shaped (n2 rows, n1-1).

    Row rule: one flag per row, held for the whole dwell of its plane-1
    member; the plane-1 members head the rows in slot order, so their CSD
    rows are the dwell rows.  Per-satellite rule: a boundary is on iff
    neither endpoint is polar (``polar_mask``).
    """
    if shutoff is ShutoffRule.ROW_SYNCHRONIZED:
        active = active_row_set(config, mode)
        flags = np.array([v in active for v in csd_rows_all(config, t)[0].tolist()])
        return np.repeat(flags[:, None], config.num_planes - 1, axis=1)
    rows = row_chains(config, mode)
    polar = polar_mask(config, t)
    return ~(polar[rows[:, :-1]] | polar[rows[:, 1:]])


def snapshot_edges(config: ConstellationConfig, mode: IslMode, t: float,
                   shutoff: ShutoffRule = ShutoffRule.ROW_SYNCHRONIZED) -> IslSnapshot:
    """Physical edge set at time t: V-ISLs always active, H-ISLs per shutoff rule.

    Under the row rule a row's state is anchored to the dwell of its plane-1
    member and is constant between handovers; under the per-satellite rule
    each link follows its endpoints' instantaneous latitudes.
    """
    pairs, kind = _static_pairs(config, mode)
    activity = row_activity(config, mode, t, shutoff)
    active = np.concatenate([np.ones(config.total_sats, dtype=bool), activity.ravel()])
    return IslSnapshot(pairs=pairs, kind=kind, active=active)


def active_hisl_count(snapshot: IslSnapshot) -> int:
    return int(np.count_nonzero(snapshot.active & (snapshot.kind == IslKind.H_ISL)))


def hisl_count(config: ConstellationConfig, mode: IslMode) -> int:
    """H-ISLs on during any dwell: n1-1 per row of ``active_row_set``."""
    return (config.num_planes - 1) * len(active_row_set(config, mode))
