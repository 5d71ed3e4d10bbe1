"""Network performance metrics over physical snapshots.

Throughput: satellites over the source box feed a super-source, satellites
over the sink box drain to a super-sink, every active ISL carries 1 Gbps per
direction at a cost equal to its propagation delay, and the min-cost
max-flow value is the system throughput (``flow.MinCostMaxFlow``:
successive shortest paths, each found by scipy's compiled Dijkstra; the
ISLs go in with one ``add_edges`` call).
Latency: mean shortest propagation delay over seeded random satellite pairs,
from an exact all-sources sweep over the V-ISL rings and H-ISL boundaries.
A sweep tabulates the H-ISL counts across phasing factors, with one metric
(either of the above) per grid point.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .constellation import ConfigError, ConstellationConfig, propagate_all
from .flow import INF_CAPACITY, MinCostMaxFlow
from .isl import (
    IslKind,
    IslMode,
    IslSnapshot,
    active_row_set,
    hisl_count,
    row_chains,
    snapshot_edges,
)

SPEED_OF_LIGHT = 299_792_458.0  # m/s


@dataclass(frozen=True, eq=False)
class WeightedNetSnapshot:
    """Active edges at one instant, annotated with propagation delay.

    ``edges`` holds the (E, 2) flat satellite indices of the active edges in
    snapshot order; ``kind`` and ``delay_s`` are per edge.  ``sats_per_plane``
    gives the grid of the flat index (plane-1)*n2 + slot-1.
    """
    num_sats: int
    sats_per_plane: int
    edges: np.ndarray = field(repr=False)
    kind: np.ndarray = field(repr=False)
    delay_s: np.ndarray = field(repr=False)
    lats: np.ndarray = field(repr=False)            # rad
    lons: np.ndarray = field(repr=False)            # rad, rotating frame


@dataclass(frozen=True)
class LatLonBox:
    """Closed latitude/longitude box in degrees; lon range must not wrap."""
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def contains(self, lat_deg: np.ndarray, lon_deg: np.ndarray) -> np.ndarray:
        return ((lat_deg >= self.lat_min) & (lat_deg <= self.lat_max)
                & (lon_deg >= self.lon_min) & (lon_deg <= self.lon_max))


# The throughput experiment: an east-west hemispheric pair of disjoint boxes
# (roughly North America to Europe/Africa); ISLs carry ISL_CAPACITY_GBPS per
# direction and the satellite-ground hops are uncapacitated.
SOURCE_BOX = LatLonBox(20.0, 50.0, -130.0, -60.0)
SINK_BOX = LatLonBox(20.0, 50.0, 0.0, 70.0)
ISL_CAPACITY_GBPS = 1.0


def weight_snapshot(config: ConstellationConfig, snapshot: IslSnapshot,
                    t: float) -> WeightedNetSnapshot:
    """Annotate the active edges of a snapshot with chord length and delay."""
    _, positions, lats, lons = propagate_all(config, t)
    edges = snapshot.pairs[snapshot.active]
    d = positions[edges[:, 0]] - positions[edges[:, 1]]
    # vecdot rounds like the per-edge norm of a 3-vector; (d*d).sum(1) does not
    length = np.sqrt(np.vecdot(d, d))
    return WeightedNetSnapshot(num_sats=config.total_sats,
                               sats_per_plane=config.sats_per_plane, edges=edges,
                               kind=snapshot.kind[snapshot.active],
                               delay_s=length / SPEED_OF_LIGHT, lats=lats, lons=lons)


def snapshot_at(config: ConstellationConfig, mode: IslMode, t: float) -> WeightedNetSnapshot:
    return weight_snapshot(config, snapshot_edges(config, mode, t), t)


def max_flow_throughput(snapshot: WeightedNetSnapshot) -> float:
    """System throughput in Gbps for one snapshot.

    Coverage is sub-point membership in ``SOURCE_BOX`` or ``SINK_BOX``.
    Returns 0 when either box is uncovered.
    """
    lat_deg = np.degrees(snapshot.lats)
    lon_deg = np.degrees(snapshot.lons)
    over_source = SOURCE_BOX.contains(lat_deg, lon_deg)
    over_sink = SINK_BOX.contains(lat_deg, lon_deg)
    if not over_source.any() or not over_sink.any():
        return 0.0
    n = snapshot.num_sats
    source, sink = n, n + 1
    net = MinCostMaxFlow(n + 2)
    for i in np.flatnonzero(over_source):
        net.add_arc(source, int(i), INF_CAPACITY)
    for i in np.flatnonzero(over_sink):
        net.add_arc(int(i), sink, INF_CAPACITY)
    # one capacity unit == one ISL; per-direction capacity on each link
    net.add_edges(snapshot.edges[:, 0], snapshot.edges[:, 1], 1, snapshot.delay_s)
    flow_units, _cost = net.solve(source, sink)
    return flow_units * ISL_CAPACITY_GBPS


def require_count(name: str, value: int) -> None:
    """Reject an empty sample count (``snapshots`` or ``pairs``)."""
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value}")


def _snapshot_times(config: ConstellationConfig, snapshots: int) -> list[float]:
    """``snapshots`` evenly spaced times across one period, from t = 0."""
    require_count("snapshots", snapshots)
    return [k * config.period / snapshots for k in range(snapshots)]


def mean_throughput(config: ConstellationConfig, mode: IslMode, snapshots: int) -> float:
    """Mean throughput over the ``_snapshot_times``."""
    values = [max_flow_throughput(snapshot_at(config, mode, t))
              for t in _snapshot_times(config, snapshots)]
    return float(np.mean(values))


# -- shortest-path latency ----------------------------------------------------

def shortest_path_delays(snapshot: WeightedNetSnapshot,
                         sources: np.ndarray) -> np.ndarray:
    """Min propagation delay from each source to every satellite (seconds).

    Returns (len(sources), n1, n2): [i, p, s] is the delay from source i to
    slot s of plane p.  It is a strided view of the slot-major (n2, n1,
    sources) working array, not a copy; unreachable entries are +inf.
    Label correcting over all sources at once on the constellation grid: a
    ring pass relaxes the V-ISL rings and a row pass every H-ISL boundary,
    and rounds repeat until a row pass lowers nothing.  Every relaxation
    adds an edge's ``delay_s`` to a distance, as Dijkstra on
    ``verify.delay_matrix`` does, and adding a delay >= 0 is monotone, so
    no label drops below that search's.  A ring pass leaves every V-ISL
    relaxed (``_ring_pass``), a row pass that lowers nothing leaves every
    H-ISL relaxed, and labels with every link relaxed are, along
    Dijkstra's own shortest-path tree, no higher than its distances: the
    result is that search's bit for bit (README "Conventions").  The first
    ring pass from the sources is read from the same pass run once from
    every slot.
    """
    planes, slots = np.divmod(np.asarray(sources), snapshot.sats_per_plane)
    n, n2, k = snapshot.num_sats, snapshot.sats_per_plane, len(planes)
    ring_w, boundaries = _grid_weights(snapshot)
    hops = _segment_hops(ring_w)
    from_slot = np.full((n2, n // n2, n2), np.inf)
    from_slot[np.arange(n2), :, np.arange(n2)] = 0.0
    _ring_pass(from_slot, ring_w, hops)
    dist = np.full((n2, n // n2, k), np.inf)
    dist[:, planes, np.arange(k)] = from_slot[:, planes, slots]
    del from_slot                       # not held through the rounds: peak RSS
    flat = dist.reshape(n, k)
    while _row_pass(flat, boundaries):
        _ring_pass(dist, ring_w, hops)
    return dist.transpose(2, 1, 0)


def _grid_weights(snapshot: WeightedNetSnapshot):
    """Edge delays laid out for the slot-major latency sweep.

    Returns the V-ISL delays (n2, n1, 1), where [s, p] links slot s to slot
    s+1 of plane p and is +inf while the link is off, and one
    ``(from, to, delays)`` triple per plane boundary with active H-ISLs:
    the slot-major rows ``slot*n1 + plane`` of the satellites of plane h
    and of their partners in plane h+1, and (k, 1) delays.
    """
    n2 = snapshot.sats_per_plane
    n1 = snapshot.num_sats // n2
    v = snapshot.kind == IslKind.V_ISL
    ring_w = np.full((n2, n1, 1), np.inf)
    plane, slot = np.divmod(snapshot.edges[v, 0], n2)
    ring_w[slot, plane, 0] = snapshot.delay_s[v]
    h = ~v
    plane, slot = np.divmod(snapshot.edges[h], n2)
    # the H-ISLs grouped by boundary, in snapshot order within each
    order = np.argsort(plane[:, 0], kind="stable")
    src, dst = (slot * n1 + plane)[order].T.copy()
    delay = snapshot.delay_s[h][order, None]
    first = np.flatnonzero(np.diff(plane[order, 0], prepend=-1)).tolist()
    return ring_w, [(src[a:b], dst[a:b], delay[a:b])
                    for a, b in zip(first, [*first[1:], len(order)])]


def _segment_hops(ring_w: np.ndarray) -> int:
    """The most links of a one-way ring segment that can be a shortest
    route: the largest k in 1..n2-1 with k*min_w <= (n2-k)*max_w over the
    V-ISL delays ``ring_w``, +inf for a link that is off.

    A segment of m > k links is then longer than the n2-m links the other
    way round by more than the relative margin ``1e-6``, far beyond the
    rounding of a sum of n2 delays.  Equal chords give n2 // 2; a link
    that is off, or much longer than the rest, gives n2-1.
    """
    n2 = len(ring_w)
    k = np.arange(1, n2)
    # true for k = 1 (min_w <= max_w), and k*min_w - (n2-k)*max_w grows with k
    return int(np.count_nonzero(k * ring_w.min() <= (n2 - k) * ring_w.max() * (1 + 1e-6)))


def _ring_pass(dist: np.ndarray, ring_w: np.ndarray, hops: int) -> None:
    """Relax the V-ISL rings of ``dist`` (n2, n1, columns) in place: one lap
    up the slots plus ``hops - 1`` steps, then the same down; each step
    works on the contiguous (n1, columns) slab of one slot.

    Whatever slot it starts from, a one-way segment of at most ``hops``
    links is relaxed in order within the lap and the steps after it, from
    a label no higher than the one the pass began with.  Some shortest
    ring route from every label is such a segment (``_segment_hops``), so
    the pass leaves every ring at the least ring-only distances from the
    labels it was given: every V-ISL is relaxed.
    """
    n2 = len(dist)
    step = np.empty_like(dist[0])
    laps = [*range(n2), *range(hops - 1)]
    for s in laps:                      # slot s -> s+1
        up = dist[(s + 1) % n2]
        np.add(dist[s], ring_w[s], out=step)
        np.minimum(up, step, out=up)
    for s in laps:                      # slot s+1 -> s, from the top down
        s = n2 - 1 - s
        down = dist[s]
        np.add(dist[(s + 1) % n2], ring_w[s], out=step)
        np.minimum(down, step, out=down)


def _row_pass(flat: np.ndarray, boundaries) -> bool:
    """Relax the active H-ISLs of ``flat`` (N, columns), rows slot-major, in
    place, boundary by boundary toward the last plane and then back; returns
    whether any distance dropped.

    The active links of one boundary form a matching, so each step is one
    gather and one scatter without repeated targets.
    """
    changed = False
    for src, dst, delay in [*boundaries, *((b, a, w) for a, b, w in reversed(boundaries))]:
        reach = flat[src]
        reach += delay
        held = flat[dst]
        if (reach < held).any():
            flat[dst] = np.minimum(held, reach, out=reach)
            changed = True
    return changed


def draw_pairs(total_sats: int, pairs: int, seed: int) -> np.ndarray:
    """Seeded ordered satellite pairs, shape (pairs, 2).

    Stream contract: numpy PCG64 via default_rng(seed), a single
    integers(0, N, size=(pairs, 2)) call; identical across platforms.
    Self-pairs can occur and contribute zero delay.
    """
    rng = np.random.default_rng(seed)
    return rng.integers(0, total_sats, size=(pairs, 2))


def seeded_pairs(config: ConstellationConfig, pairs: int, seed: int):
    """``draw_pairs`` indexed for ``mean_latency``: the distinct sources,
    each pair's row among them, and its destination's plane and slot.  They
    depend only on the satellite count and the seed, so every mode and
    phasing factor of a sweep compares the same pairs."""
    require_count("pairs", pairs)
    pair_arr = draw_pairs(config.total_sats, pairs, seed)
    sources, src_rows = np.unique(pair_arr[:, 0], return_inverse=True)
    return (sources, src_rows, *np.divmod(pair_arr[:, 1], config.sats_per_plane))


def mean_latency(config: ConstellationConfig, mode: IslMode, drawn,
                 snapshots: int) -> float:
    """Mean shortest-path delay in ms over the ``seeded_pairs`` ``drawn`` at
    the ``_snapshot_times``.

    Pools all (pair, snapshot) samples; unreachable ones are left out of
    the mean, which is +inf when no sample is reachable.
    """
    sources, src_rows, dst_plane, dst_slot = drawn
    total, count = 0.0, 0
    for t in _snapshot_times(config, snapshots):
        snap = snapshot_at(config, mode, t)
        delays = shortest_path_delays(snap, sources)[src_rows, dst_plane, dst_slot]
        finite = np.isfinite(delays)
        total += float(delays[finite].sum())
        count += int(finite.sum())
    return (total / count) * 1e3 if count else float("inf")


# -- sweeps --------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    phasing_factor: int
    polar_threshold_deg: float
    mode: str
    n_hisl: int
    value: float | None                 # the sweep's metric; None without one
    error: str = ""


def sweep(config_template: ConstellationConfig, f_values, modes,
          metric: Callable[[ConstellationConfig, IslMode], float] | None = None,
          ) -> list[SweepRow]:
    """One row per (F, mode); each grid point is ``config_template`` with
    its phasing factor replaced.

    ``metric(config, mode) -> float`` runs once per distinct link layout at
    a grid point: modes with the same ``row_chains`` and ``active_row_set``
    build the same snapshot at every time (both modes when F <= 1).  Grid
    points whose configuration is rejected (ConfigError) are recorded as
    error rows and the sweep continues; any other exception, and any
    exception from the metric, propagates.
    """
    polar = float(config_template.polar_threshold_deg)
    rows = []
    for f in f_values:
        values = {}                     # (row chains, active rows) -> value
        for mode in modes:
            try:
                cfg = replace(config_template, phasing_factor=int(f))
                n_hisl = hisl_count(cfg, mode)
                layout = (row_chains(cfg, mode).tobytes(), active_row_set(cfg, mode))
            except ConfigError as exc:  # keep sweeping, record the point
                rows.append(SweepRow(int(f), polar, mode.value, -1, None, str(exc)))
                continue
            if layout not in values:
                values[layout] = None if metric is None else metric(cfg, mode)
            rows.append(SweepRow(int(f), polar, mode.value, n_hisl, values[layout]))
    return rows
