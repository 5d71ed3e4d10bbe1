"""Static virtual graph, snapshot mapping, and topology-change measurement.

The celestial division yields a time-invariant virtual graph: column rings of
V-links plus H-links on every row classified R1/R2.  Mapping a physical
snapshot through an addressing (celestial or geographic) produces an instance
edge set over virtual addresses; diffing consecutive instances produces
topology events, classified by cause so the dynamics of the three methods can
be compared quantitatively.
"""
from __future__ import annotations

import enum
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from .angles import snapped_floor
from .constellation import OMEGA_EARTH, ConstellationConfig, phases_deg
from .division import (
    DivisionConfig,
    GrdGrid,
    GrdVariant,
    RegionBoundaries,
    RegionLabel,
    VirtualAddress,
    build_grd_grid,
    classify_region,
    csd_rows_all,
    division_for,
    grd_assignment,
    switching_epochs,
)
from .isl import (
    IslKind,
    IslMode,
    ShutoffRule,
    boundaries_for,
    snapshot_edges,
)

# A virtual edge: address pair in sorted order plus the link kind.
VEdge = tuple[VirtualAddress, VirtualAddress, IslKind]


class VnMethod(enum.Enum):
    GRD1 = "grd1"   # geographic cells, intra-plane takeover only
    GRD2 = "grd2"   # geographic cells, any-plane takeover
    CSD = "csd"     # celestial cells


class EventCause(enum.Enum):
    POLAR = "POLAR"
    SEAM_DRIFT = "SEAM_DRIFT"
    ASYNC_SWITCH = "ASYNC_SWITCH"
    COVERAGE_LOSS = "COVERAGE_LOSS"


class EventChange(enum.Enum):
    ADDED = "ADDED"
    REMOVED = "REMOVED"


@dataclass(frozen=True)
class TopologyEvent:
    t: float
    edge: VEdge
    change: EventChange
    cause: EventCause


@dataclass(frozen=True)
class VirtualGraph:
    nodes: frozenset[VirtualAddress]
    edges: frozenset[VEdge]

    def edge_count(self, kind: IslKind) -> int:
        return sum(1 for e in self.edges if e[2] is kind)


@dataclass
class StaticnessReport:
    method: VnMethod
    mode: IslMode
    duration_s: float
    samples: int
    event_count: int
    events_by_cause: dict[str, int]
    seam_column_history: list[tuple[float, int]]
    events: list[TopologyEvent] = field(repr=False, default_factory=list)
    mapping_conflicts: int = 0


def _vedge(a: VirtualAddress, b: VirtualAddress, kind: IslKind) -> VEdge:
    return (a, b, kind) if a <= b else (b, a, kind)


def build_static_graph(num_planes: int, sats_per_plane: int,
                       b: RegionBoundaries) -> VirtualGraph:
    """The static virtual graph: V-link rings plus H-links on R1/R2 rows."""
    n1, n2 = num_planes, sats_per_plane
    nodes = frozenset(VirtualAddress(row=v, plane=h)
                      for v in range(1, n2 + 1) for h in range(1, n1 + 1))
    edges = set()
    for h in range(1, n1 + 1):
        for v in range(1, n2 + 1):
            edges.add(_vedge(VirtualAddress(v, h),
                             VirtualAddress(v % n2 + 1, h), IslKind.V_ISL))
    for v in range(1, n2 + 1):
        if classify_region(v, b) in (RegionLabel.R1, RegionLabel.R2):
            for h in range(1, n1):
                edges.add(_vedge(VirtualAddress(v, h),
                                 VirtualAddress(v, h + 1), IslKind.H_ISL))
    return VirtualGraph(nodes=nodes, edges=frozenset(edges))


def is_connected(graph: VirtualGraph) -> bool:
    """BFS reachability over the whole virtual graph."""
    adj = defaultdict(list)
    for a, b, _ in graph.edges:
        adj[a].append(b)
        adj[b].append(a)
    start = next(iter(graph.nodes))
    seen = {start}
    queue = [start]
    while queue:
        node = queue.pop()
        for nxt in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen) == len(graph.nodes)


# -- addressings --------------------------------------------------------------

def csd_addressing(config: ConstellationConfig, division: DivisionConfig,
                   t: float) -> dict:
    """satellite flat index -> [address]; always a bijection for CSD."""
    n1, n2 = config.num_planes, config.sats_per_plane
    rows = csd_rows_all(config, division, t)
    out = {}
    for h in range(n1):
        for j in range(n2):
            out[h * n2 + j] = [VirtualAddress(row=int(rows[h, j]), plane=h + 1)]
    return out


def grd_addressing(serving: np.ndarray) -> tuple[dict, int]:
    """Invert a cell->satellite assignment; returns (sat -> [addresses], conflicts).

    ``conflicts`` counts satellites serving more than one cell (a mapping
    ambiguity of the geographic division, reported, not fatal).
    """
    out = defaultdict(list)
    n2, n1 = serving.shape
    for v in range(n2):
        for h in range(n1):
            s = int(serving[v, h])
            if s >= 0:
                out[s].append(VirtualAddress(row=v + 1, plane=h + 1))
    conflicts = sum(1 for addrs in out.values() if len(addrs) > 1)
    return dict(out), conflicts


def map_snapshot(edges, addressing: dict, sats_per_plane: int) -> frozenset[VEdge]:
    """Relabel active physical edges by an addressing (sat -> addresses)."""
    out = set()
    for e in edges:
        if not e.active:
            continue
        ia = (e.a.plane - 1) * sats_per_plane + (e.a.slot - 1)
        ib = (e.b.plane - 1) * sats_per_plane + (e.b.slot - 1)
        for addr_a in addressing.get(ia, ()):
            for addr_b in addressing.get(ib, ()):
                out.add(_vedge(addr_a, addr_b, e.kind))
    return frozenset(out)


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
    return 1 + snapped_floor(rel / col_width) % n1


# -- instances per method ------------------------------------------------------

def method_instance(config: ConstellationConfig, method: VnMethod, mode: IslMode,
                    t: float, division: DivisionConfig, grid: GrdGrid | None):
    """(instance edges, servers by address, conflicts) at one sample time.

    CSD uses the row-synchronized shut-off and its own (bijective)
    addressing; the geographic variants use per-satellite shut-off and the
    elevation-based serving assignment over the frozen grid.
    """
    if method is VnMethod.CSD:
        edges = snapshot_edges(config, mode, division, t, ShutoffRule.ROW_SYNCHRONIZED)
        addressing = csd_addressing(config, division, t)
        conflicts = 0
    else:
        variant = GrdVariant.INTRA_ONLY if method is VnMethod.GRD1 else GrdVariant.INTER_PLANE
        serving = grd_assignment(config, grid, t, variant)
        addressing, conflicts = grd_addressing(serving)
        edges = snapshot_edges(config, mode, division, t, ShutoffRule.PER_SATELLITE)
    instance = map_snapshot(edges, addressing, config.sats_per_plane)
    servers = {}
    for sat, addrs in addressing.items():
        for addr in addrs:
            servers[addr] = sat
    return instance, servers, conflicts


def _classify(edge: VEdge, servers_absent: dict, lats_absent: np.ndarray,
              config: ConstellationConfig, method: VnMethod,
              t_absent: float) -> EventCause:
    """Cause of one edge change, judged at the sample where the edge is absent."""
    a, b, _kind = edge
    sa = servers_absent.get(a)
    sb = servers_absent.get(b)
    if sa is None or sb is None:
        return EventCause.COVERAGE_LOSS
    plane_a, plane_b = sa // config.sats_per_plane + 1, sb // config.sats_per_plane + 1
    if method is VnMethod.GRD2 and {plane_a, plane_b} == {1, config.num_planes}:
        return EventCause.SEAM_DRIFT
    limit = config.polar_threshold
    in_a = abs(float(lats_absent[sa])) > limit
    in_b = abs(float(lats_absent[sb])) > limit
    if in_a != in_b:
        return EventCause.ASYNC_SWITCH
    return EventCause.POLAR


def _lats_all(config: ConstellationConfig, t: float) -> np.ndarray:
    """Sub-point latitudes of all satellites straight from their phases."""
    u = np.radians(np.mod(phases_deg(config, t), 360.0))
    return np.arcsin(np.clip(math.sin(config.inclination) * np.sin(u), -1.0, 1.0))


def sample_times(config: ConstellationConfig, division: DivisionConfig,
                 duration_s: float, samples: int) -> list[float]:
    """Evenly spaced samples over [0, duration] plus exact handover epochs."""
    times = list(np.linspace(0.0, duration_s, samples))
    n_epochs = int(duration_s / (config.period / config.sats_per_plane)) + 1
    for t in switching_epochs(config, division, n_epochs):
        if 0.0 <= t <= duration_s:
            times.append(t)
    times.sort()
    out = [times[0]]
    for t in times[1:]:
        if t - out[-1] > 1e-9:
            out.append(t)
    return out


def staticness_report(config: ConstellationConfig, method: VnMethod, mode: IslMode,
                      duration_s: float, samples: int) -> StaticnessReport:
    """Diff mapped snapshots over a time window and tally events by cause.

    A celestial division matched to the connecting mode must report zero
    events; the geographic variants exhibit seam drift (variant 2), coverage
    loss (variant 1), and asynchronous switching when the inter-plane phase
    offset is non-zero.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    division = division_for(config)
    grid = build_grd_grid(config, division) if method is not VnMethod.CSD else None
    times = sample_times(config, division, duration_s, samples)

    events: list[TopologyEvent] = []
    causes: Counter = Counter()
    seam_history: list[tuple[float, int]] = []
    conflicts_total = 0

    prev_instance = prev_servers = None
    prev_lats = None
    prev_t = None
    for t in times:
        instance, servers, conflicts = method_instance(
            config, method, mode, t, division, grid)
        conflicts_total += conflicts
        lats = _lats_all(config, t)
        if method is VnMethod.GRD2:
            seam_history.append((t, seam_columns(config, t)))
        if prev_instance is not None:
            for edge in sorted(instance - prev_instance):
                cause = _classify(edge, prev_servers, prev_lats, config, method, prev_t)
                events.append(TopologyEvent(t=t, edge=edge,
                                            change=EventChange.ADDED, cause=cause))
                causes[cause.value] += 1
            for edge in sorted(prev_instance - instance):
                cause = _classify(edge, servers, lats, config, method, t)
                events.append(TopologyEvent(t=t, edge=edge,
                                            change=EventChange.REMOVED, cause=cause))
                causes[cause.value] += 1
        prev_instance, prev_servers, prev_lats, prev_t = instance, servers, lats, t

    return StaticnessReport(
        method=method, mode=mode, duration_s=duration_s, samples=len(times),
        event_count=len(events), events_by_cause=dict(causes),
        seam_column_history=seam_history, events=events,
        mapping_conflicts=conflicts_total)


def static_graph_for(config: ConstellationConfig, mode: IslMode) -> VirtualGraph:
    """Static virtual graph with the mode-matched region boundaries."""
    return build_static_graph(config.num_planes, config.sats_per_plane,
                              boundaries_for(config, mode))
