"""Self-check suites: every analytic result against an independent oracle.

Each check returns a CheckResult with the parameter grid it ran; the CLI
``verify`` subcommand prints them as JSON lines and exits non-zero when any
check fails.  Oracles here are deliberately brute force: inequality scans for
the paper's closed-form region rows, exhaustive link-layout enumeration, snapshot
edge counting, exhaustive cuts and scipy's ``maximum_flow`` for max-flow (and a
feasibility check of the returned per-arc flows), and for the latency kernel
full path enumeration on constellations of at most 12 satellites and scipy's
Dijkstra up to the paper's 18x36.  Five checks test the paper's claims
instead: the H-ISL count trends, the GRD dynamics, GRD1's handovers near the
half-epochs, and the throughput and latency trends over the phasing factor at
18x36.

scipy is imported only inside the four functions that call it
(``is_connected``, ``scipy_max_flow``, ``delay_matrix`` and
``latency_equals_dijkstra``), so ``theorem1_layouts`` and the ``division``,
``counts`` and ``theorem1`` suites run on numpy alone.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction

import numpy as np

from . import analysis, division, isl, virtualgraph
from .constellation import SIDEREAL_DAY, ConfigError, ConstellationConfig
from .flow import MaxFlowNetwork
from .isl import IslMode


@dataclass
class CheckResult:
    name: str
    grid: str
    passed: bool
    detail: str = ""
    failures: list[str] = dc_field(default_factory=list)

    def fail(self, message: str) -> None:
        self.passed = False
        self.failures.append(message)
        if not self.detail:
            self.detail = message


def _paper_config(f: int, n1: int = 18, n2: int = 36) -> ConstellationConfig:
    """The comparison constellation: n1 x n2 at 780 km, polar threshold 70."""
    return ConstellationConfig(num_planes=n1, sats_per_plane=n2, phasing_factor=f,
                               altitude_km=780.0, polar_threshold_deg=70.0)


# -- the paper's region rows, by inequality scan --------------------------------

def boundaries_by_scan(sats_per_plane: int, polar_deg, spread_deg=0) -> tuple[int, int, int]:
    """The paper's region rows (r1_end, r2_start, r2_end), solved by direct scan.

    Largest v with v*step + spread <= 2*polar (R1 end), smallest v with
    (v-1)*step >= 180 (R2 start), largest v with v*step + spread <= 180 +
    2*polar (R2 end); exact rational comparisons throughout.  Degenerate
    spreads clamp R1 to empty (0) and R2 to r2_start - 1.  The rows are the
    geometric ones at inclination 90 with the threshold below 90, where no
    row straddles a cap.
    """
    n2 = sats_per_plane
    step = Fraction(360, n2)
    polar = Fraction(polar_deg)
    spread = Fraction(spread_deg)
    r1_end = max((v for v in range(0, n2 + 1) if v * step + spread <= 2 * polar),
                 default=0)
    r2_start = min(v for v in range(1, n2 + 2) if (v - 1) * step >= 180)
    r2_end = max((v for v in range(0, n2 + 1) if v * step + spread <= 180 + 2 * polar),
                 default=0)
    return r1_end, r2_start, min(max(r2_end, r2_start - 1), n2)


def rows_by_scan(sats_per_plane: int, polar_deg, spread_deg=0) -> frozenset[int]:
    """The R1 and R2 rows of ``boundaries_by_scan``."""
    r1_end, r2_start, r2_end = boundaries_by_scan(sats_per_plane, polar_deg, spread_deg)
    return frozenset(range(1, r1_end + 1)) | frozenset(range(r2_start, r2_end + 1))


def _paper_spread_deg(n1: int, n2: int, f: int, mode: IslMode) -> Fraction:
    """Largest in-row phase spread by the paper's forms: (n1-1)*delta_f in
    conventional mode, max over planes of mod(h-1, K)*delta_f optimized."""
    delta_f = Fraction(360 * f, n1 * n2)
    if mode is IslMode.CONVENTIONAL or f == 0:
        return (n1 - 1) * delta_f
    k = Fraction(n1, f)
    return max((h - math.floor(h / k) * k) * delta_f for h in range(n1))


def _matches_active_rows(cfg: ConstellationConfig, mode: IslMode,
                         scanned: frozenset[int]) -> bool:
    """Whether ``isl.active_row_set`` equals the scanned rows; at polar 90
    there are no caps and every row is active."""
    n2 = cfg.sats_per_plane
    want = frozenset(range(1, n2 + 1)) if cfg.polar_threshold_deg == 90 else scanned
    return isl.active_row_set(cfg, mode) == want


def check_division() -> CheckResult:
    """Scanned region rows equal the paper's literal integer-K forms and the
    geometric active rows at the zero, integer-K, fractional-K and
    conventional row spreads."""
    n2_grid = (12, 24, 36, 66)
    polar_grid = (60, 64, 70, 80, 90)
    result = CheckResult(
        name="division",
        grid=f"phased: n1 in (6,12,18), F | n1 or F=0 x n2 in {n2_grid} x polar in "
             f"{polar_grid}; realized spreads: n1 in (6,12,18) x n2 in (12,24,36) x "
             "polar in (60,64,70,80) x F in 0..5 x both modes",
        passed=True)
    for n1 in (6, 12, 18):
        for f in range(0, n1 + 1):
            if f and n1 % f != 0:
                continue
            k = Fraction(n1, f) if f else Fraction(1)
            for n2, polar in itertools.product(n2_grid, polar_grid):
                if f > n2 - 1:
                    continue
                spread = (k - 1) * Fraction(360 * f, n1 * n2)
                scanned = boundaries_by_scan(n2, polar, spread)
                # the paper's forms floor(n2*polar/180 [+ n2/2] - (K-1)/K)
                rows = Fraction(n2 * polar, 180) - (k - 1) / k
                literal = (math.floor(rows), math.floor(rows + Fraction(n2, 2)))
                cfg = ConstellationConfig(num_planes=n1, sats_per_plane=n2, phasing_factor=f,
                                          polar_threshold_deg=polar)
                if (scanned[0], scanned[2]) != literal or not _matches_active_rows(
                        cfg, IslMode.OPTIMIZED, rows_by_scan(n2, polar, spread)):
                    result.fail(
                        f"phased rows n1={n1} F={f} n2={n2} polar={polar}: "
                        f"{scanned} != literal {literal} or active rows")
    for n1, n2, polar, f, mode in itertools.product(
            (6, 12, 18), (12, 24, 36), (60, 64, 70, 80), range(6), IslMode):
        cfg = ConstellationConfig(num_planes=n1, sats_per_plane=n2, phasing_factor=f,
                                  altitude_km=780, polar_threshold_deg=polar)
        spread = _paper_spread_deg(n1, n2, f, mode)
        realized = max(isl.row_spreads_deg(cfg, mode))
        if realized != spread or not _matches_active_rows(
                cfg, mode, rows_by_scan(n2, polar, spread)):
            result.fail(f"{mode.value} rows n1={n1} F={f} n2={n2} polar={polar}: "
                        f"spread {realized} != {spread} or active rows "
                        f"{sorted(isl.active_row_set(cfg, mode))} != scan")
    return result


def check_counts() -> CheckResult:
    """H-ISL counts equal the active H-ISLs of geometric snapshots.  The rows
    they count are ``check_division``'s, scanned on the same grid."""
    n1_grid, n2_grid = (6, 12, 18), (12, 24, 36)
    polar_grid, f_grid = (60, 64, 70, 80), range(6)
    modes = (IslMode.CONVENTIONAL, IslMode.OPTIMIZED)
    result = CheckResult(
        name="counts",
        grid=f"n1 in {n1_grid} x n2 in {n2_grid} x polar in {polar_grid} x F in 0..5 x "
             "both modes, hisl_count against the snapshot count at the first 3 "
             "switching epochs",
        passed=True)
    for n1, n2, polar, f, mode in itertools.product(
            n1_grid, n2_grid, polar_grid, f_grid, modes):
        cfg = ConstellationConfig(num_planes=n1, sats_per_plane=n2, phasing_factor=f,
                                  altitude_km=780, polar_threshold_deg=polar)
        want = isl.hisl_count(cfg, mode)
        for t in division.switching_epochs(cfg, 3):
            got = isl.active_hisl_count(isl.snapshot_edges(cfg, mode, t))
            if got != want:
                result.fail(f"n1={n1} n2={n2} polar={polar} F={f} {mode.value} "
                            f"t={t:.3f}: snapshot {got} != hisl_count {want}")
                break
    return result


def check_count_trends() -> CheckResult:
    """The paper's H-ISL count figure: 476/408/0 conventional, flat 442
    optimized at integer K, local maxima at polar 64 deg."""
    result = CheckResult(
        name="count_trends",
        grid="18x36: conventional F in (0,2,14) at polar 70; optimized F | 18 at "
             "polar 70; optimized F in 5..13 at polar 64",
        passed=True)

    def n_hisl(f, polar, mode):
        cfg = ConstellationConfig(num_planes=18, sats_per_plane=36, phasing_factor=f,
                                  altitude_km=780, polar_threshold_deg=polar)
        return isl.hisl_count(cfg, mode)

    for f, want in ((0, 476), (2, 408), (14, 0)):
        got = n_hisl(f, 70, IslMode.CONVENTIONAL)
        if got != want:
            result.fail(f"conventional count F={f}: {got} != {want}")
    for f in range(1, 18):
        if 18 % f == 0 and n_hisl(f, 70, IslMode.OPTIMIZED) != 442:
            result.fail(f"optimized count F={f} != 442")
    for f in (6, 9, 12):
        mid = n_hisl(f, 64, IslMode.OPTIMIZED)
        if not (mid > n_hisl(f - 1, 64, IslMode.OPTIMIZED)
                and mid > n_hisl(f + 1, 64, IslMode.OPTIMIZED)):
            result.fail(f"polar 64 deg: optimized count at F={f} is not a local max")
    return result


def theorem1_bruteforce(num_planes: int, sats_per_plane: int,
                        phasing_factor: int) -> tuple[Fraction, frozenset[int]]:
    """Exhaustive minimum of the in-row phase spread over link layouts.

    Tries every forward/backward assignment of the n1-1 plane boundaries,
    keeps those with non-negative cumulative phase difference at every plane,
    and returns (min over assignments of max spread, in exact degrees;
    the backward boundary set achieving it).  Restricted to n1 <= 12 (2^(n1-1)
    assignments) and F <= n1; the optimum is unique in that domain.
    """
    n1, n2, f = num_planes, sats_per_plane, phasing_factor
    if n1 > 12:
        raise ConfigError(f"brute-force oracle limited to num_planes <= 12, got {n1}")
    if f == 0:
        return Fraction(0), frozenset()
    if f > n1:
        raise ConfigError(f"oracle requires F <= n1 (K >= 1), got F = {f}")
    # integer walk in units of delta_f / F = 360/(n1*n2) degrees
    fh_step, bh_step = f, f - n1
    best_max = None
    best_masks: list[int] = []
    for mask in range(1 << (n1 - 1)):
        level = 0
        peak = 0
        feasible = True
        for boundary in range(n1 - 1):
            level += bh_step if mask >> boundary & 1 else fh_step
            if level < 0:
                feasible = False
                break
            peak = max(peak, level)
        if not feasible:
            continue
        if best_max is None or peak < best_max:
            best_max, best_masks = peak, [mask]
        elif peak == best_max:
            best_masks.append(mask)
    assert best_max is not None  # all-forward is always feasible
    mask = best_masks[0]
    bh_set = frozenset(b + 1 for b in range(n1 - 1) if mask >> b & 1)
    if len(best_masks) > 1:
        raise AssertionError(
            f"expected a unique optimal layout, found {len(best_masks)} for "
            f"n1={n1}, F={f}")
    return Fraction(360 * best_max, n1 * n2), bh_set


def theorem1_layouts(config: ConstellationConfig):
    """Theorem 1's optimized layout and the exhaustive optimum, each as (max
    in-row spread in exact degrees, backward boundary set): the comparison
    that ``check_theorem1`` and ``leovn theorem1-check`` report."""
    analytic = max(division.cell_shifts_deg(config)), isl.bh_planes(config)
    return analytic, theorem1_bruteforce(config.num_planes, config.sats_per_plane,
                                         config.phasing_factor)


def check_theorem1() -> CheckResult:
    """Brute-force optimal layouts agree with the closed-form analysis."""
    n1_grid = (4, 6, 9, 12)
    result = CheckResult(
        name="theorem1",
        grid=f"n1 in {n1_grid} x n2 in (24, 36) x F in 1..min(n1, n2-1)",
        passed=True)
    for n1 in n1_grid:
        for n2 in (24, 36):
            for f in range(1, min(n1, n2 - 1) + 1):
                cfg = ConstellationConfig(num_planes=n1, sats_per_plane=n2, phasing_factor=f)
                (spread, layout), (brute_min, brute_set) = theorem1_layouts(cfg)
                if brute_min != spread:
                    result.fail(f"n1={n1} n2={n2} F={f}: brute {brute_min} != "
                                f"analytic {spread}")
                if brute_set != layout:
                    result.fail(f"n1={n1} n2={n2} F={f}: layout {sorted(brute_set)} != "
                                f"{sorted(layout)}")
                delta_f, k = cfg.phase_offset_deg, Fraction(n1, f)
                if k.denominator == 1 and brute_min != (k - 1) * delta_f:
                    result.fail(f"n1={n1} n2={n2} F={f}: integer-K minimum "
                                f"{brute_min} != {(k - 1) * delta_f}")
                if spread > (n1 - 1) * delta_f:
                    result.fail(f"n1={n1} n2={n2} F={f}: optimized spread exceeds "
                                f"conventional")
                unit = delta_f / f
                if any((s / unit).denominator != 1 or s < 0
                       for s in division.cell_shifts_deg(cfg)):
                    result.fail(f"n1={n1} n2={n2} F={f}: spread not a non-negative "
                                f"multiple of delta_f/F")
    return result


def is_connected(keys: np.ndarray, num_cells: int) -> bool:
    """Whether the virtual graph with these edge keys is one connected
    component."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    lo, hi, _ = virtualgraph._split_keys(keys, num_cells)
    adj = csr_matrix((np.ones(len(lo)), (lo, hi)), shape=(num_cells,) * 2)
    return connected_components(adj, directed=False, return_labels=False) == 1


def check_csd_staticness() -> CheckResult:
    """Celestial division is event-free and its instance is the connected
    static virtual graph."""
    result = CheckResult(
        name="csd_staticness",
        grid="CSD optimized F in (0,2,6) over one period at 720 samples, and its "
             "instance vs the static graph at every handover epoch and mid-dwell",
        passed=True)
    for f in (0, 2, 6):
        cfg = _paper_config(f)
        rep = virtualgraph.staticness_report(
            cfg, virtualgraph.VnMethod.CSD, IslMode.OPTIMIZED, cfg.period, 720)
        if rep.event_count != 0:
            result.fail(f"CSD F={f}: {rep.event_count} events, expected 0")
        static = virtualgraph.static_graph_for(cfg, IslMode.OPTIMIZED)
        if not is_connected(static, cfg.total_sats):
            result.fail(f"CSD F={f}: static virtual graph is not connected")
        epochs = division.switching_epochs(cfg, cfg.sats_per_plane + 1)
        mids = [(a + b) / 2 for a, b in itertools.pairwise(epochs)]
        for t in epochs[:-1] + mids:
            snapshot, serving, _ = virtualgraph.method_instance(
                cfg, virtualgraph.VnMethod.CSD, IslMode.OPTIMIZED, t, None)
            instance = virtualgraph.map_snapshot(snapshot, serving)
            if not np.array_equal(instance, static):
                result.fail(f"CSD F={f} t={t:.3f}: instance != static virtual graph")
                break
    return result


def check_grd_dynamics() -> CheckResult:
    """Geographic variants are not event-free: the GRD2 seam visits every
    column with drift events, and GRD1 loses coverage."""
    result = CheckResult(
        name="grd_dynamics",
        grid="18x36 F=0 conventional over one sidereal day: GRD2 at 1200 samples, "
             "GRD1 at 600",
        passed=True)
    cfg = _paper_config(0)
    rep2 = virtualgraph.staticness_report(
        cfg, virtualgraph.VnMethod.GRD2, IslMode.CONVENTIONAL, SIDEREAL_DAY, 1200)
    seam_cols = {c for _, c in rep2.seam_column_history}
    if seam_cols != set(range(1, 19)):
        result.fail(f"GRD2 seam visited {sorted(seam_cols)}, expected all 18 columns")
    if rep2.events_by_cause.get("SEAM_DRIFT", 0) < 18:
        result.fail(f"GRD2 seam-drift events {rep2.events_by_cause} < n1")
    rep1 = virtualgraph.staticness_report(
        cfg, virtualgraph.VnMethod.GRD1, IslMode.CONVENTIONAL, SIDEREAL_DAY, 600)
    if rep1.events_by_cause.get("COVERAGE_LOSS", 0) < 1:
        result.fail("GRD1 recorded no coverage-loss events over a sidereal day")
    return result


def check_grd1_handover() -> CheckResult:
    """GRD1's frozen cells hand over once per T/n2, near the half-epochs
    (k + 1/2) * T/n2 of the CSD handovers: in each of the first 6
    ``switching_epochs`` intervals the serving array changes, and only
    within 0.05 of an interval of its middle."""
    result = CheckResult(
        name="grd1_handover",
        grid="GRD1 at 18x36 F=0, 6x12 F=1, 5x9 F=3 and 9x18 F=2, 780 km, polar 70: "
             "the first 6 handover intervals, 180 samples each outside +-0.05 of "
             "the middle",
        passed=True)
    fractions = [j / 200 for j in range(201) if abs(j - 100) > 10]
    for n1, n2, f in ((18, 36, 0), (6, 12, 1), (5, 9, 3), (9, 18, 2)):
        cfg = _paper_config(f, n1, n2)
        grid = division.build_grd_grid(cfg)
        epochs = division.switching_epochs(cfg, 7)
        for lo, hi in itertools.pairwise(epochs):
            serving = [division.grd_assignment(cfg, grid, lo + x * (hi - lo),
                                               division.VnMethod.GRD1)
                       for x in fractions]
            before, after = serving[:len(serving) // 2], serving[len(serving) // 2:]
            if not (all(np.array_equal(s, before[0]) for s in before)
                    and all(np.array_equal(s, after[0]) for s in after)
                    and not np.array_equal(before[0], after[0])):
                result.fail(f"{n1}x{n2} F={f} interval [{lo:.3f}, {hi:.3f}]: no single "
                            "handover within 0.05 of its middle")
    return result


# -- flow and shortest-path oracles ---------------------------------------------

def random_flow_graph(seed: int) -> tuple[int, list[tuple[int, int, int]]]:
    """Deterministic small digraph: (num_nodes, arcs (src, dst, cap)).

    The source/sink arcs appended last may repeat an arc already drawn."""
    rng = random.Random(seed)
    n = rng.randrange(4, 13)
    arcs = []
    for a in range(n):
        for b in range(n):
            if a != b and rng.random() < 0.45:
                arcs.append((a, b, rng.randrange(1, 6)))
                rng.random()   # unused, so each seed draws the graph it drew with arc costs
    # keep the source/sink attached so cuts are non-trivial more often
    arcs.append((0, rng.randrange(1, n), rng.randrange(1, 6)))
    arcs.append((rng.randrange(0, n - 1), n - 1, rng.randrange(1, 6)))
    return n, arcs


# 0 -> 6 over unit arcs, where the first shortest augmenting path 0-1-2-6
# blocks both others: the second unit runs 0-4-2, back along 1 -> 2, then
# 1-5-3-6.  The seeded graphs are dense enough never to need such a path.
CANCELLING_GRAPH = (7, [(0, 1, 1), (0, 4, 1), (1, 2, 1), (2, 6, 1), (4, 2, 1),
                        (1, 5, 1), (5, 3, 1), (3, 6, 1)])


def min_cut_exhaustive(n: int, arcs, source: int, sink: int) -> int:
    """Minimum s-t cut by enumerating every vertex bipartition."""
    others = [v for v in range(n) if v not in (source, sink)]
    best = None
    for bits in range(1 << len(others)):
        side = {source}
        for i, v in enumerate(others):
            if bits >> i & 1:
                side.add(v)
        cut = sum(cap for a, b, cap in arcs if a in side and b not in side)
        best = cut if best is None else min(best, cut)
    return best


def net_outflow(n: int, arcs, flow) -> np.ndarray:
    """Each node's outflow minus its inflow when entry i of ``arcs``
    (src, dst, cap) carries ``flow[i]`` from src to dst."""
    tail, head, _cap = np.array(arcs, dtype=np.int64).reshape(-1, 3).T
    return np.bincount(tail, flow, n) - np.bincount(head, flow, n)


def flow_is_feasible(n: int, arcs, flow, source: int, sink: int, undirected=False) -> bool:
    """Whether per-entry flows ``flow`` are a feasible flow of ``arcs``
    (src, dst, cap): ``0 <= flow[i] <= cap`` on a directed arc, ``|flow[i]|
    <= cap`` where the mask ``undirected`` (broadcast) marks an undirected
    edge, and conserved at every node but ``source`` and ``sink``."""
    cap = np.array(arcs, dtype=np.int64).reshape(-1, 3)[:, 2]
    flow = np.asarray(flow, dtype=np.int64)
    net = net_outflow(n, arcs, flow)
    net[[source, sink]] = 0
    return bool((np.where(undirected, -cap, 0) <= flow).all() and (flow <= cap).all()
                and not net.any())


def scipy_max_flow(n: int, arcs, source: int, sink: int) -> int:
    """Max-flow value of ``arcs`` (src, dst, cap) by scipy's ``maximum_flow``
    on an int32 CSR matrix, parallel arcs summed into one entry."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    tail, head, cap = np.array(arcs, dtype=np.int64).reshape(-1, 3).T
    graph = csr_matrix((cap, (tail, head)), shape=(n, n))
    if graph.data.max(initial=0) > np.iinfo(np.int32).max:
        raise ValueError("an arc pair's capacity exceeds int32")
    graph.data = graph.data.astype(np.int32)      # scipy 1.13 takes int32 only
    return int(maximum_flow(graph, source, sink).flow_value)


def directed_arcs(arcs, undirected) -> list:
    """``arcs`` (src, dst, cap), plus a (dst, src, cap) arc for each entry
    that the mask ``undirected`` marks."""
    return list(arcs) + [(b, a, cap) for (a, b, cap), both in zip(arcs, undirected) if both]


def throughput_arcs(snap: analysis.WeightedNetSnapshot):
    """(source, sink, arcs, undirected) of the network that
    ``max_flow_throughput`` builds for a snapshot, entry for entry: the
    uncapacitated arcs from a super-source to the satellites over
    ``SOURCE_BOX`` and from those over ``SINK_BOX`` to a super-sink, then
    one unit entry per active ISL, in snapshot order, which the mask
    ``undirected`` marks."""
    lat, lon = np.degrees(snap.lats), np.degrees(snap.lons)
    source, sink = snap.num_sats, snap.num_sats + 1
    inf = analysis.INF_CAPACITY
    arcs = ([(source, int(i), inf) for i in np.flatnonzero(analysis.SOURCE_BOX.contains(lat, lon))]
            + [(int(i), sink, inf) for i in np.flatnonzero(analysis.SINK_BOX.contains(lat, lon))])
    undirected = np.arange(len(arcs) + len(snap.edges)) >= len(arcs)
    return source, sink, arcs + [(a, b, 1) for a, b in snap.edges.tolist()], undirected


def throughput_flow_failures(snap: analysis.WeightedNetSnapshot) -> list[str]:
    """How the flow kernel's solve of a snapshot's throughput network
    (``throughput_arcs``, the ISLs through ``add_edges``) departs from a
    maximum flow: its per-entry flows must be feasible and carry its value,
    which must equal scipy's ``maximum_flow`` and ``max_flow_throughput``."""
    source, sink, arcs, undirected = throughput_arcs(snap)
    n = snap.num_sats + 2
    net = MaxFlowNetwork(n)
    for arc in arcs[:len(arcs) - len(snap.edges)]:
        net.add_arc(*arc)
    net.add_edges(snap.edges[:, 0], snap.edges[:, 1], 1)
    value, flow = net.solve(source, sink)
    want = scipy_max_flow(n, directed_arcs(arcs, undirected), source, sink)
    got = analysis.max_flow_throughput(snap) / analysis.ISL_CAPACITY_GBPS
    failures = [] if value == want == got else [
        f"kernel {value}, max_flow_throughput {got}, scipy maximum_flow {want} units"]
    if not flow_is_feasible(n, arcs, flow, source, sink, undirected):
        failures.append("infeasible flow")
    sent = net_outflow(n, arcs, flow)[source]
    if sent != value:
        failures.append(f"the entries carry {sent}, not {value}")
    return failures


def delay_matrix(snapshot: analysis.WeightedNetSnapshot):
    """Symmetric scipy CSR matrix of per-edge propagation delays (seconds):
    the graph that the shortest-path oracles search with scipy's Dijkstra."""
    from scipy.sparse import csr_matrix

    a, b = snapshot.edges.T
    return csr_matrix((np.tile(snapshot.delay_s, 2), (np.r_[a, b], np.r_[b, a])),
                      shape=(snapshot.num_sats,) * 2)


def all_paths_min_delay(n: int, edges, src: int) -> list[float]:
    """Least delay from ``src`` to every node of an undirected weighted graph
    (a, b, w), by enumerating every simple path from ``src`` and summing its
    delays link by link; +inf where no path reaches."""
    adj = [[] for _ in range(n)]
    for a, b, w in edges:
        adj[a].append((b, w))
        adj[b].append((a, w))
    best = [math.inf] * n

    def walk(node, seen, acc):
        best[node] = min(best[node], acc)
        for nxt, w in adj[node]:
            if nxt not in seen:
                walk(nxt, seen | {nxt}, acc + w)

    walk(src, {src}, 0.0)
    return best


def check_flow() -> CheckResult:
    """Flow kernel equals exhaustive min-cut and scipy's ``maximum_flow``
    with feasible per-arc flows; the latency kernel equals path enumeration
    and Dijkstra bit for bit."""
    result = CheckResult(
        name="flow",
        grid="20 seeded digraphs <= 12 nodes and a 7-node graph whose first "
             "augmenting path must be cancelled (max flow vs min cut and scipy "
             "maximum_flow, per-arc flows feasible and carrying the value); "
             "18x36 throughput networks at t=T/3, polar 70, F in (0,6,14) x both "
             "modes (kernel vs scipy maximum_flow and max_flow_throughput, "
             "per-entry flows feasible and carrying the value); "
             "20 seeded constellations <= 12 satellites, both modes and shutoff "
             "rules, a seeded V-ISL off, and the first of each as bare rings with "
             "plane 1's V-ISL n2-1 -> n2 off (latency kernel vs path enumeration, "
             "exact); "
             "6 seeded constellations <= 6x12, both modes and shutoff rules, "
             "and 3 uneven 18x36 snapshots: F=14 conventional t=0 with V-ISL "
             "25->26 off or x30, F=2 optimized t=0 with a seeded half of its "
             "H-ISLs off (latency kernel vs Dijkstra, exact)",
        passed=True)
    graphs = [(f"graph seed={seed}", random_flow_graph(seed)) for seed in range(20)]
    for label, (n, arcs) in [*graphs, ("cancelling graph", CANCELLING_GRAPH)]:
        net = MaxFlowNetwork(n)
        for arc in arcs:
            net.add_arc(*arc)
        flow_value, flow = net.solve(0, n - 1)
        cut = min_cut_exhaustive(n, arcs, 0, n - 1)
        scipy_value = scipy_max_flow(n, arcs, 0, n - 1)
        if not flow_value == cut == scipy_value:
            result.fail(f"{label}: max flow {flow_value}, min cut {cut}, "
                        f"scipy maximum_flow {scipy_value}")
        if not flow_is_feasible(n, arcs, flow, 0, n - 1):
            result.fail(f"{label}: infeasible flow")
        sent = net_outflow(n, arcs, flow)[0]
        if sent != flow_value:
            result.fail(f"{label}: the arcs carry {sent}, not {flow_value}")
    for f, mode in itertools.product((0, 6, 14), IslMode):
        cfg = ConstellationConfig(num_planes=18, sats_per_plane=36, phasing_factor=f,
                                  polar_threshold_deg=70.0)
        for failure in throughput_flow_failures(analysis.snapshot_at(cfg, mode, cfg.period / 3)):
            result.fail(f"throughput 18x36 F={f} {mode.value}: {failure}")
    for label, snap in enumeration_snapshots():
        if not latency_equals_enumeration(snap):
            result.fail(f"latency {label}: kernel != path enumeration")
    seeded = (seeded_snapshots(seed, max_planes=6, max_sats=72) for seed in range(200, 206))
    for label, snap in itertools.chain(*seeded, uneven_snapshots()):
        if not latency_equals_dijkstra(snap):
            result.fail(f"latency {label}: kernel != Dijkstra")
    return result


def latency_equals_dijkstra(snap: analysis.WeightedNetSnapshot) -> bool:
    """The latency kernel from every source equals scipy's Dijkstra exactly."""
    from scipy.sparse.csgraph import dijkstra

    want = dijkstra(delay_matrix(snap), directed=False)
    got = analysis.shortest_path_delays(snap, np.arange(snap.num_sats))
    return np.array_equal(got.reshape(snap.num_sats, -1), want)


def latency_equals_enumeration(snap: analysis.WeightedNetSnapshot) -> bool:
    """The latency kernel from every source equals path enumeration
    (``all_paths_min_delay``) exactly."""
    n = snap.num_sats
    edges = list(zip(*snap.edges.T.tolist(), snap.delay_s.tolist()))
    got = analysis.shortest_path_delays(snap, np.arange(n)).reshape(n, n).tolist()
    return all(got[src] == all_paths_min_delay(n, edges, src) for src in range(n))


def seeded_snapshots(seed: int, max_planes: int, max_sats: int):
    """(label, snapshot) pairs of one seeded constellation of 2..``max_planes``
    planes of 3..12 slots, at most ``max_sats`` satellites, a seeded F and
    polar threshold, at a seeded time: both modes under both shut-off rules."""
    rng = random.Random(seed)
    n1 = rng.randrange(2, max_planes + 1)
    n2 = rng.randrange(3, min(12, max_sats // n1) + 1)
    cfg = ConstellationConfig(num_planes=n1, sats_per_plane=n2,
                              phasing_factor=rng.randrange(min(n1, n2 - 1) + 1),
                              polar_threshold_deg=rng.uniform(50.0, 85.0))
    t = rng.uniform(0.0, cfg.period)
    for mode, rule in itertools.product(IslMode, isl.ShutoffRule):
        snap = analysis.weight_snapshot(cfg, isl.snapshot_edges(cfg, mode, t, rule), t)
        yield f"seed={seed} {n1}x{n2} F={cfg.phasing_factor} {mode.value}/{rule.value}", snap


def enumeration_snapshots():
    """(label, snapshot) pairs that the latency kernel is enumerated on: the
    ``seeded_snapshots`` of at most 12 satellites at 20 seeds, each with one
    seeded V-ISL off, so that shortest ring routes can run past half the
    ring.  Each seed's first snapshot comes once more as bare rings with
    plane 1's V-ISL from slot n2-1 to slot n2 off: the route between those
    two slots then runs the other n2-1 links of the ring, the longest
    segment a ring pass must relax, at every seed."""
    for seed in range(100, 120):
        for i, (label, snap) in enumerate(seeded_snapshots(seed, max_planes=4, max_sats=12)):
            v_isl = snap.kind == isl.IslKind.V_ISL
            off = np.random.default_rng(seed).choice(np.flatnonzero(v_isl))
            yield f"{label} V-ISL {snap.edges[off, 0]} off", _keep_edges(
                snap, np.arange(len(snap.edges)) != off)
            if i == 0:
                last = snap.sats_per_plane - 2
                yield f"{label} rings only, V-ISL {last} off", _keep_edges(
                    snap, v_isl & (snap.edges[:, 0] != last))


def uneven_snapshots():
    """(label, snapshot) pairs off the uniform ring at 18x36, t=0.

    F=14 conventional has no H-ISLs, so with V-ISL 25 -> 26 off or 30 times
    as long a shortest ring segment runs past n2/2 links; dropping a seeded
    half of an F=2 optimized snapshot's H-ISLs leaves routes that wind
    through the rings.
    """
    cfg = ConstellationConfig(num_planes=18, sats_per_plane=36, phasing_factor=14)
    snap = analysis.weight_snapshot(cfg, isl.snapshot_edges(cfg, IslMode.CONVENTIONAL, 0.0), 0.0)
    link = (snap.kind == isl.IslKind.V_ISL) & (snap.edges[:, 0] == 25)
    yield "18x36 F=14 conventional V-ISL 25->26 off", _keep_edges(snap, ~link)
    yield "18x36 F=14 conventional V-ISL 25->26 x30", replace(
        snap, delay_s=np.where(link, 30 * snap.delay_s, snap.delay_s))
    cfg = replace(cfg, phasing_factor=2)
    snap = analysis.weight_snapshot(cfg, isl.snapshot_edges(cfg, IslMode.OPTIMIZED, 0.0), 0.0)
    h_links = np.flatnonzero(snap.kind == isl.IslKind.H_ISL)
    keep = np.ones(len(snap.edges), dtype=bool)
    keep[np.random.default_rng(300).choice(h_links, len(h_links) // 2, replace=False)] = False
    yield "18x36 F=2 optimized half the H-ISLs off", _keep_edges(snap, keep)


def _keep_edges(snap: analysis.WeightedNetSnapshot, keep: np.ndarray):
    return replace(snap, edges=snap.edges[keep], kind=snap.kind[keep],
                   delay_s=snap.delay_s[keep])


# -- the paper's throughput and latency trends ---------------------------------

def check_throughput_trend() -> CheckResult:
    """The paper's throughput figure: the optimized layout's mean throughput
    spreads by under 10 % of its mean over F = 1..14, and the conventional
    one at F = 14 drops under 0.25x its F = 0 value."""
    result = CheckResult(
        name="throughput_trend",
        grid="18x36, 780 km, polar 70, 16 snapshots: optimized F in 1..14, "
             "conventional F in (0, 14)",
        passed=True)
    opt = [analysis.mean_throughput(_paper_config(f), IslMode.OPTIMIZED, 16)
           for f in range(1, 15)]
    spread = (max(opt) - min(opt)) / (sum(opt) / len(opt))
    conv0, conv14 = (analysis.mean_throughput(_paper_config(f), IslMode.CONVENTIONAL, 16)
                     for f in (0, 14))
    numbers = (f"optimized spread {spread:.1%} over F=1..14; conventional "
               f"{conv14:.1f} Gbps at F=14, {conv0:.1f} at F=0")
    if not spread < 0.10:
        result.fail(f"optimized spread not under 10%: {numbers}")
    if not conv14 < 0.25 * conv0:
        result.fail(f"conventional F=14 not under 0.25x F=0: {numbers}")
    if result.passed:
        result.detail = numbers
    return result


def check_latency_trend() -> CheckResult:
    """The paper's latency figure: the mean delay of 10000 seeded pairs never
    drops by more than 2 % from one F to the next in either mode, and the
    conventional layout's is at least the optimized one's at F = 1..13."""
    result = CheckResult(
        name="latency_trend",
        grid="18x36, 780 km, polar 70, 16 snapshots, 10000 pairs of seed 42: "
             "optimized F in 0..14, conventional F in 0..13",
        passed=True)
    drawn = analysis.seeded_pairs(_paper_config(0), 10_000, 42)
    opt = [analysis.mean_latency(_paper_config(f), IslMode.OPTIMIZED, drawn, 16)
           for f in range(0, 15)]
    # conventional mode has no H-ISLs at F=14 (check_count_trends) and the
    # network splits into planes, so its comparable domain ends at F=13
    conv = [analysis.mean_latency(_paper_config(f), IslMode.CONVENTIONAL, drawn, 16)
            for f in range(0, 14)]
    numbers = (f"optimized ms at F=0..14: {' '.join(f'{ms:.2f}' for ms in opt)}; "
               f"conventional at F=0..13: {' '.join(f'{ms:.2f}' for ms in conv)}")
    for mode, means in ((IslMode.OPTIMIZED, opt), (IslMode.CONVENTIONAL, conv)):
        if not all(b >= a * 0.98 for a, b in itertools.pairwise(means)):
            result.fail(f"{mode.value} latency drops by over 2% as F grows: {numbers}")
    if not all(conv[f] >= opt[f] for f in range(1, 14)):
        result.fail(f"conventional latency below optimized: {numbers}")
    if result.passed:
        result.detail = numbers
    return result


SUITES = {
    "division": (check_division,),
    "counts": (check_counts, check_count_trends),
    "theorem1": (check_theorem1,),
    "staticness": (check_csd_staticness, check_grd_dynamics, check_grd1_handover),
    "flow": (check_flow, check_throughput_trend, check_latency_trend),
}
SUITES["all"] = tuple(itertools.chain.from_iterable(
    SUITES[name] for name in ("division", "counts", "theorem1", "staticness", "flow")))
