"""Self-check suites: every analytic result against an independent oracle.

Each check returns a CheckResult with the parameter grid it ran; the CLI
``verify`` subcommand prints them as JSON lines and exits non-zero when any
check fails.  Oracles here are deliberately brute force: inequality scans for
the paper's closed-form region rows, exhaustive link-layout enumeration, snapshot
edge counting, exhaustive cuts for max-flow, a HiGHS linear program for the
min cost of that flow, full path enumeration for shortest paths, and scipy's
Dijkstra for the latency kernel.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra as csgraph_dijkstra

from . import analysis, division, isl, virtualgraph
from .constellation import SIDEREAL_DAY, ConfigError, ConstellationConfig
from .flow import MinCostMaxFlow
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
    """H-ISL counts equal the scanned region rows and geometric snapshot counts."""
    n1_grid, n2_grid = (6, 12, 18), (12, 24, 36)
    polar_grid, f_grid = (60, 64, 70, 80), range(6)
    modes = (IslMode.CONVENTIONAL, IslMode.OPTIMIZED)
    result = CheckResult(
        name="counts",
        grid=f"n1 in {n1_grid} x n2 in {n2_grid} x polar in {polar_grid} x F in 0..5 x both modes",
        passed=True)
    for n1, n2, polar, f, mode in itertools.product(
            n1_grid, n2_grid, polar_grid, f_grid, modes):
        cfg = ConstellationConfig(num_planes=n1, sats_per_plane=n2, phasing_factor=f,
                                  altitude_km=780, polar_threshold_deg=polar)
        want = isl.hisl_count(cfg, mode)
        scanned = (n1 - 1) * len(rows_by_scan(n2, polar, _paper_spread_deg(n1, n2, f, mode)))
        if want != scanned:
            result.fail(f"n1={n1} n2={n2} polar={polar} F={f} {mode.value}: "
                        f"hisl_count {want} != scanned rows {scanned}")
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
        cfg = ConstellationConfig(num_planes=18, sats_per_plane=36, phasing_factor=f,
                                  altitude_km=780, polar_threshold_deg=70)
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
    cfg = ConstellationConfig(num_planes=18, sats_per_plane=36, phasing_factor=0,
                              altitude_km=780, polar_threshold_deg=70)
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


# -- flow and shortest-path oracles ---------------------------------------------

def random_flow_graph(seed: int) -> tuple[int, list[tuple[int, int, int, float]]]:
    """Deterministic small digraph: (num_nodes, arcs (src, dst, cap, cost))."""
    rng = random.Random(seed)
    n = rng.randrange(4, 13)
    arcs = []
    for a in range(n):
        for b in range(n):
            if a != b and rng.random() < 0.45:
                arcs.append((a, b, rng.randrange(1, 6), rng.uniform(0.5, 4.0)))
    # keep the source/sink attached so cuts are non-trivial more often
    arcs.append((0, rng.randrange(1, n), rng.randrange(1, 6), 1.0))
    arcs.append((rng.randrange(0, n - 1), n - 1, rng.randrange(1, 6), 1.0))
    return n, arcs


def min_cut_exhaustive(n: int, arcs, source: int, sink: int) -> int:
    """Minimum s-t cut by enumerating every vertex bipartition."""
    others = [v for v in range(n) if v not in (source, sink)]
    best = None
    for bits in range(1 << len(others)):
        side = {source}
        for i, v in enumerate(others):
            if bits >> i & 1:
                side.add(v)
        cut = sum(cap for a, b, cap, _ in arcs if a in side and b not in side)
        best = cut if best is None else min(best, cut)
    return best


def min_cost_lp(n: int, arcs, source: int, sink: int, value: int) -> float:
    """Minimum cost of a ``value``-unit source->sink flow, solved as an LP.

    Variables are the arc flows within ``[0, cap]``; every node other than
    source and sink conserves flow and the sink takes in ``value``.
    """
    from scipy.optimize import linprog  # slow import; keep it off CLI start-up
    balance = [[0.0] * len(arcs) for _ in range(n)]
    for k, (a, b, _, _) in enumerate(arcs):
        balance[a][k] -= 1.0
        balance[b][k] += 1.0
    inner = [balance[v] for v in range(n) if v not in (source, sink)]
    res = linprog([cost for *_, cost in arcs], A_eq=inner + [balance[sink]],
                  b_eq=[0.0] * len(inner) + [float(value)],
                  bounds=[(0, cap) for _, _, cap, _ in arcs], method="highs-ds")
    if res.status != 0:
        raise RuntimeError(f"min-cost LP failed: {res.message}")
    return float(res.fun)


def delay_matrix(snapshot: analysis.WeightedNetSnapshot) -> csr_matrix:
    """Symmetric sparse matrix of per-edge propagation delays (seconds): the
    graph that the shortest-path oracles search with scipy's Dijkstra."""
    a, b = snapshot.edges.T
    return csr_matrix((np.tile(snapshot.delay_s, 2), (np.r_[a, b], np.r_[b, a])),
                      shape=(snapshot.num_sats,) * 2)


def all_paths_min_delay(n: int, edges, src: int, dst: int) -> float:
    """Exhaustive simple-path enumeration over an undirected weighted graph."""
    adj = [[] for _ in range(n)]
    for a, b, w in edges:
        adj[a].append((b, w))
        adj[b].append((a, w))
    best = [float("inf")]

    def walk(node, seen, acc):
        if node == dst:
            best[0] = min(best[0], acc)
            return
        for nxt, w in adj[node]:
            if nxt not in seen:
                walk(nxt, seen | {nxt}, acc + w)

    walk(src, {src}, 0.0)
    return best[0]


def check_flow() -> CheckResult:
    """Flow kernel equals exhaustive min-cut and the min-cost LP; Dijkstra
    equals path enumeration; the latency kernel equals Dijkstra bit for bit."""
    result = CheckResult(
        name="flow",
        grid="20 seeded digraphs <= 12 nodes (max flow vs min cut, "
             "cost vs HiGHS LP at rel 1e-9); "
             "20 seeded graphs <= 10 nodes (shortest path vs enumeration); "
             "6 seeded constellations <= 6x12, both modes and shutoff rules, "
             "and 3 uneven 18x36 snapshots: F=14 conventional t=0 with V-ISL "
             "25->26 off or x30, F=2 optimized t=0 with a seeded half of its "
             "H-ISLs off (latency kernel vs Dijkstra, exact)",
        passed=True)
    for seed in range(20):
        n, arcs = random_flow_graph(seed)
        net = MinCostMaxFlow(n)
        for a, b, cap, cost in arcs:
            net.add_arc(a, b, cap, cost)
        flow_value, cost = net.solve(0, n - 1)
        cut = min_cut_exhaustive(n, arcs, 0, n - 1)
        if flow_value != cut:
            result.fail(f"graph seed={seed}: max flow {flow_value} != min cut {cut}")
        lp_cost = min_cost_lp(n, arcs, 0, n - 1, cut)
        if not math.isclose(cost, lp_cost, rel_tol=1e-9):
            result.fail(f"graph seed={seed}: min cost {cost} != LP {lp_cost}")
        if not net.check_feasible(0, n - 1):
            result.fail(f"graph seed={seed}: infeasible flow")
    for seed in range(100, 120):
        rng = random.Random(seed)
        n = rng.randrange(4, 11)
        edges = [(a, b, rng.uniform(0.1, 5.0))
                 for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
        if not edges:
            edges = [(0, n - 1, 1.0)]
        rows, cols, vals = [], [], []
        for a, b, w in edges:
            rows += [a, b]
            cols += [b, a]
            vals += [w, w]
        mat = csr_matrix((vals, (rows, cols)), shape=(n, n))
        dist = csgraph_dijkstra(mat, directed=False, indices=[0])[0]
        for dst in range(1, n):
            want = all_paths_min_delay(n, edges, 0, dst)
            got = float(dist[dst])
            if not (math.isinf(want) and math.isinf(got)) and abs(got - want) > 1e-9:
                result.fail(f"paths seed={seed} dst={dst}: {got} != {want}")
    for seed in range(200, 206):
        rng = random.Random(seed)
        n1, n2 = rng.randrange(2, 7), rng.randrange(3, 13)
        cfg = ConstellationConfig(num_planes=n1, sats_per_plane=n2,
                                  phasing_factor=rng.randrange(min(n1, n2 - 1) + 1),
                                  polar_threshold_deg=rng.uniform(50.0, 85.0))
        t = rng.uniform(0.0, cfg.period)
        for mode, rule in itertools.product(IslMode, isl.ShutoffRule):
            edges = isl.snapshot_edges(cfg, mode, t, rule)
            snap = analysis.weight_snapshot(cfg, edges, t)
            if not latency_equals_dijkstra(snap):
                result.fail(f"latency seed={seed} {n1}x{n2} F={cfg.phasing_factor} "
                            f"{mode.value}/{rule.value}: kernel != Dijkstra")
    for label, snap in uneven_snapshots():
        if not latency_equals_dijkstra(snap):
            result.fail(f"latency {label}: kernel != Dijkstra")
    return result


def latency_equals_dijkstra(snap: analysis.WeightedNetSnapshot) -> bool:
    """The latency kernel from every source equals scipy's Dijkstra exactly."""
    want = csgraph_dijkstra(delay_matrix(snap), directed=False)
    got = analysis.shortest_path_delays(snap, np.arange(snap.num_sats))
    return np.array_equal(got.reshape(snap.num_sats, -1), want)


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


SUITES = {
    "division": (check_division,),
    "counts": (check_counts, check_count_trends),
    "theorem1": (check_theorem1,),
    "staticness": (check_csd_staticness, check_grd_dynamics),
    "flow": (check_flow,),
}
SUITES["all"] = tuple(itertools.chain.from_iterable(
    SUITES[name] for name in ("division", "counts", "theorem1", "staticness", "flow")))
