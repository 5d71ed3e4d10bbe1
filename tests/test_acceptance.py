"""Acceptance criteria, one test per criterion.

Every test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output on failure) and enforces the stated tolerance and runtime
budget.  Tolerances are exact where the criterion is exact; trend criteria
use the stated percentage bands.
"""
import time

import numpy as np

from leovn.analysis import mean_latency, mean_throughput, seeded_pairs
from leovn.constellation import ConstellationConfig
from leovn.division import VnMethod, build_grd_grid, grd_assignment, switching_epochs
from leovn.isl import IslMode
from leovn.verify import (
    check_count_trends,
    check_counts,
    check_csd_staticness,
    check_division,
    check_flow,
    check_grd_dynamics,
    check_theorem1,
)


def report(number: int, label: str, passed: bool, elapsed: float, budget: float):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"{status} criterion {number:2d} [{elapsed:6.1f}s / budget {budget:.0f}s] {label}")
    assert passed, f"criterion {number}: {label}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"


def make_config(F=0, n1=18, n2=36, polar=70.0):
    return ConstellationConfig(num_planes=n1, sats_per_plane=n2, phasing_factor=F,
                               altitude_km=780.0, polar_threshold_deg=polar)


def test_criterion_01_region_boundary_closed_forms():
    start = time.time()
    res = check_division()
    label = "paper's region rows: scan equals closed forms and geometric rows (exact)"
    report(1, label if res.passed else f"{label}: {res.failures}",
           res.passed, time.time() - start, 5.0)


def test_criterion_02_analytic_vs_geometric_counts():
    start = time.time()
    res = check_counts()
    label = "H-ISL counts equal closed forms and snapshots over the full grid (exact)"
    report(2, label if res.passed else f"{label}: {res.failures}",
           res.passed, time.time() - start, 60.0)


def test_criterion_03_theorem1_oracle():
    start = time.time()
    res = check_theorem1()
    label = "brute-force layouts equal the analytic optimum (exact rational)"
    report(3, label if res.passed else f"{label}: {res.failures}",
           res.passed, time.time() - start, 60.0)


def test_criterion_04_csd_staticness():
    start = time.time()
    res = check_csd_staticness()
    label = ("celestial division static at F=0,2,6 (0 events, 720 samples + epochs) "
             "and equal to the connected static virtual graph")
    report(4, label if res.passed else f"{label}: {res.failures}",
           res.passed, time.time() - start, 90.0)


def test_criterion_05_grd_dynamics():
    start = time.time()
    res = check_grd_dynamics()
    label = "geographic division: seam visits all columns, drift and coverage events recorded"
    report(5, label if res.passed else f"{label}: {res.failures}",
           res.passed, time.time() - start, 60.0)


def test_criterion_06_hisl_count_trends():
    start = time.time()
    res = check_count_trends()
    label = "H-ISL count trends: 476/408/0, flat 442, local maxima at F=6,9,12"
    report(6, label if res.passed else f"{label}: {res.failures}",
           res.passed, time.time() - start, 5.0)


def test_criterion_07_throughput_trend():
    start = time.time()
    opt = [mean_throughput(make_config(F=f), IslMode.OPTIMIZED, 16) for f in range(1, 15)]
    spread = (max(opt) - min(opt)) / (sum(opt) / len(opt))
    ok = spread < 0.10
    conv0 = mean_throughput(make_config(F=0), IslMode.CONVENTIONAL, 16)
    conv14 = mean_throughput(make_config(F=14), IslMode.CONVENTIONAL, 16)
    ok &= conv14 < 0.25 * conv0
    report(7, f"throughput: optimized spread {spread:.1%} < 10%, "
              f"conventional collapses at F=14 ({conv14:.1f} < 0.25 x {conv0:.1f})",
           ok, time.time() - start, 600.0)


def test_criterion_08_latency_trend():
    start = time.time()
    drawn = seeded_pairs(make_config(), 10_000, 42)
    opt = [mean_latency(make_config(F=f), IslMode.OPTIMIZED, drawn, 16) for f in range(0, 15)]
    # conventional mode has zero H-ISLs at F=14 (criterion 6) and the network
    # splits into planes, so its comparable domain ends at F=13
    conv = [mean_latency(make_config(F=f), IslMode.CONVENTIONAL, drawn, 16)
            for f in range(0, 14)]
    ok = all(opt[i + 1] >= opt[i] * 0.98 for i in range(len(opt) - 1))
    ok &= all(conv[i + 1] >= conv[i] * 0.98 for i in range(len(conv) - 1))
    ok &= all(conv[f] >= opt[f] for f in range(1, 14))
    report(8, "latency: non-decreasing in F (2% band), conventional >= optimized",
           ok, time.time() - start, 600.0)


def test_criterion_09_grd1_hands_over_near_half_epochs():
    # GRD1 frozen cells hand over once per T/n2, near the half-epochs
    # (k + 1/2) * T/n2 of the CSD handovers: in each of the first 6
    # switching_epochs intervals the serving array changes, and only within
    # +-0.05 of an interval of its middle
    start = time.time()
    fractions = [j / 200 for j in range(201) if abs(j - 100) > 10]
    ok = True
    for n1, n2, f in ((18, 36, 0), (6, 12, 1), (5, 9, 3), (9, 18, 2)):
        cfg = make_config(F=f, n1=n1, n2=n2)
        grid = build_grd_grid(cfg)
        epochs = switching_epochs(cfg, 7)
        for lo, hi in zip(epochs, epochs[1:]):
            serving = [grd_assignment(cfg, grid, lo + x * (hi - lo), VnMethod.GRD1)
                       for x in fractions]
            before, after = serving[:len(serving) // 2], serving[len(serving) // 2:]
            ok &= all(np.array_equal(s, before[0]) for s in before)
            ok &= all(np.array_equal(s, after[0]) for s in after)
            ok &= not np.array_equal(before[0], after[0])
    report(9, "GRD1 hands over once per T/n2, within 0.05 of an interval of each "
           "half-epoch (4 configs x 6 intervals)", ok, time.time() - start, 5.0)


def test_criterion_10_flow_and_path_kernels():
    start = time.time()
    res = check_flow()
    label = ("flow kernel equals exhaustive min-cut; Dijkstra equals path "
             "enumeration; latency kernel equals Dijkstra (exact)")
    report(10, label if res.passed else f"{label}: {res.failures}",
           res.passed, time.time() - start, 60.0)
