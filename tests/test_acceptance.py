"""Acceptance criteria, one test per criterion.

Every test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output on failure) and enforces the stated tolerance and runtime
budget.  Tolerances are exact where the criterion is exact; trend criteria
use the stated percentage bands.
"""
import random
import time

from leovn.analysis import mean_latency, mean_throughput, seeded_pairs
from leovn.constellation import ConstellationConfig
from leovn.division import grd_switch_interval
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


def test_criterion_09_switching_interval_identity():
    start = time.time()
    rng = random.Random(99)
    ok = True
    for _ in range(10):
        period = rng.uniform(4000.0, 9000.0)
        n2 = rng.randrange(1, 120)
        ok &= grd_switch_interval(period, n2) == period / n2
    report(9, "handover interval equals period / n2 (exact, 10 random pairs)",
           ok, time.time() - start, 5.0)


def test_criterion_10_flow_and_path_kernels():
    start = time.time()
    res = check_flow()
    label = ("flow kernel equals exhaustive min-cut; Dijkstra equals path "
             "enumeration; latency kernel equals Dijkstra (exact)")
    report(10, label if res.passed else f"{label}: {res.failures}",
           res.passed, time.time() - start, 60.0)
