"""Acceptance criteria: each is one ``leovn verify`` check within a runtime
budget.

Every row prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output on failure), labelled with the check's name and its detail.
The tolerances live in the checks: exact where the criterion is exact, the
stated percentage bands for the trends.
"""
import time

import pytest

from leovn import verify

# (criterion, check, runtime budget in seconds)
CRITERIA = (
    (1, verify.check_division, 5.0),
    (2, verify.check_counts, 60.0),
    (3, verify.check_theorem1, 60.0),
    (4, verify.check_csd_staticness, 90.0),
    (5, verify.check_grd_dynamics, 60.0),
    (6, verify.check_count_trends, 5.0),
    (7, verify.check_throughput_trend, 600.0),
    (8, verify.check_latency_trend, 600.0),
    (9, verify.check_grd1_handover, 5.0),
    (10, verify.check_flow, 60.0),
    (11, verify.check_optimal_division, 5.0),
)


@pytest.mark.parametrize("number,check,budget", CRITERIA,
                         ids=[f"{number:02d}_{check.__name__}" for number, check, _ in CRITERIA])
def test_criterion(number, check, budget):
    start = time.time()
    res = check()
    elapsed = time.time() - start
    status = "PASS" if res.passed and elapsed < budget else "FAIL"
    print(f"{status} criterion {number:2d} [{elapsed:6.1f}s / budget {budget:.0f}s] "
          f"{res.name}{': ' + res.detail if res.detail else ''}")
    assert res.passed, f"criterion {number} ({res.name}): {res.failures}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"


def test_criteria_are_the_suite_checks_each_once():
    checks = [check for _, check, _ in CRITERIA]
    assert len(set(checks)) == len(checks) == len(verify.SUITES["all"]) and (
        set(checks) == set(verify.SUITES["all"]))
