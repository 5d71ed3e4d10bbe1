"""Oracle sensitivity: each row plants a mutant in a kernel, in-process, and
names the checks that must catch it.

A mutant is the kernel's module source with one snippet replaced, executed
into a fresh namespace; the mutated function or method is then patched onto
the live class, or onto every ``leovn`` or test module that bound the
function by name, so every caller (``isl``, ``analysis``, ``virtualgraph``,
``verify``, the tests) runs it.
"""
import functools
import inspect
import itertools
import sys
import types

import pytest
from hypothesis import given, settings

import test_analysis
import test_constellation
from leovn import analysis, constellation, division, flow, isl, verify
from leovn.isl import IslMode

from helpers import configs


def mutant(module, target: str, old: str, new: str):
    """``target`` (``name`` or ``Class.name``) from ``module``'s source with
    ``old`` replaced by ``new``."""
    source = inspect.getsource(module)
    assert source.count(old) == 1, f"mutation site {old!r} not found once"
    copy = types.ModuleType(module.__name__ + "_mutant")
    copy.__package__ = module.__package__     # for its relative imports
    sys.modules[copy.__name__] = copy     # dataclasses look their module up
    try:
        exec(compile(source.replace(old, new), module.__file__, "exec"), copy.__dict__)
    finally:
        del sys.modules[copy.__name__]
    return functools.reduce(getattr, target.split("."), copy)


def scipy_comparison_fails() -> bool:
    """Whether ``test_equals_scipy_maximum_flow`` fails at any of its points."""
    test = test_analysis.TestThroughput().test_equals_scipy_maximum_flow
    for f, mode in itertools.product((0, 2, 6, 14), IslMode):
        try:
            test(f, mode)
        except AssertionError:
            return True
    return False


def property_fails(test):
    """Whether the ``helpers.configs()`` property ``test``, a method of a
    stateless test class, fails on 100 drawn cases.  Its inner test runs
    under a ``given`` of its own, since Hypothesis rejects a method called
    from a second instance."""
    @settings(max_examples=100, deadline=None, database=None)
    @given(case=configs())
    def prop(case):
        test.hypothesis.inner_test(None, case)

    def run():
        try:
            prop()
        except AssertionError:
            return True
        return False
    return run


def fails(*checks):
    """Whether any of ``checks`` (``verify`` checks) reports a failure."""
    return lambda: not all(check().passed for check in checks)


def enumeration_fails_at_every_seed() -> bool:
    """Whether the latency kernel departs from path enumeration at every seed
    of ``verify.enumeration_snapshots``."""
    failing = {label.split()[0] for label, snap in verify.enumeration_snapshots()
               if not verify.latency_equals_enumeration(snap)}
    return failing == {f"seed={seed}" for seed in range(100, 120)}


def patch_everywhere(monkeypatch, module, target: str, replacement) -> None:
    """Patch ``target`` (``name`` or ``Class.name``) of ``module`` onto its
    owner and onto every ``leovn`` or test module that holds the same object."""
    *owner, name = target.split(".")
    holders = [functools.reduce(getattr, owner, module),
               *(mod for key, mod in sys.modules.items()
                 if key.split(".")[0] == "leovn" or key.startswith("test_"))]
    original = getattr(holders[0], name)
    for holder in holders:
        if getattr(holder, name, None) is original:
            monkeypatch.setattr(holder, name, replacement)


FLOW_CHECKS = (fails(*verify.SUITES["flow"]), scipy_comparison_fails)
RING_CHECKS = (fails(*verify.SUITES["flow"]), enumeration_fails_at_every_seed)
BITS = test_constellation.TestSharedKinematics
# the left-to-right phase sum of ``constellation._phase``, time term last
TIME_TERM = "\n            + turn * t / config.period"
PHASE_SUM = ("config.phase0_deg * (turn / 360.0) + slots * (turn / n2)\n"
             "            + planes * (turn * config.phasing_factor / (n1 * n2))" + TIME_TERM)
# mutant: (module, target, old snippet, new snippet, outcome, checks).
# outcome "fails": every check reports a failure; "raises": the kernel's guard
# raises RuntimeError inside each check, where the mutant would otherwise loop
MUTANTS = {
    "twin update dropped": (flow, "MaxFlowNetwork.solve", "res[a ^ 1] += f\n", "pass\n",
                            "fails", FLOW_CHECKS),
    "undirected edge stored one-way": (flow, "MaxFlowNetwork.add_edges",
                                       "np.stack([cap, cap], axis=-1)",
                                       "np.stack([cap, 0 * cap], axis=-1)", "fails",
                                       FLOW_CHECKS),
    "saturated tree arc left in its tree": (flow, "MaxFlowNetwork.solve",
                                            "if not res[a] and v >= 0:", "if False:",
                                            "raises", FLOW_CHECKS),
    "orphan adopted without the origin check": (flow, "MaxFlowNetwork.solve",
                                                "if stamp[v] == time or par[v] == -2:",
                                                "if True:", "raises", FLOW_CHECKS),
    "ring pass one step short": (analysis, "_ring_pass", "range(n2 + hops - 1)",
                                 "range(n2 + hops - 2)", "fails", RING_CHECKS),
    # the early exit taken at the first wrap step, whether or not it lowers
    "wrap steps skipped": (analysis, "_ring_pass",
                           "if i >= n2 and not np.less(step, to, out=lowers).any():",
                           "if i >= n2:", "fails", RING_CHECKS),
    "fixed n2 // 2 ring bound": (analysis, "_segment_hops",
                                 "return int(np.count_nonzero(k * ring_w.min() <= "
                                 "(n2 - k) * ring_w.max() * (1 + 1e-6)))",
                                 "return len(ring_w) // 2", "fails", RING_CHECKS),
    "one active row dropped at F=3": (isl, "active_row_set",
                                      "return frozenset(range(1, n2 + 1)) - hit\n",
                                      "return frozenset(range(1, n2 + 1)) - hit - "
                                      "({1} if config.phasing_factor == 3 else set())\n",
                                      "fails", (fails(*verify.SUITES["division"]),
                                                fails(*verify.SUITES["counts"]))),
    # isl and virtualgraph import csd_rows_all by name: patched into division
    # alone, the mutant leaves the CSD staticness check passing
    "CSD row snap dropped": (division, "csd_rows_all", "rel / step + CELL_SNAP)",
                             "rel / step)", "fails", (fails(verify.check_csd_staticness),)),
    # GRD1 would hand over at the CSD epochs instead of the half-epochs
    "GRD served half an interval late": (division, "grd_assignment",
                                         "propagate_all(config, t)",
                                         "propagate_all(config, t + config.period / (2 * n2))",
                                         "fails", (fails(verify.check_grd1_handover),)),
    # the table's row 1 half a row off -polar: the division is no longer optimal
    "row origin shifted half a row": (division, "exact_angles", "origin=-polar,",
                                      "origin=-polar + turn // (2 * n2),", "fails",
                                      (fails(verify.check_optimal_division),)),
    "last backward-link boundary dropped": (isl, "bh_planes", "+ 1).tolist()",
                                            "+ 1).tolist()[:-1]", "fails",
                                            (fails(verify.check_theorem1),)),
    "phase time term summed first": (constellation, "_phase", PHASE_SUM,
                                     "turn * t / config.period + "
                                     + PHASE_SUM.removesuffix(TIME_TERM), "fails",
                                     (property_fails(BITS.test_phases_deg_equals_inline_degree_sum),)),
    "radian phase converted from degrees": (constellation, "propagate_all",
                                            "_phase(config, t, 2.0 * math.pi)",
                                            "np.radians(_phase(config, t, 360.0))", "fails",
                                            (property_fails(
                                                BITS.test_propagate_all_equals_inline_plane_trig),)),
}


def clear_caches() -> None:
    """Empty every ``lru_cache`` of ``leovn``: cached results of the real
    kernels would hide a mutant, and a mutant's must not outlive it."""
    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "leovn":
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty caches around a test; torn down before ``monkeypatch`` undoes
    its patches, so no mutant result survives into the next test."""
    clear_caches()
    yield
    clear_caches()


@pytest.mark.parametrize("mutant_name", MUTANTS)
def test_mutant_is_caught(monkeypatch, fresh_caches, mutant_name):
    module, target, old, new, outcome, checks = MUTANTS[mutant_name]
    patch_everywhere(monkeypatch, module, target, mutant(module, target, old, new))
    for check in checks:
        if outcome == "raises":
            with pytest.raises(RuntimeError):
                check()
        else:
            assert check()
