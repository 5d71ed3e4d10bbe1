"""Oracle sensitivity: each row plants a mutant in a kernel, in-process, and
names the checks that must catch it.

A mutant is the kernel's module source with one snippet replaced, executed
into a fresh namespace; the mutated function or method is then patched onto
the live module or class, so every caller (``analysis``, ``verify``) runs it.
"""
import functools
import inspect
import itertools
import sys
import types

import pytest

import test_analysis
from leovn import analysis, flow, verify
from leovn.isl import IslMode


def mutant(module, target: str, old: str, new: str):
    """``target`` (``name`` or ``Class.name``) from ``module``'s source with
    ``old`` replaced by ``new``."""
    source = inspect.getsource(module)
    assert source.count(old) == 1, f"mutation site {old!r} not found once"
    copy = types.ModuleType(module.__name__ + "_mutant")
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


def flow_suite_fails() -> bool:
    return not all(check().passed for check in verify.SUITES["flow"])


def enumeration_fails() -> bool:
    """Whether the latency kernel departs from path enumeration on any of
    ``verify.enumeration_snapshots``."""
    return not all(verify.latency_equals_enumeration(snap)
                   for _, snap in verify.enumeration_snapshots())


# mutant: (module, target, old snippet, new snippet, outcome).  Each must be
# caught by verify.SUITES["flow"] and also, in a ``flow`` target, by
# tests/test_analysis.py::TestThroughput::test_equals_scipy_maximum_flow, in
# an ``analysis`` target by path enumeration alone (``enumeration_fails``).
# outcome "fails": the checks report a failure; "raises": the kernel's guard
# raises RuntimeError inside them, where the mutant would otherwise loop
FLOW_MUTANTS = {
    "twin update dropped": (flow, "MaxFlowNetwork.solve", "res[a ^ 1] += f\n", "pass\n",
                            "fails"),
    "undirected edge stored one-way": (flow, "MaxFlowNetwork.add_edges",
                                       "np.stack([cap, cap], axis=-1)",
                                       "np.stack([cap, 0 * cap], axis=-1)", "fails"),
    "saturated tree arc left in its tree": (flow, "MaxFlowNetwork.solve",
                                            "if not res[a] and v >= 0:", "if False:",
                                            "raises"),
    "orphan adopted without the origin check": (flow, "MaxFlowNetwork.solve",
                                                "if stamp[v] == time or par[v] == -2:",
                                                "if True:", "raises"),
    "ring pass one step short": (analysis, "_ring_pass", "range(hops - 1)",
                                 "range(hops - 2)", "fails"),
    "fixed n2 // 2 ring bound": (analysis, "_segment_hops",
                                 "return int(np.count_nonzero(k * ring_w.min() <= "
                                 "(n2 - k) * ring_w.max() * (1 + 1e-6)))",
                                 "return len(ring_w) // 2", "fails"),
}


@pytest.mark.parametrize("mutant_name", FLOW_MUTANTS)
def test_flow_mutant_is_caught(monkeypatch, mutant_name):
    module, target, old, new, outcome = FLOW_MUTANTS[mutant_name]
    *owner, name = target.split(".")
    monkeypatch.setattr(functools.reduce(getattr, owner, module), name,
                        mutant(module, target, old, new))
    checks = [flow_suite_fails, scipy_comparison_fails if module is flow else enumeration_fails]
    for check in checks:
        if outcome == "raises":
            with pytest.raises(RuntimeError):
                check()
        else:
            assert check()
