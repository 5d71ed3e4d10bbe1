"""Oracle sensitivity: each row plants a mutant in a kernel, in-process, and
names the checks that must catch it.

A mutant is the kernel's module source with one snippet replaced, executed
into a fresh namespace; the mutated method is then patched onto the live
class, so every caller (``analysis``, ``verify``) runs it.
"""
import inspect
import itertools

import pytest

import test_analysis
from leovn import flow, verify
from leovn.isl import IslMode


def mutant_method(module, cls: str, method: str, old: str, new: str):
    """``cls.method`` from ``module``'s source with ``old`` replaced by ``new``."""
    source = inspect.getsource(module)
    assert source.count(old) == 1, f"mutation site {old!r} not found once"
    namespace = {"__name__": module.__name__ + "_mutant"}
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return getattr(namespace[cls], method)


def scipy_comparison_fails() -> bool:
    """Whether ``test_equals_scipy_maximum_flow`` fails at any of its points."""
    test = test_analysis.TestThroughput().test_equals_scipy_maximum_flow
    for f, mode in itertools.product((0, 2, 6, 14), IslMode):
        try:
            test(f, mode)
        except AssertionError:
            return True
    return False


# mutant: (target, old snippet, new snippet); each must fail
# verify.SUITES["flow"] and
# tests/test_analysis.py::TestThroughput::test_equals_scipy_maximum_flow
FLOW_MUTANTS = {
    "twin update dropped": ("MaxFlowNetwork.solve", "res[a ^ 1] += f\n", "pass\n"),
    "undirected edge stored one-way": ("MaxFlowNetwork.add_edges",
                                       "np.stack([cap, cap], axis=-1)",
                                       "np.stack([cap, 0 * cap], axis=-1)"),
}


@pytest.mark.parametrize("mutant", FLOW_MUTANTS)
def test_flow_mutant_is_caught(monkeypatch, mutant):
    target, old, new = FLOW_MUTANTS[mutant]
    cls, method = target.split(".")
    monkeypatch.setattr(getattr(flow, cls), method, mutant_method(flow, cls, method, old, new))
    assert not all(check().passed for check in verify.SUITES["flow"])
    assert scipy_comparison_fails()
