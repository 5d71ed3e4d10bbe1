"""Every layer function that the benchmark's traced run wraps still exists.

``perfbench/child.py`` lists (span name, module, attribute) triples; the
tracer skips a triple whose function is gone, so a rename would quietly turn
that per-layer metric into a constant 0.  The module is loaded read-only from
its file.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
# deleted with the per-cell addressing loop; its span already reads 0
DEAD = {("leovn.virtualgraph", "grd_addressing"),
        # moved to leovn.verify with the oracles; the latency path never calls it
        ("leovn.analysis", "delay_matrix")}


def traced_specs():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return [(module, attr) for _, module, attr, _, _ in child.SPECS
            if (module, attr) not in DEAD]


@pytest.mark.parametrize("module,attr", traced_specs())
def test_traced_function_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
