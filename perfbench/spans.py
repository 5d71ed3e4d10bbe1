"""In-memory span tracer for the benchmark's traced run.

The tracer wraps layer functions of the ``leovn`` package from outside: it
replaces every module global (and class attribute) bound to a traced
function object, so calls made through ``from .isl import snapshot_edges``
are traced as well as calls through ``isl.snapshot_edges``.  Spans are kept
in memory as ``[name, start, end, parent]`` and written out once, at the end.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import Counter


class Tracer:
    """Records nested spans and named counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []     # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(counters, args, result)``
        runs after each call to add work counts."""
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, self.clock(), None,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = self.clock()
            if count is not None:
                count(self.counters, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def count_calls(self, name: str, fn):
        """Return ``fn`` wrapped so that calls are counted but not spanned
        (for functions called too often for a span each)."""
        def counted(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted


def _resolve(module_name: str, attr: str):
    """(owner, leaf attribute, object) for ``attr`` such as ``Cls.method``;
    None when the module or attribute no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
    return None if fn is None else (owner, leaf, fn)


def patch_everywhere(owner, leaf: str, fn, replacement, package: str = "leovn") -> list[str]:
    """Bind ``replacement`` wherever ``fn`` is bound: on ``owner`` and on
    every global of every loaded ``package`` module.  Returns the sites."""
    sites = []
    if isinstance(owner, type):
        setattr(owner, leaf, replacement)
        sites.append(f"{owner.__module__}.{owner.__qualname__}.{leaf}")
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, replacement)
                sites.append(f"{mod_name}.{key}")
    return sites


def install(tracer: Tracer, specs, package: str = "leovn") -> dict[str, list[str]]:
    """Wrap each spec ``(name, module, attr, kind, count)``.

    ``kind`` is ``"span"`` or ``"calls"``.  Returns name -> patched sites;
    a spec whose function no longer exists adds no site.
    """
    installed: dict[str, list[str]] = {}
    for name, module_name, attr, kind, count in specs:
        sites = installed.setdefault(name, [])
        found = _resolve(module_name, attr)
        if found is None:
            continue
        owner, leaf, fn = found
        replacement = (tracer.wrap(name, fn, count) if kind == "span"
                       else tracer.count_calls(name, fn))
        sites += patch_everywhere(owner, leaf, fn, replacement, package)
    return installed


def self_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s``.

    A span's self time is its duration minus the durations of its child
    spans; the tracer is single-threaded, so children never overlap.
    """
    out: dict[str, dict[str, float]] = {}
    for name, start, end, _parent in spans:
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start
    for _name, start, end, parent in spans:
        if parent >= 0:
            out[spans[parent][0]]["self_s"] -= end - start
    return out
