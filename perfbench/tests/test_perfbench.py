"""Tests of the benchmark runner: span arithmetic, wrapping at every import
site, digest checks and a tiny-config smoke run of each workload."""
import dataclasses
import json
import sys
import textwrap
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import spans  # noqa: E402


def test_self_time_subtracts_children():
    span_list = [
        ["top", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 6.0, 0],
    ]
    st = spans.self_times(span_list)
    assert st["top"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert st["a"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert st["b"]["self_s"] == 1.0
    # self times of a tree add up to the duration of its root
    assert sum(e["self_s"] for e in st.values()) == 10.0


def test_tracer_records_nesting_and_counters():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: [x] * x,
                        lambda counters, args, result: counters.update(items=len(result)))
    outer = tracer.wrap("outer", lambda: inner(2) + inner(3))
    assert outer() == [2, 2, 3, 3, 3]
    assert [s[0] for s in tracer.spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert tracer.counters["items"] == 5


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "base.py").write_text(textwrap.dedent("""
        def work(n):
            return list(range(n))

        class Net:
            def solve(self):
                return (3, 0.0)
    """))
    (pkg / "user.py").write_text(textwrap.dedent("""
        from .base import work, Net
        from . import base

        def via_name(n):
            return work(n)

        def via_module(n):
            return base.work(n)

        def via_method():
            return Net().solve()
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "fakepkg"
    for name in [m for m in sys.modules if m.split(".")[0] == "fakepkg"]:
        del sys.modules[name]


def test_install_wraps_every_import_site(fake_package):
    import fakepkg.user as user
    tracer = spans.Tracer()
    sites = spans.install(tracer, [
        ("base.work", "fakepkg.base", "work", "span",
         lambda counters, args, result: counters.update(items=len(result))),
        ("base.solve", "fakepkg.base", "Net.solve", "span", None),
        ("gone", "fakepkg.base", "missing", "span", None),
        ("gone.module", "fakepkg.nowhere", "work", "calls", None),
    ], package=fake_package)
    assert sorted(sites["base.work"]) == ["fakepkg.base.work", "fakepkg.user.work"]
    assert sites["base.solve"] == ["fakepkg.base.Net.solve"]
    assert sites["gone"] == [] and sites["gone.module"] == []
    user.via_name(2)
    user.via_module(3)
    user.via_method()
    assert [s[0] for s in tracer.spans] == ["base.work", "base.work", "base.solve"]
    assert tracer.counters["items"] == 5


def _staticness_outputs(workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "staticness.json").write_text(json.dumps(
        {"samples": 7, "event_count": 2, "mapping_conflicts": 1}))
    (workdir / "staticness.events.csv").write_text("t\n")


def test_digest_mismatch_counts_as_failure(tmp_path):
    call = run.GRD_DAY[0]
    label, argv = call.resolve(1)
    _staticness_outputs(tmp_path)
    good = {name: run.sha256(tmp_path / name) for name in call.outputs}
    failures, attempted, facts = run.check_call(call, label, argv, tmp_path, {"exit": 0},
                                             {label: good})
    assert failures == [] and attempted == 3
    assert (facts["snapshots"], facts["events"], facts["conflicts"]) == (7, 2, 1)
    bad = dict(good, **{"staticness.events.csv": "0" * 64})
    failures, attempted, _ = run.check_call(call, label, argv, tmp_path, {"exit": 0},
                                         {label: bad})
    assert attempted == 3 and len(failures) == 1 and "digest differs" in failures[0]
    failures, _, _ = run.check_call(call, label, argv, tmp_path, {"exit": 1}, {})
    assert len(failures) == 3   # exit code and no reference for either file


def test_unrecorded_latency_seed_falls_back_to_trend(tmp_path):
    call = run.LATENCY_SWEEP
    label, argv = call.resolve(123456)
    lines = ["F,polar_threshold_deg,mode,n_hisl,throughput_gbps,avg_latency_ms,error"]
    for f in range(15):
        lines.append(f"{f},70.0,conventional,1,,{50 + f},")
        lines.append(f"{f},70.0,optimized,1,,{50 + f / 2},")
    (tmp_path / "latency.csv").write_text("\n".join(lines) + "\n")
    failures, attempted, facts = run.check_call(call, label, argv, tmp_path, {"exit": 0}, {})
    assert failures == [] and attempted == 3
    assert facts["snapshots"] == 30 * 2
    lines[4] = "1,70.0,optimized,1,,80.0,"      # optimized above conventional at F=1
    (tmp_path / "latency.csv").write_text("\n".join(lines) + "\n")
    failures, _, _ = run.check_call(call, label, argv, tmp_path, {"exit": 0}, {})
    assert len(failures) == 1 and "latency_trend_ok" in failures[0]


TINY = {"--n1": "6", "--n2": "12", "--samples": "4", "--duration-s": "3000",
        "--f-max": "2", "--pairs": "50", "--snapshots": "1"}


def _tiny(call: run.Call) -> run.Call:
    argv = list(call.argv)
    for i, arg in enumerate(argv[:-1]):
        if arg in TINY:
            argv[i + 1] = TINY[arg]
    # the paper's latency trend needs the full F range; tiny runs skip it
    return dataclasses.replace(call, argv=tuple(argv), fallback=None)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_smoke_run(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    calls = [_tiny(c) for c in run.WORKLOADS[workload]]
    plain = run.run_op(workload, 3, False, None, calls=calls)
    traced = run.run_op(workload, 3, True, None, calls=calls)
    for op in (plain, traced):
        assert op["failures"] == []
        assert op["wall_s"] > 0 and op["snapshots"] > 0 and op["rss_mb"] > 0
        assert all(0 < s < 60 for s in op["setups"])
        assert len(op["calibrations"]) == 2 * len(calls) and min(op["calibrations"]) > 0
    assert all(v > 0 for v in run.end_to_end([plain]).values())
    assert [c["digests"] for c in plain["calls"]] == [c["digests"] for c in traced["calls"]]
    layers = run.per_layer([traced], [plain])
    assert layers["cli.main.calls"] == len(calls)
    assert layers["isl.snapshot_edges.calls"] > 0
    # the span tree accounts for the traced wall time; the layers for part of it
    assert 0.99 < layers["trace.span_self_s"] / layers["trace.wall_s"] <= 1.0
    assert 0.0 < layers["trace.accounted_frac"] < 1.0
    if workload == "sweeps":
        assert layers["flow.solve.calls"] > 0 and layers["flow.add_arc.calls"] > 0
    else:
        assert layers.get("flow.solve.calls", 0) == 0
