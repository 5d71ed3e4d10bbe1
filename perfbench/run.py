#!/usr/bin/env python3
"""Paper-scale benchmark of the ``leovn`` command-line tool.

Run from the repository root:

    python3 perfbench/run.py --workload staticness --seed 7 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all               # every workload once
    python3 perfbench/run.py --workload all --repeat 10   # steadiness check

An operation runs every CLI call of one workload, each in a fresh child
process (``child.py``), one child at a time, with BLAS and OpenMP pinned to
one thread.  A run repeats operations for ``--seconds``.  Every child also
times a fixed piece of work (``calibrate.py``) around its CLI call, and the
times are reported at the reference speed of that work; see ``end_to_end``
for how a run sums them up.
The data files of every call are compared with the sha256 digests in
``reference.json``; a latency sweep whose seed has no recorded digest is
checked against the paper's latency trend instead.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Raw results, the environment and
the spans go to ``.bench_build/perfbench/results``.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import calibrate
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_build" / "perfbench"
CHILD_TIMEOUT_S = 150
DEFAULT_SEED = 42
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def latency_trend_ok(path: Path) -> bool:
    """The paper's latency trend (acceptance criterion 8) on a latency CSV.

    Each mode is non-decreasing in F within a 2 % band, and conventional is
    at least optimized for F = 1..13.  Conventional mode has no H-ISL at
    F = 14 and splits into planes, so its domain ends at F = 13.
    """
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_mode: dict[str, dict[int, float]] = {}
    for r in rows:
        by_mode.setdefault(r["mode"], {})[int(r["F"])] = float(r["avg_latency_ms"])
    opt = [v for _, v in sorted(by_mode["optimized"].items())]
    conv = [v for f, v in sorted(by_mode["conventional"].items()) if f <= 13]
    ok = all(b >= a * 0.98 for seq in (opt, conv) for a, b in zip(seq, seq[1:]))
    return ok and all(by_mode["conventional"][f] >= by_mode["optimized"][f]
                      for f in range(1, 14))


@dataclasses.dataclass(frozen=True)
class Call:
    """One CLI invocation of a workload.

    ``label`` keys the reference digests; ``{seed}`` in the label or argv is
    replaced by the run's seed.  ``outputs`` are the data files checked
    (manifests hold timestamps and are not).  ``fallback`` checks a data
    file whose label has no recorded digest.
    """
    label: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    fallback: Callable[[Path], bool] | None = None

    def resolve(self, seed: int) -> tuple[str, list[str]]:
        return (self.label.replace("{seed}", str(seed)),
                [a.replace("{seed}", str(seed)) for a in self.argv])


PAPER = ("--n1", "18", "--n2", "36", "--polar-deg", "70", "--altitude-km", "780")
STATICNESS_OUT = ("staticness.json", "staticness.events.csv")
HALF_SIDEREAL_DAY_S = "43082"
QUARTER_SIDEREAL_DAY_S = "21541"
ORBIT_PERIOD_S = "6018"
SWEEP = (*PAPER, "--f-min", "0", "--f-max", "14", "--mode", "both")

# Sizes keep paper scale (18 x 36, polar 70, 780 km) but shorten the spans
# and sample counts, so that one operation takes seconds and a run holds
# several (the handover epochs are sampled regardless of --samples).  GRD2
# spans half a sidereal day: the ~45k events it holds raise its peak RSS
# well above the import baseline.  GRD1 spans a quarter day, where coverage
# loss already shows.  The labels key the reference digests.
GRD_DAY = [
    Call(f"grd-day/{method}",
         ("staticness", *PAPER, "--method", method, "--mode", "conventional",
          "--duration-s", duration, "--samples", samples),
         STATICNESS_OUT)
    for method, duration, samples in (("grd2", HALF_SIDEREAL_DAY_S, "120"),
                                      ("grd1", QUARTER_SIDEREAL_DAY_S, "40"))]
CSD_PERIOD = [
    Call(f"csd-period/F={f}",
         ("staticness", *PAPER, "--f", str(f), "--method", "csd",
          "--mode", "optimized", "--duration-s", ORBIT_PERIOD_S, "--samples", "60"),
         STATICNESS_OUT)
    for f in (0, 2, 6)]
THROUGHPUT_SWEEP = Call("throughput-sweep", ("throughput", *SWEEP, "--snapshots", "2"),
                        ("throughput.csv",))
LATENCY_SWEEP = Call("latency-sweep/seed={seed}",
                     ("latency", *SWEEP, "--snapshots", "2", "--pairs", "10000",
                      "--seed", "{seed}"),
                     ("latency.csv",), fallback=latency_trend_ok)

# Two workloads, not one per computation: a core of a shared machine runs
# fast or slow for seconds to minutes at a time, so a run must hold several
# operations, and the time allowed for all runs fits two runs of a minute.
WORKLOADS: dict[str, list[Call]] = {
    "staticness": GRD_DAY + CSD_PERIOD,
    "sweeps": [THROUGHPUT_SWEEP, LATENCY_SWEEP],
}


# -- one child ---------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "LEOVN_OUTPUT_DIR"}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], workdir: Path, spans_path: Path | None) -> dict:
    """Run one CLI call in a fresh process inside an emptied ``workdir``.

    ``setup_s`` runs from just before the spawn to the end of
    ``import leovn.cli`` in the child (both stamps are CLOCK_MONOTONIC).
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result_path = workdir.with_name(workdir.name + ".child.json")
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(result_path),
           str(spans_path) if spans_path else "-", *argv]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit": "timeout", "stderr": f"killed after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result_path.is_file():
        return {"exit": proc.returncode or "no result", "stderr": proc.stderr[-2000:]}
    result = json.loads(result_path.read_text())
    result["setup_s"] = result.pop("import_done") - spawned
    if result["exit"] != 0:
        result["stderr"] = proc.stderr[-2000:]
    return result


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_call(call: Call, label: str, argv: list[str], workdir: Path, result: dict,
            reference: dict | None) -> tuple[list[str], int, dict]:
    """Check one call's outputs; returns (failures, checks attempted, facts).

    With ``reference`` None no digest is compared (recording mode).  Facts are
    read from the CLI's own files: digests, bytes written, physical
    snapshots handled, events, mapping conflicts, sweep error rows and the
    config digest of the manifest.
    """
    failures: list[str] = []
    attempted = 1
    if result.get("exit") != 0:
        failures.append(f"{label}: exit {result.get('exit')}: {result.get('stderr', '')}")
    facts: dict = {"digests": {}, "snapshots": 0, "events": 0, "conflicts": 0,
                   "error_rows": 0,
                   "bytes_written": sum(p.stat().st_size for p in workdir.iterdir()
                                        if p.is_file())}
    expected = None if reference is None else reference.get(label)
    for name in call.outputs:
        path = workdir / name
        if not path.is_file():
            attempted += 1
            failures.append(f"{label}: {name} missing")
            continue
        digest = facts["digests"][name] = sha256(path)
        if expected is not None:
            attempted += 1
            if expected.get(name) != digest:
                failures.append(f"{label}: {name} digest differs from the reference")
        elif call.fallback is not None:
            attempted += 1
            try:
                ok = call.fallback(path)
            except (KeyError, ValueError):
                ok = False
            if not ok:
                failures.append(f"{label}: {name} fails {call.fallback.__name__}")
        elif reference is not None:
            attempted += 1
            failures.append(f"{label}: no reference digest")
    try:
        first = workdir / call.outputs[0]
        if first.suffix == ".json" and first.is_file():
            report = json.loads(first.read_text())
            facts.update(snapshots=report["samples"], events=report["event_count"],
                         conflicts=report["mapping_conflicts"])
        elif first.is_file():
            with open(first, newline="") as fh:
                rows = list(csv.DictReader(fh))
            facts["error_rows"] = sum(1 for r in rows if r["error"])
            facts["snapshots"] = len(rows) * int(argv[argv.index("--snapshots") + 1])
            attempted += 1
            if facts["error_rows"]:
                failures.append(f"{label}: {facts['error_rows']} sweep error rows")
        manifest = first.with_name(first.name + ".manifest.json")
        if manifest.is_file():
            facts["config_digest"] = json.loads(manifest.read_text())["config_digest"]
    except (KeyError, ValueError) as exc:
        attempted += 1
        failures.append(f"{label}: unreadable output: {exc!r}")
    return failures, attempted, facts


def layer_values(result: dict, span_list: list, facts: dict) -> dict[str, float]:
    """Per-layer values of one traced call (self times, calls, counters)."""
    values: dict[str, float] = {}
    for name, entry in spans.self_times(span_list).items():
        values[f"{name}.self_s"] = entry["self_s"]
        values[f"{name}.calls"] = entry["calls"]
        values["trace.span_self_s"] = values.get("trace.span_self_s", 0.0) + entry["self_s"]
    values.update(result.get("counters", {}))
    values.update({
        "isl.cache.hits": result["cache"]["hits"],
        "isl.cache.misses": result["cache"]["misses"],
        "virtualgraph.events": facts["events"],
        "virtualgraph.mapping_conflicts": facts["conflicts"],
        "analysis.sweep.error_rows": facts["error_rows"],
        "cli.bytes_written": facts["bytes_written"],
    })
    return values


# -- operations and runs ------------------------------------------------------

def run_op(workload: str, seed: int, trace: bool, reference: dict | None,
           calls: list[Call] | None = None, tag: str = "op") -> dict:
    """Run every call of ``workload`` once; sums over its calls."""
    op = {"wall_s": 0.0, "cpu_s": 0.0, "setups": [], "calibrations": [], "rss_mb": 0.0,
          "snapshots": 0,
          "attempted": 0, "failures": [], "layers": {}, "calls": []}
    for k, call in enumerate(calls or WORKLOADS[workload]):
        label, argv = call.resolve(seed)
        spans_path = WORK / "results" / f"{tag}-{k}.spans.json" if trace else None
        if spans_path:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
        workdir = WORK / "work"
        result = run_child(argv, workdir, spans_path)
        failures, attempted, facts = check_call(call, label, argv, workdir, result, reference)
        op["failures"] += failures
        op["attempted"] += attempted
        op["calls"].append({"label": label, **result, **facts})
        if "wall_s" not in result:
            continue
        op["wall_s"] += result["wall_s"]
        op["cpu_s"] += result["cpu_s"]
        op["setups"].append(result["setup_s"])
        op["calibrations"] += result["calibration_s"]
        op["rss_mb"] = max(op["rss_mb"], result["maxrss_kb"] / 1024.0)
        op["snapshots"] += facts["snapshots"]
        if trace:
            values = layer_values(result, json.loads(spans_path.read_text()), facts)
            for key, value in values.items():
                op["layers"][key] = op["layers"].get(key, 0) + value
    return op


def scaled(op: dict) -> dict[str, float]:
    """An operation's times at the reference speed of ``calibrate.py``:
    multiplied (the rate divided) by ``REFERENCE_S`` over the mean of the
    calibration times taken around its calls."""
    k = calibrate.REFERENCE_S / statistics.fmean(op["calibrations"])
    return {"wall_ref_s": op["wall_s"] * k,
            "cpu_ref_s": op["cpu_s"] * k,
            "snapshots_per_ref_s": op["snapshots"] / (op["wall_s"] * k),
            "setup_s": statistics.fmean(op["setups"]) * k}


def samples(ops: list[dict]) -> dict[str, list[float]]:
    """Raw samples of each measured quantity: one per operation (one per
    child for ``setup_s``, two per child for ``calibration_s``)."""
    return {
        "wall_s": [op["wall_s"] for op in ops],
        "cpu_s": [op["cpu_s"] for op in ops],
        "setup_s": [s for op in ops for s in op["setups"]],
        "calibration_s": [c for op in ops for c in op["calibrations"]],
        "peak_rss_mb": [op["rss_mb"] for op in ops],
    }


def end_to_end(ops: list[dict]) -> dict[str, float]:
    """The run's value of each end-to-end metric.

    Times, the rate and set-up are medians over the run's operations of
    their values at the reference speed (``scaled``): a core of a shared
    machine slows down and speeds up by a third or more for seconds to
    minutes at a time, and the calibration taken around each call follows
    it.  Peak RSS is a mean: the latency sweep's peak lands on one of two
    levels about 3 MB apart, and a median would jump between them.
    """
    per_op = [scaled(op) for op in ops if op["calibrations"]]
    values = {k: statistics.median(v[k] for v in per_op) if per_op else 0.0
              for k in ("wall_ref_s", "cpu_ref_s", "snapshots_per_ref_s", "setup_s")}
    values["peak_rss_mb"] = statistics.fmean(op["rss_mb"] for op in ops)
    return values


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Median over traced operations of each per-layer value, plus derived
    figures.

    ``untraced[i]`` ran just before ``traced[i]``, so the tracing overhead is
    the median of the pairwise wall-time differences: neighbouring
    operations share the state of the core.  ``trace.accounted_frac`` is the
    share of traced wall time that the layer spans cover, that is, all of it
    but the self time of the ``cli.main`` root span.
    """
    keys = {k for op in traced for k in op["layers"]}
    out = {k: statistics.median(op["layers"].get(k, 0) for op in traced) for k in keys}
    hits, misses = out.get("isl.cache.hits", 0), out.get("isl.cache.misses", 0)
    out["isl.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["trace.wall_s"] = statistics.median(op["wall_s"] for op in traced)
    out["trace.overhead_s"] = statistics.median(
        t["wall_s"] - u["wall_s"] for t, u in zip(traced, untraced))
    out["trace.accounted_frac"] = statistics.median(
        1.0 - op["layers"].get("cli.main.self_s", 0.0) / op["wall_s"] if op["wall_s"] else 0.0
        for op in traced)
    return out


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             reference: dict) -> dict:
    """One measured run: operations (with tracing, untraced/traced pairs)
    for as long as one more, as slow as the slowest so far, still ends
    within ``seconds``; at least one."""
    ops, traced = [], []
    loadavg = os.getloadavg()
    start = last = time.monotonic()
    slowest = 0.0
    while True:
        tag = f"{workload}-seed{seed}-op{len(ops)}"
        ops.append(run_op(workload, seed, False, reference, tag=tag))
        if trace:
            traced.append(run_op(workload, seed, True, reference, tag=tag + "-traced"))
        now = time.monotonic()
        slowest, last = max(slowest, now - last), now
        if now - start + slowest > seconds:
            break
    everything = ops + traced
    run = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "loadavg_at_start": loadavg,
        "ops": len(ops), "children": sum(len(op["calls"]) for op in everything),
        "attempted": sum(op["attempted"] for op in everything),
        "failures": [f for op in everything for f in op["failures"]],
        "samples": samples(ops),
        "end_to_end": end_to_end(ops),
        "config_digests": {c["label"]: c.get("config_digest") for c in ops[0]["calls"]},
    }
    if trace:
        run["per_layer"] = per_layer(traced, ops)
    run["raw"] = [op["calls"] for op in everything]
    return run


# -- environment, reference and report ---------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def probe() -> dict:
    """Import the program once in a child (warming the file cache) and
    report the library versions it runs with; raises when it cannot."""
    code = ("import json, sys, numpy, scipy, leovn.cli; print(json.dumps("
            "{'python': sys.version.split()[0], 'numpy': numpy.__version__, "
            "'scipy': scipy.__version__, 'leovn': leovn.__version__}))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import leovn.cli:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(versions: dict) -> dict:
    return {"git_sha": git_sha(), "source_sha256": source_digest(), **versions,
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)), "child_env": PINNED_ENV}


def print_run(run: dict, bench: dict) -> None:
    print(f"== {run['workload']}  seed {run['seed']}  trace {run['trace']}  "
          f"ops {run['ops']}  children {run['children']}")
    for m in bench["end_to_end"]:
        print(f"  {m['name']:<20} {run['end_to_end'][m['name']]:.6g} {m['unit']}")
    for name, values in run["samples"].items():
        values = values or [0.0]
        print(f"  raw {name:<16} median {statistics.median(values):.6g}  "
              f"max {max(values):.6g}  min {min(values):.6g}  n={len(values)}")
    failed = len(run["failures"])
    print(f"  {'failed_frac':<20} {failed}/{run['attempted']} = "
          f"{failed / run['attempted']:.6g}")
    for failure in run["failures"][:10]:
        print(f"  FAILED {failure}")
    for m in bench["per_layer"] if run["trace"] else ():
        print(f"  {m['name']:<40} {run['per_layer'].get(m['name'], 0):.6g} {m['unit']}")


def metric_block(values: dict[str, float], specs: list[dict]) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def steadiness(runs: list[dict], bench: dict) -> None:
    """Print the spread of each end-to-end metric over runs, as
    (third quartile - first quartile) / median, against its bound."""
    print(f"== steadiness of {runs[0]['workload']} over {len(runs)} runs")
    for m in bench["end_to_end"]:
        values = [r["end_to_end"][m["name"]] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "WIDE" if spread > m["bound"] else ("over 1/3 bound" if spread > m["bound"] / 3
                                                  else "")
        print(f"  {m['name']:<18} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.4f}  max/min {max(values) / min(values):.4f}  "
              f"bound {m['bound']}  {flag}")


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed..seed+repeat-1; "
                             "prints the spread of each metric")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "leovn" / "cli.py").is_file():
        print(f"no leovn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        env = environment(probe())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 2
    reference = json.loads((BENCH_DIR / "reference.json").read_text())["digests"]
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)

    metrics, attempted, failed = {}, 0, 0
    for workload in workloads:
        runs = []
        for i in range(args.repeat):
            run = run_once(workload, args.seed + i, args.seconds, bool(args.trace), reference)
            run["environment"] = env
            name = f"{workload}-seed{run['seed']}-trace{args.trace}.json"
            (results / name).write_text(json.dumps(run, indent=1) + "\n")
            print_run(run, bench)
            runs.append(run)
            attempted += run["attempted"]
            failed += len(run["failures"])
        if args.repeat > 1 and not args.trace:
            steadiness(runs, bench)
        key = "per_layer" if args.trace else "end_to_end"
        values = {m["name"]: statistics.median(r[key].get(m["name"], 0) for r in runs)
                  for m in specs}
        block = metric_block(values, specs)
        if len(workloads) == 1:
            metrics = block
        else:
            metrics.update({f"{workload}/{k}": v for k, v in block.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
