"""One timed ``leovn`` CLI call, run in a fresh process by ``run.py``.

Usage: child.py RESULT_JSON SPANS_JSON|- CLI_ARGV...

Writes RESULT_JSON with the monotonic stamp taken once ``leovn.cli`` is
imported, the times of the calibration work (``calibrate.py``) run just
before and just after the CLI call, the wall and CPU time of
``cli.main(argv)``, the exit code, the
peak RSS and the ``cache_info()`` of the isl caches.  When SPANS_JSON is not
``-`` the layer functions are traced: the spans go to SPANS_JSON and the
counters into RESULT_JSON.
"""
import json
import resource
import sys
import time


def _len(counter):
    def count(counters, args, result):
        counters[counter] += len(result)
    return count


def _add_edges(counters, args, result):
    counters["analysis.weight_snapshot.edges"] += len(result.edges)


def _add_sources(counters, args, result):
    counters["analysis.shortest_path_delays.sources"] += len(args[1])


def _add_flow_units(counters, args, result):
    # every ISL arc has capacity 1, so each flow unit is one augmentation
    counters["flow.solve.augmentations"] += result[0]


# (span or counter name, module, attribute, "span" | "calls", counter hook)
SPECS = [
    ("constellation.propagate_all", "leovn.constellation", "propagate_all", "span", None),
    ("division.build_grd_grid", "leovn.division", "build_grd_grid", "span", None),
    ("division.grd_assignment", "leovn.division", "grd_assignment", "span", None),
    ("division.csd_rows_all", "leovn.division", "csd_rows_all", "span", None),
    ("isl.snapshot_edges", "leovn.isl", "snapshot_edges", "span",
     _len("isl.snapshot_edges.edges")),
    ("isl.row_activity", "leovn.isl", "row_activity", "span", None),
    ("virtualgraph.staticness_report", "leovn.virtualgraph", "staticness_report", "span", None),
    ("virtualgraph.method_instance", "leovn.virtualgraph", "method_instance", "span", None),
    ("virtualgraph.csd_addressing", "leovn.virtualgraph", "csd_addressing", "span", None),
    ("virtualgraph.grd_addressing", "leovn.virtualgraph", "grd_addressing", "span", None),
    ("virtualgraph.map_snapshot", "leovn.virtualgraph", "map_snapshot", "span",
     _len("virtualgraph.map_snapshot.vedges")),
    ("analysis.weight_snapshot", "leovn.analysis", "weight_snapshot", "span", _add_edges),
    ("analysis.max_flow_throughput", "leovn.analysis", "max_flow_throughput", "span", None),
    ("analysis.delay_matrix", "leovn.analysis", "delay_matrix", "span", None),
    ("analysis.shortest_path_delays", "leovn.analysis", "shortest_path_delays", "span",
     _add_sources),
    ("flow.solve", "leovn.flow", "MinCostMaxFlow.solve", "span", _add_flow_units),
    # thousands of calls per snapshot: counted, not spanned
    ("flow.add_arc.calls", "leovn.flow", "MinCostMaxFlow.add_arc", "calls", None),
    ("cli.write", "leovn.cli", "_write_csv", "span", None),
    ("cli.write", "leovn.cli", "_write_rows", "span", None),
    ("cli.write", "leovn.cli", "_write_manifest", "span", None),
]

CACHED = ("row_chains", "active_row_set")


def _cache_counts() -> dict:
    from leovn import isl
    hits = misses = 0
    for name in CACHED:
        info = getattr(getattr(isl, name, None), "cache_info", None)
        if info is not None:
            hits += info().hits
            misses += info().misses
    return {"hits": hits, "misses": misses}


def main() -> int:
    result_path, spans_path, *argv = sys.argv[1:]
    import leovn.cli
    import_done = time.monotonic()
    import calibrate
    calibration_s = [calibrate.timed()]

    tracer = sites = None
    run = leovn.cli.main
    if spans_path != "-":
        import spans
        tracer = spans.Tracer()
        sites = spans.install(tracer, SPECS)
        run = tracer.wrap("cli.main", leovn.cli.main)

    sys.argv = ["leovn", *argv]      # the manifest records sys.argv[1:]
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        code = run(argv)
    except SystemExit as exc:        # argparse usage errors
        code = exc.code
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    calibration_s.append(calibrate.timed())

    result = {
        "import_done": import_done,
        "calibration_s": calibration_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "exit": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cache": _cache_counts(),
    }
    if tracer is not None:
        result["counters"] = dict(tracer.counters)
        result["sites"] = sites
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
