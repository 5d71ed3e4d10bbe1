"""Command-line experiment driver.

Subcommands: divide, snapshot, staticness, sweep-hisl, throughput, latency,
theorem1-check, verify.  Every data output gets a manifest sidecar recording
the resolved configuration digest, seed, parsed argv and version; identical inputs
produce byte-identical data files (timestamps live only in the manifest).
Exit codes: 0 success, 1 verification mismatch, 2 usage or config error.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, verify as verify_mod
from .analysis import sweep
from .constellation import CONFIG_FIELDS, ConfigError, ConstellationConfig, read_config_file
from .division import cell_bounds
from .isl import IslKind, IslMode, active_row_set, snapshot_edges
from .virtualgraph import EventCause, EventChange, VnMethod, edge_addresses, staticness_report

OUTPUT_DIR_ENV = "LEOVN_OUTPUT_DIR"
KIND_LETTERS = ("V", "H")       # indexed by IslKind code


# -- outputs ----------------------------------------------------------------------

def _config_digest(config: ConstellationConfig) -> str:
    payload = "\n".join(f"{k}={v!r}" for k, v in
                        sorted(dataclasses.asdict(config).items()))
    return hashlib.sha256(payload.encode()).hexdigest()


def _write_manifest(out_path: Path, config: ConstellationConfig, args: argparse.Namespace,
                    argv: list[str], started: str) -> None:
    manifest = {
        "config_digest": _config_digest(config),
        "seed": getattr(args, "seed", None),
        "subcommand": args.subcommand,
        "argv": argv,
        "version": __version__,
        "started": started,
        "finished": _now(),
    }
    path = out_path.with_name(out_path.name + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2) + "\n")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _out_path(args: argparse.Namespace, default_name: str) -> Path:
    """``--out``, else ``default_name`` in $LEOVN_OUTPUT_DIR or the working
    directory; either way the file's directory is created."""
    path = Path(args.out) if args.out else Path(os.environ.get(OUTPUT_DIR_ENV, ".")) / default_name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_rows(path: Path, fmt: str, header: list[str], rows: list[list]) -> None:
    if fmt == "csv":
        _write_csv(path, header, rows)
    else:
        records = [dict(zip(header, row)) for row in rows]
        path.write_text(json.dumps(records, indent=2) + "\n")


# -- config assembly --------------------------------------------------------------

def _build_config(args: argparse.Namespace, **fixed) -> ConstellationConfig:
    """The file's values (if any) overlaid with the subcommand's flags and then
    ``fixed``, built once, so that defaults such as ``phase0_deg = -polar``
    resolve after the overrides.  n1 and n2 may come from either source but
    must come from one."""
    config_file = getattr(args, "config", None)
    fields = read_config_file(config_file) if config_file else {}
    for _, _, name, _, _ in CONFIG_FIELDS:
        if getattr(args, name, None) is not None:
            fields[name] = getattr(args, name)
    fields.update(fixed)
    for key, flag, name, _, _ in CONFIG_FIELDS[:2]:     # n1 and n2
        if name not in fields:
            raise ConfigError(f"missing required field {name}: set {key} in "
                              f"the --config file or pass {flag}")
    return ConstellationConfig(**fields)


def _parse_mode(value: str) -> list[IslMode]:
    if value == "both":
        return [IslMode.CONVENTIONAL, IslMode.OPTIMIZED]
    return [IslMode(value)]


# -- subcommands -------------------------------------------------------------------

def cmd_divide(args: argparse.Namespace) -> tuple[Path, ConstellationConfig]:
    config = _build_config(args)
    active = active_row_set(config, IslMode(args.mode))
    header = ["v", "h", "region", "lat_low_deg", "lat_high_deg",
              "lon_low_deg", "lon_high_deg", "pole_wrap"]
    rows = []
    n2 = config.sats_per_plane
    for v in range(1, n2 + 1):
        # R: H-ISLs on, P: off; 1/2: the first or second half of the rows
        region = ("R" if v in active else "P") + ("1" if 2 * (v - 1) < n2 else "2")
        for h in range(1, config.num_planes + 1):
            cell = cell_bounds(config, v, h)
            rows.append([v, h, region, repr(cell.lat_low), repr(cell.lat_high),
                         repr(cell.lon_low), repr(cell.lon_high), cell.pole_wrap])
    out = _out_path(args, "division.csv")
    _write_rows(out, args.format, header, rows)
    print(f"wrote {len(rows)} cells to {out}")
    return out, config


def cmd_snapshot(args: argparse.Namespace) -> tuple[Path, ConstellationConfig]:
    config = _build_config(args)
    if not math.isfinite(args.t_seconds):
        raise ConfigError(f"t_seconds must be finite, got {args.t_seconds}")
    snapshot = snapshot_edges(config, IslMode(args.mode), args.t_seconds)
    header = ["a_plane", "a_slot", "b_plane", "b_slot", "kind", "direction", "active"]
    n2 = config.sats_per_plane
    plane, slot = divmod(snapshot.pairs, n2)
    # V links have no direction; an H link is backward iff it steps one slot down
    rows = [[ap + 1, aslot + 1, bp + 1, bslot + 1, KIND_LETTERS[k],
             "NONE" if k == IslKind.V_ISL else "BH" if (aslot - bslot) % n2 == 1 else "FH",
             act]
            for (ap, bp), (aslot, bslot), k, act in zip(
                plane.tolist(), slot.tolist(), snapshot.kind.tolist(),
                snapshot.active.tolist())]
    out = _out_path(args, "snapshot.csv" if args.format == "csv" else "snapshot.json")
    _write_rows(out, args.format, header, rows)
    print(f"wrote {len(rows)} edges to {out}")
    return out, config


def cmd_staticness(args: argparse.Namespace) -> tuple[Path, ConstellationConfig]:
    """Write the report JSON and its events CSV.  CSV lines join text made once
    per distinct edge, sample time and (change, cause) pair; no field holds a
    comma, quote or newline, so they are the bytes csv.writer would write."""
    config = _build_config(args)
    report = staticness_report(config, VnMethod(args.method), IslMode(args.mode),
                               args.duration_s, args.samples)
    out = _out_path(args, "staticness.json")
    payload = {
        "method": report.method.value,
        "mode": report.mode.value,
        "duration_s": report.duration_s,
        "samples": report.samples,
        "event_count": report.event_count,
        "events_by_cause": report.events_by_cause,
        "seam_column_history": report.seam_column_history,
        "mapping_conflicts": report.mapping_conflicts,
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    sample, keys, change, cause = report.events.T
    edges, edge_of = np.unique(keys, return_inverse=True)
    edge_text = [f"{av},{ah},{bv},{bh},{KIND_LETTERS[k]}" for av, ah, bv, bh, k in zip(
        *(col.tolist() for col in edge_addresses(edges, config.num_planes, config.total_sats)))]
    times = [repr(t) for t in report.times]
    tails = [[f"{ch.name},{ca.name}" for ca in EventCause] for ch in EventChange]
    with open(out.with_suffix(".events.csv"), "w", newline="\n") as fh:
        fh.write("t,a_v,a_h,b_v,b_h,kind,change,cause\n")
        fh.writelines(f"{times[s]},{edge_text[e]},{tails[c][x]}\n" for s, e, c, x in zip(
            sample.tolist(), edge_of.tolist(), change.tolist(), cause.tolist()))
    print(f"{report.event_count} events ({report.events_by_cause}) -> {out}")
    return out, config


def _sweep_command(args: argparse.Namespace, include_throughput: bool, include_latency: bool,
                   default_name: str) -> tuple[Path, ConstellationConfig]:
    """One sweep over F = f_min..f_max; its template is the configuration
    at F = 0."""
    config = _build_config(args, phasing_factor=0)
    if args.f_max < args.f_min:
        raise ConfigError(f"f_max must be >= f_min, got f_min={args.f_min}, "
                          f"f_max={args.f_max}")
    f_values = range(args.f_min, args.f_max + 1)
    rows = sweep(config, f_values, _parse_mode(args.mode),
                 include_throughput=include_throughput,
                 include_latency=include_latency,
                 pairs=getattr(args, "pairs", 10_000),
                 seed=getattr(args, "seed", None),
                 snapshots=getattr(args, "snapshots", 16))
    header = ["F", "polar_threshold_deg", "mode", "n_hisl",
              "throughput_gbps", "avg_latency_ms", "error"]
    table = [[r.phasing_factor, repr(r.polar_threshold_deg), r.mode, r.n_hisl,
              "" if r.throughput_gbps is None else repr(r.throughput_gbps),
              "" if r.avg_latency_ms is None else repr(r.avg_latency_ms),
              r.error] for r in rows]
    out = _out_path(args, default_name)
    _write_rows(out, args.format, header, table)
    print(f"wrote {len(table)} sweep rows to {out}")
    return out, config


def cmd_sweep_hisl(args: argparse.Namespace) -> tuple[Path, ConstellationConfig]:
    return _sweep_command(args, False, False, "hisl_sweep.csv")


def cmd_throughput(args: argparse.Namespace) -> tuple[Path, ConstellationConfig]:
    return _sweep_command(args, True, False, "throughput.csv")


def cmd_latency(args: argparse.Namespace) -> tuple[Path, ConstellationConfig]:
    return _sweep_command(args, False, True, "latency.csv")


def cmd_theorem1_check(args: argparse.Namespace) -> int:
    config = _build_config(args)
    analytic, brute = verify_mod.theorem1_layouts(config)
    print(json.dumps({
        "n1": config.num_planes, "n2": config.sats_per_plane, "F": config.phasing_factor,
        "analytic_min_spread_deg": str(analytic[0]),
        "bruteforce_min_spread_deg": str(brute[0]),
        "analytic_bh_planes": sorted(analytic[1]),
        "bruteforce_bh_planes": sorted(brute[1]),
        "agreement": analytic == brute,
    }, indent=2))
    return 0 if analytic == brute else 1


def cmd_verify(args: argparse.Namespace) -> int:
    failed = False
    for check in verify_mod.SUITES[args.suite]:
        start = time.perf_counter()
        res = check()
        print(json.dumps({
            "check": res.name,
            "grid": res.grid,
            "passed": res.passed,
            "detail": res.detail,
            "failures": res.failures[:20],
            "elapsed_s": round(time.perf_counter() - start, 3),
        }), flush=True)
        failed = failed or not res.passed
    return 1 if failed else 0


# -- parser ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leovn",
        description="Virtual-node division and ISL topology analysis for "
                    "polar LEO constellations")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def data_command(name, summary, func, f_max=None, formats=True):
        """A subcommand that writes a data file.  Given ``f_max``, it sweeps
        F over --f-min..--f-max: it takes no --f and can run both modes."""
        sweep = f_max is not None
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="key/value config file")
        for _, flag, field, cast, text in CONFIG_FIELDS:
            if not (sweep and field == "phasing_factor"):
                p.add_argument(flag, dest=field, type=cast, help=text)
        modes = ["conventional", "optimized"] + (["both"] if sweep else [])
        p.add_argument("--mode", default=modes[-1] if sweep else modes[0], choices=modes)
        p.add_argument("--out", default=None, help="output file path")
        if formats:
            p.add_argument("--format", default="csv", choices=["csv", "json"])
        if sweep:
            p.add_argument("--f-min", type=int, default=0)
            p.add_argument("--f-max", type=int, default=f_max)
        p.set_defaults(func=func)
        return p

    data_command("divide", "emit the virtual-node cell table", cmd_divide)

    p = data_command("snapshot", "emit the physical edge set at one time", cmd_snapshot)
    p.add_argument("--t-seconds", type=float, default=0.0)

    # always the report JSON plus its events CSV, so no --format
    p = data_command("staticness", "topology-event report for one method", cmd_staticness,
                     formats=False)
    p.add_argument("--method", required=True, choices=["grd1", "grd2", "csd"])
    p.add_argument("--duration-s", type=float, required=True)
    p.add_argument("--samples", type=int, default=720)

    data_command("sweep-hisl", "H-ISL counts over F", cmd_sweep_hisl, f_max=17)

    p = data_command("throughput", "min-cost max-flow throughput over F", cmd_throughput,
                     f_max=14)
    p.add_argument("--snapshots", type=int, default=16)

    p = data_command("latency", "mean shortest-path latency over F", cmd_latency, f_max=14)
    p.add_argument("--snapshots", type=int, default=16)
    p.add_argument("--pairs", type=int, default=10_000)
    p.add_argument("--seed", type=int, required=True,
                   help="RNG seed (mandatory; no implicit seeding)")

    p = sub.add_parser("theorem1-check",
                       help="compare the optimized layout with brute force")
    for _, flag, field, cast, text in CONFIG_FIELDS[:3]:    # n1, n2 and F
        p.add_argument(flag, dest=field, type=cast, required=True, help=text)
    p.set_defaults(func=cmd_theorem1_check)

    p = sub.add_parser("verify", help="run analytic-vs-oracle check suites")
    p.add_argument("--suite", default="all",
                   choices=sorted(verify_mod.SUITES))
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  A subcommand that writes a data file returns it
    with its configuration, and its manifest sidecar is written here."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    started = _now()
    try:
        written = args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if isinstance(written, int):        # theorem1-check and verify print an exit code
        return written
    _write_manifest(*written, args, argv, started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
