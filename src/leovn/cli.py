"""Command-line experiment driver.

Subcommands: divide, snapshot, staticness, sweep-hisl, throughput, latency,
theorem1-check, verify.  Every data output gets a manifest sidecar recording
the resolved configuration digest, seed, parsed argv and version; identical inputs
produce byte-identical data files (timestamps live only in the manifest).
Exit codes: 0 success, 1 verification mismatch, 2 usage or config error, or
``verify`` without scipy.
"""
from __future__ import annotations

import argparse
import contextlib
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

from . import __version__
from .analysis import mean_latency, mean_throughput, require_count, seeded_pairs, sweep
from .constellation import CONFIG_FIELDS, ConfigError, ConstellationConfig, read_config_file
from .division import cell_starts, exact_angles
from .isl import IslKind, IslMode, active_row_set, snapshot_edges
from .virtualgraph import EventCause, EventChange, VnMethod, edge_addresses, staticness_report

OUTPUT_DIR_ENV = "LEOVN_OUTPUT_DIR"
# ``verify.SUITES`` keys (a test pins them), so that the parser does not
# import the oracles
SUITE_NAMES = ("all", "counts", "division", "flow", "staticness", "theorem1")
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
    _manifest_path(out_path).write_text(json.dumps(manifest, indent=2) + "\n")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _manifest_path(out: Path) -> Path:
    return out.with_name(out.name + ".manifest.json")


def _events_paths(out: Path) -> tuple[Path, Path]:
    """``staticness``'s events CSV and the temporary file it is written to."""
    events = out.with_suffix(".events.csv")
    return events, events.with_name(events.name + ".tmp")


def _out_path(args: argparse.Namespace, stem: str) -> Path:
    """``--out``, else ``stem`` with the ``--format`` suffix in
    $LEOVN_OUTPUT_DIR or the working directory (``staticness``, which takes
    no ``--format``, writes JSON).  Called before a command computes
    anything: the path or a sibling output (the manifest, ``staticness``'s
    events CSV and its temporary file) that is a directory, or a directory
    that cannot be created, is a ConfigError.  The directories it creates
    are noted on ``args``, for ``main`` to remove if the command is rejected."""
    default_name = f"{stem}.{getattr(args, 'format', 'json')}"
    path = Path(args.out) if args.out else Path(os.environ.get(OUTPUT_DIR_ENV, ".")) / default_name
    events = _events_paths(path) if args.subcommand == "staticness" else ()
    for written in (path, _manifest_path(path), *events):
        if written.is_dir():
            raise ConfigError(f"output path {written} is a directory")
    args.made_dirs = [parent for parent in path.parents if not parent.exists()]
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the directory of output path {path}: {exc}") from exc
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
        # strict JSON: a non-finite float (a latency over no reachable pair)
        # is null, where the CSV writes its repr
        records = [{key: None if isinstance(value, float) and not math.isfinite(value)
                    else value for key, value in zip(header, row)} for row in rows]
        path.write_text(json.dumps(records, indent=2, allow_nan=False) + "\n")


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

def _fold_lat(x, den: int):
    """Latitude of the unfolded along-track angle x/den deg, x an int or an
    object array of ints: 90 - |180 - (x + 90) mod 360| (0 -> 0, 100 -> 80,
    250 -> -70) in exact ints, rounded once by int true division."""
    return (90 * den - abs(180 * den - (x + 90 * den) % (360 * den))) / den


def _division_rows(config: ConstellationConfig, mode: IslMode) -> list[list]:
    """``divide``'s rows, one per cell (v, h), row-major.  Column h spans
    raan0 + (h-1, h) * 180/n1 deg of longitude, normalized to [-180, 180);
    the latitudes are the folds of the band's start and end, so descending
    bands have lat_low > lat_high; the band [start, start + step) wraps a
    pole when it holds +90 or 270 deg of unfolded phase."""
    n1, n2 = config.num_planes, config.sats_per_plane
    active = active_row_set(config, mode)
    starts, step, den = cell_starts(config)
    lat_low, lat_high = (_fold_lat(x, den).tolist() for x in (starts, starts + step))
    turn = 360 * den
    pole_wrap = (((90 * den - starts) % turn < step)
                 | ((270 * den - starts) % turn < step)).tolist()
    a = exact_angles(config)
    lon = [((a.raan0 + h * a.raan_step + 180 * den) % turn - 180 * den) / den
           for h in range(n1 + 1)]
    rows = []
    for v in range(1, n2 + 1):
        # R: H-ISLs on, P: off; 1/2: the first or second half of the rows
        region = ("R" if v in active else "P") + ("1" if 2 * (v - 1) < n2 else "2")
        rows += [[v, h + 1, region, lat_low[v - 1][h], lat_high[v - 1][h], lon[h], lon[h + 1],
                  pole_wrap[v - 1][h]] for h in range(n1)]
    return rows


def cmd_divide(args: argparse.Namespace) -> tuple[Path, ConstellationConfig]:
    config = _build_config(args)
    out = _out_path(args, "division")
    rows = _division_rows(config, IslMode(args.mode))
    header = ["v", "h", "region", "lat_low_deg", "lat_high_deg",
              "lon_low_deg", "lon_high_deg", "pole_wrap"]
    _write_rows(out, args.format, header, rows)
    print(f"wrote {len(rows)} cells to {out}")
    return out, config


def cmd_snapshot(args: argparse.Namespace) -> tuple[Path, ConstellationConfig]:
    config = _build_config(args)
    if not math.isfinite(args.t_seconds):
        raise ConfigError(f"t_seconds must be finite, got {args.t_seconds}")
    out = _out_path(args, "snapshot")
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
    _write_rows(out, args.format, header, rows)
    print(f"wrote {len(rows)} edges to {out}")
    return out, config


def _events_csv_writer(fh, config: ConstellationConfig):
    """A ``staticness_report`` consumer that writes each sample's events to
    ``fh`` as CSV lines.  The text of an edge is made once, when its key is
    first seen; no field holds a comma, quote or newline, so the lines are
    the bytes csv.writer would write."""
    edge_text: dict[int, str] = {}
    causes_per_change = len(EventCause)
    tails = [f",{ch.name},{ca.name}\n" for ch in EventChange for ca in EventCause]

    def write(t, keys, changes, causes):
        keys = keys.tolist()
        new = [k for k in keys if k not in edge_text]
        if new:
            addresses = edge_addresses(np.array(new, dtype=np.int64), config.num_planes,
                                       config.total_sats)
            edge_text.update(zip(new, (f",{av},{ah},{bv},{bh},{KIND_LETTERS[k]}"
                                       for av, ah, bv, bh, k in zip(
                                           *(col.tolist() for col in addresses)))))
        t = repr(t)
        fh.write("".join([f"{t}{edge_text[k]}{tails[x]}" for k, x in zip(
            keys, (changes * causes_per_change + causes).tolist())]))
    return write


def cmd_staticness(args: argparse.Namespace) -> tuple[Path, ConstellationConfig]:
    """Write the events CSV as the report produces it, then the report JSON.
    The CSV goes to a temporary sibling that replaces the events CSV only
    once the report is complete, so a failed run writes neither file."""
    config = _build_config(args)
    out = _out_path(args, "staticness")
    events_path, partial = _events_paths(out)
    try:
        with open(partial, "w", newline="\n") as fh:
            fh.write("t,a_v,a_h,b_v,b_h,kind,change,cause\n")
            report = staticness_report(config, VnMethod(args.method), IslMode(args.mode),
                                       args.duration_s, args.samples,
                                       _events_csv_writer(fh, config))
        os.replace(partial, events_path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    payload = {**dataclasses.asdict(report),
               "method": report.method.value, "mode": report.mode.value}
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"{report.event_count} events ({report.events_by_cause}) -> {out}")
    return out, config


SWEEP_HEADER = ["F", "polar_threshold_deg", "mode", "n_hisl",
                "throughput_gbps", "avg_latency_ms", "error"]


def _sweep_template(args: argparse.Namespace) -> ConstellationConfig:
    """The configuration at F = 0 of a sweep over F = f_min..f_max."""
    config = _build_config(args, phasing_factor=0)
    if args.f_max < args.f_min:
        raise ConfigError(f"f_max must be >= f_min, got f_min={args.f_min}, "
                          f"f_max={args.f_max}")
    return config


def _write_sweep(args: argparse.Namespace, config: ConstellationConfig, stem: str,
                 column: str | None = None, metric=None) -> tuple[Path, ConstellationConfig]:
    """Sweep ``config`` over F with ``metric``, whose values fill ``column``;
    the other metric column stays empty."""
    out = _out_path(args, stem)
    rows = sweep(config, range(args.f_min, args.f_max + 1), _parse_mode(args.mode), metric)
    table = [[r.phasing_factor, r.polar_threshold_deg, r.mode, r.n_hisl,
              *(r.value if name == column else None for name in SWEEP_HEADER[4:6]),
              r.error] for r in rows]
    _write_rows(out, args.format, SWEEP_HEADER, table)
    print(f"wrote {len(table)} sweep rows to {out}")
    return out, config


def cmd_sweep_hisl(args: argparse.Namespace) -> tuple[Path, ConstellationConfig]:
    return _write_sweep(args, _sweep_template(args), "hisl_sweep")


def cmd_throughput(args: argparse.Namespace) -> tuple[Path, ConstellationConfig]:
    config = _sweep_template(args)
    require_count("snapshots", args.snapshots)      # before any grid point runs
    return _write_sweep(args, config, "throughput", "throughput_gbps",
                        lambda cfg, mode: mean_throughput(cfg, mode, args.snapshots))


def cmd_latency(args: argparse.Namespace) -> tuple[Path, ConstellationConfig]:
    config = _sweep_template(args)
    require_count("snapshots", args.snapshots)
    # every grid point has the template's satellites: draw the pairs once
    drawn = seeded_pairs(config, args.pairs, args.seed)
    return _write_sweep(args, config, "latency", "avg_latency_ms",
                        lambda cfg, mode: mean_latency(cfg, mode, drawn, args.snapshots))


def cmd_theorem1_check(args: argparse.Namespace) -> int:
    from .verify import theorem1_layouts

    config = _build_config(args)
    analytic, brute = theorem1_layouts(config)
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
    try:
        import scipy.sparse.csgraph  # noqa: F401  the oracles' one dependency beyond numpy
    except ImportError:
        print("leovn verify needs scipy for its oracles: pip install scipy", file=sys.stderr)
        return 2
    from .verify import SUITES

    failed = False
    for check in SUITES[args.suite]:
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
    # no option abbreviations: a removed option must not parse as a longer one
    parser = argparse.ArgumentParser(
        prog="leovn", allow_abbrev=False,
        description="Virtual-node division and ISL topology analysis for "
                    "polar LEO constellations")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def data_command(name, summary, func, f_max=None, formats=True):
        """A subcommand that writes a data file.  Given ``f_max``, it sweeps
        F over --f-min..--f-max: it takes no --f and can run both modes."""
        sweep = f_max is not None
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
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

    p = data_command("throughput", "max-flow throughput over F", cmd_throughput,
                     f_max=14)
    p.add_argument("--snapshots", type=int, default=16)

    p = data_command("latency", "mean shortest-path latency over F", cmd_latency, f_max=14)
    p.add_argument("--snapshots", type=int, default=16)
    p.add_argument("--pairs", type=int, default=10_000)
    p.add_argument("--seed", type=int, required=True,
                   help="RNG seed (mandatory; no implicit seeding)")

    p = sub.add_parser("theorem1-check", allow_abbrev=False,
                       help="compare the optimized layout with brute force")
    for _, flag, field, cast, text in CONFIG_FIELDS[:3]:    # n1, n2 and F
        p.add_argument(flag, dest=field, type=cast, required=True, help=text)
    p.set_defaults(func=cmd_theorem1_check)

    p = sub.add_parser("verify", allow_abbrev=False,
                       help="run analytic-vs-oracle check suites")
    p.add_argument("--suite", default="all", choices=SUITE_NAMES)
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
        for made in getattr(args, "made_dirs", ()):     # a rejected command leaves none
            with contextlib.suppress(OSError):
                made.rmdir()
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if isinstance(written, int):        # theorem1-check and verify print an exit code
        return written
    _write_manifest(*written, args, argv, started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
