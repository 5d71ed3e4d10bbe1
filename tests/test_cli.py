import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import leovn.isl
import leovn.verify
import leovn.virtualgraph
from leovn.cli import (KIND_LETTERS, OUTPUT_DIR_ENV, SUITE_NAMES, _build_config,
                       build_parser, main)
from leovn.constellation import ConstellationConfig
from leovn.isl import IslMode, bh_planes
from leovn.virtualgraph import EventCause, EventChange, VnMethod, edge_addresses

from helpers import cell_bounds, report_blocks


def read_division_csv(path):
    """Re-ingest a divide CSV; returns rows of parsed python values."""
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.append({
                "v": int(row["v"]), "h": int(row["h"]), "region": row["region"],
                "lat_low_deg": float(row["lat_low_deg"]),
                "lat_high_deg": float(row["lat_high_deg"]),
                "lon_low_deg": float(row["lon_low_deg"]),
                "lon_high_deg": float(row["lon_high_deg"]),
                "pole_wrap": row["pole_wrap"] == "True",
            })
    return out


class TestDivide:
    def test_emits_all_cells(self, tmp_path):
        out = tmp_path / "division.csv"
        assert main(["divide", "--n1", "18", "--n2", "36", "--polar-deg", "70",
                     "--out", str(out)]) == 0
        rows = read_division_csv(out)
        assert len(rows) == 648
        first = rows[0]
        assert (first["v"], first["h"], first["region"]) == (1, 1, "R1")
        assert (first["lat_low_deg"], first["lat_high_deg"]) == (-70.0, -60.0)

    def test_round_trip_reproduces_bounds(self, tmp_path):
        out = tmp_path / "division.csv"
        main(["divide", "--n1", "7", "--n2", "11", "--polar-deg", "66.5",
              "--out", str(out)])
        cfg = ConstellationConfig(num_planes=7, sats_per_plane=11,
                                  altitude_km=780.0, polar_threshold_deg=66.5)
        keys = ("lat_low_deg", "lat_high_deg", "lon_low_deg", "lon_high_deg", "pole_wrap")
        for row in read_division_csv(out):
            assert [row[key] for key in keys] == cell_bounds(cfg, row["v"], row["h"])

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["divide", "--n1", "18", "--n2", "36", "--polar-deg", "70", "--out"]
        main(args + [str(out_a)])
        main(args + [str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_manifest_sidecar_written(self, tmp_path):
        out = tmp_path / "division.csv"
        main(["divide", "--n1", "6", "--n2", "12", "--out", str(out)])
        manifest = json.loads((tmp_path / "division.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "divide"
        assert len(manifest["config_digest"]) == 64
        assert manifest["version"]

    def test_manifest_records_the_parsed_argv(self, tmp_path):
        # the argv main() was given, not the interpreter's (pytest's) sys.argv
        argv = ["divide", "--n1", "6", "--n2", "12", "--out", str(tmp_path / "division.csv")]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "division.csv.manifest.json").read_text())
        assert manifest["argv"] == argv
        assert list(manifest) == ["config_digest", "seed", "subcommand", "argv", "version",
                                  "started", "finished"]
        assert manifest["started"] <= manifest["finished"]

    def test_out_into_missing_directory(self, tmp_path):
        out = tmp_path / "new" / "dir" / "division.csv"
        assert main(["divide", "--n1", "6", "--n2", "12", "--out", str(out)]) == 0
        assert len(read_division_csv(out)) == 72
        assert out.with_name("division.csv.manifest.json").is_file()

    def test_config_file_input(self, tmp_path):
        cfg_file = tmp_path / "walker.cfg"
        cfg_file.write_text("n1 = 6\nn2 = 12\nF = 2\npolar_threshold_deg = 70\n")
        out = tmp_path / "division.csv"
        assert main(["divide", "--config", str(cfg_file), "--out", str(out)]) == 0
        assert len(read_division_csv(out)) == 72


class TestSnapshot:
    def test_edge_listing(self, tmp_path):
        out = tmp_path / "snap.csv"
        assert main(["snapshot", "--n1", "6", "--n2", "12", "--f", "2",
                     "--mode", "optimized", "--t-seconds", "50",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "a_plane,a_slot,b_plane,b_slot,kind,direction,active"
        assert len(lines) == 1 + 72 + 60  # header + V + H

    @pytest.mark.parametrize("n1,n2,f,mode", [(18, 36, 2, "optimized"), (6, 12, 4, "optimized"),
                                              (7, 11, 3, "optimized"), (6, 12, 4, "conventional")])
    def test_direction_column(self, tmp_path, n1, n2, f, mode):
        # V links have no direction; H links are BH exactly at the backward
        # boundaries of the layout and FH elsewhere
        out = tmp_path / "snap.csv"
        assert main(["snapshot", "--n1", str(n1), "--n2", str(n2), "--f", str(f),
                     "--mode", mode, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        cfg = ConstellationConfig(num_planes=n1, sats_per_plane=n2, phasing_factor=f)
        bh = bh_planes(cfg) if mode == "optimized" else frozenset()
        assert {r["direction"] for r in rows if r["kind"] == "V"} == {"NONE"}
        h_rows = [r for r in rows if r["kind"] == "H"]
        assert len(h_rows) == (n1 - 1) * n2
        for r in h_rows:
            assert r["direction"] == ("BH" if int(r["a_plane"]) in bh else "FH"), r

    def test_json_format(self, tmp_path):
        out = tmp_path / "snap.json"
        main(["snapshot", "--n1", "6", "--n2", "12", "--format", "json",
              "--out", str(out)])
        records = json.loads(out.read_text())
        assert len(records) == 132
        assert {"a_plane", "kind", "active"} <= set(records[0])


def csv_writer_events(blocks, config) -> bytes:
    """The events CSV as csv.writer writes it, one row per event of the
    report's blocks, from the event's own edge addresses (the earlier
    implementation)."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "a_v", "a_h", "b_v", "b_h", "kind", "change", "cause"])
    for t, keys, change, cause in blocks:
        a_v, a_h, b_v, b_h, kind = edge_addresses(keys, config.num_planes, config.total_sats)
        for av, ah, bv, bh, k, c, x in zip(a_v.tolist(), a_h.tolist(), b_v.tolist(),
                                           b_h.tolist(), kind.tolist(), change.tolist(),
                                           cause.tolist()):
            writer.writerow([repr(t), av, ah, bv, bh, KIND_LETTERS[k],
                             EventChange(c).name, EventCause(x).name])
    return buf.getvalue().encode()


def traced_staticness(tmp_path, method, duration_s):
    """Traced allocation peak (bytes) of a 6x12 F=1 ``staticness`` call,
    and its event count."""
    out = tmp_path / f"{method}-{duration_s}.json"
    argv = ["staticness", "--n1", "6", "--n2", "12", "--f", "1", "--method", method,
            "--mode", "conventional", "--duration-s", str(duration_s), "--samples",
            "40" if method == "grd2" else "120", "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, json.loads(out.read_text())["event_count"]


class TestStaticnessCommand:
    @pytest.mark.parametrize("n1,n2,f,method,mode,duration", [
        (6, 12, 1, "grd2", "conventional", 20000.0),
        (18, 36, 2, "csd", "optimized", 1000.0),
    ])
    def test_events_csv_bytes_match_csv_writer(self, tmp_path, n1, n2, f, method,
                                               mode, duration):
        out = tmp_path / "report.json"
        assert main(["staticness", "--n1", str(n1), "--n2", str(n2), "--f", str(f),
                     "--method", method, "--mode", mode, "--duration-s", str(duration),
                     "--samples", "40", "--out", str(out)]) == 0
        cfg = ConstellationConfig(num_planes=n1, sats_per_plane=n2, phasing_factor=f)
        report, blocks = report_blocks(cfg, VnMethod(method), IslMode(mode), duration, 40)
        got = (tmp_path / "report.events.csv").read_bytes()
        assert got == csv_writer_events(blocks, cfg)
        if method == "csd":
            assert got == b"t,a_v,a_h,b_v,b_h,kind,change,cause\n"
        else:   # mapping conflicts and both kinds of sample-time object
            assert report.mapping_conflicts > 0 and report.event_count > 0
            lines = got.splitlines()[1:]
            assert {line.startswith(b"np.float64(") for line in lines} == {True, False}

    @pytest.mark.parametrize("method", ["grd2", "grd1"])
    def test_memory_is_flat_in_the_window(self, tmp_path, method):
        # events stream to the CSV per sample: a 4x longer window with ~2x
        # the events holds no more than a few extra samples' worth of memory
        # (GRD1 takes the coverage-loss path)
        traced_staticness(tmp_path, method, 5000)     # fill the caches
        short, short_events = traced_staticness(tmp_path, method, 20000)
        long, long_events = traced_staticness(tmp_path, method, 80000)
        assert long_events > 1.5 * short_events
        assert long < 1.25 * short

    def test_failure_mid_window_writes_nothing(self, tmp_path, monkeypatch):
        real = leovn.virtualgraph.method_instance
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == 20:
                assert list(tmp_path.iterdir())    # the events are being written
                raise RuntimeError("instance failed")
            return real(*args)

        monkeypatch.setattr(leovn.virtualgraph, "method_instance", failing)
        with pytest.raises(RuntimeError, match="instance failed"):
            main(["staticness", "--n1", "6", "--n2", "12", "--f", "1", "--method", "grd2",
                  "--mode", "conventional", "--duration-s", "20000", "--samples", "40",
                  "--out", str(tmp_path / "static.json")])
        assert list(tmp_path.iterdir()) == []

    def test_csd_report(self, tmp_path):
        out = tmp_path / "static.json"
        assert main(["staticness", "--n1", "18", "--n2", "36", "--f", "2",
                     "--method", "csd", "--mode", "optimized",
                     "--duration-s", "1000", "--samples", "40",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["event_count"] == 0
        assert (tmp_path / "static.events.csv").exists()

    def test_grd2_event_rows(self, tmp_path):
        out = tmp_path / "grd2.json"
        assert main(["staticness", "--n1", "6", "--n2", "12", "--f", "1",
                     "--method", "grd2", "--mode", "conventional",
                     "--duration-s", "20000", "--samples", "40",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        with open(tmp_path / "grd2.events.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == report["event_count"] > 0
        assert Counter(r["cause"] for r in rows) == report["events_by_cause"]
        for row in rows:
            a = int(row["a_v"]), int(row["a_h"])
            b = int(row["b_v"]), int(row["b_h"])
            assert (1, 1) <= a < b <= (12, 6) and row["kind"] in ("V", "H")
        # per sample: ADDED rows first, then REMOVED rows
        for t in {row["t"] for row in rows}:
            changes = [row["change"] for row in rows if row["t"] == t]
            assert changes == sorted(changes)

    @pytest.mark.parametrize("window,fragment", [
        (["--duration-s", "1000", "--samples", "1"], "samples"),
        (["--duration-s", "nan", "--samples", "10"], "duration_s"),
        (["--duration-s", "-5", "--samples", "10"], "duration_s"),
        (["--duration-s", "1e-10", "--samples", "5"], "duration_s 1e-10 leaves 1 sample"),
    ])
    def test_invalid_window_exits_2(self, tmp_path, capsys, window, fragment):
        out = tmp_path / "new" / "static.json"
        assert main(["staticness", "--n1", "6", "--n2", "12", "--method", "grd2",
                     *window, "--out", str(out)]) == 2
        assert fragment in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSweepCommands:
    def test_sweep_hisl_columns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-hisl", "--n1", "18", "--n2", "36", "--polar-deg", "70",
                     "--f-min", "0", "--f-max", "3", "--mode", "both",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "F,polar_threshold_deg,mode,n_hisl,throughput_gbps,avg_latency_ms,error"
        assert len(lines) == 1 + 4 * 2

    def test_sweep_hisl_off_polar_orbit(self, tmp_path):
        # a 53-deg orbit never reaches a 55-deg threshold: no row shuts off
        out = tmp_path / "sweep.csv"
        assert main(["sweep-hisl", "--n1", "18", "--n2", "36", "--inclination-deg", "53",
                     "--polar-deg", "55", "--f-min", "0", "--f-max", "2", "--mode", "both",
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6 and {r["n_hisl"] for r in rows} == {"612"}

    def test_optimized_layout_above_n1_is_an_error_row_everywhere(self, tmp_path):
        # the optimized layout is undefined for F > n1: every sweep subcommand
        # records the same error row instead of an H-ISL count
        for sub in ("sweep-hisl", "throughput", "latency"):
            out = tmp_path / f"{sub}.csv"
            seed = ["--seed", "1"] if sub == "latency" else []
            assert main([sub, "--n1", "3", "--n2", "12", "--f-min", "5", "--f-max", "5",
                         "--mode", "optimized", *seed, "--out", str(out)]) == 0
            with open(out, newline="") as fh:
                rows = [(r["n_hisl"], r["error"]) for r in csv.DictReader(fh)]
            assert rows == [("-1", "optimized layout requires F <= n1")], sub

    def test_latency_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["latency", "--n1", "6", "--n2", "12"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,fragment", [
        (["latency", "--seed", "1", "--pairs", "0"], "pairs"),
        (["latency", "--seed", "1", "--snapshots", "0"], "snapshots"),
        (["throughput", "--snapshots", "0"], "snapshots"),
    ])
    @pytest.mark.parametrize("grid", [
        ["--n1", "6", "--n2", "12", "--f-max", "1"],
        # every grid point an error row (F > n1): the count is still checked
        ["--n1", "3", "--n2", "12", "--f-min", "5", "--f-max", "6", "--mode", "optimized"],
    ])
    def test_empty_sample_counts_exit_2(self, tmp_path, capsys, argv, grid, fragment):
        out = tmp_path / "sweep.csv"
        assert main(argv + grid + ["--out", str(out)]) == 2
        assert f"{fragment} must be >= 1" in capsys.readouterr().err
        assert not out.exists()


def strict_json(path):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(path.read_text(), parse_constant=reject)


class TestJsonOutputs:
    """``--format json`` writes the table's native values: numbers, booleans,
    and null for a metric the command does not compute or a mean over no
    reachable pair."""

    def test_divide_types(self, tmp_path):
        out = tmp_path / "division.json"
        assert main(["divide", "--n1", "6", "--n2", "12", "--format", "json",
                     "--out", str(out)]) == 0
        records = strict_json(out)
        assert len(records) == 72
        assert {type(r[k]).__name__ for r in records for k in r} == {"int", "str", "float", "bool"}
        assert records[0] == {"v": 1, "h": 1, "region": "R1", "lat_low_deg": -70.0,
                              "lat_high_deg": -40.0, "lon_low_deg": 0.0,
                              "lon_high_deg": 30.0, "pole_wrap": False}
        csv_out = tmp_path / "division.csv"
        assert main(["divide", "--n1", "6", "--n2", "12", "--out", str(csv_out)]) == 0
        assert read_division_csv(csv_out) == records

    def test_throughput_types(self, tmp_path):
        argv = ["throughput", "--n1", "6", "--n2", "12", "--f-max", "3", "--snapshots", "2"]
        out, csv_out = tmp_path / "throughput.json", tmp_path / "throughput.csv"
        assert main([*argv, "--format", "json", "--out", str(out)]) == 0
        assert main([*argv, "--out", str(csv_out)]) == 0
        records = strict_json(out)
        with open(csv_out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(records) == len(rows) == 8
        for record, row in zip(records, rows):
            assert list(record) == list(row)
            assert type(record["F"]) is int and type(record["n_hisl"]) is int
            assert record["polar_threshold_deg"] == 70.0
            assert type(record["throughput_gbps"]) is float
            assert record["throughput_gbps"] == float(row["throughput_gbps"])
            assert record["avg_latency_ms"] is None and row["avg_latency_ms"] == ""
            assert record["error"] == ""

    def test_latency_types(self, tmp_path):
        # conventional F=14 has no H-ISL, so the one cross-plane pair of
        # seed 0 (plane 16 to plane 12) is never reachable: the CSV writes
        # inf, and strict JSON null
        argv = ["latency", *PAPER, "--f-min", "13", "--f-max", "14", "--mode", "conventional",
                "--snapshots", "1", "--pairs", "1", "--seed", "0"]
        out, csv_out = tmp_path / "latency.json", tmp_path / "latency.csv"
        assert main([*argv, "--format", "json", "--out", str(out)]) == 0
        assert main([*argv, "--out", str(csv_out)]) == 0
        f13, f14 = strict_json(out)
        assert type(f13["avg_latency_ms"]) is float and f13["throughput_gbps"] is None
        assert (f14["n_hisl"], f14["avg_latency_ms"], f14["throughput_gbps"]) == (0, None, None)
        with open(csv_out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["avg_latency_ms"]) == f13["avg_latency_ms"]
        assert rows[1]["avg_latency_ms"] == "inf"


class TestConfigAssembly:
    def write_file(self, tmp_path, text="n1 = 6\nn2 = 12\nF = 1\n"):
        path = tmp_path / "walker.cfg"
        path.write_text(text)
        return str(path)

    def test_file_and_flags_resolve_like_flags_alone(self, tmp_path):
        # the file's defaults resolve after the flags: phase0 follows --polar-deg
        argv = ["snapshot", "--polar-deg", "64", "--t-seconds", "1234"]
        from_file = _build_config(build_parser().parse_args(
            argv + ["--config", self.write_file(tmp_path)]))
        from_flags = _build_config(build_parser().parse_args(
            argv + ["--n1", "6", "--n2", "12", "--f", "1"]))
        assert from_file == from_flags
        assert from_file.phase0_deg == -64.0
        out_file, out_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
        assert main(argv + ["--config", self.write_file(tmp_path), "--out", str(out_file)]) == 0
        assert main(argv + ["--n1", "6", "--n2", "12", "--f", "1", "--out", str(out_flags)]) == 0
        assert out_file.read_bytes() == out_flags.read_bytes()

    def test_flag_completes_the_file(self, tmp_path):
        path = self.write_file(tmp_path, "n2 = 12\nF = 1\n")
        out = tmp_path / "division.csv"
        assert main(["divide", "--config", path, "--n1", "6", "--out", str(out)]) == 0
        assert len(read_division_csv(out)) == 72

    def test_explicit_file_phase0_kept(self, tmp_path):
        path = self.write_file(tmp_path, "n1 = 6\nn2 = 12\nphase0_deg = 7\n")
        cfg = _build_config(build_parser().parse_args(
            ["divide", "--config", path, "--polar-deg", "64"]))
        assert (cfg.polar_threshold_deg, cfg.phase0_deg) == (64.0, 7.0)

    def test_sweep_uses_the_file_polar_threshold(self, tmp_path):
        path = self.write_file(tmp_path, "n1 = 18\nn2 = 36\npolar_threshold_deg = 64\n")
        out_file, out_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
        argv = ["sweep-hisl", "--f-max", "7", "--mode", "optimized"]
        assert main(argv + ["--config", path, "--out", str(out_file)]) == 0
        assert main(argv + ["--n1", "18", "--n2", "36", "--polar-deg", "64",
                            "--out", str(out_flags)]) == 0
        with open(out_file, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["polar_threshold_deg"] for r in rows} == {"64.0"}
        assert out_file.read_bytes() == out_flags.read_bytes()


PAPER = ["--n1", "18", "--n2", "36"]


class TestPinnedOutputs:
    """sha256 of data files at paper scale and off the paper grid: F = 0 with
    n2 = 3 at polar 20, fractional K (7x11, polar 55), and optimized F > n1
    error rows and conventional rows straddling a cap (3x12).  Cell bounds
    are folds of exact rationals and snapshot flags and H-ISL counts come
    from exact integer tests, so the bytes do not depend on the platform.
    Throughput values are means of integer flows, and every sub-point of the
    pinned 7x11 throughput sweep lies at least 0.0649 deg from a box edge.
    No latency CSV is pinned: its float sums follow the platform's trig."""

    @pytest.mark.parametrize("argv,digest", [
        (["divide", *PAPER, "--mode", "conventional"],
         "75b7d0c540bb47c1580fcf82c93ca5e34a3d646463b19aff2d60dbf52a1d703a"),
        (["divide", *PAPER, "--mode", "optimized"],
         "75b7d0c540bb47c1580fcf82c93ca5e34a3d646463b19aff2d60dbf52a1d703a"),
        (["divide", *PAPER, "--f", "2", "--mode", "conventional"],
         "a06c917670d4b2c98eb2265d4f10a639e65b1e61c1d6f3f724934e4fa5c72563"),
        (["divide", *PAPER, "--f", "2", "--mode", "optimized"],
         "5b7422049ead07288e104dff9e3265112c0d29cc727d14a530e4be24e680aff1"),
        (["divide", *PAPER, "--f", "5", "--mode", "conventional"],
         "f0769ec09a881b2953d091051b073b7f3d69716626e5885d98bb42da76f62424"),
        (["divide", *PAPER, "--f", "5", "--mode", "optimized"],
         "97abffab9c1e1c417ed312d5874a0b4e13837c304cd39a02d55f149fe99649d3"),
        (["snapshot", *PAPER, "--f", "2", "--mode", "optimized", "--t-seconds", "1000"],
         "6339b50ed3fce08adea5d87985c7d1b0d37cfc3d3933326db913cf395c107252"),
        (["sweep-hisl", *PAPER, "--f-min", "0", "--f-max", "17", "--mode", "both"],
         "b04069251a3c7e8dbfd1553ea61574b599f0e5a96f7ed646b53717b4bea083ef"),
        (["divide", "--n1", "4", "--n2", "3", "--polar-deg", "20", "--mode", "conventional"],
         "e14aafc1f5492a717806d7939aa92ec5740d6b765b57aca8729e5c7aa75855a5"),
        (["divide", "--n1", "4", "--n2", "3", "--polar-deg", "20", "--mode", "optimized"],
         "e14aafc1f5492a717806d7939aa92ec5740d6b765b57aca8729e5c7aa75855a5"),
        (["sweep-hisl", "--n1", "4", "--n2", "3", "--polar-deg", "20",
          "--f-min", "0", "--f-max", "2", "--mode", "both"],
         "f3c03ac2d3d6c2d95d95d60ea88c401eeb84d97f9f3cd52c8d0466b9ebd03cf0"),
        (["divide", "--n1", "7", "--n2", "11", "--polar-deg", "55", "--f", "3",
          "--mode", "conventional"],
         "f23c5032f1c3dabf20509b7ca3957f98c6aa5e2fdee28968d10b1289769015fa"),
        (["divide", "--n1", "7", "--n2", "11", "--polar-deg", "55", "--f", "3",
          "--mode", "optimized"],
         "24c3bbd98a0f512eab0dee8a618f3b8ec652c1e5fcd25d9f449a778c0867527f"),
        (["sweep-hisl", "--n1", "7", "--n2", "11", "--polar-deg", "55",
          "--f-min", "0", "--f-max", "10", "--mode", "both"],
         "414f61774c9b4a07bb45752e87890f03cfec0ce8c3aad9531d1831783d6c7916"),
        # conventional F=8..11: rows straddling a cap count 4/8/8/4, as snapshots do
        (["sweep-hisl", "--n1", "3", "--n2", "12", "--f-min", "0", "--f-max", "11",
          "--mode", "both"],
         "b07d7e0fa39501d727231d2fad6bfdff16aa9e0e1bbe2e2a4ba660db81f64f1f"),
        (["throughput", "--n1", "7", "--n2", "11", "--polar-deg", "55", "--raan0-deg", "3",
          "--f-max", "10", "--snapshots", "3"],
         "6ccc0fd9f76dd20232be392878e844ff7478c00f611ee1dd76e41a0a0eaf2060"),
    ])
    def test_sha256(self, tmp_path, argv, digest):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestTheoremCheck:
    def test_agreement_exit_zero(self, capsys):
        assert main(["theorem1-check", "--n1", "9", "--n2", "18", "--f", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["agreement"] is True

    @pytest.mark.parametrize("n1,n2,field", [("0", "12", "num_planes"),
                                             ("6", "0", "sats_per_plane"),
                                             ("1", "12", "num_planes")])
    def test_invalid_constellation_exits_2(self, capsys, n1, n2, field):
        assert main(["theorem1-check", "--n1", n1, "--n2", n2, "--f", "0"]) == 2
        captured = capsys.readouterr()
        assert field in captured.err and not captured.out


class TestVerifyCommand:
    def test_theorem1_suite_passes(self, capsys):
        assert main(["verify", "--suite", "theorem1"]) == 0
        line = json.loads(capsys.readouterr().out.splitlines()[0])
        assert line["passed"] is True
        assert line["elapsed_s"] >= 0

    def test_detail_keeps_the_first_failure(self):
        res = leovn.verify.CheckResult("check", "grid", passed=True)
        res.fail("first")
        res.fail("second")
        assert (res.passed, res.detail, res.failures) == (False, "first", ["first", "second"])

    def test_suite_choices_are_the_verify_suites(self):
        assert SUITE_NAMES == tuple(sorted(leovn.verify.SUITES))

    def test_corrupted_count_formula_fails_with_name(self, monkeypatch, capsys):
        real = leovn.isl.hisl_count

        def corrupted(config, mode):
            return real(config, mode) + 1

        monkeypatch.setattr(leovn.isl, "hisl_count", corrupted)
        assert main(["verify", "--suite", "counts"]) == 1
        line = json.loads(capsys.readouterr().out.splitlines()[0])
        assert line["passed"] is False
        assert "hisl_count" in line["detail"]


TINY = ["--n1", "3", "--n2", "6"]
DATA_COMMANDS = {
    "divide": [],
    "snapshot": ["--t-seconds", "10"],
    "staticness": ["--method", "grd2", "--duration-s", "600", "--samples", "3"],
    "sweep-hisl": ["--f-max", "1"],
    "throughput": ["--f-max", "1", "--snapshots", "1"],
    "latency": ["--f-max", "1", "--snapshots", "1", "--pairs", "5", "--seed", "1"],
}


def run_without_scipy(argv: list[str] | None, tmp_path: Path) -> tuple[int, str, str, set]:
    """Run ``leovn.cli.main(argv)`` (or only ``import leovn.cli`` when ``argv``
    is None) in a fresh interpreter in which ``import scipy`` raises
    ImportError, in ``tmp_path``: (exit code, stdout, stderr, which of
    ``leovn.verify`` and ``fractions`` loaded)."""
    env = dict(os.environ)
    env.pop(OUTPUT_DIR_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(leovn.__file__).parents[1]), env.get("PYTHONPATH")]))
    call = "0" if argv is None else f"leovn.cli.main({argv!r})"
    code = ("import sys; sys.modules['scipy'] = None; import leovn.cli; "
            f"code = {call}; print(*sorted({{'leovn.verify', 'fractions'}} & set(sys.modules))); "
            "sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    *out, loaded = proc.stdout.splitlines() or [""]
    return proc.returncode, "".join(f"{line}\n" for line in out), proc.stderr, set(loaded.split())


def data_files(directory: Path) -> dict[str, bytes]:
    """The files in ``directory`` by name, manifests (which hold times) aside."""
    return {p.name: p.read_bytes() for p in directory.iterdir()
            if not p.name.endswith(".manifest.json")}


# the oracles load only for `verify` and `theorem1-check`, and the pipeline
# needs no scipy: each command runs without it and writes the same bytes.  Nor
# does it need `fractions`: its exact angles are the integer table, and only
# the oracles of `verify` write them as Fractions
@pytest.mark.parametrize("name", [None, *sorted(DATA_COMMANDS), "theorem1-check"])
def test_runs_without_scipy(tmp_path, capsys, name):
    if name is None:
        assert run_without_scipy(None, tmp_path) == (0, "", "", set())
        return
    if name == "theorem1-check":
        argv = [name, "--n1", "12", "--n2", "36", "--f", "5"]
    else:
        argv = [name, *TINY, *DATA_COMMANDS[name], "--out", "out"]
    (tmp_path / "plain").mkdir()
    (tmp_path / "blocked").mkdir()
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path / "plain")
        assert main(argv) == 0
    want = capsys.readouterr().out
    code, out, err, loaded = run_without_scipy(argv, tmp_path / "blocked")
    assert (code, err) == (0, "")
    assert loaded == ({"leovn.verify", "fractions"} if name == "theorem1-check" else set())
    if name == "theorem1-check":
        assert out == want
    else:
        assert data_files(tmp_path / "blocked") == data_files(tmp_path / "plain") != {}


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_verify_without_scipy_exits_2(tmp_path, suite):
    code, out, err, _ = run_without_scipy(["verify", "--suite", suite], tmp_path)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "pip install scipy" in err and "Traceback" not in err


class ReadRecorder(argparse.Namespace):
    """A namespace that records which attributes are read."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "__dict__").setdefault("_reads", set()).add(name)
        return object.__getattribute__(self, name)


class TestOptions:
    @pytest.mark.parametrize("name", sorted(DATA_COMMANDS))
    def test_every_option_is_read(self, tmp_path, name):
        # an option the subcommand parses but never reads is a silent no-op
        parser = build_parser()
        subparser = next(a for a in parser._actions
                         if isinstance(a, argparse._SubParsersAction)).choices[name]
        options = {a.dest for a in subparser._actions if a.option_strings and a.dest != "help"}
        args = parser.parse_args([name, *TINY, *DATA_COMMANDS[name],
                                  "--out", str(tmp_path / "out")], namespace=ReadRecorder())
        args.__dict__["_reads"] = set()
        args.func(args)
        assert options - args.__dict__["_reads"] == set()

    @pytest.mark.parametrize("argv", [
        ["staticness", "--method", "csd", "--duration-s", "600", "--format", "csv"],
        ["sweep-hisl", "--f", "2"],
        ["throughput", "--f", "2"],
        ["latency", "--seed", "1", "--f", "2"],
    ])
    def test_ignored_flags_are_gone(self, tmp_path, capsys, argv):
        # options are never abbreviated, so the sweeps' --f is unrecognized,
        # not a prefix of --f-min/--f-max/--format
        with pytest.raises(SystemExit) as exc:
            main([*argv, *TINY, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "ambiguous option: --f " in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("options,message", [
        (["--dur", "600"], "the following arguments are required: --duration-s"),
        (["--duration-s", "600", "--samp", "3"], "unrecognized arguments: --samp 3"),
    ])
    def test_abbreviated_option_is_rejected(self, tmp_path, capsys, options, message):
        # with prefix matching, --dur and --samp would parse as the only
        # options they begin, --duration-s and --samples
        with pytest.raises(SystemExit) as exc:
            main(["staticness", *TINY, "--method", "csd", *options,
                  "--out", str(tmp_path / "out.json")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestErrorPaths:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_geometry_is_config_error(self, capsys):
        assert main(["divide"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("text,fragment", [
        ("n1 = 6\nn2 = twelve\n", "n2"),
        ("n1 = 6\nn2 12\n", "bad.cfg:2: expected 'key = value'"),
    ])
    def test_malformed_config_file_names_key(self, tmp_path, capsys, text, fragment):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(text)
        assert main(["divide", "--config", str(cfg_file)]) == 2
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("make", [
        lambda path: None,                          # missing
        lambda path: path.mkdir(),                  # a directory
        lambda path: path.write_bytes(b"n1 = 6\nn2 = \xff12\n"),    # not UTF-8
    ], ids=["missing", "directory", "not-utf8"])
    def test_unreadable_config_file_names_path(self, tmp_path, capsys, make):
        cfg_file = tmp_path / "walker.cfg"
        make(cfg_file)
        assert main(["divide", "--config", str(cfg_file),
                     "--out", str(tmp_path / "division.csv")]) == 2
        assert f"cannot read config file {cfg_file}" in capsys.readouterr().err
        assert not (tmp_path / "division.csv").exists()

    @pytest.mark.parametrize("name", sorted(DATA_COMMANDS))
    def test_out_naming_a_directory_exits_2(self, tmp_path, capsys, name):
        # refused before the command computes anything: nothing is written
        # in or beside the directory
        out = tmp_path / "out"
        out.mkdir()
        assert main([name, *TINY, *DATA_COMMANDS[name], "--out", str(out)]) == 2
        assert f"output path {out} is a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []

    @pytest.mark.parametrize("name,out,sibling", [
        ("divide", "y.csv", "y.csv.manifest.json"),
        ("staticness", "x.json", "x.events.csv"),
        ("staticness", "x.json", "x.events.csv.tmp"),
    ])
    def test_sibling_naming_a_directory_exits_2(self, tmp_path, capsys, name, out, sibling):
        # the manifest and the events CSV are refused before any work, like --out
        blocked = tmp_path / sibling
        blocked.mkdir()
        assert main([name, *TINY, *DATA_COMMANDS[name], "--out", str(tmp_path / out)]) == 2
        assert f"output path {blocked} is a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [blocked] and list(blocked.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["staticness", *TINY, "--method", "csd", "--duration-s", "600", "--samples", "1"],
        ["divide", "--n1", "3", "--n2", "6", "--f", "5", "--mode", "optimized"],
        ["snapshot", "--n1", "3", "--n2", "6", "--f", "5", "--mode", "optimized"],
        ["staticness", "--n1", "3", "--n2", "6", "--f", "5", "--mode", "optimized",
         "--method", "csd", "--duration-s", "600"],
    ], ids=["staticness-samples", "divide-layout", "snapshot-layout", "staticness-layout"])
    def test_rejected_command_leaves_no_directory(self, tmp_path, capsys, argv):
        # the output directory is made before these checks fail, and removed
        assert main([*argv, "--out", str(tmp_path / "new" / "dir" / "x")]) == 2
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_out_below_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "file").touch()
        assert main(["divide", *TINY, "--out", str(tmp_path / "file" / "division.csv")]) == 2
        assert "cannot create the directory of output path" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,field", [
        (["--n1", "1", "--n2", "12"], "num_planes"),
        (["--n1", "6", "--n2", "12", "--inclination-deg", "0"], "inclination_deg"),
    ])
    def test_invalid_bound_names_field(self, capsys, argv, field):
        assert main(["divide", *argv]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("argv,field", [
        (["throughput", "--altitude-km", "nan"], "altitude_km"),
        (["divide", "--raan0-deg", "nan"], "raan0_deg"),
        (["staticness", "--method", "csd", "--duration-s", "100", "--phase0-deg", "inf"],
         "phase0_deg"),
    ])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, argv, field):
        out = tmp_path / "out.csv"
        assert main(argv + ["--n1", "6", "--n2", "12", "--out", str(out)]) == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,fragment", [
        (["snapshot", "--t-seconds", "nan"], "t_seconds must be finite"),
        (["snapshot", "--t-seconds", "inf"], "t_seconds must be finite"),
        (["sweep-hisl", "--f-min", "5", "--f-max", "2"], "f_max must be >= f_min"),
        # numpy's default_rng takes no negative seed
        (["latency", "--seed", "-1", "--f-max", "1"], "seed must be >= 0"),
    ])
    def test_bad_range_exits_2(self, tmp_path, capsys, argv, fragment):
        out = tmp_path / "out.csv"
        assert main(argv + ["--n1", "6", "--n2", "12", "--out", str(out)]) == 2
        assert fragment in capsys.readouterr().err
        assert not out.exists()

    def test_period_s_flag_is_gone(self, tmp_path):
        # the period follows --altitude-km alone
        with pytest.raises(SystemExit) as exc:
            main(["snapshot", "--n1", "6", "--n2", "12", "--period-s", "6000",
                  "--out", str(tmp_path / "snap.csv")])
        assert exc.value.code == 2 and not list(tmp_path.iterdir())

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name,stem", [
        ("divide", "division"), ("snapshot", "snapshot"), ("sweep-hisl", "hisl_sweep"),
        ("throughput", "throughput"), ("latency", "latency")])
    def test_default_name_follows_format(self, tmp_path, monkeypatch, name, stem, fmt):
        # without --out, files land in $LEOVN_OUTPUT_DIR, created if missing
        monkeypatch.setenv("LEOVN_OUTPUT_DIR", str(tmp_path / "outputs"))
        assert main([name, *TINY, *DATA_COMMANDS[name], "--format", fmt]) == 0
        assert sorted(p.name for p in (tmp_path / "outputs").iterdir()) == [
            f"{stem}.{fmt}", f"{stem}.{fmt}.manifest.json"]
        if fmt == "json":
            strict_json(tmp_path / "outputs" / f"{stem}.json")
