#!/usr/bin/env python3
"""Write ``reference.json``: the sha256 of every data file each workload's
CLI calls write, for the default seed.  A latency sweep run with another
seed is checked against the paper's latency trend instead.

Run it from the repository root at the commit whose outputs are the
reference, never at a commit under test:

    python3 perfbench/record.py

Outputs are recorded only when every call succeeds and the latency sweep
also shows the paper's trend.
"""
from __future__ import annotations

import json
import sys

import run


def main() -> int:
    digests = {}
    for workload in run.WORKLOADS:
        op = run.run_op(workload, run.DEFAULT_SEED, False, None)
        if op["failures"]:   # with no reference, this includes the latency trend
            print("not recorded:", *op["failures"], sep="\n  ", file=sys.stderr)
            return 1
        for done in op["calls"]:
            digests[done["label"]] = done["digests"]
        print(f"recorded {workload}", flush=True)
    reference = {"recorded_at": {"git_sha": run.git_sha(),
                                 "source_sha256": run.source_digest(),
                                 **run.probe()},
                 "digests": digests}
    (run.BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
