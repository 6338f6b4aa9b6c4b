#!/usr/bin/env python3
"""Record bench/reference.json: the outputs every benchmark pass is checked
against.

    python3 bench/record.py

Runs one untraced pass of each workload under two input orders, requires
that both agree and that every counterexample check and table round trip
holds, and writes their digests and work counts.  The reference is recorded
once, from code whose outputs are trusted; re-recording it to make a
changed output pass defeats the benchmark's correctness check.
"""

from __future__ import annotations

import json
import sys

from onepass import WORKLOADS
from run import BENCH, spawn_pass, totals


def main() -> int:
    workloads = {}
    for name in WORKLOADS:
        first, second = (spawn_pass(name, f"record:{seed}", False) for seed in (0, 1))
        for res in (first, second):
            if res["error"] is not None:
                raise SystemExit(f"{name}: {res['error']}")
        if (first["ops"], first["report_sha256"]) != (second["ops"], second["report_sha256"]):
            raise SystemExit(f"{name}: outputs depend on the input order")
        for op_name, op in first["ops"].items():
            if not all(op.get("checks", {}).values()) or op.get("round_trip") is False:
                raise SystemExit(f"{name}: {op_name} failed its own check: {op}")
        workloads[name] = {"report_sha256": first["report_sha256"], "ops": first["ops"]}
        print(name, json.dumps(totals(first["ops"])))
    path = BENCH / "reference.json"
    path.write_text(json.dumps({"workloads": workloads}, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
