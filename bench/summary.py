#!/usr/bin/env python3
"""Print every end-to-end metric of every workload, by name with its unit.

    python3 bench/summary.py

Runs ``bench/run.py --seed 0 --trace 0`` for BENCHMARK.json's
``run_seconds`` once per workload of bench/reference.json and prints whether
the outputs were correct, then one line per end-to-end metric.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import BENCH, ROOT, load_reference


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    status = 0
    for name in load_reference()["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "0",
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: benchmark failed: {proc.stderr.strip()}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} "
              f"failed {result['failed']} of {result['attempted']} ops")
        for metric in spec["end_to_end"]:
            value = result["metrics"][metric["name"]]
            print(f"  {metric['name']:<12} {value['value']:12.4f} {value['unit']}")
        status |= 0 if result["correct"] else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
