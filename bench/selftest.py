#!/usr/bin/env python3
"""Self-test of the benchmark: one short pass of each workload, checked.

    python3 bench/selftest.py

For every workload it runs one untraced and one traced pass, each in a
fresh interpreter and under a different input order, and requires that

- each matches bench/reference.json operation by operation, and the
  untraced pass also matches the whole-report digest;
- the traced pass's work counts equal the reference counts;
- both passes give identical digests, so neither the input order nor the
  tracing reaches the outputs.

Exits 1 if any of these fails.
"""

from __future__ import annotations

import sys

from run import check_pass, load_reference, spawn_pass, totals


def main() -> int:
    reference = load_reference()["workloads"]
    failures = []
    for name, expected in reference.items():
        plain = spawn_pass(name, "selftest:1", False)
        traced = spawn_pass(name, "selftest:2", True)
        for label, res in (("untraced", plain), ("traced", traced)):
            bad = check_pass(res, expected)
            if bad:
                failures.append(f"{name} {label}: {res['error'] or ', '.join(bad)}")
        if plain.get("ops") != traced.get("ops"):
            failures.append(f"{name}: the input order or the tracing changed the outputs")
        print(f"{name}: {len(expected['ops'])} ops {totals(expected['ops'])}, "
              f"untraced {plain.get('wall_s', 0):.2f} s, traced {traced.get('wall_s', 0):.2f} s")
    for line in failures:
        print("FAIL", line)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
