#!/usr/bin/env python3
"""groupkit benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; groupkit is imported from ``src/``.  NAME
is a workload of ``bench/reference.json``.  The run repeats cold passes of
the workload (``bench/onepass.py``, one fresh interpreter each, ``jobs=1``,
one pass at a time) until the next pass would end after S seconds, but
makes at least three.  Every operation of every
pass is checked against ``bench/reference.json``, recorded from the seed
code; an operation that raises, is skipped or differs counts as failed.
``--seed`` only permutes the order in which each pass hands over its fixed
inputs.

Every time is rescaled to a fixed reference host speed by the probe in
``bench/hostspeed.py``, which runs inside each pass; the raw times go to the
result file and, with ``--trace 1``, to the ``raw.*`` metrics.

With ``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json
as medians over passes.  With ``--trace 1`` untraced and traced passes
alternate and the result holds the per-layer metrics: medians of the traced
passes' layer times and exact work counts, the traced pass time and the
tracing overhead (traced minus untraced pass time).

The last stdout line is the JSON result; the line before it describes the
machine.  Both also go to ``.bench_out/BENCH_<workload>_seed<N>_trace<T>.json``,
and the last traced pass's spans to ``.bench_out/spans_<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
MIN_PASSES = 3
# a run must end within 180 s whatever the pass times are
BUDGET_S = 150.0
# per-layer count of a traced pass -> reference total it must equal
TRACED_TOTALS = (("harness.instances", "instances"), ("subgroups.subgroups", "subgroups"),
                 ("subgroups.normals", "normals"), ("decomposition.splittings", "splittings"))


def now() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a child's
    # "import finished" stamp can be compared with the parent's spawn time.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def machine() -> dict:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg": list(os.getloadavg()),
    }


def load_reference() -> dict:
    return json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


def totals(ops: dict) -> dict:
    """A workload's operation count and summed work counts."""
    out = {"ops": len(ops)}
    for key in ("instances", "subgroups", "normals", "splittings"):
        out[key] = sum(op.get(key, 0) for op in ops.values())
    return out


def spawn_pass(workload: str, order_seed: str, trace: bool,
               spans_out: Path | None = None, timeout: float = BUDGET_S) -> dict:
    """One cold pass in a fresh interpreter; adds ``setup_s`` to its result.

    Raises RuntimeError when the pass process fails outright.
    """
    cmd = [sys.executable, str(BENCH / "onepass.py"), workload, order_seed, "1" if trace else "0"]
    if spans_out is not None:
        cmd.append(str(spans_out))
    spawned = now()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"pass {workload} exited {proc.returncode}: {proc.stderr.strip()}")
    res = json.loads(lines[-1])
    res["raw_setup_s"] = res["imported_at"] - spawned
    res["setup_s"] = res["raw_setup_s"] * res["setup_scale"]
    return res


def check_pass(res: dict, expected: dict) -> list[str]:
    """Names of the failed operations of one pass, or every expected name
    when the pass as a whole is wrong."""
    ops = res.get("ops", {})
    everything = sorted(expected["ops"])
    if res["error"] is not None or set(ops) != set(expected["ops"]):
        return everything
    # traced passes rebuild the per-group entries but not the whole report
    if "layers" not in res and res["report_sha256"] != expected["report_sha256"]:
        return everything
    # the traced calls must have done exactly the untraced reference's work
    want = totals(expected["ops"])
    if "layers" in res and any(res["layers"][layer] != want[key] for layer, key in TRACED_TOTALS):
        return everything
    return [name for name in everything if ops[name] != expected["ops"][name]]


def run(workload: str, seed: int, seconds: float, trace: bool,
        spec: dict) -> tuple[dict, list[dict], list[str]]:
    expected = load_reference()["workloads"][workload]
    OUT.mkdir(exist_ok=True)
    passes: list[dict] = []
    problems: list[str] = []
    attempted = failed = 0
    begin = now()
    longest = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        start = now()
        res = spawn_pass(workload, f"{seed}:{len(passes)}", traced,
                         OUT / f"spans_{workload}.json" if traced else None,
                         timeout=max(1.0, BUDGET_S - (start - begin)))
        longest = max(longest, now() - start)
        bad = check_pass(res, expected)
        attempted += len(expected["ops"])
        failed += len(bad)
        if bad:
            problems.append(f"pass {len(passes)}: {res['error'] or ', '.join(bad)}")
        passes.append(res)
        limit = seconds if len(passes) >= MIN_PASSES else BUDGET_S
        if now() - begin + longest > limit:
            break

    untraced = [p for p in passes if p["error"] is None and "layers" not in p]
    traced_passes = [p for p in passes if p["error"] is None and "layers" in p]
    if not untraced or (trace and not traced_passes):
        raise RuntimeError(f"no pass of {workload} completed: {problems}")
    med = statistics.median
    wall = med([p["wall_s"] for p in untraced])
    if trace:
        values = {name: med([p["layers"][name] for p in traced_passes])
                  for name in traced_passes[0]["layers"]}
        instances = totals(expected["ops"])["instances"]
        traced_wall = med([p["wall_s"] for p in traced_passes])
        values.update({
            "trace.total_s": traced_wall,
            "trace.overhead_s": traced_wall - wall,
            "harness.instances_per_s": instances / wall,
            "raw.wall_s": med([p["raw_wall_s"] for p in untraced]),
            "raw.setup_s": med([p["raw_setup_s"] for p in untraced]),
            "host.speed": med([p["scale"] for p in untraced]),
        })
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": med([p["setup_s"] for p in untraced]),
            "wall_s": wall,
            "ops_per_s": med([len(expected["ops"]) / p["wall_s"] for p in untraced]),
            "peak_rss_mb": med([p["maxrss_kb"] / 1024.0 for p in untraced]),
        }
        wanted = spec["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    samples = [{k: p.get(k) for k in ("setup_s", "raw_setup_s", "wall_s", "raw_wall_s", "scale",
                                      "maxrss_kb", "error")} | {"traced": "layers" in p}
               for p in passes]
    return result, samples, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "groupkit" / "__init__.py").is_file():
        print(f"groupkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in load_reference()["workloads"]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # compile the package's bytecode once, so no timed pass pays for it
    warm = subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]);"
                           " import groupkit", str(ROOT / "src")],
                          capture_output=True, text=True, timeout=BUDGET_S)
    if warm.returncode != 0:
        print(f"import groupkit failed: {warm.stderr.strip()}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    host = machine()
    try:
        result, samples, problems = run(args.workload, args.seed, args.seconds,
                                        bool(args.trace), spec)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": host, "passes": samples, "problems": problems,
              "result": result}
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print("machine " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
