#!/usr/bin/env python3
"""Run one cold pass of a groupkit benchmark workload and print its outputs.

    python3 bench/onepass.py WORKLOAD ORDER_SEED TRACE [SPANS_OUT]

Every pass runs in a fresh interpreter, so the module-level catalog cache
and every ``Group._cache`` start empty, as they do for a ``groupkit verify``
user.  ORDER_SEED only permutes the order in which the fixed inputs are
handed over; no output may depend on it.

The last stdout line is one JSON object:

- ``imported_at``: CLOCK_MONOTONIC seconds at which ``import groupkit``
  returned (the caller subtracts its own spawn time to get set-up time);
- ``setup_scale``: the host-speed factor (see ``hostspeed.py``) measured
  while groupkit was imported;
- ``raw_wall_s``: from the workload's first public call to its last output;
- ``scale``: the host-speed factor measured over that interval;
- ``wall_s``: ``raw_wall_s * scale``, the time at the reference host speed;
- ``maxrss_kb``: ``ru_maxrss`` of this process;
- ``ops``: per operation, its digest and work counts;
- ``report_sha256``: digest of the whole verify report, or null;
- ``error``: null, or the exception that ended the pass.

With TRACE=1 the verify workloads replay the verifier's phase order
(lattice, normals, splittings, premises, complement checks, property suite)
through public calls instead of calling ``verify_catalog``, with a span
around every call the pass makes into a groupkit module, and the result
adds ``layers``: per-layer self time (rescaled like ``wall_s``) and work
counts.  The spans themselves are written to SPANS_OUT when it is given.
"""

import os
import sys
import time

import hostspeed

if __name__ == "__main__":
    hostspeed.start()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
import groupkit  # noqa: E402,F401

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)
IMPORT_PROBES = hostspeed.mark()

import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from time import perf_counter  # noqa: E402

from groupkit import (  # noqa: E402
    Product,
    VerifyConfig,
    all_direct_splittings,
    all_subgroups,
    build_split_counterexample,
    builtin_catalog,
    check_direct_extension,
    construct,
    extension_instances,
    fingerprint,
    normal_subgroups,
    parse_recipe,
    property_suite,
    verify_catalog,
)
from groupkit.catalog import CatalogEntry, group_from_json_dict, group_to_json_dict  # noqa: E402
from groupkit.harness import counterexample_json_dict  # noqa: E402
from groupkit.iso import IsoCache  # noqa: E402
from groupkit.subgroups import DEFAULT_LATTICE_CAP as CAP  # noqa: E402

# Fixed input sets, as recipe DSL.  premises32: order-32 groups with many
# direct splittings, where premise enumeration, complement checks and the
# property suite dominate and the lattice is cheap.  lattice-nonabelian:
# groups whose lattice takes the non-abelian join path and which have
# almost no premises; it is the control for premises32.
PREMISES32 = {
    "C4xC2xC2xC2": "P(P(P(C(4),C(2)),C(2)),C(2))",
    "D4xC2xC2": "P(P(D(4),C(2)),C(2))",
    "Q8xC2xC2": "P(P(Dic(2),C(2)),C(2))",
    "C4xC4xC2": "P(P(C(4),C(4)),C(2))",
}
LATTICE_NONABELIAN = {
    "S4xC2": "P(S(4),C(2))",
    "D4xS3": "P(D(4),S(3))",
    "SL(2,3)xC2": "P(SD(Dic(2),C(3),action=[[1,[0,4,2,6,5,1,7,3]]]),C(2))",
    "D16": "D(16)",
}
COUNTEREXAMPLE_P = 3
CONSTRUCT_ORDER = 128

# span names; each gives the per-layer metric "<name>_s" (summed self time)
SPANS = (
    "core.construct",
    "catalog.build",
    "catalog.export",
    "catalog.import",
    "subgroups.lattice",
    "subgroups.normals",
    "decomposition.splittings",
    "harness.premises",
    "harness.complements",
    "harness.properties",
    "harness.counterexample",
    "iso.fingerprint",
    "iso.lookup",
)


# work counts summed over the traced verifier calls
TRACED_COUNTS = ("candidates", "iso.searches", "subgroups.subgroups", "subgroups.normals",
                 "decomposition.splittings", "harness.instances")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Tracer:
    """Spans [name, start, end, parent index] of one pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, span, fn, /, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([span, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: summed self time (duration minus the time its
        direct children cover) and the number of spans."""
        inner = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        out = {name: (0.0, 0) for name in SPANS}
        for (name, start, end, _), covered in zip(self.spans, inner):
            total, count = out[name]
            out[name] = (total + (end - start - covered), count + 1)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


class Untraced:
    @staticmethod
    def call(span, fn, /, *args, **kwargs):
        return fn(*args, **kwargs)


class CountingIsoCache(IsoCache):
    """IsoCache that times each lookup as an ``iso.lookup`` span.

    IsoCache stores one answer per isomorphism search it runs and none for
    pairs of different orders, so ``searches`` is the number of its entries.
    """

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.tracer = tracer

    @property
    def searches(self) -> int:
        return len(self._maps)

    def iso_map(self, source, target):
        return self.tracer.call("iso.lookup", super().iso_map, source, target)


def _entries(recipes: dict, rng: random.Random, tr) -> list:
    names = sorted(recipes)
    rng.shuffle(names)
    out = []
    for name in names:
        recipe = parse_recipe(recipes[name])
        group = tr.call("core.construct", construct, recipe, name=name)
        out.append(CatalogEntry(name, recipe, group, tr.call("iso.fingerprint", fingerprint, group)))
    return out


def _verify_traced(entries: list, tr: Tracer, counts: dict) -> list:
    """The verifier's phases for each group, one public call per phase.

    Each call reuses what the earlier ones left in the group's cache, so
    every span times only its own new work.
    """
    out = []
    for e in sorted(entries, key=lambda e: (e.group.order, e.name)):
        g = e.group
        cache = CountingIsoCache(tr)
        subs = tr.call("subgroups.lattice", all_subgroups, g, cap=CAP)
        normals = tr.call("subgroups.normals", normal_subgroups, g, cap=CAP)
        splittings = tr.call("decomposition.splittings", all_direct_splittings, g, cap=CAP)
        instances = tr.call("harness.premises", extension_instances, g, cap=CAP, cache=cache)
        results = [tr.call("harness.complements", check_direct_extension, g, inst, cap=CAP)
                   for inst in instances]
        props = tr.call("harness.properties", property_suite, g, cap=CAP, cache=cache,
                        instances=instances)
        # the report entry the verifier builds; a violation need only make
        # the digest differ from the reference, which has none
        entry = {
            "name": e.name,
            "order": g.order,
            "instances": len(instances),
            "violations": [r.instance.h0.members() for r in results if not r.ok],
            "properties": {k: ("pass" if v["pass"] else "fail") for k, v in props.items()},
        }
        failures = {k: v["failures"] for k, v in props.items() if v["failures"]}
        if failures:
            entry["property_failures"] = failures
        out.append((g, entry))
        orders = [n.order for n in normals]
        counts["candidates"] += sum(orders.count(h.order) + orders.count(k.order)
                                    for h, k in splittings)
        counts["iso.searches"] += cache.searches
        counts["subgroups.subgroups"] += len(subs)
        counts["subgroups.normals"] += len(normals)
        counts["decomposition.splittings"] += len(splittings)
        counts["harness.instances"] += len(instances)
    return out


def _verify(entries: list, max_order: int, tr, counts) -> tuple[list, object]:
    """(group, report entry) per group, and the report when untraced."""
    if counts is not None:
        return _verify_traced(entries, tr, counts), None
    report = verify_catalog(entries, VerifyConfig(max_order=max_order))
    groups = {e.name: e.group for e in entries}
    return [(groups[g["name"]], g) for g in report.groups], report


def catalog24(rng, tr, counts) -> dict:
    entries = tr.call("catalog.build", builtin_catalog, 24)
    rng.shuffle(entries)
    groups, report = _verify(entries, 24, tr, counts)
    return {"groups": groups, "report": report}


def premises32(rng, tr, counts) -> dict:
    groups, report = _verify(_entries(PREMISES32, rng, tr), 32, tr, counts)
    return {"groups": groups, "report": report}


def lattice_nonabelian(rng, tr, counts) -> dict:
    groups, report = _verify(_entries(LATTICE_NONABELIAN, rng, tr), 48, tr, counts)
    bundle = tr.call("harness.counterexample", build_split_counterexample, COUNTEREXAMPLE_P,
                     lattice_cap=COUNTEREXAMPLE_P ** 4)
    return {"groups": groups, "report": report, "bundle": bundle}


def construct128(rng, tr, counts) -> dict:
    """Every catalog16 product A×B of order 128 with A.name <= B.name,
    built, exported to JSON and imported back (which revalidates it)."""
    catalog = tr.call("catalog.build", builtin_catalog, 16)
    pairs = [(a, b) for a in catalog for b in catalog
             if a.group.order * b.group.order == CONSTRUCT_ORDER and a.name <= b.name]
    rng.shuffle(pairs)
    tables = []
    for a, b in pairs:
        group = tr.call("core.construct", construct, Product(a.recipe, b.recipe),
                        name=f"{a.name}*{b.name}")
        text = json.dumps(tr.call("catalog.export", group_to_json_dict, group), sort_keys=True)
        back = tr.call("catalog.import", group_from_json_dict, json.loads(text))
        tables.append((group, back, text))
    return {"tables": tables}


WORKLOADS = {
    "catalog24": catalog24,
    "premises32": premises32,
    "lattice-nonabelian": lattice_nonabelian,
    "construct128": construct128,
}


def digests(out: dict) -> dict:
    """Per-operation digests and work counts of a pass's outputs."""
    ops = {}
    for group, entry in out.get("groups", ()):
        entry = {k: v for k, v in entry.items() if k != "ms"}
        ops[entry["name"]] = {
            "sha256": sha256(json.dumps(entry, sort_keys=True).encode()),
            "instances": entry.get("instances", 0),
            "subgroups": len(all_subgroups(group, cap=CAP)),
            "normals": len(normal_subgroups(group, cap=CAP)),
            "splittings": len(all_direct_splittings(group, cap=CAP)),
        }
    bundle = out.get("bundle")
    if bundle is not None:
        text = json.dumps(counterexample_json_dict(bundle), sort_keys=True)
        ops[f"counterexample-p{bundle.p}"] = {"sha256": sha256(text.encode()),
                                              "checks": dict(bundle.checks)}
    for group, back, text in out.get("tables", ()):
        ops[group.name] = {"sha256": sha256(text.encode()),
                           "round_trip": back.table == group.table and back.recipe == group.recipe}
    report = out.get("report")
    return {"ops": ops,
            "report_sha256": sha256(report.json_bytes()) if report is not None else None}


def layer_metrics(tracer: Tracer, counts: dict, scale: float) -> dict:
    """Per-layer metrics of a traced pass, named as in BENCHMARK.json.

    The work counts are taken from what the traced calls returned, so the
    caller can check them against the untraced reference.
    """
    times = tracer.self_times()
    out = {f"{name}_s": times[name][0] * scale for name in SPANS}
    out.update({k: v for k, v in counts.items() if k != "candidates"})
    lookups = times["iso.lookup"][1]
    out.update({
        "core.constructed": times["core.construct"][1],
        "harness.complement_checks": times["harness.complements"][1],
        "harness.premise_yield": (counts["harness.instances"] / counts["candidates"]
                                  if counts["candidates"] else 0.0),
        "iso.lookups": lookups,
        "iso.hit_ratio": 1.0 - counts["iso.searches"] / lookups if lookups else 0.0,
    })
    return out


def main(argv: list[str]) -> int:
    workload, order_seed, trace = argv[1], argv[2], argv[3] == "1"
    tracer = Tracer() if trace else Untraced
    counts = dict.fromkeys(TRACED_COUNTS, 0) if trace else None
    result = {"imported_at": IMPORTED_AT, "error": None,
              "setup_scale": hostspeed.scale(0, IMPORT_PROBES)}
    try:
        first = hostspeed.mark()
        start = perf_counter()
        out = WORKLOADS[workload](random.Random(order_seed), tracer, counts)
        wall = perf_counter() - start
        scale = hostspeed.scale(first, hostspeed.mark())
        result.update(raw_wall_s=wall, wall_s=wall * scale, scale=scale)
        result.update(digests(out))
    except Exception as exc:  # the caller counts every op of this pass as failed
        result["error"] = f"{type(exc).__name__}: {exc}"
    hostspeed.stop()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if trace and result["error"] is None:
        result["layers"] = layer_metrics(tracer, counts, result["scale"])
        if len(argv) > 4:
            tracer.write(argv[4])
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
