"""Command-line interface: catalog, verify, decompose, props, counterexample.

Every flag can also be set through an environment variable with the
``GROUPKIT_`` prefix (``--max-order`` -> ``GROUPKIT_MAX_ORDER``); explicit
flags win over the environment.  Machine output is always JSON with sorted
keys so runs can be diffed byte-for-byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .catalog import (
    CatalogEntry,
    builtin_catalog,
    canonical_json,
    group_from_json_dict,
    group_to_json_dict,
)
from .core import DEFAULT_ORDER_CAP
from .decomposition import remak_decomposition
from .errors import GroupKitError
from .harness import (
    VerifyConfig,
    build_split_counterexample,
    counterexample_json_dict,
    verify_catalog,
)
from .iso import IsoCache
from .subgroups import DEFAULT_LATTICE_CAP, whole_subgroup

ENV_PREFIX = "GROUPKIT_"


class ConfigError(ValueError):
    pass


def _env_default(name: str, default, cast=int):
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return default
    try:
        return cast(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"invalid value for {ENV_PREFIX}{name}: {raw!r}")


def _env_flag(name: str) -> bool:
    """True for 1/true/yes, False for 0/false/no or unset or empty (any case)."""
    raw = os.environ.get(ENV_PREFIX + name, "")
    if raw.lower() not in ("1", "true", "yes", "0", "false", "no", ""):
        raise ConfigError(f"invalid value for {ENV_PREFIX}{name}: {raw!r}")
    return raw.lower() in ("1", "true", "yes")


def _write_json(data: dict | list, path: str | None) -> None:
    text = canonical_json(data)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _write_report(data: dict, path: str | None):
    """Write a report to ``path`` when one is given; the stream for the
    summary lines: stderr when the report took stdout (``-``), else stdout,
    after a line naming the file."""
    if not path:
        return sys.stdout
    _write_json(data, path)
    if path == "-":
        return sys.stderr
    print(f"report written to {path}")
    return sys.stdout


def _positive(kind: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"{kind} must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupkit",
        description="finite-group catalog, decomposition, and direct-extension verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--max-order", type=int,
                       default=_env_default("MAX_ORDER", 16),
                       help="catalog cutoff (complete classes up to 16)")
        p.add_argument("--lattice-cap", type=int,
                       default=_env_default("LATTICE_CAP", DEFAULT_LATTICE_CAP),
                       help="largest order for subgroup-lattice work")
        p.add_argument("--jobs", type=int, default=_env_default("JOBS", 1),
                       help="parallel workers (output is identical for any value)")
        p.add_argument("--seed", type=int, default=_env_default("SEED", 0),
                       help="seed recorded in the report config")

    p_catalog = sub.add_parser("catalog", help="write the built-in group catalog")
    p_catalog.add_argument("--max-order", type=int, default=_env_default("MAX_ORDER", 16))
    p_catalog.add_argument("--out", default=_env_default("OUT", None, str))

    p_verify = sub.add_parser("verify", help="run the full direct-extension verification")
    common(p_verify)
    p_verify.add_argument("--report", default=_env_default("REPORT", None, str),
                          help="path for the JSON report, - for stdout "
                               "(default: stdout summary only)")
    p_verify.add_argument("--timings", action="store_true",
                          default=_env_flag("TIMINGS"),
                          help="include per-group wall-clock ms in the report "
                               "(breaks byte-for-byte reproducibility)")

    p_dec = sub.add_parser("decompose", help="print indecomposable direct factors of a group file")
    p_dec.add_argument("file", help="group JSON (exchange format)")
    p_dec.add_argument("--lattice-cap", type=int,
                       default=_env_default("LATTICE_CAP", DEFAULT_LATTICE_CAP))

    p_props = sub.add_parser("props", help="run only the property suites over the catalog")
    common(p_props)
    p_props.add_argument("--report", default=_env_default("REPORT", None, str),
                         help="path for the JSON report, - for stdout")

    p_cx = sub.add_parser("counterexample",
                          help="build the split/non-split extension pair for a prime p")
    p_cx.add_argument("--p", type=int, required=True)
    p_cx.add_argument("--out", default=_env_default("OUT", None, str))
    p_cx.add_argument("--lattice-cap", type=int,
                      default=_env_default("LATTICE_CAP", DEFAULT_LATTICE_CAP))
    return parser


def _cmd_catalog(args) -> int:
    _positive("max-order", args.max_order)
    entries = builtin_catalog(args.max_order)
    _write_json([group_to_json_dict(e.group) for e in entries], args.out)
    return 0


def _verify_config(args) -> VerifyConfig:
    return VerifyConfig(
        max_order=_positive("max-order", args.max_order),
        lattice_cap=_positive("lattice-cap", args.lattice_cap),
        jobs=_positive("jobs", args.jobs),
        seed=args.seed,
    )


def _catalog(max_order: int) -> list[CatalogEntry]:
    """``builtin_catalog(max_order)``; ValueError when ``max_order`` is above
    every order the catalog holds, so no report claims orders it never saw."""
    entries = builtin_catalog(max_order)
    if max_order > max(e.group.order for e in entries):
        largest = max(e.group.order for e in builtin_catalog(DEFAULT_ORDER_CAP))
        if max_order > largest:
            raise ValueError(f"max-order {max_order} is above {largest}, "
                             "the largest order in the built-in catalog")
    return entries


def _cmd_verify(args) -> int:
    config = _verify_config(args)
    start = time.perf_counter()
    entries = _catalog(config.max_order)
    report = verify_catalog(entries, config)
    elapsed = time.perf_counter() - start
    stream = _write_report(report.json_dict(include_timings=args.timings), args.report)
    s = report.summary
    print(
        f"verified {s['groups']} groups (order <= {config.max_order}): "
        f"{s['instances']} instances, {s['violations']} violations, "
        f"{s['property_failures']} property failures, {s['skipped']} skipped", file=stream
    )
    print(f"status: {report.status} ({elapsed:.1f}s)", file=stream)
    return 0 if report.status == "PASS" else 1


def _cmd_decompose(args) -> int:
    try:
        data = json.loads(Path(args.file).read_text(encoding="utf-8"))
        if isinstance(data, dict) and isinstance(data.get("group"), dict):
            data = data["group"]  # counterexample bundles embed their group
        group = group_from_json_dict(data)
    except (OSError, json.JSONDecodeError, RecursionError, GroupKitError) as exc:
        # RecursionError: JSON nested deeper than the decoder recurses (a
        # recipe nested too deep is an InvalidRecipe)
        print(f"cannot load group: {exc}", file=sys.stderr)
        return 2
    splitting = remak_decomposition(group, cap=_positive("lattice-cap", args.lattice_cap))
    cache = IsoCache()
    names = {cache.class_of(whole_subgroup(entry.group)): entry.name
             for entry in builtin_catalog(16)}
    factors = []
    for f in splitting.factors:
        factors.append({
            "order": f.order,
            "members": f.members(),
            "iso_class": names.get(cache.class_of(f)),
        })
    out = {"order": group.order, "factors": factors}
    if group.name is not None:
        out["name"] = group.name
    _write_json(out, None)
    return 0


def _cmd_props(args) -> int:
    config = _verify_config(args)
    entries = _catalog(config.max_order)
    report = verify_catalog(entries, config)
    groups = []
    for g in report.groups:
        slim = {"name": g["name"], "order": g["order"]}
        if "skipped" in g:
            slim["skipped"] = g["skipped"]
        else:
            slim["properties"] = g["properties"]
            if "property_failures" in g:
                slim["property_failures"] = g["property_failures"]
        groups.append(slim)
    failures = report.summary["property_failures"]
    status = "PASS" if failures == 0 else "FAIL"
    out = {"status": status, "config": report.config, "groups": groups}
    stream = _write_report(out, args.report)
    print(f"property suites over {len(groups)} groups: {failures} failures", file=stream)
    print(f"status: {status}", file=stream)
    return 0 if failures == 0 else 1


def _cmd_counterexample(args) -> int:
    bundle = build_split_counterexample(
        args.p, lattice_cap=_positive("lattice-cap", args.lattice_cap))
    _write_json(counterexample_json_dict(bundle), args.out)
    skipped = [k for k, v in bundle.checks.items() if v is None]
    if skipped:
        print(f"skipped (lattice cap {args.lattice_cap}): {', '.join(skipped)}",
              file=sys.stderr)
    return 0 if bundle.all_pass else 1


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    handlers = {
        "catalog": _cmd_catalog,
        "verify": _cmd_verify,
        "decompose": _cmd_decompose,
        "props": _cmd_props,
        "counterexample": _cmd_counterexample,
    }
    try:
        return handlers[args.command](args)
    except (GroupKitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
