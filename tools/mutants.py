#!/usr/bin/env python3
"""Mutants that the tier-1 tests must kill.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # only the named ones

Each mutant is one plain text substitution in one file under ``src/``.  For
each, the script copies ``src/``, ``tests/``, ``bench/`` and
``pyproject.toml`` into a temporary directory, applies the substitution
there, and runs the tier-1 tests on the copy, stopping at the first
failure.  A mutant is killed when the tests fail; one that survives means
some check can silently do nothing and still pass.  A substitution whose
text no longer occurs exactly once is reported as stale, so the list
cannot quietly stop applying.  The unmutated copy is run first and must
pass.

Prints one line per mutant and exits 1 unless every mutant was killed, 2
if the unmutated copy fails.  The working tree is never modified.  A full
tier-1 run takes about half a minute, so this runs beside tier-1, not
inside it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file under src/groupkit, text, replacement)
MUTANTS = (
    # the presentation builder: b² = 1 always, so Dic(m) becomes D(2m)
    ("inverting_table_drops_s", "core.py",
     "i - k + s * l", "i - k"),
    # the isomorphism search tries candidate images in descending order
    ("search_descending", "iso.py",
     "for t in by_order[sorder[s]]:", "for t in reversed(by_order[sorder[s]]):"),
    # recipe parts cached without the cap they were built under
    ("parts_keyed_by_recipe", "core.py",
     "key = (recipe, order_cap)", "key = recipe"),
    # prop_2_5 walks no normal subgroup
    ("prop_2_5_no_normals", "harness.py",
     "    for t in normals:\n        t_derived",
     "    for t in normals[:0]:\n        t_derived"),
    # the premise-only lemmas see only the first H0
    ("lemmas_first_h0", "harness.py",
     "    for h0 in h0s:\n        h0_derived",
     "    for h0 in h0s[:1]:\n        h0_derived"),
    ("lemma_4_1a_never_fails", "harness.py",
     "        if h0_derived.bits != h0.bits & g_derived.bits:\n            fail_a",
     "        if False:\n            fail_a"),
    ("lemma_4_2a_never_fails", "harness.py",
     "        if h0_center.bits != h0.bits & g_center.bits:\n            fail_c",
     "        if False:\n            fail_c"),
)


def run_tier1(substitution: tuple[str, str, str] | None) -> subprocess.CompletedProcess | None:
    """The tier-1 run on a copy with the substitution applied, or None when
    its text does not occur exactly once (a stale mutant)."""
    with tempfile.TemporaryDirectory(prefix="groupkit-mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "bench"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        if substitution is not None:
            path, text, replacement = substitution
            target = work / "src" / "groupkit" / path
            source = target.read_text(encoding="utf-8")
            if source.count(text) != 1:
                return None
            target.write_text(source.replace(text, replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=work, env=env, capture_output=True, text=True)


def main(argv: list[str]) -> int:
    unknown = set(argv) - {name for name, *_ in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    # a copy that fails unmutated would make every mutant look killed
    if run_tier1(None).returncode != 0:
        print("tier-1 fails on the unmutated copy", file=sys.stderr)
        return 2
    bad = 0
    for name, path, text, replacement in MUTANTS:
        if argv and name not in argv:
            continue
        start = time.perf_counter()
        proc = run_tier1((path, text, replacement))
        if proc is None:
            outcome = "STALE"
        elif proc.returncode == 0:
            outcome = "SURVIVED"
        else:
            failed = [line.split()[1] for line in proc.stdout.splitlines()
                      if line.startswith(("FAILED ", "ERROR "))]
            outcome = f"killed by {failed[0] if failed else 'pytest exit ' + str(proc.returncode)}"
        bad += not outcome.startswith("killed")
        print(f"{name}: {outcome} ({time.perf_counter() - start:.1f} s)", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
