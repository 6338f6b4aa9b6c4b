#!/usr/bin/env python3
"""Mutants that the tier-1 tests must kill.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # only the named ones

Each mutant is one plain text substitution in one file under ``src/``.  For
each, the script copies ``src/``, ``tests/``, ``bench/``, ``tools/``,
``pyproject.toml`` and ``README.md`` (a test reads its API list) into a
temporary directory, applies the substitution there, and runs the tier-1
tests on the copy, stopping at the first failure.  A mutant is killed when
the tests fail; one that survives means some check can silently do nothing
and still pass.  A substitution whose text no longer occurs exactly once is
reported as stale, so the list cannot quietly stop applying.  The
unmutated copy is run first and must pass.  ``STALE_CHECK``, the tier-1
test that makes the same exactly-once check, is left out of the mutated
runs, since it fails on any mutated copy.  A mutated run still going after
a minute plus three times the unmutated run's time is stopped, with every
process it started, and reported as ``killed by timeout``: a mutant that
makes a test loop forever is caught.

Prints one line per mutant and exits 1 unless every mutant was killed, 2
if the unmutated copy fails.  The working tree is never modified.  A full
tier-1 run takes about half a minute, so this runs beside tier-1, not
inside it.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STALE_CHECK = "tests/test_mutants.py::test_every_mutant_applies_exactly_once"
# a mutated run is stopped after TIMEOUT_BASE seconds plus TIMEOUT_FACTOR
# times the unmutated run's
TIMEOUT_BASE, TIMEOUT_FACTOR = 60, 3

# (name, file under src/groupkit, text, replacement)
MUTANTS = (
    # the presentation builder: b² = 1 always, so Dic(m) becomes D(2m)
    ("inverting_table_drops_s", "core.py",
     "i - k + s * l", "i - k"),
    # the isomorphism search tries candidate images in descending order
    ("search_descending", "iso.py",
     "for t in by_order[sorder[s]]:", "for t in reversed(by_order[sorder[s]]):"),
    # prop_2_5 walks no normal subgroup
    ("prop_2_5_no_normals", "harness.py",
     "    for t in normal_subgroups(group, cap=cap):\n        t_derived",
     "    for t in normal_subgroups(group, cap=cap)[:0]:\n        t_derived"),
    # the premise-only lemmas see only the first H0: the suite hands every
    # check only that one
    ("lemmas_first_h0", "harness.py",
     "list(check(group, h0s, cap, cache))", "list(check(group, h0s[:1], cap, cache))"),
    ("lemma_4_1a_never_fails", "harness.py",
     "        if derived_of(group, h0).bits != h0.bits & g_derived.bits:\n            yield",
     "        if False:\n            yield"),
    ("lemma_4_2a_never_fails", "harness.py",
     "        if center_of(group, h0).bits != h0.bits & g_center.bits:\n            yield",
     "        if False:\n            yield"),
    # prop_2_3 walks no coprime pair
    ("prop_2_3_no_pairs", "harness.py",
     "for b in coprime[a.bits]:", "for b in coprime[a.bits][:0]:"),
    # prop_2_4 sees only the first normal subgroup
    ("prop_2_4_first_normal", "harness.py",
     "    for d in normal_subgroups(group, cap=cap):\n        if d.bits not in decomposable",
     "    for d in normal_subgroups(group, cap=cap)[:1]:\n        if d.bits not in decomposable"),
    # the property table loses its last check, so the report has nine keys
    ("property_table_drops_last", "harness.py",
     '    ("lemma_4_2a", _lemma_4_2a), ("lemma_4_2b", _lemma_4_2b),\n)',
     '    ("lemma_4_2a", _lemma_4_2a),\n)'),
    # direct_complements hands out only the first complement of each side
    ("direct_complements_first_only", "decomposition.py",
     "    return comps[normal.bits]", "    return comps[normal.bits][:1]"),
    # direct_complements drops the last complement of each side
    ("direct_complements_drop_last", "decomposition.py",
     "    return comps[normal.bits]", "    return comps[normal.bits][:-1]"),
    # the lattice marks every join covered, not only the prime-index ones
    ("lattice_covers_every_join", "subgroups.py",
     "                if _is_prime(joined.bit_count() // size):\n                    todo &= ~joined",
     "                if True:\n                    todo &= ~joined"),
    # the normalizer bitset reads only the first generator of H
    ("normalizer_first_generator", "subgroups.py",
     "    for h in gens:\n        out &= int(columns[h]",
     "    for h in gens[:1]:\n        out &= int(columns[h]"),
    # the conjugation columns run g upward, so each numeral is read reversed
    ("conjugation_columns_forward", "subgroups.py",
     "by_g = list(zip(table, group.inv))[::-1]", "by_g = list(zip(table, group.inv))"),
    # the lattice's cover lookup reads only the column of H's first generator
    ("cover_lookup_first_column", "subgroups.py",
     "for h in gens:\n                    within &= columns[h]",
     "for h in gens[:1]:\n                    within &= columns[h]"),
    # the membership columns never record a subgroup's last member
    ("column_update_skips_last", "subgroups.py",
     "for x in new:\n                        columns[x] |= bit",
     "for x in new[:-1]:\n                        columns[x] |= bit"),
    # the derived subgroup's normal closure never conjugates
    ("derived_closure_unconjugated", "subgroups.py",
     "for g in by]", "for g in by[:0]]"),
    # the centre tests commutation with one generator only
    ("center_one_generator", "subgroups.py",
     "for h in gens:\n            bits &= _normalizer(group, (h,), 1 << h)",
     "for h in gens[:1]:\n            bits &= _normalizer(group, (h,), 1 << h)"),
    # the lattice's normalizing seeds also taken for orders with three primes
    ("lattice_bound_three_primes", "subgroups.py",
     "normalizing = len(primes) <= 2", "normalizing = len(primes) <= 3"),
    # the byte rows' range check is gone: a byte in [n, 256) passes
    ("byte_range_unchecked", "core.py",
     "proper = not joined.translate(None, ident) and joined[::n] == ident",
     "proper = joined[::n] == ident"),
    # Light's test on byte rows compares (x·g)·y with itself
    ("byte_light_vacuous", "core.py",
     "column, right = joined[g::n], map(rows[g].translate, padded)",
     "column, right = joined[g::n], operator.itemgetter(*joined[g::n])(rows)"),
    # rows read whole up to order 256 are taken without the row-length check
    ("byte_rows_unmeasured", "core.py",
     "return rows if set(map(len, rows)) == {n} else None",
     "return rows if n <= 256 or set(map(len, rows)) == {n} else None"),
    # the per-entry read hands back int tuples at every order, not bytes
    # rows up to order 256
    ("checked_rows_as_tuples", "core.py",
     "    return _stored([list(map(operator.index, row)) for row in table])",
     "    return tuple(tuple(map(operator.index, row)) for row in table)"),
    # a table that passes Light's test is accepted without a 0 in every
    # row, so an associative monoid with an identity passes as a group
    ("monoid_accepted", "core.py",
     "if inv and witness is None:", "if witness is None:"),
    # the join lookup reads the subgroups of order |A·B| that contain A,
    # whether or not they contain B
    ("join_lookup_uncontained", "decomposition.py",
     "supersets(group, a.bits, b.bits, cap=group.order)",
     "supersets(group, a.bits, cap=group.order)"),
    # the join read that prop_2_3, cor_2_1 and join_bits share takes the
    # last subgroup found that contains both sides, of any order
    ("join_read_no_order_mask", "subgroups.py",
     "mask = above & self.of_order.get(order, 0)", "mask = above"),
    # the join lookup reads |A·B| as |A|·|B|, ignoring A∩B
    ("join_lookup_undivided", "decomposition.py",
     "m = a.order * b.order // (a.bits & b.bits).bit_count()", "m = a.order * b.order"),
    # is_internal_direct skips its meet test, so factors of the right
    # orders that overlap pass
    ("direct_meet_unchecked", "decomposition.py",
     "if joined.bits & after.bits != 1:", "if False:"),
    # G/N is classed as N itself instead of as N's direct complement
    ("quotient_class_of_n", "harness.py",
     "ids[comps[0].bits]", "ids[n.bits]"),
    # premise_classes drops every normal with no direct complement, so a
    # normal that broke the theorem would never be an H0
    ("bare_normals_skipped", "harness.py",
     "elif ids[n.bits] in side_classes:", "elif False:"),
    # a violation builds every instance of the group again, not only those
    # of the H0s with no complement
    ("violation_filter_ignored", "harness.py",
     "    if h0_bits is not None:\n        buckets = {", "    if False:\n        buckets = {"),
    # the commuting test compares only the first generator with the others
    ("abelian_flag_first_pair", "core.py",
     "for i, a in enumerate(gens) for b", "for i, a in enumerate(gens[:1]) for b"),
    # a subgroup's order histogram counts every element of the parent
    ("histogram_of_whole_parent", "iso.py",
     "(mask & sub.bits).bit_count()", "mask.bit_count()"),
    # class_of trusts every fingerprint bucket, non-abelian ones too
    ("class_of_trusts_every_bucket", "iso.py",
     "if key.abelian or self.iso_map(group, rep)", "if True or self.iso_map(group, rep)"),
    # the DSL parser skips its end-of-input check, so trailing text is ignored
    ("dsl_trailing_input", "core.py",
     "    if tokens:\n        raise InvalidRecipe", "    if False:\n        raise InvalidRecipe"),
    # rows read whole are taken without reading marshal's slots, so a bool
    # among exact ints passes as the int it equals
    ("marshal_slots_unread", "core.py",
     'if slots != (b"[" + b"i" * n) * n:', "if False:"),
    # only the dump's length is checked: True (1 byte) and a numpy int32
    # (9 bytes) have the length of two exact ints, and so do True and 1.0
    ("marshal_length_only", "core.py",
     "slots = marshal.dumps(table, 2)[5::5].translate(_LIST_MARK)",
     'slots = (b"[" + b"i" * n) * n * (len(marshal.dumps(table, 2)) == 5 * (1 + n + n * n))'),
)


def run_tier1(substitution: tuple[str, str, str] | None,
              timeout: float | None = None) -> subprocess.CompletedProcess | None:
    """The tier-1 run on a copy with the substitution applied, or None when
    its text does not occur exactly once (a stale mutant).  A run still going
    after ``timeout`` seconds is stopped and has ``returncode`` None.  The
    run's whole process group is killed when it ends, so no ``groupkit``
    process a test started outlives it."""
    with tempfile.TemporaryDirectory(prefix="groupkit-mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "bench", "tools"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))
        for part in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / part, work / part)
        if substitution is not None:
            path, text, replacement = substitution
            target = work / "src" / "groupkit" / path
            source = target.read_text(encoding="utf-8")
            if source.count(text) != 1:
                return None
            target.write_text(source.replace(text, replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        deselect = ["--deselect", STALE_CHECK] if substitution is not None else []
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", *deselect],
            cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
            returncode = proc.returncode
        except subprocess.TimeoutExpired:
            returncode = None
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
        if returncode is None:
            out, err = proc.communicate()
        return subprocess.CompletedProcess(proc.args, returncode, out, err)


def main(argv: list[str]) -> int:
    unknown = set(argv) - {name for name, *_ in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    # a copy that fails unmutated would make every mutant look killed
    start = time.perf_counter()
    if run_tier1(None).returncode != 0:
        print("tier-1 fails on the unmutated copy", file=sys.stderr)
        return 2
    # a mutant that makes a test loop forever is stopped, and counts as killed
    timeout = TIMEOUT_BASE + TIMEOUT_FACTOR * (time.perf_counter() - start)
    bad = 0
    for name, path, text, replacement in MUTANTS:
        if argv and name not in argv:
            continue
        start = time.perf_counter()
        proc = run_tier1((path, text, replacement), timeout)
        if proc is None:
            outcome = "STALE"
        elif proc.returncode is None:
            outcome = "killed by timeout"
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
