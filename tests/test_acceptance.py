"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.
"""

import hashlib
import random
import time

import pytest

from groupkit.catalog import (
    GROUP_COUNTS_UP_TO_16,
    abelian_p_group_catalog,
    builtin_catalog,
)
from groupkit.core import element_order, exponent
from groupkit.decomposition import (
    cyclic_max_complement,
    direct_complements,
    is_internal_direct,
    remak_decomposition,
)
from groupkit import harness
from groupkit.harness import (
    VerifyConfig,
    build_split_counterexample,
    check_direct_extension,
    extension_instances,
    verify_catalog,
)
from groupkit.iso import IsoCache
from groupkit.subgroups import (
    all_subgroups,
    normal_subgroups,
    subgroup_as_group,
)

from conftest import complements_by_scan, subgroups_by_subset_filter

PROPERTY_KEYS = {
    "prop_2_1", "prop_2_2", "prop_2_3", "cor_2_1", "prop_2_4", "prop_2_5",
    "lemma_4_1a", "lemma_4_1b", "lemma_4_2a", "lemma_4_2b",
}


@pytest.fixture(scope="module")
def full_report(catalog16):
    return verify_catalog(catalog16, VerifyConfig(max_order=16, lattice_cap=64, jobs=1))


def _announce(n: int, ok: bool, detail: str):
    print(f"\nCRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_direct_extension_exhaustive(catalog16):
    start = time.perf_counter()
    total = 0
    violations = 0
    for entry in catalog16:
        g = entry.group
        for inst in extension_instances(g):
            total += 1
            result = check_direct_extension(g, inst)
            if result.witness is None:
                violations += 1
            else:
                assert result.witness.bits & inst.h0.bits == 1
                assert result.witness.order * inst.h0.order == g.order
                assert is_internal_direct(g, [inst.h0, result.witness])
    elapsed = time.perf_counter() - start
    ok = violations == 0 and len(catalog16) == 42 and elapsed < 300
    _announce(
        1, ok,
        f"{total} extension instances over {len(catalog16)} groups, "
        f"{violations} violations, {elapsed:.1f}s (budget 300s)",
    )


def test_criterion_2_counterexample_bundles():
    b2 = build_split_counterexample(2)
    p2_ok = b2.group.order == 16 and all(v is True for v in b2.checks.values())
    b3 = build_split_counterexample(3, lattice_cap=81)
    required = (
        "split_has_complement",
        "nonsplit_kernel_central",
        "nonsplit_quotient_elementary",
        "not_isomorphic_to_elementary",
        "kernels_quotients_match",
    )
    p3_ok = b3.group.order == 81 and all(b3.checks[k] is True for k in required)
    scan3 = b3.checks["nonsplit_has_no_complement"]
    _announce(
        2, p2_ok and p3_ok and scan3 is True,
        f"p=2: six/six checks {'pass' if p2_ok else 'FAIL'}; "
        f"p=3 (cap 81): required five {'pass' if p3_ok else 'FAIL'}, "
        f"exhaustive no-complement scan={scan3}",
    )


def test_criterion_3_property_suites(full_report):
    bad = {}
    for g in full_report.groups:
        props = g.get("properties", {})
        assert set(props) == PROPERTY_KEYS, g["name"]
        for name, status in props.items():
            if status != "pass":
                bad.setdefault(g["name"], []).append(name)
    _announce(
        3, not bad and full_report.summary["property_failures"] == 0,
        f"{len(full_report.groups)} groups x {len(PROPERTY_KEYS)} suites, "
        f"failures: {bad or 0}",
    )


def test_criterion_4_cyclic_max_complement_constructive():
    entries = abelian_p_group_catalog(64)
    pairs = 0
    for entry in entries:
        g = entry.group
        exp = exponent(g)
        candidates = [
            s for s in all_subgroups(g)
            if s.order == exp and any(element_order(g, x) == exp for x in s.members())
        ]
        assert candidates, entry.name
        for d in candidates:
            comp = cyclic_max_complement(g, d)
            assert is_internal_direct(g, [d, comp]), (entry.name, d.members())
            pairs += 1
    _announce(
        4, pairs > 0,
        f"{pairs} (group, D) pairs over {len(entries)} abelian p-groups <= 64, "
        "each a direct complement",
    )


def test_criterion_5_oracle_equivalence(catalog16, catalog24):
    checked_complements = 0
    for entry in catalog24:
        g = entry.group
        for n in normal_subgroups(g):
            got = [c.bits for c in direct_complements(g, n)]
            assert got == complements_by_scan(g, n.bits), (entry.name, n.members())
            checked_complements += 1
    checked_lattices = 0
    for entry in catalog16:
        g = entry.group
        got = [s.bits for s in all_subgroups(g)]
        assert got == subgroups_by_subset_filter(g), entry.name
        checked_lattices += 1
    _announce(
        5, True,
        f"complement search vs brute-force scan on {checked_complements} normal "
        f"subgroups (orders <= 24); lattice vs 2^n subset filter on "
        f"{checked_lattices} groups (orders <= 16)",
    )


def test_criterion_6_catalog_completeness(catalog16, iso_cache):
    from collections import Counter

    counts = Counter(e.group.order for e in catalog16)
    tuple_counts = tuple(counts.get(i, 0) for i in range(1, 17))
    distinct = True
    for i, a in enumerate(catalog16):
        for b in catalog16[i + 1:]:
            if a.group.order == b.group.order and iso_cache.isomorphic(a.group, b.group):
                distinct = False
    ok = tuple_counts == GROUP_COUNTS_UP_TO_16 and distinct
    _announce(
        6, ok,
        f"entry counts per order 1..16 = {tuple_counts}, "
        f"pairwise non-isomorphism {'verified' if distinct else 'FAILED'}",
    )


def test_criterion_7_determinism(catalog16, full_report):
    report_j8 = verify_catalog(catalog16, VerifyConfig(max_order=16, lattice_cap=64, jobs=8))
    bytes_equal = full_report.json_bytes() == report_j8.json_bytes()

    cache = IsoCache()
    reps: list = []

    def class_multiset(g, rng=None):
        out = []
        for f in remak_decomposition(g, rng=rng).factors:
            fg, _ = subgroup_as_group(f)
            for idx, rep in enumerate(reps):
                if cache.isomorphic(fg, rep):
                    out.append(idx)
                    break
            else:
                reps.append(fg)
                out.append(len(reps) - 1)
        return sorted(out)

    rks_stable = True
    for entry in catalog16:
        base = class_multiset(entry.group)
        for seed in range(10):
            if class_multiset(entry.group, rng=random.Random(seed)) != base:
                rks_stable = False
    _announce(
        7, bytes_equal and rks_stable,
        f"report bytes jobs 1 vs 8 {'identical' if bytes_equal else 'DIFFER'}; "
        f"Remak iso-class multisets stable across 10 seeds for all "
        f"{len(catalog16)} groups: {rks_stable}",
    )


# sha256 of the `groupkit verify --max-order N --report` bytes, recorded
# from the first release; any change to the verifier's answers shows here
REPORT_SHA256 = {
    16: "908d0dc7e999a28fff88cd81f107133bc21ef014558bef2c7698c3c30619777e",
    24: "227985d28ba9469243d8e1b8ec480868a432c28d0facbcb9a3aad3fdd5e4c528",
}
# sha256 of the `groupkit props --max-order 24 --report` bytes and of the
# `groupkit counterexample --p 2` file; like the reports, they change only
# if an answer does
PROPS_SHA256 = {24: "237e11da8dc98aa4a454e8c2f6a262173b3babb86e5aed2704b8d6c4b7c8305a"}
COUNTEREXAMPLE_SHA256 = {2: "9c65cdaced9965cf048926b38844d51a8301c848c4f18ae52db844037505831f"}


def test_report_bytes_pinned_at_16(full_report):
    assert hashlib.sha256(full_report.json_bytes()).hexdigest() == REPORT_SHA256[16]


def test_report_bytes_pinned_at_24():
    report = verify_catalog(builtin_catalog(24), VerifyConfig(max_order=24))
    assert hashlib.sha256(report.json_bytes()).hexdigest() == REPORT_SHA256[24]


def test_verify_builds_no_witnesses_without_violations(catalog16, monkeypatch):
    # premises are counted by class; instances with witnesses are built only
    # for a violation, so a passing catalog must never materialize them
    def forbidden(*args, **kwargs):
        raise AssertionError("ExtensionInstance built on a passing catalog")

    monkeypatch.setattr(harness, "ExtensionInstance", forbidden)
    report = verify_catalog(catalog16, VerifyConfig(max_order=16))
    assert hashlib.sha256(report.json_bytes()).hexdigest() == REPORT_SHA256[16]
