import gc
import hashlib
import json
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from groupkit.core import (
    Cyclic,
    Group,
    Dicyclic,
    Dihedral,
    Product,
    Symmetric,
    construct,
)
from groupkit import decomposition, harness, subgroups
from groupkit.core import parse_recipe
from groupkit.decomposition import (
    all_direct_splittings,
    direct_complements,
    factor_classes,
    is_internal_direct,
    join_bits,
    remak_decomposition,
    splitting_sides,
)
from groupkit.errors import NotPrime, OrderBound
from groupkit.harness import (
    VerifyConfig,
    build_split_counterexample,
    check_direct_extension,
    counterexample_json_dict,
    extension_instances,
    premise_classes,
    property_suite,
    verify_catalog,
)
from groupkit.iso import IsoCache, automorphisms, find_isomorphism, subgroup_fingerprint
from groupkit.subgroups import (
    DEFAULT_LATTICE_CAP,
    Subgroup,
    all_subgroups,
    bits_of,
    center,
    center_of,
    commutator,
    derived_of,
    derived_subgroup,
    generate_subgroup,
    normal_subgroups,
    quotient,
    subgroup_as_group,
    whole_subgroup,
)
from groupkit.catalog import CatalogEntry, builtin_catalog, group_to_json_dict
from groupkit.iso import fingerprint

from conftest import (
    PREMISES32,
    commutator_bits_by_products,
    complement_count_by_homs,
    derived_bits_by_commutators,
    elementary_abelian_premises,
    elementary_abelian_splittings,
    is_isomorphism,
    isomorphic_by_generators,
    orbits_by_maps,
    premises_by_normals,
    projection_by_products,
    quotient_table_by_cosets,
    subgroup_table_by_members,
)


def test_trivial_group_has_one_instance():
    g = construct(Cyclic(1))
    insts = extension_instances(g)
    assert len(insts) == 1
    res = check_direct_extension(g, insts[0])
    assert res.ok and res.witness.order == 1


def test_s3xc2_instances_match_expected_counts():
    g = construct(Product(Symmetric(3), Cyclic(2)), name="S3xC2")
    insts = extension_instances(g)
    assert len(insts) == 8
    # for each ordered splitting (S3-copy, central C2) there are exactly two
    # order-6 normal subgroups isomorphic to S3: the plain and twisted copies
    by_shape = {}
    for inst in insts:
        by_shape.setdefault((inst.h.bits, inst.k.bits), []).append(inst)
    s3_side = [
        v for (hb, kb), v in by_shape.items()
        if bin(hb).count("1") == 6 and bin(kb).count("1") == 2
    ]
    assert len(s3_side) == 2  # two S3 copies serve as H
    for group_insts in s3_side:
        assert len(group_insts) == 2


def test_s3xc2_twisted_instance_witness_is_central_factor():
    g = construct(Product(Symmetric(3), Cyclic(2)))
    central = generate_subgroup(g, [1])
    plain = generate_subgroup(g, [x * 2 for x in range(1, 6)])
    twisted = [
        n for n in normal_subgroups(g)
        if n.order == 6 and n.bits not in (plain.bits,)
        and find_isomorphism(subgroup_as_group(n)[0], construct(Symmetric(3))) is not None
    ]
    assert len(twisted) == 1
    for inst in extension_instances(g):
        if inst.h0.bits == twisted[0].bits:
            res = check_direct_extension(g, inst)
            assert res.ok and res.witness.bits == central.bits


def test_q8_has_only_trivial_splitting_instances():
    q8 = construct(Dicyclic(2))
    insts = extension_instances(q8)
    assert len(insts) == 2
    assert {inst.h0.order for inst in insts} == {1, 8}


def test_instance_witnesses_are_valid_isos():
    g = construct(Product(Dihedral(4), Cyclic(2)))
    for inst in extension_instances(g):
        assert is_isomorphism(inst.iso_h.source, inst.iso_h.target, inst.iso_h.map)
        assert is_isomorphism(inst.iso_k.source, inst.iso_k.target, inst.iso_k.map)
        assert inst.iso_h.source.order == inst.h0.order
        assert inst.iso_k.source.order == g.order // inst.h0.order


def test_property_suite_trivial_group():
    results = property_suite(construct(Cyclic(1)))
    assert all(v["pass"] for v in results.values())


def test_property_suite_d4xc2():
    results = property_suite(construct(Product(Dihedral(4), Cyclic(2))))
    assert all(v["pass"] for v in results.values()), {
        k: v for k, v in results.items() if not v["pass"]
    }


def test_lemma_41a_twisted_s3_both_sides_are_c3():
    g = construct(Product(Symmetric(3), Cyclic(2)))
    g_derived = derived_subgroup(g)
    for inst in extension_instances(g):
        if inst.h0.order == 6:
            h0d = commutator(g, inst.h0, inst.h0)
            assert h0d.order == 3
            assert h0d.bits == inst.h0.bits & g_derived.bits


def test_counterexample_p2_all_checks():
    bundle = build_split_counterexample(2)
    assert bundle.group.order == 16
    assert bundle.checks == {
        "split_has_complement": True,
        "nonsplit_kernel_central": True,
        "nonsplit_quotient_elementary": True,
        "nonsplit_has_no_complement": True,
        "not_isomorphic_to_elementary": True,
        "kernels_quotients_match": True,
    }
    assert bundle.all_pass
    # the non-split kernel sits inside the centre, bit for bit
    assert bundle.n_nonsplit.bits & ~center(bundle.group).bits == 0


def test_counterexample_p2_split_side_revalidates():
    bundle = build_split_counterexample(2)
    g = bundle.group
    assert bundle.t_split.bits & bundle.n_split.bits == 1
    assert bundle.t_split.order * bundle.n_split.order == g.order


def test_counterexample_p3_default_cap_skips_scan():
    bundle = build_split_counterexample(3)
    assert bundle.group.order == 81
    assert bundle.checks["nonsplit_has_no_complement"] is None
    applicable = {k: v for k, v in bundle.checks.items() if v is not None}
    assert all(applicable.values())
    assert bundle.all_pass  # skipped checks do not fail the bundle


def test_counterexample_p3_raised_cap_runs_scan():
    bundle = build_split_counterexample(3, lattice_cap=81)
    assert bundle.checks["nonsplit_has_no_complement"] is True
    assert bundle.all_pass
    # the bytes `groupkit counterexample --p 3 --lattice-cap 81` writes
    text = json.dumps(counterexample_json_dict(bundle), sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b6cc74c3da14e1029dfce51ad9a541a4e602c45017d20d7d4f14407727515f15"
    )


def test_split_and_non_split_realisations_of_one_type(catalog16, iso_cache):
    # each normal N has a normal complement (direct), only complements
    # (split) or none (non-split), by a scan of the whole lattice.  By the
    # theorem a type (N, G/N) with a direct realisation has no other kind;
    # over catalog16 only D4xC2, the p=2 bundle's group, realises a type
    # both split and non-split
    def census(g: Group, cap: int = DEFAULT_LATTICE_CAP) -> dict[tuple[int, int], dict[int, str]]:
        subs = all_subgroups(g, cap=cap)
        normals = normal_subgroups(g, cap=cap)
        normal_bits = {n.bits for n in normals}
        types: dict[tuple[int, int], dict[int, str]] = {}
        for n in normals:
            comps = {c.bits for c in subs if c.order * n.order == g.order and c.bits & n.bits == 1}
            quotient_group = whole_subgroup(quotient(g, n).target)
            key = (iso_cache.class_of(n), iso_cache.class_of(quotient_group))
            types.setdefault(key, {})[n.bits] = (
                "direct" if comps & normal_bits else "split" if comps else "non-split")
        return types

    totals, mixed = Counter(), []
    for entry in catalog16:
        for kinds in census(entry.group).values():
            totals.update(kinds.values())
            found = set(kinds.values())
            assert "direct" not in found or found == {"direct"}, entry.name
            if found == {"split", "non-split"}:
                mixed.append((entry.name, Counter(kinds.values())))
    assert totals == {"direct": 236, "split": 39, "non-split": 83}
    assert mixed == [("D4xC2", {"split": 4, "non-split": 1})]
    d4c2 = next(e.group for e in catalog16 if e.name == "D4xC2")
    assert iso_cache.isomorphic(build_split_counterexample(2).group, d4c2)
    # the p=3 bundle's group, order 81, does too, its two kernels included
    bundle = build_split_counterexample(3, lattice_cap=81)
    mixed = [kinds for kinds in census(bundle.group, 81).values()
             if set(kinds.values()) == {"split", "non-split"}]
    assert [Counter(kinds.values()) for kinds in mixed] == [{"split": 12, "non-split": 1}]
    assert mixed[0][bundle.n_split.bits] == "split"
    assert mixed[0][bundle.n_nonsplit.bits] == "non-split"


def test_each_type_with_complements_is_one_automorphism_orbit(catalog16, iso_cache):
    # "essentially unique": the normals of one type (class of N, class of
    # G/N) that have direct complements are one Aut(G)-orbit, so any two
    # ways G arises as a direct extension of H by K differ by an
    # automorphism of G.  Over catalog16 every type is Aut(G)-invariant,
    # and only three, none with complements, split into two orbits
    split_types, automorphism_count = [], 0
    for entry in catalog16:
        g = entry.group
        maps = [a.map for a in automorphisms(g)]
        automorphism_count += len(maps)
        types: dict[tuple[int, int], list[Subgroup]] = {}
        for n in normal_subgroups(g):
            key = (iso_cache.class_of(n), iso_cache.class_of(whole_subgroup(quotient(g, n).target)))
            types.setdefault(key, []).append(n)
        for ns in types.values():
            orbits = orbits_by_maps(maps, [n.bits for n in ns])
            assert sorted(b for orbit in orbits for b in orbit) == sorted(n.bits for n in ns)
            direct = any(direct_complements(g, n) for n in ns)
            assert len(orbits) == 1 or not direct, (entry.name, ns[0].order)
            if len(orbits) > 1:
                split_types.append((entry.name, ns[0].order, len(orbits), direct))
    assert automorphism_count == 21_398
    assert sorted(split_types) == [("C4:C4", 8, 2, False), ("C4oD4", 4, 2, False),
                                   ("D4xC2", 4, 2, False)]


def test_counterexample_rejects_bad_p():
    with pytest.raises(NotPrime):
        build_split_counterexample(4)
    with pytest.raises(OrderBound):
        build_split_counterexample(7)  # 7^4 = 2401 > 512


def test_counterexample_huge_prime_hits_order_bound_first():
    # 2^61 - 1 is prime; trial division up to its square root never ends
    with pytest.raises(OrderBound):
        build_split_counterexample(2**61 - 1)


def test_counterexample_json_shape():
    bundle = build_split_counterexample(2)
    data = counterexample_json_dict(bundle)
    assert data["p"] == 2
    assert data["group"]["order"] == 16
    assert len(data["n_split"]) == 4
    assert set(data["checks"].values()) == {True}


def test_verify_catalog_trivial_only():
    entries = builtin_catalog(1)
    assert len(entries) == 1
    report = verify_catalog(entries, VerifyConfig(max_order=1))
    assert report.status == "PASS"
    assert report.summary == {
        "groups": 1,
        "instances": 1,
        "violations": 0,
        "property_failures": 0,
        "skipped": 0,
    }


def test_verify_catalog_oversized_entry_is_skipped_not_failed():
    big = construct(Product(Cyclic(16), Cyclic(8)), name="C16xC8")
    entries = [CatalogEntry("C16xC8", big.recipe, big, fingerprint(big))]
    report = verify_catalog(entries, VerifyConfig(lattice_cap=64))
    assert report.summary["skipped"] == 1
    assert report.status == "PASS"
    assert "skipped" in report.groups[0]


def test_verify_report_bytes_deterministic_across_jobs():
    entries = builtin_catalog(12)
    r1 = verify_catalog(entries, VerifyConfig(max_order=12, jobs=1))
    r2 = verify_catalog(entries, VerifyConfig(max_order=12, jobs=2))
    assert r1.json_bytes() == r2.json_bytes()
    assert b'"ms"' not in r1.json_bytes()
    assert b'"ms"' in r1.json_bytes(include_timings=True)


def test_theorem_witnesses_revalidate_sample():
    for recipe in (Product(Cyclic(2), Cyclic(2)), Product(Symmetric(3), Cyclic(2))):
        g = construct(recipe)
        for inst in extension_instances(g):
            res = check_direct_extension(g, inst)
            assert res.ok
            assert is_internal_direct(g, [inst.h0, res.witness])


def test_verify_pool_never_exceeds_payloads(monkeypatch):
    sizes = []

    class FakePool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return [fn(x) for x in items]

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(harness, "get_context", lambda method: FakeContext())
    report = verify_catalog(builtin_catalog(4), VerifyConfig(max_order=4, jobs=10**6))
    assert sizes == [5]
    assert report.summary["groups"] == 5


def test_cap_is_checked_before_memo_lookups():
    g = construct(Cyclic(12))
    normals = normal_subgroups(g)
    all_direct_splittings(g)
    direct_complements(g, normals[1])
    remak_decomposition(g)
    premise_classes(g)
    for call in (
        lambda: normal_subgroups(g, cap=4),
        lambda: all_direct_splittings(g, cap=4),
        lambda: direct_complements(g, normals[1], cap=4),
        lambda: remak_decomposition(g, cap=4),
        lambda: premise_classes(g, cap=4),
    ):
        with pytest.raises(OrderBound):
            call()


def test_premise_join_matches_instances(catalog16):
    for entry in catalog16:
        g = entry.group
        insts = extension_instances(g)
        premises = premise_classes(g)
        assert premises.count == len(insts), entry.name
        assert [h0.bits for h0 in premises.h0s] == sorted({i.h0.bits for i in insts}), entry.name


def test_quotient_by_a_side_is_isomorphic_to_each_complement(catalog24):
    # G = N×K gives G/N ≅ K, the fact premise_classes uses to read the
    # class of G/N off N's first complement
    groups = [e.group for e in catalog24]
    groups += [construct(parse_recipe(dsl)) for dsl in PREMISES32.values()]
    pairs = 0
    for g in groups:
        for n, comps in splitting_sides(g):
            q = quotient(g, n).target
            for k in comps:
                assert find_isomorphism(q, subgroup_as_group(k)[0]) is not None, (g, n, k)
                pairs += 1
    assert pairs == 3_127


def test_table_only_isomorphism_oracle(catalog16):
    # catalog16 holds one group per class, so the oracle must tell every
    # two of one order apart, the fingerprint collisions Q8×C2 / C4⋊C4 and
    # (C2×C2)⋊C4 / C4∘D4 among them; it must also match each group with
    # itself, and S3×C2 with D6 under another labelling
    for a in catalog16:
        for b in catalog16:
            if a.group.order == b.group.order:
                assert isomorphic_by_generators(a.group.table, b.group.table) == (a is b), (a, b)
    s3xc2 = construct(Product(Symmetric(3), Cyclic(2)))
    d6 = construct(Dihedral(6))
    assert isomorphic_by_generators(s3xc2.table, d6.table)
    assert not isomorphic_by_generators(s3xc2.table, construct(Cyclic(12)).table)


def test_premise_classes_match_naive_premise_count(catalog16):
    # the headline count and the H0s from tables alone: every ordered pair
    # (H, K) of normals with H∩K = 1 and |H||K| = |G|, crossed with the
    # normals N with N ≅ H and G/N ≅ K, all from subset filtering
    total = 0
    for entry in catalog16:
        count, h0s = premises_by_normals(entry.group)
        premises = premise_classes(entry.group)
        assert (premises.count, [h0.bits for h0 in premises.h0s]) == (count, h0s), entry.name
        total += count
    assert (len(catalog16), total) == (42, 24_483)


def test_premise_count_is_side_types_times_complement_counts(catalog24):
    # by the theorem the normals N with N ≅ H and G/N ≅ K are exactly the
    # sides of type (H, K), so the count is Σ over the sides H of
    # a(type of H) × |Hom(G/H, Z(H))|, with a(h, k) the number of sides of
    # type (h, k); the types and the Hom counts come from the tables alone
    def counted(g: Group) -> int:
        derived = derived_bits_by_commutators(g)
        types, side_types = [], []  # (N, G/N) tables of each type; each side's type
        for h, _ in splitting_sides(g):
            pair = (subgroup_table_by_members(g, h.bits), quotient_table_by_cosets(g, h.bits))
            for i, known in enumerate(types):
                if all(a == b or isomorphic_by_generators(a, b) for a, b in zip(known, pair)):
                    break
            else:
                i = len(types)
                types.append(pair)
            side_types.append((i, h))
        sizes = Counter(i for i, _ in side_types)
        return sum(sizes[i] * complement_count_by_homs(g, h.bits, derived)
                   for i, h in side_types)

    totals = []
    for groups in ([e.group for e in catalog24],
                   [construct(parse_recipe(dsl), name=name) for name, dsl in PREMISES32.items()]):
        total = 0
        for g in groups:
            count = counted(g)
            assert premise_classes(g).count == count, g.name
            total += count
        totals.append(total)
    assert totals == [24_547, 35_976]


def test_premise_classes_match_closed_form():
    # C1 has the one splitting {1, 1}, a single orientation
    for p, n in ((2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                 (3, 2), (3, 3), (5, 2), (7, 2)):
        recipe = Cyclic(p) if n else Cyclic(1)
        for _ in range(n - 1):
            recipe = Product(recipe, Cyclic(p))
        g = construct(recipe)
        premises = premise_classes(g)
        assert (premises.count, len(premises.h0s)) == elementary_abelian_premises(p, n), (p, n)
        # the splitting relation the property suite reads: every subgroup
        # of C_p^n is a direct factor, so the sides are all the normals
        splittings = all_direct_splittings(g)
        oriented = sum(len(comps) for _, comps in splitting_sides(g))
        assert oriented == elementary_abelian_splittings(p, n), (p, n)
        assert oriented == 2 * len(splittings) - (n == 0), (p, n)
        assert ({s.bits for pair in splittings for s in pair}
                == {m.bits for m in normal_subgroups(g)}), (p, n)
    assert elementary_abelian_premises(2, 5) == (3_105_954, 374)
    assert elementary_abelian_premises(2, 6) == (1_213_604_930, 2_825)
    assert ([elementary_abelian_splittings(p, n) for p, n in ((2, 0), (2, 4), (2, 5), (3, 3))]
            == [1, 802, 20_834, 236])


ALL_PASS = dict.fromkeys(
    ("prop_2_1", "prop_2_2", "prop_2_3", "cor_2_1", "prop_2_4", "prop_2_5",
     "lemma_4_1a", "lemma_4_1b", "lemma_4_2a", "lemma_4_2b"), "pass")


def test_verify_one_pins_c2_to_the_fifth():
    g = construct(parse_recipe("P(P(P(P(C(2),C(2)),C(2)),C(2)),C(2))"))
    out = harness._verify_one(("C2^5", g, 64))
    assert out["instances"] == 3_105_954
    assert out["violations"] == []
    assert out["properties"] == ALL_PASS
    assert "property_failures" not in out


def test_verify_one_pins_d4_times_c2_cubed():
    # the non-abelian order-64 group of the stress set
    g = construct(parse_recipe("P(P(P(D(4),C(2)),C(2)),C(2))"))
    out = harness._verify_one(("D4xC2^3", g, 64))
    assert out["instances"] == 297_154
    assert out["violations"] == []
    assert out["properties"] == ALL_PASS
    assert "property_failures" not in out


# order-128 groups whose lattices stay small: name -> (recipe DSL, instances)
ORDER_128 = {
    "C8xC4^2": ("P(P(C(8),C(4)),C(4))", 26_626),
    "C4^3xC2": ("P(P(P(C(4),C(4)),C(4)),C(2))", 1_807_362),
}


@pytest.mark.parametrize("name", ORDER_128)
def test_verify_one_pins_order_128(name):
    dsl, instances = ORDER_128[name]
    out = harness._verify_one((name, construct(parse_recipe(dsl)), 128))
    assert out["instances"] == instances
    assert out["violations"] == []
    assert out["properties"] == ALL_PASS
    assert "property_failures" not in out


def test_join_meet_is_the_factor_projection(catalog24):
    # cor_2_1 reads π_C(A) as A·B ∩ C for G = B×C and A normal; the
    # reference is the element-wise image under the map b·c -> c
    groups = [e.group for e in catalog24] + [construct(parse_recipe(dsl))
                                             for dsl in PREMISES32.values()]
    triples = 0
    for g in groups:
        normals = normal_subgroups(g)
        for b, comps in splitting_sides(g):
            for c in comps:
                proj = projection_by_products(g, b, c)
                for a in normals:
                    image = bits_of(proj[m] for m in a.members())
                    assert join_bits(g, a, b) & c.bits == image, (g.name, a, b, c)
                    triples += 1
    assert triples == 254_117


def test_property_suite_joins_each_coprime_pair_once(monkeypatch):
    g = construct(parse_recipe(PREMISES32["C4xC2xC2xC2"]))
    cache = IsoCache()
    premise_classes(g, cache=cache)
    fallbacks = []
    closure_bits = decomposition.closure_bits

    def counting(table, gens, bits=1, members=(0,)):
        fallbacks.append(bits)
        return closure_bits(table, gens, bits, members)

    monkeypatch.setattr(decomposition, "closure_bits", counting)
    assert all(v["pass"] for v in property_suite(g, cache=cache).values())
    # no projection table is built; cor_2_1 reads the joins of prop_2_3
    assert not any(isinstance(key, tuple) and key[0] == "proj" for key in g._cache)
    factors = sorted({s.bits: s for pair in all_direct_splittings(g) for s in pair}.values(),
                     key=Subgroup.sort_key)
    classes = [factor_classes(a, cache=cache) for a in factors]
    coprime_pairs = sum(1 for i, x in enumerate(classes) for y in classes[i:]
                        if x.isdisjoint(y))
    assert len(g._cache["joins"]) == coprime_pairs > len(factors)
    # every join of two direct factors is a normal the lattice listed, so
    # the lookup answers each one and no join falls back to the closure
    assert fallbacks == []


def test_cor_2_1_join_counts_and_a_wrong_join(monkeypatch):
    # cor_2_1 reads one join per side B and nontrivial factor A coprime to
    # B, all among the joins prop_2_3 made per coprime pair, and checks it
    # against every complement C of B: one check per (A, B, C)
    real = harness.join_bits
    for name, calls, triples, pairs in (("C4xC2xC2xC2", 901, 8_293, 502),
                                        ("D4xC2xC2", 359, 2_471, 200)):
        g = construct(parse_recipe(PREMISES32[name]))
        seen = []

        def counting(group, a, b):
            seen.append((a, b))
            return real(group, a, b)

        monkeypatch.setattr(harness, "join_bits", counting)
        assert all(v["pass"] for v in property_suite(g).values()), name
        assert (len(seen), len(g._cache["joins"])) == (calls, pairs), name
        assert len(set(seen)) == calls, name
        assert sum(len(direct_complements(g, b)) for _, b in seen) == triples, name
    # a wrong join for one pair fails cor_2_1 once per complement C of B
    a, b = seen[0]
    monkeypatch.setattr(harness, "join_bits",
                        lambda group, x, y: 0 if (x, y) == (a, b) else real(group, x, y))
    results = property_suite(g)
    failures = results["cor_2_1"]["failures"]
    assert failures == [{"a": a.members(), "b": b.members(), "c": c.members(), "image": []}
                        for c in direct_complements(g, b)]
    assert all(v["pass"] for name, v in results.items() if name != "cor_2_1")


def test_prop_2_1_fails_on_an_injected_superset(monkeypatch):
    # a superset L of a side H that is not a subgroup breaks L = H·(L∩K)
    g = construct(Product(Cyclic(2), Cyclic(2)))
    h = next(s for s in normal_subgroups(g) if s.order == 2)
    fake = Subgroup(g, h.bits | 1 << next(x for x in range(4) if not (h.bits >> x) & 1))
    real = harness.all_subgroups
    monkeypatch.setattr(harness, "all_subgroups",
                        lambda group, *, cap: real(group, cap=cap) + (fake,))
    results = property_suite(g)
    failures = results["prop_2_1"]["failures"]
    assert failures and all(f["l"] == fake.members() for f in failures)
    assert all(v["pass"] for name, v in results.items() if name != "prop_2_1")


def _fails_only(results: dict, name: str, expected: list) -> None:
    assert results[name]["failures"] == expected
    assert len(results) == 10
    assert all(v["pass"] for other, v in results.items() if other != name)


def test_prop_2_3_fails_on_a_wrong_join(monkeypatch):
    # a join of the wrong order for one coprime pair fails prop_2_3 once,
    # with its reason; cor_2_1 reads its joins through its own name
    g = construct(parse_recipe(PREMISES32["C4xC2xC2xC2"]))
    real = decomposition.join_bits
    wrong = []

    def once(group, a, b):
        if not wrong and a.order > 1 and b.order > 1:
            wrong.append((a, b))
            return a.bits | b.bits
        return real(group, a, b)

    monkeypatch.setattr(decomposition, "join_bits", once)
    results = property_suite(g)
    [(a, b)] = wrong
    _fails_only(results, "prop_2_3", [
        {"a": a.members(), "b": b.members(), "reason": "A·B is not a subgroup"}])


def test_prop_2_2_fails_on_a_wrong_centre_order(monkeypatch):
    # a side whose centre is reported with twice its order breaks
    # |Z(H)|·|Z(K)| = |Z(G)| once per unordered splitting {H, K} that has it.
    # The bits stay right, and Z(G) = G still has a subgroup of the halved
    # index meeting Z(H) trivially, so the lemmas on H as an H0 still pass
    g = construct(parse_recipe(PREMISES32["C4xC2xC2xC2"]))
    side = next(h for h, comps in splitting_sides(g) if h.order == 2 and len(comps) > 1)
    real = harness.center_of

    def wrong(group, sub):
        found = real(group, sub)
        if sub.bits != side.bits:
            return found
        return SimpleNamespace(bits=found.bits, order=2 * found.order)

    monkeypatch.setattr(harness, "center_of", wrong)
    results = property_suite(g)
    expected = [{"h": h.members(), "k": k.members()}
                for h, k in all_direct_splittings(g) if side in (h, k)]
    assert len(expected) == len(direct_complements(g, side)) > 1
    _fails_only(results, "prop_2_2", expected)


def test_prop_2_4_fails_when_every_normal_is_called_decomposable(monkeypatch):
    # with every normal D taken as directly decomposable, prop_2_4 fails once
    # for each D that the Remak factors Hᵢ do not fill, ∏|Hᵢ∩D| ≠ |D|
    g = construct(parse_recipe(PREMISES32["D4xC2xC2"]))
    monkeypatch.setattr(harness, "is_directly_decomposable", lambda group, d, *, cap: True)
    results = property_suite(g)
    factors = [set(f.members()) for f in remak_decomposition(g).factors]
    expected = []
    for d in normal_subgroups(g):
        members = set(d.members())
        product = 1
        for f in factors:
            product *= len(f & members)
        if product != len(members):
            expected.append({"d": d.members(), "kind": "factor product"})
    assert expected
    _fails_only(results, "prop_2_4", expected)


def test_prop_2_5_fails_when_g_derived_is_called_indecomposable(monkeypatch):
    # D4×C2 has G′ = Z(D4) = T′ for each of its normals T ⊇ G′ with
    # T′ = T∩G′; with G′ taken as not directly decomposable, prop_2_5 fails
    # once for each such T.  prop_2_4 only checks the decomposable normals
    g = construct(Product(Dihedral(4), Cyclic(2)))
    g_derived = derived_subgroup(g)
    real = harness.is_directly_decomposable
    monkeypatch.setattr(harness, "is_directly_decomposable",
                        lambda group, d, *, cap: d != g_derived and real(group, d, cap=cap))
    expected = []
    for t in normal_subgroups(g):
        t_derived = commutator_bits_by_products(g, t.bits, t.bits)
        if t_derived == t.bits & g_derived.bits == g_derived.bits:
            expected.append({"t": t.members(), "t_derived": g_derived.members()})
    assert len(expected) == 5
    _fails_only(property_suite(g), "prop_2_5", expected)


def _d4xc2_h0s():
    """D4×C2 and its H0s: 1, two central C2s outside G′, four copies of D4
    and G.  Each lemma test patches one H0 after the first."""
    g = construct(Product(Dihedral(4), Cyclic(2)))
    h0s = premise_classes(g).h0s
    assert [h0.order for h0 in h0s] == [1, 2, 2, 8, 8, 8, 8, 16]
    return g, h0s


def test_lemma_4_1a_fails_on_a_wrong_derived_subgroup(monkeypatch):
    # H0′ of a central C2 reported as H0 itself, with its true order 1:
    # H0′ ≠ H0∩G′, while a normal of order |G:H0| still meets H0 in the
    # reported H0′, and the side orders of prop_2_2 are unchanged
    g, h0s = _d4xc2_h0s()
    h0 = h0s[2]
    real = harness.derived_of
    monkeypatch.setattr(harness, "derived_of", lambda group, sub: SimpleNamespace(
        bits=sub.bits, order=1) if sub == h0 else real(group, sub))
    _fails_only(property_suite(g), "lemma_4_1a", [{"h0": h0.members()}])


def test_lemma_4_1b_fails_without_a_supplement_of_h0(monkeypatch):
    # for H0 = G the normals of order |G:H0|·|H0′| = 2 lose G′, the one
    # meeting H0 in H0′, so lemma_4_1b finds no M for this H0 alone; the
    # lemma_4_2b complements of order 2 are the other central C2s
    g, h0s = _d4xc2_h0s()
    h0 = h0s[-1]
    h0_derived = derived_of(g, h0)
    key = g.order // h0.order * h0_derived.order
    real = harness._normals_of_order

    def without_witnesses(group, *, cap):
        by_order = dict(real(group, cap=cap))
        by_order[key] = [m for m in by_order[key] if m.bits & h0.bits != h0_derived.bits]
        return by_order

    monkeypatch.setattr(harness, "_normals_of_order", without_witnesses)
    _fails_only(property_suite(g), "lemma_4_1b", [{"h0": h0.members()}])


def test_lemma_4_2a_fails_on_a_wrong_centre(monkeypatch):
    # Z(H0) of a central C2 reported as another central subgroup of its
    # order: Z(H0) ≠ H0∩Z(G), while it still lies in Z(G) and has a
    # complement there
    g, h0s = _d4xc2_h0s()
    h0 = h0s[2]
    other = next(m for m in normal_subgroups(g)
                 if m.order == h0.order and m != h0 and not m.bits & ~center(g).bits)
    real = harness.center_of
    monkeypatch.setattr(harness, "center_of",
                        lambda group, sub: other if sub == h0 else real(group, sub))
    _fails_only(property_suite(g), "lemma_4_2a", [{"h0": h0.members()}])


def test_lemma_4_2b_fails_without_a_central_complement(monkeypatch):
    # for H0 = G the normals of order |Z(G)|/|Z(H0)| = 1 lose the trivial
    # subgroup, so lemma_4_2b finds no complement for this H0 alone;
    # lemma_4_1b never looks up order 1 here
    g, h0s = _d4xc2_h0s()
    h0 = h0s[-1]
    z, h0_center = center(g), center_of(g, h0)
    key = z.order // h0_center.order
    real = harness._normals_of_order

    def without_complements(group, *, cap):
        by_order = dict(real(group, cap=cap))
        by_order[key] = [m for m in by_order[key]
                         if m.bits & h0_center.bits != 1 or m.bits & ~z.bits]
        return by_order

    monkeypatch.setattr(harness, "_normals_of_order", without_complements)
    _fails_only(property_suite(g), "lemma_4_2b", [{"h0": h0.members()}])


def test_verify_one_keeps_no_tuple_of_pairs():
    # the splitting relation is stored once, per side; verify never builds
    # the ``all_direct_splittings`` view of unordered pairs
    g = construct(parse_recipe(PREMISES32["D4xC2xC2"]))
    out = harness._verify_one(("D4xC2xC2", g, 64))
    assert (out["instances"], out["properties"]) == (2_146, ALL_PASS)
    # the H0s the lemmas walk
    assert len(premise_classes(g).h0s) == 40

    def is_pair(x):
        return isinstance(x, tuple) and len(x) == 2 and all(isinstance(s, Subgroup) for s in x)

    pairs = [key for key, value in g._cache.items()
             if isinstance(value, tuple) and value and all(map(is_pair, value))]
    assert pairs == []
    assert "sides" in g._cache and "splittings" not in g._cache


def test_property_suite_set_facts(catalog24):
    # the suite reads direct factors as splitting sides, and looks T′ up
    # among the normals
    for entry in catalog24:
        g = entry.group
        normals = normal_subgroups(g)
        sides = {s.bits for pair in all_direct_splittings(g) for s in pair}
        assert sides == {n.bits for n in normals if direct_complements(g, n)}, entry.name
        normal_bits = {n.bits for n in normals}
        assert all(derived_of(g, t).bits in normal_bits for t in normals), entry.name


def _bare_of_a_side_class(g):
    """The normals with no direct complement that are isomorphic to some
    splitting side, the tables compared by ``isomorphic_by_generators``."""
    sides = {subgroup_table_by_members(g, h.bits) for h, _ in splitting_sides(g)}
    like_a_side = {}  # table -> isomorphic to some side
    out = []
    for n in normal_subgroups(g):
        table = subgroup_table_by_members(g, n.bits)
        if table not in like_a_side:
            like_a_side[table] = any(isomorphic_by_generators(table, s) for s in sides)
        if like_a_side[table] and not direct_complements(g, n):
            out.append(n)
    return out


def test_premise_classes_classify_each_normal_once():
    class CountingCache(IsoCache):
        def __init__(self):
            super().__init__()
            self.calls = []

        def class_of(self, sub):
            self.calls.append(sub)
            return super().class_of(sub)

    g = construct(parse_recipe(PREMISES32["D4xC2xC2"]))
    sides = {s.order for pair in all_direct_splittings(g) for s in pair}
    classified = [n for n in normal_subgroups(g) if n.order in sides]
    bare = _bare_of_a_side_class(g)
    cache = CountingCache()
    premise_classes(g, cache=cache)
    # one lookup per normal N, in g's own indices, none per splitting; G/N
    # is looked up only when N has no direct complement to read it off and
    # N is of some side's class, as every H0 is
    assert (len(classified), len(bare)) == (78, 12)
    assert cache.calls == classified + [whole_subgroup(quotient(g, n).target) for n in bare]


def _memo_bits(group, kind):
    return {key[1] for key in group._cache if isinstance(key, tuple) and key[0] == kind}


def test_premise_classes_build_one_group_per_derived_table(monkeypatch):
    # a table is built only for what needs one: a subgroup table for each
    # proper non-abelian normal, which is searched, and a quotient table for
    # each normal of a side's class with no direct complement.  The four
    # groups stay alive together, so each such table is built once for all
    # of them; ``before`` keeps the groups other live parents had already
    # interned alive, and those are not rebuilt
    built = []
    init = Group.__init__

    def counting_init(self, table, **kwargs):
        init(self, table, **kwargs)
        built.append(self.table)

    groups = [construct(parse_recipe(dsl)) for dsl in PREMISES32.values()]
    before = dict(subgroups._derived_groups)
    with monkeypatch.context() as m:
        m.setattr(Group, "__init__", counting_init)
        for g in groups:
            premise_classes(g)
    derived = {}
    shape = []
    for name, g in zip(PREMISES32, groups):
        sides = {s.order for pair in all_direct_splittings(g) for s in pair}
        classified = [n for n in normal_subgroups(g) if n.order in sides]
        searched = [n for n in classified
                    if n.order < g.order and not subgroup_fingerprint(n).abelian]
        bare = _bare_of_a_side_class(g)
        assert _memo_bits(g, "as_group") == {n.bits for n in searched}, name
        assert _memo_bits(g, "quotient") == {n.bits for n in bare}, name
        shape.append((len(classified), len(searched), len(bare)))
        for h in ([subgroup_as_group(n)[0] for n in searched]
                  + [quotient(g, n).target for n in bare]):
            assert derived.setdefault(h.table, h) is h, name
    assert shape == [(118, 0, 15), (78, 28, 12), (78, 28, 4), (54, 0, 9)]
    assert sorted(built) == sorted(derived.keys() - before.keys())
    # a fresh parent of the same recipe builds no derived group at all
    fresh = construct(parse_recipe(PREMISES32["D4xC2xC2"]))
    built.clear()
    with monkeypatch.context() as m:
        m.setattr(Group, "__init__", counting_init)
        premise_classes(fresh)
    assert built == []


def test_derived_groups_die_with_their_parents():
    # the intern holds its groups weakly: once every parent is gone, so are
    # the groups that only they derived
    gc.collect()
    before = dict(subgroups._derived_groups)
    groups = [construct(parse_recipe(dsl)) for dsl in PREMISES32.values()]
    for g in groups:
        premise_classes(g)
    added = subgroups._derived_groups.keys() - before.keys()
    assert added
    del g, groups
    gc.collect()
    assert added.isdisjoint(subgroups._derived_groups.keys())


def test_premise_counts_match_benchmark_reference():
    ref_path = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
    ops = json.loads(ref_path.read_text(encoding="utf-8"))["workloads"]["premises32"]["ops"]
    entries = []
    for name, dsl in PREMISES32.items():
        recipe = parse_recipe(dsl)
        group = construct(recipe, name=name)
        entries.append(CatalogEntry(name, recipe, group, fingerprint(group)))
    report = verify_catalog(entries, VerifyConfig(max_order=32))
    counts = {g["name"]: g["instances"] for g in report.groups}
    assert counts == {name: ops[name]["instances"] for name in PREMISES32}
    assert sorted(counts.values()) == [2146, 2146, 2434, 29250]


def test_violation_serializes_the_instances_of_its_h0(monkeypatch):
    g = construct(Product(Dihedral(4), Cyclic(2)), name="D4xC2")
    target = next(h0 for h0 in premise_classes(g).h0s if 1 < h0.order < g.order)
    real = harness.direct_complements

    def no_complement_for_target(group, normal, **kwargs):
        if group is g and normal.bits == target.bits:
            return []
        return real(group, normal, **kwargs)

    monkeypatch.setattr(harness, "direct_complements", no_complement_for_target)
    expected = [
        {"group": group_to_json_dict(g), "instance": harness._instance_json_dict(inst)}
        for inst in extension_instances(g)
        if inst.h0.bits == target.bits
    ]
    assert expected
    out = harness._verify_one(("D4xC2", g, 64))
    assert json.dumps(out["violations"], sort_keys=True) == json.dumps(expected, sort_keys=True)
    report = verify_catalog([CatalogEntry("D4xC2", g.recipe, g, fingerprint(g))],
                            VerifyConfig(max_order=16))
    assert report.status == "FAIL"
    assert report.summary["violations"] == len(expected)


def test_a_violation_builds_only_the_instances_of_its_h0(monkeypatch):
    # C2^5 has 3,105,954 instances.  An order-16 H0 denied a complement is
    # one violation per oriented splitting (H, K) of its type (C2^4, C2):
    # 31 sides H, each with 16 complements K.  Only those 496 are built
    g = construct(parse_recipe("P(P(P(P(C(2),C(2)),C(2)),C(2)),C(2))"), name="C2^5")
    target = next(h0 for h0 in premise_classes(g).h0s if h0.order == 16)
    real_complements, real_instance = harness.direct_complements, harness.ExtensionInstance
    built = []

    def no_complement_for_target(group, normal, **kwargs):
        if group is g and normal.bits == target.bits:
            return []
        return real_complements(group, normal, **kwargs)

    def counting(*fields):
        built.append(fields[1].bits)
        assert len(built) <= 496, "an instance of another H0 was built"
        return real_instance(*fields)

    monkeypatch.setattr(harness, "direct_complements", no_complement_for_target)
    monkeypatch.setattr(harness, "ExtensionInstance", counting)
    out = harness._verify_one(("C2^5", g, 64))
    assert out["instances"] == 3_105_954
    assert len(out["violations"]) == len(built) == 496
    assert set(built) == {target.bits}
    instances = [v["instance"] for v in out["violations"]]
    assert all(inst["h0"] == target.members() for inst in instances)
    assert len({(tuple(inst["h"]), tuple(inst["k"])) for inst in instances}) == 496
    assert {(len(inst["h"]), len(inst["k"])) for inst in instances} == {(16, 2)}
    assert set(out["properties"].values()) == {"pass"}


def test_an_h0_without_a_complement_is_classified_by_its_quotient(monkeypatch):
    # a normal that broke the theorem would be an H0 with no complement.
    # Patched before premise_classes runs, one real H0 of D4xC2 looks so:
    # it must still be bucketed, by its quotient, beside the same normals,
    # the count must not change, and verify must report each of its
    # instances as a violation
    recipe = Product(Dihedral(4), Cyclic(2))
    honest = construct(recipe, name="D4xC2")
    premises = premise_classes(honest)
    target = next(h0 for h0 in premises.h0s if 1 < h0.order < honest.order)
    assert ("quotient", target.bits) not in honest._cache  # G/H0 read off a complement
    expected = [
        {"group": group_to_json_dict(honest), "instance": harness._instance_json_dict(inst)}
        for inst in extension_instances(honest)
        if inst.h0.bits == target.bits
    ]
    g = construct(recipe, name="D4xC2")
    real = harness.direct_complements

    def no_complement_for_target(group, normal, **kwargs):
        if group is g and normal.bits == target.bits:
            return ()
        return real(group, normal, **kwargs)

    monkeypatch.setattr(harness, "direct_complements", no_complement_for_target)
    out = harness._verify_one(("D4xC2", g, 64))
    patched = premise_classes(g)
    assert ("quotient", target.bits) in g._cache
    assert (sorted(tuple(n.bits for n in ns) for ns in patched.buckets.values())
            == sorted(tuple(n.bits for n in ns) for ns in premises.buckets.values()))
    assert out["instances"] == patched.count == premises.count
    assert [h0.bits for h0 in patched.h0s] == [h0.bits for h0 in premises.h0s]
    assert expected
    assert json.dumps(out["violations"], sort_keys=True) == json.dumps(expected, sort_keys=True)
    assert set(out["properties"].values()) == {"pass"}


def test_central_complements_match_extracted_center(catalog24):
    # lemma_4_2b looks for a complement of Z(H0) among the normals of G
    # inside Z(G); the reference is direct_complements in the extracted Z(G)
    for entry in catalog24:
        g = entry.group
        z = center(g)
        zg, members = subgroup_as_group(z)
        central = [m for m in normal_subgroups(g) if not m.bits & ~z.bits]
        assert len(central) == len(all_subgroups(zg)), entry.name
        for n in all_subgroups(zg):
            n_bits = bits_of(members[i] for i in n.members())
            in_parent = any(m.order * n.order == z.order and m.bits & n_bits == 1
                            for m in central)
            assert in_parent == bool(direct_complements(zg, n)), (entry.name, n.members())


def test_verify_builds_one_lattice_per_group():
    # fresh groups: no other test has filled their memos.  Derived groups are
    # shared with other live parents, so only lattices built by this run count
    entries = []
    for e in builtin_catalog(24):
        group = construct(e.recipe, name=e.name)
        entries.append(CatalogEntry(e.name, e.recipe, group, fingerprint(group)))
    had_lattice = {h for h in list(subgroups._derived_groups.values())
                   if "all_subgroups" in h._cache}
    verify_catalog(entries, VerifyConfig(max_order=24, jobs=1))
    for e in entries:
        assert "all_subgroups" in e.group._cache, e.name
        for key, value in e.group._cache.items():
            if isinstance(key, tuple) and key[0] in ("as_group", "quotient"):
                held = value[0] if key[0] == "as_group" else value.target
                assert held in had_lattice or "all_subgroups" not in held._cache, (e.name, key)
