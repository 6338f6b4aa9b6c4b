import hashlib
import itertools
import math
import random

import pytest

from groupkit.core import (
    Cyclic,
    Dicyclic,
    Dihedral,
    Product,
    Symmetric,
    construct,
    element_order,
    exponent,
    is_abelian,
    parse_recipe,
)
from groupkit import decomposition
from groupkit.catalog import abelian_p_group_catalog
from groupkit.decomposition import (
    all_direct_splittings,
    combine_coprime_factors,
    cyclic_max_complement,
    direct_complements,
    factor_classes,
    is_coprime,
    is_directly_decomposable,
    is_internal_direct,
    join_bits,
    project_onto_factor,
    remak_decomposition,
    splitting_sides,
)
from groupkit.errors import NotASplitting, NotNormal, PreconditionFailed
from groupkit.iso import IsoCache, find_isomorphism
from groupkit.subgroups import (
    Subgroup,
    all_subgroups,
    bits_of,
    center,
    center_of,
    commutator,
    derived_of,
    derived_subgroup,
    generate_subgroup,
    is_normal_bits,
    members_of,
    normal_subgroups,
    quotient,
    subgroup_as_group,
    trivial_subgroup,
    whole_subgroup,
)

from conftest import (
    PREMISES32,
    closure_by_words,
    complement_count_by_homs,
    complements_by_scan,
    derived_bits_by_commutators,
    is_direct_by_members,
    product_set_by_members,
    projection_by_products,
)


def s3():
    return construct(Symmetric(3))


def v4():
    return construct(Product(Cyclic(2), Cyclic(2)))


def test_internal_direct_trivial_cases():
    g = s3()
    assert is_internal_direct(g, [whole_subgroup(g)])
    assert is_internal_direct(g, [trivial_subgroup(g), whole_subgroup(g)])


def test_internal_direct_rejects_nonnormal_factor():
    g = s3()
    rot = generate_subgroup(g, [next(x for x in range(6) if element_order(g, x) == 3)])
    ref = generate_subgroup(g, [next(x for x in range(6) if element_order(g, x) == 2)])
    assert not is_internal_direct(g, [rot, ref])


def test_internal_direct_pairs_match_the_complement_lattice(catalog24):
    # two implementations of the pair test: only direct_complements reads
    # the lattice of normals
    recipes = [e.recipe for e in catalog24] + [parse_recipe(dsl) for dsl in PREMISES32.values()]
    for recipe in recipes:
        g = construct(recipe)
        normals = normal_subgroups(g)
        for n in normals:
            comps = direct_complements(g, n)
            for k in normals:
                assert is_internal_direct(g, [n, k]) == (k in comps), (recipe, n, k)


def test_internal_direct_matches_the_member_oracle(catalog16):
    # every ordered pair and triple of subgroups, normal or not
    for entry in catalog16:
        g = entry.group
        if g.order > 12:
            continue
        subs = all_subgroups(g)
        for factors in [*itertools.product(subs, repeat=2), *itertools.product(subs, repeat=3)]:
            want = is_direct_by_members(g, [f.bits for f in factors])
            assert is_internal_direct(g, factors) == want, (entry.name, factors)


def test_direct_complements_trivial():
    g = s3()
    assert direct_complements(g, trivial_subgroup(g)) == (whole_subgroup(g),)


def test_direct_complements_v4():
    g = v4()
    one = generate_subgroup(g, [1])
    comps = direct_complements(g, one)
    assert len(comps) == 2
    assert sorted(c.members() for c in comps) == [[0, 2], [0, 3]]


def test_q8_center_has_no_complement():
    q8 = construct(Dicyclic(2))
    assert direct_complements(q8, center(q8)) == ()


def test_direct_complements_requires_normal():
    g = s3()
    ref = generate_subgroup(g, [next(x for x in range(6) if element_order(g, x) == 2)])
    for _ in range(2):  # a refused search is not memoized
        with pytest.raises(NotNormal):
            direct_complements(g, ref)


def test_complements_match_brute_force_oracle(catalog24):
    for entry in catalog24:
        g = entry.group
        for n in normal_subgroups(g):
            got = [c.bits for c in direct_complements(g, n)]
            assert got == complements_by_scan(g, n.bits), (entry.name, n.members())


def test_all_direct_splittings_examples():
    q8 = construct(Dicyclic(2))
    assert len(all_direct_splittings(q8)) == 1  # only {1, G}
    pairs = all_direct_splittings(v4())
    assert len(pairs) == 4  # trivial + three order-2 pairs
    c6_pairs = all_direct_splittings(construct(Cyclic(6)))
    assert len(c6_pairs) == 2
    nontrivial = [p for p in c6_pairs if p[0].order > 1]
    assert {p[0].order for p in nontrivial} == {2}
    assert {p[1].order for p in nontrivial} == {3}


def test_all_splittings_are_internal_direct(catalog16):
    for entry in catalog16:
        g = entry.group
        for h, k in all_direct_splittings(g):
            assert is_internal_direct(g, [h, k]), entry.name


def test_remak_examples():
    orders = sorted(f.order for f in remak_decomposition(construct(Cyclic(12))).factors)
    assert orders == [3, 4]
    assert [f.order for f in remak_decomposition(s3()).factors] == [6]
    g = construct(Product(Dihedral(4), Cyclic(2)))
    factors = remak_decomposition(g).factors
    assert sorted(f.order for f in factors) == [2, 8]
    big = next(f for f in factors if f.order == 8)
    assert find_isomorphism(subgroup_as_group(big)[0], construct(Dihedral(4))) is not None


def test_remak_factors_are_indecomposable_internal_direct(catalog16):
    for entry in catalog16:
        g = entry.group
        factors = remak_decomposition(g).factors
        assert is_internal_direct(g, factors), entry.name
        for f in factors:
            fg, _ = subgroup_as_group(f)
            nontrivial = [p for p in all_direct_splittings(fg) if p[0].order > 1 and p[1].order > 1]
            assert not nontrivial, entry.name


def test_direct_factor_lattice_comes_from_parent(catalog24):
    # the other factor centralises a direct factor F, so F's normal
    # subgroups are the parent's normals inside F, and so are its Remak factors
    cache = IsoCache()
    groups = [e.group for e in catalog24]
    groups += [construct(parse_recipe(dsl), name=name) for name, dsl in PREMISES32.items()]
    for g in groups:
        normals = normal_subgroups(g)
        for s in normals:
            if not direct_complements(g, s):
                continue
            fg, members = subgroup_as_group(s)
            lifted = [bits_of(members[i] for i in n.members()) for n in normal_subgroups(fg)]
            assert lifted == [n.bits for n in normals if not n.bits & ~s.bits], g.name
            # the classes of F's own Remak factors, read in F's indices
            extracted = {cache.class_of(f)
                         for f in remak_decomposition(fg).factors if f.order > 1}
            assert factor_classes(s, cache=cache) == extracted, (g.name, s.members())


def test_factor_classes_requires_a_direct_factor():
    cache = IsoCache()
    c4 = construct(Cyclic(4))
    d4 = construct(Dihedral(4))
    reflection = next(s for s in all_subgroups(d4)
                      if s.order == 2 and not is_normal_bits(d4, s.bits))
    # <2> of C4 is normal but has no complement; a reflection of D4 is not normal
    for sub in (generate_subgroup(c4, [2]), reflection):
        with pytest.raises(PreconditionFailed, match="not a direct factor"):
            factor_classes(sub, cache=cache)
    # factor_classes reads its group from the subgroup, so a subgroup of
    # another group is refused where a group is passed beside it
    v4_factor = generate_subgroup(v4(), [1])
    assert factor_classes(v4_factor, cache=cache)
    with pytest.raises(PreconditionFailed, match="another group"):
        combine_coprime_factors(c4, v4_factor, trivial_subgroup(c4))
    with pytest.raises(PreconditionFailed, match="another group"):
        combine_coprime_factors(c4, trivial_subgroup(c4), v4_factor)


# order-64 groups with many Remak decompositions, as recipe DSL
ORDER_64 = {
    "D4xC2^3": "P(P(P(D(4),C(2)),C(2)),C(2))",
    "C4^2xC2^2": "P(P(P(C(4),C(4)),C(2)),C(2))",
    "C4xC2^4": "P(P(P(P(C(4),C(2)),C(2)),C(2)),C(2))",
}
# sha256 of repr([(name, Remak factor bits, [(D bits, cyclic_max_complement
# bits) for each maximal-order cyclic D of an abelian p-group])]) over the
# groups of the test below, as the scan over pairs of normals chose them
DECOMPOSITION_SHA256 = "a7487fc69767d8517d1d13e692cb9c163fb7fc7b60286c9a5f65c525958a94a0"


def test_decomposition_choices_pinned(catalog24):
    groups = [(e.name, e.group) for e in catalog24]
    groups += [(name, construct(parse_recipe(dsl)))
               for name, dsl in {**PREMISES32, **ORDER_64}.items()]
    rows = []
    complements = 0
    for name, g in groups:
        n = g.order
        primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
        pairs = []
        if is_abelian(g) and len(primes) <= 1:
            exp = exponent(g)
            for d in all_subgroups(g):
                if d.order == exp and any(element_order(g, x) == exp for x in d.members()):
                    pairs.append((d.bits, cyclic_max_complement(g, d).bits))
        rows.append((name, [f.bits for f in remak_decomposition(g).factors], pairs))
        complements += len(pairs)
    assert (len(rows), complements) == (70, 117)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == DECOMPOSITION_SHA256


def test_complement_counts_match_hom_counts(catalog24):
    # the normal complements of a direct factor N are the graphs of the
    # homomorphisms G/N -> Z(N); the count is computed from the table alone
    def checked(groups) -> int:
        factors = 0
        for g in groups:
            derived = derived_bits_by_commutators(g)
            for n in normal_subgroups(g):
                comps = direct_complements(g, n)
                if comps:
                    assert len(comps) == complement_count_by_homs(g, n.bits, derived), (
                        g.name, n.members())
                    factors += 1
        return factors

    groups = [e.group for e in catalog24]
    groups += [construct(parse_recipe(dsl), name=name) for name, dsl in PREMISES32.items()]
    assert checked(groups) == 513
    # every abelian p-group of order at most 64, C2^6 and its 2,825 factors included
    p_groups = abelian_p_group_catalog(64)
    assert len(p_groups) == 55
    assert checked([e.group for e in p_groups]) == 4_663


def test_is_coprime_examples():
    assert is_coprime(construct(Cyclic(2)), construct(Cyclic(3)))
    assert not is_coprime(construct(Cyclic(2)), construct(Product(Cyclic(2), Cyclic(3))))
    assert is_coprime(s3(), construct(Cyclic(6)))


def test_is_coprime_matches_direct_factor_brute_force(catalog16):
    # quantify over all direct factors directly, not just Remak factors
    cache = IsoCache()

    def factor_classes(g):
        reps = []
        for n in normal_subgroups(g):
            if n.order > 1 and direct_complements(g, n):
                extracted, _ = subgroup_as_group(n)
                if not any(cache.isomorphic(extracted, r) for r in reps):
                    reps.append(extracted)
        return reps

    classes = {e.name: factor_classes(e.group) for e in catalog16}
    for i, a in enumerate(catalog16):
        for b in catalog16[i:]:
            expected = not any(
                cache.isomorphic(fa, fb)
                for fa in classes[a.name]
                for fb in classes[b.name]
            )
            assert is_coprime(a.group, b.group) == expected, (a.name, b.name)


def test_combine_coprime_trivial():
    g = s3()
    t = trivial_subgroup(g)
    out = combine_coprime_factors(g, t, t)
    assert isinstance(out, Subgroup) and out.order == 1


def test_combine_coprime_c2_c3():
    g = construct(Product(Cyclic(2), Cyclic(3)))
    c3 = generate_subgroup(g, [1])
    c2 = generate_subgroup(g, [3])
    assert {c3.order, c2.order} == {3, 2}
    out = combine_coprime_factors(g, c2, c3)
    assert isinstance(out, Subgroup) and out.order == 6


def test_combine_coprime_s3xc2():
    g = construct(Product(Symmetric(3), Cyclic(2)))
    s3_factor = generate_subgroup(g, [x * 2 for x in range(1, 6)])
    central = generate_subgroup(g, [1])
    assert s3_factor.order == 6 and central.order == 2
    out = combine_coprime_factors(g, s3_factor, central)
    assert isinstance(out, Subgroup) and out.order == 12
    assert s3_factor.bits & central.bits == 1


def test_combine_coprime_preconditions():
    q8 = construct(Dicyclic(2))
    with pytest.raises(PreconditionFailed):
        combine_coprime_factors(q8, center(q8), trivial_subgroup(q8))
    g = v4()
    a = generate_subgroup(g, [1])
    b = generate_subgroup(g, [2])
    with pytest.raises(PreconditionFailed):
        combine_coprime_factors(g, a, b)  # both are C2: not coprime


def test_project_onto_factor_examples():
    g = v4()
    a = generate_subgroup(g, [2])
    b = generate_subgroup(g, [1])
    diag = generate_subgroup(g, [3])
    assert project_onto_factor(g, (a, b), b).bits == b.bits
    assert project_onto_factor(g, (a, b), a).order == 1
    assert project_onto_factor(g, (a, b), diag).bits == b.bits


def test_project_onto_factor_matches_products(catalog16):
    # π_K(X) = X·H ∩ K holds for every subgroup X, normal or not
    pairs = non_normal = 0
    for entry in catalog16:
        g = entry.group
        normal_bits = {n.bits for n in normal_subgroups(g)}
        for h, comps in splitting_sides(g):
            for k in comps:
                proj = projection_by_products(g, h, k)
                for x in all_subgroups(g):
                    image = bits_of(proj[m] for m in x.members())
                    assert project_onto_factor(g, (h, k), x).bits == image, (entry.name, h, k, x)
                    pairs += 1
                    non_normal += x.bits not in normal_bits
    assert pairs == 59_301 and non_normal > 0


def _counting_closures(monkeypatch) -> list:
    calls = []
    kernel = decomposition.closure_bits

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(decomposition, "closure_bits", counting)
    return calls


def test_join_bits_of_normals_match_the_closure_oracle(catalog24, monkeypatch):
    # every unordered pair of normals, joined on fresh groups twice: before
    # the normals are listed by order every join is closed, after it every
    # join is read off the listed normals; both must be ⟨A ∪ B⟩
    closures = _counting_closures(monkeypatch)
    recipes = [e.recipe for e in catalog24] + [parse_recipe(dsl) for dsl in PREMISES32.values()]
    pairs = 0
    for recipe in recipes:
        g = construct(recipe)
        normals = normal_subgroups(g)
        expected = {(a, b): closure_by_words(g, members_of(a.bits | b.bits))
                    for i, a in enumerate(normals) for b in normals[i:]}
        for listed in (False, True):
            if listed:
                decomposition._normals_of_order(g, cap=64)
            g._cache.pop("joins", None)
            closures.clear()
            for (a, b), want in expected.items():
                assert join_bits(g, a, b) == join_bits(g, b, a) == want, (recipe, a, b)
            assert len(closures) == (0 if listed else len(expected)), recipe
        pairs += len(expected)
    assert pairs == 19_205


def test_join_bits_with_a_non_normal_factor(catalog24, monkeypatch):
    # project_onto_factor joins X·H for a side H and any subgroup X.  With
    # X not normal the lookup finds X·H when it is a listed normal, and
    # otherwise misses, so the closure answers; both must be ⟨X ∪ H⟩
    closures = _counting_closures(monkeypatch)
    recipes = [e.recipe for e in catalog24 if not is_abelian(e.group)]
    recipes += [parse_recipe(PREMISES32[name]) for name in ("D4xC2xC2", "Q8xC2xC2")]
    looked_up = closed = 0
    for recipe in recipes:
        g = construct(recipe)
        sides = splitting_sides(g)  # lists the normals by order
        normal_bits = {n.bits for n in normal_subgroups(g)}
        for x in all_subgroups(g):
            if x.bits in normal_bits:
                continue
            for h, _ in sides:
                before = len(closures)
                want = closure_by_words(g, members_of(x.bits | h.bits))
                assert join_bits(g, x, h) == want, (recipe, x, h)
                if len(closures) == before:
                    looked_up += 1
                    assert want in normal_bits
                else:
                    closed += 1
                    assert want not in normal_bits
    assert looked_up > 0 and closed > 0


def test_project_requires_splitting():
    g = v4()
    a = generate_subgroup(g, [1])
    with pytest.raises(NotASplitting):
        project_onto_factor(g, (a, a), a)
    # S3 = C3·C2 with trivial meet and the right orders, but C2 is not normal
    s3 = construct(Symmetric(3))
    c3 = next(s for s in all_subgroups(s3) if s.order == 3)
    c2 = next(s for s in all_subgroups(s3) if s.order == 2)
    for pair in ((c3, c2), (c2, c3)):
        with pytest.raises(NotASplitting):
            project_onto_factor(s3, pair, c2)


def test_subgroup_of_another_group_is_rejected():
    g = v4()
    # {0, 2} is a subgroup of C4, and its bits are also a subgroup of V4
    foreign = generate_subgroup(construct(Cyclic(4)), [2])
    a = generate_subgroup(g, [1])
    b = generate_subgroup(g, [2])
    calls = [
        lambda: direct_complements(g, foreign),
        lambda: quotient(g, foreign),
        lambda: is_directly_decomposable(g, foreign),
        lambda: center_of(g, foreign),
        lambda: derived_of(g, foreign),
        lambda: commutator(g, a, foreign),
        lambda: is_internal_direct(g, [a, foreign]),
        lambda: combine_coprime_factors(g, foreign, trivial_subgroup(g)),
        lambda: project_onto_factor(g, (a, b), foreign),
        lambda: project_onto_factor(g, (a, foreign), a),
        lambda: project_onto_factor(g, (foreign, b), a),
        lambda: cyclic_max_complement(g, foreign),
    ]
    for call in calls:
        with pytest.raises(PreconditionFailed, match="another group"):
            call()


def test_directly_decomposable_examples():
    g = v4()
    assert is_directly_decomposable(g, trivial_subgroup(g))
    assert is_directly_decomposable(g, whole_subgroup(g))
    assert not is_directly_decomposable(g, generate_subgroup(g, [3]))


def test_order_tests_match_product_sets(catalog16):
    # is_directly_decomposable and prop_2_1 compare orders where they once
    # built product sets; both sides lie in one subgroup and meet trivially.
    # So do the prop_2_2 and prop_2_4 tests of the property suite
    verdicts, verdicts_2_4 = set(), set()
    for entry in catalog16:
        g = entry.group
        subs = all_subgroups(g)
        splittings = all_direct_splittings(g)
        for d in subs:
            by_products = all(
                product_set_by_members(g, h.bits & d.bits, k.bits & d.bits) == d.bits
                for h, k in splittings
            )
            assert is_directly_decomposable(g, d) == by_products, (entry.name, d.members())
            verdicts.add(by_products)
        for pair in splittings:
            for h, k in (pair, pair[::-1]):
                for l in subs:
                    if h.bits & ~l.bits:
                        continue
                    lk = Subgroup(g, l.bits & k.bits)
                    assert ((product_set_by_members(g, h.bits, lk.bits) == l.bits)
                            == (h.order * lk.order == l.order))
        # prop_2_2: D(H)·D(K) = G′ and Z(H)·Z(K) = Z(G) by orders
        g_derived, g_center = derived_subgroup(g), center(g)
        for h, k in splittings:
            dh, dk = derived_of(g, h), derived_of(g, k)
            zh, zk = center_of(g, h), center_of(g, k)
            assert ((product_set_by_members(g, dh.bits, dk.bits) == g_derived.bits)
                    == (dh.order * dk.order == g_derived.order)), entry.name
            assert ((product_set_by_members(g, zh.bits, zk.bits) == g_center.bits)
                    == (zh.order * zk.order == g_center.order)), entry.name
        # prop_2_4: ∏|Hᵢ∩D| = |D| against the join of the Hᵢ∩D and the
        # splitting of G/D along the images HᵢD/D
        factors = remak_decomposition(g).factors
        for d in normal_subgroups(g):
            join = 1
            for hi in factors:
                join = product_set_by_members(g, join, hi.bits & d.bits)
            qm = quotient(g, d)
            images = []
            for hi in factors:
                hd = members_of(product_set_by_members(g, hi.bits, d.bits))
                images.append(Subgroup(qm.target, bits_of(qm.projection[x] for x in hd)))
            by_products = join == d.bits and is_internal_direct(qm.target, images)
            by_orders = math.prod((hi.bits & d.bits).bit_count() for hi in factors) == d.order
            assert by_orders == by_products, (entry.name, d.members())
            verdicts_2_4.add(by_products)
    assert verdicts == {True, False}
    assert verdicts_2_4 == {True, False}


def test_cyclic_max_complement_whole():
    g = construct(Cyclic(8))
    e = cyclic_max_complement(g, whole_subgroup(g))
    assert e.order == 1


def test_cyclic_max_complement_c4xc2():
    g = construct(Product(Cyclic(4), Cyclic(2)))
    factor = generate_subgroup(g, [2])
    e = cyclic_max_complement(g, factor)
    assert is_internal_direct(g, [factor, e]) and e.order == 2
    diag = generate_subgroup(g, [3])
    assert diag.order == 4
    e2 = cyclic_max_complement(g, diag)
    assert is_internal_direct(g, [diag, e2]) and e2.order == 2
    # brute-force cross-check: some order-2 complement exists and was found
    twos = [
        s for s in all_subgroups(g)
        if s.order == 2 and is_internal_direct(g, [diag, s])
    ]
    assert e2.bits in {s.bits for s in twos}


def test_cyclic_max_complement_preconditions():
    with pytest.raises(PreconditionFailed):
        cyclic_max_complement(construct(Dihedral(4)), trivial_subgroup(construct(Dihedral(4))))
    c6 = construct(Cyclic(6))
    with pytest.raises(PreconditionFailed):
        cyclic_max_complement(c6, whole_subgroup(c6))  # not a p-group
    g = v4()
    with pytest.raises(PreconditionFailed):
        cyclic_max_complement(g, whole_subgroup(g))  # V4 is not cyclic
    c4x2 = construct(Product(Cyclic(4), Cyclic(2)))
    with pytest.raises(PreconditionFailed):
        cyclic_max_complement(c4x2, generate_subgroup(c4x2, [1]))  # order 2 < exponent 4


def test_remak_iso_class_multiset_stable_under_seeds(catalog16):
    cache = IsoCache()
    reps: list = []  # shared across calls so class ids are comparable

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

    for entry in catalog16[:10]:
        base = class_multiset(entry.group)
        for seed in range(3):
            assert class_multiset(entry.group, rng=random.Random(seed)) == base, entry.name


def test_cyclic_max_complement_fills_only_the_sides_it_reads():
    # the complements of a normal are filled when first asked, and the
    # minimal factors test containment first: on C2^6 only the 63 minimal
    # factors (the order-2 subgroups) are asked, not the 2,825 normals,
    # and neither the per-side walk nor the pairs view is built
    g = construct(parse_recipe("P(P(P(P(P(C(2),C(2)),C(2)),C(2)),C(2)),C(2))"))
    d = generate_subgroup(g, [1])
    assert is_internal_direct(g, [d, cyclic_max_complement(g, d)])
    filled = g._cache["complements"]
    assert len(normal_subgroups(g)) == 2_825
    assert len(filled) == 63 and all(bits.bit_count() == 2 for bits in filled)
    assert "sides" not in g._cache and "splittings" not in g._cache


def test_constructive_complement_is_revalidated(monkeypatch):
    # a wrong constructive answer raises; nothing searches for another one
    g = construct(Product(Cyclic(4), Cyclic(2)))
    d = generate_subgroup(g, [2])
    monkeypatch.setattr(decomposition, "_complement_constructive",
                        lambda group, f, d, *, cap: trivial_subgroup(group))
    with pytest.raises(AssertionError, match="not a direct complement"):
        cyclic_max_complement(g, d)


def test_lattice_accessors_return_the_stored_tuples():
    g = construct(Product(Dihedral(4), Cyclic(2)))
    for accessor in (all_subgroups, normal_subgroups, all_direct_splittings, splitting_sides):
        first = accessor(g)
        assert isinstance(first, tuple) and accessor(g) is first, accessor.__name__
    # the complements are the tuples the per-side relation holds
    for h, comps in splitting_sides(g):
        assert direct_complements(g, h) is comps
