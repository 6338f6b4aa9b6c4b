import math

import numpy as np
import pytest

from groupkit.core import (
    Cyclic,
    Dicyclic,
    Dihedral,
    Product,
    Semidirect,
    Symmetric,
    construct,
    is_abelian,
    parse_recipe,
)
from groupkit.catalog import abelian_p_group_catalog
from groupkit.errors import OrderBound
from groupkit.subgroups import (
    all_subgroups,
    normal_subgroups,
    quotient,
    subgroup_as_group,
    whole_subgroup,
)
from groupkit.iso import (
    Fingerprint,
    IsoCache,
    automorphisms,
    find_isomorphism,
    fingerprint,
    subgroup_fingerprint,
)

from conftest import (
    PREMISES32,
    abelian_invariants,
    center_bits_by_commuting,
    commutator_bits_by_products,
    is_isomorphism,
    isomorphisms_by_bijections,
    order_by_powering,
    order_histogram_by_powering,
)


def test_fingerprint_trivial():
    fp = fingerprint(construct(Cyclic(1)))
    assert fp.order == 1
    assert fp.order_histogram == ((1, 1),)
    assert fp.abelian and fp.derived_series_length == 0


def test_fingerprint_separates_d4_q8():
    fp_d4 = fingerprint(construct(Dihedral(4)))
    fp_q8 = fingerprint(construct(Dicyclic(2)))
    assert fp_d4.order_histogram == ((1, 1), (2, 5), (4, 2))
    assert fp_q8.order_histogram == ((1, 1), (2, 1), (4, 6))
    assert fp_d4 != fp_q8


def test_fingerprint_separates_c4_v4():
    fp_c4 = fingerprint(construct(Cyclic(4)))
    fp_v4 = fingerprint(construct(Product(Cyclic(2), Cyclic(2))))
    assert fp_c4.exponent == 4 and fp_v4.exponent == 2
    assert fp_c4 != fp_v4


def test_self_isomorphism_is_identity():
    for recipe in (Cyclic(6), Dihedral(4), Symmetric(4)):
        g = construct(recipe)
        iso = find_isomorphism(g, g)
        assert iso is not None
        assert iso.map == tuple(range(g.order))


def test_c2xc3_isomorphic_to_c6():
    iso = find_isomorphism(construct(Product(Cyclic(2), Cyclic(3))), construct(Cyclic(6)))
    assert iso is not None
    assert is_isomorphism(iso.source, iso.target, iso.map)


def test_is_isomorphism_rejects_out_of_range_images():
    c3 = construct(Cyclic(3))
    assert is_isomorphism(c3, c3, (0, 2, 1))
    for mapping in ((0, 2, 5), (0, 3, 1), (0, -2, -1), (0, 1, 1)):
        assert not is_isomorphism(c3, c3, mapping)


def test_is_isomorphism_rejects_inexact_images():
    # images must be exact ints, as table entries must
    c3 = construct(Cyclic(3))
    for mapping in ((0, 2.0, 1), (0, 2, True), (False, 2, 1), (0, 2, "1"), (0, 2, None)):
        assert not is_isomorphism(c3, c3, mapping)
    for mapping in ([0, 2, 1], np.array([0, 2, 1]), np.array([0, 2, 1], dtype=np.uint8)):
        assert is_isomorphism(c3, c3, mapping)


def test_d4_not_isomorphic_to_q8():
    assert find_isomorphism(construct(Dihedral(4)), construct(Dicyclic(2))) is None


def test_find_isomorphism_symmetric_and_witnesses_verify(catalog16):
    groups = [(e.name, e.group) for e in catalog16]
    for i, (name_a, a) in enumerate(groups):
        for name_b, b in groups[i:]:
            forward = find_isomorphism(a, b)
            backward = find_isomorphism(b, a)
            assert (forward is None) == (backward is None), (name_a, name_b)
            if forward is not None:
                assert is_isomorphism(a, b, forward.map)
                assert is_isomorphism(b, a, backward.map)
                assert name_a == name_b  # the catalog is deduplicated


def test_returned_map_is_lex_least():
    # V4 has 6 automorphisms; the identity is lexicographically least
    v4 = construct(Product(Cyclic(2), Cyclic(2)))
    maps = sorted(a.map for a in automorphisms(v4))
    assert find_isomorphism(v4, v4).map == maps[0] == (0, 1, 2, 3)


def test_automorphism_counts():
    assert len(automorphisms(construct(Cyclic(2)))) == 1
    # cyclic groups: one automorphism per unit mod n
    for n in (3, 4, 5, 6, 8, 12):
        units = sum(1 for k in range(1, n) if math.gcd(k, n) == 1)
        assert len(automorphisms(construct(Cyclic(n)))) == units, n
    # closed forms: |GL(3,2)|, |GL(2,3)|, Aut(D4) ≅ D4, Aut(Q8) ≅ S4,
    # Aut(A4) ≅ Aut(S4) ≅ S4, Aut(D5) ≅ C5 ⋊ C4
    c2 = Cyclic(2)
    a4 = Semidirect(Product(c2, c2), Cyclic(3), ((1, (0, 3, 1, 2)),))
    for recipe, count in ((Product(Product(c2, c2), c2), 168),
                          (Product(Cyclic(3), Cyclic(3)), 48), (Dihedral(4), 8),
                          (Dicyclic(2), 24), (a4, 24), (Symmetric(4), 24), (Dihedral(5), 20)):
        assert len(automorphisms(construct(recipe))) == count, recipe


def test_search_against_bijection_oracle(catalog16):
    # every catalog group of order <= 8: the automorphism list is every
    # table-preserving bijection fixing 0, and find_isomorphism's map is the
    # lexicographically least one, against every group of the same order
    small = [e.group for e in catalog16 if e.group.order <= 8]
    assert len(small) == 14
    for g in small:
        assert [a.map for a in automorphisms(g)] == isomorphisms_by_bijections(g, g), g.name
        for h in small:
            if h.order == g.order:
                found = find_isomorphism(g, h)
                least = next(iter(isomorphisms_by_bijections(g, h)), None)
                assert (found.map if found else None) == least, (g.name, h.name)
    v4 = next(g for g in small if g.name == "C2xC2")
    assert len(automorphisms(v4)) == 6


def test_automorphisms_sorted_and_group_closed(catalog16):
    for entry in catalog16:
        g = entry.group
        autos = [a.map for a in automorphisms(g)]
        assert autos == sorted(autos), entry.name
        aut_set = set(autos)
        if len(autos) <= 200:
            pairs = [(a, b) for a in autos for b in autos]
        else:
            import random

            rng = random.Random(0)
            pairs = [(rng.choice(autos), rng.choice(autos)) for _ in range(500)]
        for a, b in pairs:
            composed = tuple(a[b[x]] for x in range(g.order))
            assert composed in aut_set, entry.name
        for a in autos:
            inverse = [0] * g.order
            for x, y in enumerate(a):
                inverse[y] = x
            assert tuple(inverse) in aut_set, entry.name


def test_fingerprint_equal_when_isomorphic(catalog16):
    # contrapositive of the prefilter: isomorphic groups agree on fingerprints;
    # exercised through products in two different factor orders
    for entry in catalog16[:12]:
        g = construct(Product(entry.recipe, Cyclic(2)))
        h = construct(Product(Cyclic(2), entry.recipe))
        iso = find_isomorphism(g, h)
        assert iso is not None
        assert fingerprint(g) == fingerprint(h)


def test_automorphisms_order_bound():
    with pytest.raises(OrderBound):
        automorphisms(construct(Cyclic(72)))


def test_different_orders_short_circuit():
    assert find_isomorphism(construct(Cyclic(4)), construct(Cyclic(8))) is None


def test_subgroup_fingerprint_is_that_of_the_extracted_table(catalog24):
    # a subgroup's fingerprint, read in its parent's indices, is the one of
    # its extracted table, and every field is also read off oracles that
    # share no code with the kernel: the histogram counts by powering, the
    # centre by commuting, the derived series by products of commutators
    groups = [e.group for e in catalog24]
    groups += [construct(parse_recipe(dsl)) for dsl in PREMISES32.values()]
    subgroups = 0
    for g in groups:
        for s in all_subgroups(g):
            fp = subgroup_fingerprint(s)
            assert fp == fingerprint(subgroup_as_group(s)[0]), (g, s)
            histogram = order_histogram_by_powering(g, s.bits)
            center = center_bits_by_commuting(g, s.bits)
            series = [s.bits]
            while (d := commutator_bits_by_products(g, series[-1], series[-1])) != series[-1]:
                series.append(d)
            derived = series[1] if len(series) > 1 else s.bits
            assert fp == Fingerprint(s.bits.bit_count(), histogram, center.bit_count(),
                                     derived.bit_count(), math.lcm(*(k for k, _ in histogram)),
                                     center == s.bits, len(series) - 1), (g, s)
            subgroups += 1
    assert subgroups == 1_145


def test_class_of_matches_pairwise_isomorphism():
    # normals and quotients of a few groups repeat many classes under
    # different tables; ids must agree exactly with isomorphism.  Normals
    # are classified in their parent's indices, quotients as whole groups
    subs, groups = [], []
    for recipe in (Product(Dihedral(4), Cyclic(2)), Product(Symmetric(3), Cyclic(2)),
                   Product(Cyclic(4), Cyclic(2)), Dicyclic(2)):
        g = construct(recipe)
        for n in normal_subgroups(g):
            q = quotient(g, n).target
            subs += [n, whole_subgroup(q)]
            groups += [subgroup_as_group(n)[0], q]
    cache = IsoCache()
    ids = [cache.class_of(s) for s in subs]
    assert len(set(ids)) > 5
    for i, a in enumerate(groups):
        assert cache.class_of(subs[i]) == ids[i]  # memoized, stable
        for j in range(i + 1, len(groups)):
            b = groups[j]
            assert (ids[i] == ids[j]) == (find_isomorphism(a, b) is not None)


def test_abelian_class_ids_need_no_search(catalog24):
    # an abelian group's fingerprint (its order histogram) fixes it, so
    # class_of joins its bucket's one class without a search.  Over the
    # abelian p-groups up to 64 and catalog24's abelian groups, with their
    # subgroups and quotients, the ids must agree with find_isomorphism and
    # with the elementary divisors read off the element orders
    groups = [e.group for e in abelian_p_group_catalog(64)]
    groups += [e.group for e in catalog24 if is_abelian(e.group)]
    tables = {}
    for g in groups:
        tables[g.table] = g
        for s in all_subgroups(g):
            for h in (subgroup_as_group(s)[0], quotient(g, s).target):
                tables.setdefault(h.table, h)
    cache = IsoCache()
    ids = {table: cache.class_of(whole_subgroup(h)) for table, h in tables.items()}
    assert cache._maps == {}  # no search ran
    firsts = {}  # class id -> the first group given it
    for table, h in tables.items():
        assert find_isomorphism(h, firsts.setdefault(ids[table], h)) is not None
    reps = list(firsts.values())
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            assert find_isomorphism(a, b) is None
    invariants = {table: (h.order, tuple(abelian_invariants(
        [order_by_powering(h, x) for x in range(h.order)]))) for table, h in tables.items()}
    assert len(set(invariants.values())) == len(firsts) == 67
    for table in tables:
        assert invariants[table] == invariants[firsts[ids[table]].table]


def test_non_abelian_fingerprint_collisions_get_distinct_ids(catalog24):
    # two pairs of catalog24 share every fingerprint field without being
    # isomorphic, so a non-abelian bucket is searched, never trusted
    by_name = {e.name: e.group for e in catalog24}
    cache = IsoCache()
    for a, b in (("Q8xC2", "C4:C4"), ("(C2xC2):C4", "C4oD4")):
        ga, gb = by_name[a], by_name[b]
        assert fingerprint(ga) == fingerprint(gb) and not fingerprint(ga).abelian
        assert find_isomorphism(ga, gb) is None
        assert cache.class_of(whole_subgroup(ga)) != cache.class_of(whole_subgroup(gb))
