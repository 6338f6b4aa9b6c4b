import hashlib

import pytest

from groupkit.core import (
    Cyclic,
    Dicyclic,
    Dihedral,
    Group,
    Product,
    Symmetric,
    closure_bits,
    construct,
    element_order,
    is_abelian,
    parse_recipe,
    recipe_dsl,
)
import conftest
from groupkit import decomposition, subgroups
from groupkit.decomposition import direct_complements, join_bits, project_onto_factor
from groupkit.errors import IndexOutOfRange, NotNormal, OrderBound, PreconditionFailed
from groupkit.harness import build_split_counterexample
from groupkit.iso import find_isomorphism
from groupkit.subgroups import (
    Subgroup,
    _is_prime,
    all_subgroups,
    center,
    center_of,
    commutator,
    derived_of,
    derived_subgroup,
    generate_subgroup,
    is_abelian_bits,
    is_normal_bits,
    normal_subgroups,
    quotient,
    subgroup_as_group,
    subgroup_generators,
    trivial_subgroup,
    whole_subgroup,
)

from conftest import (
    PREMISES32,
    center_bits_by_commuting,
    closure_by_products,
    closure_by_words,
    commutator_bits_by_products,
    gaussian_binomial,
    normal_in_by_conjugates,
    subgroups_by_subset_filter,
)


def test_generate_empty_is_trivial():
    g = construct(Symmetric(3))
    assert generate_subgroup(g, []).members() == [0]


def test_generate_in_cyclic6():
    g = construct(Cyclic(6))
    assert generate_subgroup(g, [3]).members() == [0, 3]


def test_generate_whole_s3():
    g = construct(Symmetric(3))
    two_cycle = next(x for x in range(6) if element_order(g, x) == 2)
    three_cycle = next(x for x in range(6) if element_order(g, x) == 3)
    assert generate_subgroup(g, [two_cycle, three_cycle]).order == 6


def test_closure_bits_matches_product_oracle():
    for recipe in (Product(Symmetric(3), Cyclic(2)), Dicyclic(3), Dihedral(4)):
        g = construct(recipe)
        for s in all_subgroups(g):
            for x in range(g.order):
                got = closure_bits(g.table, [x], s.bits, s.members())
                assert got == closure_by_products(g, s.bits | 1 << x), (recipe, s, x)
        for x in range(g.order):
            for y in range(x, g.order):
                assert closure_bits(g.table, [x, y]) == closure_by_products(
                    g, 1 | 1 << x | 1 << y)


def test_generate_rejects_bad_index():
    with pytest.raises(IndexOutOfRange):
        generate_subgroup(construct(Cyclic(3)), [5])


def test_all_subgroups_examples():
    assert len(all_subgroups(construct(Cyclic(1)))) == 1
    v4 = construct(Product(Cyclic(2), Cyclic(2)))
    assert [s.order for s in all_subgroups(v4)] == [1, 2, 2, 2, 4]
    d4 = construct(Dihedral(4))
    assert len(all_subgroups(d4)) == 10


def test_all_subgroups_matches_subset_oracle_on_samples(catalog16):
    samples = [(recipe_dsl(r), construct(r))
               for r in (Dihedral(4), Dicyclic(2), Symmetric(3), Cyclic(12))]
    nonabelian16 = [(e.name, e.group) for e in catalog16
                    if e.group.order == 16 and not is_abelian(e.group)]
    assert len(nonabelian16) == 9
    for name, g in samples + nonabelian16:
        got = [s.bits for s in all_subgroups(g)]
        assert got == subgroups_by_subset_filter(g), name


def test_all_subgroups_order_bound():
    g = construct(Cyclic(72))
    with pytest.raises(OrderBound):
        all_subgroups(g)


def _alternating5():
    sub = derived_subgroup(construct(Symmetric(5)))
    return subgroup_as_group(sub)[0]


# name -> (group builder, lattice cap, subgroup count, sha256 of the bit list)
LATTICE_PINS = {
    "S4xC2": (lambda: construct(parse_recipe("P(S(4),C(2))")), 64, 98,
              "1d2907e84b73aeb94b908dc5ac9769fc9261ec3cd388d750096a37d823e104cb"),
    "D4xS3": (lambda: construct(parse_recipe("P(D(4),S(3))")), 64, 120,
              "b1127956fce042702a99771c3c2d4cf4e9a385c040a93c94a59b198abdd7bba5"),
    "SL(2,3)xC2": (lambda: construct(parse_recipe(
        "P(SD(Dic(2),C(3),action=[[1,[0,4,2,6,5,1,7,3]]]),C(2))")), 64, 41,
        "2e6a1bf3fef29d75cbf4c8e935d679658f474e3430425ee62a82685928f9634d"),
    "D16": (lambda: construct(parse_recipe("D(16)")), 64, 36,
            "5b381cf0d44886186426ca6123ec445025be7f9d4b8cdb17012edb732dfdfa09"),
    "split-counterexample-p3": (
        lambda: build_split_counterexample(3, lattice_cap=81).group, 81, 104,
        "aaf90740286c364c1984afe74daa1434ed9187609d470f116af95487afc63a30"),
    "D4xC2^3": (lambda: construct(parse_recipe("P(P(P(D(4),C(2)),C(2)),C(2))")), 64, 937,
                "5b8a7afc189841abcd510c613163d2420c82e8f959ef0c4d8a68cb7f9bca3eaa"),
    "C4xC2^5": (lambda: construct(parse_recipe(
        "P(P(P(P(P(C(4),C(2)),C(2)),C(2)),C(2)),C(2))")), 128, 5_276,
        "d8801c295654618440806114b5557eba59b97fddc0aee8db6d38f9a12ca43219"),
    "D4xC4^2": (lambda: construct(parse_recipe("P(P(D(4),C(4)),C(4))")), 128, 636,
                "2699f91d7a5b4c74cf3fbbf889462ff105d626170e00c39bb5c61fe8b4aeb4ca"),
    # non-solvable: the lattice search must not lean on solvability
    "A5": (_alternating5, 120, 59,
           "85e2b4febe8f10d8eaf476262940bd7bc331731f4b97a0ed2bd89be044a9054a"),
    "S5": (lambda: construct(Symmetric(5)), 120, 156,
           "8241b2cea08da608c41f5ed8a8a426bdd3f7460e8eff60a13665a688a962587f"),
}


@pytest.mark.parametrize("name", LATTICE_PINS)
def test_all_subgroups_pinned_bit_for_bit(name):
    build, cap, count, digest = LATTICE_PINS[name]
    bits = [s.bits for s in all_subgroups(build(), cap=cap)]
    assert len(bits) == count
    assert hashlib.sha256(repr(bits).encode()).hexdigest() == digest


def _lattice_joins(monkeypatch, group, cap):
    """(H, join) for every join of a fresh lattice build of ``group``."""
    joins = []
    kernel = subgroups.closure_bits

    def counting(*args):
        out = kernel(*args)
        joins.append((args[2] if len(args) > 2 else None, out))
        return out

    monkeypatch.setattr(subgroups, "closure_bits", counting)
    group._cache.pop("all_subgroups", None)
    lattice = [s.bits for s in all_subgroups(group, cap=cap)]
    monkeypatch.undo()
    return lattice, joins


def _joined_once_each(lattice, joins):
    """The (H, K) joins made from a subgroup, after checking that each
    subgroup but the trivial one is the result of exactly one of them."""
    kept = [(h, k) for h, k in joins if h is not None]
    assert sorted(k for _, k in kept) == sorted(set(lattice) - {1})
    return kept


@pytest.mark.parametrize("p, n, joins", [(2, 4, 81), (2, 5, 404), (3, 4, 291)])
def test_lattice_joins_once_per_cover(monkeypatch, p, n, joins):
    # one closure per non-identity element (the seeds), then one join per
    # nontrivial subgroup, each from a subgroup of index p in it
    g = construct(parse_recipe("P(" * (n - 1) + f"C({p})" + f",C({p}))" * (n - 1)))
    lattice, made = _lattice_joins(monkeypatch, g, p ** n)
    assert len(lattice) == sum(gaussian_binomial(n, k, p) for k in range(n + 1))
    assert len(made) == joins == p ** n - 1 + len(lattice) - 1
    for h, k in _joined_once_each(lattice, made):
        assert h & k == h and k.bit_count() == p * h.bit_count()


# name -> closure_bits calls: one per seed, then one join per nontrivial
# subgroup, from a subgroup of prime index normal in it
LATTICE_JOINS = {
    "S4xC2": 136,
    "D4xS3": 152,
    "SL(2,3)xC2": 63,
    "D16": 66,
    "split-counterexample-p3": 183,
}


@pytest.mark.parametrize("name", LATTICE_JOINS)
def test_lattice_bounds_joins_to_prime_index_covers(monkeypatch, name):
    build, cap, count, digest = LATTICE_PINS[name]
    group = build()
    lattice, joins = _lattice_joins(monkeypatch, group, cap)
    assert len(lattice) == count
    assert len(joins) == LATTICE_JOINS[name]
    # the joins from normalizing seeds build each subgroup once, each from
    # a pair H ⊴ K of the lattice of prime index
    for h, k in _joined_once_each(lattice, joins):
        assert h in lattice and h & k == h, name
        assert _is_prime(k.bit_count() // h.bit_count()), name
        assert normal_in_by_conjugates(group, h, k), name


@pytest.mark.parametrize("name, build, cap, count", [
    ("A5", _alternating5, 120, 59),
    ("S5", lambda: construct(Symmetric(5)), 120, 156),
    ("S3xC5", lambda: construct(parse_recipe("P(S(3),C(5))")), 64, 12),
])
def test_lattice_bound_only_for_two_prime_orders(monkeypatch, name, build, cap, count):
    # three primes divide these orders: every seed is joined, solvable or
    # not, so some join reaches a K in which H is not normal
    group = build()
    lattice, joins = _lattice_joins(monkeypatch, group, cap)
    assert len(lattice) == count
    assert any(not normal_in_by_conjugates(group, h, k) for h, k in joins if h is not None), name


def _generators_by_words(group, bits: int) -> list[int]:
    """A generating set of the subgroup ``bits``: each member that the
    words in those before it do not reach."""
    gens, reached = [], 1
    for x in conftest.members_of(bits):
        if not (reached >> x) & 1:
            gens.append(x)
            reached = closure_by_words(group, gens)
    return gens


def test_containment_record_matches_set_containment(catalog24, monkeypatch):
    # the lattice's membership record against plain set containment over
    # ``all_subgroups``: each subgroup is listed once, the order masks
    # partition the list, supersets(H) names exactly the L ⊇ H, and every
    # join with a normal side is the closure of both generating sets, read
    # off the record without a closure.  Three primes divide |S5| and
    # |S4×C5|, so their lattices also join seeds that do not normalize H
    closures = []
    monkeypatch.setattr(decomposition, "closure_bits", lambda *args: closures.append(args))
    groups = [(e.name, e.group, 64) for e in catalog24]
    groups += [(name, construct(parse_recipe(dsl)), 64) for name, dsl in PREMISES32.items()]
    groups += [(name, LATTICE_PINS[name][0](), LATTICE_PINS[name][1]) for name in LATTICE_JOINS]
    groups += [("S5", construct(Symmetric(5)), 120),
               ("S4xC5", construct(parse_recipe("P(S(4),C(5))")), 120)]
    joins = 0
    for name, g, cap in groups:
        subs = [s.bits for s in all_subgroups(g, cap=cap)]
        record = subgroups.containment(g, cap=cap)
        found = record.subgroups
        assert sorted(found) == sorted(subs), name
        assert sum(mask.bit_count() for mask in record.of_order.values()) == len(found), name
        assert sum(record.of_order.values()) == (1 << len(found)) - 1, name
        for order, mask in record.of_order.items():
            assert all(found[i].bit_count() == order for i in conftest.members_of(mask)), name
        for h in subs:
            above = {found[i] for i in conftest.members_of(subgroups.supersets(g, h, cap=cap))}
            assert above == {l for l in subs if not h & ~l}, (name, h)
        gens = {bits: _generators_by_words(g, bits) for bits in subs}
        for n in normal_subgroups(g, cap=cap):
            for l in subs:
                want = closure_by_words(g, gens[n.bits] + gens[l])
                assert join_bits(g, n, Subgroup(g, l)) == want, (name, n, l)
                joins += 1
    assert joins == 54_595 and closures == []


def test_join_bits_refuses_a_bitset_that_is_no_subgroup():
    # with or without a lattice: a bitset that is not closed, one without
    # the identity, and one with a bit outside the group
    for lattice in (False, True):
        g = construct(Symmetric(4))
        if lattice:
            all_subgroups(g)
        subs = [s for s in all_subgroups(construct(Symmetric(4))) if s.order == 2]
        a, b = Subgroup(g, subs[0].bits), Subgroup(g, subs[1].bits)
        for bad in (a.bits | b.bits, a.bits & ~1, 1 << 24 | 1, 0):
            for pair in ((Subgroup(g, bad), b), (b, Subgroup(g, bad))):
                with pytest.raises(PreconditionFailed):
                    join_bits(g, *pair)
        assert ("all_subgroups" in g._cache) == lattice


def test_recorded_generators_close_to_their_subgroup(catalog24):
    groups = [(e.name, construct(e.recipe), 64) for e in catalog24]
    groups += [(name, build(), cap) for name, (build, cap, _, _) in LATTICE_PINS.items()]
    for name, g, cap in groups:
        for s in all_subgroups(g, cap=cap):
            gens = subgroup_generators(g, s.bits)
            assert len(gens) < s.order.bit_length(), (name, s)  # each at least doubles
            assert closure_by_words(g, gens) == s.bits, (name, s)


def _normalizer_by_conjugates(group, bits):
    """N_G(H): the g with g·h·g⁻¹ in H for every h in H."""
    return sum(1 << g for g in range(group.order) if normal_in_by_conjugates(group, bits, 1 << g))


def test_generator_kernels_match_member_walks(catalog24):
    # over every subgroup, with the generators the lattice recorded and, on
    # a copy of the table that has no lattice, the greedy ones
    for entry in catalog24:
        g = entry.group
        whole = whole_subgroup(g).bits
        subs = all_subgroups(g)
        fresh = Group(g.table)
        for s in subs:
            normalizer = _normalizer_by_conjugates(g, s.bits)
            center = center_bits_by_commuting(g, s.bits)
            derived = commutator_bits_by_products(g, s.bits, s.bits)
            for h in (g, fresh):
                gens = subgroup_generators(h, s.bits)
                assert subgroups._normalizer(h, gens, s.bits) == normalizer, (entry.name, s)
                assert is_normal_bits(h, s.bits) == (normalizer == whole), (entry.name, s)
                assert center_of(h, Subgroup(h, s.bits)).bits == center, (entry.name, s)
                assert derived_of(h, Subgroup(h, s.bits)).bits == derived, (entry.name, s)
        assert [s.bits for s in normal_subgroups(g)] == [
            s.bits for s in subs if normal_in_by_conjugates(g, s.bits, whole)], entry.name
    # order 256 is the largest whose columns are read by ``translate``, with a
    # mask of full length and bit 255 set in each subgroup holding element
    # 255; above it the columns are strs, translated through a str mask
    for group, gens_lists in (
            (construct(Dihedral(128)), ([255], [2, 255], [64], [4], [128], [64, 255], [1, 255])),
            (construct(Dihedral(150)), ([1], [2], [75], [150], [1, 150], [2, 150]))):
        whole = whole_subgroup(group).bits
        for gens in gens_lists:
            sub = generate_subgroup(group, gens)
            normalizer = _normalizer_by_conjugates(group, sub.bits)
            found = subgroups._normalizer(group, subgroup_generators(group, sub.bits), sub.bits)
            assert found == normalizer, (group.order, gens)
            assert is_normal_bits(group, sub.bits) == (normalizer == whole), (group.order, gens)
            assert center_of(group, sub).bits == center_bits_by_commuting(group, sub.bits), (
                group.order, gens)


@pytest.mark.parametrize("build, cap", [
    (lambda: construct(parse_recipe("P(S(3),C(5))")), 64),
    (lambda: construct(Symmetric(5)), 120),
], ids=["S3xC5", "S5"])
def test_lattice_records_normality_in_three_prime_orders(build, cap):
    # there the lattice joins every seed, not only the normalizing ones, and
    # still records which subgroups its normalizers show to be normal
    group = build()
    whole = whole_subgroup(group).bits
    assert [s.bits for s in normal_subgroups(group, cap=cap)] == [
        s.bits for s in all_subgroups(group, cap=cap)
        if normal_in_by_conjugates(group, s.bits, whole)]


def test_bitset_that_is_no_subgroup_is_refused():
    # the identity and the three transpositions of S3: closed under
    # conjugation, but no subgroup
    s3 = construct(Symmetric(3))
    bits = 1 | sum(1 << x for x in range(6) if element_order(s3, x) == 2)
    assert bits.bit_count() == 4
    assert not is_normal_bits(s3, bits)
    fake = Subgroup(s3, bits)
    with pytest.raises(NotNormal):
        quotient(s3, fake)
    with pytest.raises(PreconditionFailed):
        center_of(s3, fake)
    with pytest.raises(PreconditionFailed):
        commutator(s3, fake, whole_subgroup(s3))
    with pytest.raises(PreconditionFailed):
        derived_of(s3, fake)
    assert not is_normal_bits(s3, bits & ~1)  # without the identity


def test_bitset_with_a_bit_outside_the_group_is_refused():
    # D4 has 8 elements: bit 8 and bit 100 name none of them, bits 0..7 all
    d4 = construct(Dihedral(4))
    for bits in (1 | 1 << 8, 1 | 1 << 100, 0xFF | 1 << 9):
        fake = Subgroup(d4, bits)
        assert not subgroups.is_subgroup_bits(d4, bits)
        assert not is_normal_bits(d4, bits)
        with pytest.raises(NotNormal):
            quotient(d4, fake)
        for call in (lambda: subgroup_generators(d4, bits),
                     lambda: subgroup_as_group(fake),
                     lambda: center_of(d4, fake),
                     lambda: commutator(d4, fake, whole_subgroup(d4)),
                     lambda: project_onto_factor(
                         d4, (trivial_subgroup(d4), whole_subgroup(d4)), fake)):
            with pytest.raises(PreconditionFailed):
                call()


def test_set_product_and_extraction_refuse_a_non_subgroup():
    # the identity and the transpositions of S3 again: they extract to no
    # table, as products leave the set
    s3 = construct(Symmetric(3))
    bits = 1 | sum(1 << x for x in range(6) if element_order(s3, x) == 2)
    fake = Subgroup(s3, bits)
    with pytest.raises(PreconditionFailed):
        subgroup_as_group(fake)
    assert ("as_group", bits) not in s3._cache
    # nor does a join count |A·B| for it, listed normals or not
    for normals_listed in (False, True):
        if normals_listed:
            direct_complements(s3, whole_subgroup(s3))
        with pytest.raises(PreconditionFailed):
            join_bits(s3, fake, trivial_subgroup(s3))
        with pytest.raises(PreconditionFailed):
            project_onto_factor(s3, (trivial_subgroup(s3), whole_subgroup(s3)), fake)


def test_two_prime_orders_are_solvable(catalog24):
    # Burnside's p^a q^b theorem, which the lattice's index bound rests on
    groups = [(e.name, e.group) for e in catalog24]
    groups += [(name, LATTICE_PINS[name][0]()) for name in LATTICE_PINS]
    groups += [(r, construct(parse_recipe(r))) for r in (
        "P(P(P(C(4),C(2)),C(2)),C(2))", "P(P(D(4),C(2)),C(2))",
        "P(P(Dic(2),C(2)),C(2))", "P(P(C(4),C(4)),C(2))")]
    two_primes = 0
    for name, g in groups:
        if sum(1 for p in range(2, g.order + 1) if g.order % p == 0 and _is_prime(p)) > 2:
            continue
        two_primes += 1
        series = whole_subgroup(g)
        while series.bits != 1:
            below = subgroups.derived_of(g, series)
            assert below.bits != series.bits, name
            series = below
    assert two_primes == len(groups) - 2  # all but A5 and S5


def test_lagrange(catalog16):
    for entry in catalog16:
        for s in all_subgroups(entry.group):
            assert entry.group.order % s.order == 0


def test_normal_subgroups_examples(catalog16):
    for entry in catalog16:
        g = entry.group
        if is_abelian(g):
            assert normal_subgroups(g) == all_subgroups(g), entry.name
    s3 = construct(Symmetric(3))
    assert [s.order for s in normal_subgroups(s3)] == [1, 3, 6]
    q8 = construct(Dicyclic(2))
    assert len(normal_subgroups(q8)) == len(all_subgroups(q8)) == 6


def test_center_examples():
    c6 = construct(Cyclic(6))
    assert center(c6).order == 6
    assert center(construct(Dicyclic(2))).order == 2
    assert center(construct(Symmetric(3))).order == 1


def test_commutator_examples():
    c6 = construct(Cyclic(6))
    whole = whole_subgroup(c6)
    assert commutator(c6, whole, whole).order == 1
    assert derived_subgroup(construct(Symmetric(3))).order == 3
    d4 = construct(Dihedral(4))
    assert derived_subgroup(d4).members() == [0, 2]


def test_commutator_of_distinct_normals_matches_products(catalog16):
    for entry in catalog16:
        g = entry.group
        normals = normal_subgroups(g)
        for a in normals:
            for b in normals:
                if a != b:
                    assert commutator(g, a, b).bits == commutator_bits_by_products(
                        g, a.bits, b.bits), (entry.name, a, b)


def test_quotient_by_trivial_and_whole():
    g = construct(Symmetric(3))
    qm = quotient(g, trivial_subgroup(g))
    assert qm.target.order == 6
    assert sorted(qm.projection) == list(range(6))
    assert find_isomorphism(qm.target, g) is not None
    qm2 = quotient(g, whole_subgroup(g))
    assert qm2.target.order == 1


def test_quotient_d4_by_center():
    d4 = construct(Dihedral(4))
    qm = quotient(d4, center(d4))
    assert qm.target.order == 4
    v4 = construct(Product(Cyclic(2), Cyclic(2)))
    assert find_isomorphism(qm.target, v4) is not None


def test_quotient_requires_normal():
    s3 = construct(Symmetric(3))
    reflection = next(x for x in range(6) if element_order(s3, x) == 2)
    for _ in range(2):  # a refused quotient is not memoized
        with pytest.raises(NotNormal):
            quotient(s3, generate_subgroup(s3, [reflection]))


def test_quotient_tests_normality_only_for_unlisted_bits(monkeypatch):
    g = construct(Product(Dihedral(4), Cyclic(2)))
    normals = normal_subgroups(g)
    normal_bits = {n.bits for n in normals}
    tested = []
    real = subgroups.is_normal_bits

    def counting(group, bits):
        tested.append(bits)
        return real(group, bits)

    monkeypatch.setattr(subgroups, "is_normal_bits", counting)
    for n in normals:
        quotient(g, n)
    assert tested == []
    other = next(s for s in all_subgroups(g) if s.bits not in normal_bits)
    with pytest.raises(NotNormal):
        quotient(g, other)
    assert tested == [other.bits]


def test_quotient_is_homomorphism_with_equal_fibers(catalog16):
    for entry in catalog16:
        g = entry.group
        for n in normal_subgroups(g):
            qm = quotient(g, n)
            proj = qm.projection
            ttab = qm.target.table
            for x in range(g.order):
                row = g.table[x]
                px = proj[x]
                for y in range(g.order):
                    assert proj[row[y]] == ttab[px][proj[y]]
            fibers = {}
            for x, c in enumerate(proj):
                fibers.setdefault(c, 0)
                fibers[c] += 1
            assert set(fibers.values()) == {n.order}


def test_center_of_subgroup():
    d4c2 = construct(Product(Dihedral(4), Cyclic(2)))
    d4_part = generate_subgroup(d4c2, [2, 8])  # r and s embed at (r,0)=2, (s,0)=8
    assert d4_part.order == 8
    z = center_of(d4c2, d4_part)
    assert z.order == 2


def test_subgroup_as_group_round_trip():
    g = construct(Product(Symmetric(3), Cyclic(2)))
    for s in all_subgroups(g):
        extracted, members = subgroup_as_group(s)
        assert extracted.order == s.order
        assert list(members) == s.members()
        # embedding is a homomorphism
        for i in range(extracted.order):
            for j in range(extracted.order):
                assert members[extracted.table[i][j]] == g.table[members[i]][members[j]]


def test_is_abelian_matches_every_pair(catalog24):
    # is_abelian compares only the generators validation checked; the
    # oracle compares every pair of elements
    groups = [e.group for e in catalog24]
    groups += [construct(parse_recipe(dsl)) for dsl in PREMISES32.values()]
    for g in groups:
        t = g.table
        every_pair = all(t[x][y] == t[y][x] for x in range(g.order) for y in range(x))
        assert is_abelian(g) is every_pair, g
    assert {is_abelian(g) for g in groups} == {True, False}


def test_subgroup_flags_leave_is_abelian_false():
    # the per-subgroup flags have their own memo keys: asking all of them
    # first, the whole group's among them, must not change is_abelian
    g = construct(parse_recipe(PREMISES32["D4xC2xC2"]))
    flags = [is_abelian_bits(g, s.bits) for s in all_subgroups(g)]
    assert True in flags and flags[-1] is False
    assert is_abelian(g) is False


def test_center_and_derived_orders_match_sympy(catalog24):
    # an oracle that shares no code with the kernel: sympy's permutation
    # groups on the regular representation x -> g·x, one generator per row
    combinatorics = pytest.importorskip("sympy.combinatorics")
    nonabelian = 0
    for entry in catalog24:
        g = entry.group
        perms = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(row)) for row in g.table])
        assert perms.is_abelian == is_abelian(g), entry.name
        if perms.is_abelian:
            continue
        nonabelian += 1
        assert (perms.order(), perms.center().order(), perms.derived_subgroup().order()) == (
            g.order, center(g).order, derived_subgroup(g).order), entry.name
    assert nonabelian > 0
