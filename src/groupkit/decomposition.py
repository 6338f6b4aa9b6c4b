"""Internal direct products, complements, and indecomposable decompositions."""

from __future__ import annotations

import random
from math import prod

from .core import Group, Record, closure_bits, element_orders, exponent, is_abelian, memo
from .errors import NotASplitting, NotNormal, PreconditionFailed
from .iso import IsoCache
from .subgroups import (
    DEFAULT_LATTICE_CAP,
    Subgroup,
    _is_prime,
    _normals_of_order,
    check_lattice_cap,
    check_parent,
    is_normal_bits,
    normal_subgroups,
    subgroup_generators,
    supersets,
    trivial_subgroup,
    whole_subgroup,
)


class Splitting(Record):
    """A decomposition of a parent group into internal direct factors."""

    parent: Group
    factors: tuple[Subgroup, ...]


def join_bits(group: Group, a: Subgroup, b: Subgroup) -> int:
    """Bits of the join ⟨A, B⟩, computed once per unordered pair and group.

    Once the lattice is built (its ``containment`` record, read without
    building it, so no lattice is built here), the join is looked up: with
    m = |A|·|B|/|A∩B|, the product set AB has m elements and lies in
    ⟨A, B⟩, so a subgroup of order m that contains A ∪ B is ⟨A, B⟩ = AB,
    and it is the one bit of ``supersets(A, B)`` among the subgroups of
    order m.  AB is a subgroup whenever A or B is normal.  Otherwise (no
    lattice, or no such subgroup) ``closure_bits`` is seeded from the larger
    factor, so only the other factor's generators are joined.  The count
    needs A and B to be subgroups: anything else raises PreconditionFailed.
    """
    joins = memo(group, "joins", dict)
    key = (a.bits, b.bits) if a.bits < b.bits else (b.bits, a.bits)
    found = joins.get(key)
    if found is None:
        big, small = (a, b) if a.order >= b.order else (b, a)
        subgroup_generators(group, big.bits)
        gens = subgroup_generators(group, small.bits)
        record = memo(group, "containment")
        if record is not None:
            m = a.order * b.order // (a.bits & b.bits).bit_count()
            found = record.join(supersets(group, a.bits, b.bits, cap=group.order), m) or None
        if found is None:
            found = closure_bits(group.table, gens, big.bits, big.members())
        joins[key] = found
    return found


def is_internal_direct(group: Group, factors) -> bool:
    """True iff the factors decompose the group as an internal direct product.

    The standard criterion: every factor is normal, the factor orders
    multiply to |G|, and each factor meets the join of the factors before it
    trivially (joins from ``join_bits``, none after the last factor).  A
    join of normals is their product set, so each join then grows by the
    whole next factor: the join of all of them is G, and each factor meets
    the join of all the others trivially.  A direct product passes.  Distinct
    factors commuting, a consequence, is re-checked on their memoized
    generators: if the generators of two subgroups commute, so do they.
    """
    factors = list(factors)
    check_parent(group, *factors)
    if not all(is_normal_bits(group, f.bits) for f in factors):
        return False
    if prod(f.order for f in factors) != group.order:
        return False
    joined = trivial_subgroup(group)
    for f, after in zip(factors, factors[1:]):
        joined = Subgroup(group, join_bits(group, joined, f))
        if joined.bits & after.bits != 1:
            return False
    table = group.table
    gens = [subgroup_generators(group, f.bits) for f in factors]
    return all(table[x][y] == table[y][x]
               for i, xs in enumerate(gens) for ys in gens[i + 1:] for x in xs for y in ys)


def direct_complements(group: Group, normal: Subgroup, *,
                       cap: int = DEFAULT_LATTICE_CAP) -> tuple[Subgroup, ...]:
    """All normal K with N∩K = 1 and |N|·|K| = |G|, canonically ordered.

    Empty iff N is not a direct factor.  This per-side map is the one store
    of the splitting relation: N's entry is filled when first asked, from
    the normals of order |G|/|N|, and the stored tuple itself is returned.
    N is looked up among the listed normals of its order, and raises
    NotNormal when it is not one.
    """
    check_parent(group, normal)
    check_lattice_cap(group, cap)
    by_order = _normals_of_order(group, cap=cap)
    comps = memo(group, "complements", dict)
    if normal.bits not in comps:
        if normal not in by_order.get(normal.order, ()):
            raise NotNormal("complement search requires a normal subgroup")
        comps[normal.bits] = tuple(
            k for k in by_order.get(group.order // normal.order, ()) if k.bits & normal.bits == 1)
    return comps[normal.bits]


def splitting_sides(group: Group, *, cap: int = DEFAULT_LATTICE_CAP
                    ) -> tuple[tuple[Subgroup, tuple[Subgroup, ...]], ...]:
    """Each direct factor with its stored complements, canonically; memoized.

    One entry per oriented splitting (H, K); C1's {1, 1} occurs once.
    """
    check_lattice_cap(group, cap)
    return memo(group, "sides", lambda: tuple(
        (n, comps) for n in normal_subgroups(group, cap=cap)
        if (comps := direct_complements(group, n, cap=cap))))


def _side_index(group: Group, *, cap: int) -> dict[int, int]:
    """Each side's bits, mapped to its place in ``splitting_sides``; memoized."""
    return memo(group, "side_index", lambda: {
        h.bits: i for i, (h, _) in enumerate(splitting_sides(group, cap=cap))})


def all_direct_splittings(group: Group, *,
                          cap: int = DEFAULT_LATTICE_CAP) -> tuple[tuple[Subgroup, Subgroup], ...]:
    """Every unordered internal direct pair {H, K}, including {1, G}; memoized.

    A view of ``splitting_sides``: each side H is paired with its
    complements at or after it in canonical order.
    """
    check_lattice_cap(group, cap)

    def build() -> tuple[tuple[Subgroup, Subgroup], ...]:
        rank = _side_index(group, cap=cap)
        return tuple((h, k) for i, (h, comps) in enumerate(splitting_sides(group, cap=cap))
                     for k in comps if rank[k.bits] >= i)

    return memo(group, "splittings", build)


def _minimal_factors(group: Group, *, cap: int) -> tuple[Subgroup, ...]:
    """The minimal nontrivial direct factors, canonically sorted; memoized.

    The indecomposable direct factors.  A direct factor of a direct factor
    F of G is one of G, and a direct factor Y of G inside F is one of F:
    with G = Y×Z, Dedekind gives F = Y×(Z∩F).  Past the trivial normal,
    the smallest come first, so a side is kept if it contains no kept side;
    that is tested first, so only the normals that pass fill complements.
    """
    def build() -> tuple[Subgroup, ...]:
        kept: list[Subgroup] = []
        for n in normal_subgroups(group, cap=cap)[1:]:
            if all(m.bits & ~n.bits for m in kept) and direct_complements(group, n, cap=cap):
                kept.append(n)
        return tuple(kept)

    return memo(group, "minimal_factors", build)


def _split_off(group: Group, f: Subgroup, *, cap: int,
               rng: random.Random | None = None) -> tuple[Subgroup, Subgroup]:
    """F = A×C for a nontrivial direct factor F of G, first in canonical order.

    A is the first minimal factor inside F: F if F is indecomposable, else
    F's first nontrivial direct factor, indecomposable as its order is least.
    With G = A×K, Dedekind gives F = A×(K∩F), and every complement of A in
    F is such a K∩F; C is the least.  With an rng both are drawn at random.
    """
    inside = [m for m in _minimal_factors(group, cap=cap) if not m.bits & ~f.bits]
    a = rng.choice(inside) if rng is not None else inside[0]
    rests = [Subgroup(group, k.bits & f.bits) for k in direct_complements(group, a, cap=cap)]
    return a, rng.choice(rests) if rng is not None else min(rests, key=Subgroup.sort_key)


def remak_decomposition(group: Group, *, cap: int = DEFAULT_LATTICE_CAP,
                        rng: random.Random | None = None) -> Splitting:
    """Split into indecomposable internal direct factors, canonically sorted.

    Splits F = A×C (``_split_off``) from F = G on, continuing with C.  With
    an rng the choices (and so the decomposition found) are random, which
    must not change the factors' isomorphism classes.
    """
    f = whole_subgroup(group)
    factors = []
    while f.order > 1:
        a, f = _split_off(group, f, cap=cap, rng=rng)
        factors.append(a)
    return Splitting(group, tuple(sorted(factors, key=Subgroup.sort_key)) or (f,))


def factor_classes(factor: Subgroup, *, cap: int = DEFAULT_LATTICE_CAP,
                   cache: IsoCache) -> frozenset[int]:
    """Class ids (within ``cache``) of the nontrivial Remak factors of a direct factor.

    Anything but a direct factor of its parent raises PreconditionFailed.
    Its indecomposable direct factors are the parent's minimal factors
    inside it; by the Krull–Remak–Schmidt theorem each is isomorphic to one
    of its Remak factors, so the set depends only on its isomorphism class.
    """
    group = factor.parent
    try:
        comps = direct_complements(group, factor, cap=cap)
    except NotNormal:
        comps = []
    if not comps:
        raise PreconditionFailed("not a direct factor of its parent")
    return frozenset(cache.class_of(m)
                     for m in _minimal_factors(group, cap=cap) if not m.bits & ~factor.bits)


def is_coprime(group1: Group, group2: Group, *, cap: int = DEFAULT_LATTICE_CAP) -> bool:
    """True iff no nontrivial direct factor of one is isomorphic to one of the other.

    Implemented over indecomposable Remak factors; by uniqueness of the
    decomposition this is equivalent to quantifying over all direct factors.
    """
    cache = IsoCache()
    return factor_classes(whole_subgroup(group1), cap=cap, cache=cache).isdisjoint(
        factor_classes(whole_subgroup(group2), cap=cap, cache=cache))


class CoprimeViolation(Record):
    """Falsification record: coprime direct factors failed to combine."""

    parent: Group
    a: Subgroup
    b: Subgroup
    reason: str


def combine_coprime_factors(group: Group, a: Subgroup, b: Subgroup, *,
                            cap: int = DEFAULT_LATTICE_CAP) -> Subgroup | CoprimeViolation:
    """Verify that coprime direct factors intersect trivially and combine.

    Returns the direct factor A·B, or a violation record if a check fails
    (which would falsify the combination property for direct factors).
    """
    check_parent(group, a, b)
    cache = IsoCache()
    if not factor_classes(a, cap=cap, cache=cache).isdisjoint(
            factor_classes(b, cap=cap, cache=cache)):
        raise PreconditionFailed("A and B are not coprime")
    ab = join_bits(group, a, b)
    reason = _combine(a, b, ab, _side_index(group, cap=cap))
    return Subgroup(group, ab) if reason is None else CoprimeViolation(group, a, b, reason)


def _combine(a: Subgroup, b: Subgroup, ab: int, sides) -> str | None:
    """The checks of ``combine_coprime_factors``, for direct factors known
    coprime, given their join ``ab`` (0 when none is known to have order
    |A|·|B|) and the splitting sides' bits: why A·B is no direct factor,
    or None when it is."""
    if a.bits & b.bits != 1:
        return "A∩B is nontrivial"
    # with A∩B = 1 the product set has |A|·|B| elements and lies in the join,
    # so it is the join exactly when the orders agree
    if ab.bit_count() != a.order * b.order:
        return "A·B is not a subgroup"
    # A·B is normal: it has a direct complement exactly when it is a side
    if ab not in sides:
        return "A·B has no normal complement"
    return None


def project_onto_factor(group: Group, splitting: tuple[Subgroup, Subgroup],
                        x: Subgroup) -> Subgroup:
    """Image of a subgroup under the projection onto K along H.

    For G = H×K the image is π_K(X) = X·H ∩ K, for every subgroup X: each
    x = h·k in X has k = h⁻¹x in X·H ∩ K, and each k = x·h in X·H ∩ K has
    x = h⁻¹k (H and K commute), so π_K(x) = k.  X·H is a subgroup because
    H is normal, and it is read from ``join_bits``.  G = H×K is tested by
    ``is_internal_direct``; a pair that fails raises NotASplitting.
    """
    h, k = splitting
    check_parent(group, x)
    if not is_internal_direct(group, (h, k)):
        raise NotASplitting("projection requires an internal direct splitting")
    return Subgroup(group, join_bits(group, x, h) & k.bits)


def is_directly_decomposable(group: Group, d: Subgroup, *,
                             cap: int = DEFAULT_LATTICE_CAP) -> bool:
    """True iff D = (H∩D)·(K∩D) for every direct splitting G = H·K.

    Both factors lie in D and meet trivially, so their product set fills D
    exactly when |H∩D|·|K∩D| = |D|.  The test is symmetric in H and K, so
    each splitting is tested from its smaller side: the sides come in
    order of size, and the walk stops at the first with |H|² > |G|.
    """
    check_parent(group, d)
    d_bits, d_order = d.bits, d.order
    for h, comps in splitting_sides(group, cap=cap):
        if h.order ** 2 > group.order:
            break
        h_meet = (h.bits & d_bits).bit_count()
        if any(h_meet * (k.bits & d_bits).bit_count() != d_order for k in comps):
            return False
    return True


def _complement_constructive(group: Group, f: Subgroup, d: Subgroup, *,
                             cap: int) -> Subgroup:
    """Inductive complement of a maximal-order cyclic D in a direct factor F.

    G is an abelian p-group and every step stays in its indices.  Splits
    F = B×C as ``remak_decomposition`` does (``_split_off``); if C∩D is
    trivial C itself works.  Otherwise B∩D is trivial: the subgroups of the
    cyclic p-group D form a chain, so if B∩D and C∩D were both nontrivial
    they would share D's subgroup of order p, yet B∩C = 1.  So D projects
    injectively into C, onto π_C(D) = D·B ∩ C (read from ``join_bits``),
    a maximal-order cyclic subgroup of C, and the complement is
    B · (complement of the projection inside C).
    """
    if d.order == f.order:
        return trivial_subgroup(group)
    b, c = _split_off(group, f, cap=cap)
    if c.bits & d.bits == 1:
        return c
    image = Subgroup(group, join_bits(group, d, b) & c.bits)
    return Subgroup(group, join_bits(group, b, _complement_constructive(group, c, image, cap=cap)))


def cyclic_max_complement(group: Group, d: Subgroup, *,
                          cap: int = DEFAULT_LATTICE_CAP) -> Subgroup:
    """A direct complement of a maximal-order cyclic subgroup of an abelian p-group.

    Follows the constructive induction of ``_complement_constructive``.  The
    result is revalidated with ``is_internal_direct``; a failure there would
    refute the induction's argument and raises AssertionError.
    """
    check_parent(group, d)
    if not is_abelian(group):
        raise PreconditionFailed("group must be abelian")
    n = group.order
    if len([p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)]) > 1:
        raise PreconditionFailed(f"group order {n} is not a power of a prime")
    orders = element_orders(group)
    if not any(orders[x] == d.order for x in d.members()):
        raise PreconditionFailed("D must be cyclic")
    if d.order != exponent(group):
        raise PreconditionFailed(
            f"D has order {d.order}, but the maximal element order is {exponent(group)}"
        )
    result = _complement_constructive(group, whole_subgroup(group), d, cap=cap)
    if not is_internal_direct(group, [d, result]):
        raise AssertionError(f"constructive result is not a direct complement of {d}")
    return result
