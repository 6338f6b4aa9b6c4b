"""Subgroups as membership bitsets, lattice enumeration, and quotients.

A subgroup of a group of order n is a Python int whose bit i says whether
element i belongs; arbitrary-precision ints give word-parallel intersection,
union, and equality for free.  Bit 0 (the identity) is always set.
Each subgroup has one memoized generating set (``subgroup_generators``),
and the normality, centre, commutator and join kernels read it instead
of every member.
"""

from __future__ import annotations

from collections import defaultdict, deque
from weakref import WeakValueDictionary

from .core import (
    Group,
    Record,
    Rows,
    bits_of,
    closure_bits,
    coset_table,
    element_orders,
    greedy_generators,
    members_of,
    memo,
    reindexed_rows,
)
from .errors import IndexOutOfRange, NotNormal, OrderBound, PreconditionFailed

DEFAULT_LATTICE_CAP = 64


class Subgroup(Record):
    """Membership bitset over a parent group's element indices.

    A lattice walk builds thousands of these, so construction, equality
    and hashing are spelled out for the two fields, with ``Record``'s results.
    """

    parent: Group
    bits: int

    def __init__(self, parent: Group, bits: int):
        _set_parent(self, parent)
        _set_bits(self, bits)

    def __eq__(self, other):
        if other.__class__ is not Subgroup:
            return NotImplemented
        return self.bits == other.bits and self.parent == other.parent

    def __hash__(self):
        return hash((self.parent, self.bits))

    @property
    def order(self) -> int:
        return self.bits.bit_count()

    def members(self) -> list[int]:
        return members_of(self.bits)

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Canonical order: by size, then lexicographic member list."""
        return (self.order, tuple(self.members()))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, members={self.members()})"


_set_parent, _set_bits = Subgroup._setters


class QuotientMap(Record):
    """A quotient group together with the projection from its source."""

    source: Group
    target: Group
    projection: tuple[int, ...]


def trivial_subgroup(group: Group) -> Subgroup:
    return Subgroup(group, 1)


def whole_subgroup(group: Group) -> Subgroup:
    return Subgroup(group, (1 << group.order) - 1)


def generate_subgroup(group: Group, gens) -> Subgroup:
    """Least subgroup containing gens."""
    n = group.order
    gens = list(gens)
    for g in gens:
        if not 0 <= g < n:
            raise IndexOutOfRange(f"generator {g} out of range [0, {n})")
    return Subgroup(group, closure_bits(group.table, gens))


def subgroup_generators(group: Group, bits: int) -> tuple[int, ...]:
    """A generating set of the subgroup ``bits``; memoized per group.

    The whole group's are the generators its validation checked, and
    ``all_subgroups`` records those that built each subgroup it finds; any
    other bitset gets ``greedy_generators``.  Raises PreconditionFailed when
    ``bits`` is no subgroup.
    """
    known = memo(group, "generators", dict)
    if bits not in known:
        known[bits] = greedy_generators(group.table, bits)
    gens = known[bits]
    if gens is None:
        raise PreconditionFailed("bitset is not a subgroup")
    return gens


def is_subgroup_bits(group: Group, bits: int) -> bool:
    """True iff the bitset is nonempty and closed under the parent product."""
    try:
        subgroup_generators(group, bits)
    except PreconditionFailed:
        return False
    return True


def _conjugations(group: Group) -> list:
    """Row g maps each h to g·h·g⁻¹ (memoized): row g of the table read
    through column g⁻¹, by one ``translate`` up to order 256."""
    def build() -> list:
        table, n = group.table, group.order
        if n <= 256:
            joined = b"".join(table)
            return [row.translate(joined[ig::n].ljust(256, b"\0"))
                    for row, ig in zip(table, group.inv)]
        cols = tuple(zip(*table))
        return [tuple(map(cols[ig].__getitem__, row)) for row, ig in zip(table, group.inv)]

    return memo(group, "conjugations", build)


def _conjugators(group: Group, h: int) -> dict[int, int]:
    """Each conjugate x of h, mapped to the bitset of the g with
    g·h·g⁻¹ = x (memoized per element): column h of ``_conjugations``.

    The bitsets partition G, and the one of h itself is h's centralizer.
    """
    known = memo(group, "conjugators", dict)
    if h not in known:
        found = known[h] = {}
        for g, row in enumerate(_conjugations(group)):
            x = row[h]
            found[x] = found.get(x, 0) | 1 << g
    return known[h]


def _normalizer(group: Group, gens, bits: int) -> int:
    """N_G(H) as a bitset, for H = ``bits`` generated by ``gens``: the g
    that conjugate every generator of H into H.

    Conjugation by g is an automorphism, so g·H·g⁻¹ ⊆ H then, and equal as
    both are finite of one size.
    """
    out = (1 << group.order) - 1
    for h in gens:
        # the conjugator bitsets are disjoint, so their sum is their union
        out &= sum(g for x, g in _conjugators(group, h).items() if (bits >> x) & 1)
    return out


def is_normal_bits(group: Group, bits: int) -> bool:
    """True iff ``bits`` is a normal subgroup: its normalizer is G."""
    try:
        gens = subgroup_generators(group, bits)
    except PreconditionFailed:
        return False
    return _normalizer(group, gens, bits) == (1 << group.order) - 1


def check_parent(group: Group, *subs: Subgroup) -> None:
    """Raise PreconditionFailed unless every subgroup is a subgroup of ``group``.

    Bitsets only mean something in their parent's indices, so a subgroup of
    another group must not be read against this one's table.
    """
    for sub in subs:
        if sub.parent is not group:
            raise PreconditionFailed("subgroup belongs to another group")


def check_lattice_cap(group: Group, cap: int) -> None:
    """Raise OrderBound for a group too large to scan its subgroup lattice.

    Every function whose result rests on the lattice calls this before its
    memo lookup, so a filled memo never answers past the cap.
    """
    if group.order > cap:
        raise OrderBound(group.order, cap, "subgroup lattice order")


def all_subgroups(group: Group, *, cap: int = DEFAULT_LATTICE_CAP) -> tuple[Subgroup, ...]:
    """Every subgroup exactly once, canonically sorted; the memoized tuple itself.

    A search from the trivial subgroup that joins each subgroup H it finds
    with seeds, by three rules that hold in every finite group:

    1. The seeds are the cyclic subgroups of prime-power order.
    2. H is joined only with a seed c where |c : c∩H| is a prime p.
    3. A subgroup K ⊇ H with |K : H| prime has H maximal in K, so every
       seed with its generator in K gives K again, and such seeds are
       skipped.  These K are the joins of prime index made from H, and
       every K of prime index over H found before H is taken.

    Every cover K of H (H maximal in K) is still reached.  For x in K∖H let
    d > 0 be least with x^d in H and p a prime dividing d; y = x^(d/p) is
    outside H and y^p is inside.  The p'-part of y is a power of y^p, so it
    lies in H, and the p-part of y is therefore outside H with its p-th
    power inside: it generates a seed c with |c : c∩H| = p, and
    ⟨H, c⟩ = K by maximality.  Every subgroup ends a chain of covers from
    the trivial subgroup, so every subgroup is found.

    The covers found before H are looked up in membership columns.  For
    each order m the subgroups found of order m are listed, and for each
    element x one int has bit i set when x lies in the i-th of them.  A
    subgroup contains H exactly when it contains H's generators, so the
    AND of their columns marks the listed subgroups that contain H.

    4. When |G| has at most two prime factors, H is joined only with a
       seed whose generator lies in the normalizer of H (``_normalizer``).

    Such a G is solvable (Burnside's p^a q^b theorem), and so is each of its
    subgroups K > 1, whose derived subgroup is therefore proper: K has a
    normal subgroup H of prime index q.  The x above may be taken anywhere
    in K∖H, so the seed it gives lies in K, normalizes H, and reaches K
    from H: a chain of such covers, each with H normal in K, still ends at
    every subgroup.  A seed that normalizes H joins it in exactly
    |c : c∩H| cosets, so every join has prime index, and by rule 3 none
    gives a subgroup found before: each subgroup but the trivial one is
    the result of exactly one join.  With three or more primes every seed
    is joined, since a subgroup may then have no normal subgroup of prime
    index: A6 has none, and the rule would lose A6 itself from its own
    lattice.

    Each subgroup found is recorded with the generators that built it, the
    generators of H and g, for ``subgroup_generators``.
    """
    check_lattice_cap(group, cap)

    def build() -> tuple[Subgroup, ...]:
        table = group.table
        n = group.order
        orders = element_orders(group)
        primes = [p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)]
        # element orders divide n, so these are all the prime powers p^a > 1 they take
        prime_of = {p ** a: p for p in primes for a in range(1, n.bit_length()) if n % p ** a == 0}
        normalizing = len(primes) <= 2  # rule 4: solvable by Burnside's p^a q^b theorem
        seeds: dict[int, int] = {}  # cyclic subgroup of prime-power order -> least generator
        for x in range(1, n):
            if orders[x] in prime_of:
                seeds.setdefault(closure_bits(table, (x,)), x)
        # generator -> (bits, |c|/p): H is joined with c only when |c∩H| = |c|/p
        seed_of = {g: (c, orders[g] // prime_of[orders[g]]) for c, g in seeds.items()}
        seed_mask = sum(1 << g for g in seed_of)
        built = {1: ()}  # bits -> the generators that built it
        keys = {1: (1, [0])}  # bits -> Subgroup.sort_key, from the members walked once here
        # order -> (the subgroups found of that order, the column of each element)
        found = defaultdict(lambda: ([], [0] * n))
        queue = deque([1])
        while queue:
            bits = queue.popleft()
            size, members = keys[bits]
            gens = built[bits]
            todo = seed_mask & ~bits  # the seed generators not yet covered
            if normalizing:
                todo &= _normalizer(group, gens, bits)
            for p in primes:
                if size * p not in found:
                    continue
                listed, columns = found[size * p]
                within = (1 << len(listed)) - 1
                for h in gens:
                    within &= columns[h]
                while within:  # one step per cover found, however long the list
                    i = within.bit_length() - 1
                    todo &= ~listed[i]
                    within ^= 1 << i
            while todo:  # least generator first
                g = (todo & -todo).bit_length() - 1
                todo ^= 1 << g
                c, meet = seed_of[g]
                if (c & bits).bit_count() != meet:
                    continue
                joined = closure_bits(table, (g,), bits, members)
                if _is_prime(joined.bit_count() // size):
                    todo &= ~joined
                if joined not in built:
                    built[joined] = gens + (g,)
                    queue.append(joined)
                    new = members_of(joined)
                    keys[joined] = (len(new), new)
                    listed, columns = found[len(new)]
                    for x in new:
                        columns[x] |= 1 << len(listed)
                    listed.append(joined)
        known = memo(group, "generators", dict)
        for bits, gens in built.items():
            known.setdefault(bits, gens)
        return tuple(Subgroup(group, bits) for bits in sorted(built, key=keys.__getitem__))

    return memo(group, "all_subgroups", build)


def normal_subgroups(group: Group, *, cap: int = DEFAULT_LATTICE_CAP) -> tuple[Subgroup, ...]:
    """The normal subgroups, in ``all_subgroups`` order; the memoized tuple itself."""
    check_lattice_cap(group, cap)
    return memo(group, "normal_subgroups", lambda: tuple(
        s for s in all_subgroups(group, cap=cap) if is_normal_bits(group, s.bits)
    ))


def _listed_normal(group: Group, bits: int) -> bool:
    """True iff ``normal_subgroups`` has already found ``bits`` normal.

    Builds no lattice: without the memoized normals the answer is False.
    """
    normals = group._cache.get("normal_subgroups")
    return normals is not None and bits in memo(
        group, "normal_bits", lambda: {n.bits for n in normals})


def center(group: Group) -> Subgroup:
    return center_of(group, whole_subgroup(group))


def center_of(group: Group, sub: Subgroup) -> Subgroup:
    """Center of a subgroup, computed inside it (a subgroup of the parent):
    its members in the centralizer of each of its generators."""
    check_parent(group, sub)
    gens = subgroup_generators(group, sub.bits)

    def build() -> Subgroup:
        bits = sub.bits
        for h in gens:
            bits &= _conjugators(group, h)[h]
        return Subgroup(group, bits)

    return memo(group, ("center", sub.bits), build)


def commutator(group: Group, a: Subgroup, b: Subgroup) -> Subgroup:
    """Subgroup generated by all [x,y] = x^-1 y^-1 x y with x in A, y in B.

    It is the normal closure in <A, B> of the commutators of the generators
    of A with those of B (Holt, Eick & O'Brien, *Handbook of Computational
    Group Theory*, 2005, §3.3): the closure grows by each new generator,
    and each new generator's conjugates by the generators of A and B are
    queued in turn.
    """
    check_parent(group, a, b)
    table = group.table
    inv = group.inv
    a_gens = subgroup_generators(group, a.bits)
    b_gens = subgroup_generators(group, b.bits)
    by = tuple(dict.fromkeys(a_gens + b_gens))
    queue = [table[table[inv[x]][inv[y]]][table[x][y]] for x in a_gens for y in b_gens]
    bits, gens = 1, []
    while queue:
        x = queue.pop()
        if not (bits >> x) & 1:
            bits = closure_bits(table, (x,), bits, members_of(bits))
            gens.append(x)
            queue += [table[table[g][x]][inv[g]] for g in by]
    memo(group, "generators", dict).setdefault(bits, tuple(gens))
    return Subgroup(group, bits)


def derived_of(group: Group, sub: Subgroup) -> Subgroup:
    """Derived subgroup of a subgroup, computed inside it (a subgroup of the parent)."""
    check_parent(group, sub)
    return memo(group, ("derived", sub.bits), lambda: commutator(group, sub, sub))


def derived_subgroup(group: Group) -> Subgroup:
    return derived_of(group, whole_subgroup(group))


_derived_groups: WeakValueDictionary[Rows, Group] = WeakValueDictionary()


def _derived_group(table: Rows) -> Group:
    """The ``Group`` of a subgroup or quotient table, one per distinct table.

    ``table`` is in the form a ``Group`` stores, and is the intern's key.
    Subgroups and quotients repeat tables often, within a parent and across
    parents (every subgroup of order 2 extracts as ``(b"\\0\\1", b"\\1\\0")``), so
    each distinct table is built, and so validated, once; later requests
    from any live group return the same object.  The intern holds it weakly:
    it lives as long as some parent's ``as_group`` or ``quotient`` memo does.
    """
    found = _derived_groups.get(table)
    if found is None:
        found = _derived_groups[table] = Group(table)
    return found


def quotient(group: Group, normal: Subgroup) -> QuotientMap:
    """Quotient by a normal subgroup; cosets numbered by minimal member.

    The target is shared with every quotient and extracted subgroup of any
    live group that has the same table (see ``_derived_group``).
    Normality is tested unless ``normal_subgroups`` already listed it.
    """
    check_parent(group, normal)

    def build() -> QuotientMap:
        if not _listed_normal(group, normal.bits) and not is_normal_bits(group, normal.bits):
            raise NotNormal("cannot form a quotient by a non-normal subgroup")
        qtable, coset_of = coset_table(group.table, normal.members())
        return QuotientMap(group, _derived_group(qtable), tuple(coset_of))

    return memo(group, ("quotient", normal.bits), build)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def subgroup_as_group(sub: Subgroup) -> tuple[Group, tuple[int, ...]]:
    """Extract a subgroup as a standalone group.

    Returns the new group and the member list mapping new indices to parent
    indices (ascending, so the identity stays at 0).  The whole subgroup
    extracts as the parent itself.  Any other is cached on the parent, and
    its group is shared with every extracted subgroup and quotient of any
    live group that has the same table (see ``_derived_group``).  It
    serves isomorphism searches and witnesses; lattice work and
    fingerprints of a subgroup stay in the parent's indices.  Raises
    PreconditionFailed when ``sub`` is no subgroup.
    """
    parent = sub.parent
    if sub.bits == (1 << parent.order) - 1:
        return parent, tuple(range(parent.order))

    def build() -> tuple[Group, tuple[int, ...]]:
        subgroup_generators(parent, sub.bits)
        members = sub.members()
        pos = [0] * parent.order  # position of each member; 0 elsewhere, never kept
        for i, m in enumerate(members):
            pos[m] = i
        return _derived_group(reindexed_rows(parent.table, members, pos)), tuple(members)

    return memo(parent, ("as_group", sub.bits), build)
