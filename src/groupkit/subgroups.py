"""Subgroups as membership bitsets, lattice enumeration, and quotients.

A subgroup of a group of order n is a Python int whose bit i says whether
element i belongs; arbitrary-precision ints give word-parallel intersection,
union, and equality for free.  Bit 0 (the identity) is always set.
Each subgroup has one memoized generating set (``subgroup_generators``),
and the normality, centre, commutator and join kernels read it instead
of every member.  Normalizers and centralizers read one memoized
conjugation column per generator (``_conjugation_columns``).  The
lattice build records which subgroups are normal as it finds them, and
keeps which subgroup holds which element (``containment``): ``supersets``
reads from it the subgroups that contain a given one, and joins use it.
"""

from __future__ import annotations

from collections import deque
from weakref import WeakValueDictionary

from .core import (
    Group,
    Record,
    Rows,
    bits_of,
    closure_bits,
    coset_table,
    element_orders,
    generators_commute,
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


class Containment(Record):
    """Which subgroup contains which element, kept by ``all_subgroups``.

    ``subgroups`` lists every subgroup's bits in the order the lattice
    search found them; bit i of ``columns[x]`` is set when the i-th holds
    element x, and bit i of ``of_order[m]`` when it has order m.
    """

    subgroups: tuple[int, ...]
    columns: tuple[int, ...]
    of_order: dict[int, int]

    def join(self, above: int, order: int) -> int:
        """The bits of the subgroup of ``order`` marked in ``above``, or 0
        when none is.  For ``above`` the subgroups that contain both A and
        B, and ``order`` |A|·|B|/|A∩B|, that subgroup is the join ⟨A, B⟩,
        and there is at most one (see ``join_bits``)."""
        mask = above & self.of_order.get(order, 0)
        return self.subgroups[mask.bit_length() - 1] if mask else 0


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


def is_abelian_bits(group: Group, bits: int) -> bool:
    """True iff the subgroup ``bits`` is abelian: its memoized generators
    commute pairwise (memoized).  PreconditionFailed if it is no subgroup."""
    return memo(group, ("commuting", bits),
                lambda: generators_commute(group.table, subgroup_generators(group, bits)))


def _conjugation_columns(group: Group) -> list:
    """Column h of the conjugation table (g ↦ g·h·g⁻¹) for each h, memoized,
    with g running from |G|−1 down to 0: ``bytes`` up to order 256, a
    ``str`` of ``chr`` entries above.  Translated through the 0/1 digits of
    a bitset X, column h is the binary numeral of {g : g·h·g⁻¹ ∈ X}.
    """
    def build() -> list:
        table, n = group.table, group.order
        by_g = list(zip(table, group.inv))[::-1]  # g from |G|-1 down to 0
        # conjugation row g is row g read through column g⁻¹
        if n <= 256:
            joined = b"".join(table)
            rows = b"".join([row.translate(joined[ig::n].ljust(256, b"\0")) for row, ig in by_g])
        else:
            cols = tuple(zip(*table))
            rows = "".join(["".join(map(chr, map(cols[ig].__getitem__, row))) for row, ig in by_g])
        return [rows[h::n] for h in range(n)]

    return memo(group, "conjugation_columns", build)


def _normalizer(group: Group, gens, bits: int) -> int:
    """The g that conjugate every element of ``gens`` into the set ``bits``,
    as a bitset, from one ``translate`` and one base-2 parse per generator:
    N_G(H) when ``bits`` is a subgroup H generated by ``gens``, and the
    centralizer of h for ``gens`` (h,) and ``bits`` {h}.

    Conjugation by g is an automorphism, so g·H·g⁻¹ ⊆ H then, and equal as
    both are finite of one size.
    """
    columns = _conjugation_columns(group)
    digits = bin(bits)[:1:-1]  # digit x says whether x is in ``bits``
    n = group.order
    mask = digits.encode().ljust(256, b"0") if n <= 256 else digits.ljust(n, "0")
    out = (1 << n) - 1
    for h in gens:
        out &= int(columns[h].translate(mask), 2)
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

    The covers found before H are looked up in the membership record
    (``containment``): every subgroup in the order found, one int per
    element x with bit i set when x lies in the i-th of them, and one mask
    per order.  A subgroup contains H exactly when it contains H's
    generators, so the AND of their columns with the mask of order |H|·p
    marks the subgroups found of that order that contain H.

    4. The normalizer of H (``_normalizer``) is computed once, when H is
       taken.  When |G| has at most two prime factors, H is joined only
       with a seed whose generator lies in it.

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
    generators of H and g, for ``subgroup_generators``.  The subgroups whose
    normalizer is G, in every order, are recorded for ``normal_subgroups``,
    and the membership record is kept for ``supersets``.
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
        whole = (1 << n) - 1
        normal = set()  # the subgroups whose normalizer is G
        built = {1: ()}  # bits -> the generators that built it
        keys = {1: (1, [0])}  # bits -> Subgroup.sort_key, from the members walked once here
        found = [1]  # every subgroup, in the order found
        columns = [1] + [0] * (n - 1)  # element -> bit i set when found[i] holds it
        of_order = {1: 1}  # order -> bit i set when found[i] has it
        queue = deque([1])
        while queue:
            bits = queue.popleft()
            size, members = keys[bits]
            gens = built[bits]
            normalizer = _normalizer(group, gens, bits)
            if normalizer == whole:
                normal.add(bits)
            # the seed generators not yet covered
            todo = seed_mask & ~bits & (normalizer if normalizing else whole)
            for p in primes:
                within = of_order.get(size * p, 0)
                for h in gens:
                    within &= columns[h]
                while within:  # one step per cover found, however many subgroups
                    i = within.bit_length() - 1
                    todo &= ~found[i]
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
                    bit = 1 << len(found)
                    for x in new:
                        columns[x] |= bit
                    of_order[len(new)] = of_order.get(len(new), 0) | bit
                    found.append(joined)
        known = memo(group, "generators", dict)
        for bits, gens in built.items():
            known.setdefault(bits, gens)
        subs = tuple(Subgroup(group, bits) for bits in sorted(built, key=keys.__getitem__))
        memo(group, "normal_subgroups", lambda: tuple(s for s in subs if s.bits in normal))
        memo(group, "containment", lambda: Containment(tuple(found), tuple(columns), of_order))
        return subs

    return memo(group, "all_subgroups", build)


def containment(group: Group, *, cap: int = DEFAULT_LATTICE_CAP) -> Containment:
    """The membership record that ``all_subgroups`` builds and keeps."""
    all_subgroups(group, cap=cap)
    return memo(group, "containment")


def supersets(group: Group, *bitsets: int, cap: int = DEFAULT_LATTICE_CAP) -> int:
    """The subgroups that contain every given subgroup (a bitset), as a mask
    over ``containment(group).subgroups``: the AND of the given subgroups'
    generator columns, since a subgroup contains another exactly when it
    contains its generators.  Raises PreconditionFailed when a bitset is no
    subgroup."""
    record = containment(group, cap=cap)
    out = (1 << len(record.subgroups)) - 1
    for bits in bitsets:
        for h in subgroup_generators(group, bits):
            out &= record.columns[h]
    return out


def normal_subgroups(group: Group, *, cap: int = DEFAULT_LATTICE_CAP) -> tuple[Subgroup, ...]:
    """The normal subgroups, in ``all_subgroups`` order; the memoized tuple
    itself, which the lattice build records."""
    all_subgroups(group, cap=cap)
    return memo(group, "normal_subgroups")


def _normals_of_order(group: Group, *, cap: int) -> dict[int, dict[Subgroup, None]]:
    """The normals grouped by order, each order's an ordered set (a dict to
    None) in canonical order; memoized."""
    def build() -> dict[int, dict[Subgroup, None]]:
        out: dict[int, dict[Subgroup, None]] = {}
        for n in normal_subgroups(group, cap=cap):
            out.setdefault(n.order, {})[n] = None
        return out

    return memo(group, "normals_of_order", build)


def _listed_normals(group: Group) -> dict[int, dict[Subgroup, None]] | None:
    """``_normals_of_order`` once the lattice build has recorded the
    normals (``normal_subgroups``), else None: no lattice is built here."""
    if memo(group, "normal_subgroups") is not None:
        return _normals_of_order(group, cap=group.order)
    return None


def center(group: Group) -> Subgroup:
    return center_of(group, whole_subgroup(group))


def center_of(group: Group, sub: Subgroup) -> Subgroup:
    """Center of a subgroup, computed inside it (a subgroup of the parent):
    its members in the centralizer of each of its generators, or the whole
    subgroup when it is abelian.  The centralizer of h is the g that
    conjugate h into {h}.  A memo hit builds nothing."""
    check_parent(group, sub)
    key = ("center", sub.bits)
    found = memo(group, key)
    if found is not None:
        return found

    def build() -> Subgroup:
        bits = sub.bits
        if is_abelian_bits(group, bits):
            return sub
        gens = subgroup_generators(group, bits)
        for h in gens:
            bits &= _normalizer(group, (h,), 1 << h)
        return Subgroup(group, bits)

    return memo(group, key, build)


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
    """Derived subgroup of a subgroup, computed inside it (a subgroup of the
    parent); trivial when the subgroup is abelian.  A memo hit builds nothing."""
    check_parent(group, sub)
    key = ("derived", sub.bits)
    return memo(group, key) or memo(group, key, lambda: (
        trivial_subgroup(group) if is_abelian_bits(group, sub.bits)
        else commutator(group, sub, sub)))


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
    Normality is tested unless the lattice build already recorded it.
    """
    check_parent(group, normal)

    def build() -> QuotientMap:
        listed = _listed_normals(group) or {}
        if normal not in listed.get(normal.order, ()) and not is_normal_bits(group, normal.bits):
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
