"""Shared fixtures: the built-in catalog and brute-force oracles."""

from __future__ import annotations

import math
from itertools import permutations, product

import pytest

from groupkit import builtin_catalog
from groupkit.core import Group, exact_ints, hom_defect
from groupkit.iso import IsoCache


# the order-32 premise workload of the benchmark, as recipe DSL
PREMISES32 = {
    "C4xC2xC2xC2": "P(P(P(C(4),C(2)),C(2)),C(2))",
    "D4xC2xC2": "P(P(D(4),C(2)),C(2))",
    "Q8xC2xC2": "P(P(Dic(2),C(2)),C(2))",
    "C4xC4xC2": "P(P(C(4),C(4)),C(2))",
}


@pytest.fixture(scope="session")
def catalog16():
    return builtin_catalog(16)


@pytest.fixture(scope="session")
def catalog24():
    return builtin_catalog(24)


@pytest.fixture(scope="session")
def iso_cache():
    return IsoCache()


# ---------------------------------------------------------------------------
# independent oracles (kept deliberately naive)

def is_isomorphism(source: Group, target: Group, mapping) -> bool:
    """Full check: bijection of exact ints fixing 0 with map[x*y] = map[x]*map[y] everywhere."""
    n = source.order
    if target.order != n or len(mapping) != n or not exact_ints(mapping):
        return False
    if mapping[0] != 0 or set(mapping) != set(range(n)):
        return False
    return hom_defect(source.table, target.table, mapping) is None


def members_of(bits: int) -> list[int]:
    """The members of a bitset, one bit test per position."""
    return [i for i in range(bits.bit_length()) if (bits >> i) & 1]


def closed_subset(group: Group, bits: int) -> bool:
    """Subset-closure check used by the 2^n subgroup oracle."""
    if not bits & 1:
        return False
    table = group.table
    members = members_of(bits)
    for x in members:
        row = table[x]
        for y in members:
            if not (bits >> row[y]) & 1:
                return False
    return True


def subgroups_by_subset_filter(group: Group) -> list[int]:
    """All subgroup bitsets by filtering every subset containing the identity."""
    n = group.order
    out = []
    for half in range(1 << (n - 1)):
        bits = (half << 1) | 1
        if closed_subset(group, bits):
            out.append(bits)
    return sorted(out, key=lambda b: (b.bit_count(), members_of(b)))


def closure_by_products(group: Group, bits: int) -> int:
    """Subgroup generated by a nonempty subset: add products until none is new."""
    table = group.table
    while True:
        members = members_of(bits)
        grown = bits
        for x in members:
            for y in members:
                grown |= 1 << table[x][y]
        if grown == bits:
            return bits
        bits = grown


def order_by_powering(group: Group, x: int) -> int:
    """Element order by explicitly listing powers until the identity repeats."""
    seen = [x]
    y = group.table[x][x]
    while y != x:
        seen.append(y)
        y = group.table[y][x]
    return len(seen)


def projection_by_products(group: Group, h, k) -> list[int]:
    """Index map g = h·k -> k of a direct splitting G = H×K, one product at a time."""
    table = group.table
    out = [-1] * group.order
    for x in members_of(h.bits):
        for y in members_of(k.bits):
            out[table[x][y]] = y
    return out


def product_set_by_members(group: Group, a_bits: int, b_bits: int) -> int:
    """The product set {x·y : x in A, y in B} as a bitset, one product at a time."""
    table = group.table
    out = 0
    for x in members_of(a_bits):
        for y in members_of(b_bits):
            out |= 1 << table[x][y]
    return out


def complements_by_scan(group: Group, n_bits: int) -> list[int]:
    """Brute-force complement oracle: scan all subgroups, filter normality,
    order product, and trivial intersection per candidate."""
    from groupkit.subgroups import all_subgroups, is_normal_bits

    n_order = n_bits.bit_count()
    out = []
    for s in all_subgroups(group):
        if (
            s.order * n_order == group.order
            and s.bits & n_bits == 1
            and is_normal_bits(group, s.bits)
        ):
            out.append(s.bits)
    return out


def is_associative_by_triples(table) -> bool:
    """Associativity checked on every triple (x, y, z)."""
    n = len(table)
    return all(
        table[table[x][y]][z] == table[x][table[y][z]]
        for x in range(n) for y in range(n) for z in range(n)
    )


def first_table_failure(table) -> tuple | None:
    """The first axiom a table (a list of lists) fails, by plain loops in
    ``validate_table``'s documented order, or None for a group.

    Returns ("MalformedTable", message) for the shape, the integer entries
    and the first entry out of range in row-major order; ("NoIdentity",
    message); ("NotLatin", (axis, index, least repeated value)) for rows,
    then columns; ("NotInvertible", x) for the first x whose right inverse
    is not a left one; ("NotAssociative", (x, y, z)) for the first triple.
    """
    n = len(table)
    lengths = {len(row) for row in table}
    if len(lengths) > 1:
        return "MalformedTable", "table rows differ in length"
    if n == 0 or 0 in lengths:
        return "MalformedTable", "table is empty"
    if lengths != {n}:
        return "MalformedTable", f"table has shape ({n}, {lengths.pop()}), expected ({n}, {n})"
    for row in table:
        for v in row:
            if type(v) is not int:
                return "MalformedTable", f"table entries must be integers in [0, {n})"
    for i, row in enumerate(table):
        for v in row:
            if v < 0 or v >= n:
                return "MalformedTable", f"row {i} entry {v} out of range [0, {n})"
    for i in range(n):
        if table[0][i] != i or table[i][0] != i:
            return "NoIdentity", "index 0 is not a two-sided identity"
    for axis in ("row", "column"):
        for i in range(n):
            counts = [0] * n
            for j in range(n):
                counts[table[i][j] if axis == "row" else table[j][i]] += 1
            for v in range(n):
                if counts[v] > 1:
                    return "NotLatin", (axis, i, v)
    for x in range(n):
        for y in range(n):
            if table[x][y] == 0 and table[y][x] != 0:
                return "NotInvertible", x
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    return "NotAssociative", (x, y, z)
    return None


def reduced_latin_squares(n: int):
    """Every n×n Latin square whose first row and column are 0..n-1 in order."""
    square = [[c if r == 0 else (r if c == 0 else -1) for c in range(n)] for r in range(n)]
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def fill(k: int):
        if k == len(cells):
            yield [row[:] for row in square]
            return
        r, c = cells[k]
        for v in range(n):
            if v not in square[r] and all(square[i][c] != v for i in range(n)):
                square[r][c] = v
                yield from fill(k + 1)
                square[r][c] = -1

    yield from fill(0)


def product_table_by_entries(a: Group, b: Group) -> list[list[int]]:
    """Direct product table, one entry at a time: (x, y) -> x*|B| + y."""
    nb = b.order
    pairs = [(x, y) for x in range(a.order) for y in range(nb)]
    return [[a.table[x1][x2] * nb + b.table[y1][y2] for x2, y2 in pairs]
            for x1, y1 in pairs]


def inverses_by_scan(table) -> tuple[int, ...]:
    """For each x, the y with x·y = 0, found by scanning row x entry by entry."""
    out = []
    for row in table:
        for y, value in enumerate(row):
            if value == 0:
                out.append(y)
                break
    return tuple(out)


def semidirect_table_by_entries(normal: Group, acting: Group, phi) -> list[list[int]]:
    """(q1, n1)(q2, n2) = (q1·q2, phi(q2⁻¹)(n1)·n2), one entry at a time."""
    nn = normal.order
    pairs = [(q, x) for q in range(acting.order) for x in range(nn)]
    out = []
    for q1, n1 in pairs:
        row = []
        for q2, n2 in pairs:
            q2_inv = next(q for q in range(acting.order) if acting.table[q2][q] == 0)
            row.append(acting.table[q1][q2] * nn + normal.table[phi[q2_inv][n1]][n2])
        out.append(row)
    return out


def inverting_table_by_rules(m: int, s: int) -> list[list[int]]:
    """⟨a, b | aᵐ = 1, b² = aˢ, b·a·b⁻¹ = a⁻¹⟩ one entry at a time, with aⁱbʲ
    at j·m + i: the word aⁱbʲ·aᵏbˡ is rewritten to normal form by moving aᵏ
    left past bʲ (b·a = a⁻¹·b), then replacing b² by aˢ."""
    def times(x, y):
        (i, j), (k, l) = x, y
        for _ in range(j):
            k = -k
        i, j = i + k, j + l
        if j == 2:
            i, j = i + s, 0
        return i % m, j

    elements = [(i, j) for j in range(2) for i in range(m)]
    index = {x: n for n, x in enumerate(elements)}
    return [[index[times(x, y)] for y in elements] for x in elements]


def isomorphisms_by_bijections(source: Group, target: Group) -> list[tuple[int, ...]]:
    """Every bijection fixing 0 that carries source's table onto target's,
    in lexicographic order, by trying all (n-1)! of them."""
    n = source.order
    if target.order != n:
        return []
    s, t = source.table, target.table
    out = []
    for rest in permutations(range(1, n)):  # lexicographic, as the input is sorted
        perm = (0,) + rest
        if all(perm[s[x][y]] == t[perm[x]][perm[y]] for x in range(n) for y in range(n)):
            out.append(perm)
    return out


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """[n, k]_p: the number of k-dimensional subspaces of F_p^n."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def elementary_abelian_splittings(p: int, n: int) -> int:
    """Oriented direct splittings (H, K) of C_p^n, {1, 1} of C1 counted once.

    H is one of [n, k]_p subspaces of dimension k, and its complements are
    the graphs of the p^(k(n-k)) linear maps from a fixed complement into H.
    """
    return sum(gaussian_binomial(n, k, p) * p ** (k * (n - k)) for k in range(n + 1))


def elementary_abelian_premises(p: int, n: int) -> tuple[int, int]:
    """(premise count, distinct H0 count) of C_p^n, in closed form.

    An oriented splitting (H, K) with dim H = k picks H in [n, k]_p ways and
    a complement K in p^(k(n-k)) ways, and every k-dimensional subspace is an
    H0 for it (H0 ≅ H and G/H0 ≅ K hold by dimension).  So the premises are
    Σ_k [n, k]_p² · p^(k(n-k)), and every subgroup is an H0.
    """
    premises = sum(gaussian_binomial(n, k, p) ** 2 * p ** (k * (n - k))
                   for k in range(n + 1))
    return premises, sum(gaussian_binomial(n, k, p) for k in range(n + 1))


def coset_orders(group: Group, elements, m_bits: int) -> list[int]:
    """The order of xM in G/M (M normal) for one x of each coset xM met in
    ``elements``: the least k >= 1 with x^k in M, found by powering."""
    table = group.table
    m_members = members_of(m_bits)
    seen = 0
    out = []
    for x in elements:
        if (seen >> x) & 1:
            continue
        for m in m_members:
            seen |= 1 << table[x][m]
        k, y = 1, x
        while not (m_bits >> y) & 1:
            y = table[y][x]
            k += 1
        out.append(k)
    return out


def abelian_invariants(orders: list[int]) -> list[int]:
    """Elementary divisors of a finite abelian group, from its element orders.

    With cyclic p-factors of orders p^aᵢ, the elements killed by p^k number
    ∏ p^min(k, aᵢ), so log_p of |killed by p^k| / |killed by p^(k-1)| is
    the number of p-factors of order at least p^k.
    """
    n = len(orders)
    out = []
    for p in range(2, n + 1):
        if n % p or any(p % q == 0 for q in range(2, p)):
            continue

        def log_killed(k: int) -> int:
            killed = sum(1 for o in orders if p ** k % o == 0)
            e = 0
            while killed > 1:
                killed //= p
                e += 1
            return e

        at_least = []
        while True:
            k = len(at_least) + 1
            step = log_killed(k) - log_killed(k - 1)
            if not step:
                break
            at_least.append(step)
        for k, count in enumerate(at_least, 1):
            out += [p ** k] * (count - (at_least[k] if k < len(at_least) else 0))
    return sorted(out)


def commutator_bits_by_products(group: Group, a_bits: int, b_bits: int) -> int:
    """[A, B]: the closure of every x⁻¹y⁻¹xy with x in A and y in B,
    inverses read off the table."""
    table = group.table
    inv = [row.index(0) for row in table]
    bits = 0
    for x in members_of(a_bits):
        for y in members_of(b_bits):
            bits |= 1 << table[table[inv[x]][inv[y]]][table[x][y]]
    return closure_by_products(group, bits)


def derived_bits_by_commutators(group: Group) -> int:
    """G′ = [G, G] by ``commutator_bits_by_products``."""
    whole = (1 << group.order) - 1
    return commutator_bits_by_products(group, whole, whole)


def complement_count_by_homs(group: Group, n_bits: int, derived_bits: int) -> int:
    """|Hom((G/N)^ab, Z(N))| = ∏ᵢⱼ gcd(mᵢ, nⱼ) over the elementary divisors.

    (G/N)^ab is G/(N·G′), and Z(N) the members of N that commute with all
    of N.  For a direct factor N this counts its normal complements: they
    are the graphs of the homomorphisms from a complement C ≅ G/N to Z(N).
    """
    table = group.table
    members = members_of(n_bits)
    center = [z for z in members if all(table[z][x] == table[x][z] for x in members)]
    quotient = abelian_invariants(coset_orders(
        group, range(group.order), closure_by_products(group, n_bits | derived_bits)))
    central = abelian_invariants(coset_orders(group, center, 1))
    return math.prod(math.gcd(m, n) for m in quotient for n in central)


def normal_in_by_conjugates(group: Group, h_bits: int, k_bits: int) -> bool:
    """H ⊴ K for a subgroup H of K: k·h·k⁻¹ in H for every k in K and h in H."""
    table = group.table
    inv = [row.index(0) for row in table]
    return all((h_bits >> table[table[k][h]][inv[k]]) & 1
               for k in members_of(k_bits) for h in members_of(h_bits))


def is_direct_by_members(group: Group, factors_bits) -> bool:
    """G = F1×…×Fk by the definition: every element of G is exactly one
    product x1·…·xk with each xi in Fi, each factor is normal by conjugates,
    and distinct factors commute member by member."""
    table, n = group.table, group.order
    factors = [members_of(bits) for bits in factors_bits]
    if math.prod(map(len, factors)) != n:
        return False
    products = [0]
    for members in factors:
        products = [table[p][x] for p in products for x in members]
    return (sorted(products) == list(range(n))
            and all(normal_in_by_conjugates(group, bits, (1 << n) - 1) for bits in factors_bits)
            and all(table[x][y] == table[y][x] for i, xs in enumerate(factors)
                    for ys in factors[i + 1:] for x in xs for y in ys))


def center_bits_by_commuting(group: Group, bits: int) -> int:
    """Z(H): the members of H that commute with every member of H."""
    table = group.table
    members = members_of(bits)
    return sum(1 << z for z in members if all(table[z][x] == table[x][z] for x in members))


def closure_by_words(group: Group, gens) -> int:
    """<gens>: every word in the generators, grown one right factor at a
    time until no product is new."""
    table = group.table
    reached, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = table[x][g]
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return sum(1 << x for x in reached)


def order_histogram_by_powering(group: Group, bits: int) -> tuple[tuple[int, int], ...]:
    """(element order, count) over the members of ``bits``, each order found
    by ``order_by_powering``, sorted by order."""
    counts: dict[int, int] = {}
    for x in members_of(bits):
        k = order_by_powering(group, x)
        counts[k] = counts.get(k, 0) + 1
    return tuple(sorted(counts.items()))


def subgroup_table_by_members(group: Group, bits: int) -> tuple[tuple[int, ...], ...]:
    """The table of the subgroup ``bits``, its members renumbered 0, 1, ... ascending."""
    members = members_of(bits)
    pos = {x: i for i, x in enumerate(members)}
    return tuple(tuple(pos[group.table[x][y]] for y in members) for x in members)


def quotient_table_by_cosets(group: Group, n_bits: int) -> tuple[tuple[int, ...], ...]:
    """G/N for a normal N: each coset xN listed as a bitset, numbered in order
    of first appearance, and xN·yN read as the coset of x·y."""
    table = group.table
    numbers: dict[int, int] = {}  # coset bitset -> its number
    number_of = []  # element -> the number of its coset
    reps = []
    for x in range(group.order):
        coset = sum(1 << table[x][m] for m in members_of(n_bits))
        if coset not in numbers:
            numbers[coset] = len(reps)
            reps.append(x)
        number_of.append(numbers[coset])
    return tuple(tuple(number_of[table[x][y]] for y in reps) for x in reps)


def isomorphic_by_generators(source, target) -> bool:
    """Whether two tables are isomorphic, from the tables alone.

    The source's generators are taken greedily (each the least element not
    yet reached by words in the earlier ones).  Every choice of target
    elements of equal orders as their images is extended to a map by words,
    x·g ↦ map(x)·image(g), and the first that is a well-defined bijection
    and a homomorphism on every pair answers yes.
    """
    n = len(source)
    if len(target) != n:
        return False

    def orders(table):
        out = []
        for x in range(n):
            k, y = 1, x
            while y != 0:
                y, k = table[y][x], k + 1
            out.append(k)
        return out

    def words(gens):
        reached, frontier = {0}, [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                if source[x][g] not in reached:
                    reached.add(source[x][g])
                    frontier.append(source[x][g])
        return reached

    s_orders, t_orders = orders(source), orders(target)
    if sorted(s_orders) != sorted(t_orders):
        return False
    gens: list[int] = []
    reached = {0}
    for x in range(n):
        if x not in reached:
            gens.append(x)
            reached = words(gens)
    candidates = [[y for y in range(n) if t_orders[y] == s_orders[g]] for g in gens]
    for images in product(*candidates):
        mapping = {0: 0}
        frontier = [0]
        while frontier and mapping is not None:
            x = frontier.pop()
            for g, image in zip(gens, images):
                y, z = source[x][g], target[mapping[x]][image]
                if y not in mapping:
                    mapping[y] = z
                    frontier.append(y)
                elif mapping[y] != z:
                    mapping = None
                    break
        if (mapping is not None and len(set(mapping.values())) == n
                and all(mapping[source[x][y]] == target[mapping[x]][mapping[y]]
                        for x in range(n) for y in range(n))):
            return True
    return False


def orbits_by_maps(maps, subsets) -> list[list[int]]:
    """The orbits of the bitsets ``subsets`` under the element maps ``maps``
    (all the maps of a group of permutations, such as Aut(G)), each sorted,
    in the order of their first member in ``subsets``.  Each orbit is the
    image of its first member under every map, built member by member."""
    left, orbits = set(subsets), []
    for bits in subsets:
        if bits in left:
            members = members_of(bits)
            orbit = {sum(1 << mapping[x] for x in members) for mapping in maps}
            left -= orbit
            orbits.append(sorted(orbit))
    return orbits


def premises_by_normals(group: Group) -> tuple[int, list[int]]:
    """(premise count, sorted H0 bitsets) of a group, from the tables alone.

    The normals are the subgroups of ``subgroups_by_subset_filter`` closed
    under conjugation.  For each ordered pair (H, K) of normals with
    H∩K = 1 and |H||K| = |G|, every normal N with N ≅ H and G/N ≅ K is one
    premise and an H0; isomorphism is ``isomorphic_by_generators`` on the
    extracted tables, remembered per pair of tables.
    """
    whole = (1 << group.order) - 1
    normals = [b for b in subgroups_by_subset_filter(group)
               if normal_in_by_conjugates(group, b, whole)]
    subs = {b: subgroup_table_by_members(group, b) for b in normals}
    quotients = {b: quotient_table_by_cosets(group, b) for b in normals}
    known: dict[tuple, bool] = {}

    def iso(a, b) -> bool:
        if (a, b) not in known:
            known[a, b] = isomorphic_by_generators(a, b)
        return known[a, b]

    count, h0s = 0, set()
    for h in normals:
        for k in normals:
            if h & k != 1 or h.bit_count() * k.bit_count() != group.order:
                continue
            for n in normals:
                if (n.bit_count() == h.bit_count() and iso(subs[n], subs[h])
                        and iso(quotients[n], subs[k])):
                    count += 1
                    h0s.add(n)
    return count, sorted(h0s)
