"""Finite groups as explicit Cayley tables, plus construction recipes.

Conventions fixed across the whole package:

- elements are indices 0..n-1 and the identity is always index 0;
- ``table[i][j]`` is the index of ``g_i * g_j``;
- product-style constructions number pairs ``(a, b) -> a * |B| + b``
  (first component major), so the identity lands at 0 automatically;
- quotient cosets are numbered by ascending minimal member index.

Three kernels live here and nowhere else: subgroup closure
(``closure_bits``), coset numbering (``coset_table``) and per-group caching
(``memo``).  Every other module calls them rather than re-implementing
them, so each concept has one place to reason about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, permutations

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvalidAction,
    InvalidRecipe,
    MalformedTable,
    NoIdentity,
    NotAssociative,
    NotCentral,
    NotInvertible,
    NotLatin,
    OrderBound,
)

DEFAULT_ORDER_CAP = 512


# ---------------------------------------------------------------------------
# recipes

def _exact_int(value, what: str):
    """``value`` if it is an exact integer by ``exact_ints``'s rule (bools
    excluded), else InvalidRecipe: no recipe parameter is cast."""
    if isinstance(value, bool) or not isinstance(value, int | np.integer):
        raise InvalidRecipe(f"{what} must be an integer, got {value!r}")
    return value


def _exact_ints(values, what: str) -> tuple:
    """``values`` as a tuple of exact integers, else InvalidRecipe."""
    try:
        out = tuple(values)
    except TypeError:
        raise InvalidRecipe(f"{what} must be a sequence of integers, got {values!r}") from None
    for x in out:
        _exact_int(x, f"{what} entry")
    return out


@dataclass(frozen=True)
class Cyclic:
    n: int

    def __post_init__(self):
        if _exact_int(self.n, "Cyclic order") < 1:
            raise InvalidRecipe(f"Cyclic order must be >= 1, got {self.n}")


@dataclass(frozen=True)
class Dihedral:
    """Dihedral group of order 2m (m rotations, m reflections)."""

    m: int

    def __post_init__(self):
        if _exact_int(self.m, "Dihedral parameter") < 1:
            raise InvalidRecipe(f"Dihedral parameter must be >= 1, got {self.m}")


@dataclass(frozen=True)
class Dicyclic:
    """Dicyclic group of order 4m; Dicyclic(2) is the quaternion group."""

    m: int

    def __post_init__(self):
        if _exact_int(self.m, "Dicyclic parameter") < 1:
            raise InvalidRecipe(f"Dicyclic parameter must be >= 1, got {self.m}")


@dataclass(frozen=True)
class Symmetric:
    m: int

    def __post_init__(self):
        if not 1 <= _exact_int(self.m, "Symmetric parameter") <= 5:
            raise InvalidRecipe(f"Symmetric parameter must be in 1..5, got {self.m}")


@dataclass(frozen=True)
class Product:
    left: "Recipe"
    right: "Recipe"


@dataclass(frozen=True)
class Semidirect:
    """Semidirect product ``acting ⋉ normal``.

    ``action`` lists ``(q, perm)`` pairs: element ``q`` of the acting group
    maps to the automorphism ``perm`` of the normal part (a full permutation
    of its indices).  The listed elements must generate the acting group and
    the images must extend to a homomorphism into Aut(normal); both are
    validated when the group is built.
    """

    normal: "Recipe"
    acting: "Recipe"
    action: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        try:
            pairs = [(q, perm) for q, perm in self.action]
        except (TypeError, ValueError):
            raise InvalidRecipe("Semidirect action must list (element, permutation) "
                                f"pairs, got {self.action!r}") from None
        norm = tuple((_exact_int(q, "Semidirect action element"),
                      _exact_ints(perm, "Semidirect action permutation"))
                     for q, perm in pairs)
        object.__setattr__(self, "action", norm)
        if not norm:
            raise InvalidRecipe("Semidirect action must list at least one generator")


@dataclass(frozen=True)
class CentralQuotient:
    """Quotient of ``inner`` by the central subgroup generated by ``gens``."""

    inner: "Recipe"
    gens: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "gens", _exact_ints(self.gens, "CentralQuotient generators"))


Recipe = Cyclic | Dihedral | Dicyclic | Symmetric | Product | Semidirect | CentralQuotient


def recipe_dsl(recipe: Recipe) -> str:
    """Render a recipe in the text DSL (inverse of parse_recipe)."""
    if isinstance(recipe, Cyclic):
        return f"C({recipe.n})"
    if isinstance(recipe, Dihedral):
        return f"D({recipe.m})"
    if isinstance(recipe, Dicyclic):
        return f"Dic({recipe.m})"
    if isinstance(recipe, Symmetric):
        return f"S({recipe.m})"
    if isinstance(recipe, Product):
        return f"P({recipe_dsl(recipe.left)},{recipe_dsl(recipe.right)})"
    if isinstance(recipe, Semidirect):
        entries = ",".join(
            f"[{q},[{','.join(str(x) for x in perm)}]]" for q, perm in recipe.action
        )
        return (
            f"SD({recipe_dsl(recipe.normal)},{recipe_dsl(recipe.acting)},"
            f"action=[{entries}])"
        )
    if isinstance(recipe, CentralQuotient):
        gens = ",".join(str(g) for g in recipe.gens)
        return f"CQ({recipe_dsl(recipe.inner)},gens=[{gens}])"
    raise InvalidRecipe(f"unknown recipe object {recipe!r}")


class _DslParser:
    """Recursive-descent parser for the recipe DSL.

    Grammar: C(n) | D(m) | Dic(m) | S(m) | P(r,r)
           | SD(r,r,action=[[q,[i,...]],...]) | CQ(r,gens=[i,...])
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str) -> InvalidRecipe:
        return InvalidRecipe(f"recipe DSL error at offset {self.pos}: {msg}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if start == self.pos:
            raise self.error("expected a name")
        return self.text[start:self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise self.error("expected an integer")
        return int(self.text[start:self.pos])

    def int_list(self) -> list[int]:
        self.expect("[")
        items = []
        if self.peek() != "]":
            items.append(self.integer())
            while self.peek() == ",":
                self.expect(",")
                items.append(self.integer())
        self.expect("]")
        return items

    def recipe(self) -> Recipe:
        name = self.name()
        self.expect("(")
        if name == "C":
            out: Recipe = Cyclic(self.integer())
        elif name == "D":
            out = Dihedral(self.integer())
        elif name == "Dic":
            out = Dicyclic(self.integer())
        elif name == "S":
            out = Symmetric(self.integer())
        elif name == "P":
            left = self.recipe()
            self.expect(",")
            right = self.recipe()
            out = Product(left, right)
        elif name == "SD":
            normal = self.recipe()
            self.expect(",")
            acting = self.recipe()
            self.expect(",")
            if self.name() != "action":
                raise self.error("expected 'action'")
            self.expect("=")
            self.expect("[")
            entries = []
            while self.peek() != "]":
                self.expect("[")
                q = self.integer()
                self.expect(",")
                perm = self.int_list()
                self.expect("]")
                entries.append((q, tuple(perm)))
                if self.peek() == ",":
                    self.expect(",")
            self.expect("]")
            out = Semidirect(normal, acting, tuple(entries))
        elif name == "CQ":
            inner = self.recipe()
            self.expect(",")
            if self.name() != "gens":
                raise self.error("expected 'gens'")
            self.expect("=")
            gens = self.int_list()
            out = CentralQuotient(inner, tuple(gens))
        else:
            raise self.error(f"unknown constructor {name!r}")
        self.expect(")")
        return out


def parse_recipe(text: str) -> Recipe:
    parser = _DslParser(text)
    out = parser.recipe()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input")
    return out


# ---------------------------------------------------------------------------
# table validation

def exact_ints(rows, t: np.ndarray) -> bool:
    """Whether ``t = np.asarray(rows)`` holds exact integers, bools excluded.

    numpy turns Python rows that mix ints and bools into int64, so only an
    ndarray's dtype answers the type check on its own.
    """
    return t.dtype.kind in "iu" and (
        isinstance(rows, np.ndarray)
        or {bool, np.bool_}.isdisjoint(map(type, chain.from_iterable(rows)))
    )


def validate_table(table) -> np.ndarray:
    """Check every group axiom on a square index table; return it as int64.

    Raises on the first failure, checked in the order: shape, integer
    entries, range, identity at 0, Latin rows then columns, two-sided
    inverses, associativity.  Every check is a whole-array operation and
    runs at every order.

    Associativity uses Light's test (Clifford & Preston, *The Algebraic
    Theory of Semigroups* I, §1.2): the g with (x·g)·y = x·(g·y) for all x, y
    include 0 and are closed under the product, so checking a set of
    generators checks every element.  The generators are picked greedily by
    ``closure_bits``, which only ever adds products of elements it has
    already reached and a generator.
    """
    try:
        t = np.asarray(table)
    except ValueError:  # ragged rows
        raise MalformedTable("table rows differ in length") from None
    if t.size == 0:
        raise MalformedTable("table is empty")
    n = len(t)
    if t.shape != (n, n):
        raise MalformedTable(f"table has shape {t.shape}, expected ({n}, {n})")
    if not exact_ints(table, t):
        raise MalformedTable(f"table entries must be integers in [0, {n})")
    bad = np.argwhere((t < 0) | (t >= n))
    if len(bad):
        i, j = bad[0]
        raise MalformedTable(f"row {i} entry {t[i, j]} out of range [0, {n})")
    t = t.astype(np.int64, copy=False)

    ident = np.arange(n)
    if not (np.array_equal(t[0], ident) and np.array_equal(t[:, 0], ident)):
        raise NoIdentity("index 0 is not a two-sided identity")

    for axis, lines in (("row", t), ("column", t.T)):
        ordered = np.sort(lines, axis=1)
        bad = np.flatnonzero((ordered != ident).any(axis=1))
        if len(bad):
            line = ordered[bad[0]]
            dup = line[np.flatnonzero(np.diff(line) == 0)[0]]
            raise NotLatin(axis, int(bad[0]), int(dup))

    # each row now holds exactly one 0; invertibility needs it two-sided
    bad = np.flatnonzero(t[np.argmin(t, axis=1), ident] != 0)
    if len(bad):
        raise NotInvertible(int(bad[0]))

    rows = t.tolist()  # Python ints: closure_bits shifts by entries
    bits, gens = 1, []
    for x in range(1, n):
        if not (bits >> x) & 1:
            gens.append(x)
            bits = closure_bits(rows, [x], bits, members_of(bits))
    for g in gens:
        bad = np.argwhere(t[t[:, g]] != t[:, t[g]])  # (x·g)·y against x·(g·y)
        if len(bad):
            x, y = bad[0]
            raise NotAssociative(int(x), g, int(y))
    return t


# ---------------------------------------------------------------------------
# the Group type

class Group:
    """Immutable finite group over indices 0..n-1 with identity at 0.

    Instances compare by identity; compare ``g.table`` directly when table
    equality is meant.  Derived data (subgroup lattice, centre, ...) is kept
    per group through ``memo``.
    """

    __slots__ = ("order", "table", "inv", "name", "recipe", "_cache")

    def __init__(self, table, *, name: str | None = None, recipe: Recipe | None = None):
        t = validate_table(table)
        self.order = len(t)
        self.table = tuple(map(tuple, t.tolist()))
        self.inv = tuple(np.argmin(t, axis=1).tolist())
        self.name = name
        self.recipe = recipe
        self._cache = {}

    def __repr__(self) -> str:
        label = self.name or (recipe_dsl(self.recipe) if self.recipe else "?")
        return f"Group({label}, order={self.order})"

    def __getstate__(self):
        return (self.order, self.table, self.inv, self.name, self.recipe)

    def __setstate__(self, state):
        order, table, inv, name, recipe = state
        self.order = order
        self.table = table
        self.inv = inv
        self.name = name
        self.recipe = recipe
        self._cache = {}


def memo(group: Group, key, fn):
    """``fn()``, computed once per group and key.

    A call that raises stores nothing, so it raises again next time.
    """
    cache = group._cache
    if key not in cache:
        cache[key] = fn()
    return cache[key]


def bits_of(members) -> int:
    out = 0
    for x in members:
        out |= 1 << x
    return out


def members_of(bits: int) -> list[int]:
    out = []
    i = 0
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return out


def closure_bits(table, gens, bits: int = 1, members=(0,)) -> int:
    """Bitset of <S ∪ gens>, where S is the subgroup ``bits`` with elements ``members``.

    Walks the left cosets of S: for each element y reached and each
    generator g, a new z = y·g brings in its whole coset z·S.  The result
    contains S and is closed under right multiplication by S and by gens;
    in a finite group x^-1 is a power of x, so it is the generated subgroup.
    """
    gens = [g for g in gens if not (bits >> g) & 1]
    frontier = list(members) if gens else []
    while frontier:
        row = table[frontier.pop()]
        for g in gens:
            z = row[g]
            if not (bits >> z) & 1:
                zrow = table[z]
                for s in members:
                    x = zrow[s]
                    bits |= 1 << x
                    frontier.append(x)
    return bits


def coset_table(table, members) -> tuple[list[list[int]], list[int]]:
    """Quotient table by the normal subgroup with elements ``members``.

    Cosets are numbered by their least member; returns the quotient's table
    and the coset number of every element.
    """
    coset_of = [-1] * len(table)
    reps = []
    for x in range(len(table)):
        if coset_of[x] < 0:
            row = table[x]
            for z in members:
                coset_of[row[z]] = len(reps)
            reps.append(x)
    qtable = [[coset_of[table[a][b]] for b in reps] for a in reps]
    return qtable, coset_of


def element_order(group: Group, x: int) -> int:
    """Least k >= 1 with x^k = identity."""
    if not 0 <= x < group.order:
        raise IndexOutOfRange(f"index {x} out of range [0, {group.order})")
    table = group.table
    k = 1
    y = x
    while y != 0:
        y = table[y][x]
        k += 1
    return k


def element_orders(group: Group) -> tuple[int, ...]:
    """The order of every element, by index (memoized)."""
    return memo(group, "element_orders",
                lambda: tuple(element_order(group, x) for x in range(group.order)))


def exponent(group: Group) -> int:
    """lcm of the orders of all elements."""
    return math.lcm(*element_orders(group))


def is_abelian(group: Group) -> bool:
    table = group.table
    return memo(group, "abelian", lambda: all(
        table[i][j] == table[j][i]
        for i in range(group.order)
        for j in range(i + 1, group.order)
    ))


# ---------------------------------------------------------------------------
# table builders

def _cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _dihedral_table(m: int) -> list[list[int]]:
    # index = j*m + i for a^i b^j, j in {0,1}; b a b^-1 = a^-1
    n = 2 * m
    table = [[0] * n for _ in range(n)]
    for i in range(m):
        for j in range(2):
            for k in range(m):
                for l in range(2):
                    rot = (i + k) % m if j == 0 else (i - k) % m
                    table[j * m + i][l * m + k] = ((j + l) % 2) * m + rot
    return table


def _dicyclic_table(m: int) -> list[list[int]]:
    # index = j*2m + i for a^i b^j; a^(2m)=1, b^2=a^m, b a b^-1 = a^-1
    n = 4 * m
    table = [[0] * n for _ in range(n)]
    for i in range(2 * m):
        for j in range(2):
            for k in range(2 * m):
                for l in range(2):
                    if j == 0:
                        rot, ref = (i + k) % (2 * m), l
                    elif l == 0:
                        rot, ref = (i - k) % (2 * m), 1
                    else:
                        rot, ref = (i - k + m) % (2 * m), 0
                    table[j * 2 * m + i][l * 2 * m + k] = ref * 2 * m + rot
    return table


def _symmetric_table(m: int) -> list[list[int]]:
    elems = sorted(permutations(range(m)))
    index = {p: i for i, p in enumerate(elems)}
    table = []
    for p in elems:
        table.append([index[tuple(p[q[x]] for x in range(m))] for q in elems])
    return table


def _product_table(a: Group, b: Group) -> np.ndarray:
    # entry [(a1, b1), (a2, b2)] = (a1·a2, b1·b2), pair (x, y) -> x*|B| + y
    ta, tb = np.asarray(a.table), np.asarray(b.table)
    n = a.order * b.order
    return (ta[:, None, :, None] * b.order + tb[None, :, None, :]).reshape(n, n)


def hom_defect(source, target, mapping) -> tuple[int, int] | None:
    """First (x, y) in row-major order with map[x·y] != map[x]·map[y], or None.

    ``source`` and ``target`` are multiplication tables; ``mapping`` sends
    source indices to target indices.
    """
    m = np.asarray(mapping, dtype=np.int64)
    bad = np.argwhere(m[np.asarray(source)] != np.asarray(target)[np.ix_(m, m)])
    return (int(bad[0][0]), int(bad[0][1])) if len(bad) else None


def _resolve_action(normal: Group, acting: Group,
                    action: tuple[tuple[int, tuple[int, ...]], ...]) -> list[tuple[int, ...]]:
    """Extend generator images to a full homomorphism acting -> Aut(normal).

    Returns phi as a list indexed by acting-group elements, each entry a
    permutation of the normal part.  Raises InvalidAction if an image is not
    an automorphism, the images clash with the acting group's relations, or
    the listed elements fail to generate the acting group.
    """
    nn = normal.order
    for q, perm in action:
        if not 0 <= q < acting.order:
            raise InvalidAction(f"acting element {q} out of range")
        if len(perm) != nn or sorted(perm) != list(range(nn)):
            raise InvalidAction(f"image for acting element {q} is not a permutation")
        defect = hom_defect(normal.table, normal.table, perm)
        if defect is not None:
            raise InvalidAction(
                f"image for acting element {q} is not an automorphism "
                f"(fails at {defect})"
            )

    phi: dict[int, tuple[int, ...]] = {0: tuple(range(nn))}
    frontier = [0]
    while frontier:
        q = frontier.pop()
        base = phi[q]
        for g, alpha in action:
            q2 = acting.table[q][g]
            composed = tuple(base[alpha[x]] for x in range(nn))  # phi(q)∘phi(g)
            known = phi.get(q2)
            if known is None:
                phi[q2] = composed
                frontier.append(q2)
            elif known != composed:
                raise InvalidAction(
                    "action images do not respect the acting group's relations"
                )
    if len(phi) != acting.order:
        raise InvalidAction("action generators do not generate the acting group")
    return [phi[q] for q in range(acting.order)]


def _semidirect_table(normal: Group, acting: Group,
                      action: tuple[tuple[int, tuple[int, ...]], ...]) -> np.ndarray:
    # (q1,n1)(q2,n2) = (q1 q2, phi(q2^-1)(n1) * n2); pair (q,n) -> q*|N| + n
    phi = np.asarray(_resolve_action(normal, acting, action))
    twist = phi[list(acting.inv)]  # [q2, n1] -> phi(q2^-1)(n1)
    right = np.asarray(normal.table)[twist].transpose(1, 0, 2)  # [n1, q2, n2]
    n = acting.order * normal.order
    return (np.asarray(acting.table)[:, None, :, None] * normal.order + right).reshape(n, n)


def _central_quotient_table(inner: Group, gens: tuple[int, ...]) -> list[list[int]]:
    n = inner.order
    table = inner.table
    for g in gens:
        if not 0 <= g < n:
            raise InvalidRecipe(f"CentralQuotient generator {g} out of range")
    members = members_of(closure_bits(table, gens))
    for z in members:
        for g in range(n):
            if table[z][g] != table[g][z]:
                raise NotCentral(
                    f"generated subgroup contains non-central element {z}"
                )
    return coset_table(table, members)[0]


def construct(recipe: Recipe, *, name: str | None = None,
              order_cap: int = DEFAULT_ORDER_CAP) -> Group:
    """Build and validate the group a recipe describes.

    Element numbering is deterministic (see module docstring), so equal
    recipes always produce identical tables.  Orders are checked against the
    cap bottom-up, before any combined table is filled in.
    """
    def check(order: int) -> int:
        if order > order_cap:
            raise OrderBound(order, order_cap)
        return order

    if isinstance(recipe, Cyclic):
        table = _cyclic_table(check(recipe.n))
    elif isinstance(recipe, Dihedral):
        check(2 * recipe.m)
        table = _dihedral_table(recipe.m)
    elif isinstance(recipe, Dicyclic):
        check(4 * recipe.m)
        table = _dicyclic_table(recipe.m)
    elif isinstance(recipe, Symmetric):
        check(math.factorial(recipe.m))
        table = _symmetric_table(recipe.m)
    elif isinstance(recipe, Product):
        left = construct(recipe.left, order_cap=order_cap)
        right = construct(recipe.right, order_cap=order_cap)
        check(left.order * right.order)
        table = _product_table(left, right)
    elif isinstance(recipe, Semidirect):
        normal = construct(recipe.normal, order_cap=order_cap)
        acting = construct(recipe.acting, order_cap=order_cap)
        check(normal.order * acting.order)
        table = _semidirect_table(normal, acting, recipe.action)
    elif isinstance(recipe, CentralQuotient):
        table = _central_quotient_table(
            construct(recipe.inner, order_cap=order_cap), recipe.gens
        )
    else:
        raise InvalidRecipe(f"unknown recipe object {recipe!r}")
    return Group(table, name=name, recipe=recipe)
