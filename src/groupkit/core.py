"""Finite groups as explicit Cayley tables, plus construction recipes.

Conventions fixed across the whole package:

- elements are indices 0..n-1 and the identity is always index 0;
- ``table[i][j]`` is the index of ``g_i * g_j``;
- product-style constructions number pairs ``(a, b) -> a * |B| + b``
  (first component major), so the identity lands at 0 automatically;
- quotient cosets are numbered by ascending minimal member index.

Five kernels live here and nowhere else: subgroup closure and its greedy
generating sets (``closure_bits``, ``greedy_generators``), the commuting
test of generators (``generators_commute``), coset numbering (``coset_table``),
per-group caching (``memo``) and the one value-record kernel (``Record``),
from which every recipe, subgroup and result record derives.  Every other
module calls them rather than re-implementing them, so each concept has
one place to reason about.

A table has one representation per order, as ``validate_table`` returns
it and ``Group.table`` holds it: a tuple of ``bytes`` rows up to order 256,
a byte's width, and a tuple of row tuples of Python ints above it.
Indexing either reads Python ints.  Tables derived from a group's
(``coset_table``, ``reindexed_rows``) are built in the same form.  Table
code is plain Python; arrays are accepted as input (anything with a
``dtype`` and ``tolist``) but no array library is imported.
"""

from __future__ import annotations

import marshal
import math
import operator
import re
from itertools import chain, compress, permutations, repeat
from numbers import Integral

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
# value records

class _RecordType(type):
    """Gives each record class one slot per annotated field; the class
    attribute of a field's name is taken out as its default."""

    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        defaults = {field: ns.pop(field) for field in fields if field in ns}
        ns.setdefault("__slots__", fields)
        cls = super().__new__(mcls, name, bases, ns)
        cls._fields, cls._defaults = fields, defaults
        cls._setters = tuple(getattr(cls, field).__set__ for field in fields)
        # the field values as one tuple; attrgetter gives a bare value for one field
        get = operator.attrgetter(*fields) if fields else lambda record: ()
        cls._values_of = staticmethod(get if len(fields) != 1 else lambda record: (get(record),))
        return cls


class Record(metaclass=_RecordType):
    """Immutable value record whose fields are its class's own annotations.

    A subclass is built from its fields by position or by name.
    ``__post_init__`` runs after the fields are set and may normalise them
    with ``object.__setattr__``; otherwise assigning or deleting a field
    raises AttributeError.  Records of one class are equal when their fields
    are, hash as the tuple of their fields and print as
    ``Name(field=value, ...)``.  Copies and pickles go through the constructor.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for set_field, value in zip(self._setters, args):
            set_field(self, value)
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values in order, from ``args``, ``kwargs`` and the defaults."""
        cls = type(self)
        fields = cls._fields
        values = {**cls._defaults, **dict(zip(fields, args)), **kwargs}
        if (len(args) > len(fields) or values.keys() != set(fields)
                or not kwargs.keys().isdisjoint(fields[:len(args)])):
            raise TypeError(f"{cls.__name__} takes the fields {fields}, got "
                            f"{len(args)} by position and {sorted(kwargs)} by name")
        return [values[name] for name in fields]

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values_of(self) == other._values_of(other)

    def __hash__(self):
        return hash(self._values_of(self))

    def __reduce__(self):
        return (type(self), self._values_of(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# recipes

def _int_type(t: type) -> bool:
    """Whether ``t`` is an exact integer type (any ``numbers.Integral``), bools excluded."""
    return issubclass(t, Integral) and not issubclass(t, bool)


def exact_ints(values) -> bool:
    """Whether every item of ``values`` is an exact integer, decided by
    ``_int_type`` once per distinct item type.

    An array (anything with a ``dtype``) answers by its dtype's kind, so an
    array of Python objects does not pass.
    """
    dtype = getattr(values, "dtype", None)
    return dtype.kind in "iu" if dtype is not None else all(map(_int_type, set(map(type, values))))


def _exact_int(value, what: str):
    """``value`` if its type is an exact integer type by ``_int_type``, else
    InvalidRecipe: no recipe parameter is cast."""
    if not _int_type(type(value)):
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


class Cyclic(Record):
    n: int

    def __post_init__(self):
        if _exact_int(self.n, "Cyclic order") < 1:
            raise InvalidRecipe(f"Cyclic order must be >= 1, got {self.n}")


class Dihedral(Record):
    """Dihedral group of order 2m (m rotations, m reflections)."""

    m: int

    def __post_init__(self):
        if _exact_int(self.m, "Dihedral parameter") < 1:
            raise InvalidRecipe(f"Dihedral parameter must be >= 1, got {self.m}")


class Dicyclic(Record):
    """Dicyclic group of order 4m; Dicyclic(2) is the quaternion group."""

    m: int

    def __post_init__(self):
        if _exact_int(self.m, "Dicyclic parameter") < 1:
            raise InvalidRecipe(f"Dicyclic parameter must be >= 1, got {self.m}")


class Symmetric(Record):
    m: int

    def __post_init__(self):
        if not 1 <= _exact_int(self.m, "Symmetric parameter") <= 5:
            raise InvalidRecipe(f"Symmetric parameter must be in 1..5, got {self.m}")


class Product(Record):
    left: "Recipe"
    right: "Recipe"


class Semidirect(Record):
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


class CentralQuotient(Record):
    """Quotient of ``inner`` by the central subgroup generated by ``gens``."""

    inner: "Recipe"
    gens: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "gens", _exact_ints(self.gens, "CentralQuotient generators"))


Recipe = Cyclic | Dihedral | Dicyclic | Symmetric | Product | Semidirect | CentralQuotient


# the DSL name of each recipe class and the kind of each of its fields, in
# order: "i" an int, "r" a recipe, "l" a list of ints and lists written
# by the field's name (``action=[...]``)
_DSL = {"C": (Cyclic, "i"), "D": (Dihedral, "i"), "Dic": (Dicyclic, "i"), "S": (Symmetric, "i"),
        "P": (Product, "rr"), "SD": (Semidirect, "rrl"), "CQ": (CentralQuotient, "rl")}
_DSL_NAMES = {cls: name for name, (cls, _) in _DSL.items()}
# a DSL token: a name, an ASCII decimal int, or any other non-space
# character; findall skips the whitespace between tokens, which no
# alternative matches
_DSL_TOKEN = re.compile(r"([A-Za-z]+)|(-?[0-9]+)|(\S)")


def recipe_dsl(recipe: Recipe) -> str:
    """Render a recipe in the text DSL (inverse of parse_recipe), one call
    per nesting level."""
    name = _DSL_NAMES.get(type(recipe))
    if name is None:
        raise InvalidRecipe(f"unknown recipe object {recipe!r}")
    parts = []
    for field, kind in zip(recipe._fields, _DSL[name][1]):
        value = getattr(recipe, field)
        parts.append(recipe_dsl(value) if kind == "r"
                     else f"{field}={_dsl_list(value)}" if kind == "l" else str(value))
    return f"{name}({','.join(parts)})"


def _dsl_list(value) -> str:
    return f"[{','.join(map(_dsl_list, value))}]" if isinstance(value, tuple) else str(value)


def parse_recipe(text: str) -> Recipe:
    """The recipe that DSL ``text`` describes (inverse of recipe_dsl).

    Whitespace may stand between tokens; lists are comma-separated, with no
    trailing comma.  Raises only InvalidRecipe: on text that is not exactly
    one recipe, on nesting deeper than the recursion limit (one call per
    level), and from the record constructors, which check every value.
    """
    try:
        tokens = [int(number) if number else name or other
                  for name, number, other in _DSL_TOKEN.findall(text)]
    except ValueError:  # more digits than int() converts
        raise InvalidRecipe("recipe DSL integer too long") from None
    tokens.reverse()  # read by pop()

    def take(want=None):
        """The next token, which must be ``want``, or an int when ``want`` is None."""
        token = tokens.pop() if tokens else "end of input"
        if (token != want) if want else (type(token) is not int):
            raise InvalidRecipe(f"recipe DSL: expected {repr(want) if want else 'an integer'}, "
                                f"got {token!r}")
        return token

    def recipe() -> Recipe:
        name = tokens.pop() if tokens else "end of input"
        if name not in _DSL:
            raise InvalidRecipe(f"recipe DSL: unknown constructor {name!r}")
        cls, kinds = _DSL[name]
        take("(")
        values = []
        for field, kind in zip(cls._fields, kinds):
            if values:
                take(",")
            if kind == "l":
                take(field)
                take("=")
            values.append(recipe() if kind == "r" else listed() if kind == "l" else take())
        take(")")
        return cls(*values)

    def listed() -> list:
        take("[")
        out = []
        while tokens[-1:] != ["]"]:
            if out:
                take(",")
            out.append(listed() if tokens[-1:] == ["["] else take())
        take("]")
        return out

    try:
        out = recipe()
    except RecursionError:
        raise InvalidRecipe("recipe DSL nests deeper than the recursion limit") from None
    if tokens:
        raise InvalidRecipe(f"recipe DSL: trailing input from {tokens[-1]!r}")
    return out


# ---------------------------------------------------------------------------
# table validation

# a table as a Group stores it: bytes rows up to order 256, int tuples above
Rows = tuple[bytes, ...] | tuple[tuple[int, ...], ...]


def validate_table(table) -> Rows:
    """Check every group axiom on a square index table; return it as rows.

    The result is the form ``Group.table`` holds: a tuple of ``bytes`` rows
    up to order 256, a tuple of row tuples of Python ints above.  Raises on
    the first failure, checked in the order: shape, integer entries, range
    (the first entry in row-major order), identity at 0, Latin rows then
    columns, two-sided inverses, associativity.  Every check runs at every
    order.  An array (anything with a ``dtype``) is read through ``tolist``
    and its dtype answers the integer check; bools and floats of either
    kind are rejected.

    One path proves every table.  Rows all exactly ``bytes`` (up to order
    256) are kept, as the type proves each entry an int in 0..255; lists
    and tuples of exact ``int``s (as from JSON) are packed whole, proved
    exact by one ``marshal`` pass that tells True from 1 in C, with no
    per-entry type check (``_whole_rows``).  Other input, or any that
    fails shape or range, is read entry by entry to name its first failure.
    The identity is then checked and Light's test run once.  A table that
    passes and holds a 0 in every row is a finite monoid in which every
    element has a right inverse, so a group (if ab = 1 and bc = 1 then
    a = a(bc) = (ab)c = c), with Latin rows and columns and two-sided
    inverses.  Only a table that fails this is checked for those, in order,
    then raises NotAssociative with Light's first witness (x, g, y).

    Light's test (Clifford & Preston, *The Algebraic Theory of Semigroups*
    I, §1.2): in any table with an identity, the g with (x·g)·y = x·(g·y)
    for all x, y include 0 and are closed under the product, so checking a
    set of generators checks every element.  The generators are picked by
    ``greedy_generators``, whose ``closure_bits`` only ever adds products of
    elements it has already reached and a generator.  Row x of x·(g·y) is
    row g translated through row x (padded to 256 bytes) up to order 256;
    larger tables gather it through the columns.
    """
    return _proved(table)[0]


def _proved(table) -> tuple[Rows, tuple[int, ...], tuple[int, ...]]:
    """``validate_table``'s rows, the inverse of every element, and the
    generators Light's test checked (``greedy_generators`` of the whole
    group)."""
    dtype = getattr(table, "dtype", None)
    typed = dtype is None or dtype.kind in "iu"
    if dtype is not None:
        table = table.tolist()
    rows = (typed and _whole_rows(table)) or _entries(table, typed)
    n = len(rows)
    if n <= 256:
        ident, joined = bytes(range(n)), b"".join(rows)
        # row x as a translate map; the padding is never read once the range holds
        padded = list(map(bytes.ljust, rows, repeat(256)))
        # translate deletes every 0..n-1, so only an entry >= n survives
        proper = not joined.translate(None, ident) and joined[::n] == ident
    else:
        ident, cols = tuple(range(n)), tuple(zip(*rows))
        proper = set(ident).issuperset(chain.from_iterable(rows)) and cols[0] == ident
    if not proper or rows[0] != ident:
        _entries(table, typed)  # names an entry out of range: range comes first
        raise NoIdentity("index 0 is not a two-sided identity")
    gens, witness = greedy_generators(rows, (1 << n) - 1), None
    for g in gens:
        # row x of each side: (x·g)·y over y, and x·(g·y) over y
        if n <= 256:
            column, right = joined[g::n], map(rows[g].translate, padded)
        else:
            column, right = cols[g], zip(*operator.itemgetter(*rows[g])(cols))
        left, right = operator.itemgetter(*column)(rows), tuple(right)
        if left != right:
            witness = next((x, g, y) for x in range(n) for y in range(n)
                           if left[x][y] != right[x][y])
            break
    try:
        inv = tuple(map(type(rows[0]).index, rows, repeat(0)))  # ValueError: a row without 0
    except ValueError:
        inv = None
    if inv and witness is None:
        return rows, inv, gens
    _latin_and_inverses(rows)
    raise NotAssociative(*witness)


# marshal's type byte of a tuple read as a list's, so rows of either type match
_LIST_MARK = bytes.maketrans(b"(", b"[")


def _whole_rows(table) -> Rows | None:
    """``table`` in stored form when it is read whole: n rows all exactly
    ``bytes`` up to order 256, or all exactly lists and tuples of exact
    ``int``s, with n entries each; else None.  ``_proved`` checks their range.

    One ``marshal`` dump (format 2: no back-references) proves the ints
    exact.  It writes the table and each row as a type byte and 4 bytes, an
    exact 32-bit int as ``i`` and 4 bytes, and any other entry under another
    type byte (``T`` for True, ``s`` and a payload for a numpy int) or not at
    all (ValueError for an int subclass).  Each 5-byte slot after the
    table's header that reads a row's type byte or ``i`` places the next, so
    the slots read one row type and n ``i``s per row exactly when every row
    holds n exact ints.
    """
    if not isinstance(table, list | tuple):
        return None
    n, kinds = len(table), set(map(type, table))
    if n <= 256 and kinds == {bytes}:
        rows = tuple(table)  # every entry an exact int in 0..255 by the row's type
    elif kinds <= {list, tuple}:
        try:
            rows = _stored(table)  # up to order 256 bytes(row) raises off indices 0..255
            slots = marshal.dumps(table, 2)[5::5].translate(_LIST_MARK)
        except (TypeError, ValueError):
            return None
        if slots != (b"[" + b"i" * n) * n:
            return None
    else:
        return None
    return rows if set(map(len, rows)) == {n} else None


def _shape(x, sequence=list | tuple) -> tuple[int, ...]:
    """The shape of nested lists and tuples, arrays among them read as
    sequences (as an array library reads them) and a ``bytes``,
    ``bytearray`` or ``range`` row as a row of ints (a ``str`` is no row);
    ValueError when ragged.  A row whose entry types are all exact int
    types (``_int_type``, as ``exact_ints`` decides) is a row of scalars,
    read without a call per entry."""
    if type(x) is int or not isinstance(x, sequence) and not getattr(x, "ndim", 0):
        return ()
    if all(map(_int_type, set(map(type, x)))):
        return (len(x),)
    inner = {_shape(item, list | tuple | bytes | bytearray | range) for item in x}
    if len(inner) > 1:
        raise ValueError("ragged")
    return (len(x), *(inner.pop() if inner else ()))


def _entries(table, typed: bool) -> Rows:
    """``table`` in stored form, read entry by entry; MalformedTable for its
    first shape, integer or range failure, in that order."""
    try:
        shape = _shape(table)
    except ValueError:
        raise MalformedTable("table rows differ in length") from None
    if not shape:
        raise MalformedTable("table is not a sequence of rows")
    if 0 in shape:
        raise MalformedTable("table is empty")
    n = shape[0]
    if shape != (n, n):
        raise MalformedTable(f"table has shape {shape}, expected ({n}, {n})")
    if not (typed and all(map(exact_ints, table))):
        raise MalformedTable(f"table entries must be integers in [0, {n})")
    for i, row in enumerate(table):
        for v in row:
            if not 0 <= v < n:
                raise MalformedTable(f"row {i} entry {v} out of range [0, {n})")
    return _stored([list(map(operator.index, row)) for row in table])


def _latin_and_inverses(rows) -> None:
    """Raise the first failure of Latin rows, Latin columns and two-sided
    inverses, in that order, for rows with the identity at 0."""
    ident = list(range(len(rows)))
    for axis, lines in (("row", rows), ("column", tuple(zip(*rows)))):
        for i, line in enumerate(lines):
            ordered = sorted(line)
            if ordered != ident:
                raise NotLatin(axis, i, next(a for a, b in zip(ordered, ordered[1:]) if a == b))
    # each row now holds exactly one 0; invertibility needs it two-sided
    for x, row in enumerate(rows):
        if rows[row.index(0)][x] != 0:
            raise NotInvertible(x)


def _stored(rows) -> Rows:
    """Rows of ints in the one form a ``Group`` stores: ``bytes`` up to
    order 256, int tuples above."""
    return tuple(map(bytes if len(rows) <= 256 else tuple, rows))


# ---------------------------------------------------------------------------
# the Group type

class Group:
    """Immutable finite group over indices 0..n-1 with identity at 0.

    ``table`` holds the rows as ``validate_table`` proved them: a tuple of
    ``bytes`` rows up to order 256, of int tuples above.  Instances compare
    by identity; compare ``g.table`` directly when table equality is meant.
    Derived data (subgroup lattice, centre, ...) is kept per group through
    ``memo``.  The generators Light's test checked start the
    ``"generators"`` memo as those of the whole group.
    """

    __slots__ = ("order", "table", "inv", "name", "recipe", "_cache", "__weakref__")

    def __init__(self, table, *, name: str | None = None, recipe: Recipe | None = None):
        self.table, self.inv, gens = _proved(table)
        self.order = len(self.table)
        self.name = name
        self.recipe = recipe
        self._cache = {"generators": {(1 << self.order) - 1: gens}}

    def __repr__(self) -> str:
        label = self.name or (recipe_dsl(self.recipe) if self.recipe else "?")
        return f"Group({label}, order={self.order})"

    def __getstate__(self):
        return (self.order, self.table, self.inv, self.name, self.recipe)

    def __setstate__(self, state):
        # proved again like any new table, so a state from an older version
        # or a damaged one loads in the one row form or raises
        _, table, _, name, recipe = state
        self.__init__(table, name=name, recipe=recipe)


def memo(group: Group, key, fn=None):
    """``fn()``, computed once per group and key; without ``fn``, what is
    already stored under ``key``, or None, computing nothing.

    A call that raises stores nothing, so it raises again next time.
    """
    cache = group._cache
    if key not in cache:
        if fn is None:
            return None
        cache[key] = fn()
    return cache[key]


def bits_of(members) -> int:
    out = 0
    for x in members:
        out |= 1 << x
    return out


_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def members_of(bits: int) -> list[int]:
    """The set bits of ``bits`` in ascending order, read off its binary
    digits: the digits as 0/1 bytes select from the bit positions."""
    digits = bin(bits)[:1:-1].encode().translate(_DIGIT_BYTES)
    return list(compress(range(bits.bit_length()), digits))


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


def greedy_generators(table, bits: int) -> tuple[int, ...] | None:
    """Generators of the subgroup ``bits``, each the least member not yet
    reached, closed with ``closure_bits``; None when ``bits`` is no
    subgroup: it holds a bit at or above |G|, or the closure of its members
    is not ``bits``.

    Each generator at least doubles what is reached, so there are at most
    log2 |bits| of them.
    """
    if bits >> len(table):
        return None
    reached, gens = 1, []
    for x in members_of(bits):
        if not (reached >> x) & 1:
            gens.append(x)
            reached = closure_bits(table, (x,), reached, members_of(reached))
    return tuple(gens) if reached == bits else None


def coset_table(table, members) -> tuple[Rows, list[int]]:
    """Quotient table by the normal subgroup with elements ``members``.

    Cosets are numbered by their least member; returns the quotient's rows,
    in the form a ``Group`` stores, and the coset number of every element.
    """
    coset_of = [-1] * len(table)
    reps = []
    for x in range(len(table)):
        if coset_of[x] < 0:
            row = table[x]
            for z in members:
                coset_of[row[z]] = len(reps)
            reps.append(x)
    return reindexed_rows(table, reps, coset_of), coset_of


def reindexed_rows(table, keep, index) -> Rows:
    """The table of ``index[table[a][b]]`` over a and b in ``keep``, in the
    form a ``Group`` stores.

    Up to order 256 each kept row is translated whole through ``index``,
    which must then hold values below 256, and its kept columns gathered by
    one ``itemgetter``.
    """
    get = operator.itemgetter(*keep)
    pick = get if len(keep) > 1 else lambda row: (get(row),)
    if len(table) <= 256:
        through = bytes(index).ljust(256, b"\0")
        return tuple(bytes(pick(row.translate(through))) for row in pick(table))
    return _stored([[index[v] for v in pick(row)] for row in pick(table)])


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


def generators_commute(table, gens) -> bool:
    """True iff the elements ``gens`` commute pairwise: k(k−1)/2 lookups."""
    return all(table[a][b] == table[b][a] for i, a in enumerate(gens) for b in gens[i + 1:])


def is_abelian(group: Group) -> bool:
    """True iff the generators Light's test checked commute pairwise (memoized)."""
    return memo(group, "abelian", lambda: generators_commute(
        group.table, memo(group, "generators", dict)[(1 << group.order) - 1]))


# ---------------------------------------------------------------------------
# table builders

def _cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _inverting_table(m: int, s: int) -> list[list[int]]:
    """⟨a, b | aᵐ = 1, b² = aˢ, b·a·b⁻¹ = a⁻¹⟩, with aⁱbʲ at index j·m + i.

    Only s ∈ {0, m/2} is valid: b commutes with b² = aˢ, which b inverts, so
    a²ˢ = 1.  Dihedral(m) is (m, 0) and Dicyclic(m) is (2m, m).
    """
    return [[((j + l) % 2) * m + (i + k if j == 0 else i - k + s * l) % m
             for l in range(2) for k in range(m)]
            for j in range(2) for i in range(m)]


def _symmetric_table(m: int) -> list[list[int]]:
    elems = sorted(permutations(range(m)))
    index = {p: i for i, p in enumerate(elems)}
    table = []
    for p in elems:
        table.append([index[tuple(p[q[x]] for x in range(m))] for q in elems])
    return table


def _shifted_rows(part: Group, count: int):
    """Row r of ``part`` plus c·|part| at ``[r][c]`` for c < count, and the
    join that makes one table row of such blocks: ``bytes`` up to order
    |part|·count = 256, lists above it."""
    m = part.order
    if m * count <= 256:  # so part's rows are bytes
        shifts = [bytes(range(c * m, c * m + m)).ljust(256, b"\0") for c in range(count)]
        return [list(map(row.translate, shifts)) for row in part.table], b"".join
    return ([[[c * m + v for v in row] for c in range(count)] for row in part.table],
            lambda blocks: list(chain.from_iterable(blocks)))


def _product_table(a: Group, b: Group) -> list:
    # entry [(a1, b1), (a2, b2)] = (a1·a2, b1·b2), pair (x, y) -> x*|B| + y;
    # row (a1, b1) joins, for each c = a1·a2, row b1 of B shifted by c*|B|
    shifted, join = _shifted_rows(b, a.order)
    return [join(map(blocks.__getitem__, ra)) for ra in a.table for blocks in shifted]


def hom_defect(source, target, mapping) -> tuple[int, int] | None:
    """First (x, y) in row-major order with map[x·y] != map[x]·map[y], or None.

    ``source`` and ``target`` are multiplication tables; ``mapping`` sends
    source indices to target indices.
    """
    for x, row in enumerate(source):
        image = target[mapping[x]]
        left = list(map(mapping.__getitem__, row))  # map[x·y] over y
        right = list(map(image.__getitem__, mapping))  # map[x]·map[y] over y
        if left != right:
            return x, next(y for y, (u, v) in enumerate(zip(left, right)) if u != v)
    return None


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
                      action: tuple[tuple[int, tuple[int, ...]], ...]) -> list:
    # (q1,n1)(q2,n2) = (q1 q2, phi(q2^-1)(n1) * n2); pair (q,n) -> q*|N| + n;
    # row (q1, n1) joins, for each q2, row phi(q2^-1)(n1) of N shifted by (q1 q2)*|N|
    phi = _resolve_action(normal, acting, action)
    shifted, join = _shifted_rows(normal, acting.order)
    twist = [phi[q] for q in acting.inv]  # [q2][n1] -> phi(q2^-1)(n1)
    # [n1][q2] -> the shifted copies of row phi(q2^-1)(n1) of N
    picks = [[shifted[tw[n1]] for tw in twist] for n1 in range(normal.order)]
    return [join(map(list.__getitem__, blocks, rq)) for rq in acting.table for blocks in picks]


def _central_quotient_table(inner: Group, gens: tuple[int, ...]) -> Rows:
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


def _table(recipe: Recipe) -> list:
    """The table a recipe describes, its parts taken from ``_part``.

    Orders are checked against ``DEFAULT_ORDER_CAP`` bottom-up, before any
    combined table is filled in.
    """
    def check(order: int) -> int:
        if order > DEFAULT_ORDER_CAP:
            raise OrderBound(order, DEFAULT_ORDER_CAP)
        return order

    if isinstance(recipe, Cyclic):
        table = _cyclic_table(check(recipe.n))
    elif isinstance(recipe, Dihedral):
        check(2 * recipe.m)
        table = _inverting_table(recipe.m, 0)
    elif isinstance(recipe, Dicyclic):
        check(4 * recipe.m)
        table = _inverting_table(2 * recipe.m, recipe.m)
    elif isinstance(recipe, Symmetric):
        check(math.factorial(recipe.m))
        table = _symmetric_table(recipe.m)
    elif isinstance(recipe, Product):
        left = _part(recipe.left)
        right = _part(recipe.right)
        check(left.order * right.order)
        table = _product_table(left, right)
    elif isinstance(recipe, Semidirect):
        normal = _part(recipe.normal)
        acting = _part(recipe.acting)
        check(normal.order * acting.order)
        table = _semidirect_table(normal, acting, recipe.action)
    elif isinstance(recipe, CentralQuotient):
        table = _central_quotient_table(_part(recipe.inner), recipe.gens)
    else:
        raise InvalidRecipe(f"unknown recipe object {recipe!r}")
    return table


# validated group of every recipe part built so far, by recipe, for the
# life of the process
_parts: dict[Recipe, Group] = {}


def _part(recipe: Recipe) -> Group:
    """The group of a part of a recipe, built and validated once per
    process.  Part groups never leave ``construct``."""
    try:
        group = _parts.get(recipe)
    except TypeError:  # a part that is no recipe, somewhere inside
        raise InvalidRecipe(f"unknown recipe object {recipe!r}") from None
    if group is None:
        group = _parts[recipe] = Group(_table(recipe), recipe=recipe)
    return group


def construct(recipe: Recipe, *, name: str | None = None) -> Group:
    """Build and validate the group a recipe describes; a new Group per call.

    Element numbering is deterministic (see module docstring), so equal
    recipes always produce identical tables.  Orders are checked against
    ``DEFAULT_ORDER_CAP`` bottom-up, before any combined table is filled
    in.  The parts of a Product, Semidirect or CentralQuotient are built
    once per process and reused (``_part``).  A recipe nested deeper than
    the recursion limit allows (two calls per level) raises InvalidRecipe.
    """
    try:
        table = _table(recipe)
    except RecursionError:
        raise InvalidRecipe("recipe nests deeper than the recursion limit") from None
    return Group(table, name=name, recipe=recipe)
