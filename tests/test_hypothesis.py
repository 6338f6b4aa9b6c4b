"""Randomised checks against the naive oracles, drawn by ``hypothesis``.

Every test is derandomized and keeps no example database, so a run draws
the same examples each time.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from groupkit import core
from groupkit.core import (
    CentralQuotient,
    Cyclic,
    Dicyclic,
    Dihedral,
    Group,
    Product,
    Semidirect,
    Symmetric,
    construct,
    parse_recipe,
    recipe_dsl,
    validate_table,
)
from groupkit.decomposition import project_onto_factor, remak_decomposition, splitting_sides
from groupkit.errors import (
    InvalidRecipe,
    MalformedTable,
    NoIdentity,
    NotAssociative,
    NotInvertible,
    NotLatin,
    TableError,
)
from groupkit.harness import premise_classes, property_suite
from groupkit.subgroups import (
    all_subgroups,
    bits_of,
    center,
    derived_subgroup,
    normal_subgroups,
)

import conftest
from conftest import projection_by_products

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)

parameters = st.integers(min_value=1, max_value=64)
# recipe records of all seven constructors; the records check only types,
# so actions and generators are any ints
ints = st.integers(min_value=-99, max_value=999)
recipes = st.recursive(
    st.one_of(st.builds(Cyclic, parameters), st.builds(Dihedral, parameters),
              st.builds(Dicyclic, parameters), st.builds(Symmetric, st.integers(1, 5))),
    lambda inner: st.one_of(
        st.builds(Product, inner, inner),
        st.builds(Semidirect, inner, inner,
                  st.lists(st.tuples(ints, st.lists(ints, max_size=4)), min_size=1, max_size=3)),
        st.builds(CentralQuotient, inner, st.lists(ints, max_size=3))),
    max_leaves=6,
)


@DETERMINISTIC
@given(recipes)
def test_recipe_dsl_round_trip(recipe):
    text = recipe_dsl(recipe)
    assert parse_recipe(text) == recipe
    assert recipe_dsl(parse_recipe(text)) == text


# the DSL's alphabet: its names, digits, punctuation and a space
dsl_alphabet = st.sampled_from(["C", "D", "Dic", "S", "P", "SD", "CQ", "action", "gens",
                                *"0123456789-()[],= "])


@st.composite
def dsl_texts(draw):
    """Up to 30 alphabet pieces, or up to 3 spliced over a short span of a
    rendered recipe."""
    base = recipe_dsl(draw(recipes)) if draw(st.booleans()) else ""
    start = draw(st.integers(0, len(base)))
    end = draw(st.integers(start, min(start + 3, len(base))))
    pieces = draw(st.lists(dsl_alphabet, max_size=3 if base else 30))
    return base[:start] + "".join(pieces) + base[end:]


@settings(DETERMINISTIC, max_examples=200)
@given(dsl_texts())
@example("SD( C(3) ,C(2), action = [[1, [0,2,1]]] )")
@example("CQ(P(C(4),C(2)),gens=[-5,007])")
def test_parse_recipe_raises_only_invalid_recipe(text):
    try:
        recipe = parse_recipe(text)
    except InvalidRecipe:
        return
    assert parse_recipe(recipe_dsl(recipe)) == recipe


# one to three cyclic factors, of product order at most 64
cyclic_orders = st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=3).filter(
    lambda orders: math.prod(orders) <= 64)


@DETERMINISTIC
@given(cyclic_orders, st.data())
def test_project_onto_factor_matches_products(orders, data):
    recipe = Cyclic(orders[0])
    for n in orders[1:]:
        recipe = Product(recipe, Cyclic(n))
    g = construct(recipe)
    h, k = data.draw(st.sampled_from([(h, k) for h, comps in splitting_sides(g) for k in comps]))
    x = data.draw(st.sampled_from(all_subgroups(g)))
    proj = projection_by_products(g, h, k)
    assert project_onto_factor(g, (h, k), x).bits == bits_of(proj[m] for m in x.members())


@DETERMINISTIC
@given(st.integers(min_value=0, max_value=(1 << 512) - 1))
@example(0)
def test_members_of_matches_bit_tests(bits):
    assert core.members_of(bits) == conftest.members_of(bits)


def _labelling_invariants(group: Group) -> tuple:
    """Counts and verdicts that do not depend on how the elements are numbered."""
    return (
        len(all_subgroups(group)),
        len(normal_subgroups(group)),
        sum(len(comps) for _, comps in splitting_sides(group)),
        premise_classes(group).count,
        center(group).order,
        derived_subgroup(group).order,
        sorted(f.order for f in remak_decomposition(group).factors),
        {name: result["pass"] for name, result in property_suite(group).items()},
    )


@settings(DETERMINISTIC, max_examples=5)
@given(st.data())
def test_relabelled_and_opposite_tables_keep_every_count(catalog24, data):
    # a permutation fixing 0 gives an isomorphic group on another bit
    # layout, and the transpose is the opposite group, isomorphic by x -> x⁻¹
    for entry in catalog24:
        table, n = entry.group.table, entry.group.order
        label = [0, *data.draw(st.permutations(range(1, n)), label=entry.name)]
        relabelled = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                relabelled[label[a]][label[b]] = label[table[a][b]]
        expected = _labelling_invariants(entry.group)
        assert _labelling_invariants(Group(relabelled)) == expected, entry.name
        assert _labelling_invariants(Group([list(col) for col in zip(*table)])) == expected, \
            entry.name


# every reduced Latin square up to order 5: groups, loops with one-sided
# inverses, and loops that are not associative
latin_squares = [square for n in range(1, 6) for square in conftest.reduced_latin_squares(n)]


@st.composite
def tables(draw, catalog16):
    """A catalog16 table of order at most 8 with 0 to 3 entries set to
    values in -1..n, a reduced Latin square of order at most 5, or a raw
    table of order at most 4 over 0..n-1."""
    kind = draw(st.integers(0, 5))
    if kind < 2:
        return [list(row) for row in draw(st.sampled_from(latin_squares))]
    if kind > 2:
        group = draw(st.sampled_from([e.group for e in catalog16 if e.group.order <= 8]))
        n = group.order
        table = [list(row) for row in group.table]
        for _ in range(draw(st.integers(0, 3))):
            table[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = \
                draw(st.integers(-1, n))
        return table
    n = draw(st.integers(1, 4))
    return draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                         min_size=n, max_size=n))


@settings(DETERMINISTIC, max_examples=200)
@given(st.data())
def test_validate_table_raises_the_first_failure_of_the_oracle(catalog16, data):
    table = data.draw(tables(catalog16))
    expected = conftest.first_table_failure(table)
    try:
        rows = validate_table(table)
    except TableError as err:
        assert expected is not None and type(err).__name__ == expected[0], (table, err)
        if isinstance(err, (MalformedTable, NoIdentity)):
            assert str(err) == expected[1]
        elif isinstance(err, NotLatin):
            assert (err.axis, err.index, err.value) == expected[1]
        elif isinstance(err, NotInvertible):
            assert err.index == expected[1]
        else:
            assert isinstance(err, NotAssociative)
            x, g, y = err.witness
            assert table[table[x][g]][y] != table[x][table[g][y]]
    else:
        assert expected is None and [list(row) for row in rows] == table


class _Int(int):
    """An exact integer that is not ``int`` itself."""


# types of an entry equal in value to the int it replaces, and whether the
# entry-by-entry read takes it as that int; bools only replace a 0 or a 1
FOREIGN = [(bool, False), (float, False), (str, False),
           (_Int, True), (np.int64, True), (np.int32, True), (np.uint8, True)]


@settings(DETERMINISTIC, max_examples=200)
@given(st.data())
def test_foreign_entries_of_equal_value_get_the_entry_reads_outcome(catalog16, data):
    # one or two swaps, so a short and a long marshal entry may meet
    group = data.draw(st.sampled_from([entry.group for entry in catalog16]))
    n = group.order
    table = [list(row) for row in group.table]
    swaps = {(data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))):
             data.draw(st.sampled_from(FOREIGN)) for _ in range(data.draw(st.integers(1, 2)))}
    for (i, j), (kind, _) in swaps.items():
        assume(kind is not bool or table[i][j] < 2)
        table[i][j] = kind(table[i][j])
    if data.draw(st.booleans()):
        table = tuple(map(tuple, table))
    if all(is_int for _, is_int in swaps.values()):
        assert validate_table(table) == group.table
    else:
        try:
            validate_table(table)
        except MalformedTable as err:
            assert str(err) == f"table entries must be integers in [0, {n})"
        else:
            raise AssertionError(f"{table!r} was proved")
