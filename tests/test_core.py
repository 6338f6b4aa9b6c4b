import copy
import hashlib
import json
import math
import pickle

import numpy as np
import pytest

from groupkit import core
from groupkit.catalog import (
    _BUILTIN,
    _EXTRAS,
    builtin_catalog,
    group_from_json_dict,
    group_to_json_dict,
    import_group,
)
from groupkit.core import (
    CentralQuotient,
    Cyclic,
    Dicyclic,
    Dihedral,
    Group,
    Product,
    Record,
    Semidirect,
    Symmetric,
    _product_table,
    _resolve_action,
    _semidirect_table,
    construct,
    element_order,
    exponent,
    greedy_generators,
    parse_recipe,
    recipe_dsl,
    validate_table,
)
from groupkit.errors import (
    IndexOutOfRange,
    InvalidAction,
    InvalidRecipe,
    NotAssociative,
    NotCentral,
    NotInvertible,
    NotLatin,
    MalformedTable,
    OrderBound,
    TableError,
)
from groupkit.harness import VerifyConfig, verify_catalog
from groupkit.iso import find_isomorphism, fingerprint
from groupkit.subgroups import (
    Subgroup,
    all_subgroups,
    center,
    generate_subgroup,
    normal_subgroups,
    quotient,
    subgroup_as_group,
    trivial_subgroup,
)

from conftest import (
    PREMISES32,
    inverses_by_scan,
    inverting_table_by_rules,
    is_associative_by_triples,
    order_by_powering,
    product_table_by_entries,
    reduced_latin_squares,
    semidirect_table_by_entries,
)


def test_trivial_group():
    g = construct(Cyclic(1))
    assert g.order == 1
    assert g.table == (b"\0",)


def test_product_c2_c3_is_c6():
    g = construct(Product(Cyclic(2), Cyclic(3)))
    assert g.order == 6
    assert find_isomorphism(g, construct(Cyclic(6))) is not None


def test_section6_style_semidirect_order_16():
    # C2 shears C2xC2: (b, c) -> (b, c + b); pairing with one more C2 gives
    # the order-16 group whose order-8 part is dihedral
    inner = Semidirect(Product(Cyclic(2), Cyclic(2)), Cyclic(2), ((1, (0, 1, 3, 2)),))
    g = construct(Product(inner, Cyclic(2)))
    assert g.order == 16
    assert find_isomorphism(construct(inner), construct(Dihedral(4))) is not None


def test_validate_trivial_table():
    validate_table([[0]])


def test_validate_dihedral4_table_and_axiom_oracle():
    g = construct(Dihedral(4))
    table = [list(row) for row in g.table]
    validate_table(table)
    # brute-force axiom oracle over all triples
    n = len(table)
    assert all(table[0][j] == j and table[i][0] == i for i in range(n) for j in range(n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert table[table[i][j]][k] == table[i][table[j][k]]


def _failure(table, check=validate_table):
    """(class name, fields, message) of the TableError ``check(table)`` raises, or None."""
    try:
        check(table)
    except TableError as err:
        return type(err).__name__, vars(err), str(err)
    return None


def test_validate_perturbed_cyclic3():
    table = [list(row) for row in construct(Cyclic(3)).table]
    table[1][2] = 1  # duplicate inside row 1; column 2 and associativity fail too
    assert _failure(table) == ("NotLatin", {"axis": "row", "index": 1, "value": 1},
                               "row 1 repeats value 1")


def test_validate_shape_and_identity_errors():
    # the first failure in the documented order wins: class, fields and
    # message are pinned
    for table, message in (
        ([[0, 1], [1]], "table rows differ in length"),
        ([], "table is empty"),
        ([[]], "table is empty"),
        ([[0, 1]], "table has shape (1, 2), expected (1, 1)"),
        ([0, 1], "table has shape (2,), expected (2, 2)"),
        ([[0, True], [True, 0]], "table entries must be integers in [0, 2)"),
        ([[0, 1], [1, 0.5]], "table entries must be integers in [0, 2)"),
        ([[0, 7], [1, 0]], "row 0 entry 7 out of range [0, 2)"),
        ([[0, -1], [1, 0]], "row 0 entry -1 out of range [0, 2)"),
        # out of range and no identity: the range check comes first
        ([[1, 5], [0, 1]], "row 0 entry 5 out of range [0, 2)"),
    ):
        assert _failure(table) == ("MalformedTable", {}, message), table
    for table in ([[1, 0], [0, 1]], [[0, 1], [0, 1]]):
        assert _failure(table) == ("NoIdentity", {}, "index 0 is not a two-sided identity")


def test_group_constructor_rejects_bad_tables():
    for table, expected in (
        ([[0, 1, 2], [1, 2, 0], [2, 1, 0]],
         ("NotLatin", {"axis": "column", "index": 1, "value": 1}, "column 1 repeats value 1")),
        # rows Latin, columns not, and not associative: the column is reported
        ([[0, 1, 2], [1, 0, 2], [2, 0, 1]],
         ("NotLatin", {"axis": "column", "index": 1, "value": 0}, "column 1 repeats value 0")),
        ([[0, 1, 2, 3], [1, 0, 2, 3], [2, 0, 1, 3], [3, 0, 1, 2]],
         ("NotLatin", {"axis": "column", "index": 1, "value": 0}, "column 1 repeats value 0")),
        # associative with an identity, but a monoid, not a group
        ([[0, 1], [1, 1]],
         ("NotLatin", {"axis": "row", "index": 1, "value": 1}, "row 1 repeats value 1")),
        ([[0, 1, 2], [1, 1, 2], [2, 2, 2]],
         ("NotLatin", {"axis": "row", "index": 1, "value": 1}, "row 1 repeats value 1")),
        # a Latin square with identity whose element 2 has only a one-sided inverse
        ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]],
         ("NotInvertible", {"index": 2}, "element 2 has no two-sided inverse")),
        (_cyclic_with_intercalate(6),
         ("NotAssociative", {"witness": (1, 1, 2)}, "(g1*g1)*g2 != g1*(g1*g2)")),
    ):
        assert _failure(table, Group) == expected, table


def test_element_order_identity_and_generator():
    g = construct(Cyclic(6))
    assert element_order(g, 0) == 1
    assert element_order(g, 1) == 6
    with pytest.raises(IndexOutOfRange):
        element_order(g, 6)


def test_element_order_dihedral_reflections():
    g = construct(Dihedral(4))
    # indices 4..7 are the reflections a^i b
    for x in range(4, 8):
        assert element_order(g, x) == 2
        assert element_order(g, x) == order_by_powering(g, x)


def test_exponent_examples():
    assert exponent(construct(Cyclic(1))) == 1
    s3 = construct(Symmetric(3))
    lcm = 1
    for x in range(s3.order):
        lcm = math.lcm(lcm, order_by_powering(s3, x))
    assert exponent(s3) == lcm == 6
    assert exponent(construct(Product(Cyclic(2), Cyclic(4)))) == 4


def test_element_order_matches_inverse(catalog16):
    for entry in catalog16:
        g = entry.group
        for x in range(g.order):
            assert element_order(g, x) == element_order(g, g.inv[x])


def test_exponent_multiplicative_over_products(catalog16):
    # |A|*|B| <= 256 for the whole catalog, well inside the order cap
    for a in catalog16:
        for b in catalog16:
            if a.name > b.name:
                continue
            prod = construct(Product(a.recipe, b.recipe))
            assert exponent(prod) == math.lcm(
                exponent(a.group), exponent(b.group)
            ), (a.name, b.name)


def test_construct_deterministic(catalog16):
    for entry in catalog16:
        again = construct(entry.recipe)
        assert again.table == entry.group.table, entry.name
        # every call returns a new Group, parts reused or not
        assert construct(entry.recipe) is not again


def test_recipe_dsl_round_trip(catalog16):
    for entry in catalog16:
        text = recipe_dsl(entry.recipe)
        assert parse_recipe(text) == entry.recipe, entry.name
    deep = "P(" * 900 + "C(1)" + ",C(1))" * 900
    assert recipe_dsl(parse_recipe(deep)) == deep


def test_recipe_dsl_parse_errors():
    for bad in ("", "C(", "C(2) junk", "X(3)", "SD(C(2),C(2))", "P(C(2)",
                # a sign with no digits, and digits that are not ASCII decimals
                "C(-)", "C(\u00b2)", "C(\u0663)",
                # action entries with no comma between them
                "SD(C(3),C(2),action=[[1,[0,2,1]][1,[0,2,1]]])",
                # nesting deeper than the recursion limit
                "P(" * 5_000 + "C(1)" + ",C(1))" * 5_000):
        with pytest.raises(InvalidRecipe):
            parse_recipe(bad)


def test_construct_too_deep_is_invalid_recipe():
    # P(P(…C(1),C(1))…,C(1)), as parse_recipe reads it from text nested
    # 980 deep with one call per level; construct takes two per level
    def nest(depth):
        recipe = Cyclic(1)
        for _ in range(depth):
            recipe = Product(recipe, Cyclic(1))
        return recipe

    assert construct(nest(200)).order == 1
    with pytest.raises(InvalidRecipe):
        construct(nest(980))


def test_symmetric_bound():
    with pytest.raises(InvalidRecipe):
        Symmetric(6)


def test_order_bound():
    with pytest.raises(OrderBound):
        construct(Cyclic(513))
    with pytest.raises(OrderBound) as err:
        construct(Product(Cyclic(32), Cyclic(32)))
    assert (err.value.order, err.value.cap) == (1024, 512)
    # parts are built once per process and reused, keyed by the recipe
    inner = Product(Cyclic(4), Dihedral(4))
    quotient = CentralQuotient(inner, (18,))
    construct(inner)
    assert construct(quotient).order == 16  # inner is now a built part
    assert core._parts[inner].order == 32


def test_invalid_semidirect_actions():
    # not a permutation
    with pytest.raises(InvalidAction):
        construct(Semidirect(Cyclic(3), Cyclic(2), ((1, (0, 1, 1)),)))
    # a permutation but not an automorphism of C4 (swaps order-4 and order-2 elements)
    with pytest.raises(InvalidAction):
        construct(Semidirect(Cyclic(4), Cyclic(2), ((1, (0, 2, 1, 3)),)))
    # an automorphism, but inconsistent with the acting group's relations:
    # inversion has order 2, which does not divide into a C3 action freely
    with pytest.raises(InvalidAction):
        construct(Semidirect(Cyclic(4), Cyclic(3), ((1, (0, 3, 2, 1)),)))
    # images that do not generate the acting group
    with pytest.raises(InvalidAction):
        construct(Semidirect(Cyclic(3), Product(Cyclic(2), Cyclic(2)),
                             ((1, (0, 2, 1)), (0, (0, 1, 2)))))


def test_recipe_parameters_must_be_exact_ints():
    # nothing is cast: a float, a bool or a string that only compares equal
    # to (or converts to) an index is rejected, whatever the recipe
    swap = ((1, (0, 2, 1)),)
    for make in (
        lambda: Cyclic(2.0),
        lambda: Cyclic(True),
        lambda: Dihedral(np.float64(3)),
        lambda: Dicyclic(True),
        lambda: Symmetric("3"),
        lambda: Semidirect(Cyclic(3), Cyclic(2), ((1, (0, 2.0, 1)),)),
        lambda: Semidirect(Cyclic(3), Cyclic(2), ((1, (0, 2, True)),)),
        lambda: Semidirect(Cyclic(3), Cyclic(2), ((1, (0, 2.7, 1)),)),
        lambda: Semidirect(Cyclic(3), Cyclic(2), ((1, (0, "2", 1)),)),
        lambda: Semidirect(Cyclic(3), Cyclic(2), ((1.0, swap[0][1]),)),
        lambda: Semidirect(Cyclic(3), Cyclic(2), ((True, swap[0][1]),)),
        lambda: CentralQuotient(Cyclic(4), (2.5,)),
        lambda: CentralQuotient(Cyclic(4), (np.bool_(True),)),
        # a tuple parameter that is not a sequence
        lambda: CentralQuotient(Cyclic(4), 2),
        lambda: Semidirect(Cyclic(3), Cyclic(2), 5),
        lambda: Semidirect(Cyclic(3), Cyclic(2), ((1, 5),)),
    ):
        with pytest.raises(InvalidRecipe):
            make()
    # exact integers, numpy ones included, still build and keep list input as tuples
    assert construct(Semidirect(Cyclic(3), Cyclic(np.int64(2)), [(1, [0, 2, 1])])).order == 6
    assert Semidirect(Cyclic(3), Cyclic(2), [(1, [0, 2, 1])]).action == swap
    assert recipe_dsl(CentralQuotient(Cyclic(4), [2])) == "CQ(C(4),gens=[2])"


def test_central_quotient_requires_central_generators():
    # the rotation r in D4 is not central
    with pytest.raises(NotCentral):
        construct(CentralQuotient(Dihedral(4), (1,)))


def test_central_quotient_of_product_center():
    # quotient of C4 x C2 by the diagonal central involution
    g = construct(CentralQuotient(Product(Cyclic(4), Cyclic(2)), (5,)))
    assert g.order == 4


def test_dicyclic2_is_quaternion():
    q8 = construct(Dicyclic(2))
    assert q8.order == 8
    orders = sorted(element_order(q8, x) for x in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_dihedral_and_dicyclic_tables_match_presentation_rules():
    for m in range(1, 41):
        assert construct(Dihedral(m)).table == tuple(map(bytes, inverting_table_by_rules(m, 0)))
    for m in range(1, 21):
        assert (construct(Dicyclic(m)).table
                == tuple(map(bytes, inverting_table_by_rules(2 * m, m))))


def test_all_catalog_groups_validate(catalog16):
    for entry in catalog16:
        validate_table([list(r) for r in entry.group.table])


def _passes_validation(table) -> bool:
    """validate_table's verdict on a Latin square with identity at 0."""
    try:
        validate_table(table)
    except NotAssociative as err:
        x, y, z = err.witness
        assert table[table[x][y]][z] != table[x][table[y][z]]
        return False
    except NotInvertible:
        return False
    return True


def _intercalate_swaps(table):
    """Copies of the table with one 2×2 Latin sub-square swapped.

    Only sub-squares off row and column 0 whose entries are nonzero are
    used, so identity, Latin property and inverses survive the swap and
    associativity is the axiom left to fail.
    """
    n = len(table)
    for r1 in range(1, n):
        for r2 in range(r1 + 1, n):
            for c1 in range(1, n):
                a, b = table[r1][c1], table[r2][c1]
                c2 = table[r2].index(a)
                if c2 > c1 and a and b and table[r1][c2] == b:
                    out = [list(row) for row in table]
                    out[r1][c1], out[r1][c2], out[r2][c1], out[r2][c2] = b, a, a, b
                    yield out


def _cyclic_with_intercalate(n: int) -> list[list[int]]:
    """C_n (n even) with the intercalate on rows and columns 1 and 1 + n/2 swapped."""
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    h = 1 + n // 2
    table[1][1], table[1][h] = table[1][h], table[1][1]
    table[h][1], table[h][h] = table[h][h], table[h][1]
    return table


def test_light_test_matches_triple_oracle_on_reduced_latin_squares():
    rejected = 0
    failures = []
    for n in range(1, 6):
        for square in reduced_latin_squares(n):
            verdict = _passes_validation(square)
            assert verdict == is_associative_by_triples(square), square
            rejected += not verdict
            failures.append(_failure(square))
    assert rejected > 0
    # every (class, fields, message) is pinned
    assert (len(failures), sum(f is not None for f in failures)) == (63, 50)
    assert hashlib.sha256(repr(failures).encode()).hexdigest() == (
        "e6c25900aab5b5dd927c6a281fbef18ab7e0c3b58598b36dfe45394b4583cf87")


def test_light_test_matches_triple_oracle_on_perturbed_catalog(catalog16):
    checked = 0
    failures = []
    for entry in catalog16:
        for _, table in zip(range(3), _intercalate_swaps(entry.group.table)):
            assert _passes_validation(table) == is_associative_by_triples(table), entry.name
            checked += 1
            failures.append(_failure(table))
    assert checked > 50
    # every witness and message is pinned
    assert len(failures) == 89
    assert hashlib.sha256(repr(failures).encode()).hexdigest() == (
        "fb77ae570ff7f15f1a54c63b05f7a6f399f0158ef5412682414f3c3b6ee60707")


def test_every_order_is_checked_for_associativity(tmp_path):
    with pytest.raises(NotAssociative):
        Group(_cyclic_with_intercalate(514))
    path = tmp_path / "g.json"
    # the import refuses orders above its cap before it reads any entry
    path.write_text(json.dumps({"order": 514, "table": _cyclic_with_intercalate(514)}))
    with pytest.raises(OrderBound):
        import_group(path)
    path.write_text(json.dumps({"order": 512, "table": _cyclic_with_intercalate(512)}))
    with pytest.raises(NotAssociative):
        import_group(path)


def test_fast_path_proves_every_workload_table(catalog16, catalog24, monkeypatch):
    """Every valid table the workloads build or import is proved with no
    per-entry read and no Latin or inverse check: the byte rows up to
    order 256, the column gather above it."""
    def refuse(*args):
        raise AssertionError("validate_table read a valid table entry by entry "
                             "or checked its Latin rows")

    monkeypatch.setattr(core, "_entries", refuse)
    monkeypatch.setattr(core, "_latin_and_inverses", refuse)
    products = [construct(Product(a.recipe, b.recipe)) for a in catalog16 for b in catalog16
                if a.group.order * b.group.order == 128 and a.name <= b.name]
    assert len(products) == 70
    for group in products:
        back = group_from_json_dict(json.loads(json.dumps(group_to_json_dict(group))))
        assert back.table == group.table == validate_table(group.table)
    c2_9 = Cyclic(2)
    for _ in range(8):
        c2_9 = Product(c2_9, Cyclic(2))
    for recipe in (Cyclic(256), parse_recipe("P(S(5),C(3))"), c2_9):
        group = construct(recipe)
        assert validate_table([list(row) for row in group.table]) == group.table
    for entry in catalog24:
        assert construct(entry.recipe).table == entry.group.table, entry.name
    # the premises32 groups, with their extracted subgroups and quotients
    for text in PREMISES32.values():
        group = construct(parse_recipe(text))
        assert validate_table([list(row) for row in group.table]) == group.table
        derived = [subgroup_as_group(sub)[0] for sub in all_subgroups(group)]
        derived += [quotient(group, normal).target for normal in normal_subgroups(group)]
        for part in derived:
            assert validate_table(part.table) == part.table


def _cyclic_with_entry(n: int, row: int, col: int, value: int) -> list[list[int]]:
    """C_n's table with one entry replaced."""
    table = [list(line) for line in construct(Cyclic(n)).table]
    table[row][col] = value
    return table


def _boundary_failures(catalog16) -> list:
    """Tables that fail near the byte boundary, each with the (class,
    fields, message) ``validate_table`` raises, pinned."""
    entries = {entry.name: entry for entry in catalog16}
    swapped = [list(row) for row in
               construct(Product(entries["D4"].recipe, entries["Dic4"].recipe)).table]
    # the intercalate on rows 90, 94 and columns 96, 100 of D4×Dic4
    a, b = swapped[90][96], swapped[94][96]
    assert (swapped[94][100], swapped[90][100]) == (a, b)
    swapped[90][96], swapped[90][100], swapped[94][96], swapped[94][100] = b, a, a, b
    return [
        (_cyclic_with_intercalate(256),
         ("NotAssociative", {"witness": (1, 1, 2)}, "(g1*g1)*g2 != g1*(g1*g2)")),
        (_cyclic_with_intercalate(258),
         ("NotAssociative", {"witness": (1, 1, 2)}, "(g1*g1)*g2 != g1*(g1*g2)")),
        (swapped,
         ("NotAssociative", {"witness": (90, 1, 99)}, "(g90*g1)*g99 != g90*(g1*g99)")),
        # in [n, 256): a byte, but not an element; the second lies in the
        # column of Light's generator 1, where the proof would index by it
        (_cyclic_with_entry(200, 3, 5, 230),
         ("MalformedTable", {}, "row 3 entry 230 out of range [0, 200)")),
        (_cyclic_with_entry(200, 3, 1, 230),
         ("MalformedTable", {}, "row 3 entry 230 out of range [0, 200)")),
        (_cyclic_with_entry(256, 5, 9, 256),
         ("MalformedTable", {}, "row 5 entry 256 out of range [0, 256)")),
        (_cyclic_with_entry(200, 4, 2, -1),
         ("MalformedTable", {}, "row 4 entry -1 out of range [0, 200)")),
    ]


def _subclassed(table) -> list:
    """``table`` with every entry an ``_Int``, so it is read entry by entry."""
    return [[_Int(v) for v in row] for row in table]


def test_byte_row_boundaries_agree_with_the_checked_path(catalog16):
    # read whole or entry by entry, a table gives the rows, every element's
    # inverse and Light's generators: C_n's least element 1 reaches all of it
    for n in (255, 256, 257):
        table = [list(row) for row in construct(Cyclic(n)).table]
        proved = tuple((bytes if n <= 256 else tuple)((i + j) % n for j in range(n))
                       for i in range(n))
        inverses = tuple(-i % n for i in range(n))
        assert core._proved(table) == core._proved(_subclassed(table)) == (proved, inverses, (1,))
    for table, expected in _boundary_failures(catalog16):
        assert _failure(table) == _failure(_subclassed(table)) == expected


def test_byte_row_tables_prove_as_their_list_form(catalog16):
    entries = {entry.name: entry for entry in catalog16}
    groups = [entry.group for entry in catalog16] + [
        construct(Cyclic(255)), construct(Cyclic(256)),
        construct(Product(entries["D4"].recipe, entries["Dic4"].recipe))]
    for group in groups:
        rows = [bytes(row) for row in group.table]
        assert core._proved(rows) == (group.table, group.inv, greedy_generators(
            group.table, (1 << group.order) - 1))
        assert validate_table(rows) == validate_table(tuple(rows)) == group.table
        built = Group(rows)
        assert (built.table, built.inv) == (group.table, group.inv)
    # rows of both kinds are read entry by entry
    mixed = [bytes(row) if x % 2 else list(row) for x, row in enumerate(groups[-1].table)]
    assert validate_table(mixed) == groups[-1].table

    # a failure that fits in bytes is the one its list form raises
    fitting = [(table, expected) for table, expected in _boundary_failures(catalog16)
               if len(table) <= 256 and all(0 <= v < 256 for row in table for v in row)]
    assert [expected[2] for _, expected in fitting] == [
        "(g1*g1)*g2 != g1*(g1*g2)", "(g90*g1)*g99 != g90*(g1*g99)",
        "row 3 entry 230 out of range [0, 200)", "row 3 entry 230 out of range [0, 200)"]
    for table, expected in fitting:
        rows = [bytes(row) for row in table]
        assert _failure(rows) == _failure(rows, Group) == _failure(table) == expected

    # ragged byte rows and byte rows of order > 256 are read entry by entry.
    # The ragged rows join to C4's bytes: row 2 hands its last byte to row 3
    c4 = b"".join(bytes(row) for row in construct(Cyclic(4)).table)
    ragged = [c4[:4], c4[4:8], c4[8:11], c4[11:]]
    wide = [bytes(v % 256 for v in row) for row in construct(Cyclic(257)).table]
    for rows, expected in ((ragged, ("MalformedTable", {}, "table rows differ in length")),
                           (wide, ("NoIdentity", {}, "index 0 is not a two-sided identity"))):
        assert core._whole_rows(rows) is None
        assert _failure(rows) == _failure([list(row) for row in rows]) == expected


def test_inverses_match_the_row_scan(catalog16, catalog24):
    """``Group.inv`` on every path: the byte rows, the column gather above
    order 256, and an array."""
    for entry in catalog24:
        assert entry.group.inv == inverses_by_scan(entry.group.table), entry.name
    products = [construct(Product(a.recipe, b.recipe)) for a in catalog16 for b in catalog16
                if a.group.order * b.group.order == 128 and a.name <= b.name]
    assert len(products) == 70
    for group in products:
        back = group_from_json_dict(json.loads(json.dumps(group_to_json_dict(group))))
        assert back.inv == group.inv == inverses_by_scan(group.table)
    c2_9 = Cyclic(2)
    for _ in range(8):
        c2_9 = Product(c2_9, Cyclic(2))
    group = construct(c2_9)
    assert group.order == 512 and group.inv == inverses_by_scan(group.table)
    table = construct(Product(Dicyclic(3), Cyclic(3))).table
    assert Group(np.array([list(r) for r in table], dtype=np.int16)).inv == inverses_by_scan(table)


@pytest.mark.parametrize("entry", [1.7, 1.0, True, "1", None])
def test_non_integer_entries_are_malformed(entry):
    table = [[0, entry], [entry, 0]]
    with pytest.raises(MalformedTable):
        validate_table(table)
    with pytest.raises(MalformedTable):
        Group(table)
    with pytest.raises(MalformedTable):
        group_from_json_dict({"order": 2, "table": table})


def test_array_dtype_answers_the_type_check():
    assert validate_table(np.array([[0, 1], [1, 0]], dtype=np.uint8)) == (b"\0\1", b"\1\0")
    for dtype in (bool, float):
        with pytest.raises(MalformedTable):
            validate_table(np.array([[0, 1], [1, 0]], dtype=dtype))
    with pytest.raises(MalformedTable):
        validate_table(np.zeros((2, 2, 2), dtype=np.int64))


class _Int(int):
    """An exact integer that is not ``int`` itself, so its tables are read
    entry by entry."""


def test_one_row_form_per_order(monkeypatch):
    """``Group.table`` holds ``bytes`` rows up to order 256 and int tuples
    above, on every input path; one table reached by two paths is equal and
    hashes equal, as the ``_derived_group`` and ``IsoCache`` keys need."""
    entries, read = core._entries, []
    monkeypatch.setattr(core, "_entries", lambda table, typed: read.append(table)
                        or entries(table, typed))
    for n in (1, 6, 256, 257):
        rows = [[(i + j) % n for j in range(n)] for i in range(n)]
        form = bytes if n <= 256 else tuple
        expected = tuple(map(form, rows))
        subclassed = _subclassed(rows)
        inputs = [rows, tuple(map(tuple, rows)), subclassed,
                  np.array(rows, dtype=np.int16), np.array(rows, dtype=np.int64)]
        if n <= 256:
            inputs.append([bytes(row) for row in rows])
        tables = [construct(Cyclic(n)).table]
        for table in inputs:
            group = Group(table)
            tables += [group.table, validate_table(table), pickle.loads(pickle.dumps(group)).table]
        # only the int-subclass entries are read one at a time, by Group and validate_table
        assert [table is subclassed for table in read] == [True, True], n
        read.clear()
        for table in tables:
            assert type(table) is tuple and {type(row) for row in table} == {form}, n
            assert {type(v) for row in table for v in row} == {int}, n
            assert table == expected and hash(table) == hash(expected), n
    # derived tables: bytes rows from bytes rows and from int tuples, and
    # int tuples from int tuples
    for n in (256, 512):
        group = construct(Cyclic(n))
        half = construct(Cyclic(n // 2)).table
        sub = subgroup_as_group(generate_subgroup(group, [2]))[0]
        top = quotient(group, generate_subgroup(group, [n // 2])).target
        assert sub is top and sub.table == half and hash(sub.table) == hash(half)
        assert {type(row) for row in sub.table} == {bytes}
        whole = quotient(group, trivial_subgroup(group)).target
        assert whole.table == group.table and hash(whole.table) == hash(group.table)
        assert {type(row) for row in whole.table} == {bytes if n <= 256 else tuple}


class _List(list):
    """A row that is not ``list`` itself, so its table is read entry by entry."""


@pytest.mark.parametrize("n", [1, 2, 3, 6, 128, 256, 257])
def test_whole_rows_prove_their_entries_exact_ints(n):
    """Lists and tuples read whole give the outcome of the entry-by-entry
    read for every foreign entry: bools, floats, strings and None are no
    integers, int subclasses and numpy ints read as the int they equal.
    marshal writes True in 1 byte, a numpy int32 in 9 and 1.0 in 9, so a
    check of the dump's length alone would let True and one of them cancel."""
    exact = [[(i + j) % n for j in range(n)] for i in range(n)]
    rows = validate_table(exact)
    not_int = ("MalformedTable", {}, f"table entries must be integers in [0, {n})")

    def swapped(*swaps):
        table = [list(row) for row in exact]
        for (i, j), make in swaps:
            table[i % n][j % n] = make(table[i % n][j % n])
        return table

    def outcome(table):
        try:
            return validate_table(table)
        except TableError as err:
            return type(err).__name__, vars(err), str(err)

    last = (n - 1, n - 1)
    for make, expected in ((lambda v: True, not_int), (lambda v: False, not_int),
                           (lambda v: 1.0, not_int), (lambda v: "1", not_int),
                           (lambda v: None, not_int), (_Int, rows), (np.int64, rows)):
        for at in ((0, 1), (n - 1, 1), (1, 0), last):
            assert outcome(swapped((at, make))) == expected, at
        assert outcome(tuple(map(tuple, swapped((last, make))))) == expected
    assert _failure(swapped(((0, 1), lambda v: n))) == (
        "MalformedTable", {}, f"row 0 entry {n} out of range [0, {n})")
    if n > 1:
        cancelling = [swapped(((0, 1), lambda v: True), ((1, 0), np.int32)),
                      swapped(((0, 1), lambda v: True), ((n - 1, n - 1), lambda v: 1.0))]
        assert [_failure(table) for table in cancelling] == [not_int, not_int]
        subclassed, ragged = swapped(), swapped()
        subclassed[1] = _List(subclassed[1])
        ragged[1].pop()
        assert validate_table(subclassed) == rows
        assert _failure(ragged) == ("MalformedTable", {}, "table rows differ in length")
    if n == 3:
        # a dict row's dump has a list row's length: '{', three key-value
        # pairs of 5 + 1 bytes, and a closing byte
        keyed = [[0, 1, 2], {1: None, 2: None, 0: None}, [2, 0, 1]]
        assert _failure(keyed) == ("MalformedTable", {}, "table rows differ in length")


def test_bytearray_and_range_rows_are_rows():
    c2 = (b"\0\1", b"\1\0")
    for table in ([bytearray(b"\0\1"), bytearray(b"\1\0")], [range(2), range(1, -1, -1)],
                  [memoryview(b"\0\1"), memoryview(b"\1\0")]):
        assert validate_table(table) == Group(table).table == c2
    assert _failure([bytearray(b"\0\1"), bytearray(b"\1")]) == (
        "MalformedTable", {}, "table rows differ in length")
    # a string is no row of ints
    assert _failure(["\0\1", "\1\0"]) == (
        "MalformedTable", {}, "table has shape (2,), expected (2, 2)")


def test_int_rows_are_shaped_without_a_call_per_entry(monkeypatch):
    """``_shape`` reads a row whose entries are all exact ints by type as a
    row of scalars; a row of array rows still recurses, so a 3-D table keeps
    its shape message."""
    shape, calls = core._shape, []
    monkeypatch.setattr(core, "_shape", lambda x, *args: calls.append(x) or shape(x, *args))
    n = 16
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    for table in (_subclassed(rows), [list(map(np.int64, row)) for row in rows]):
        calls.clear()
        assert validate_table(table) == tuple(map(bytes, rows))
        assert len(calls) == 1 + n
    calls.clear()
    assert _failure([np.zeros((2, 2), dtype=np.int64)] * 2) == (
        "MalformedTable", {}, "table has shape (2, 2, 2), expected (2, 2)")
    assert len(calls) == 1 + 2 + 2 * 2


def test_product_and_semidirect_tables_match_entrywise_builders(catalog16):
    def rows(table):
        return [tuple(row) for row in table]

    small = [e.group for e in catalog16 if e.group.order <= 8]
    for a in small:
        for b in small:
            assert rows(_product_table(a, b)) == rows(product_table_by_entries(a, b))
    # byte rows up to order 256, list rows above it
    for left, right, order, kind in ((Cyclic(16), Dihedral(8), 256, bytes),
                                     (Symmetric(4), Cyclic(12), 288, list)):
        a, b = construct(left), construct(right)
        table = _product_table(a, b)
        assert (len(table), {type(row) for row in table}) == (order, {kind})
        assert rows(table) == rows(product_table_by_entries(a, b))
    semidirects = [r for _, r in _BUILTIN + _EXTRAS if isinstance(r, Semidirect)]
    assert len(semidirects) >= 6
    # C2 inverting C128 and C129: the dihedral groups of order 256 and 258
    for m in (128, 129):
        semidirects.append(Semidirect(Cyclic(m), Cyclic(2), ((1, tuple(-x % m for x in range(m))),)))
    for recipe in semidirects:
        normal, acting = construct(recipe.normal), construct(recipe.acting)
        phi = _resolve_action(normal, acting, recipe.action)
        for q1 in range(acting.order):
            for q2 in range(acting.order):
                composed = tuple(phi[q1][phi[q2][x]] for x in range(normal.order))
                assert phi[acting.table[q1][q2]] == composed
        assert (rows(_semidirect_table(normal, acting, recipe.action))
                == rows(semidirect_table_by_entries(normal, acting, phi)))


def test_records_of_equal_parameters_stay_distinct():
    recipes = [Cyclic(4), Dihedral(4), Dicyclic(4)]
    assert [a == b for a in recipes for b in recipes] == [True, False, False,
                                                          False, True, False,
                                                          False, False, True]
    assert Cyclic(4).__eq__(Dihedral(4)) is NotImplemented
    assert Cyclic(4) != (4,)
    # construct keeps one group per part, keyed by the recipe's eq and hash
    assert [construct(Product(r, Cyclic(1))).order for r in recipes] == [4, 8, 16]
    assert [construct(r).order for r in recipes] == [4, 8, 16]


def test_record_fields_hash_repr_and_immutability():
    g = construct(Product(Cyclic(2), Cyclic(4)))
    sub = normal_subgroups(g)[1]
    records = [Cyclic(4), Product(Cyclic(2), Cyclic(4)), VerifyConfig(jobs=3),
               fingerprint(g), sub]
    for r in records:
        assert isinstance(r, Record) and not hasattr(r, "__dict__")
        assert hash(r) == hash(tuple(getattr(r, name) for name in r._fields))
        assert r == copy.copy(r)
        with pytest.raises(AttributeError):
            setattr(r, r._fields[0], None)
        with pytest.raises(AttributeError):
            delattr(r, r._fields[0])
        with pytest.raises(AttributeError):
            r.unlisted = 1
    assert sub._fields == ("parent", "bits")
    assert sub.__eq__(Cyclic(4)) is NotImplemented
    assert sub == Subgroup(g, sub.bits) != Subgroup(g, 1)
    assert repr(VerifyConfig()) == "VerifyConfig(max_order=16, lattice_cap=64, jobs=1, seed=0)"
    assert repr(Product(Cyclic(2), Cyclic(4))) == "Product(left=Cyclic(n=2), right=Cyclic(n=4))"
    assert VerifyConfig(24, jobs=2) == VerifyConfig(max_order=24, lattice_cap=64, jobs=2, seed=0)


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),                     # missing
    ((), {"m": 4}),               # unexpected
    ((4, 5), {}),                 # extra
    ((4,), {"n": 4}),             # given twice
    ((), {"n": 4, "m": 4}),       # unexpected beside a good one
])
def test_record_rejects_wrong_fields(args, kwargs):
    with pytest.raises(TypeError):
        Cyclic(*args, **kwargs)


def test_records_survive_copy_and_pickle():
    g = construct(Product(Cyclic(2), Cyclic(4)))
    sub = normal_subgroups(g)[2]
    recipe = Product(Cyclic(2), Semidirect(Cyclic(3), Cyclic(2), ((1, (0, 2, 1)),)))
    report = verify_catalog(builtin_catalog(4), VerifyConfig(max_order=4))
    for r in (sub, recipe, VerifyConfig(max_order=8, seed=5), fingerprint(g), report):
        assert copy.copy(r) == r
        assert copy.deepcopy(r).__class__ is r.__class__
    for r in (recipe, VerifyConfig(max_order=8, seed=5), fingerprint(g), report):
        assert pickle.loads(pickle.dumps(r)) == r
    # a group compares by identity, so a subgroup is compared on its own copy
    g2, sub2 = pickle.loads(pickle.dumps((g, sub)))
    assert sub2.parent is g2 and g2.table == g.table
    assert sub2 == Subgroup(g2, sub.bits) and sub2.bits == sub.bits


class _GroupState:
    """Pickles as a ``Group`` with the given state, as an older groupkit or
    a damaged file would hold it."""

    def __init__(self, state):
        self.state = state

    def __reduce__(self):
        return Group.__new__, (Group,), self.state


def test_unpickling_proves_the_table():
    d4 = construct(Dihedral(4))
    # int-tuple rows at order 8, the row form before bytes rows
    old = (8, tuple(map(tuple, d4.table)), d4.inv, "D4", Dihedral(4))
    loaded = pickle.loads(pickle.dumps(_GroupState(old)))
    assert loaded.__class__ is Group
    assert loaded.table == d4.table and hash(loaded.table) == hash(d4.table)
    assert (loaded.order, loaded.inv, loaded.name, loaded.recipe) == (8, d4.inv, "D4", Dihedral(4))
    assert center(loaded).order == 2
    # row 1 repeats 1: the constructor's error, not a group of order 3
    bad = ((0, 1, 2), (1, 1, 0), (2, 0, 1))
    with pytest.raises(NotLatin) as built:
        Group(bad)
    with pytest.raises(NotLatin) as unpickled:
        pickle.loads(pickle.dumps(_GroupState((3, bad, (0, 2, 1), None, None))))
    assert str(unpickled.value) == str(built.value) == "row 1 repeats value 1"
