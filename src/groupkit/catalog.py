"""Built-in group catalog and JSON import/export.

The recipe list below reaches every isomorphism class of order <= 16 with
the catalog's four constructors; completeness is certified by the published
group-count sequence (checked in the tests), not by trusting the list.
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import (
    DEFAULT_ORDER_CAP,
    CentralQuotient,
    Cyclic,
    Dicyclic,
    Dihedral,
    Group,
    Product,
    Recipe,
    Record,
    Semidirect,
    Symmetric,
    _int_type,
    construct,
    parse_recipe,
    recipe_dsl,
)
from .errors import MalformedTable, OrderBound
from .iso import Fingerprint, IsoCache, fingerprint
from .subgroups import _is_prime, whole_subgroup

# number-of-groups function for orders 1..16
GROUP_COUNTS_UP_TO_16 = (1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1, 14)


def _cyclics(*orders: int) -> Recipe:
    out = Cyclic(orders[0])
    for n in orders[1:]:
        out = Product(out, Cyclic(n))
    return out


# Handy semidirect actions, written as full index permutations of the
# normal part (per its deterministic recipe numbering).
_A4 = Semidirect(Product(Cyclic(2), Cyclic(2)), Cyclic(3), ((1, (0, 3, 1, 2)),))
_SL23 = Semidirect(Dicyclic(2), Cyclic(3), ((1, (0, 4, 2, 6, 5, 1, 7, 3)),))

_BUILTIN: tuple[tuple[str, Recipe], ...] = (
    ("C1", Cyclic(1)),
    ("C2", Cyclic(2)),
    ("C3", Cyclic(3)),
    ("C4", Cyclic(4)),
    ("C2xC2", _cyclics(2, 2)),
    ("C5", Cyclic(5)),
    ("C6", Cyclic(6)),
    ("S3", Symmetric(3)),
    ("C7", Cyclic(7)),
    ("C8", Cyclic(8)),
    ("C4xC2", _cyclics(4, 2)),
    ("C2xC2xC2", _cyclics(2, 2, 2)),
    ("D4", Dihedral(4)),
    ("Q8", Dicyclic(2)),
    ("C9", Cyclic(9)),
    ("C3xC3", _cyclics(3, 3)),
    ("C10", Cyclic(10)),
    ("D5", Dihedral(5)),
    ("C11", Cyclic(11)),
    ("C12", Cyclic(12)),
    ("C6xC2", _cyclics(6, 2)),
    ("D6", Dihedral(6)),
    ("A4", _A4),
    ("Dic3", Dicyclic(3)),
    ("C13", Cyclic(13)),
    ("C14", Cyclic(14)),
    ("D7", Dihedral(7)),
    ("C15", Cyclic(15)),
    ("C16", Cyclic(16)),
    ("C8xC2", _cyclics(8, 2)),
    ("C4xC4", _cyclics(4, 4)),
    ("C4xC2xC2", _cyclics(4, 2, 2)),
    ("C2xC2xC2xC2", _cyclics(2, 2, 2, 2)),
    ("D8", Dihedral(8)),
    ("Dic4", Dicyclic(4)),
    # C8 ⋊ C2 with the generator cubed (semidihedral) and to the fifth (modular)
    ("SD16", Semidirect(Cyclic(8), Cyclic(2), ((1, (0, 3, 6, 1, 4, 7, 2, 5)),))),
    ("M16", Semidirect(Cyclic(8), Cyclic(2), ((1, (0, 5, 2, 7, 4, 1, 6, 3)),))),
    ("D4xC2", Product(Dihedral(4), Cyclic(2))),
    ("Q8xC2", Product(Dicyclic(2), Cyclic(2))),
    ("C4:C4", Semidirect(Cyclic(4), Cyclic(4), ((1, (0, 3, 2, 1)),))),
    ("(C2xC2):C4", Semidirect(Product(Cyclic(2), Cyclic(2)), Cyclic(4), ((1, (0, 2, 1, 3)),))),
    # central product C4∘D4: kill the diagonal central involution (c², r²)
    ("C4oD4", CentralQuotient(Product(Cyclic(4), Dihedral(4)), (18,))),
)

_EXTRAS: tuple[tuple[str, Recipe], ...] = (
    ("C17", Cyclic(17)),
    ("C18", Cyclic(18)),
    ("D9", Dihedral(9)),
    ("C3xS3", Product(Cyclic(3), Symmetric(3))),
    ("C19", Cyclic(19)),
    ("C20", Cyclic(20)),
    ("D10", Dihedral(10)),
    ("Dic5", Dicyclic(5)),
    ("F20", Semidirect(Cyclic(5), Cyclic(4), ((1, (0, 2, 4, 1, 3)),))),
    ("C21", Cyclic(21)),
    ("C7:C3", Semidirect(Cyclic(7), Cyclic(3), ((1, (0, 2, 4, 6, 1, 3, 5)),))),
    ("C22", Cyclic(22)),
    ("D11", Dihedral(11)),
    ("C23", Cyclic(23)),
    ("C24", Cyclic(24)),
    ("S4", Symmetric(4)),
    ("SL(2,3)", _SL23),
    ("A4xC2", Product(_A4, Cyclic(2))),
    ("D12", Dihedral(12)),
    ("Dic6", Dicyclic(6)),
    ("C3xD4", Product(Cyclic(3), Dihedral(4))),
)


class CatalogEntry(Record):
    name: str
    recipe: Recipe
    group: Group
    fingerprint: Fingerprint


_catalogs: dict[int, list[CatalogEntry]] = {}


def builtin_catalog(max_order: int) -> list[CatalogEntry]:
    """All isomorphism classes of order <= min(max_order, 16), plus curated
    larger entries (all above 16, built only then) up to max_order;
    deduplicated by isomorphism testing."""
    if max_order > DEFAULT_ORDER_CAP:
        raise OrderBound(max_order, DEFAULT_ORDER_CAP, "catalog max order")
    cached = _catalogs.get(max_order)
    if cached is None:
        cache = IsoCache()
        classes: set[int] = set()
        entries: list[CatalogEntry] = []
        for name, recipe in _BUILTIN + (_EXTRAS if max_order > 16 else ()):
            group = construct(recipe, name=name)
            if group.order > max_order:
                continue
            class_id = cache.class_of(whole_subgroup(group))
            if class_id in classes:
                continue
            classes.add(class_id)
            entries.append(CatalogEntry(name, recipe, group, fingerprint(group)))
        cached = entries
        _catalogs[max_order] = cached
    return list(cached)


def _partitions(k: int) -> list[tuple[int, ...]]:
    """Partitions of k into nonincreasing positive parts."""
    if k == 0:
        return [()]
    out = []

    def go(remaining: int, largest: int, acc: tuple[int, ...]):
        if remaining == 0:
            out.append(acc)
            return
        for part in range(min(remaining, largest), 0, -1):
            go(remaining - part, part, acc + (part,))

    go(k, k, ())
    return out


def abelian_p_group_catalog(max_order: int = 64) -> list[CatalogEntry]:
    """Every abelian p-group of order <= max_order (one per partition)."""
    out = []
    for p in range(2, max_order + 1):
        if not _is_prime(p):
            continue
        k = 1
        while p ** (k + 1) <= max_order:
            k += 1
        for exps in range(1, k + 1):
            for part in _partitions(exps):
                recipe = _cyclics(*(p ** a for a in part))
                name = "x".join(f"C{p ** a}" for a in part)
                group = construct(recipe, name=name)
                out.append(CatalogEntry(name, recipe, group, fingerprint(group)))
    return out


def group_to_json_dict(group: Group) -> dict:
    out: dict = {"order": group.order, "table": [list(row) for row in group.table]}
    if group.name is not None:
        out["name"] = group.name
    if group.recipe is not None:
        out["recipe"] = recipe_dsl(group.recipe)
    return out


def group_from_json_dict(data: dict) -> Group:
    if not isinstance(data, dict) or "table" not in data or "order" not in data:
        raise MalformedTable("group JSON must carry 'order' and 'table'")
    if not _int_type(type(data["order"])):
        raise MalformedTable("'order' must be an integer")
    if not isinstance(data.get("name", ""), str):
        raise MalformedTable("'name' must be a string")
    table = data["table"]
    if not isinstance(table, list) or len(table) != data["order"]:
        raise MalformedTable("'order' does not match the table size")
    if len(table) > DEFAULT_ORDER_CAP:
        raise OrderBound(len(table), DEFAULT_ORDER_CAP, "imported group order")
    recipe = None
    if "recipe" in data:
        if not isinstance(data["recipe"], str):
            raise MalformedTable("'recipe' must be a recipe DSL string")
        recipe = parse_recipe(data["recipe"])
    return Group(table, name=data.get("name"), recipe=recipe)


def canonical_json(data: dict | list) -> str:
    """The one JSON form of every file groupkit writes: sorted keys, indent
    2, a trailing newline, so equal data gives equal bytes."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def export_group(obj, path) -> None:
    group = obj.group if isinstance(obj, CatalogEntry) else obj
    Path(path).write_text(canonical_json(group_to_json_dict(group)), encoding="utf-8")


def import_group(path) -> Group:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return group_from_json_dict(data)
