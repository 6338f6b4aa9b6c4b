"""Isomorphism testing, automorphism enumeration, and invariant fingerprints.

One lazy search, ``_search_isomorphisms``, yields the isomorphisms between
two tables in lexicographic order of their map arrays.  ``find_isomorphism``
takes its first map, ``automorphisms`` runs it out, and ``IsoCache`` reaches
it through ``find_isomorphism``.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import lcm

from .core import Group, Record, element_orders, memo
from .errors import OrderBound
from .subgroups import (Subgroup, center_of, derived_of, is_abelian_bits, subgroup_as_group,
                        whole_subgroup)

DEFAULT_AUTOMORPHISM_CAP = 64


class Fingerprint(Record):
    """Cheap isomorphism invariants; equality is necessary for isomorphism.

    Computed in the parent's indices (``subgroup_fingerprint``), so a
    subgroup needs no table of its own.  It is sufficient for abelian
    groups, which the order histogram determines (M. Hall, *The Theory of
    Groups*, 1959, Ch. 3), but not in general: Q8×C2 and C4⋊C4, or
    (C2×C2)⋊C4 and C4∘D4, agree on every field.
    """

    order: int
    order_histogram: tuple[tuple[int, int], ...]
    center_order: int
    derived_order: int
    exponent: int
    abelian: bool
    derived_series_length: int


class Iso(Record):
    """An index map witnessing source ≅ target."""

    source: Group
    target: Group
    map: tuple[int, ...]


def subgroup_fingerprint(sub: Subgroup) -> Fingerprint:
    """The fingerprint of a subgroup, computed in the parent's indices; memoized.

    An element's order is the same in the subgroup as in the parent, so the
    histogram counts the members in the parent's mask of each element
    order, one AND per order, and the exponent is the lcm of the orders it
    counts.  An abelian subgroup (``is_abelian_bits``) is its own centre
    with a derived series of one step, none when trivial; for any other they
    are the parent's memoized ``center_of`` and ``derived_of``.  No table is
    extracted.
    """
    group = sub.parent

    def build() -> Fingerprint:
        histogram = tuple((k, c) for k, mask in _order_masks(group)
                          if (c := (mask & sub.bits).bit_count()))
        exponent = lcm(*(k for k, _ in histogram))
        # by position, in field order: the record's fast path
        if is_abelian_bits(group, sub.bits):
            return Fingerprint(sub.order, histogram, sub.order, 1, exponent, True,
                               int(sub.order > 1))
        derived = derived_of(group, sub)
        series_len, current = 0, sub
        while (nxt := derived_of(group, current)).bits != current.bits:
            series_len += 1
            current = nxt
        return Fingerprint(sub.order, histogram, center_of(group, sub).order, derived.order,
                           exponent, False, series_len)

    return memo(group, ("fingerprint", sub.bits), build)


def _order_masks(group: Group) -> tuple[tuple[int, int], ...]:
    """(k, bitset of the elements of order k) for each element order k,
    ascending (memoized)."""
    def build() -> tuple[tuple[int, int], ...]:
        masks: dict[int, int] = {}
        for x, k in enumerate(element_orders(group)):
            masks[k] = masks.get(k, 0) | 1 << x
        return tuple(sorted(masks.items()))

    return memo(group, "order_masks", build)


def fingerprint(group: Group) -> Fingerprint:
    """The fingerprint of the whole group (``subgroup_fingerprint``)."""
    return subgroup_fingerprint(whole_subgroup(group))


def _search_isomorphisms(source: Group, target: Group) -> Iterator[tuple[int, ...]]:
    """Backtracking generator-image search; yields maps in lexicographic order.

    The next generator is always the least element outside the current span
    and its candidate images are tried ascending, so the maps come out in
    lexicographic order of their arrays, each found lazily: taking only the
    first runs the search no further than that map.
    """
    n = source.order
    stab = source.table
    ttab = target.table
    sorder = element_orders(source)
    torder = element_orders(target)
    by_order: dict[int, list[int]] = {}
    for t in range(n):
        by_order.setdefault(torder[t], []).append(t)
    for k in set(sorder):
        if len(by_order.get(k, ())) != sorder.count(k):
            return

    mapping = [-1] * n
    mapping[0] = 0
    used = 1
    span = [0]

    def undo(added: list[int]) -> None:
        nonlocal used
        for x in reversed(added):
            used &= ~(1 << mapping[x])
            mapping[x] = -1
            span.pop()

    def try_extend(s: int, t: int) -> list[int] | None:
        nonlocal used
        added: list[int] = []
        pending = [(s, t)]
        while pending:
            x, y = pending.pop()
            mx = mapping[x]
            if mx == y:
                continue
            if mx != -1 or (used >> y) & 1:  # x taken elsewhere, or y taken
                undo(added)
                return None
            mapping[x] = y
            used |= 1 << y
            span.append(x)
            added.append(x)
            xrow, yrow = stab[x], ttab[y]
            for e in span:
                me = mapping[e]
                pending.append((xrow[e], yrow[me]))
                pending.append((stab[e][x], ttab[me][y]))
        return added

    def dfs() -> Iterator[tuple[int, ...]]:
        s = -1
        for i in range(1, n):
            if mapping[i] == -1:
                s = i
                break
        if s == -1:
            yield tuple(mapping)
            return
        for t in by_order[sorder[s]]:
            if (used >> t) & 1:
                continue
            added = try_extend(s, t)
            if added is None:
                continue
            yield from dfs()
            undo(added)

    yield from dfs()


def find_isomorphism(source: Group, target: Group) -> Iso | None:
    """An isomorphism witness, or None.

    Deterministic: when isomorphisms exist the one with the lexicographically
    least map array is returned, the first map of the lazy search.
    """
    if source.order != target.order:
        return None
    if fingerprint(source) != fingerprint(target):
        return None
    found = next(_search_isomorphisms(source, target), None)
    return None if found is None else Iso(source, target, found)


def automorphisms(group: Group, *, cap: int = DEFAULT_AUTOMORPHISM_CAP) -> list[Iso]:
    """All isomorphisms G -> G, ordered by map array: the lazy search run out."""
    if group.order > cap:
        raise OrderBound(group.order, cap, "automorphism-search order")
    return list(memo(group, "automorphisms", lambda: [
        Iso(group, group, m) for m in _search_isomorphisms(group, group)
    ]))


class IsoCache:
    """Memoized isomorphism lookups keyed by multiplication tables.

    Extracted subgroups and quotients with the same table are one object
    across all live groups (see ``subgroups._derived_group``), and the
    lookups by table recur across parents, so callers doing bulk premise
    enumeration share one cache per run.

    ``class_of`` numbers the isomorphism classes of subgroups: two get the
    same id exactly when they are isomorphic.  A group is classified as its
    ``whole_subgroup``.  The fingerprint is computed in the parent's
    indices, and an abelian subgroup joins the one class of its fingerprint
    bucket with no table and no search, as its fingerprint is a complete
    invariant.  Only a non-abelian subgroup is extracted
    (``subgroup_as_group``) and compared with the class representatives
    that share its fingerprint, one ``iso_map`` each, so every search it
    runs is counted in ``_maps`` like any other lookup.  Ids are kept per
    subgroup, private to one cache, and carry no witness; callers that need
    the map itself ask ``iso_map`` for it.
    """

    def __init__(self):
        self._maps: dict[tuple, tuple[int, ...] | None] = {}
        self._ids: dict[tuple[Group, int], int] = {}
        self._class_ids: dict[tuple, int] = {}  # non-abelian tables only
        self._reps: dict[Fingerprint, list[tuple[int, Group | None]]] = {}
        self._classes = 0

    def iso_map(self, source: Group, target: Group) -> tuple[int, ...] | None:
        if source.order != target.order:
            return None
        key = (source.table, target.table)
        if key in self._maps:
            return self._maps[key]
        iso = find_isomorphism(source, target)
        out = iso.map if iso is not None else None
        self._maps[key] = out
        return out

    def isomorphic(self, source: Group, target: Group) -> bool:
        return self.iso_map(source, target) is not None

    def class_of(self, sub: Subgroup) -> int:
        """The id of the subgroup's isomorphism class within this cache."""
        found = self._ids.get((sub.parent, sub.bits))
        if found is not None:
            return found
        key = subgroup_fingerprint(sub)
        group = None
        if not key.abelian:
            group = subgroup_as_group(sub)[0]
            found = self._class_ids.get(group.table)
        if found is None:
            reps = self._reps.setdefault(key, [])
            for found, rep in reps:
                if key.abelian or self.iso_map(group, rep) is not None:
                    break
            else:
                found = self._classes
                self._classes += 1
                reps.append((found, group))
            if group is not None:
                self._class_ids[group.table] = found
        self._ids[sub.parent, sub.bits] = found
        return found
