"""Shared fixtures: the built-in catalog and brute-force oracles."""

from __future__ import annotations

import pytest

from groupkit import builtin_catalog
from groupkit.core import Group
from groupkit.iso import IsoCache
from groupkit.subgroups import members_of


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
