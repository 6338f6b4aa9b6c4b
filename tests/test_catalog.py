import json
from collections import Counter

import pytest

from groupkit import catalog
from groupkit.catalog import (
    GROUP_COUNTS_UP_TO_16,
    _EXTRAS,
    abelian_p_group_catalog,
    builtin_catalog,
    export_group,
    group_from_json_dict,
    group_to_json_dict,
    import_group,
)
from groupkit.core import Cyclic, construct, is_abelian
from groupkit.errors import MalformedTable, NotLatin, TableError


def test_tiny_catalogs():
    assert len(builtin_catalog(1)) == 1
    assert len(builtin_catalog(8)) == 14
    counts = Counter(e.group.order for e in builtin_catalog(8))
    assert [counts.get(i, 0) for i in range(1, 9)] == [1, 1, 1, 2, 1, 2, 1, 5]


def test_extras_are_above_order_16():
    assert min(construct(recipe).order for _, recipe in _EXTRAS) > 16


def test_catalog_16_constructs_nothing_above_order_16(monkeypatch):
    orders = []
    real = catalog.construct

    def counting(recipe, **kwargs):
        group = real(recipe, **kwargs)
        orders.append(group.order)
        return group

    monkeypatch.setattr(catalog, "_catalogs", {})
    monkeypatch.setattr(catalog, "construct", counting)
    assert len(builtin_catalog(16)) == 42
    assert max(orders) == 16


def test_catalog_counts_match_published_sequence(catalog16):
    counts = Counter(e.group.order for e in catalog16)
    assert tuple(counts.get(i, 0) for i in range(1, 17)) == GROUP_COUNTS_UP_TO_16
    assert len(catalog16) == 42
    assert counts[16] == 14


def test_catalog_pairwise_non_isomorphic(catalog16, iso_cache):
    for i, a in enumerate(catalog16):
        for b in catalog16[i + 1:]:
            if a.group.order != b.group.order:
                continue
            assert not iso_cache.isomorphic(a.group, b.group), (a.name, b.name)


def test_catalog_entries_reconstruct_identically(catalog16):
    for entry in catalog16:
        assert construct(entry.recipe).table == entry.group.table, entry.name


def test_extras_present_at_24(catalog24):
    names = {e.name for e in catalog24}
    assert {"S4", "SL(2,3)", "D12", "Dic6", "F20", "C7:C3"} <= names
    assert all(e.group.order <= 24 for e in catalog24)


def test_extras_pairwise_non_isomorphic(catalog24, iso_cache):
    for i, a in enumerate(catalog24):
        for b in catalog24[i + 1:]:
            if a.group.order == b.group.order:
                assert not iso_cache.isomorphic(a.group, b.group), (a.name, b.name)


def test_abelian_p_group_catalog_counts():
    entries = abelian_p_group_catalog(64)
    # partitions of k for p^k <= 64: p=2 gives 1+2+3+5+7+11, p=3 gives 1+2+3,
    # p=5 and 7 give 1+2, and the eleven remaining primes below 64 give 1 each
    assert len(entries) == 29 + 6 + 3 + 3 + 14
    assert all(e.group.order <= 64 for e in entries)
    assert all(is_abelian(e.group) for e in entries)
    fps = [e.fingerprint for e in entries]
    assert len(set(fps)) == len(fps)  # pairwise non-isomorphic


def test_export_import_round_trip_trivial(tmp_path):
    path = tmp_path / "c1.json"
    export_group(construct(Cyclic(1), name="C1"), path)
    g = import_group(path)
    assert g.table == (b"\0",)
    assert g.name == "C1"


def test_export_import_round_trip_catalog(catalog16, tmp_path):
    for entry in catalog16:
        path = tmp_path / f"{abs(hash(entry.name))}.json"
        export_group(entry, path)
        loaded = import_group(path)
        assert loaded.table == entry.group.table, entry.name
        assert loaded.name == entry.name
        assert loaded.recipe == entry.recipe


def test_import_rejects_corrupted_table(tmp_path):
    path = tmp_path / "d4.json"
    export_group(construct(Cyclic(4), name="C4"), path)
    data = json.loads(path.read_text())
    data["table"][1][2] = 1  # break the Latin property
    path.write_text(json.dumps(data))
    with pytest.raises(TableError):
        import_group(path)


def test_import_rejects_malformed_json_dict():
    with pytest.raises(TableError):
        group_from_json_dict({"order": 2})
    with pytest.raises(TableError):
        group_from_json_dict({"order": 3, "table": [[0, 1], [1, 0]]})
    # an associative table with an identity, but a monoid: 1 has no inverse
    with pytest.raises(NotLatin):
        group_from_json_dict({"order": 2, "table": [[0, 1], [1, 1]]})


def test_import_checks_the_order_and_name_types():
    # an order equal to 1 that is no exact int, and a name that is no string
    for bad in ({"order": True}, {"order": 1.0}, {"name": {"a": [1]}}, {"name": None},
                {"name": 5}):
        with pytest.raises(MalformedTable):
            group_from_json_dict({"order": 1, "table": [[0]], **bad})
    assert group_from_json_dict({"order": 1, "table": [[0]], "name": "C1"}).name == "C1"
    assert group_from_json_dict({"order": 1, "table": [[0]]}).name is None


def test_import_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        import_group(tmp_path / "nope.json")


def test_group_json_dict_round_trip(catalog16):
    for entry in catalog16:
        data = group_to_json_dict(entry.group)
        loaded = group_from_json_dict(data)
        assert loaded.table == entry.group.table
