import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from shrouddb.bptree import (
    build_tree,
    create_index,
    group_by_oram,
    load_index,
    lookup,
    save_index,
    PAGE_SIZE,
)
from shrouddb.crypto import keygen, partition_of
from shrouddb.data import Database, Record, point_query, range_query
from shrouddb.errors import DataError, ParameterError, QueryError


def flat_lookup(entries, a, b):
    return [v for k, v in sorted(entries, key=lambda e: (e[0], e[1][0]))
            if a <= k <= b]


def test_lookup_matches_sorted_scan(rng):
    for _ in range(25):
        n = rng.randrange(0, 2500)
        entries = [(rng.randrange(400), (i, 1 + i % 4)) for i in range(n)]
        tree = build_tree(entries, fanout=rng.choice([4, 7, 16, 200]))
        for _ in range(30):
            a = rng.randrange(400)
            b = rng.randrange(a, 400)
            assert tree.lookup_range(a, b) == flat_lookup(entries, a, b)


def test_empty_tree():
    tree = build_tree([])
    assert tree.lookup_range(0, 100) == []
    assert len(tree) == 0


def test_point_lookup_with_duplicates_spanning_leaves():
    entries = [(5, (i, 1)) for i in range(1000)]
    entries += [(3, (5000, 1)), (9, (6000, 1))]
    tree = build_tree(entries, fanout=8)
    got = tree.lookup_range(5, 5)
    assert [rid for rid, _ in got] == list(range(1000))
    assert tree.lookup_range(3, 3) == [(5000, 1)]
    assert tree.lookup_range(9, 9) == [(6000, 1)]
    assert tree.lookup_range(4, 4) == []


def test_fill_factor():
    tree = build_tree([(i, (i, 1)) for i in range(10_000)], fanout=200)
    occ = tree.occupancies()
    fill = math.ceil(0.7 * 199)
    half = math.ceil(199 / 2)
    assert sum(occ) == 10_000
    # all leaves at the target fill except a tail pair that stays >= half
    assert all(half <= c <= 199 for c in occ)
    assert sum(1 for c in occ if c != fill) <= 2


def test_small_fanout_validation():
    with pytest.raises(ParameterError):
        build_tree([], fanout=3)


def test_empty_range_rejected():
    tree = build_tree([(1, (1, 1))])
    with pytest.raises(QueryError):
        tree.lookup_range(5, 4)


def prf_placement(db, m, rng):
    hk = keygen(128, rng)
    return hk, {r.rid: (partition_of(hk, r.rid, m), i) for i, r in enumerate(db.records)}


def test_create_index_partitions_by_prf(rng):
    db = Database([Record(i, i % 53, bytes(2)) for i in range(400)])
    hk, addr_of = prf_placement(db, 4, rng)
    idx = create_index(db, addr_of)
    locs = lookup(idx, range_query(10, 20))
    assert sorted(r for r, _ in locs) == \
        sorted(r.rid for r in db.records if 10 <= r.key <= 20)
    for rid, oram in locs:
        assert oram == partition_of(hk, rid, 4)
    grouped = group_by_oram(locs, 4)
    assert set(grouped) == {1, 2, 3, 4}
    assert sum(map(len, grouped.values())) == len(locs)


def test_create_index_on_extra_column(rng):
    col = [i * 3 % 31 for i in range(100)]
    db = Database([Record(i, 0, b"") for i in range(100)], {"aux": col})
    idx = create_index(db, prf_placement(db, 2, rng)[1], attribute="aux")
    locs = lookup(idx, point_query(6, attribute="aux"))
    assert sorted(r for r, _ in locs) == [i for i in range(100) if col[i] == 6]


def test_duplicate_rids_rejected():
    with pytest.raises(DataError):
        Database([Record(1, 0, b""), Record(1, 1, b"")])


def test_page_roundtrip(tmp_path, rng):
    db = Database([Record(i, rng.randrange(97), bytes(2)) for i in range(3000)])
    idx = create_index(db, prf_placement(db, 4, rng)[1], fanout=32)
    path = tmp_path / "index.pages"
    save_index(idx, path)
    size = path.stat().st_size
    assert size % PAGE_SIZE == 0
    loaded = load_index(path)
    assert loaded.occupancies() == idx.occupancies()
    assert loaded.height == idx.height
    for _ in range(200):
        a = rng.randrange(97)
        b = rng.randrange(a, 97)
        assert loaded.lookup_range(a, b) == idx.lookup_range(a, b)


def test_page_save_rejects_oversized_fanout(tmp_path):
    tree = build_tree([(i, (i, 1)) for i in range(10)], fanout=300)
    with pytest.raises(ParameterError):
        save_index(tree, tmp_path / "x.pages")


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "bad.pages"
    p.write_bytes(b"\x00" * PAGE_SIZE)
    with pytest.raises(DataError):
        load_index(p)
    p.write_bytes(b"\x00" * 100)
    with pytest.raises(DataError):
        load_index(p)


@settings(max_examples=40)
@given(st.lists(st.integers(0, 60), max_size=300), st.integers(0, 60),
       st.integers(0, 60), st.integers(4, 40))
def test_lookup_property(keys, a, b, fanout):
    a, b = min(a, b), max(a, b)
    entries = [(kv, (i, 1)) for i, kv in enumerate(keys)]
    tree = build_tree(entries, fanout=fanout)
    assert tree.lookup_range(a, b) == flat_lookup(entries, a, b)
