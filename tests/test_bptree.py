import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shrouddb.bptree import create_index, lookup
from shrouddb.data import Database, Record, point_query, range_query
from shrouddb.errors import DataError, ParameterError


def flat_lookup(column, a, b):
    """Positions with key in ``[a, b]``, by key, then by position."""
    return [i for k, i in sorted((k, i) for i, k in enumerate(column)) if a <= k <= b]


def test_lookup_matches_sorted_scan(rng):
    for _ in range(25):
        column = [rng.randrange(400) for _ in range(rng.randrange(0, 2500))]
        index = create_index(column)
        for _ in range(30):
            a = rng.randrange(400)
            b = rng.randrange(a, 400)
            assert lookup(index, range_query(a, b)).tolist() == flat_lookup(column, a, b)


def test_empty_tree():
    index = create_index([])
    assert lookup(index, range_query(0, 100)).tolist() == []


def test_point_lookup_with_duplicates():
    column = [5] * 1000 + [3, 9]
    index = create_index(column)
    assert lookup(index, point_query(5)).tolist() == list(range(1000))
    assert lookup(index, point_query(3)).tolist() == [1000]
    assert lookup(index, point_query(9)).tolist() == [1001]
    assert lookup(index, point_query(4)).tolist() == []  # between keys
    assert lookup(index, range_query(10, 50)).tolist() == []  # past the last key


def test_domain_edges():
    domain = 64
    column = [domain - 1, 0, 17, 0, domain - 1]
    index = create_index(column)
    assert lookup(index, point_query(0)).tolist() == [1, 3]
    assert lookup(index, point_query(domain - 1)).tolist() == [0, 4]
    assert lookup(index, range_query(0, domain - 1)).tolist() == [1, 3, 2, 0, 4]


def test_index_arrays():
    column = [4, 1, 4, 0]
    index = create_index(column)
    assert index.keys.tolist() == [0, 1, 4, 4]
    assert index.positions.tolist() == [3, 1, 0, 2]  # stable within a key
    assert index.keys.dtype == np.int64


def test_empty_range_rejected():
    """An empty range never reaches the index: the query refuses it."""
    with pytest.raises(ParameterError):
        range_query(5, 4)


def test_create_index_on_extra_column():
    col = [i * 3 % 31 for i in range(100)]
    db = Database([Record(i, 0, b"") for i in range(100)], {"aux": col})
    index = create_index(db.attributes["aux"])
    got = lookup(index, point_query(6, attribute="aux")).tolist()
    assert got == [i for i in range(100) if col[i] == 6]
    keys = [r.key for r in db.records]
    assert lookup(create_index(keys), point_query(0)).tolist() == list(range(100))


def test_column_named_key_rejected():
    with pytest.raises(DataError, match="'key' is reserved"):
        Database([Record(0, 3, b"")], {"key": [7]})


def test_duplicate_rids_rejected():
    with pytest.raises(DataError):
        Database([Record(1, 0, b""), Record(1, 1, b"")])


@settings(max_examples=40)
@given(st.lists(st.integers(0, 60), max_size=300), st.integers(0, 60),
       st.integers(0, 60))
def test_lookup_property(column, a, b):
    a, b = min(a, b), max(a, b)
    got = lookup(create_index(column), range_query(a, b)).tolist()
    assert got == flat_lookup(column, a, b)
