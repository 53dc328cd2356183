"""Sorted-array index: search keys -> record positions.

An index over one column is two arrays: the column's values in
ascending order and the stable ``argsort`` permutation that maps each
of them to its record's position in ``Database.records``. A lookup is
two binary searches and one slice, in key order and, within a key, in
record order. The module keeps the name ``bptree`` because the
benchmark's tracer wraps ``create_index`` and ``lookup`` by that name.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from shrouddb.data import Query

__all__ = ["SortedIndex", "create_index", "lookup"]


class SortedIndex(NamedTuple):
    keys: np.ndarray       # column values, ascending
    positions: np.ndarray  # record position of each entry of ``keys``


def create_index(column: Sequence[int]) -> SortedIndex:
    """Index one column, aligned with ``Database.records``."""
    values = np.asarray(column, dtype=np.int64)
    order = np.argsort(values, kind="stable")
    return SortedIndex(values[order], order)


def lookup(index: SortedIndex, q: Query) -> np.ndarray:
    """Positions of the records whose key lies in ``[q.a, q.b]``."""
    keys = index.keys
    return index.positions[keys.searchsorted(q.a, "left"):keys.searchsorted(q.b, "right")]
