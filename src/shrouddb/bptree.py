"""Read-only bulk-loaded B+ tree mapping search keys to record locators.

The tree is built once from sorted entries at a fixed fill factor and
never mutated; lookups return ``(rid, oram_id)`` locators in key order.
Duplicate keys are allowed and may span leaves. An optional on-disk
form stores the tree as 4 KiB pages.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from shrouddb.data import Database, Query
from shrouddb.errors import DataError, ParameterError, QueryError

__all__ = [
    "BPlusTree",
    "build_tree",
    "create_index",
    "lookup",
    "save_index",
    "load_index",
    "PAGE_SIZE",
]

FILL_FACTOR = 0.7
PAGE_SIZE = 4096
PAGE_HEADER = struct.Struct("<BxxxI")  # page type, entry count
LEAF_ENTRY = struct.Struct("<qQI")     # key, rid, oram id
MAGIC = b"SIDX1\x00\x00\x00"

TYPE_LEAF = 1
TYPE_INNER = 2


class Leaf:
    __slots__ = ("keys", "values", "pos")

    def __init__(self, keys: list[int], values: list[tuple[int, int]], pos: int = 0):
        self.keys = keys
        self.values = values
        self.pos = pos  # index in the left-to-right leaf chain


class Inner:
    __slots__ = ("seps", "children")

    def __init__(self, seps: list[int], children: list):
        self.seps = seps          # seps[i] = smallest key under children[i + 1]
        self.children = children


def _chunk(n: int, size: int, capacity: int) -> list[int]:
    """Chunk sizes for ``n`` items at ``size`` per node, capacity bound.

    The tail is merged into its neighbour when they fit in one node,
    otherwise the pair splits evenly, so no node ends up underfull.
    """
    if n <= capacity:
        return [n]
    sizes = [size] * (n // size)
    rest = n - size * len(sizes)
    if rest:
        if sizes[-1] + rest <= capacity:
            sizes[-1] += rest
        else:
            combined = sizes.pop() + rest
            sizes.extend([math.ceil(combined / 2), combined // 2])
    return sizes


@dataclass
class BPlusTree:
    """Bulk-loaded static tree; ``leaves`` are chained by list order."""

    fanout: int
    root: Leaf | Inner
    leaves: list[Leaf]
    height: int  # number of inner levels above the leaves

    def lookup_range(self, a: int, b: int) -> list[tuple[int, int]]:
        """Locators for every entry with key in ``[a, b]``, in key order."""
        if a > b:
            raise QueryError(f"empty range [{a}, {b}]")
        node = self.root
        while isinstance(node, Inner):
            node = node.children[bisect_left(node.seps, a)]
        li = node.pos
        out: list[tuple[int, int]] = []
        while li < len(self.leaves):
            leaf = self.leaves[li]
            i = bisect_left(leaf.keys, a)
            while i < len(leaf.keys) and leaf.keys[i] <= b:
                out.append(leaf.values[i])
                i += 1
            if i < len(leaf.keys):  # stopped on a key past b
                break
            li += 1
        return out

    def occupancies(self) -> list[int]:
        return [len(leaf.keys) for leaf in self.leaves]

    def __len__(self) -> int:
        return sum(len(leaf.keys) for leaf in self.leaves)


def build_tree(entries: list[tuple[int, tuple[int, int]]], fanout: int = 200) -> BPlusTree:
    """Bulk load from ``(key, (rid, oram_id))`` pairs at 70 percent fill."""
    if fanout < 4:
        raise ParameterError("fanout must be >= 4")
    entries = sorted(entries, key=lambda e: (e[0], e[1][0]))
    capacity = fanout - 1
    fill = math.ceil(FILL_FACTOR * capacity)
    if not entries:
        leaf = Leaf([], [])
        return BPlusTree(fanout, leaf, [leaf], 0)

    leaves: list[Leaf] = []
    pos = 0
    for size in _chunk(len(entries), fill, capacity):
        part = entries[pos:pos + size]
        leaves.append(Leaf([k for k, _ in part], [v for _, v in part], len(leaves)))
        pos += size

    level: list = leaves
    mins = [leaf.keys[0] for leaf in leaves]
    height = 0
    child_fill = math.ceil(FILL_FACTOR * fanout)
    while len(level) > 1:
        parents: list[Inner] = []
        parent_mins: list[int] = []
        pos = 0
        for size in _chunk(len(level), child_fill, fanout):
            children = level[pos:pos + size]
            parents.append(Inner(mins[pos + 1:pos + size], children))
            parent_mins.append(mins[pos])
            pos += size
        level, mins = parents, parent_mins
        height += 1
    return BPlusTree(fanout, level[0], leaves, height)


def create_index(db: Database, addr_of: Mapping[int, tuple[int, int]],
                 attribute: str = "key", fanout: int = 200) -> BPlusTree:
    """Index one column: key -> (rid, oram id).

    ``addr_of`` maps every rid to its ``(oram id, address)``, the
    placement ``engine.setup`` drew from the partition PRF.
    """
    column = db.column(attribute)
    entries = [(k, (r.rid, addr_of[r.rid][0])) for k, r in zip(column, db.records)]
    return build_tree(entries, fanout)


def lookup(index: BPlusTree, q: Query) -> list[tuple[int, int]]:
    """Locators matching ``q``, in key order."""
    return index.lookup_range(q.a, q.b)


def group_by_oram(locators: list[tuple[int, int]], m: int) -> dict[int, list[int]]:
    """Split locators into per-store id lists; every store gets a list."""
    groups: dict[int, list[int]] = {j: [] for j in range(1, m + 1)}
    for rid, oram in locators:
        groups[oram].append(rid)
    return groups


# -- 4 KiB page form -------------------------------------------------------

_HEADER = struct.Struct("<8sIIQQII")  # magic, page size, fanout, entries, pages, height, root page


def save_index(index: BPlusTree, path: str | Path) -> None:
    """Write the tree as 4 KiB pages: header page, leaves left to right,
    then inner levels bottom-up; the root page comes last."""
    capacity = index.fanout - 1
    if PAGE_HEADER.size + capacity * LEAF_ENTRY.size > PAGE_SIZE:
        raise ParameterError(f"fanout {index.fanout} cannot fit a {PAGE_SIZE} byte page")
    pages: list[bytes] = []
    page_of: dict[int, int] = {}
    for leaf in index.leaves:
        body = PAGE_HEADER.pack(TYPE_LEAF, len(leaf.keys))
        body += b"".join(LEAF_ENTRY.pack(k, rid, oram)
                         for k, (rid, oram) in zip(leaf.keys, leaf.values))
        page_of[id(leaf)] = 1 + len(pages)
        pages.append(body)

    def serialize_inner(node: Inner) -> int:
        kids = [serialize_inner(c) if isinstance(c, Inner) else page_of[id(c)]
                for c in node.children]
        body = PAGE_HEADER.pack(TYPE_INNER, len(kids))
        body += struct.pack(f"<{len(kids)}Q", *kids)
        body += struct.pack(f"<{len(node.seps)}q", *node.seps)
        page_of[id(node)] = 1 + len(pages)
        pages.append(body)
        return page_of[id(node)]

    root_page = (serialize_inner(index.root) if isinstance(index.root, Inner)
                 else page_of[id(index.root)])
    header = _HEADER.pack(MAGIC, PAGE_SIZE, index.fanout, len(index),
                          1 + len(pages), index.height, root_page)
    with open(path, "wb") as fh:
        fh.write(header.ljust(PAGE_SIZE, b"\x00"))
        for body in pages:
            if len(body) > PAGE_SIZE:
                raise DataError("page overflow")
            fh.write(body.ljust(PAGE_SIZE, b"\x00"))


def load_index(path: str | Path) -> BPlusTree:
    raw = Path(path).read_bytes()
    if len(raw) < PAGE_SIZE or len(raw) % PAGE_SIZE:
        raise DataError("index file is not a whole number of pages")
    magic, page_size, fanout, n_entries, n_pages, height, root_page = \
        _HEADER.unpack_from(raw, 0)
    if magic != MAGIC or page_size != PAGE_SIZE:
        raise DataError("not an index file")
    if n_pages * PAGE_SIZE != len(raw):
        raise DataError("index file truncated")

    nodes: dict[int, Leaf | Inner] = {}
    leaves: list[Leaf] = []
    for p in range(1, n_pages):
        off = p * PAGE_SIZE
        kind, count = PAGE_HEADER.unpack_from(raw, off)
        off += PAGE_HEADER.size
        if kind == TYPE_LEAF:
            keys, values = [], []
            for _ in range(count):
                k, rid, oram = LEAF_ENTRY.unpack_from(raw, off)
                off += LEAF_ENTRY.size
                keys.append(k)
                values.append((rid, oram))
            node = Leaf(keys, values, len(leaves))
            leaves.append(node)
        elif kind == TYPE_INNER:
            kids = list(struct.unpack_from(f"<{count}Q", raw, off))
            off += 8 * count
            seps = list(struct.unpack_from(f"<{count - 1}q", raw, off))
            node = Inner(seps, [nodes[c] for c in kids])
        else:
            raise DataError(f"unknown page type {kind}")
        nodes[p] = node
    tree = BPlusTree(fanout, nodes[root_page], leaves, height)
    if len(tree) != n_entries:
        raise DataError("entry count mismatch")
    return tree
