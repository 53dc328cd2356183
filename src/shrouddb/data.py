"""Plain data model shared by the engine, index, and benchmarks, and
a record's stored layout, ``rid(8) || key(8) || payload`` (big-endian)."""

from __future__ import annotations

from dataclasses import dataclass, field

from shrouddb.errors import DataError, ParameterError

__all__ = ["Record", "Database", "Query", "RECORD_HEADER", "pack_record", "unpack_record",
           "record_key", "is_bytes_like"]

RECORD_HEADER = 16  # rid (8) and key (8) before the payload


def is_bytes_like(value) -> bool:
    """Whether ``value`` is a flat buffer of single bytes: ``bytes``, a
    ``bytearray`` or a one-dimensional contiguous byte view, never an
    ``int`` or a ``str``. Records, stores and ORAM blocks share this rule."""
    if type(value) is bytes:
        return True
    try:
        view = value if type(value) is memoryview else memoryview(value)
    except TypeError:
        return False
    return view.ndim == 1 and view.itemsize == 1 and view.c_contiguous


@dataclass(frozen=True)
class Record:
    """One row: unique id, integer search key, opaque payload."""

    rid: int
    key: int
    payload: bytes

    def __post_init__(self):
        if not isinstance(self.rid, int) or not 0 <= self.rid < 1 << 64:
            raise DataError(f"record id {self.rid!r} is not an int in [0, 2^64)")
        if not isinstance(self.key, int):
            raise DataError(f"record {self.rid} key {self.key!r} is not an int")
        if not is_bytes_like(self.payload):
            raise DataError(f"record {self.rid} payload is a "
                            f"{type(self.payload).__name__}, not bytes")


@dataclass
class Database:
    """A list of records plus optional extra searchable columns.

    ``attributes`` maps a column name to one integer per record, aligned
    with ``records``; the primary column is ``Record.key``. ``setup``
    checks every column, and takes its own copy, before it stores
    anything.
    """

    records: list[Record]
    attributes: dict[str, list[int]] = field(default_factory=dict)

    def __post_init__(self):
        rids = {r.rid for r in self.records}
        if len(rids) != len(self.records):
            raise DataError("record ids must be unique")
        if "key" in self.attributes:
            raise DataError("column name 'key' is reserved for Record.key")

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class Query:
    """Inclusive range ``[a, b]`` over one column; a point query is the
    range with ``a == b``."""

    a: int
    b: int
    attribute: str = "key"

    def __post_init__(self):
        if not (isinstance(self.a, int) and isinstance(self.b, int)):
            raise ParameterError(f"range bounds {self.a!r}, {self.b!r} are not ints")
        if self.a > self.b:
            raise ParameterError(f"empty range [{self.a}, {self.b}]")


def point_query(a: int, attribute: str = "key") -> Query:
    return Query(a, a, attribute)


def range_query(a: int, b: int, attribute: str = "key") -> Query:
    return Query(a, b, attribute)


def pack_record(r: Record) -> bytes:
    """``r`` in its stored layout, ``rid(8) || key(8) || payload``."""
    return r.rid.to_bytes(8, "big") + r.key.to_bytes(8, "big") + r.payload


def unpack_record(blob: bytes) -> Record:
    """The record whose stored layout is ``blob``."""
    return Record(int.from_bytes(blob[:8], "big"), record_key(blob), blob[RECORD_HEADER:])


def record_key(blob: bytes) -> int:
    """The key of a stored record, read without building the record."""
    return int.from_bytes(blob[8:16], "big")
