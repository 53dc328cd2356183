"""Span tracer that wraps shrouddb's public functions by name.

The tracer patches module functions (and every alias other shrouddb
modules imported with ``from ... import``), ``OramState`` methods and
storage backend methods. Each call becomes one in-memory span tagged
with the current query and the calling thread, because the engine runs
``batch_access`` on its pool threads. ``per_layer`` turns the spans
into the per-layer metrics listed in ``LAYER_METRICS``.

A name that no longer exists is skipped; every metric that needs it is
reported as absent (``None``) and the run goes on.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time


def _arg(i):
    """Count taken from positional argument ``i`` (an int)."""
    return lambda args, out: args[i] if len(args) > i else 0


def _arg_len(i):
    """Count taken from the length of positional argument ``i``."""
    return lambda args, out: len(args[i]) if len(args) > i else 0


def _stash_after(args, out):
    return len(getattr(args[0], "stash", ()))


# storage spec of a workload -> the backend class its ORAMs write through
BACKENDS = {"disk": "DiskKvs", "remote": "RemoteKvs"}

# (module, attribute or Class.method, count extractor or None)
WRAPPED = [
    ("shrouddb.engine", "setup", None),
    ("shrouddb.engine", "query", None),
    ("shrouddb.bptree", "create_index", None),
    ("shrouddb.bptree", "lookup", None),
    ("shrouddb.bptree", "group_by_oram", None),
    ("shrouddb.sanitizer", "build_range_sanitizer", None),
    ("shrouddb.sanitizer", "sanitizer_query", None),
    ("shrouddb.crypto", "partition_of", None),
    ("shrouddb.crypto", "keygen", None),
    ("shrouddb.oram", "oram_init", None),
    ("shrouddb.oram", "OramState.access", _stash_after),
    ("shrouddb.oram", "OramState.batch_access", _stash_after),
    ("shrouddb.slots", "open_slots", _arg(2)),
    ("shrouddb.slots", "seal_slots", _arg(3)),
] + [
    ("shrouddb.storage", f"{cls}.{meth}", _arg_len(1) if meth.startswith("batch") else None)
    for cls in ("CountingKvs", "KvsView", *BACKENDS.values())
    for meth in ("get", "put", "batch_get", "batch_put")
]


# name -> (unit, better); the names and units BENCHMARK.json lists
LAYER_METRICS = {
    "engine.self_ms_per_q": ("ms", "lower"),
    "engine.fetch_wall_ms_per_q": ("ms", "lower"),
    "engine.fetch_overlap": ("ratio", "higher"),
    "engine.true_per_q": ("count", "higher"),
    "engine.fetched_per_q": ("count", "lower"),
    "engine.pad_ratio": ("ratio", "lower"),
    "bptree.lookup_us_per_q": ("us", "lower"),
    "bptree.create_index_ms": ("ms", "lower"),
    "sanitizer.query_us_per_q": ("us", "lower"),
    "sanitizer.build_ms": ("ms", "lower"),
    "crypto.partition_calls": ("count", "lower"),
    "crypto.partition_ms": ("ms", "lower"),
    "oram.batch_ms_per_q": ("ms", "lower"),
    "oram.self_ms_per_q": ("ms", "lower"),
    "oram.buckets_read_per_q": ("count", "lower"),
    "oram.buckets_written_per_q": ("count", "lower"),
    "oram.path_union_frac": ("ratio", "lower"),
    "oram.stash_peak": ("count", "lower"),
    "oram.load_ms": ("ms", "lower"),
    "slots.open_ms_per_q": ("ms", "lower"),
    "slots.seal_ms_per_q": ("ms", "lower"),
    "slots.opened_per_q": ("count", "lower"),
    "slots.sealed_per_q": ("count", "lower"),
    "storage.get_ms_per_q": ("ms", "lower"),
    "storage.put_ms_per_q": ("ms", "lower"),
    "storage.backend_get_ms_per_q": ("ms", "lower"),
    "storage.backend_put_ms_per_q": ("ms", "lower"),
    "storage.log_bytes_per_q": ("B", "lower"),
    "wire.ms_per_q": ("ms", "lower"),
    "server.cpu_ms_per_q": ("ms", "lower"),
    "trace.p50_ratio": ("ratio", "lower"),
}


def _span_name(module: str, attr: str) -> str:
    return module.rsplit(".", 1)[1] + "." + attr


class Tracer:
    """Wraps the names in ``WRAPPED``; spans live in ``self.spans``.

    A span is ``(id, parent id, name, tag, thread id, t0 ns, t1 ns,
    count)``. ``tag`` is whatever the caller set in ``self.tag`` (a query
    index or a setup label). A span opened on a thread with no open span
    has parent -1; for a query those are the pool-thread children of the
    ``engine.query`` span with the same tag.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.tag = None
        self.missing: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._targets = self._resolve()

    def _resolve(self):
        """Find each wrapped object now, so install/uninstall stay cheap."""
        targets = []
        for module, attr, count in WRAPPED:
            name = _span_name(module, attr)
            try:
                owner = importlib.import_module(module)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(owner, cls_name)
                    original = owner.__dict__[meth]
                    holders = [(owner, meth)]
                else:
                    meth = attr
                    original = getattr(owner, meth)
                    holders = [(mod, key) for mod in list(sys.modules.values())
                               if getattr(mod, "__name__", "").startswith("shrouddb")
                               for key, val in list(vars(mod).items())
                               if val is original]
            except (ImportError, AttributeError, KeyError, ValueError):
                self.missing.add(name)
                continue
            wrapper = self._wrap(original, name, count)
            targets.extend((holder, key, original, wrapper) for holder, key in holders)
        return targets

    def _wrap(self, fn, name, count):
        spans, ids, local, tracer = self.spans, self._ids, self._local, self

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
            spans.append((sid, parent, name, tracer.tag, threading.get_ident(),
                          t0, t1, count(args, out) if count else 0))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        for holder, key, _, wrapper in self._targets:
            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original, _ in self._targets:
            setattr(holder, key, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\ttag\tthread\tt0_ns\tt1_ns\tcount\n")
            for s in self.spans:
                fh.write("\t".join(map(str, s)) + "\n")


def _union_ns(intervals) -> int:
    """Length of the union of ``(t0, t1)`` intervals."""
    total, end = 0, None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def per_layer(tracer: Tracer, queries: list[dict], setup_tag, storage: str,
              extra: dict) -> dict:
    """Per-layer metrics from the spans of one traced run.

    ``queries`` holds one dict per traced query: its tag, true and
    fetched counts, and the bucket count of every ORAM it touched.
    ``setup_tag`` marks the spans of the traced deployment. ``storage``
    is the workload's storage spec; it names the backend class whose
    batches are the ``storage.backend_*`` and ``oram.buckets_*`` spans.
    ``extra`` supplies the metrics measured outside the spans (server
    CPU, log growth, tracing overhead) by name.
    """
    backend = f"storage.{BACKENDS[storage]}"
    by_tag: dict = {}
    children: dict = {}
    for s in tracer.spans:
        by_tag.setdefault(s[3], []).append(s)
        children.setdefault(s[1], []).append(s)

    def dur(spans, name) -> float:
        return sum(s[6] - s[5] for s in spans if s[2] == name)

    def count(spans, name) -> int:
        return sum(s[7] for s in spans if s[2] == name)

    def self_ns(span, extra_children=()) -> int:
        kids = [(c[5], c[6]) for c in children.get(span[0], ())]
        kids += [(c[5], c[6]) for c in extra_children]
        return span[6] - span[5] - _union_ns(kids)

    nq = len(queries)
    acc = dict.fromkeys(("engine_self", "wall", "batch_sum", "batch_self", "lookup",
                         "sanq", "open", "seal", "opened", "sealed", "get", "put",
                         "bget", "bput", "read", "written", "wire", "tree"), 0.0)
    stash_peak = 0
    for q in queries:
        spans = by_tag.get(q["tag"], [])
        roots = [s for s in spans if s[2] == "engine.query"]
        detached = [s for s in spans if s[1] == -1 and s[2] != "engine.query"]
        for r in roots:
            acc["engine_self"] += self_ns(r, detached)
        batches = [s for s in spans if s[2] == "oram.OramState.batch_access"]
        if batches:
            acc["wall"] += max(s[6] for s in batches) - min(s[5] for s in batches)
            acc["batch_sum"] += sum(s[6] - s[5] for s in batches)
            acc["batch_self"] += sum(self_ns(s) for s in batches)
            stash_peak = max(stash_peak, max(s[7] for s in batches))
        acc["lookup"] += dur(spans, "bptree.lookup")
        acc["sanq"] += dur(spans, "sanitizer.sanitizer_query")
        acc["open"] += dur(spans, "slots.open_slots")
        acc["seal"] += dur(spans, "slots.seal_slots")
        acc["opened"] += count(spans, "slots.open_slots")
        acc["sealed"] += count(spans, "slots.seal_slots")
        acc["get"] += dur(spans, "storage.CountingKvs.batch_get")
        acc["put"] += dur(spans, "storage.CountingKvs.batch_put")
        acc["bget"] += dur(spans, f"{backend}.batch_get")
        acc["bput"] += dur(spans, f"{backend}.batch_put")
        acc["read"] += count(spans, f"{backend}.batch_get")
        acc["written"] += count(spans, f"{backend}.batch_put")
        acc["wire"] += sum(dur(spans, f"storage.RemoteKvs.{m}")
                           for m in ("get", "put", "batch_get", "batch_put"))
        acc["tree"] += sum(q["touched_buckets"])

    true = sum(q["true"] for q in queries)
    fetched = sum(q["fetched"] for q in queries)
    setup_spans = by_tag.get(setup_tag, [])
    oram_load = [s for s in setup_spans
                 if s[2] in ("oram.oram_init", "oram.OramState.batch_access")]

    ms, us = 1e-6 / nq, 1e-3 / nq
    out = {
        "engine.self_ms_per_q": acc["engine_self"] * ms,
        "engine.fetch_wall_ms_per_q": acc["wall"] * ms,
        "engine.fetch_overlap": acc["batch_sum"] / acc["wall"] if acc["wall"] else None,
        "engine.true_per_q": true / nq,
        "engine.fetched_per_q": fetched / nq,
        "engine.pad_ratio": fetched / true if true else None,
        "bptree.lookup_us_per_q": acc["lookup"] * us,
        "bptree.create_index_ms": dur(setup_spans, "bptree.create_index") * 1e-6,
        "sanitizer.query_us_per_q": acc["sanq"] * us,
        "sanitizer.build_ms": dur(setup_spans, "sanitizer.build_range_sanitizer") * 1e-6,
        "crypto.partition_calls": sum(1 for s in setup_spans
                                      if s[2] == "crypto.partition_of"),
        "crypto.partition_ms": dur(setup_spans, "crypto.partition_of") * 1e-6,
        "oram.batch_ms_per_q": acc["batch_sum"] * ms,
        "oram.self_ms_per_q": acc["batch_self"] * ms,
        "oram.buckets_read_per_q": acc["read"] / nq,
        "oram.buckets_written_per_q": acc["written"] / nq,
        "oram.path_union_frac": acc["read"] / acc["tree"] if acc["tree"] else None,
        "oram.stash_peak": stash_peak,
        "oram.load_ms": sum(s[6] - s[5] for s in oram_load) * 1e-6,
        "slots.open_ms_per_q": acc["open"] * ms,
        "slots.seal_ms_per_q": acc["seal"] * ms,
        "slots.opened_per_q": acc["opened"] / nq,
        "slots.sealed_per_q": acc["sealed"] / nq,
        "storage.get_ms_per_q": acc["get"] * ms,
        "storage.put_ms_per_q": acc["put"] * ms,
        "storage.backend_get_ms_per_q": acc["bget"] * ms,
        "storage.backend_put_ms_per_q": acc["bput"] * ms,
        "wire.ms_per_q": acc["wire"] * ms,
    }
    out.update(extra)

    # a metric whose spans come from a name that is gone is absent, not 0
    needs = {
        "engine.": ["engine.query"],
        "engine.fetch": ["oram.OramState.batch_access"],
        "bptree.lookup": ["bptree.lookup"],
        "bptree.create": ["bptree.create_index"],
        "sanitizer.query": ["sanitizer.sanitizer_query"],
        "sanitizer.build": ["sanitizer.build_range_sanitizer"],
        "crypto.": ["crypto.partition_of"],
        "oram.batch": ["oram.OramState.batch_access"],
        "oram.self": ["oram.OramState.batch_access", "slots.open_slots", "slots.seal_slots"],
        "oram.stash": ["oram.OramState.batch_access"],
        "oram.load": ["oram.oram_init", "oram.OramState.batch_access"],
        "slots.open": ["slots.open_slots"],
        "slots.seal": ["slots.seal_slots"],
        "storage.get": ["storage.CountingKvs.batch_get"],
        "storage.put": ["storage.CountingKvs.batch_put"],
        "storage.backend_get": [f"{backend}.batch_get"],
        "storage.backend_put": [f"{backend}.batch_put"],
        "oram.buckets_read": [f"{backend}.batch_get"],
        "oram.buckets_written": [f"{backend}.batch_put"],
        "oram.path_union": [f"{backend}.batch_get"],
        "wire.": ["storage.RemoteKvs.batch_get"],
    }
    for prefix, names in needs.items():
        if any(n in tracer.missing for n in names):
            for key in out:
                if key.startswith(prefix):
                    out[key] = None
    return out
