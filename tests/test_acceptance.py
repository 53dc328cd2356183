"""End-to-end acceptance checks, one per shipping requirement.

Each test exercises a whole subsystem at a fixed scale and prints a
single pass/fail line so a full run reads as a checklist. These are
slower than the unit suites (a few minutes total); everything is
seeded, so a failure here reproduces exactly.
"""

import hashlib
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from audit import (
    audit_alpha_point_minimality,
    audit_alpha_range_minimality,
    audit_obliviousness,
)
from shrouddb.bench import ExperimentSpec, FixedClock, run_experiment
from shrouddb.crypto import keygen
from shrouddb.data import Database, Record, point_query, range_query
from shrouddb.engine import (
    EngineConfig,
    compute_gamma,
    query,
    register_attribute,
    setup,
    spent_budget,
)
from shrouddb.oram import (
    OramConfig,
    default_stash_limit,
    oram_init,
    read_op,
    stash_bound,
    write_op,
)
from shrouddb.rng import derive_stream
from shrouddb.sanitizer import (
    alpha_point,
    alpha_range,
    build_range_sanitizer,
    canonical_cover,
    compose,
    sanitizer_query,
    tree_nodes_count,
)
from shrouddb.storage import MemoryKvs

LN2 = math.log(2)


@pytest.fixture
def report(request):
    """Prints one live pass/fail line per criterion, then asserts it."""
    capture = request.config.pluginmanager.getplugin("capturemanager")

    def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
        line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        with capture.global_and_fixture_disabled():
            print(f"\n{line}", flush=True)
        assert ok, line

    return _line


def _deploy_oram(capacity, payload, seed, store=None):
    cfg = OramConfig(capacity=capacity, block_payload=payload)
    return oram_init(cfg, keygen(128, derive_stream(seed, "key")),
                     store if store is not None else MemoryKvs(),
                     derive_stream(seed, "rng"))


# -- 1: exact answers across datasets, sizes and deployments ------------------

C1_DOMAIN = 1000
C1_CONFIGS = [("single", 1), ("gamma", 1), ("gamma", 4), ("gamma", 8),
              ("no-gamma", 1), ("no-gamma", 4), ("no-gamma", 8)]


def _c1_keys(shape: str, n: int) -> list[int]:
    rng = derive_stream(31, f"{shape}:{n}")
    if shape == "uniform":
        return [rng.randrange(C1_DOMAIN) for _ in range(n)]
    if shape == "skewed":
        # 80% of the mass in the bottom 5% of the domain
        return [rng.randrange(50) if rng.random() < 0.8
                else rng.randrange(50, C1_DOMAIN) for _ in range(n)]
    pool = [rng.randrange(C1_DOMAIN) for _ in range(12)]
    return [rng.choice(pool) for _ in range(n)]


def _c1_queries(shape: str, n: int):
    rng = derive_stream(37, f"queries:{shape}:{n}")
    out = []
    for _ in range(100):
        a = rng.randrange(C1_DOMAIN)
        b = min(C1_DOMAIN - 1, a + rng.randrange(1, 13) - 1)
        out.append(range_query(a, b))
    out.extend(point_query(rng.randrange(C1_DOMAIN)) for _ in range(100))
    return out


def test_c01_exact_correctness(report):
    t0 = time.perf_counter()
    runs = mismatches = failed = answered = 0
    for shape in ("uniform", "skewed", "duplicate-heavy"):
        for n in (1000, 10_000):
            keys = _c1_keys(shape, n)
            db = Database([
                Record(i, k, hashlib.shake_128(str(i).encode()).digest(32))
                for i, k in enumerate(keys)])
            queries = _c1_queries(shape, n)
            expected = [[i for i, k in enumerate(keys) if q.a <= k <= q.b]
                        for q in queries]
            for mode, m in C1_CONFIGS:
                cfg = EngineConfig(domain=C1_DOMAIN, record_size=32,
                                   m=m, mode=mode)
                state = setup(db, cfg, MemoryKvs(), seed=runs)
                try:
                    for q, want in zip(queries, expected):
                        res = query(state, q)
                        failed += res.failed
                        answered += 1
                        if [r.rid for r in res.records] != want:
                            mismatches += 1
                finally:
                    state.close()
                runs += 1
    dt = time.perf_counter() - t0
    report(1, "exact-correctness", mismatches == 0 and dt < 600,
            f"{runs} deployments, {answered} queries, {mismatches} mismatches, "
            f"{failed} failed, {dt:.0f}s")


# -- 2: noise parameter formulas ------------------------------------------------

def test_c02_noise_parameter_formulas(report):
    gamma = compute_gamma(8, 2.0 ** -20, 1000)
    minimal = [audit_alpha_point_minimality(LN2, 2.0 ** -20, 10 ** 4),
               audit_alpha_range_minimality(LN2, 2.0 ** -20, 4096, 16)]
    ok = (alpha_point(LN2, 2.0 ** -20, 10 ** 4) == 33
          and alpha_range(LN2, 2.0 ** -20, 4096, 16) == 94
          and tree_nodes_count(4096, 16) == 4369
          and abs(gamma - 0.5768) <= 1e-4
          and all(r.passed for r in minimal))
    report(2, "noise-parameter-formulas", ok,
            f"alpha_point=33 alpha_range=94 nodes=4369 gamma={gamma:.6f}, "
            f"minimality audits pass")


# -- 3: sanitizer error guarantee -----------------------------------------------

def test_c03_sanitizer_guarantee(report):
    N, k, beta, trials = 256, 16, 0.01, 10_000
    alpha = alpha_range(LN2, beta, N, k)
    data_rng = derive_stream(5, "data")
    keys = [data_rng.randrange(N) for _ in range(500)]
    qr = derive_stream(6, "queries")
    negative = outside = 0
    for i in range(trials):
        ds = build_range_sanitizer(keys, N, k, LN2, beta,
                                   derive_stream(777, f"build:{i}"))
        a = qr.randrange(N)
        b = min(N - 1, a + qr.randrange(32))
        true = sum(1 for v in keys if a <= v <= b)
        c = sanitizer_query(ds, a, b)
        cover = len(canonical_cover(a, b, 2, k))
        if c < true:
            negative += 1
        elif c - true > 2 * alpha * cover:
            outside += 1
    in_band = trials - negative - outside
    ok = negative <= 0.02 * trials and in_band >= 0.99 * trials
    report(3, "sanitizer-guarantee", ok,
            f"alpha={alpha}, {negative}/{trials} undershoots, "
            f"{in_band}/{trials} within [0, 2*alpha*|cover|]")


# -- 4: access pattern indistinguishability ---------------------------------------

def test_c04_obliviousness(report, leaf_kvs):
    accesses, cap = 100_000, 1024

    def run_program(seed, hot, remap=True):
        """The leaves the server saw read, recorded at the storage boundary."""
        store = leaf_kvs()
        st = _deploy_oram(cap, 16, seed, store=store)
        if not remap:  # the mutant: address 7 never leaves its first leaf
            st._draw_leaf = lambda: st.pos[7]
        rng = derive_stream(seed, "prog")
        for _ in range(accesses):
            st.access(read_op(7 if hot else rng.randrange(cap)))
        return store.leaves

    uniform = run_program(100, hot=False)
    hot = run_program(101, hot=True)
    pinned = run_program(102, hot=True, remap=False)
    real = audit_obliviousness(uniform, hot)
    mutant = audit_obliviousness(uniform, pinned)
    ok = real.passed and not mutant.passed
    report(4, "oblivious-access-pattern", ok,
            f"p={real.statistic:.4f} for opposite programs, "
            f"mutant p={mutant.statistic:.3g} rejected")


# -- 5: stash stays within its tail bound ------------------------------------------

def test_c05_stash_bound(report):
    limit = default_stash_limit()          # least x with 14*0.6002^x <= 2^-32
    st = _deploy_oram(256, 16, 200)
    for a in range(256):
        st.access(write_op(a, bytes(16)))
    rng = derive_stream(200, "prog")
    for _ in range(1_000_000):
        a = rng.randrange(256)
        if rng.random() < 0.5:
            st.access(write_op(a, rng.randbytes(16)))
        else:
            st.access(read_op(a))
    point = stash_bound(50)
    ok = (st.stash_peak <= limit and not st.overflowed
          and abs(point - 1.15e-10) <= 1e-12)
    report(5, "stash-bound", ok,
            f"peak {st.stash_peak} <= {limit} over 1e6 accesses, "
            f"bound(50)={point:.4e}")


# -- 6: batched accesses match sequential, two round trips per query ----------------

def test_c06_batching_contract(server, report):
    cap = 64
    seq = _deploy_oram(cap, 16, 300)
    bat = _deploy_oram(cap, 16, 300)
    prog_rng = derive_stream(301, "programs")
    programs = 1000
    agree = 0
    for _ in range(programs):
        ops = []
        for _ in range(prog_rng.randrange(1, 9)):
            a = prog_rng.randrange(cap)
            if prog_rng.random() < 0.5:
                ops.append(write_op(a, prog_rng.randbytes(16)))
            else:
                ops.append(read_op(a))
        agree += [seq.access(op) for op in ops] == bat.batch_access(ops)
    outputs_match = agree == programs

    host, port = server
    rng = derive_stream(303, "data")
    db = Database([Record(i, rng.randrange(500), rng.randbytes(32))
                   for i in range(2000)])
    cfg = EngineConfig(domain=500, record_size=32, m=4, mode="gamma")
    trips_ok = True
    with setup(db, cfg, f"remote={host}:{port}", seed=5) as state:
        for i in range(15):
            a = rng.randrange(490)
            res = query(state, range_query(a, a + 9))
            touched = sum(1 for c in res.per_oram_requests if c > 0)
            trips_ok &= res.roundtrips == 2 * touched
    ok = outputs_match and trips_ok
    report(6, "batching-contract", ok,
            f"{agree}/{programs} programs agree, "
            f"2 round trips per touched store over loopback")


# -- 7: observable volume ignores payload placement ----------------------------------

def test_c07_volume_hiding_shape(report):
    rng = derive_stream(400, "keys")
    n = 2000
    keys = [rng.randrange(300) for _ in range(n)]
    payloads = [rng.randbytes(32) for _ in range(n)]
    perm = list(range(n))
    derive_stream(401, "perm").shuffle(perm)
    queries = [range_query(a, a + 7) for a in range(0, 290, 10)]

    def volumes(assignment):
        db = Database([Record(i, keys[i], assignment[i]) for i in range(n)])
        cfg = EngineConfig(domain=300, record_size=32, m=4, mode="gamma")
        with setup(db, cfg, MemoryKvs(), seed=11) as state:
            return [query(state, q).fetched_count for q in queries]

    straight = volumes(payloads)
    shuffled = volumes([payloads[perm[i]] for i in range(n)])
    ok = straight == shuffled
    report(7, "volume-hiding-shape", ok,
            f"{len(queries)} fetched_count observations identical "
            f"under permuted payloads")


# -- 8: equal per-store quotas, budget composition rules -------------------------------

def test_c08_uniformity_and_budgets(report):
    rng = derive_stream(500, "data")
    n = 3000
    col = [rng.randrange(200) for _ in range(n)]
    db = Database([Record(i, rng.randrange(200), rng.randbytes(24))
                   for i in range(n)], {"aux": col})
    cfg = EngineConfig(domain=200, record_size=24, m=8, mode="gamma",
                       epsilon=LN2 / 2, budget=LN2)
    uniform = True
    with setup(db, cfg, MemoryKvs(), seed=6) as state:
        for a in range(0, 190, 5):
            res = query(state, range_query(a, a + 4))
            uniform &= len(set(res.per_oram_requests)) == 1
        register_attribute(state, "aux", LN2 / 2)
        spent = spent_budget(state)
    ok = (uniform
          and spent == LN2
          and compose([LN2 / 2, LN2 / 2], disjoint=False) == LN2
          and compose([0.3, 0.5, 0.4], disjoint=True) == 0.5)
    report(8, "uniform-quotas-and-budgets", ok,
            f"equal per-store requests in every query, "
            f"ln2/2 + ln2/2 -> {spent:.6f}, disjoint -> max")


# -- 9: cheaper than the download-everything baseline ----------------------------------

def test_c09_scan_crossover(report):
    base = dict(n=10_000, domain=400, record_size=4096, selectivity=0.005,
                queries=8, seed=42)
    eng = run_experiment(ExperimentSpec(mode="gamma", m=4, **base),
                         clock=FixedClock())
    scan = run_experiment(ExperimentSpec(mode="linear-scan", **base),
                          clock=FixedClock())
    e, s = int(eng.summary["bytes_down"]), int(scan.summary["bytes_down"])
    ratio = e / s
    ok = eng.answers == scan.answers and e < s
    report(9, "scan-crossover", ok,
            f"n=1e4 x 4KiB, sel 0.5%, m=4: {e / base['queries'] / 2**20:.1f} vs "
            f"{s / base['queries'] / 2**20:.1f} MiB per query, ratio {ratio:.3f}")


# -- 10: a seed pins every byte of the metrics ------------------------------------------

def test_c10_determinism(tmp_path, report):
    def run(out: Path):
        cmd = [sys.executable, "-m", "shrouddb", "run",
               "--mode", "gamma", "--n", "600", "--domain", "300",
               "--record-size", "32", "--selectivity", "0.02",
               "--queries", "8", "--orams", "2", "--seed", "9",
               "--fixed-clock", "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    a = run(tmp_path / "a.csv")
    b = run(tmp_path / "b.csv")
    ok = a == b and len(a) > 0
    report(10, "seeded-determinism", ok,
            f"two CLI runs, {len(a)} byte metrics CSV identical")
