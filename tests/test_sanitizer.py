import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from shrouddb.errors import DataError, ParameterError, QueryError
from shrouddb.rng import derive_stream
from shrouddb.sanitizer import (
    alpha_point,
    alpha_range,
    build_point_sanitizer,
    build_range_sanitizer,
    canonical_cover,
    compose,
    laplace_sample,
    sanitizer_query,
    tree_nodes_count,
)

LN2 = math.log(2)
LN3 = math.log(3)


class MedianRng(random.Random):
    """random() pinned to 0.5: the inverse CDF returns the mean exactly."""

    def random(self):
        return 0.5


# -- parameter formulas (frozen against the closed forms) --------------------

def test_alpha_point_values():
    assert alpha_point(LN2, 2.0 ** -20, 10 ** 4) == 33
    assert alpha_point(1.0, 2.0 ** -20, 10 ** 4) == 23
    assert alpha_point(LN2, 0.5, 1) == 0


def test_alpha_point_guarantee_is_tight():
    # smallest integer a with (1 - exp(-a*eps)/2)^N >= 1 - beta
    for eps, beta, N in [(LN2, 2.0 ** -20, 10 ** 4), (1.0, 2.0 ** -20, 10 ** 4),
                         (0.25, 0.01, 333)]:
        a = alpha_point(eps, beta, N)
        holds = lambda x: (1 - math.exp(-x * eps) / 2) ** N >= 1 - beta
        assert holds(a)
        if a > 0:
            assert not holds(a - 1)


def test_tree_nodes_count_values():
    assert tree_nodes_count(16, 16) == 17
    assert tree_nodes_count(256, 16) == 273
    assert tree_nodes_count(4096, 16) == 4369
    assert tree_nodes_count(16, 4) == 21
    assert tree_nodes_count(1, 16) == 1
    # any other N keeps only the nodes wholly inside [0, N): no root
    assert tree_nodes_count(100, 16) == 6 + 100
    assert tree_nodes_count(300, 4) == 1 + 4 + 18 + 75 + 300
    assert tree_nodes_count(1000, 16) == 1065
    assert tree_nodes_count(100_000, 16) == 106_665


def test_tree_nodes_count_validation():
    with pytest.raises(ParameterError):
        tree_nodes_count(16, 1)
    with pytest.raises(ParameterError):
        tree_nodes_count(0, 2)


def test_alpha_range_values():
    assert alpha_range(LN2, 2.0 ** -20, 4096, 16) == 94
    assert alpha_range(LN3, 2.0 ** -20, 4096, 16) == 59
    assert alpha_range(LN2, 2.0 ** -20, 256, 16) == 55
    assert alpha_range(LN2, 0.5, 16, 16) == 4


def test_alpha_range_guarantee_is_tight():
    for eps, beta, N, k in [(LN2, 2.0 ** -20, 4096, 16), (LN3, 2.0 ** -20, 4096, 16)]:
        a = alpha_range(eps, beta, N, k)
        nodes = tree_nodes_count(N, k)
        h = round(math.log(N, k))
        holds = lambda x: (1 - math.exp(-x * eps / h) / 2) ** nodes >= 1 - beta
        assert holds(a)
        assert not holds(a - 1)


def test_alpha_range_needs_one_level():
    with pytest.raises(ParameterError):
        alpha_range(LN2, 0.5, 1, 16)


def test_parameter_validation():
    for bad in [0.0, -1.0, math.nan, math.inf]:
        with pytest.raises(ParameterError, match="epsilon must be positive"):
            alpha_point(bad, 0.5, 4)
    for bad in [0.0, 1.0, -0.5, math.nan, math.inf]:
        with pytest.raises(ParameterError, match=r"beta must be in \(0, 1\)"):
            alpha_point(LN2, bad, 4)
    with pytest.raises(ParameterError):
        laplace_sample(0.0, 0.0, random.Random(1))


def test_unresolvable_bias_is_a_parameter_error():
    with pytest.raises(ParameterError, match="beta"):
        alpha_range(LN2, 1e-300, 4096, 16)  # 1 - beta rounds to 1
    with pytest.raises(ParameterError, match="epsilon"):
        alpha_point(1e-320, 0.01, 10)  # the bias overflows to infinity


def test_builders_refuse_non_integer_keys():
    with pytest.raises(DataError, match="key 1.5"):
        build_point_sanitizer([0, 1.5], 4, LN2, 0.5, MedianRng())
    with pytest.raises(DataError, match="key -1"):
        build_range_sanitizer([0, -1], 4, 2, LN2, 0.5, MedianRng())


# -- the Laplace sampler ------------------------------------------------------

def test_laplace_median_is_mean():
    assert laplace_sample(5.0, 2.0, MedianRng()) == 5.0


def test_laplace_moments():
    r = random.Random(3)
    xs = [laplace_sample(0.0, 1.0, r) for _ in range(200_000)]
    assert sum(xs) / len(xs) == pytest.approx(0.0, abs=0.02)
    assert sum(x * x for x in xs) / len(xs) == pytest.approx(2.0, rel=0.05)


def test_laplace_deterministic_under_seed():
    a = [laplace_sample(0, 1, random.Random(9)) for _ in range(5)]
    b = [laplace_sample(0, 1, random.Random(9)) for _ in range(5)]
    assert a == b


# -- builders ----------------------------------------------------------------

def test_point_sanitizer_median_stub():
    ph = build_point_sanitizer([2, 2, 3], 4, LN2, 0.5, MedianRng())
    assert ph.params.alpha == 2
    assert ph.bins.tolist() == [0, 0, 2, 1]  # unbiased: the true counts
    assert [sanitizer_query(ph, v, v) for v in range(4)] == [2, 2, 4, 3]  # plus alpha


def test_point_sanitizer_rejects_out_of_domain():
    with pytest.raises(DataError):
        build_point_sanitizer([4], 4, LN2, 0.5, MedianRng())


def test_tree_sanitizer_median_stub():
    tr = build_range_sanitizer([0, 0, 1, 3], 4, 2, LN2, 0.5, MedianRng())
    t = tr.bias
    assert t[1] == tr.params.alpha == alpha_range(LN2, 0.25, 4, 2)
    # BFS: root(4), level one (3, 1), leaves (2, 1, 0, 1), unbiased
    assert tr.counts.tolist() == [4, 3, 1, 2, 1, 0, 1]
    assert sanitizer_query(tr, 1, 2) == 1 + t[2]  # two leaves, one bias for the sum
    assert sanitizer_query(tr, 0, 3) == 4 + t[1]  # root alone covers everything
    assert sanitizer_query(tr, 2, 2) == t[1]


def test_tree_over_a_domain_that_is_no_power_of_the_fanout():
    tr = build_range_sanitizer([0, 1, 2, 4, 4, 5], 6, 2, LN2, 0.5, MedianRng())
    t = tr.bias
    # height 3; levels of 6 // 8, 6 // 4, 6 // 2 and 6 nodes: no root, and
    # the node over [4, 7] is not stored since it reaches past 6
    assert tr.height == 3
    assert tr.counts.tolist() == [3, 2, 1, 3, 1, 1, 1, 0, 2, 1]
    assert canonical_cover(0, 5, 3, 2) == [(1, 0), (2, 2)]  # [0, 3] and [4, 5]
    assert sanitizer_query(tr, 0, 5) == 6 + t[2]
    assert sanitizer_query(tr, 4, 5) == 3 + t[1]


def test_tree_noise_independent_per_node():
    r = random.Random(4)
    tr = build_range_sanitizer([0] * 50, 16, 4, 1.0, 0.01, r)
    # root and the leaf-0 chain all contain the same true count but
    # independent noise; they almost surely differ
    assert len({tr.counts[0], tr.counts[1], tr.counts[5]}) > 1


def test_overcount_never_negative():
    r = random.Random(8)
    for _ in range(50):
        tr = build_range_sanitizer([r.randrange(16) for _ in range(30)],
                                   16, 4, LN2, 0.01, r)
        assert all(sanitizer_query(tr, a, b) >= 0 for a in range(16) for b in range(a, 16))


def test_clamp_counter():
    # at beta > 0.5 with one bin the bias collapses to zero, so an empty
    # bin's counter goes negative whenever its noise does; its answer
    # stops at zero, and the counter itself is kept as drawn
    r = random.Random(2)
    negative = 0
    for _ in range(200):
        ph = build_point_sanitizer([], 1, LN2, 0.6, r)
        assert ph.params.alpha == 0
        assert sanitizer_query(ph, 0, 0) == max(0, math.ceil(ph.bins[0]))
        negative += ph.bins[0] < 0
    assert 0 < negative < 200  # some draws go below zero, not all


class ZeroOnceRng(random.Random):
    """A seeded stream whose ``at``-th ``random()`` call returns 0.0."""

    def __init__(self, seed, at):
        super().__init__(seed)
        self.calls, self.at = 0, at

    def random(self):
        self.calls += 1
        return 0.0 if self.calls == self.at else super().random()


def reference_noisy(true_counts, scale, rng):
    """The per-counter loop: one ``laplace_sample`` per counter in order,
    neither rounded nor clamped."""
    return [laplace_sample(c, scale, rng) for c in true_counts]


def bfs_counts(keys, N, k):
    """The true count of every node wholly inside ``[0, N)``, breadth-first:
    each level up sums whole groups of ``k`` and drops a partial last one."""
    levels = [[sum(1 for v in keys if v == i) for i in range(N)]]
    while k ** (len(levels) - 1) < N:
        below = levels[0]
        levels.insert(0, [sum(below[i:i + k]) for i in range(0, len(below) - k + 1, k)])
    return [c for level in levels for c in level]


# the vector draw computes each noise in another order than the loop; a
# few float64 ulps of a count below 2^10 is the tolerance
ULPS = dict(rel=0, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("zero_at", [None, 1, 17])
def test_builders_match_per_counter_reference(seed, zero_at):
    def rng():
        return random.Random(seed) if zero_at is None else ZeroOnceRng(seed, zero_at)

    r = random.Random(100 + seed)
    for N, k in [(16, 2), (20, 3)]:
        keys = [r.randrange(N) for _ in range(10)]
        tr = build_range_sanitizer(keys, N, k, LN2, 0.5, rng())
        want = reference_noisy(bfs_counts(keys, N, k), tr.height / LN2, rng())
        assert len(tr.counts) == len(want) == tree_nodes_count(N, k)
        assert tr.counts.tolist() == pytest.approx(want, **ULPS)

    ph = build_point_sanitizer(keys, N, LN2, 0.5, rng())
    assert ph.bins.tolist() == pytest.approx(
        reference_noisy([keys.count(v) for v in range(N)], 1 / LN2, rng()), **ULPS)


def test_builders_match_reference_with_bias():
    r = random.Random(3)
    keys = [r.randrange(256) for _ in range(500)]
    tr = build_range_sanitizer(keys, 256, 4, LN2, 2.0 ** -20, random.Random(8))
    assert tr.params.alpha > 0
    want = reference_noisy(bfs_counts(keys, 256, 4), tr.height / LN2, random.Random(8))
    assert tr.counts.tolist() == pytest.approx(want, **ULPS)
    for a, b in [(0, 255), (3, 200), (17, 17), (64, 127)]:
        cover = canonical_cover(a, b, tr.height, 4)
        total = sum(want[tr.node_index(lv, i)] for lv, i in cover)
        assert sanitizer_query(tr, a, b) == max(0, math.ceil(total + tr.bias[len(cover)]))


# -- canonical cover ----------------------------------------------------------

def test_cover_worked_example():
    assert canonical_cover(1, 8, 2, 4) == [(2, 1), (2, 2), (2, 3), (1, 1), (2, 8)]


def test_cover_full_domain_is_root():
    assert canonical_cover(0, 15, 2, 4) == [(0, 0)]


def test_cover_single_leaf():
    assert canonical_cover(7, 7, 3, 2) == [(3, 7)]


def _expand(cover, h, k):
    leaves = []
    for lv, i in cover:
        span = k ** (h - lv)
        leaves.extend(range(i * span, (i + 1) * span))
    return leaves


def _is_aligned(lv, i, h, k):
    return True  # any (level, index) node is aligned by construction


def test_cover_exact_and_minimal_exhaustive():
    """Against brute force: the greedy cover tiles the range exactly and
    no aligned cover uses fewer nodes."""
    for k, h in [(2, 3), (4, 2), (3, 2)]:
        N = k ** h
        # all nodes as (level, index) -> leaf interval
        nodes = [(lv, i) for lv in range(h + 1) for i in range(k ** lv)]
        for a in range(N):
            for b in range(a, N):
                cover = canonical_cover(a, b, h, k)
                got = _expand(cover, h, k)
                assert got == list(range(a, b + 1)), (a, b, cover)
                # minimality: brute force the smallest disjoint exact tiling
                best = _min_tiling(a, b, h, k)
                assert len(cover) == best, (a, b, cover, best)


def _min_tiling(a, b, h, k, memo=None):
    if memo is None:
        memo = {}
    if a > b:
        return 0
    if (a, b) in memo:
        return memo[(a, b)]
    best = None
    # choose the node that covers leaf a and starts at a
    for lv in range(h + 1):
        span = k ** (h - lv)
        if a % span == 0 and a + span - 1 <= b:
            rest = _min_tiling(a + span, b, h, k, memo)
            cand = 1 + rest
            if best is None or cand < best:
                best = cand
    memo[(a, b)] = best
    return best


def test_cover_validation():
    with pytest.raises(ParameterError):
        canonical_cover(3, 2, 2, 4)
    with pytest.raises(ParameterError):
        canonical_cover(0, 16, 2, 4)


# -- queries -------------------------------------------------------------------

def test_point_histogram_rejects_ranges():
    ph = build_point_sanitizer([1], 4, LN2, 0.5, MedianRng())
    assert sanitizer_query(ph, 1, 1) == 1 + ph.params.alpha
    with pytest.raises(QueryError):
        sanitizer_query(ph, 0, 1)
    with pytest.raises(QueryError):
        sanitizer_query(ph, 4, 4)


def test_tree_rejects_out_of_domain():
    tr = build_range_sanitizer([], 16, 4, LN2, 0.5, MedianRng())
    with pytest.raises(QueryError):
        sanitizer_query(tr, 0, 16)
    with pytest.raises(QueryError):
        sanitizer_query(tr, -1, 3)


@settings(max_examples=60)
@given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 2**31))
def test_tree_query_equals_cover_sum(a, b, seed):
    a, b = min(a, b), max(a, b)
    r = random.Random(seed)
    keys = [r.randrange(64) for _ in range(r.randrange(50))]
    tr = build_range_sanitizer(keys, 64, 4, 1.0, 0.1, r)
    cover = canonical_cover(a, b, tr.height, 4)
    total = sum(tr.counts[tr.node_index(lv, i)] for lv, i in cover)
    assert sanitizer_query(tr, a, b) == max(0, math.ceil(total + tr.bias[len(cover)]))


def test_median_stub_overcount_exact():
    """With noise pinned at the mean, every answer overcounts by exactly
    t(c), the bias of a cover of c nodes."""
    keys = [3, 5, 5, 9, 14]
    tr = build_range_sanitizer(keys, 16, 4, LN2, 0.5, MedianRng())
    for lo, hi in [(0, 15), (3, 5), (5, 9), (14, 14), (0, 7)]:
        true = sum(1 for v in keys if lo <= v <= hi)
        cover = canonical_cover(lo, hi, tr.height, 4)
        assert sanitizer_query(tr, lo, hi) == true + tr.bias[len(cover)]


@pytest.mark.parametrize("N,k", [(300, 4), (1000, 16)])
def test_every_cover_reads_stored_counters_exhaustive(N, k):
    """Every range of ``[0, N)``: its cover names only nodes wholly inside
    the domain, which the array stores, and with zero noise its answer is
    the true count plus t(c)."""
    keys = np.random.default_rng(N).integers(0, N, 3 * N)
    tr = build_range_sanitizer(keys, N, k, LN2, 0.01, MedianRng())
    assert len(tr.counts) == tree_nodes_count(N, k)
    sizes = [N // k ** (tr.height - lv) for lv in range(tr.height + 1)]
    # each level's counters follow the levels above it
    assert [tr.node_index(lv, 0) for lv in range(len(sizes))] == [
        sum(sizes[:lv]) for lv in range(len(sizes))]
    below = np.concatenate([[0], np.cumsum(np.bincount(keys, minlength=N))]).tolist()
    for a in range(N):
        for b in range(a, N):
            cover = canonical_cover(a, b, tr.height, k)
            assert all(0 <= i < sizes[lv] for lv, i in cover), (a, b, cover)
            assert tr.query(a, b) == below[b + 1] - below[a] + tr.bias[len(cover)]


# -- the per-range bias t(c) -------------------------------------------------------

def chernoff_log(c, scale, t):
    """Log of the least Chernoff bound on P[sum of c Laplace(scale) < -t],
    minimised numerically over x = scale * s in (0, 1):
    -c ln(1 - x^2) - x t / scale."""
    res = minimize_scalar(lambda x: -c * math.log1p(-x * x) - x * t / scale,
                          bounds=(0.0, 1.0 - 1e-15), method="bounded",
                          options={"xatol": 1e-13})
    return min(res.fun, 0.0)  # x -> 0 gives the trivial bound 1


@pytest.mark.parametrize("N,k,beta", [(256, 16, 0.01), (300, 4, 0.01),
                                      (1000, 16, 2.0 ** -20), (100_000, 16, 2.0 ** -20)])
def test_range_bias_is_the_least_chernoff_bias(N, k, beta):
    tr = build_range_sanitizer([], N, k, LN2, beta, MedianRng())
    t, h = tr.bias, tr.height
    assert t[1] == tr.params.alpha == alpha_range(LN2, beta / 2, N, k)
    log_target = math.log(beta / 2) - math.log(N * (N + 1) / 2)
    binding = 0
    for c in range(2, len(t)):
        assert 0 < t[c] <= c * t[1]
        assert t[c - 1] <= t[c]
        if t[c] < c * t[1]:  # the Chernoff bound sets it: it holds, one less fails
            binding += 1
            assert chernoff_log(c, h / LN2, t[c]) <= log_target + 1e-9
            assert chernoff_log(c, h / LN2, t[c] - 1) > log_target
        else:
            assert chernoff_log(c, h / LN2, c * t[1] - 1) > log_target
    assert binding >= len(t) - 3  # the sum bound wins from small covers on


def test_range_bias_values_at_the_benchmark_shapes():
    range_shape = build_range_sanitizer([], 1000, 16, LN2, 2.0 ** -20, MedianRng())
    assert (range_shape.bias[1], range_shape.bias[5]) == (91, 173)
    point_shape = build_range_sanitizer([], 100_000, 16, LN2, 2.0 ** -20, MedianRng())
    assert point_shape.bias[1] == 184


def _ranges_by_cover_size(N, k, h):
    sizes = {}
    for a in range(N):
        for b in range(a, N):
            sizes.setdefault(len(canonical_cover(a, b, h, k)), []).append((a, b))
    return sizes


@pytest.mark.parametrize("N,k", [(256, 16), (300, 4)])
def test_range_bias_guarantee(N, k):
    """c03 for the per-range bias: over 10^4 fresh builds at beta = 0.01,
    each asked one range of cover size 1, 2, 5 and the largest, the share
    of builds with any undershoot stays at or below beta."""
    beta, builds = 0.01, 10_000
    data = derive_stream(5, "data")
    keys = [data.randrange(N) for _ in range(500)]
    below = np.concatenate([[0], np.cumsum(np.bincount(keys, minlength=N))]).tolist()
    h = build_range_sanitizer(keys, N, k, LN2, beta, MedianRng()).height
    by_size = _ranges_by_cover_size(N, k, h)
    groups = [by_size[c] for c in (1, 2, 5, max(by_size))]
    pick = derive_stream(6, "queries")
    undershot = 0
    for i in range(builds):
        tr = build_range_sanitizer(keys, N, k, LN2, beta, derive_stream(777, f"build:{i}"))
        ranges = [pick.choice(g) for g in groups]
        undershot += any(tr.query(a, b) < below[b + 1] - below[a] for a, b in ranges)
    assert undershot <= beta * builds


# -- composition ---------------------------------------------------------------

def test_compose_sum_and_max():
    assert compose([LN2 / 2, LN2 / 2], disjoint=False) == LN2
    assert compose([0.3, 0.7, 0.5], disjoint=True) == 0.7
    assert compose([0.9], disjoint=True) == 0.9


def test_compose_validation():
    with pytest.raises(ParameterError):
        compose([], disjoint=False)
    for bad in [-0.1, math.nan, math.inf]:
        with pytest.raises(ParameterError, match="epsilon must be positive"):
            compose([0.5, bad], disjoint=True)

