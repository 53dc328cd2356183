import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from shrouddb.errors import DataError, ParameterError, QueryError
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


def test_tree_nodes_count_validation():
    with pytest.raises(ParameterError):
        tree_nodes_count(100, 16)  # not a power of the fanout
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
    assert ph.bins == [2, 2, 4, 3]  # true counts 0,0,2,1 plus alpha
    assert ph.clamped == 0


def test_point_sanitizer_rejects_out_of_domain():
    with pytest.raises(DataError):
        build_point_sanitizer([4], 4, LN2, 0.5, MedianRng())


def test_tree_sanitizer_median_stub():
    tr = build_range_sanitizer([0, 0, 1, 3], 4, 2, LN2, 0.5, MedianRng())
    a = tr.params.alpha
    # BFS: root(4), level one (3, 1), leaves (2, 1, 0, 1), each plus alpha
    assert tr.counts == [4 + a, 3 + a, 1 + a, 2 + a, 1 + a, a, 1 + a]
    assert sanitizer_query(tr, 1, 2) == (1 + a) + a
    assert sanitizer_query(tr, 0, 3) == 4 + a  # root alone covers everything
    assert sanitizer_query(tr, 2, 2) == a


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
        assert all(c >= 0 for c in tr.counts)


def test_clamp_counter():
    # at beta > 0.5 with one bin the bias collapses to zero, so an empty
    # bin clamps whenever its noise draw lands below -1/2
    r = random.Random(2)
    clamped = 0
    for _ in range(200):
        ph = build_point_sanitizer([], 1, LN2, 0.6, r)
        assert ph.params.alpha == 0
        assert all(b >= 0 for b in ph.bins)
        clamped += ph.clamped
    assert 0 < clamped < 200  # some draws clamp, not all


class ZeroOnceRng(random.Random):
    """A seeded stream whose ``at``-th ``random()`` call returns 0.0."""

    def __init__(self, seed, at):
        super().__init__(seed)
        self.calls, self.at = 0, at

    def random(self):
        self.calls += 1
        return 0.0 if self.calls == self.at else super().random()


def reference_noisy(true_counts, alpha, scale, rng):
    """The per-counter loop: one ``laplace_sample`` per counter in order,
    rounded half away from zero, clamped at zero."""
    out, clamped = [], 0
    for c in true_counts:
        x = laplace_sample(c + alpha, scale, rng)
        r = math.floor(x + 0.5) if x >= 0.0 else math.ceil(x - 0.5)
        out.append(max(r, 0))
        clamped += r < 0
    return out, clamped


def bfs_counts(keys, N, k):
    levels = [[sum(1 for v in keys if v == i) for i in range(N)]]
    while len(levels[0]) > 1:
        below = levels[0]
        levels.insert(0, [sum(below[i:i + k]) for i in range(0, len(below), k)])
    return [c for level in levels for c in level]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("zero_at", [None, 1, 17])
def test_builders_match_per_counter_reference(seed, zero_at):
    def rng():
        return random.Random(seed) if zero_at is None else ZeroOnceRng(seed, zero_at)

    r = random.Random(100 + seed)
    N, k = 16, 2
    beta = 1.0 - 1e-10  # zero bias at this size, so empty counters clamp often
    keys = [r.randrange(N) for _ in range(10)]

    tr = build_range_sanitizer(keys, N, k, LN2, beta, rng())
    assert tr.params.alpha == 0 and tr.clamped > 0
    assert (tr.counts, tr.clamped) == reference_noisy(
        bfs_counts(keys, N, k), 0, tr.height / LN2, rng())

    ph = build_point_sanitizer(keys, N, LN2, beta, rng())
    assert ph.params.alpha == 0 and ph.clamped > 0
    assert (ph.bins, ph.clamped) == reference_noisy(
        [keys.count(v) for v in range(N)], 0, 1 / LN2, rng())


def test_builders_match_reference_with_bias():
    r = random.Random(3)
    keys = [r.randrange(256) for _ in range(500)]
    tr = build_range_sanitizer(keys, 256, 4, LN2, 2.0 ** -20, random.Random(8))
    assert tr.params.alpha > 0
    assert (tr.counts, tr.clamped) == reference_noisy(
        bfs_counts(keys, 256, 4), tr.params.alpha, tr.height / LN2, random.Random(8))


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
    want = sum(tr.counts[tr.node_index(lv, i)] for lv, i in cover)
    assert sanitizer_query(tr, a, b) == want


def test_median_stub_overcount_exact():
    """With noise pinned at the mean, every answer overcounts by exactly
    alpha per cover node."""
    keys = [3, 5, 5, 9, 14]
    tr = build_range_sanitizer(keys, 16, 4, LN2, 0.5, MedianRng())
    a = tr.params.alpha
    for lo, hi in [(0, 15), (3, 5), (5, 9), (14, 14), (0, 7)]:
        true = sum(1 for v in keys if lo <= v <= hi)
        cover = canonical_cover(lo, hi, tr.height, 4)
        assert sanitizer_query(tr, lo, hi) == true + a * len(cover)


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

