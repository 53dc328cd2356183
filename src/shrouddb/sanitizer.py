"""Differentially private count sanitizers.

Two structures, both Laplace-perturbed histograms with a positive bias
so that noisy counts almost never undershoot the truth:

* a flat histogram for point queries, one bin per domain value, and
* a k-ary aggregate tree for range queries, one counter per node, a
  range answered by summing the canonical aligned cover of the range.

The bias ``alpha`` is chosen so that with probability at least
``1 - beta`` every counter's noise exceeds ``-alpha``, making every
answer an overcount; overcounts cost extra fetches but never hide
records. Counters are rounded half away from zero and clamped at zero;
clamps are counted because each one marks a (rare) undershoot.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from shrouddb.errors import DataError, ParameterError, QueryError

__all__ = [
    "check_privacy",
    "laplace_sample",
    "alpha_point",
    "alpha_range",
    "tree_nodes_count",
    "SanitizerParams",
    "PointHistogram",
    "AggregateTree",
    "build_point_sanitizer",
    "build_range_sanitizer",
    "canonical_cover",
    "sanitizer_query",
    "compose",
]


def laplace_sample(mean: float, scale: float, rng: random.Random) -> float:
    """Inverse-CDF Laplace draw; a uniform of exactly 0.5 maps to ``mean``."""
    if scale <= 0.0:
        raise ParameterError("laplace scale must be positive")
    u = rng.random()
    while u == 0.0:  # avoid the infinite left tail
        u = rng.random()
    d = u - 0.5
    return mean - scale * math.copysign(1.0, d) * math.log(1.0 - 2.0 * abs(d))


def check_privacy(epsilon: float | None = None, beta: float | None = None) -> None:
    """Refuse an ``epsilon`` that is not positive and finite and a ``beta``
    outside (0, 1); the one statement of both rules, NaN included."""
    if epsilon is not None and not 0.0 < epsilon < math.inf:
        raise ParameterError(f"epsilon must be positive and finite, got {epsilon}")
    if beta is not None and not 0.0 < beta < 1.0:
        raise ParameterError(f"beta must be in (0, 1), got {beta}")


def _bias(epsilon: float, beta: float, draws: int, h: int) -> int:
    """Smallest integer ``alpha`` such that ``draws`` independent
    Laplace(h / epsilon) noises all exceed ``-alpha`` w.p. ``1 - beta``."""
    check_privacy(epsilon, beta)
    arg = 2.0 - 2.0 * (1.0 - beta) ** (1.0 / draws)
    if arg == 0.0:
        raise ParameterError(f"beta {beta} is too small to resolve over {draws} counters")
    bias = -math.log(arg) * h / epsilon
    if not math.isfinite(bias):
        raise ParameterError(f"epsilon {epsilon} is too small: the bias is unbounded")
    return max(0, math.ceil(bias))


def alpha_point(epsilon: float, beta: float, N: int) -> int:
    """Smallest bias keeping all ``N`` bins non-negative w.p. ``1 - beta``."""
    if N < 1:
        raise ParameterError("domain size must be >= 1")
    return _bias(epsilon, beta, N, 1)


def _tree_height(N: int, k: int) -> int:
    if k < 2:
        raise ParameterError("fanout k must be >= 2")
    if N < 1:
        raise ParameterError("domain size must be >= 1")
    h, v = 0, 1
    while v < N:
        v *= k
        h += 1
    if v != N:
        raise ParameterError(f"domain size {N} is not a power of fanout {k}")
    return h


def tree_nodes_count(N: int, k: int) -> int:
    """Total counters in a k-ary aggregate tree over domain ``[0, N)``."""
    h = _tree_height(N, k)
    return (k ** h - 1) // (k - 1) + N


def alpha_range(epsilon: float, beta: float, N: int, k: int) -> int:
    """Per-node bias for the aggregate tree; noise scale grows with height."""
    h = _tree_height(N, k)
    if h < 1:
        raise ParameterError("tree needs at least one level: require N >= k")
    return _bias(epsilon, beta, tree_nodes_count(N, k), h)


@dataclass(frozen=True)
class SanitizerParams:
    """Immutable description of one sanitizer: domain, fanout, bias, budget."""

    N: int
    k: int
    alpha: int
    epsilon: float


def _uniforms(n: int, rng: random.Random) -> np.ndarray:
    """The ``n`` uniforms that ``n`` calls of ``laplace_sample`` would use:
    the first ``n`` nonzero draws of ``rng.random()``."""
    draw = rng.random
    us = [u for u in [draw() for _ in range(n)] if u != 0.0]
    while len(us) < n:  # a zero was drawn; take its redraw at the end
        u = draw()
        if u != 0.0:
            us.append(u)
    return np.array(us, dtype=np.float64)


def _noisy_counts(true: np.ndarray, alpha: int, scale: float,
                  rng: random.Random) -> tuple[list[int], int]:
    """``laplace_sample(c + alpha, scale, rng)`` for each count ``c`` in
    order, rounded half away from zero and clamped at zero, as one array
    computation; returns the counters and how many were clamped."""
    d = _uniforms(len(true), rng) - 0.5
    mean = true.astype(np.float64) + alpha
    x = mean - scale * np.copysign(1.0, d) * np.log(1.0 - 2.0 * np.abs(d))
    r = np.where(x >= 0.0, np.floor(x + 0.5), np.ceil(x - 0.5))
    low = r < 0.0
    return np.where(low, 0.0, r).astype(np.int64).tolist(), int(low.sum())


class PointHistogram:
    """Noisy per-value counts; answers point lookups only."""

    def __init__(self, params: SanitizerParams, bins: list[int], clamped: int = 0):
        self.params = params
        self.bins = bins
        self.clamped = clamped

    def query(self, a: int, b: int) -> int:
        if a != b:
            raise QueryError("point histogram cannot answer range queries")
        if not 0 <= a < self.params.N:
            raise QueryError(f"value {a} outside domain [0, {self.params.N})")
        return self.bins[a]


class AggregateTree:
    """Noisy k-ary interval tree; ``counts`` is the breadth-first layout,
    root first, then each level left to right, leaves last."""

    def __init__(self, params: SanitizerParams, counts: list[int], clamped: int = 0):
        self.params = params
        self.counts = counts
        self.clamped = clamped
        self.height = _tree_height(params.N, params.k)

    def node_index(self, level: int, i: int) -> int:
        k = self.params.k
        return (k ** level - 1) // (k - 1) + i

    def query(self, a: int, b: int) -> int:
        if not 0 <= a <= b < self.params.N:
            raise QueryError(f"range [{a}, {b}] outside domain [0, {self.params.N})")
        cover = canonical_cover(a, b, self.height, self.params.k)
        return sum(self.counts[self.node_index(lv, i)] for lv, i in cover)


def _key_counts(keys, N: int) -> np.ndarray:
    """How many of ``keys`` take each value of ``[0, N)``; a key that is
    not an integer in that range is a ``DataError`` naming it."""
    values = np.asarray(keys)
    bad = ~((values >= 0) & (values < N) & (values % 1 == 0))
    if bad.any():
        raise DataError(f"key {values[bad][0]} is not an integer in [0, {N})")
    return np.bincount(values.astype(np.int64), minlength=N)


def build_point_sanitizer(keys: list[int], N: int, epsilon: float, beta: float,
                          rng: random.Random) -> PointHistogram:
    """Histogram of ``keys`` over ``[0, N)`` with biased Laplace noise per bin."""
    alpha = alpha_point(epsilon, beta, N)
    bins, clamped = _noisy_counts(_key_counts(keys, N), alpha, 1.0 / epsilon, rng)
    return PointHistogram(SanitizerParams(N, 0, alpha, epsilon), bins, clamped)


def build_range_sanitizer(keys: list[int], N: int, k: int, epsilon: float,
                          beta: float, rng: random.Random) -> AggregateTree:
    """Aggregate tree over ``[0, N)``: every node holds the true count of
    its leaf interval plus its own independent biased noise, drawn in
    breadth-first order."""
    alpha = alpha_range(epsilon, beta, N, k)
    h = _tree_height(N, k)
    levels = [_key_counts(keys, N)]
    for _ in range(h):
        levels.append(levels[-1].reshape(-1, k).sum(axis=1))
    levels.reverse()  # root level first
    counts, clamped = _noisy_counts(np.concatenate(levels), alpha, h / epsilon, rng)
    return AggregateTree(SanitizerParams(N, k, alpha, epsilon), counts, clamped)


def canonical_cover(a: int, b: int, height: int, k: int) -> list[tuple[int, int]]:
    """Unique minimal set of aligned tree nodes covering leaves ``[a, b]``.

    Returned as (level, index) pairs ordered left to right by the leaf
    interval they cover; level 0 is the root, ``height`` the leaves.
    Greedy: trim unaligned edges at the current level, then ascend.
    """
    if not 0 <= a <= b < k ** height:
        raise ParameterError(f"leaf range [{a}, {b}] invalid for height {height}")
    left: list[tuple[int, int]] = []
    right: list[tuple[int, int]] = []  # right to left
    lo, hi, level = a, b, height
    while level > 0:
        while lo % k and lo <= hi:
            left.append((level, lo))
            lo += 1
        while (hi + 1) % k and lo <= hi:
            right.append((level, hi))
            hi -= 1
        if lo > hi:
            break
        lo //= k
        hi //= k
        level -= 1
    mid = [(level, i) for i in range(lo, hi + 1)]
    return left + mid + right[::-1]


def sanitizer_query(ds: PointHistogram | AggregateTree, a: int, b: int) -> int:
    """Noisy count for the inclusive range ``[a, b]`` (point when a == b)."""
    return ds.query(a, b)


def compose(budgets: list[float], disjoint: bool) -> float:
    """Total privacy budget: max over disjoint structures, sum otherwise."""
    if not budgets:
        raise ParameterError("no budgets to compose")
    for e in budgets:
        check_privacy(e)
    return max(budgets) if disjoint else math.fsum(budgets)
