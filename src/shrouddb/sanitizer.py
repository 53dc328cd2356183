"""Differentially private count sanitizers.

Two structures, both Laplace-perturbed histograms whose answers carry
a positive bias so that they almost never undershoot the truth:

* a flat histogram for point queries, one bin per domain value, and
* a k-ary aggregate tree for range queries over ``[0, N)``, one counter
  per node lying wholly inside the domain, a range answered by summing
  the canonical aligned cover of the range.

Counters hold unbiased noisy counts as floats: never rounded, never
clamped. The bias is added once per answer. A point answer adds
``alpha``, chosen so that with probability at least ``1 - beta`` every
bin's noise exceeds ``-alpha``. A range answer covered by ``c`` nodes
adds ``t(c)``: ``t(1)`` is the node bias at ``beta / 2``, and a larger
cover's ``t(c)`` bounds the sum of its ``c`` noises by a Chernoff bound
at ``beta / 2`` spread over all ``N (N + 1) / 2`` ranges, so every
range overcounts at once with probability at least ``1 - beta``.
Overcounts cost extra fetches but never hide records. An answer is the
ceiling of the biased sum, and never below zero.
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


def _bias(epsilon: float, beta: float, draws: int, h: int, split: int = 1) -> int:
    """Smallest integer ``alpha`` such that ``draws`` independent
    Laplace(h / epsilon) noises all exceed ``-alpha`` w.p.
    ``1 - beta / split``."""
    check_privacy(epsilon, beta)
    arg = 2.0 - 2.0 * (1.0 - beta / split) ** (1.0 / draws)
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
    """Least ``h`` with ``k ** h >= N``."""
    if k < 2:
        raise ParameterError("fanout k must be >= 2")
    if N < 1:
        raise ParameterError("domain size must be >= 1")
    h, v = 0, 1
    while v < N:
        v *= k
        h += 1
    return h


def _level_sizes(N: int, k: int) -> list[int]:
    """Nodes per level of the tree over ``[0, N)``, root level first:
    level ``l`` of ``h`` holds the ``N // k ** (h - l)`` nodes whose leaf
    intervals lie wholly inside the domain."""
    h = _tree_height(N, k)
    return [N // k ** (h - level) for level in range(h + 1)]


def tree_nodes_count(N: int, k: int) -> int:
    """Counters of a k-ary aggregate tree over domain ``[0, N)``."""
    return sum(_level_sizes(N, k))


def alpha_range(epsilon: float, beta: float, N: int, k: int, *, split: int = 1) -> int:
    """Per-node bias for the aggregate tree at failure probability
    ``beta / split``; noise scale grows with height."""
    h = _tree_height(N, k)
    if h < 1:
        raise ParameterError("tree needs at least one level: require N >= 2")
    return _bias(epsilon, beta, tree_nodes_count(N, k), h, split)


def _sum_bias(c: int, scale: float, log_target: float, cap: int) -> int:
    """Least integer ``t <= cap`` whose Chernoff bound on the chance that
    ``c`` independent Laplace(``scale``) noises sum below ``-t`` is at
    most ``exp(log_target)``, else ``cap``. With ``T = t / scale`` the
    bound is ``(1 - x^2)^-c * exp(-x T)``, least at
    ``x = (sqrt(c^2 + T^2) - c) / T``."""
    def log_bound(t: int) -> float:
        T = t / scale
        x = T / (math.hypot(c, T) + c)  # the optimum, rationalized
        return -c * math.log1p(-x * x) - x * T

    if log_bound(cap) > log_target:
        return cap
    lo, hi = 0, cap  # the bound fails at lo (it is 1 at t = 0) and holds at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if log_bound(mid) <= log_target:
            hi = mid
        else:
            lo = mid
    return hi


def _range_biases(epsilon: float, beta: float, N: int, k: int) -> tuple[int, ...]:
    """``t(c)`` for every cover size ``c`` of the tree over ``[0, N)``,
    indexed by ``c``: ``t(1)`` is ``alpha_range`` at ``beta / 2``, and
    ``t(c)`` the lesser of ``c * t(1)`` and the least ``t`` whose
    Chernoff bound is at most ``beta / 2`` over the ``N (N + 1) / 2``
    ranges. A cover takes at most ``k - 1`` nodes from each side of
    each level below the root, and the root only alone."""
    alpha = alpha_range(epsilon, beta, N, k, split=2)
    h = _tree_height(N, k)
    log_target = math.log(beta / 2) - math.log(N * (N + 1) / 2)
    return (0, alpha) + tuple(_sum_bias(c, h / epsilon, log_target, c * alpha)
                              for c in range(2, 2 * (k - 1) * h + 1))


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


def _noisy_counts(true: np.ndarray, scale: float, rng: random.Random) -> np.ndarray:
    """``laplace_sample(c, scale, rng)`` for each count ``c`` in order, as
    one array computation: unbiased float64 counts, neither rounded nor
    clamped."""
    d = _uniforms(len(true), rng) - 0.5
    return true - scale * np.copysign(1.0, d) * np.log(1.0 - 2.0 * np.abs(d))


class PointHistogram:
    """Unbiased noisy per-value counts; answers point lookups only, each
    biased by ``alpha``."""

    def __init__(self, params: SanitizerParams, bins: np.ndarray):
        self.params = params
        self.bins = bins

    def query(self, a: int, b: int) -> int:
        if a != b:
            raise QueryError("point histogram cannot answer range queries")
        if not 0 <= a < self.params.N:
            raise QueryError(f"value {a} outside domain [0, {self.params.N})")
        return max(0, math.ceil(self.bins[a] + self.params.alpha))


class AggregateTree:
    """Noisy k-ary interval tree over ``[0, N)``. ``counts`` holds the
    unbiased noisy count of each node lying wholly inside the domain,
    breadth-first: root level first, each level left to right, leaves
    last. ``bias[c]`` is ``t(c)``, which an answer covered by ``c``
    nodes adds; ``params.alpha`` is ``t(1)``."""

    def __init__(self, params: SanitizerParams, counts: np.ndarray, bias: tuple[int, ...]):
        self.params = params
        self.counts = counts
        self.bias = bias
        sizes = _level_sizes(params.N, params.k)
        self.height = len(sizes) - 1
        self._offsets = [sum(sizes[:level]) for level in range(len(sizes))]

    def node_index(self, level: int, i: int) -> int:
        return self._offsets[level] + i

    def query(self, a: int, b: int) -> int:
        if not 0 <= a <= b < self.params.N:
            raise QueryError(f"range [{a}, {b}] outside domain [0, {self.params.N})")
        cover = canonical_cover(a, b, self.height, self.params.k)
        total = sum(self.counts[self.node_index(lv, i)] for lv, i in cover)
        return max(0, math.ceil(total + self.bias[len(cover)]))


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
    """Histogram of ``keys`` over ``[0, N)`` with Laplace noise per bin."""
    alpha = alpha_point(epsilon, beta, N)
    bins = _noisy_counts(_key_counts(keys, N), 1.0 / epsilon, rng)
    return PointHistogram(SanitizerParams(N, 0, alpha, epsilon), bins)


def build_range_sanitizer(keys: list[int], N: int, k: int, epsilon: float,
                          beta: float, rng: random.Random) -> AggregateTree:
    """Aggregate tree over ``[0, N)``, any ``N >= 2``: every node inside the
    domain holds the true count of its leaf interval plus its own
    independent noise, drawn in breadth-first order."""
    bias = _range_biases(epsilon, beta, N, k)
    sizes = _level_sizes(N, k)
    levels = [_key_counts(keys, N)]
    for size in reversed(sizes[:-1]):  # each parent sums k whole children
        levels.append(levels[-1][:size * k].reshape(size, k).sum(axis=1))
    levels.reverse()  # root level first
    counts = _noisy_counts(np.concatenate(levels), (len(sizes) - 1) / epsilon, rng)
    return AggregateTree(SanitizerParams(N, k, bias[1], epsilon), counts, bias)


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
