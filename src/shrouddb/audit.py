"""Statistical audits for the privacy-bearing components.

These are empirical checks, not proofs: access-pattern traces are
compared with a chi-square test, the noise mechanism's likelihood
ratios are bounded on neighboring inputs, and the bias parameters are
re-derived in high-precision arithmetic to confirm minimality. Each
audit returns a small report with the statistic, the threshold it was
held to, and the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np
from scipy.stats import chi2_contingency

from shrouddb.errors import ParameterError
from shrouddb.rng import derive_stream
from shrouddb.sanitizer import (_key_counts, _tree_height, alpha_point, alpha_range,
                                tree_nodes_count)

__all__ = [
    "AuditReport",
    "audit_obliviousness",
    "audit_dp_ratio",
    "audit_alpha_point_minimality",
    "audit_alpha_range_minimality",
]


@dataclass(frozen=True)
class AuditReport:
    name: str
    statistic: float
    threshold: float
    passed: bool
    sample_size: int
    detail: str = ""

    def __str__(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (f"[{verdict}] {self.name}: statistic {self.statistic:.6g} "
                f"vs threshold {self.threshold:.6g} (n={self.sample_size})"
                + (f" {self.detail}" if self.detail else ""))


def audit_obliviousness(trace_a: list[int], trace_b: list[int],
                        p_threshold: float = 0.001) -> AuditReport:
    """Chi-square homogeneity of two leaf-access traces.

    Passes when the traces are statistically indistinguishable, i.e.
    the p-value stays above the threshold. Traces must be equally long
    so the test compares distributions, not volumes.
    """
    if len(trace_a) != len(trace_b):
        raise ParameterError("traces must have equal length")
    if not trace_a:
        raise ParameterError("traces must be nonempty")
    width = max(max(trace_a), max(trace_b)) + 1
    table = np.zeros((2, width), dtype=np.int64)
    table[0] = np.bincount(trace_a, minlength=width)
    table[1] = np.bincount(trace_b, minlength=width)
    table = table[:, table.sum(axis=0) > 0]
    _, p, dof, _ = chi2_contingency(table)
    return AuditReport(
        name="oblivious-access", statistic=float(p), threshold=p_threshold,
        passed=bool(p > p_threshold), sample_size=len(trace_a),
        detail=f"dof={dof}")


def audit_dp_ratio(mechanism, keys_a: list[int], keys_b: list[int], N: int,
                   epsilon: float, reps: int = 10_000, seed: int = 0,
                   slack: float = 0.20, min_count: int = 200) -> AuditReport:
    """Empirical likelihood-ratio bound on neighboring inputs.

    ``mechanism(keys, rng) -> int`` is run ``reps`` times per input
    with fresh derived rngs. An epsilon-DP mechanism bounds the
    probability ratio of every event, in particular every one-sided
    tail {output >= t} and {output <= t}; tails aggregate enough mass
    to estimate tightly, so the worst tail ratio must stay within
    ``e^epsilon * (1 + slack)``. Tails with fewer than ``min_count``
    samples on both sides are skipped; a tail that only one input can
    reach is an immediate failure.
    """
    diff = _key_counts(keys_a, N) - _key_counts(keys_b, N)
    if np.abs(diff).sum() != 1:
        raise ParameterError("inputs must be neighbors: histograms differing by one")
    out_a = np.array([mechanism(keys_a, derive_stream(seed, f"dp:a:{i}"))
                      for i in range(reps)])
    out_b = np.array([mechanism(keys_b, derive_stream(seed, f"dp:b:{i}"))
                      for i in range(reps)])

    bound = float(np.exp(epsilon)) * (1.0 + slack)
    worst = 0.0
    for t in np.union1d(out_a, out_b):
        for ca, cb in (
            (int((out_a >= t).sum()), int((out_b >= t).sum())),
            (int((out_a <= t).sum()), int((out_b <= t).sum())),
        ):
            if max(ca, cb) < min_count:
                continue
            if min(ca, cb) == 0:
                worst = float("inf")
                continue
            worst = max(worst, ca / cb, cb / ca)
    return AuditReport(
        name="dp-likelihood-ratio", statistic=worst, threshold=bound,
        passed=worst <= bound, sample_size=reps)


def _minimality(name: str, alpha: int, epsilon: float, h: int, draws: int,
                beta: float) -> AuditReport:
    """Confirms in 60-digit arithmetic that ``alpha`` keeps ``draws``
    Laplace(h / epsilon) counters above ``-alpha`` together w.p.
    ``1 - beta``, using Pr[Lap(b) > -a] = 1 - exp(-a / b) / 2, and that
    ``alpha - 1`` would not."""
    with localcontext() as ctx:
        ctx.prec = 60
        rate = Decimal(repr(epsilon)) / h
        floor = 1 - Decimal(repr(beta))

        def holds(a: int) -> bool:
            return (1 - (-a * rate).exp() / 2) ** draws >= floor

        ok = holds(alpha)
        minimal = alpha == 0 or not holds(alpha - 1)
    return AuditReport(
        name=name, statistic=float(alpha), threshold=float(alpha),
        passed=ok and minimal, sample_size=draws,
        detail="holds" + ("+minimal" if minimal else "+NOT-minimal"))


def audit_alpha_point_minimality(epsilon: float, beta: float, N: int) -> AuditReport:
    """The point bias satisfies the all-bins guarantee; one less would not."""
    return _minimality("alpha-point-minimality", alpha_point(epsilon, beta, N),
                       epsilon, 1, N, beta)


def audit_alpha_range_minimality(epsilon: float, beta: float, N: int,
                                 k: int) -> AuditReport:
    """Same check for the aggregate tree, where noise scales with height."""
    return _minimality("alpha-range-minimality", alpha_range(epsilon, beta, N, k),
                       epsilon, _tree_height(N, k), tree_nodes_count(N, k), beta)
