"""Statistical audits for the privacy-bearing components.

These are empirical checks, not proofs: access-pattern traces are
compared with a chi-square test, the noise mechanism's likelihood
ratios are bounded on neighboring inputs, and the bias parameters are
re-derived in high-precision arithmetic to confirm minimality. Each
audit returns a small report with the statistic, the threshold it was
held to, and the verdict.

The failure audit runs a quota rule over many builds of a benchmark
workload's sanitizers, without ORAM or storage, and counts the queries
whose matches in some ORAM exceed its quota. A change to any quota
runs it first:

    PYTHONPATH=src python tests/audit.py failures --workload range-4k-remote --builds 1000

Each build is asked the stream's first ``GATE_QUERIES`` queries. It
prints one JSON line, and exits 1 if any query failed.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import runpy
import sys
from dataclasses import asdict, dataclass
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
from scipy.stats import beta as beta_distribution
from scipy.stats import chi2_contingency

from shrouddb import engine
from shrouddb.bptree import create_index, lookup
from shrouddb.errors import ParameterError
from shrouddb.rng import derive_stream
from shrouddb.sanitizer import (_key_counts, _tree_height, alpha_point, alpha_range,
                                tree_nodes_count)

__all__ = [
    "AuditReport",
    "FailureReport",
    "audit_obliviousness",
    "audit_dp_ratio",
    "audit_alpha_point_minimality",
    "audit_alpha_range_minimality",
    "audit_failures",
    "clopper_pearson_upper",
    "perfbench_workloads",
]

PERFBENCH_RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
GATE_QUERIES = 400  # queries of the stream each build of the gate is asked


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


# -- quota failures ------------------------------------------------------------------

@dataclass(frozen=True)
class FailureReport:
    """What one quota rule did over ``builds`` builds of one workload's
    sanitizers, each asked the stream's first ``queries`` queries. The
    upper bounds are one-sided Clopper–Pearson at 95%; the slack, quota
    minus true matches, and the quota's mean are per ORAM over every
    build and query."""

    builds: int
    queries: int
    failed_queries: int
    failed_queries_upper: float
    failed_builds: int
    failed_builds_upper: float
    min_slack: list[int]
    median_slack: list[float]
    mean_quota: list[float]


def clopper_pearson_upper(failures: int, trials: int) -> float:
    """One-sided 95% Clopper–Pearson upper bound on a rate seen as
    ``failures`` in ``trials``."""
    if not 0 <= failures <= trials or trials < 1:
        raise ParameterError(f"{failures} failures in {trials} trials")
    if failures == trials:
        return 1.0
    return float(beta_distribution.ppf(0.95, failures + 1, trials - failures))


def audit_failures(shape, builds: int, queries: int, rule=engine.quotas) -> FailureReport:
    """Run ``rule(config, sanitizers, a, b)`` over builds ``1..builds`` of
    ``shape``, a ``perfbench/run.py`` workload: its dataset and the first
    ``queries`` queries of its stream, both of seed 1 and made by the
    benchmark's own ``make_inputs``, with the benchmark's privacy
    settings. Build ``s`` has ``setup(seed=s)``'s partition map and key
    sanitizers, made with no ORAM, no storage and no sealing."""
    if builds < 1 or queries < 1:
        raise ParameterError("an audit needs at least one build and one query")
    config = engine.EngineConfig(domain=shape.domain, record_size=shape.record_size,
                                 m=shape.m, mode=shape.mode)
    db, qs = _perfbench()["make_inputs"](shape, 1)
    stream = list(itertools.islice(qs, queries))
    rids = [r.rid for r in db.records]
    keys = np.array([r.key for r in db.records], dtype=np.int64)
    index = create_index(keys)
    matched = [lookup(index, q) for q in stream]
    which = np.repeat(np.arange(queries), [len(p) for p in matched])
    positions = np.concatenate(matched)

    quota = np.empty((builds, queries, config.m), dtype=np.int64)
    slack = np.empty_like(quota)
    for s in range(1, builds + 1):
        oram_of = engine._partition(s, rids, config.m)
        group = engine._sanitizers(config, keys, oram_of, s, "key", config.epsilon)
        true = np.bincount(which * config.m + oram_of[positions] - 1,
                           minlength=queries * config.m).reshape(queries, config.m)
        quota[s - 1] = [rule(config, group, q.a, q.b) for q in stream]
        slack[s - 1] = quota[s - 1] - true
    failed = (slack < 0).any(axis=2)
    failed_queries, failed_builds = int(failed.sum()), int(failed.any(axis=1).sum())
    per_oram = slack.reshape(-1, config.m)
    return FailureReport(
        builds=builds, queries=queries,
        failed_queries=failed_queries,
        failed_queries_upper=clopper_pearson_upper(failed_queries, builds * queries),
        failed_builds=failed_builds,
        failed_builds_upper=clopper_pearson_upper(failed_builds, builds),
        min_slack=per_oram.min(axis=0).tolist(),
        median_slack=np.median(per_oram, axis=0).tolist(),
        mean_quota=quota.reshape(-1, config.m).mean(axis=0).tolist())


@functools.cache
def _perfbench() -> dict:
    """The namespace of ``perfbench/run.py``, loaded once."""
    return runpy.run_path(str(PERFBENCH_RUN))


def perfbench_workloads() -> dict:
    """The benchmark's workloads by name, as ``perfbench/run.py`` defines them."""
    return _perfbench()["WORKLOADS"]


def main(argv=None) -> int:
    workloads = perfbench_workloads()
    p = argparse.ArgumentParser(description="Run one of the audits from the command line.")
    commands = p.add_subparsers(dest="audit", required=True)
    failures = commands.add_parser("failures", help="a quota rule's failures at a workload")
    failures.add_argument("--workload", required=True, choices=sorted(workloads))
    failures.add_argument("--builds", type=int, required=True)
    args = p.parse_args(argv)
    report = audit_failures(workloads[args.workload], args.builds, GATE_QUERIES)
    print(json.dumps({"workload": args.workload, **asdict(report)}))
    return 0 if report.failed_queries == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
