import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom

from audit import (
    AuditReport,
    audit_alpha_point_minimality,
    audit_alpha_range_minimality,
    audit_dp_ratio,
    audit_failures,
    audit_obliviousness,
    clopper_pearson_upper,
    perfbench_workloads,
)
from shrouddb import engine
from shrouddb.bench import generate_dataset
from shrouddb.engine import EngineConfig, quotas, setup
from shrouddb.errors import DataError, ParameterError
from shrouddb.sanitizer import canonical_cover, laplace_sample
from shrouddb.storage import MemoryKvs

LN2 = math.log(2)

KEYS_A = [5, 5, 1, 2, 9]
KEYS_B = KEYS_A + [5]  # neighbor: one more record in bin 5


def counting_mechanism(scale):
    """Noisy count of bin 5, the one-bin core of the point sanitizer."""
    def mech(keys, rng):
        c = sum(1 for k in keys if k == 5)
        return max(0, round(laplace_sample(c + 3, scale, rng)))
    return mech


# -- obliviousness -------------------------------------------------------------

def test_same_distribution_passes():
    ra, rb = random.Random(1), random.Random(2)
    a = [ra.randrange(64) for _ in range(5000)]
    b = [rb.randrange(64) for _ in range(5000)]
    rep = audit_obliviousness(a, b)
    assert rep.passed
    assert rep.statistic > 0.001
    assert rep.sample_size == 5000


def test_skewed_trace_fails():
    ra = random.Random(1)
    a = [ra.randrange(64) for _ in range(5000)]
    b = [0] * 5000
    rep = audit_obliviousness(a, b)
    assert not rep.passed
    assert rep.statistic <= 0.001


def test_trace_validation():
    with pytest.raises(ParameterError):
        audit_obliviousness([1, 2], [1])
    with pytest.raises(ParameterError):
        audit_obliviousness([], [])


# -- dp likelihood ratio ---------------------------------------------------------

def test_correct_noise_passes():
    rep = audit_dp_ratio(counting_mechanism(1.0 / LN2), KEYS_A, KEYS_B,
                         N=10, epsilon=LN2)
    assert rep.passed
    assert rep.statistic <= math.exp(LN2) * 1.2
    assert rep.sample_size == 10000


def test_zero_noise_fails_hard():
    rep = audit_dp_ratio(lambda keys, rng: sum(1 for k in keys if k == 5),
                         KEYS_A, KEYS_B, N=10, epsilon=LN2)
    assert not rep.passed
    assert rep.statistic == float("inf")


def test_undernoised_mechanism_fails():
    # scale 1/(2 ln 2) is only (2 ln 2)-private; claiming (ln 2)/2 must fail
    rep = audit_dp_ratio(counting_mechanism(1.0 / (2 * LN2)), KEYS_A, KEYS_B,
                         N=10, epsilon=LN2 / 2)
    assert not rep.passed
    assert rep.statistic > rep.threshold


def test_non_neighbors_rejected():
    with pytest.raises(ParameterError):
        audit_dp_ratio(counting_mechanism(2.0), KEYS_A, KEYS_A + [5, 5],
                       N=10, epsilon=LN2)
    with pytest.raises(ParameterError):
        audit_dp_ratio(counting_mechanism(2.0), KEYS_A, KEYS_A,
                       N=10, epsilon=LN2)


@pytest.mark.parametrize("bad", [-1, 10])
def test_keys_outside_domain_rejected(bad):
    with pytest.raises(DataError, match=f"key {bad}"):
        audit_dp_ratio(counting_mechanism(2.0), KEYS_A + [bad], KEYS_B + [bad],
                       N=10, epsilon=LN2, reps=10)


# -- bias minimality ---------------------------------------------------------------

@pytest.mark.parametrize("eps,beta,N,alpha", [
    (LN2, 2.0 ** -20, 10 ** 4, 33),
    (1.0, 2.0 ** -20, 10 ** 4, 23),
    (LN2, 0.5, 1, 0),
])
def test_point_bias_minimal(eps, beta, N, alpha):
    rep = audit_alpha_point_minimality(eps, beta, N)
    assert rep.passed
    assert rep.statistic == alpha
    assert "+minimal" in rep.detail


@pytest.mark.parametrize("eps,beta,N,k,alpha", [
    (LN2, 2.0 ** -20, 4096, 16, 94),
    (math.log(3), 2.0 ** -20, 4096, 16, 59),
    (LN2, 0.5, 16, 16, 4),
])
def test_range_bias_minimal(eps, beta, N, k, alpha):
    rep = audit_alpha_range_minimality(eps, beta, N, k)
    assert rep.passed
    assert rep.statistic == alpha
    assert "+minimal" in rep.detail


# -- quota failures ------------------------------------------------------------------

@pytest.mark.parametrize("mode,m", [("single", 1), ("gamma", 3), ("no-gamma", 3)])
def test_audit_build_is_the_setup_of_its_seed(mode, m):
    db = generate_dataset(300, 100, 8, seed=4)
    config = EngineConfig(domain=100, record_size=8, m=m, mode=mode)
    rids = [r.rid for r in db.records]
    keys = np.array([r.key for r in db.records], dtype=np.int64)
    for seed in (1, 2):
        oram_of = engine._partition(seed, rids, m)
        group = engine._sanitizers(config, keys, oram_of, seed, "key", config.epsilon)
        with setup(db, config, MemoryKvs(), seed=seed) as state:
            assert np.array_equal(oram_of, state.oram_of)
            built = state.indexed["key"][1]
            assert [ds.params for ds in group] == [ds.params for ds in built]
            assert len(group) == len(built)
            assert all(np.array_equal(g.counts, b.counts) for g, b in zip(group, built))


class _Unbiased:
    """A range sanitizer whose answers drop the bias: the noisy sum of
    the cover, less t(c) for its c nodes."""

    def __init__(self, ds):
        self.ds = ds

    def query(self, a, b):
        cover = canonical_cover(a, b, self.ds.height, self.ds.params.k)
        return self.ds.query(a, b) - self.ds.bias[len(cover)]


def unbiased_quotas(config, sanitizers, a, b):
    return quotas(config, [_Unbiased(ds) for ds in sanitizers], a, b)


def test_quota_rule_passes_the_gate_at_range_4k_remote():
    """The gate a quota change passes before any benchmark runs, here at
    the benchmark workload's own shape and stream."""
    shape = perfbench_workloads()["range-4k-remote"]
    rep = audit_failures(shape, builds=100, queries=400)
    assert (rep.failed_queries, rep.failed_builds) == (0, 0)
    assert rep.failed_queries_upper == pytest.approx(1 - 0.05 ** (1 / 40_000))
    assert len(rep.min_slack) == len(rep.median_slack) == len(rep.mean_quota) == shape.m
    assert 0 < min(rep.min_slack) <= min(rep.median_slack)
    # about 51 matches per query, biased by t(5) = 173, then split over two
    # ORAMs and inflated by gamma
    assert all(150 < q < 250 for q in rep.mean_quota)


def test_quota_rule_passes_the_gate_at_point_64_disk():
    """The same gate at point-64-disk's shape: one ORAM, point queries of
    about one match, each biased by t(1) = 184."""
    shape = perfbench_workloads()["point-64-disk"]
    rep = audit_failures(shape, builds=5, queries=400)
    assert (rep.failed_queries, rep.failed_builds) == (0, 0)
    assert len(rep.min_slack) == len(rep.mean_quota) == shape.m == 1
    assert 0 < rep.min_slack[0]
    assert 184 < rep.mean_quota[0] < 190


def test_gate_refuses_a_rule_without_the_node_bias():
    """A rule that drops t(c), the bias of each range's sum, is refused."""
    shape = perfbench_workloads()["range-4k-remote"]
    rep = audit_failures(shape, builds=10, queries=400, rule=unbiased_quotas)
    assert rep.failed_queries > 0 and rep.failed_builds > 0
    assert min(rep.min_slack) < 0


def test_failure_audit_command_prints_one_json_line():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "tests/audit.py", "failures", "--workload", "point-64-disk",
         "--builds", "2"],
        cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    (line,) = proc.stdout.splitlines()
    report = json.loads(line)
    assert report["workload"] == "point-64-disk"
    assert (report["builds"], report["queries"], report["failed_queries"]) == (2, 400, 0)


@pytest.mark.parametrize("failures,trials", [(0, 100), (5, 100), (17, 1000), (0, 40_000)])
def test_clopper_pearson_upper_leaves_5_percent_at_or_below_the_count(failures, trials):
    upper = clopper_pearson_upper(failures, trials)
    assert binom.cdf(failures, trials, upper) == pytest.approx(0.05)
    assert clopper_pearson_upper(trials, trials) == 1.0


@pytest.mark.parametrize("failures,trials", [(-1, 10), (11, 10), (0, 0)])
def test_clopper_pearson_refuses_impossible_counts(failures, trials):
    with pytest.raises(ParameterError):
        clopper_pearson_upper(failures, trials)


# -- report rendering ----------------------------------------------------------------

def test_report_rendering():
    good = AuditReport("x", 0.5, 0.001, True, 10, detail="dof=3")
    bad = AuditReport("y", 3.0, 2.4, False, 7)
    assert str(good).startswith("[pass] x: ")
    assert "dof=3" in str(good)
    assert str(bad).startswith("[FAIL] y: ")
