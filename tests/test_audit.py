import math
import random

import pytest

from audit import (
    AuditReport,
    audit_alpha_point_minimality,
    audit_alpha_range_minimality,
    audit_dp_ratio,
    audit_obliviousness,
)
from shrouddb.errors import DataError, ParameterError
from shrouddb.sanitizer import laplace_sample

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


# -- report rendering ----------------------------------------------------------------

def test_report_rendering():
    good = AuditReport("x", 0.5, 0.001, True, 10, detail="dof=3")
    bad = AuditReport("y", 3.0, 2.4, False, 7)
    assert str(good).startswith("[pass] x: ")
    assert "dof=3" in str(good)
    assert str(bad).startswith("[FAIL] y: ")
