"""Tests for the Gaussian e-value approximation and monitoring boundaries."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safelogrank.core import EventStream, log_evalue_trace
from safelogrank.gaussian import (
    fixed_sample_boundary,
    gaussian_safe_boundary,
    log_gaussian_evalue,
    logrank_increments,
    logrank_z,
    normal_quantile,
    null_expectation_audit,
    obf_boundary,
    schoenfeld_mu,
)

from oracles import NORMAL_QUANTILES, exact_hypergeom_pmf, logrank_moments, stream_of


def z_term(*row):
    """Standardized logrank term (o1 - E1)/sqrt(V1) of one batch."""
    (score,), (v1,) = logrank_increments(stream_of([row]))
    return score / math.sqrt(v1)


MU1_07 = -0.17833747196936619  # schoenfeld_mu(0.7, balanced) = log(0.7)/2


# ---------------------------------------------------------------------------
# drift
# ---------------------------------------------------------------------------

def test_schoenfeld_mu_balanced():
    assert schoenfeld_mu(0.7, 1, 1) == pytest.approx(MU1_07, abs=1e-15)
    assert schoenfeld_mu(0.7, 500, 500) == pytest.approx(MU1_07, abs=1e-15)


def test_schoenfeld_mu_two_to_one():
    # log(0.7) * sqrt(2)/3
    assert schoenfeld_mu(0.7, 2, 1) == pytest.approx(-0.16813818102560623, abs=1e-15)
    assert schoenfeld_mu(0.7, 1, 2) == pytest.approx(-0.16813818102560623, abs=1e-15)


def test_schoenfeld_mu_sign_and_null():
    assert schoenfeld_mu(1.0, 3, 5) == 0.0
    assert schoenfeld_mu(2.0, 1, 1) > 0


# ---------------------------------------------------------------------------
# increments and e-values
# ---------------------------------------------------------------------------

def test_gaussian_increment_frozen_value():
    # mu1 = log(0.7)/2, single control event at balanced risk (Z = -1): the
    # e-value after one event is the per-event increment
    assert math.exp(log_gaussian_evalue(1, -1.0, MU1_07)) == pytest.approx(1.1763722576593701, rel=1e-12)


def test_gaussian_increment_close_to_exact_when_balanced():
    exact = math.exp(log_evalue_trace(stream_of([(50, 50, 1, 0)]), 0.7, 1.0)[0])
    approx = math.exp(log_gaussian_evalue(1, z_term(50, 50, 1, 0), MU1_07))
    assert abs(exact - approx) < 2e-4  # 1.17647... vs 1.17637...


def test_gaussian_evalue_frozen_value():
    assert math.exp(log_gaussian_evalue(100, -2.5, MU1_07)) == pytest.approx(
        17.605724481886689, rel=1e-12
    )


def test_gaussian_evalue_from_summary():
    stream = stream_of([(10, 10, 1, 0), (9, 10, 1, 0), (9, 9, 1, 1)])
    score, variance = logrank_moments(stream)
    n, z = np.cumsum(stream.o), score / np.sqrt(variance)
    direct = math.exp(log_gaussian_evalue(int(n[-1]), float(z[-1]), MU1_07))
    assert math.exp(log_gaussian_evalue(n, z, MU1_07)[-1]) == pytest.approx(direct, rel=1e-14)


# ---------------------------------------------------------------------------
# logrank moments
# ---------------------------------------------------------------------------

def test_logrank_z_runs_along_each_row():
    # a forced batch first: Z is undefined until the variance is positive
    rows = [(3, 0, 1, 1), (10, 10, 1, 0), (9, 10, 2, 1), (8, 9, 1, 1)]
    score, variance = logrank_moments(stream_of(rows))
    z = logrank_z(stream_of(rows))
    assert np.isnan(z[0])
    assert np.array_equal(z[1:], score[1:] / np.sqrt(variance[1:]))
    # (replications, L) columns give one path per row
    other = [(10, 10, 1, 1), (10, 9, 3, 2), (8, 7, 1, 0), (8, 6, 2, 1)]
    columns = (np.array([rows, other])[..., i] for i in range(4))
    paths = logrank_z(EventStream(None, *columns))
    assert np.array_equal(paths[0], z, equal_nan=True)
    assert np.array_equal(paths[1], logrank_z(stream_of(other)))


def test_tied_batch_moments():
    # o=2 of y1=y0=2: E1 = 2*(1/2) = 1, V1 = 2*(1/4)*(2/3) = 1/3
    (score,), (variance,) = logrank_moments(stream_of([(2, 2, 2, 1)]))
    assert score == pytest.approx(1 - 1.0, abs=1e-15)
    assert variance == pytest.approx(1 / 3, abs=1e-15)


def test_per_event_z_balanced_single_event():
    assert z_term(8, 8, 1, 0) == pytest.approx(-1.0, abs=1e-14)
    assert z_term(8, 8, 1, 1) == pytest.approx(1.0, abs=1e-14)


def test_per_event_z_rejects_forced_batch():
    # a forced batch carries no variance, so it has no standardized term,
    # and the audit, which standardizes the next event, refuses its risk set
    (score,), (v1,) = logrank_increments(stream_of([(3, 0, 1, 1)]))
    assert score == 0.0 and v1 == 0.0
    with pytest.raises(ValueError):
        null_expectation_audit(0.7, 3, 3, 3, 0)


def test_logrank_matches_score_test_at_null():
    rng = np.random.default_rng(5)
    y1, y0 = 20, 25
    rows = []
    for _ in range(15):
        if min(y1, y0) == 0:
            break
        o = int(rng.integers(1, 4))
        lo, hi = max(0, o - y0), min(o, y1)
        o1 = int(rng.integers(lo, hi + 1))
        rows.append((y1, y0, o, o1))
        y1, y0 = y1 - o1, y0 - (o - o1)
    score, variance = (x[-1] for x in logrank_moments(stream_of(rows)))
    # score and information of the exact conditional likelihood at theta = 1
    exact_score = exact_info = 0
    for y1, y0, o, o1 in rows:
        pmf = exact_hypergeom_pmf(Fraction(1), y1, y0, o)
        mean = sum(u * p for u, p in pmf.items())
        exact_score += o1 - mean
        exact_info += sum(u * u * p for u, p in pmf.items()) - mean * mean
    z = score / math.sqrt(variance)
    assert z == pytest.approx(float(exact_score) / math.sqrt(exact_info), abs=1e-12)


# ---------------------------------------------------------------------------
# null-expectation audit
# ---------------------------------------------------------------------------

def test_audit_balanced_designs_are_safe():
    for theta1 in np.exp(np.linspace(math.log(0.5), math.log(2.0), 21)):
        for m in (10, 100, 1000):
            for y in (m, max(m // 2, 1), 1):
                val = null_expectation_audit(float(theta1), m, m, y, y)
                assert val <= 1.0 + 1e-9


def test_audit_unbalanced_extreme_alternative_leaks():
    val = null_expectation_audit(0.1, 3, 1, 3, 1)
    assert val == pytest.approx(1.1117727075334443, rel=1e-12)
    assert val > 1.0


@given(
    theta1=st.floats(0.5, 2.0),
    m=st.integers(2, 2000),
    y=st.integers(1, 2000),
)
@settings(max_examples=200, deadline=None)
def test_audit_balanced_property(theta1, m, y):
    y = min(y, m)
    assert null_expectation_audit(theta1, m, m, y, y) <= 1.0 + 1e-9


def test_audit_requires_both_groups():
    with pytest.raises(ValueError):
        null_expectation_audit(0.7, 5, 5, 5, 0)


# ---------------------------------------------------------------------------
# boundaries
# ---------------------------------------------------------------------------

def test_normal_quantile_reference_values():
    for p, want in NORMAL_QUANTILES.items():
        assert abs(normal_quantile(p) - want) <= 1e-9
    with pytest.raises(ValueError):
        normal_quantile(0.0)


def test_gaussian_safe_boundary_frozen_value():
    assert gaussian_safe_boundary(100, 0.7, 0.05) == pytest.approx(
        -2.5714982489843539, rel=1e-12
    )


def test_gaussian_safe_boundary_is_the_evalue_level_set():
    for theta1 in (0.6, 0.7, 1.5, 2.0):
        for n in (10, 100, 1000):
            for m1, m0 in ((1, 1), (2, 1), (3, 1)):
                z_star = gaussian_safe_boundary(n, theta1, 0.05, m1, m0)
                mu1 = schoenfeld_mu(theta1, m1, m0)
                assert log_gaussian_evalue(n, z_star, mu1) == pytest.approx(
                    math.log(1 / 0.05), abs=1e-9
                )


def test_gaussian_safe_boundary_mirror_symmetry():
    left = gaussian_safe_boundary(100, 0.7, 0.05)
    right = gaussian_safe_boundary(100, 1 / 0.7, 0.05)
    assert left == pytest.approx(-right, abs=1e-12)


def test_obf_boundary_values():
    assert obf_boundary(205, 205, 0.05, "left") == pytest.approx(
        -1.959963984540054, abs=1e-9
    )
    assert obf_boundary(205, 205, 0.05, "right") == pytest.approx(
        1.959963984540054, abs=1e-9
    )
    assert obf_boundary(100, 205, 0.05, "left") == pytest.approx(
        -2.8062413621110637, rel=1e-10
    )


def test_obf_boundary_horizon_enforced():
    with pytest.raises(ValueError):
        obf_boundary(206, 205, 0.05)
    with pytest.raises(ValueError):
        obf_boundary(0, 205, 0.05)
    with pytest.raises(ValueError):
        obf_boundary(np.array([1, 205, 206]), 205, 0.05)
    with pytest.raises(ValueError):
        obf_boundary(np.array([0, 1]), 205, 0.05)
    with pytest.raises(ValueError):
        obf_boundary(np.zeros(0, dtype=int), 0, 0.05)  # no horizon


def test_obf_boundary_on_arrays_equals_each_value():
    ns = np.arange(1, 206)
    for side in ("left", "right"):
        values = obf_boundary(ns, 205, 0.05, side)
        assert values.tolist() == [obf_boundary(int(n), 205, 0.05, side) for n in ns]


def test_fixed_sample_boundary():
    assert fixed_sample_boundary(0.05, "left") == pytest.approx(-1.6448536269514722, abs=1e-9)
    assert fixed_sample_boundary(0.05, "right") == pytest.approx(1.6448536269514722, abs=1e-9)


def test_boundary_defaults_and_validation():
    # each boundary at its default alpha 0.05 and left side
    assert gaussian_safe_boundary(100, 0.7, 0.05) == pytest.approx(-2.5714982489843539, rel=1e-12)
    assert obf_boundary(100, 205, 0.05) == pytest.approx(-2.8062413621110637, rel=1e-10)
    assert fixed_sample_boundary(0.05) == pytest.approx(-1.6448536269514722, abs=1e-9)
    with pytest.raises(ValueError):
        gaussian_safe_boundary(100, 1.0, 0.05)  # no alternative to drift towards
    with pytest.raises(ValueError):
        obf_boundary(1, 0, 0.05)  # no horizon
    with pytest.raises(ValueError):
        fixed_sample_boundary(0.05, "both")  # a side the boundaries do not have


@pytest.mark.parametrize(
    "call",
    [
        lambda: schoenfeld_mu(0.7, 0, 5),
        lambda: log_gaussian_evalue(0, 1.0, MU1_07),
        lambda: log_gaussian_evalue(np.array([1, 0]), np.array([0.5, 0.5]), MU1_07),
        lambda: gaussian_safe_boundary(np.array([0, 1]), 0.7, 0.05),
    ],
    ids=["no-group", "no-events", "no-events-in-array", "boundary-at-0"],
)
def test_gaussian_summaries_refuse_empty_groups_and_no_events(call):
    with pytest.raises(ValueError, match="must be >= 1"):
        call()


def test_boundary_shapes():
    # Left-sided boundaries stay negative and are strictest for tiny n.  The
    # OBF boundary rises monotonically to -1.96 at the horizon; the safe
    # boundary peaks at -sqrt(2 log(1/alpha)) where the drift term and the
    # threshold term balance, then widens again slowly.
    ns = np.arange(5, 206)
    safe = np.array([gaussian_safe_boundary(int(n), 0.7, 0.05) for n in ns])
    obf = np.array([obf_boundary(int(n), 205, 0.05) for n in ns])
    assert np.all(safe < 0) and np.all(obf < 0)
    assert np.all(np.diff(obf) > 0)
    assert safe.max() == pytest.approx(-math.sqrt(2 * math.log(1 / 0.05)), abs=1e-4)
    assert safe[0] < safe.max() < 0
