"""Tests for plug-in and Bayes e-processes and confidence sequences."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from safelogrank.core import (
    EventBatch,
    RiskSet,
    as_stream,
    evalue_increment,
    hypergeom_event_prob,
    log_hypergeom_event_prob,
    log_kernel,
    log_likelihood,
)
from safelogrank.adaptive import (
    PriorSpec,
    bayes_log_trace,
    confidence_sequence,
    default_theta_grid,
    plugin_estimates,
    plugin_log_trace,
)

import oracles
from oracles import grid_argmax


def batch(y1, y0, o, o1):
    return EventBatch(risk=RiskSet(y1=y1, y0=y0), o=o, o1=o1)


def _single_event_stream(theta, m1, m0, n, seed):
    """Simple private sampler so these tests do not depend on the sim module."""
    rng = np.random.default_rng(seed)
    y1, y0 = m1, m0
    out = []
    for _ in range(n):
        if y1 + y0 == 0:
            break
        p1 = theta * y1 / (y0 + theta * y1)
        o1 = int(rng.random() < p1)
        out.append(batch(y1, y0, 1, o1))
        y1, y0 = y1 - o1, y0 - (1 - o1)
    return out


# ---------------------------------------------------------------------------
# plug-in estimator
# ---------------------------------------------------------------------------

def bayes_predictive_log_increment(prior, history, batch, theta0=1.0):
    """One predictive increment given the prior and the strictly-past
    history, computed afresh from the prior."""
    if batch.forced:
        return 0.0
    _, log_num = bayes_log_trace([*history, batch], prior, return_numerator=True)
    return float(log_num[-1]) - log_hypergeom_event_prob(theta0, batch)


def test_plugin_initial_estimate_is_one_when_balanced():
    for m in (1, 5, 100):
        assert plugin_estimates([], m, m)[0] == pytest.approx(1.0, abs=1e-9)


def test_plugin_initial_estimate_unbalanced_is_finite_interior():
    th = plugin_estimates([], 30, 10)[0]
    assert 1e-8 < th < 1e8


def test_plugin_matches_dense_grid_search():
    batches = [
        batch(10, 10, 1, 0),
        batch(10, 9, 1, 0),
        batch(10, 8, 2, 1),
        batch(9, 7, 1, 0),
        batch(9, 6, 1, 1),
    ]
    theta_hat = plugin_estimates(batches, 10, 10)[-1]

    # the smoothed likelihood: the history plus the two virtual events
    smoothed = as_stream(batches + [batch(11, 10, 1, 1), batch(10, 11, 1, 0)])

    def smoothed_loglik(thetas):
        return log_kernel(smoothed, np.log(thetas)[None, :]).sum(axis=0)

    oracle = grid_argmax(smoothed_loglik, 1e-4, 1e4)
    assert theta_hat == pytest.approx(oracle, rel=1e-6)
    assert smoothed_loglik(np.array([theta_hat]))[0] == pytest.approx(
        log_likelihood(batches, theta_hat)
        + math.log(hypergeom_event_prob(theta_hat, batch(11, 10, 1, 1)))
        + math.log(hypergeom_event_prob(theta_hat, batch(10, 11, 1, 0))),
        abs=1e-12,
    )


def test_plugin_first_order_condition():
    rng = np.random.default_rng(42)
    reference = oracles.new_plugin_state(20, 20)
    batches = []
    y1, y0 = 20, 20
    for _ in range(15):
        o1 = int(rng.random() < y1 / (y1 + y0))
        batches.append(batch(y1, y0, 1, o1))
        reference = oracles.plugin_update(reference, batches[-1])
        y1, y0 = y1 - o1, y0 - (1 - o1)
    theta_hat = plugin_estimates(batches, 20, 20)[-1]
    assert abs(reference.smoothed_score(math.log(theta_hat))) <= 1e-6


def test_plugin_estimate_is_consistent():
    batches = _single_event_stream(0.5, 2000, 2000, 2000, seed=1)
    theta_hat = plugin_estimates(batches, 2000, 2000)[-1]
    assert abs(theta_hat - 0.5) < 0.05


def test_plugin_increment_uses_only_the_past():
    batches = _single_event_stream(0.7, 50, 50, 40, seed=2)
    full = plugin_log_trace(batches)
    # replacing the tail must not change any earlier increment
    mutated = batches[:30] + [batch(b.risk.y1, b.risk.y0, 1, 1 - b.o1) if not b.forced else b for b in batches[30:]]
    head = plugin_log_trace(mutated)[:30]
    assert np.array_equal(full[:30], head)


def test_plugin_increment_has_unit_null_expectation():
    def increment(o1):
        # the second event's factor, scored by the estimate after the first
        _, log_num = plugin_log_trace(
            [batch(12, 8, 1, 1), batch(11, 8, 1, o1)], m1=12, m0=8, return_numerator=True
        )
        return log_num[1] - log_hypergeom_event_prob(1.0, batch(11, 8, 1, o1))

    total = sum(
        hypergeom_event_prob(1.0, batch(11, 8, 1, o1)) * math.exp(increment(o1))
        for o1 in (0, 1)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_plugin_handles_ties_and_forced_batches():
    batches = [batch(5, 5, 2, 1), batch(4, 4, 3, 2), batch(2, 2, 1, 0), batch(2, 1, 3, 2)]
    trace = plugin_log_trace(batches)
    assert np.isfinite(trace).all()
    # final batch uses everyone left; forced, so it contributes nothing
    assert trace[-1] == trace[-2]


def test_plugin_trace_against_naive_reimplementation():
    """Same math, naive loop over scipy-optimized states: results must agree."""
    batches = _single_event_stream(0.6, 30, 30, 25, seed=3)
    fast = plugin_log_trace(batches)
    state = oracles.new_plugin_state(30, 30)
    log_m = 0.0
    naive = []
    for b in batches:
        log_m += log_hypergeom_event_prob(state.theta_hat, b) - log_hypergeom_event_prob(1.0, b)
        naive.append(log_m)
        state = oracles.plugin_update(state, b)
    assert np.allclose(fast, naive, atol=1e-10, rtol=0)


@st.composite
def _small_streams(draw):
    """Event streams from small, possibly unbalanced risk sets, with ties,
    censoring between event times and forced batches once a group or the
    whole risk set runs out."""
    y1, y0 = draw(st.integers(1, 15)), draw(st.integers(1, 15))
    batches = []
    for _ in range(draw(st.integers(1, 25))):
        if y1 + y0 == 0:
            break
        o = draw(st.integers(1, min(4, y1 + y0)))
        o1 = draw(st.integers(max(0, o - y0), min(o, y1)))
        batches.append(batch(y1, y0, o, o1))
        y1, y0 = y1 - o1, y0 - (o - o1)
        y1 -= draw(st.integers(0, min(1, y1)))
        y0 -= draw(st.integers(0, min(2, y0)))
    return batches


_TIES_AND_FORCED = [batch(5, 5, 2, 1), batch(4, 4, 3, 2), batch(2, 2, 1, 0), batch(2, 1, 3, 2)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(batches=_small_streams(), theta0=st.sampled_from([1.0, 0.7]))
@example(batches=_TIES_AND_FORCED, theta0=1.0)
@example(batches=[batch(9, 2, 1, 0), batch(8, 2, 1, 0), batch(7, 2, 2, 2), batch(5, 2, 2, 1)], theta0=0.7)
def test_plugin_matches_brentq_reference(batches, theta0):
    trace, log_num = plugin_log_trace(batches, theta0=theta0, return_numerator=True)
    ref_trace, ref_num, ref_thetas = oracles.plugin_reference(batches, theta0=theta0)
    assert np.allclose(trace, ref_trace, rtol=0, atol=1e-10)
    assert np.allclose(log_num, ref_num, rtol=0, atol=1e-10)
    assert np.allclose(plugin_estimates(batches), ref_thetas, rtol=1e-10, atol=0)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    batches=_small_streams(),
    center=st.sampled_from([0.4, 1.0, 2.5]),
    theta0=st.sampled_from([1.0, 0.7]),
)
@example(batches=_TIES_AND_FORCED, center=1.0, theta0=1.0)
def test_bayes_trace_matches_per_batch_reference(batches, center, theta0):
    prior = PriorSpec.lognormal(math.log(center), 0.7, n=41)
    trace, log_num = bayes_log_trace(batches, prior, theta0=theta0, return_numerator=True)
    ref_trace, ref_num = oracles.bayes_reference(batches, prior, theta0=theta0)
    assert np.allclose(trace, ref_trace, rtol=0, atol=1e-12)
    assert np.allclose(log_num, ref_num, rtol=0, atol=1e-12)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    batches=_small_streams(),
    numerator=st.sampled_from(["plugin", "bayes"]),
    alpha=st.sampled_from([0.05, 0.3]),
)
@example(batches=_TIES_AND_FORCED, numerator="plugin", alpha=0.3)
def test_confidence_bounds_match_per_batch_reference(batches, numerator, alpha):
    grid = default_theta_grid(60, lo=0.05, hi=20.0)
    prior = PriorSpec.lognormal(0.0, 0.7, n=41)
    cs = confidence_sequence(batches, alpha=alpha, numerator=numerator, grid=grid, prior=prior)
    if numerator == "plugin":
        ref_num = oracles.plugin_reference(batches)[1]
    else:
        ref_num = oracles.bayes_reference(batches, prior)[1]
    lower, upper, lower_b, upper_b = zip(
        *oracles.confidence_bounds_reference(batches, ref_num, grid, alpha)
    )
    assert np.allclose(cs.lower, lower, rtol=0, atol=1e-12, equal_nan=True)
    assert np.allclose(cs.upper, upper, rtol=0, atol=1e-12, equal_nan=True)
    assert cs.lower_bracketed.tolist() == list(lower_b)
    assert cs.upper_bracketed.tolist() == list(upper_b)


def test_plugin_prefix_gets_identical_estimates():
    # estimates are solved in blocks of prefixes; a shorter stream must not
    # move a single bit of the estimates it shares with the longer one
    batches = _single_event_stream(0.7, 120, 120, 200, seed=11)
    full = plugin_estimates(batches)
    for cut in (1, 63, 64, 65, 150):
        assert np.array_equal(plugin_estimates(batches[:cut]), full[: cut + 1])


# ---------------------------------------------------------------------------
# Bayes predictive
# ---------------------------------------------------------------------------

def test_point_mass_prior_recovers_fixed_alternative():
    prior = PriorSpec.point_mass(0.7)
    b = batch(10, 10, 1, 0)
    got = bayes_predictive_log_increment(prior, [], b)
    want = math.log(evalue_increment(0.7, 1.0, b))
    assert got == pytest.approx(want, abs=1e-14)


def test_two_point_prior_first_event_numerator_is_half():
    # prior 1/2 on {0.5, 2}, balanced first event: numerator = (1/3 + 2/3)/2
    prior = PriorSpec.from_grid([0.5, 2.0], [0.5, 0.5])
    for o1 in (0, 1):
        _, log_num = bayes_log_trace([batch(10, 10, 1, o1)], prior, return_numerator=True)
        assert math.exp(log_num[0]) == pytest.approx(0.5, abs=1e-14)


def test_bayes_product_telescopes_to_grid_bayes_factor():
    batches = _single_event_stream(0.7, 40, 40, 35, seed=4)
    prior = PriorSpec.lognormal(mean_log=math.log(0.7), sd_log=0.5, n=101)
    trace = bayes_log_trace(batches, prior)
    log_marginal = np.logaddexp.reduce(
        np.log(prior.weights)
        + np.array([log_likelihood(batches, float(t)) for t in prior.thetas])
    )
    log_bf = log_marginal - log_likelihood(batches, 1.0)
    assert trace[-1] == pytest.approx(log_bf, abs=1e-10)


def test_incremental_posterior_matches_recompute():
    batches = _single_event_stream(1.3, 25, 25, 20, seed=5)
    prior = PriorSpec.lognormal(mean_log=0.0, sd_log=0.5, n=51)
    _, log_num = bayes_log_trace(batches, prior, return_numerator=True)
    for i, b in enumerate(batches):
        inc_incremental = log_num[i] - log_hypergeom_event_prob(1.0, b)
        inc_recomputed = bayes_predictive_log_increment(prior, batches[:i], b)
        assert inc_incremental == pytest.approx(inc_recomputed, abs=1e-11)


def test_quadrature_grid_is_converged():
    batches = _single_event_stream(0.7, 60, 60, 100, seed=6)
    coarse = bayes_log_trace(batches, PriorSpec.lognormal(math.log(0.7), 0.5, n=201))
    fine = bayes_log_trace(batches, PriorSpec.lognormal(math.log(0.7), 0.5, n=402))
    assert np.max(np.abs(coarse - fine)) <= 1e-6


def test_misspecified_prior_keeps_type_one_control():
    # prior centered far from the truth; crossing 1/alpha under the null stays rare
    prior = PriorSpec.lognormal(mean_log=math.log(2.0), sd_log=0.25, n=101)
    crossings = 0
    reps = 150
    for rep in range(reps):
        batches = _single_event_stream(1.0, 100, 100, 200, seed=1000 + rep)
        trace = bayes_log_trace(batches, prior)
        crossings += bool(np.max(trace) >= math.log(20.0))
    rate = crossings / reps
    assert rate <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / reps)


def test_prior_spec_validation():
    with pytest.raises(ValueError):
        PriorSpec.from_grid([2.0, 0.5], [0.5, 0.5])  # not increasing
    with pytest.raises(ValueError):
        PriorSpec.from_grid([0.5, 2.0], [0.6, 0.5])  # does not sum to 1
    with pytest.raises(ValueError):
        PriorSpec.from_grid([0.5, 2.0], [1.1, -0.1])  # negative mass
    with pytest.raises(ValueError):
        PriorSpec.lognormal(0.0, sd_log=0.0)


# ---------------------------------------------------------------------------
# confidence sequences
# ---------------------------------------------------------------------------

def test_confidence_sequence_zero_events_is_full_range():
    cs = confidence_sequence([], grid=default_theta_grid(100))
    assert cs.final_lower == pytest.approx(1e-3)
    assert cs.final_upper == pytest.approx(1e3)


def test_confidence_sequence_narrows_and_covers_truth():
    batches = _single_event_stream(0.7, 300, 300, 400, seed=7)
    grid = default_theta_grid(200)
    cs = confidence_sequence(batches, alpha=0.05, grid=grid)
    assert cs.lower[-1] > grid[0]
    assert cs.upper[-1] < grid[-1]
    assert cs.lower_bracketed[-1] and cs.upper_bracketed[-1]
    assert cs.contains(0.7).all()  # single stream at its own truth: no exit expected here
    # interval actually contracts as evidence accumulates
    assert cs.upper[-1] - cs.lower[-1] < cs.upper[10] - cs.lower[10]


def test_confidence_sequence_running_intersection_is_nested():
    batches = _single_event_stream(0.8, 100, 100, 150, seed=8)
    cs = confidence_sequence(batches, grid=default_theta_grid(150), running_intersection=True)
    assert np.all(np.diff(cs.lower) >= 0)
    assert np.all(np.diff(cs.upper) <= 0)
    assert cs.intersected


def test_confidence_sequence_hull_matches_bruteforce_inversion():
    batches = _single_event_stream(0.5, 50, 50, 60, seed=9)
    grid = default_theta_grid(80, lo=0.05, hi=20.0)
    cs = confidence_sequence(batches, alpha=0.1, grid=grid)
    from safelogrank.core import log_evalue_trace

    _, log_num = plugin_log_trace(batches, return_numerator=True)
    cum_num = np.cumsum(log_num)
    i = len(batches) - 1
    rejected = np.array(
        [
            cum_num[i] - np.cumsum([log_hypergeom_event_prob(float(t), b) for b in batches])[i]
            >= math.log(1 / 0.1)
            for t in grid
        ]
    )
    keep = np.flatnonzero(~rejected)
    assert cs.lower[i] == pytest.approx(grid[keep[0]])
    assert cs.upper[i] == pytest.approx(grid[keep[-1]])


def test_confidence_sequence_bayes_numerator_runs():
    batches = _single_event_stream(0.7, 60, 60, 80, seed=10)
    cs = confidence_sequence(
        batches,
        numerator="bayes",
        prior=PriorSpec.lognormal(math.log(0.7), 0.5, n=101),
        grid=default_theta_grid(120),
    )
    assert cs.contains(0.7)[-1]


def test_confidence_sequence_rejects_bad_grid():
    with pytest.raises(ValueError):
        confidence_sequence([], grid=np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        confidence_sequence([], alpha=1.5)
