"""Tests for the exact e-value core: kernels, increments, martingale states."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safelogrank import core
from safelogrank.core import (
    EventBatch,
    EventStream,
    MartingaleState,
    RiskSet,
    bernoulli_event_prob,
    evalue_increment,
    hypergeom_event_prob,
    log_bernoulli_event_prob,
    log_evalue_increment,
    log_evalue_trace,
    log_hypergeom_pmf,
    log_kernel,
    log_likelihood,
    meta_combine,
    score_components,
    update_martingale,
    update_two_sided,
    validate_theta,
)

from oracles import exact_bernoulli_prob, exact_hypergeom_pmf, exact_increment, two_sided_state


def batch(y1, y0, o, o1):
    return EventBatch(risk=RiskSet(y1=y1, y0=y0), o=o, o1=o1)


# ---------------------------------------------------------------------------
# frozen kernel values
# ---------------------------------------------------------------------------

def test_bernoulli_treatment_prob_half_hazard():
    # theta=0.5, 100 vs 100 at risk: 100*0.5 / (100 + 50) = 1/3
    assert bernoulli_event_prob(0.5, RiskSet(100, 100), 1) == pytest.approx(1 / 3, abs=1e-15)


def test_bernoulli_treatment_prob_small_risk_set():
    # theta=2, y1=1, y0=3: 2 / (3 + 2) = 0.4
    assert bernoulli_event_prob(2.0, RiskSet(1, 3), 1) == pytest.approx(0.4, abs=1e-15)


def test_hypergeom_central_two_of_four():
    # theta=1, o=2 events among 2+2: P(o1=1) = C(2,1)C(2,1)/C(4,2) = 4/6
    assert hypergeom_event_prob(1.0, batch(2, 2, 2, 1)) == pytest.approx(4 / 6, abs=1e-14)


def test_hypergeom_noncentral_two_of_four():
    # theta=2: weights 1, 8, 4 over o1=0,1,2 -> P(o1=1) = 8/13
    assert hypergeom_event_prob(2.0, batch(2, 2, 2, 1)) == pytest.approx(8 / 13, abs=1e-14)


def test_increment_control_event_balanced():
    # theta1=0.7 vs theta0=1, single control event, balanced risk sets:
    # (1/1.7) / (1/2) = 2/1.7
    got = evalue_increment(0.7, 1.0, batch(50, 50, 1, 0))
    assert got == pytest.approx(2 / 1.7, rel=1e-12)


# ---------------------------------------------------------------------------
# exact-rational oracle cross-checks
# ---------------------------------------------------------------------------

RATIONAL_THETAS = [
    Fraction(1, 10),
    Fraction(1, 2),
    Fraction(7, 10),
    Fraction(1),
    Fraction(7, 5),
    Fraction(2),
    Fraction(10),
]


@pytest.mark.parametrize("theta", RATIONAL_THETAS)
def test_hypergeom_pmf_matches_rational_oracle(theta):
    for y1, y0, o in [(1, 1, 1), (2, 2, 2), (5, 3, 4), (7, 2, 3), (4, 9, 6), (12, 12, 5)]:
        support, logp = log_hypergeom_pmf(float(theta), y1, y0, o)
        oracle = exact_hypergeom_pmf(theta, y1, y0, o)
        assert list(support) == sorted(oracle)
        for u, lp in zip(support, logp):
            assert math.exp(lp) == pytest.approx(float(oracle[u]), abs=1e-13)


@pytest.mark.parametrize("theta", RATIONAL_THETAS)
def test_increment_matches_rational_oracle(theta):
    for y1, y0, o, o1 in [(6, 4, 2, 1), (3, 3, 3, 2), (10, 2, 2, 2), (2, 10, 4, 1)]:
        got = evalue_increment(float(theta), 1.0, batch(y1, y0, o, o1))
        want = float(exact_increment(theta, Fraction(1), y1, y0, o, o1))
        assert got == pytest.approx(want, rel=1e-12)


@given(
    y1=st.integers(0, 50),
    y0=st.integers(0, 50),
    theta=st.floats(0.01, 100.0),
    o1=st.integers(0, 1),
)
@settings(max_examples=200, deadline=None)
def test_bernoulli_matches_rational_oracle(y1, y0, theta, o1):
    if y1 + y0 == 0:
        return
    frac_theta = Fraction(theta)  # exact binary value of the float
    want = float(exact_bernoulli_prob(frac_theta, y1, y0, o1))
    got = math.exp(log_bernoulli_event_prob(theta, y1, y0, o1)) if want > 0 else 0.0
    if want == 0.0:
        assert log_bernoulli_event_prob(theta, y1, y0, o1) == -math.inf
    else:
        assert got == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# structural properties of the kernels
# ---------------------------------------------------------------------------

@given(
    y1=st.integers(1, 40),
    y0=st.integers(1, 40),
    theta=st.floats(1e-3, 1e3),
)
@settings(max_examples=200, deadline=None)
def test_hypergeom_reduces_to_bernoulli_at_single_event(y1, y0, theta):
    b = batch(y1, y0, 1, 1)
    via_hg = hypergeom_event_prob(theta, b)
    via_bern = bernoulli_event_prob(theta, RiskSet(y1, y0), 1)
    assert abs(via_hg - via_bern) <= 1e-14


@given(
    y1=st.integers(0, 40),
    y0=st.integers(0, 40),
    o=st.integers(1, 10),
    theta=st.floats(1e-4, 1e4),
)
@settings(max_examples=300, deadline=None)
def test_pmf_normalizes(y1, y0, o, theta):
    if o > y1 + y0:
        return
    _, logp = log_hypergeom_pmf(theta, y1, y0, o)
    assert abs(np.exp(logp).sum() - 1.0) <= 1e-12


@given(
    y1=st.integers(1, 30),
    y0=st.integers(1, 30),
    o=st.integers(1, 5),
    theta1=st.floats(1e-2, 1e2),
)
@settings(max_examples=300, deadline=None)
def test_increment_has_unit_null_expectation(y1, y0, o, theta1):
    """sum over the support of q_theta0 * (q_theta1/q_theta0) == 1 exactly:
    the defining e-variable property, and a sharp one (equality, not <=)."""
    if o > y1 + y0:
        return
    support, _ = log_hypergeom_pmf(1.0, y1, y0, o)
    total = sum(
        hypergeom_event_prob(1.0, batch(y1, y0, o, int(u)))
        * evalue_increment(theta1, 1.0, batch(y1, y0, o, int(u)))
        for u in support
    )
    assert abs(total - 1.0) <= 1e-12


@st.composite
def _tied_batches(draw):
    """Columns of up to 40 batches, ties and forced batches included."""
    rows = []
    for _ in range(draw(st.integers(1, 40))):
        y1, y0 = draw(st.integers(0, 60)), draw(st.integers(0, 60))
        if y1 + y0 == 0:
            y1 = 1
        o = draw(st.integers(1, min(y1 + y0, 25)))
        o1 = draw(st.integers(max(0, o - y0), min(o, y1)))
        rows.append((y1, y0, o, o1))
    y1, y0, o, o1 = (np.array(c, dtype=np.int64) for c in zip(*rows))
    return EventStream(np.arange(1.0, len(rows) + 1.0), y1, y0, o, o1)


def _per_row_kernel(stream, theta):
    out = []
    for y1, y0, o, o1 in zip(*(c.tolist() for c in (stream.y1, stream.y0, stream.o, stream.o1))):
        support, logp = log_hypergeom_pmf(theta, y1, y0, o)
        out.append(0.0 if support.size == 1 else float(logp[o1 - support[0]]))
    return np.array(out)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    stream=_tied_batches(),
    thetas=st.lists(
        st.one_of(st.sampled_from([1e-8, 1e8, 1.0]), st.floats(1e-8, 1e8)), min_size=1, max_size=6
    ),
)
def test_vectorized_tied_kernel_matches_per_row_pmf(stream, thetas):
    """``log_kernel``'s blocked padded-support evaluation equals the per-row
    Fisher noncentral hypergeometric log-pmf for a scalar, a per-row and an
    ``(n, G)`` theta, forced batches and the admissible extremes included."""
    log_t = np.log(thetas)
    want = np.stack([_per_row_kernel(stream, t) for t in thetas], axis=1)
    grid = log_kernel(stream, np.broadcast_to(log_t, (stream.o.size, log_t.size)))
    assert grid.shape == want.shape
    assert np.allclose(grid, want, rtol=0, atol=1e-12)
    assert np.allclose(log_kernel(stream, log_t[None, :]), want, rtol=0, atol=1e-12)
    assert np.allclose(log_kernel(stream, log_t[0]), want[:, 0], rtol=0, atol=1e-12)
    per_row = np.resize(log_t, stream.o.size)
    got = log_kernel(stream, per_row)
    idx = np.resize(np.arange(log_t.size), stream.o.size)
    assert np.allclose(got, want[np.arange(stream.o.size), idx], rtol=0, atol=1e-12)
    forced = np.maximum(0, stream.o - stream.y0) == np.minimum(stream.o, stream.y1)
    assert np.all(grid[forced] == 0.0)
    # blocks of a handful of cells: many blocks, each padded to its own width
    cells, core._TIE_CELLS = core._TIE_CELLS, 16
    try:
        small = log_kernel(stream, np.broadcast_to(log_t, (stream.o.size, log_t.size)))
    finally:
        core._TIE_CELLS = cells
    assert np.allclose(small, want, rtol=0, atol=1e-12)


def test_forced_batches_short_circuit_to_exactly_zero():
    # control group exhausted: all o events must be treatment events
    assert log_evalue_increment(0.7, 1.0, batch(5, 0, 2, 2)) == 0.0
    # treatment exhausted
    assert log_evalue_increment(0.7, 1.0, batch(0, 4, 1, 0)) == 0.0
    # o == total: everyone fails at once, split is forced
    assert log_evalue_increment(13.0, 1.0, batch(3, 2, 5, 3)) == 0.0


def test_extreme_theta_stays_finite():
    b = batch(1000, 1000, 3, 2)
    for theta in (1e-8, 1e8):
        val = log_evalue_increment(theta, 1.0, b)
        assert math.isfinite(val)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_theta_range_is_enforced():
    for bad in (0.0, -1.0, 1e-9, 1e9, math.nan, math.inf):
        with pytest.raises(ValueError):
            validate_theta(bad)
    assert validate_theta(1e-8) == 1e-8
    assert validate_theta(1e8) == 1e8


def test_batch_rejects_o1_outside_support():
    with pytest.raises(ValueError):
        batch(2, 2, 3, 0)  # needs at least 3-2=1 treatment event
    with pytest.raises(ValueError):
        batch(2, 2, 1, 2)
    with pytest.raises(ValueError):
        batch(2, 2, 0, 0)  # a batch must contain an event
    with pytest.raises(ValueError):
        batch(2, 2, 5, 2)  # more events than participants


def test_risk_set_rejects_negative_and_noninteger():
    with pytest.raises(ValueError):
        RiskSet(-1, 3)
    with pytest.raises(ValueError):
        RiskSet(1.5, 3)  # type: ignore[arg-type]


def test_state_invariants():
    with pytest.raises(ValueError):
        MartingaleState(log_e=math.inf)
    with pytest.raises(ValueError):
        MartingaleState(n_events=1, n_event_times=2)


# ---------------------------------------------------------------------------
# martingale state updates
# ---------------------------------------------------------------------------

def test_update_counts_events_and_event_times():
    state = MartingaleState()
    state = update_martingale(state, batch(10, 10, 2, 1), 0.7)
    state = update_martingale(state, batch(9, 9, 1, 0), 0.7)
    assert state.n_events == 3
    assert state.n_event_times == 2


def test_update_matches_brute_force_product():
    rng = np.random.default_rng(7)
    y1, y0 = 20, 15
    state = MartingaleState()
    plain = 1.0
    for _ in range(30):
        if y1 + y0 < 2 or y1 == 0 or y0 == 0:
            break
        o = int(rng.integers(1, 3))
        lo, hi = max(0, o - y0), min(o, y1)
        o1 = int(rng.integers(lo, hi + 1))
        b = batch(y1, y0, o, o1)
        state = update_martingale(state, b, 0.7)
        plain *= evalue_increment(0.7, 1.0, b)
        y1, y0 = y1 - o1, y0 - (o - o1)
    assert state.evalue == pytest.approx(plain, rel=1e-10)


def test_trace_prefix_property():
    batches = [batch(10, 10, 1, 1), batch(9, 10, 2, 1), batch(8, 9, 1, 0)]
    full = log_evalue_trace(batches, 0.7)
    prefix = log_evalue_trace(batches[:2], 0.7)
    assert np.allclose(full[:2], prefix, rtol=0, atol=0)


def test_crossed_threshold():
    s = MartingaleState(log_e=math.log(20.0) + 1e-12, n_events=5, n_event_times=5)
    assert s.crossed(0.05)
    assert not MartingaleState(log_e=math.log(19.0), n_events=5, n_event_times=5).crossed(0.05)


# ---------------------------------------------------------------------------
# two-sided mixture
# ---------------------------------------------------------------------------

def test_two_sided_single_control_event_is_uninformative():
    # theta_min=0.5 after one control event, balanced: (4/3 + 2/3)/2 == 1
    state = update_two_sided(MartingaleState(), batch(10, 10, 1, 0), theta_min=0.5)
    assert state.evalue == pytest.approx(1.0, abs=1e-14)
    left, right = state.components
    assert math.exp(left) == pytest.approx(4 / 3, rel=1e-13)
    assert math.exp(right) == pytest.approx(2 / 3, rel=1e-13)


def test_two_sided_components_kept_separate_until_readout():
    rng = np.random.default_rng(3)
    state = MartingaleState()
    left_only = MartingaleState()
    right_only = MartingaleState()
    y1, y0 = 30, 30
    for _ in range(25):
        o1 = int(rng.integers(0, 2))
        if (o1 and y1 == 0) or (not o1 and y0 == 0):
            o1 = 1 - o1
        b = batch(y1, y0, 1, o1)
        state = update_two_sided(state, b, theta_min=0.5)
        left_only = update_martingale(left_only, b, 0.5)
        right_only = update_martingale(right_only, b, 2.0)
        y1, y0 = y1 - o1, y0 - (1 - o1)
    assert state.components[0] == pytest.approx(left_only.log_e, abs=1e-12)
    assert state.components[1] == pytest.approx(right_only.log_e, abs=1e-12)
    assert two_sided_state(left_only, right_only) == pytest.approx(state.evalue, rel=1e-12)


def test_two_sided_state_rejects_mismatched_histories():
    a = MartingaleState(log_e=0.1, n_events=3, n_event_times=3)
    b = MartingaleState(log_e=0.1, n_events=4, n_event_times=4)
    with pytest.raises(ValueError):
        two_sided_state(a, b)


def test_one_sided_update_refuses_two_sided_state():
    s = update_two_sided(MartingaleState(), batch(5, 5, 1, 0), 0.5)
    with pytest.raises(ValueError):
        update_martingale(s, batch(5, 4, 1, 0), 0.5)


# ---------------------------------------------------------------------------
# meta-analysis combination
# ---------------------------------------------------------------------------

def test_meta_combine_is_the_product():
    s1 = MartingaleState(log_e=math.log(20.0), n_events=10, n_event_times=10)
    s2 = MartingaleState(log_e=0.0, n_events=4, n_event_times=4)
    assert meta_combine([s1, s2]) == pytest.approx(20.0, rel=1e-12)


def test_meta_combine_interim_then_continue_equals_final_combination():
    """Combining at an interim look, continuing one trial, and recombining
    gives the same answer as combining the final states directly."""
    batches_a = [batch(10, 10, 1, 1), batch(9, 10, 1, 0), batch(9, 9, 2, 1)]
    batches_b = [batch(8, 8, 1, 0), batch(8, 7, 1, 1)]
    run = lambda bs, n: _run(bs[:n])
    interim_a, final_a = run(batches_a, 2), run(batches_a, 3)
    final_b = run(batches_b, 2)
    _ = meta_combine([interim_a, final_b])  # interim look, then trial A continues
    continued_a = update_martingale(interim_a, batches_a[2], 0.7)
    assert meta_combine([continued_a, final_b]) == pytest.approx(
        meta_combine([final_a, final_b]), rel=1e-12
    )


def _run(batches, theta1=0.7):
    state = MartingaleState()
    for b in batches:
        state = update_martingale(state, b, theta1)
    return state


# ---------------------------------------------------------------------------
# score components
# ---------------------------------------------------------------------------

def _random_tied_batches(rng, n_times=12, y1=25, y0=20):
    out = []
    while len(out) < n_times and y1 + y0 >= 2 and y1 > 0 and y0 > 0:
        o = int(rng.integers(1, min(4, y1 + y0) + 1))
        lo, hi = max(0, o - y0), min(o, y1)
        o1 = int(rng.integers(lo, hi + 1))
        out.append(batch(y1, y0, o, o1))
        y1, y0 = y1 - o1, y0 - (o - o1)
    return out


def test_score_at_null_equals_logrank_sums():
    rng = np.random.default_rng(11)
    batches = _random_tied_batches(rng)
    got = score_components(batches, beta=0.0)
    score = 0.0
    info = 0.0
    for b in batches:
        y, y1, o = b.risk.total, b.risk.y1, b.o
        a1 = y1 / y
        score += b.o1 - o * a1
        v = o * a1 * (1 - a1) * (y - o) / (y - 1) if y > 1 else 0.0
        info += v
    assert got.score == pytest.approx(score, abs=1e-12)
    assert got.information == pytest.approx(info, abs=1e-12)


@pytest.mark.parametrize("beta", [0.0, -0.35, 0.5])
def test_score_matches_finite_differences(beta):
    rng = np.random.default_rng(23)
    batches = _random_tied_batches(rng)
    h = 1e-5
    ll = lambda b_: log_likelihood(batches, math.exp(b_))
    fd_score = (ll(beta + h) - ll(beta - h)) / (2 * h)
    fd_info = -(ll(beta + h) - 2 * ll(beta) + ll(beta - h)) / h**2
    got = score_components(batches, beta=beta)
    assert got.score == pytest.approx(fd_score, rel=1e-6, abs=1e-6)
    assert got.information == pytest.approx(fd_info, rel=1e-4, abs=1e-4)
