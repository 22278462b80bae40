"""Tests for the Monte Carlo engine: samplers, stopping times, design sizing."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safelogrank.core import log_evalue_trace
from safelogrank.simulate import (
    DesignSpec,
    SimScenario,
    UnattainablePowerError,
    _BLOCK,
    design_table,
    estimate_nmax,
    estimate_obf_nmax,
    sample_single_event_stream,
    sample_tied_stream,
    schoenfeld_sample_size,
    simulate_stopping_times,
    stream_rng,
    summarize_stopping,
    wald_expected_stopping,
)

from oracles import (
    bootstrap_nmax,
    compare_exact_gaussian,
    exact_increment,
    obf_stopping_times,
    obf_z_paths,
    sample_single_event_stream_loop,
    sample_tied_stream_binomial,
    stopping_time,
    stopping_times_per_stream,
    unit_time_martingale,
)

LOG20 = math.log(20.0)


def columns(stream):
    """The columns of a stream as lists, for comparing streams."""
    return [c.tolist() for c in (stream.times, stream.y1, stream.y0, stream.o, stream.o1)]


def rows(stream):
    return list(zip(*columns(stream)[1:]))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_single_event_stream_accounting():
    stream = sample_single_event_stream(3, 2, 1.0, stream_rng(11, 0))
    assert stream.times.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    y1, y0 = 3, 2
    for b_y1, b_y0, o, o1 in rows(stream):
        assert o == 1
        assert (b_y1, b_y0) == (y1, y0)
        y1 -= o1
        y0 -= 1 - o1
    assert (y1, y0) == (0, 0)


def test_single_event_stream_respects_cap():
    stream = sample_single_event_stream(50, 50, 0.7, stream_rng(0, 3), max_events=12)
    assert len(stream.o) == 12


@pytest.mark.parametrize(
    "m1,m0,theta,max_events",
    [(3, 2, 1.0, None), (300, 250, 0.7, None), (400, 400, 1.3, 2 * _BLOCK + 37), (900, 20, 0.4, _BLOCK)],
)
def test_single_event_stream_matches_the_per_event_loop(m1, m0, theta, max_events):
    # block draws of uniforms give the same events as one draw per stream
    for rep in range(3):
        got = sample_single_event_stream(m1, m0, theta, stream_rng(61, rep), max_events)
        want = sample_single_event_stream_loop(m1, m0, theta, stream_rng(61, rep), max_events)
        assert columns(got) == columns(want)


def test_stream_rng_is_keyed_per_replication():
    a, b, c = (
        columns(sample_single_event_stream(20, 20, 0.5, stream_rng(7, r))) for r in (4, 4, 5)
    )
    assert a == b
    assert a != c


@settings(max_examples=25, deadline=None)
@given(
    m1=st.integers(1, 30),
    m0=st.integers(1, 30),
    theta=st.sampled_from([0.5, 0.8, 1.0, 1.6]),
    h0=st.sampled_from([0.05, 0.2]),
    rep=st.integers(0, 5),
)
def test_tied_stream_accounting(m1, m0, theta, h0, rep):
    if h0 * max(theta, 1.0) >= 1.0:
        return
    stream = sample_tied_stream(m1, m0, theta, h0, stream_rng(3, rep))
    y1, y0 = m1, m0
    # event times are the distinct unit intervals with events, in order
    assert np.all(np.diff(stream.times) >= 1) and stream.times[0] >= 1
    for b_y1, b_y0, o, o1 in rows(stream):
        assert (b_y1, b_y0) == (y1, y0)
        assert o1 <= y1 and o - o1 <= y0
        y1 -= o1
        y0 -= o - o1
    # no horizon given, so the stream runs to exhaustion
    assert (y1, y0) == (0, 0)
    assert stream.o.sum() == m1 + m0


def test_tied_stream_horizon_truncates():
    stream = sample_tied_stream(100, 100, 0.7, 0.01, stream_rng(5, 0), horizon=25)
    assert stream.times[-1] <= 25
    assert stream.o.sum() < 200


def test_tied_stream_rejects_certain_events():
    with pytest.raises(ValueError):
        sample_tied_stream(5, 5, 2.0, 0.6, stream_rng(0, 0))


def test_geometric_tied_sampler_has_the_binomial_law():
    """The geometric sampler draws each participant's event interval; the
    oracle draws binomial counts interval by interval.  Same law: mean
    events in the first intervals within 4 standard errors of the exact
    value for both, and stopping times of the exact test alike (two-sample
    KS statistic below 0.16, about the 0.1% critical value for 250 vs 250)."""
    from scipy.stats import ks_2samp

    m, theta, h0, reps, intervals = 100, 0.6, 0.02, 250, 10
    design = DesignSpec(theta1=0.6)
    q1, q0 = h0 * theta, h0
    k = np.arange(1, intervals + 1)
    p1, p0 = (1 - q1) ** (k - 1) * q1, (1 - q0) ** (k - 1) * q0
    expected = {"treatment": m * p1.sum(), "all": m * (p1.sum() + p0.sum())}
    variance = {
        "treatment": m * p1.sum() * (1 - p1.sum()),
        "all": m * p1.sum() * (1 - p1.sum()) + m * p0.sum() * (1 - p0.sum()),
    }
    taus = {}
    for name, sampler, seed in (
        ("geometric", sample_tied_stream, 71),
        ("binomial", sample_tied_stream_binomial, 72),
    ):
        counts = {"treatment": [], "all": []}
        taus[name] = []
        for r in range(reps):
            stream = sampler(m, m, theta, h0, stream_rng(seed, r))
            early = stream.times <= intervals
            counts["treatment"].append(stream.o1[early].sum())
            counts["all"].append(stream.o[early].sum())
            trace = log_evalue_trace(stream, 0.6)
            n = np.cumsum(stream.o)
            hits = np.flatnonzero(trace >= design.log_threshold)
            taus[name].append(n[hits[0]] if hits.size else math.inf)
        for key, values in counts.items():
            se = math.sqrt(variance[key] / reps)
            assert abs(np.mean(values) - expected[key]) <= 4 * se, (name, key, np.mean(values))
    assert np.array_equal(
        taus["geometric"],
        simulate_stopping_times(
            SimScenario(m1=m, m0=m, theta=theta, design=design, replications=reps, seed=71, tie_h0=h0)
        ),
    )
    a, b = (np.array(taus[k]) for k in ("geometric", "binomial"))
    assert ks_2samp(a[np.isfinite(a)], b[np.isfinite(b)]).statistic < 0.16


# ---------------------------------------------------------------------------
# per-stream stopping times
# ---------------------------------------------------------------------------

def test_stopping_time_matches_manual_trace():
    rng = stream_rng(21, 0)
    stream = sample_single_event_stream(80, 80, 0.4, rng)
    design = DesignSpec(theta1=0.5, alpha=0.05)
    trace = np.cumsum(
        [math.log(exact_increment(Fraction(0.5), Fraction(1), *row)) for row in rows(stream)]
    )
    hits = np.flatnonzero(trace >= LOG20)
    expected = float(hits[0] + 1) if hits.size else math.inf
    assert stopping_time(stream, design) == expected


def test_stopping_time_never_crossing_is_inf():
    stream = sample_single_event_stream(10, 10, 1.0, stream_rng(2, 2))
    assert stopping_time(stream, DesignSpec(theta1=0.5, alpha=1e-6)) == math.inf


def test_stopping_time_obf_ignores_events_past_horizon():
    stream = sample_single_event_stream(40, 40, 0.3, stream_rng(9, 1))
    capped = DesignSpec(theta1=0.5, test_kind="obf", n_max=10)
    wide = DesignSpec(theta1=0.5, test_kind="obf", n_max=80)
    tau_capped = stopping_time(stream, capped)
    assert tau_capped == math.inf or tau_capped <= 10
    tau_wide = stopping_time(stream, wide)
    assert tau_wide <= 80


def test_stopping_time_fixed_decides_only_at_horizon():
    stream = sample_single_event_stream(60, 60, 0.3, stream_rng(14, 0))
    design = DesignSpec(theta1=0.5, test_kind="fixed", n_max=40)
    tau = stopping_time(stream, design)
    assert tau in (40.0, math.inf)


# ---------------------------------------------------------------------------
# vectorized engine agrees with the per-stream walk
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["exact", "gaussian", "plugin"])
def test_engine_matches_per_stream(kind):
    design = DesignSpec(theta1=0.5, alpha=0.05, test_kind=kind)
    scenario = SimScenario(
        m1=40, m0=40, theta=0.45, design=design, replications=25, seed=31
    )
    fast = simulate_stopping_times(scenario)
    slow = np.array(
        [
            stopping_time(
                sample_single_event_stream(40, 40, 0.45, stream_rng(31, r)), design
            )
            for r in range(25)
        ]
    )
    if kind == "plugin":
        # independent root-finders: crossings must agree event for event
        assert np.array_equal(fast, slow), (fast, slow)
    else:
        assert np.array_equal(fast, slow)


def test_engine_chunking_is_bit_identical():
    design = DesignSpec(theta1=0.7)
    scenario = SimScenario(
        m1=100, m0=100, theta=0.6, design=design, replications=33, seed=8
    )
    whole = simulate_stopping_times(scenario, cap=120)
    chunked = simulate_stopping_times(scenario, cap=120, chunk_size=7)
    assert np.array_equal(whole, chunked)
    # a cap that ends inside a block of uniforms, on streams that outlast blocks
    cap = 2 * _BLOCK + 37
    for kind in ("exact", "plugin"):
        scenario = SimScenario(
            m1=400, m0=400, theta=0.85, design=DesignSpec(theta1=0.7, test_kind=kind),
            replications=15, seed=10,
        )
        whole = simulate_stopping_times(scenario, cap=cap)
        assert (whole[np.isfinite(whole)] > _BLOCK).any() and np.isinf(whole).any()
        assert np.array_equal(whole, simulate_stopping_times(scenario, cap=cap, chunk_size=7))
        assert np.array_equal(whole, stopping_times_per_stream(scenario, cap=cap))
    # the two-sided lockstep accumulators and the stream engine on tied streams
    for two_sided, tie_h0 in ((True, None), (False, 0.01), (True, 0.01)):
        scenario = SimScenario(
            m1=100, m0=100, theta=0.6, design=DesignSpec(theta1=0.7, two_sided=two_sided),
            replications=33, seed=8, tie_h0=tie_h0,
        )
        whole = simulate_stopping_times(scenario, cap=120)
        assert np.isfinite(whole).any()
        assert np.array_equal(whole, simulate_stopping_times(scenario, cap=120, chunk_size=7))


@pytest.mark.parametrize(
    "seed,theta1,theta",
    [(3, 0.7, 0.7), (5, 0.5, 1.6), (11, 1.4, 0.6), (19, 0.8, 1.0), (23, 0.6, 0.45)],
)
def test_two_sided_engine_matches_oracle_walk(seed, theta1, theta):
    design = DesignSpec(theta1=theta1, two_sided=True)
    scenario = SimScenario(
        m1=150, m0=120, theta=theta, design=design, replications=20, seed=seed
    )
    fast = simulate_stopping_times(scenario, cap=220)
    assert np.array_equal(fast, stopping_times_per_stream(scenario, cap=220))


@pytest.mark.parametrize("tie_h0", [None, 0.03])
@pytest.mark.parametrize(
    "kind,two_sided,n_max",
    [
        ("exact", False, None),
        ("exact", True, None),
        ("gaussian", False, None),
        ("plugin", False, None),
        ("bayes", False, None),
        ("obf", False, 70),
        ("fixed", False, 50),
    ],
)
def test_engine_matches_oracle_walk_for_every_design(kind, two_sided, n_max, tie_h0):
    design = DesignSpec(theta1=0.6, test_kind=kind, two_sided=two_sided, n_max=n_max)
    scenario = SimScenario(
        m1=60, m0=70, theta=0.5, design=design, replications=25, seed=13, tie_h0=tie_h0
    )
    fast = simulate_stopping_times(scenario)
    assert 0 < np.isfinite(fast).sum() < fast.size
    assert np.array_equal(fast, stopping_times_per_stream(scenario))


def test_tied_streams_honor_cap_and_max_events():
    design = DesignSpec(theta1=0.7)
    scenario = SimScenario(
        m1=300, m0=300, theta=0.5, design=design, replications=40, seed=9, tie_h0=0.02
    )
    full = simulate_stopping_times(scenario)
    assert (full[np.isfinite(full)] > 60).any()
    capped = simulate_stopping_times(scenario, cap=60)
    assert np.array_equal(capped, np.where(full <= 60, full, np.inf))
    limited = SimScenario(
        m1=300, m0=300, theta=0.5, design=design, replications=40, seed=9, tie_h0=0.02,
        max_events=60,
    )
    assert np.array_equal(simulate_stopping_times(limited), capped)
    assert np.array_equal(capped, stopping_times_per_stream(scenario, cap=60))


def test_engine_rerun_is_deterministic():
    design = DesignSpec(theta1=0.5, test_kind="plugin")
    scenario = SimScenario(
        m1=50, m0=50, theta=0.5, design=design, replications=12, seed=4
    )
    assert np.array_equal(
        simulate_stopping_times(scenario), simulate_stopping_times(scenario)
    )


def test_compare_exact_gaussian_records_gap_at_stop():
    design = DesignSpec(theta1=0.7)
    scenario = SimScenario(
        m1=400, m0=400, theta=0.6, design=design, replications=30, seed=17
    )
    cmp = compare_exact_gaussian(scenario, cap=500)
    stopped = np.isfinite(cmp.tau_exact)
    assert stopped.any()
    gaps = cmp.dlog_at_exact_stop[stopped]
    assert np.all(np.isfinite(gaps))
    # balanced design, mild hazard ratio: the approximation tracks closely
    assert np.max(gaps) < 0.05
    assert np.all(np.isnan(cmp.dlog_at_exact_stop[~stopped]))


# ---------------------------------------------------------------------------
# design sizing and summaries
# ---------------------------------------------------------------------------

def test_estimate_nmax_is_an_order_statistic():
    taus = np.arange(1.0, 101.0)
    assert estimate_nmax(taus, 0.8) == 80
    assert estimate_nmax(taus, 0.999) == 100


def test_estimate_nmax_unattainable():
    taus = np.array([10.0, 20.0, math.inf])
    with pytest.raises(UnattainablePowerError):
        estimate_nmax(taus, 0.8)


def test_summarize_stopping_truncates_at_horizon():
    report = summarize_stopping(np.array([10.0, 20.0, math.inf]), 30)
    assert report.mean_capped == pytest.approx(20.0)
    assert report.conditional_mean == pytest.approx(15.0)
    assert report.power == pytest.approx(2.0 / 3.0)
    assert report.n_max == 30
    assert report.replications == 3


def test_bootstrap_nmax_brackets_the_point_estimate():
    rng = np.random.Generator(np.random.Philox(2))
    taus = rng.geometric(1.0 / 150.0, size=400).astype(float)
    point = estimate_nmax(taus, 0.8)
    lo, hi = bootstrap_nmax(taus, 0.8, rounds=300, seed=1)
    assert lo <= point <= hi
    assert hi - lo < point  # sane width for n = 400


@pytest.mark.parametrize(
    "theta1,n",
    [(0.5, 52), (0.6, 95), (0.7, 195), (0.8, 497), (0.9, 2228)],
)
def test_schoenfeld_sample_size_frozen_values(theta1, n):
    assert schoenfeld_sample_size(theta1, alpha=0.05, beta=0.2) == n


def test_schoenfeld_sample_size_rejects_null_alternative():
    with pytest.raises(ValueError):
        schoenfeld_sample_size(1.0)


def test_wald_expected_stopping_frozen_value():
    # log(20) divided by the per-event Bernoulli(7/17) vs Bernoulli(1/2)
    # relative entropy, balanced groups
    value = wald_expected_stopping(0.7, 0.7, 1000, 1000, alpha=0.05)
    assert value == pytest.approx(191.3866, abs=0.05)


def test_wald_expected_stopping_needs_positive_drift():
    with pytest.raises(ValueError):
        wald_expected_stopping(1.0, 0.7, 100, 100)


def test_wald_tracks_monte_carlo_mean():
    design = DesignSpec(theta1=0.7)
    scenario = SimScenario(
        m1=4000, m0=4000, theta=0.7, design=design, replications=400, seed=23
    )
    taus = simulate_stopping_times(scenario, cap=2500)
    assert np.isfinite(taus).all()
    predicted = wald_expected_stopping(0.7, 0.7, 4000, 4000)
    # Wald ignores overshoot and risk-set drift; agreement is approximate
    assert abs(taus.mean() - predicted) / predicted < 0.15


# ---------------------------------------------------------------------------
# O'Brien-Fleming sizing
# ---------------------------------------------------------------------------

def test_obf_stopping_times_manual_paths():
    # the oracle scan that the O'Brien-Fleming sizing is checked against
    # Z * sqrt(n) paths; boundary for n_max = 4 at level 0.05 is
    # -1.96 * sqrt(4) = -3.92 on the scaled axis.
    z_scaled = np.array(
        [
            [-1.0, -2.0, -4.0, -4.5],  # crosses at n = 3
            [-1.0, -1.5, -2.0, -2.5],  # never crosses
            [-5.0, -1.0, -1.0, -1.0],  # crosses immediately
        ]
    )
    taus = obf_stopping_times(z_scaled, n_max=4, alpha=0.05, side="left")
    assert taus[0] == 3.0
    assert taus[1] == math.inf
    assert taus[2] == 1.0


def test_estimate_obf_nmax_matches_its_own_paths():
    design = DesignSpec(theta1=0.5, alpha=0.05, power=0.8)
    scenario = SimScenario(
        m1=300, m0=300, theta=0.5, design=design, replications=300, seed=6
    )
    h, taus = estimate_obf_nmax(scenario, cap=150)
    assert 1 <= h <= 150
    z_scaled = obf_z_paths(scenario, cap=150)
    assert np.array_equal(taus, obf_stopping_times(z_scaled, h, 0.05, "left"))
    power_at_h = np.mean(np.isfinite(obf_stopping_times(z_scaled, h, 0.05, "left")))
    assert power_at_h >= 0.8
    if h > 1:
        power_below = np.mean(
            np.isfinite(obf_stopping_times(z_scaled, h - 1, 0.05, "left"))
        )
        assert power_below < 0.8


def test_estimate_obf_nmax_unattainable_under_null():
    design = DesignSpec(theta1=0.5, alpha=0.05, power=0.8)
    scenario = SimScenario(
        m1=100, m0=100, theta=1.0, design=design, replications=100, seed=12
    )
    with pytest.raises(UnattainablePowerError):
        estimate_obf_nmax(scenario, cap=60)


@pytest.mark.parametrize("theta1,side", [(0.7, "left"), (1.5, "right")])
def test_unattained_obf_power_reports_the_crossing_fraction(theta1, side):
    # under the null neither side reaches the power; ``achieved`` is the
    # fraction of streams that cross the boundary of the longest horizon
    # (on the left it is 0.06 at 98 events and 0.055 at 99 and 100)
    design = DesignSpec(theta1=theta1)
    scenario = SimScenario(m1=200, m0=200, theta=1.0, design=design, replications=200, seed=0)
    z_scaled = obf_z_paths(scenario, 100)
    for cap in (99, 100):
        with pytest.raises(UnattainablePowerError) as err:
            estimate_obf_nmax(scenario, cap=cap)
        crossed = np.isfinite(obf_stopping_times(z_scaled, cap, 0.05, side))
        assert 0 < crossed.mean() < 0.8
        assert err.value.achieved == crossed.mean()


# ---------------------------------------------------------------------------
# unit-time view
# ---------------------------------------------------------------------------

def test_unit_time_martingale_agrees_at_event_times():
    stream = sample_tied_stream(60, 60, 0.7, 0.02, stream_rng(19, 0))
    horizon = int(stream.times[-1]) + 5
    log_u = unit_time_martingale(stream, horizon, theta1=0.7)
    assert log_u.shape == (horizon,)
    trace = log_evalue_trace(stream, 0.7)
    for cum, t in zip(trace, stream.times.astype(int)):
        assert log_u[t - 1] == pytest.approx(cum, abs=1e-12)
    # flat wherever nothing happened
    event_units = set(stream.times.astype(int).tolist())
    previous = 0.0
    for k in range(1, horizon + 1):
        if k not in event_units:
            assert log_u[k - 1] == previous
        previous = log_u[k - 1]


# ---------------------------------------------------------------------------
# stopping-time distributions
# ---------------------------------------------------------------------------

def test_stopping_distribution_insensitive_to_tie_coarseness():
    # the same truth observed continuously or pooled into coarse unit times
    # should stop after a similar number of events
    from scipy.stats import ks_2samp

    design = DesignSpec(theta1=0.7)
    single = SimScenario(
        m1=800, m0=800, theta=0.7, design=design, replications=300, seed=41
    )
    tied = SimScenario(
        m1=800,
        m0=800,
        theta=0.7,
        design=design,
        replications=300,
        seed=42,
        tie_h0=0.005,
    )
    tau_single = simulate_stopping_times(single, cap=900)
    tau_tied = simulate_stopping_times(tied)
    both_finite = np.isfinite(tau_single).mean() > 0.9 and np.isfinite(tau_tied).mean() > 0.9
    assert both_finite
    stat = ks_2samp(
        tau_single[np.isfinite(tau_single)], tau_tied[np.isfinite(tau_tied)]
    ).statistic
    assert stat < 0.12


# ---------------------------------------------------------------------------
# design table
# ---------------------------------------------------------------------------

def test_design_table_at_cli_defaults_keeps_memory_bounded():
    # the lockstep loop holds a block of uniforms per replication, not the
    # (replications, cap) array of 80 MB at these settings
    import tracemalloc

    tracemalloc.start()
    try:
        table = design_table(0.7, 5000, 5000, replications=1000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [row.test_kind for row in table["rows"]] == ["exact", "fixed-classical"]
    assert peak < 16 * 2**20, peak


def test_design_table_structure():
    table = design_table(
        0.5,
        200,
        200,
        replications=150,
        seed=2,
        kinds=("exact",),
        cap=160,
        include_obf=True,
        obf_cap=120,
    )
    assert table["n_fixed"] == 52
    kinds = [row.test_kind for row in table["rows"]]
    assert kinds == ["exact", "obrien-fleming", "fixed-classical"]
    fixed = table["rows"][-1]
    assert fixed.ratio_n_max == 1.0 and fixed.mean_capped == 52.0
    for row in table["rows"]:
        assert row.n_max >= 1
        assert 0.0 < row.power <= 1.0
        assert row.mean_capped <= row.n_max
    exact = table["rows"][0]
    assert exact.power >= 0.8
    # sequential designs buy early stopping: mean duration under the
    # alternative beats the fixed design even though n_max is larger
    assert exact.mean_capped < table["n_fixed"]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_design_spec_validation():
    with pytest.raises(ValueError):
        DesignSpec(theta1=0.7, alpha=1.5)
    with pytest.raises(ValueError):
        DesignSpec(theta1=0.7, power=0.04)
    with pytest.raises(ValueError):
        DesignSpec(theta1=0.7, test_kind="sprt")
    with pytest.raises(ValueError):
        DesignSpec(theta1=0.7, test_kind="obf")  # no horizon
    with pytest.raises(ValueError):
        DesignSpec(theta1=1.0)  # same as the null


def test_scenario_validation():
    design = DesignSpec(theta1=0.7)
    with pytest.raises(ValueError):
        SimScenario(m1=0, m0=10, theta=0.7, design=design)
    with pytest.raises(ValueError):
        SimScenario(m1=10, m0=10, theta=0.7, design=design, replications=0)
    with pytest.raises(ValueError):
        SimScenario(m1=10, m0=10, theta=2.0, design=design, tie_h0=0.6)
    with pytest.raises(ValueError):
        SimScenario(m1=10, m0=10, theta=0.7, design=design, max_events=0)


@pytest.mark.parametrize("cap", [0, -5])
def test_caps_below_one_are_refused(cap):
    scenario = SimScenario(m1=10, m0=10, theta=0.7, design=DesignSpec(theta1=0.7), replications=5)
    with pytest.raises(ValueError, match="cap"):
        simulate_stopping_times(scenario, cap=cap)
    with pytest.raises(ValueError, match="cap"):
        design_table(0.7, 10, 10, replications=5, cap=cap)
    with pytest.raises(ValueError, match="obf_cap"):
        design_table(0.7, 10, 10, replications=5, include_obf=True, obf_cap=cap)
