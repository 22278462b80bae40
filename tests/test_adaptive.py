"""Tests for plug-in and Bayes e-processes and confidence sequences."""

from __future__ import annotations

import collections
import functools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from safelogrank import adaptive, core
from safelogrank.core import EventStream, _ascending_sum, log_kernel
from safelogrank.simulate import sample_single_event_stream, stream_rng
from safelogrank.adaptive import (
    _RADIUS,
    PriorSpec,
    _PluginFit,
    _SeriesTerm,
    _bayes_stream_numerators,
    _moments_about,
    _plugin_betas,
    _plugin_log_numerators,
    _stream_betas,
    _radius,
    _series,
    _tied_series,
    bayes_log_trace,
    confidence_sequence,
    default_theta_grid,
    plugin_estimates,
    plugin_log_trace,
    plugin_newton,
)

import oracles
from oracles import exact_hypergeom_pmf, grid_argmax, sample_tied_stream, stream_of


def log_q(theta, row) -> float:
    """log q_theta(o1 | batch) of one ``(y1, y0, o, o1)`` row, from the
    exact rational pmf."""
    y1, y0, o, o1 = row
    return math.log(exact_hypergeom_pmf(Fraction(theta), y1, y0, o)[o1])


def forced(row) -> bool:
    y1, y0, o, _ = row
    return max(0, o - y0) == min(o, y1)


def plugin_numerators(stream, theta0=1.0):
    """The plug-in trace's log numerators and the null's log denominators."""
    if not stream.o.size:
        return np.zeros(0), np.zeros(0)
    return _plugin_log_numerators(stream, _stream_betas(stream)[:-1], theta0)


def _single_event_rows(theta, m1, m0, n, seed):
    """Simple private sampler so these tests do not depend on the sim module."""
    rng = np.random.default_rng(seed)
    y1, y0 = m1, m0
    out = []
    for _ in range(n):
        if y1 + y0 == 0:
            break
        p1 = theta * y1 / (y0 + theta * y1)
        o1 = int(rng.random() < p1)
        out.append((y1, y0, 1, o1))
        y1, y0 = y1 - o1, y0 - (1 - o1)
    return out


def _single_event_stream(theta, m1, m0, n, seed):
    return stream_of(_single_event_rows(theta, m1, m0, n, seed))


# ---------------------------------------------------------------------------
# plug-in estimator
# ---------------------------------------------------------------------------

def bayes_predictive_log_increment(prior, history, row, theta0=1.0):
    """One predictive increment given the prior and the strictly-past
    history, computed afresh from the prior."""
    if forced(row):
        return 0.0
    log_num = _bayes_stream_numerators(stream_of([*history, row]), prior)
    return float(log_num[-1]) - log_q(theta0, row)


def test_plugin_initial_estimate_is_one_when_balanced():
    for m in (1, 5, 100):
        assert plugin_estimates(stream_of([]), m, m)[0] == pytest.approx(1.0, abs=1e-9)


def test_plugin_estimates_of_no_events_need_the_initial_risk_set():
    # the virtual events are anchored at the first batch's risk set unless
    # m1 and m0 are given; with no batch that read was an IndexError
    with pytest.raises(ValueError, match="no events needs m1 and m0"):
        plugin_estimates(stream_of([]))
    with pytest.raises(ValueError, match="no events needs m1 and m0"):
        plugin_estimates(stream_of([]), m1=12)
    assert plugin_estimates(stream_of([]), 12, 12).tolist() == [1.0]


def test_plugin_initial_estimate_unbalanced_is_finite_interior():
    th = plugin_estimates(stream_of([]), 30, 10)[0]
    assert 1e-8 < th < 1e8


def test_plugin_matches_dense_grid_search():
    rows = [(10, 10, 1, 0), (10, 9, 1, 0), (10, 8, 2, 1), (9, 7, 1, 0), (9, 6, 1, 1)]
    theta_hat = plugin_estimates(stream_of(rows), 10, 10)[-1]

    # the smoothed likelihood: the history plus the two virtual events
    virtual = [(11, 10, 1, 1), (10, 11, 1, 0)]
    smoothed = stream_of(rows + virtual)

    def smoothed_loglik(thetas):
        return log_kernel(smoothed, np.log(thetas)[None, :]).sum(axis=0)

    oracle = grid_argmax(smoothed_loglik, 1e-4, 1e4)
    assert theta_hat == pytest.approx(oracle, rel=1e-6)
    assert smoothed_loglik(np.array([theta_hat]))[0] == pytest.approx(
        sum(log_q(theta_hat, row) for row in rows + virtual), abs=1e-12
    )


def test_plugin_first_order_condition():
    rng = np.random.default_rng(42)
    reference = oracles.new_plugin_state(20, 20)
    rows = []
    y1, y0 = 20, 20
    for _ in range(15):
        o1 = int(rng.random() < y1 / (y1 + y0))
        rows.append((y1, y0, 1, o1))
        reference = oracles.plugin_update(reference, rows[-1])
        y1, y0 = y1 - o1, y0 - (1 - o1)
    theta_hat = plugin_estimates(stream_of(rows), 20, 20)[-1]
    assert abs(reference.smoothed_score(math.log(theta_hat))) <= 1e-6


def test_plugin_estimate_is_consistent():
    stream = _single_event_stream(0.5, 2000, 2000, 2000, seed=1)
    theta_hat = plugin_estimates(stream, 2000, 2000)[-1]
    assert abs(theta_hat - 0.5) < 0.05


def test_plugin_increment_uses_only_the_past():
    rows = _single_event_rows(0.7, 50, 50, 40, seed=2)
    full = plugin_log_trace(stream_of(rows))
    # replacing the tail must not change any earlier increment
    mutated = rows[:30] + [r if forced(r) else (*r[:3], 1 - r[3]) for r in rows[30:]]
    head = plugin_log_trace(stream_of(mutated))[:30]
    assert np.array_equal(full[:30], head)


def test_plugin_increment_has_unit_null_expectation():
    def increment(o1):
        # the second event's factor, scored by the estimate after the first
        log_num, _ = plugin_numerators(stream_of([(12, 8, 1, 1), (11, 8, 1, o1)]))
        return log_num[1] - log_q(1.0, (11, 8, 1, o1))

    total = sum(math.exp(log_q(1.0, (11, 8, 1, o1)) + increment(o1)) for o1 in (0, 1))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_plugin_handles_ties_and_forced_batches():
    trace = plugin_log_trace(stream_of(_TIES_AND_FORCED))
    assert np.isfinite(trace).all()
    # final batch uses everyone left; forced, so it contributes nothing
    assert trace[-1] == trace[-2]


def test_plugin_trace_against_naive_reimplementation():
    """Same math, naive loop over scipy-optimized states: results must agree."""
    rows = _single_event_rows(0.6, 30, 30, 25, seed=3)
    fast = plugin_log_trace(stream_of(rows))
    state = oracles.new_plugin_state(30, 30)
    log_m = 0.0
    naive = []
    for row in rows:
        log_m += log_q(state.theta_hat, row) - log_q(1.0, row)
        naive.append(log_m)
        state = oracles.plugin_update(state, row)
    assert np.allclose(fast, naive, atol=1e-10, rtol=0)


@st.composite
def _small_streams(draw):
    """Event streams from small, possibly unbalanced risk sets, with ties,
    censoring between event times and forced batches once a group or the
    whole risk set runs out."""
    y1, y0 = draw(st.integers(1, 15)), draw(st.integers(1, 15))
    rows = []
    for _ in range(draw(st.integers(1, 25))):
        if y1 + y0 == 0:
            break
        o = draw(st.integers(1, min(4, y1 + y0)))
        o1 = draw(st.integers(max(0, o - y0), min(o, y1)))
        rows.append((y1, y0, o, o1))
        y1, y0 = y1 - o1, y0 - (o - o1)
        y1 -= draw(st.integers(0, min(1, y1)))
        y0 -= draw(st.integers(0, min(2, y0)))
    return stream_of(rows)


_TIES_AND_FORCED = [(5, 5, 2, 1), (4, 4, 3, 2), (2, 2, 1, 0), (2, 1, 3, 2)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(stream=_small_streams(), theta0=st.sampled_from([1.0, 0.7]))
@example(stream=stream_of(_TIES_AND_FORCED), theta0=1.0)
@example(stream=stream_of([(9, 2, 1, 0), (8, 2, 1, 0), (7, 2, 2, 2), (5, 2, 2, 1)]), theta0=0.7)
def test_plugin_matches_brentq_reference(stream, theta0):
    trace = plugin_log_trace(stream, theta0=theta0)
    log_num, _ = plugin_numerators(stream, theta0=theta0)
    ref_trace, ref_num, ref_thetas = oracles.plugin_reference(stream, theta0=theta0)
    assert np.allclose(trace, ref_trace, rtol=0, atol=1e-10)
    assert np.allclose(log_num, ref_num, rtol=0, atol=1e-10)
    assert np.allclose(plugin_estimates(stream), ref_thetas, rtol=1e-10, atol=0)


@st.composite
def _plugin_streams(draw):
    """Single-event and tied streams at hazard ratios 0.3-3 from unbalanced
    risk sets, and one-group streams (every event in one group, the other
    group vast) whose estimate ends at the clamp."""
    kind = draw(st.sampled_from(["single", "tied", "one-group"]))
    if kind == "one-group":
        n, vast = draw(st.integers(1, 8)), 10**9
        if draw(st.booleans()):
            return stream_of([(n - k, vast, 1, 1) for k in range(n)])
        return stream_of([(vast, n - k, 1, 0) for k in range(n)])
    theta = draw(st.floats(0.3, 3.0))
    m1, m0 = draw(st.integers(2, 60)), draw(st.integers(2, 60))
    rng = stream_rng(draw(st.integers(0, 2**16)), 0)
    if kind == "single":
        return sample_single_event_stream(m1, m0, theta, rng)
    return sample_tied_stream(m1, m0, theta, draw(st.sampled_from([0.02, 0.1, 0.3])), rng)


@st.composite
def _trace_streams(draw):
    """``_plugin_streams``, and streams of single events from risk sets in
    the thousands with a few tied batches of up to 1,500 events among them,
    whose tilted sds (up to about 15) shrink the series' radius."""
    if draw(st.booleans()):
        return draw(_plugin_streams())
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    y1, y0, rows = int(rng.integers(1500, 2500)), int(rng.integers(1500, 2500)), []
    for _ in range(draw(st.integers(1, 100))):
        o = min(int(rng.choice([1] * 30 + [2, 40, 400, 1500])), (y1 + y0) // 2)
        o1 = int(rng.hypergeometric(y1, y0, o))
        rows.append((y1, y0, o, o1))
        y1, y0 = y1 - o1, y0 - (o - o1)
        if min(y1, y0) < 10:
            break
    return stream_of(rows)


def _largest_tie(stream) -> int:
    """Events in the stream's largest tied batch, 0 if it has none."""
    return int(stream.o.max(initial=0)) if (stream.o > 1).any() else 0


def _whole_stream_fit(stream):
    """``plugin_newton``'s inputs for the fit on a whole stream: one row of
    offsets of its single events (the two virtual ones first), the
    treatment count of its informative batches, and its informative tied
    batches as ``(y1, y0, o)`` columns with their whole-support table
    (``None`` if it has none)."""
    rows = oracles.rows_of(stream)
    m1, m0 = rows[0][0], rows[0][1]
    c, o1_sum, tied = [math.log((m1 + 1) / m0), math.log(m1 / (m0 + 1))], 1.0, []
    for row in rows:
        y1, y0, o, o1 = row
        if forced(row):
            continue
        o1_sum += o1
        if o == 1:
            c.append(math.log(y1 / y0))
        else:
            tied.append(row)
    table = None
    if tied:
        y1, y0, o, _ = (np.array(col) for col in zip(*tied))
        whole = oracles.support_table(y1, y0, o)
        table = np.array([y1, y0, o]), tuple(np.ascontiguousarray(t.T, dtype=float) for t in whole)
    return np.array([c]), o1_sum, table


def _series_term(c, table, centre):
    """The package's series term for rows of offsets ``c`` that share the
    tied batches ``table``, about ``centre``; a row re-centres on all of
    them."""
    def history(r, at):
        series = _series(_moments_about(c[r], at))
        if table is None:
            return series, _RADIUS
        every = np.full(r.size, table[0].shape[1])
        tied, sd = _tied_series(table[0], np.zeros(r.size, dtype=np.int64), every, at)
        return series + tied, _radius(sd)

    series, radius = history(np.arange(centre.size), centre)
    return _SeriesTerm(series, centre.copy(), np.broadcast_to(radius, centre.shape).copy(), history)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(stream=_trace_streams())
@example(stream=stream_of(_TIES_AND_FORCED))
@example(stream=_single_event_stream(0.5, 200, 200, 400, seed=5))
@example(stream=stream_of([(2000, 2000, 1500, 700), (1300, 1200, 400, 180), (1120, 980, 2, 1)]))
def test_moment_sums_solve_like_offset_sums(stream):
    # plugin_newton on series about 0, re-centring on the way from warm
    # starts up to 4 away: at every iterate the solver visits, the series
    # term is within 1e-12 (1 + o) of the same sums taken afresh over every
    # offset and support table, and so are the roots, clamp included
    warm = np.array([-4.0, -1.0, 0.0, 0.5, 4.0])
    c, o1_sum, table = _whole_stream_fit(stream)
    c = np.repeat(c, warm.size, axis=0)
    ties = None
    if table is not None:
        u, log_w = table[1]
        ties = (np.repeat(u[None], warm.size, axis=0), np.repeat(log_w[None], warm.size, axis=0))
    exact = oracles.plugin_table_term(c, ties)
    series = _series_term(c, table, np.zeros(warm.size))
    tolerance = 1e-12 * (1 + _largest_tie(stream))

    def checked(b, active):
        got = series(b, active)
        assert np.abs(np.subtract(got, exact(b, active))[:, active]).max() <= tolerance
        return got

    reference = plugin_newton(warm, o1_sum, exact)
    assert np.abs(plugin_newton(warm, o1_sum, checked) - reference).max() <= tolerance
    y1, y0 = int(stream.y1[0]), int(stream.y0[0])
    if max(y1, y0) == 10**9:
        edge = math.log(1e8) if y0 > y1 else math.log(1e-8)
        assert np.abs(reference - edge).max() <= 1e-12


@settings(derandomize=True, max_examples=50, deadline=None)
@given(stream=_trace_streams())
@example(stream=stream_of(_TIES_AND_FORCED))
@example(stream=_single_event_stream(0.5, 200, 200, 400, seed=5))
def test_plugin_trace_matches_exact_prefix_solve(stream):
    # the trace's blocked series solve, with its block centres, carried
    # history and re-centrings, against every prefix solved on its whole
    # history: within 1e-12 (1 + o), clamp included
    got = np.log(plugin_estimates(stream))
    reference = oracles.exact_plugin_betas(stream)
    assert np.abs(got - reference).max() <= 1e-12 * (1 + _largest_tie(stream))


def _grow(fit, rows, streams, spans, drops=None):
    """Each row's estimates from ``_plugin_betas`` called on ``fit`` with
    the rows of ``streams`` that are still in, span by span; ``drops[r]``
    is the number of spans after which row r leaves, as a row of the
    engine leaves at its first crossing."""
    block = EventStream(None, *(np.array([getattr(s, c) for s in streams]) for c in ("y1", "y0", "o", "o1")))
    got, pos = [[] for _ in rows], 0
    for k, span in enumerate(spans):
        keep = np.array([r for r in range(len(rows)) if drops is None or k < drops[r]], dtype=np.int64)
        if keep.size:
            betas = _plugin_betas(fit, rows[keep], block[keep, pos : pos + span])
            for r, row in zip(keep, betas):
                got[r].extend(row if not got[r] else row[1:])
        pos += span
    return [np.array(g) for g in got]


def test_plugin_rows_grown_over_uneven_spans_match_exact_estimates():
    # five streams fitted together over spans of uneven length, some within
    # one block and some across several, against each stream's prefixes
    # solved exactly: estimates within 1e-12 through several re-centrings;
    # the control group runs out in some streams, so their later events are
    # forced
    m1, m0, thetas = 300, 250, (0.3, 0.7, 1.0, 1.6, 3.0)
    streams = [
        sample_single_event_stream(m1, m0, theta, stream_rng(7, r), max_events=500)
        for r, theta in enumerate(thetas)
    ]
    assert any((s.y0 == 0).any() for s in streams)
    spans = (1, 7, 64, 3, 100, 50, 129, 146)
    assert sum(spans) == 500
    got = _grow(_PluginFit(len(streams), m1, m0, 500), np.arange(len(streams)), streams, spans)
    for r, s in enumerate(streams):
        reference = oracles.exact_plugin_betas(s)
        assert got[r].size == reference.size
        assert np.allclose(got[r], reference, rtol=0, atol=1e-12)


def test_series_rows_keep_their_bits_alone_and_in_batches():
    # the per-event series is one matrix product; a row must get the same
    # bits alone as among 63 or 4,096 rows, or rows fitted together would
    # not match rows fitted alone
    rng = np.random.default_rng(7)
    offsets = rng.uniform(-4.0, 4.0, (4096, 1))
    moments = _moments_about(offsets, rng.uniform(-1.0, 1.0, 4096))
    whole = _series(moments)
    assert whole.shape == (4096, 2, adaptive._ORDER + 1)
    for lo in range(0, 4096, 63):
        assert np.array_equal(_series(moments[lo : lo + 63]), whole[lo : lo + 63])
    assert all(np.array_equal(_series(moments[r : r + 1]), whole[r : r + 1]) for r in range(4096))
    # the coefficients of the sum (the Taylor table's rows) and of its
    # derivative (the next rows, times the power they come from)
    taylor = adaptive._TAYLOR
    assert np.allclose(whole[:, 0], moments @ taylor[:-1].T, rtol=1e-12, atol=1e-15)
    derivative = taylor[1:] * np.arange(1.0, adaptive._ORDER + 2)[:, None]
    assert np.allclose(whole[:, 1], moments @ derivative.T, rtol=1e-12, atol=1e-15)


def test_ascending_sum_is_a_left_fold_in_any_layout():
    # every column added down its rows in order, as functools.reduce adds
    # them, for C-ordered, F-ordered, transposed and sliced tables: numpy
    # would sum a contiguous column pairwise
    rng = np.random.default_rng(11)
    for n in (*range(1, 20), 31, 64, 127, 128, 129, 200, 257, 300):
        for m in (1, 2, 3, 7, 8, 9, 16, 40):
            cells = rng.random((n, m)) * 10.0 ** rng.integers(-8, 8, (n, m))
            whole = rng.random((2 * n, 2 * m + 1))
            whole[::2, 1::2] = cells
            for table in (cells, np.asfortranarray(cells), np.ascontiguousarray(cells.T).T, whole[::2, 1::2]):
                assert np.array_equal(table, cells)
                assert np.array_equal(_ascending_sum(table), functools.reduce(np.add, cells)), (n, m)
    # any trailing shape is summed cell by cell, and one axis gives a scalar
    cube = rng.random((150, 3, 4))
    assert np.array_equal(_ascending_sum(cube.transpose(0, 2, 1)), functools.reduce(np.add, cube).T)
    assert _ascending_sum(cube[:, 0, 0]) == functools.reduce(np.add, cube[:, 0, 0])


def test_history_reads_keep_their_bits_at_any_width():
    # a re-centring read sums each row's offsets in order, so the -inf cells
    # past a row's end add exact zeros: a row read at every width from its
    # end to the whole row, alone or among rows of other ends, keeps its bits
    rng = np.random.default_rng(11)
    width = 300
    offsets = np.full((6, width), -np.inf)
    lengths = np.array([2, 9, 64, 129, 250, width])
    for row, length in enumerate(lengths):
        offsets[row, :length] = rng.uniform(-3.0, 3.0, length)
    at = rng.uniform(-1.0, 1.0, lengths.size)
    every = np.arange(lengths.size)
    together = _moments_about(offsets, at, every, lengths)
    for read in range(2, width + 1):
        fits = every[lengths <= read]
        assert np.array_equal(_moments_about(offsets[:, :read], at[fits], fits, lengths[fits]), together[fits]), read
        for row in fits:
            alone = _moments_about(offsets[:, :read], at[row : row + 1], every[row : row + 1], lengths[row : row + 1])
            assert np.array_equal(alone, together[row : row + 1]), (row, read)
            assert np.array_equal(_moments_about(offsets[row : row + 1, :read], at[row : row + 1]), alone)
    # the two virtual events of a row of a fit read among wider rows
    at, rows, ends = np.array([0.1, -0.2, 0.3]), np.array([0, 1, 1]), np.array([2, 1, 2])
    assert np.array_equal(_moments_about(offsets[:, :8], at, rows, ends), _moments_about(offsets, at, rows, ends))


def _coarse_tied_stream():
    """56,780 events in 13 tied batches from risk sets of 50,000 a group,
    the first of 32,698 events: event times as coarse as 100k records with
    exits rounded to half a unit give."""
    rng = np.random.default_rng(7)
    y1 = y0 = 50_000
    rows = []
    for o in (32_698, 12_000, 6_000, 3_000, 1_500, 800, 400, 200, 100, 50, 20, 9, 3):
        o1 = int(rng.hypergeometric(y1, y0, o))
        rows.append((y1, y0, o, o1))
        y1, y0 = y1 - o1, y0 - (o - o1)
    return stream_of(rows)


def test_plugin_memory_on_wide_tied_batches_is_bounded():
    # the plug-in trace and confidence sequence read each batch's window
    # about its mode, for the kernel and for the series' cumulants alike:
    # their traced peaks stay under 4 MiB, where whole-support tables of
    # 32,699 points took 16.6 MiB in both
    import tracemalloc

    stream = _coarse_tied_stream()
    assert stream.o.sum() >= 30_000
    for run in (lambda: plugin_log_trace(stream), lambda: confidence_sequence(stream)):
        run()  # the log-factorial table is built outside the trace
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak / 2**20


def test_plugin_on_wide_tied_batches_matches_exact_prefix_solve():
    # cumulants summed over windows taken at the series' highest moment give
    # the estimates of every prefix solved on whole-support tables
    stream = _coarse_tied_stream()
    got = np.log(plugin_estimates(stream))
    assert np.abs(got - oracles.exact_plugin_betas(stream)).max() <= 1e-12


def test_plugin_rows_solved_together_match_each_row_alone():
    # rows fitted together, leaving after different spans as the engine's
    # rows leave at their first crossings, get the bits each row gets when
    # it is fitted alone over the same spans: a prefix that re-centres sums
    # its own history in ascending order, and the empty offsets that a wider
    # row beside it makes it read add exact zeros.  With m1 = 3 the treatment group runs out early in
    # most streams, at different events, so the rows hold different numbers
    # of offsets; every estimate is within 1e-12 of the exact solve.
    m1, m0, thetas = 3, 300, (0.5, 1.0, 2.0, 5.0, 12.0)
    streams = [
        sample_single_event_stream(m1, m0, theta, stream_rng(17, r), max_events=300)
        for r, theta in enumerate(thetas)
    ]
    assert len({int(np.argmax(s.y1 == 0)) for s in streams}) > 1
    spans, drops = (16, 16, 32, 64, 64, 64, 44), (2, 7, 4, 7, 5)
    fit = _PluginFit(len(streams) + 2, m1, m0, 300)
    rows = np.arange(2, len(streams) + 2)  # not the fit's first rows
    together = _grow(fit, rows, streams, spans, drops)
    for r, s in enumerate(streams):
        (alone,) = _grow(_PluginFit(1, m1, m0, 300), np.zeros(1, dtype=np.int64), [s], spans, drops[r:r + 1])
        assert np.array_equal(together[r], alone)
        reference = oracles.exact_plugin_betas(s)[: alone.size]
        assert np.allclose(alone, reference, rtol=0, atol=1e-12)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    stream=_small_streams(),
    center=st.sampled_from([0.4, 1.0, 2.5]),
    theta0=st.sampled_from([1.0, 0.7]),
)
@example(stream=stream_of(_TIES_AND_FORCED), center=1.0, theta0=1.0)
def test_bayes_trace_matches_per_batch_reference(stream, center, theta0):
    prior = PriorSpec.lognormal(math.log(center), 0.7, n=41)
    trace = bayes_log_trace(stream, prior, theta0=theta0)
    log_num = _bayes_stream_numerators(stream, prior)
    ref_trace, ref_num = oracles.bayes_reference(stream, prior, theta0=theta0)
    assert np.allclose(trace, ref_trace, rtol=0, atol=1e-12)
    assert np.allclose(log_num, ref_num, rtol=0, atol=1e-12)


def _budget(cells):
    """Patch the one chunk budget, ``core._CELLS`` (unchanged if None).  A
    confidence sequence's first chunk then holds ``cells // 64`` cells on
    every grid column, each later chunk ``cells // 256`` on its band, and a
    Bayes chunk or a joining column's catch-up block ``cells // 16``; below
    16 cells every chunk is one row."""
    return mock.patch.object(core, "_CELLS", cells or core._CELLS)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    stream=_small_streams(),
    numerator=st.sampled_from(["plugin", "bayes"]),
    alpha=st.sampled_from([0.05, 0.3]),
    chunk_rows=st.sampled_from([1, 3, 7]),
)
@example(stream=stream_of(_TIES_AND_FORCED), numerator="plugin", alpha=0.3, chunk_rows=1)
def test_confidence_bounds_match_per_batch_reference(stream, numerator, alpha, chunk_rows):
    # the family is read a few event times at a time (chunk_rows in the
    # first chunk), so every example with more than chunk_rows event times
    # carries its denominators across chunks
    grid = default_theta_grid(60, lo=0.05, hi=20.0)
    prior = PriorSpec.lognormal(0.0, 0.7, n=41)
    with _budget(64 * chunk_rows * grid.size):
        cs = confidence_sequence(stream, alpha=alpha, numerator=numerator, grid=grid, prior=prior)
    if numerator == "plugin":
        ref_num = oracles.plugin_reference(stream)[1]
    else:
        ref_num = oracles.bayes_reference(stream, prior)[1]
    lower, upper, lower_b, upper_b = zip(
        *oracles.confidence_bounds_reference(stream, ref_num, grid, alpha)
    )
    assert np.allclose(cs.lower, lower, rtol=0, atol=1e-12, equal_nan=True)
    assert np.allclose(cs.upper, upper, rtol=0, atol=1e-12, equal_nan=True)
    assert cs.lower_bracketed.tolist() == list(lower_b)
    assert cs.upper_bracketed.tolist() == list(upper_b)


def test_plugin_prefix_gets_identical_estimates():
    # estimates are solved in blocks of prefixes; a shorter stream must not
    # move a single bit of the estimates it shares with the longer one
    rows = _single_event_rows(0.7, 120, 120, 200, seed=11)
    full = plugin_estimates(stream_of(rows))
    for cut in (1, 63, 64, 65, 150):
        assert np.array_equal(plugin_estimates(stream_of(rows[:cut])), full[: cut + 1])


# ---------------------------------------------------------------------------
# Bayes predictive
# ---------------------------------------------------------------------------

def test_point_mass_prior_recovers_fixed_alternative():
    prior = PriorSpec.point_mass(0.7)
    row = (10, 10, 1, 0)
    got = bayes_predictive_log_increment(prior, [], row)
    want = log_q(0.7, row) - log_q(1.0, row)
    assert got == pytest.approx(want, abs=1e-14)


def test_two_point_prior_first_event_numerator_is_half():
    # prior 1/2 on {0.5, 2}, balanced first event: numerator = (1/3 + 2/3)/2
    prior = PriorSpec([0.5, 2.0], [0.5, 0.5])
    for o1 in (0, 1):
        log_num = _bayes_stream_numerators(stream_of([(10, 10, 1, o1)]), prior)
        assert math.exp(log_num[0]) == pytest.approx(0.5, abs=1e-14)


def test_bayes_product_telescopes_to_grid_bayes_factor():
    stream = _single_event_stream(0.7, 40, 40, 35, seed=4)
    prior = PriorSpec.lognormal(mean_log=math.log(0.7), sd_log=0.5, n=101)
    trace = bayes_log_trace(stream, prior)
    log_lik = log_kernel(stream, np.log(prior.thetas)[None, :]).sum(axis=0)
    log_marginal = np.logaddexp.reduce(np.log(prior.weights) + log_lik)
    log_bf = log_marginal - log_kernel(stream, 0.0).sum()
    assert trace[-1] == pytest.approx(log_bf, abs=1e-10)


def test_incremental_posterior_matches_recompute():
    rows = _single_event_rows(1.3, 25, 25, 20, seed=5)
    prior = PriorSpec.lognormal(mean_log=0.0, sd_log=0.5, n=51)
    log_num = _bayes_stream_numerators(stream_of(rows), prior)
    for i, row in enumerate(rows):
        inc_incremental = log_num[i] - log_q(1.0, row)
        inc_recomputed = bayes_predictive_log_increment(prior, rows[:i], row)
        assert inc_incremental == pytest.approx(inc_recomputed, abs=1e-11)


def test_quadrature_grid_is_converged():
    stream = _single_event_stream(0.7, 60, 60, 100, seed=6)
    coarse = bayes_log_trace(stream, PriorSpec.lognormal(math.log(0.7), 0.5, n=201))
    fine = bayes_log_trace(stream, PriorSpec.lognormal(math.log(0.7), 0.5, n=402))
    assert np.max(np.abs(coarse - fine)) <= 1e-6


def test_misspecified_prior_keeps_type_one_control():
    # prior centered far from the truth; crossing 1/alpha under the null stays rare
    prior = PriorSpec.lognormal(mean_log=math.log(2.0), sd_log=0.25, n=101)
    crossings = 0
    reps = 150
    for rep in range(reps):
        stream = _single_event_stream(1.0, 100, 100, 200, seed=1000 + rep)
        trace = bayes_log_trace(stream, prior)
        crossings += bool(np.max(trace) >= math.log(20.0))
    rate = crossings / reps
    assert rate <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / reps)


def test_prior_spec_validation():
    with pytest.raises(ValueError):
        PriorSpec([2.0, 0.5], [0.5, 0.5])  # not increasing
    with pytest.raises(ValueError):
        PriorSpec([0.5, 2.0], [0.6, 0.5])  # does not sum to 1
    with pytest.raises(ValueError):
        PriorSpec([0.5, 2.0], [1.1, -0.1])  # negative mass
    with pytest.raises(ValueError):
        PriorSpec.lognormal(0.0, sd_log=0.0)
    with pytest.raises(ValueError, match="matching 1-d arrays"):
        PriorSpec([0.5, 2.0], [1.0])


def test_plugin_estimates_refuse_an_empty_initial_group():
    with pytest.raises(ValueError, match="initial group sizes must be >= 1"):
        plugin_estimates(stream_of([(5, 5, 1, 1)]), 0, 5)


def test_bayes_numerators_refuse_a_posterior_with_no_mass():
    # a posterior that puts no mass on any node has no predictive: the
    # numerators refuse it rather than carry NaN into the e-value (the NaN
    # of -inf - -inf is what they look for, so numpy's warning is muted)
    log_grid = np.log(PriorSpec.lognormal(0.0, n=5).thetas)[None, :]
    dead = np.full((1, 5), -np.inf)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="underflowed"):
        adaptive._bayes_log_numerators(stream_of([(5, 5, 1, 1)])[None], log_grid, dead)


def test_traces_of_no_events_are_empty():
    empty = stream_of([])
    assert plugin_log_trace(empty).shape == (0,)
    assert bayes_log_trace(empty, PriorSpec.lognormal(0.0)).shape == (0,)


# ---------------------------------------------------------------------------
# confidence sequences
# ---------------------------------------------------------------------------

def test_confidence_sequence_zero_events_is_full_range():
    cs = confidence_sequence(stream_of([]), grid=default_theta_grid(100))
    assert cs.final_lower == pytest.approx(1e-3)
    assert cs.final_upper == pytest.approx(1e3)


def test_confidence_sequence_narrows_and_covers_truth():
    stream = _single_event_stream(0.7, 300, 300, 400, seed=7)
    grid = default_theta_grid(200)
    cs = confidence_sequence(stream, alpha=0.05, grid=grid)
    assert cs.lower[-1] > grid[0]
    assert cs.upper[-1] < grid[-1]
    assert cs.lower_bracketed[-1] and cs.upper_bracketed[-1]
    assert cs.contains(0.7).all()  # single stream at its own truth: no exit expected here
    # interval actually contracts as evidence accumulates
    assert cs.upper[-1] - cs.lower[-1] < cs.upper[10] - cs.lower[10]


@pytest.mark.parametrize(
    "stream",
    [
        _single_event_stream(0.7, 300, 300, 400, seed=7),
        sample_tied_stream(1000, 1000, 0.7, 0.01, stream_rng(0, 0)),  # 417 batches, o <= 21
    ],
    ids=["single", "tied"],
)
def test_confidence_sequence_chunks_match_one_pass(stream):
    # reading the family in chunks of event times, the first on every
    # column and the rest on a band, with the running denominators carried,
    # gives the bounds of one whole-table pass.  The budgets read the first
    # chunk and a band of 18 columns in chunks of 1 and 1, 1 and 3, 2 and
    # 14, 10 and 56, and 163 and 910 event times, and the whole stream in
    # one first chunk
    grid = default_theta_grid()
    fields = ("lower", "upper", "lower_bracketed", "upper_bracketed")
    log_num, _ = plugin_numerators(stream)

    def bounds(cells, intersect):
        with _budget(cells):
            cs = confidence_sequence(stream, grid=grid, running_intersection=intersect)
        return [getattr(cs, f) for f in fields]

    for intersect in (False, True):
        whole = oracles.family_table_bounds(
            stream, log_num, grid, 0.05, intersect, cells=stream.o.size * grid.size
        )
        for cells in (15, 1 << 14, 1 << 16, 1 << 18, 1 << 22, 64 * grid.size * stream.o.size):
            for got, want in zip(bounds(cells, intersect), whole):
                assert np.array_equal(got, want, equal_nan=True)


@st.composite
def _band_streams(draw):
    """Single-event and tied streams of up to a few hundred event times at
    hazard ratios 0.2-5, and ``_small_streams`` with forced batches."""
    kind = draw(st.sampled_from(["single", "tied", "small"]))
    if kind == "small":
        return draw(_small_streams())
    theta = draw(st.floats(0.2, 5.0))
    m1, m0 = draw(st.integers(5, 200)), draw(st.integers(5, 200))
    rng = stream_rng(draw(st.integers(0, 2**16)), 0)
    if kind == "single":
        return sample_single_event_stream(m1, m0, theta, rng, max_events=draw(st.integers(1, 300)))
    return sample_tied_stream(m1, m0, theta, draw(st.sampled_from([0.01, 0.05, 0.2])), rng)


def _cs_fields(cs):
    return cs.lower, cs.upper, cs.lower_bracketed, cs.upper_bracketed


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    stream=_band_streams(),
    size=st.sampled_from([3, 60, 400, 1000]),
    alpha=st.sampled_from([0.05, 0.3]),
    numerator=st.sampled_from(["plugin", "bayes"]),
    budget=st.sampled_from([15, 1 << 12, 1 << 16, None]),
    intersect=st.booleans(),
)
@example(stream=stream_of([]), size=60, alpha=0.05, numerator="plugin", budget=15, intersect=True)
def test_band_matches_the_family_table(stream, size, alpha, numerator, budget, intersect):
    # the band scores the columns near the hull's two ends, widening where
    # an end leaves it; its bounds and bracketed flags are those of the
    # whole (event times, grid) table, with and without running
    # intersection.  ``budget`` is the chunk budget (None: the package's)
    grid = default_theta_grid(size, lo=0.05, hi=20.0)
    prior = PriorSpec.lognormal(0.0, 0.7, n=41)
    if numerator == "plugin":
        log_num, _ = plugin_numerators(stream)
    else:
        log_num = _bayes_stream_numerators(stream, prior)
    with _budget(budget):
        cs = confidence_sequence(
            stream, alpha=alpha, numerator=numerator, grid=grid, prior=prior,
            running_intersection=intersect,
        )
    want = oracles.family_table_bounds(stream, log_num, grid, alpha, intersect)
    for got, w in zip(_cs_fields(cs), want):
        assert np.array_equal(got, w, equal_nan=True)


def _family_reads(stream, grid, budget, alpha=0.05):
    """The confidence sequence at the chunk budget ``budget``, and the
    first event time of each ``_Family.rows`` read: a chunk's first read,
    then one more for each widening."""
    reads, rows = [], adaptive._Family.rows

    def reading(self, cols, lo, hi):
        reads.append(lo)
        return rows(self, cols, lo, hi)

    with _budget(budget), mock.patch.object(adaptive._Family, "rows", reading):
        cs = confidence_sequence(stream, alpha=alpha, grid=grid)
    return cs, reads


def _table_fields(stream, grid, alpha=0.05):
    return oracles.family_table_bounds(stream, plugin_numerators(stream)[0], grid, alpha)


def test_band_reads_rows_that_keep_no_column_without_widening():
    # a 30-point grid is too coarse for 1,500 events here: the non-rejected
    # set falls between two columns on 340 rows.  Their smallest log
    # e-value has band columns on both sides, so they keep no column at
    # all, and no chunk widens to find that out
    stream = sample_single_event_stream(1000, 1000, 0.7, stream_rng(1, 0), max_events=1500)
    grid = default_theta_grid(30)
    cs, reads = _family_reads(stream, grid, 64 * 40 * grid.size, alpha=0.3)  # a first chunk of 40 rows
    assert np.isnan(cs.lower[40:]).sum() == 340
    assert len(reads) == len(set(reads))
    for got, want in zip(_cs_fields(cs), _table_fields(stream, grid, alpha=0.3)):
        assert np.array_equal(got, want, equal_nan=True)


def test_band_widens_where_a_hull_end_moves_past_it():
    # on a 1,000-point grid the hull ends of the first event times move by
    # many columns within a chunk of about 40 of them, beyond the band's
    # margin of 4, so chunks widen the band toward them, some several times
    stream = _single_event_stream(0.7, 300, 300, 400, seed=7)
    grid = default_theta_grid(1000, lo=0.05, hi=20.0)
    cs, reads = _family_reads(stream, grid, 256 * 40 * 18)  # band chunks of 40 rows of 18 columns
    widened = collections.Counter(reads)
    assert len(widened) > 1 and max(widened.values()) > 2
    for got, want in zip(_cs_fields(cs), _table_fields(stream, grid)):
        assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize(
    "stream",
    [
        _single_event_stream(0.7, 300, 300, 400, seed=7),
        sample_tied_stream(1000, 1000, 0.7, 0.01, stream_rng(0, 0)),  # 417 batches, o <= 21
    ],
    ids=["single", "tied"],
)
def test_bayes_trace_chunks_match_one_pass(stream):
    # reading the kernel table and the log posterior in chunks of event
    # times, with the running posterior carried, gives the trace of one
    # whole-array pass bit for bit: a tied batch's kernel cells do not
    # depend on the batches padded into its block
    prior = PriorSpec.lognormal(math.log(0.7), 0.5)

    def trace(rows):
        with _budget(16 * rows * prior.thetas.size):
            return bayes_log_trace(stream, prior, theta0=0.9), _bayes_stream_numerators(stream, prior)

    whole = trace(stream.o.size)
    for rows in (1, 7, 163):
        for got, want in zip(trace(rows), whole):
            assert np.array_equal(got, want)


def test_family_sums_on_ties_match_one_whole_table():
    # on a tied stream, every denominator ``_Family.rows`` returns, however
    # the first chunk, the band and the catch-ups split the event times and
    # columns, is the whole table's ``log_kernel`` cumsum, bit for bit
    stream = sample_tied_stream(1000, 1000, 0.7, 0.03, stream_rng(3, 0))
    support = np.minimum(stream.o, stream.y1) - np.maximum(0, stream.o - stream.y0) + 1
    assert support.max() > 2 * adaptive._MARGIN + 1  # wider than a band
    grid = default_theta_grid()
    whole = np.cumsum(log_kernel(stream, np.log(grid)[None, :]), axis=0)
    reads, rows = [], adaptive._Family.rows

    def reading(self, cols, lo, hi):
        den = rows(self, cols, lo, hi)
        reads.append((cols, lo, hi, den.copy()))
        return den

    with mock.patch.object(adaptive._Family, "rows", reading):
        for budget in (15, 1 << 12, 1 << 16, None):
            with _budget(budget):
                confidence_sequence(stream, grid=grid)
    assert len({lo for _, lo, _, _ in reads}) > 100
    for cols, lo, hi, den in reads:
        assert np.array_equal(den, whole[lo:hi, cols])


def test_confidence_sequence_running_intersection_is_nested():
    stream = _single_event_stream(0.8, 100, 100, 150, seed=8)
    cs = confidence_sequence(stream, grid=default_theta_grid(150), running_intersection=True)
    assert np.all(np.diff(cs.lower) >= 0)
    assert np.all(np.diff(cs.upper) <= 0)
    assert cs.intersected


def test_confidence_sequence_hull_matches_bruteforce_inversion():
    rows = _single_event_rows(0.5, 50, 50, 60, seed=9)
    grid = default_theta_grid(80, lo=0.05, hi=20.0)
    cs = confidence_sequence(stream_of(rows), alpha=0.1, grid=grid)

    cum_num = np.cumsum(plugin_numerators(stream_of(rows))[0])
    i = len(rows) - 1
    rejected = np.array(
        [cum_num[i] - sum(log_q(float(t), row) for row in rows) >= math.log(1 / 0.1) for t in grid]
    )
    keep = np.flatnonzero(~rejected)
    assert cs.lower[i] == pytest.approx(grid[keep[0]])
    assert cs.upper[i] == pytest.approx(grid[keep[-1]])


def test_confidence_sequence_bayes_numerator_runs():
    stream = _single_event_stream(0.7, 60, 60, 80, seed=10)
    cs = confidence_sequence(
        stream,
        numerator="bayes",
        prior=PriorSpec.lognormal(math.log(0.7), 0.5, n=101),
        grid=default_theta_grid(120),
    )
    assert cs.contains(0.7)[-1]


def test_confidence_sequence_rejects_bad_grid():
    with pytest.raises(ValueError):
        confidence_sequence(stream_of([]), grid=np.array([2.0, 1.0]))
    for n, lo, hi in ((1, 0.1, 10.0), (10, 10.0, 0.1), (10, 1e-9, 10.0)):
        with pytest.raises(ValueError, match="bad grid request"):
            default_theta_grid(n, lo, hi)
    # hazard ratios outside [THETA_LOWER, THETA_UPPER], zero among them
    for bad in ([0.0, 1.0, 2.0], [1e-20, 1.0, 1e20], [0.5, 1.0, 1e9], [1e-9, 1.0]):
        with pytest.raises(ValueError, match="hazard ratio"):
            confidence_sequence(stream_of([(5, 5, 1, 1)]), grid=np.array(bad))
    edges = confidence_sequence(stream_of([(5, 5, 1, 1)]), grid=np.array([1e-8, 1.0, 1e8]))
    assert edges.grid[0] == 1e-8 and edges.grid[-1] == 1e8
    with pytest.raises(ValueError):
        confidence_sequence(stream_of([]), alpha=1.5)


def test_confidence_sequence_refuses_an_unknown_numerator():
    with pytest.raises(ValueError, match="unknown numerator strategy 'nonsense'"):
        confidence_sequence(stream_of([(5, 5, 1, 1)]), numerator="nonsense")
