"""Tests for the exact e-value core: the kernel, traces and two-sided mixtures."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safelogrank import core
from safelogrank.cli import pooled_decision
from safelogrank.core import (
    log_evalue_trace,
    log_kernel,
    two_sided_log_evalue,
    validate_theta,
)
from safelogrank.data import EVENT, dataset_from_stream

from oracles import (
    log_normalizer_reference,
    brute_force_product,
    exact_bernoulli_prob,
    exact_hypergeom_pmf,
    exact_increment,
    log_kernel_on_nodes,
    logrank_moments,
    single_event_log_q,
    stream_of,
    support_table,
    two_sided_state,
)


def prob(theta, *row):
    """q_theta(o1 | batch) of one ``(y1, y0, o, o1)`` row, from ``log_kernel``."""
    return math.exp(log_kernel(stream_of([row]), math.log(theta))[0])


def support_rows(y1, y0, o):
    """One row per possible treatment-event count of a batch."""
    return [(y1, y0, o, u) for u in range(max(0, o - y0), min(o, y1) + 1)]


# ---------------------------------------------------------------------------
# frozen kernel values
# ---------------------------------------------------------------------------

def test_bernoulli_treatment_prob_half_hazard():
    # theta=0.5, 100 vs 100 at risk: 100*0.5 / (100 + 50) = 1/3
    assert prob(0.5, 100, 100, 1, 1) == pytest.approx(1 / 3, abs=1e-15)


def test_bernoulli_treatment_prob_small_risk_set():
    # theta=2, y1=1, y0=3: 2 / (3 + 2) = 0.4
    assert prob(2.0, 1, 3, 1, 1) == pytest.approx(0.4, abs=1e-15)


def test_hypergeom_central_two_of_four():
    # theta=1, o=2 events among 2+2: P(o1=1) = C(2,1)C(2,1)/C(4,2) = 4/6
    assert prob(1.0, 2, 2, 2, 1) == pytest.approx(4 / 6, abs=1e-14)


def test_hypergeom_noncentral_two_of_four():
    # theta=2: weights 1, 8, 4 over o1=0,1,2 -> P(o1=1) = 8/13
    assert prob(2.0, 2, 2, 2, 1) == pytest.approx(8 / 13, abs=1e-14)


def test_increment_control_event_balanced():
    # theta1=0.7 vs theta0=1, single control event, balanced risk sets:
    # (1/1.7) / (1/2) = 2/1.7
    got = math.exp(log_evalue_trace(stream_of([(50, 50, 1, 0)]), 0.7, 1.0)[0])
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
        oracle = exact_hypergeom_pmf(theta, y1, y0, o)
        rows = support_rows(y1, y0, o)
        p = np.exp(log_kernel(stream_of(rows), math.log(theta)))
        assert p.sum() == pytest.approx(1.0, abs=1e-13)
        for (_, _, _, u), pu in zip(rows, p):
            assert pu == pytest.approx(float(oracle[u]), abs=1e-13)


@pytest.mark.parametrize("theta", RATIONAL_THETAS)
def test_increment_matches_rational_oracle(theta):
    for y1, y0, o, o1 in [(6, 4, 2, 1), (3, 3, 3, 2), (10, 2, 2, 2), (2, 10, 4, 1)]:
        got = math.exp(log_evalue_trace(stream_of([(y1, y0, o, o1)]), float(theta), 1.0)[0])
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
    if want == 0.0:
        # an impossible split is not a batch, so the kernel never sees it
        with pytest.raises(ValueError, match="within its risk set"):
            dataset_from_stream(stream_of([(y1, y0, 1, o1)]))
    else:
        assert prob(theta, y1, y0, 1, o1) == pytest.approx(want, rel=1e-13)


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
    # the logistic closed form of single events equals the padded-support
    # Fisher noncentral hypergeometric evaluation of tied batches at o = 1
    one = np.ones(1, dtype=np.int64)
    via_hg = math.exp(core._tied_log_kernel(y1 * one, y0 * one, one, one, np.log([theta]))[0])
    via_bern = prob(theta, y1, y0, 1, 1)
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
    logp = log_kernel(stream_of(support_rows(y1, y0, o)), math.log(theta))
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
    stream = stream_of(support_rows(y1, y0, o))
    null = log_kernel(stream, 0.0)
    total = np.sum(np.exp(null) * np.exp(log_kernel(stream, math.log(theta1)) - null))
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
    return stream_of(rows)


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
    ``(n, G)`` theta, forced batches and the admissible extremes included,
    and every way of asking gives the same bits."""
    log_t = np.log(thetas)
    rows = zip(*(c.tolist() for c in (stream.y1, stream.y0, stream.o, stream.o1)))
    want = np.stack([log_kernel_on_nodes(log_t, row) for row in rows])
    grid = log_kernel(stream, np.broadcast_to(log_t, (stream.o.size, log_t.size)))
    assert grid.shape == want.shape
    assert np.allclose(grid, want, rtol=0, atol=1e-12)
    assert np.array_equal(log_kernel(stream, log_t[None, :]), grid)
    assert np.array_equal(log_kernel(stream, log_t[0]), grid[:, 0])
    per_row = np.resize(log_t, stream.o.size)
    got = log_kernel(stream, per_row)
    idx = np.resize(np.arange(log_t.size), stream.o.size)
    assert np.array_equal(got, grid[np.arange(stream.o.size), idx])
    forced = np.maximum(0, stream.o - stream.y0) == np.minimum(stream.o, stream.y1)
    assert np.all(grid[forced] == 0.0)
    # blocks of a handful of cells (16, at a budget of 1,024): many blocks,
    # each padded to its own width
    cells, core._CELLS = core._CELLS, 1024
    try:
        small = log_kernel(stream, np.broadcast_to(log_t, (stream.o.size, log_t.size)))
    finally:
        core._CELLS = cells
    assert np.array_equal(small, grid)


def test_forced_batches_short_circuit_to_exactly_zero():
    # control group exhausted: all o events must be treatment events
    assert log_evalue_trace(stream_of([(5, 0, 2, 2)]), 0.7, 1.0)[0] == 0.0
    # treatment exhausted
    assert log_evalue_trace(stream_of([(0, 4, 1, 0)]), 0.7, 1.0)[0] == 0.0
    # o == total: everyone fails at once, split is forced
    assert log_evalue_trace(stream_of([(3, 2, 5, 3)]), 13.0, 1.0)[0] == 0.0


def test_extreme_theta_stays_finite():
    stream = stream_of([(1000, 1000, 3, 2)])
    for theta in (1e-8, 1e8):
        val = log_evalue_trace(stream, theta, 1.0)[0]
        assert math.isfinite(val)


# Risk sets of single events: y1/y0 from 1e-4 to 1e4.
SINGLE_RISK_SETS = [
    (1, 1), (1, 2), (2, 1), (3, 7), (7, 3), (1, 10), (10, 1), (999, 1000), (1234, 567),
    (1, 100), (100, 1), (1, 1000), (1000, 1), (37, 10000), (10000, 37), (1, 10000), (10000, 1),
]


def test_single_event_kernel_is_accurate_in_log_space():
    """Single events against the correctly rounded log q, at the admissible
    extremes and past |log(y1/y0) + log theta| = 36, where exp(-|x|) falls
    below the last bit of 1 (and past 745, where it underflows): within 4
    ulp of max(1, |log q|), on a grid, per row and at a scalar theta.
    Forced rows stay exactly 0."""
    thetas = [1e-8, 1e-3, 0.7, 1.0, 1e3, 1e8]
    log_t = np.array([math.log(t) for t in thetas] + [-40.0, 30.0, 45.0, -800.0, 800.0])
    rows = [(y1, y0, 1, o1) for y1, y0 in SINGLE_RISK_SETS for o1 in (0, 1)]
    stream = stream_of(rows + [(5, 0, 1, 1), (0, 4, 1, 0)])
    want = np.array([[single_event_log_q(y1, y0, o1, lt) for lt in log_t] for y1, y0, _, o1 in rows])
    assert np.any(np.abs(np.log([r[0] / r[1] for r in rows])[:, None] + log_t) > 36)
    grid = log_kernel(stream, log_t[None, :])
    tol = 4 * np.spacing(np.maximum(1.0, np.abs(want)))
    assert np.all(np.abs(grid[: len(rows)] - want) <= tol)
    assert np.all(grid[len(rows):] == 0.0) and not np.signbit(grid[len(rows):]).any()
    for j, lt in enumerate(log_t):
        assert np.array_equal(log_kernel(stream, lt), grid[:, j])
        assert np.array_equal(log_kernel(stream, np.full(stream.o.size, lt)), grid[:, j])


def _rows_keep_their_bits(rows):
    """Each ``(y1, y0, o, o1)`` row's kernel values are the same bits alone
    and inside a chunk of every row on a 201-node grid, and alone at a
    scalar theta on that grid, inside a ``(replications, L)`` block of the
    rows at that theta and in the chunk's column."""
    rng = np.random.default_rng(len(rows))
    grid = np.log(np.geomspace(0.05, 20.0, 201))[None, :]
    chunk = log_kernel(stream_of(rows), grid)
    for i, row in enumerate(rows):
        assert np.array_equal(log_kernel(stream_of([row]), grid), chunk[i : i + 1]), row
    j = 57  # theta = 0.276
    alone = np.array([log_kernel(stream_of([row]), grid[0, j])[0] for row in rows])
    assert np.array_equal(alone, chunk[:, j])
    picks = rng.integers(0, len(rows), size=(37, 53))
    columns = np.array(rows)[picks]
    block = core.EventStream(np.zeros(picks.shape), *np.moveaxis(columns, -1, 0))
    assert np.array_equal(log_kernel(block, grid[0, j]), alone[picks])


def _tied_rows(count, seed):
    """Informative tied batches with supports of 2 to 40 points: few events
    (``o`` = support - 1) or few survivors (``o`` = y1 + y0 - support + 1)."""
    rng = np.random.default_rng(seed)
    rows = []
    for support in rng.integers(2, 41, count).tolist():
        y1, y0 = (int(a) for a in rng.integers(support, 400, 2))
        o = support - 1 if support > 2 and rng.random() < 0.5 else y1 + y0 - support + 1
        lo, hi = max(0, o - y0), min(o, y1)
        rows.append((y1, y0, o, int(rng.integers(lo, hi + 1))))
    return rows


def test_kernel_rows_keep_their_bits_in_any_block():
    """A single-event, forced or tied row's kernel values are the same bits
    alone, inside a 326-row chunk on a 201-node grid (a Bayes chunk), in
    that chunk's column as a one-row scalar call, and inside a
    ``(replications, L)`` block at that scalar theta, wherever the row falls
    in the vectorized loops: a tied batch's support is summed in ascending
    order in every block, its padding adding exact zeros."""
    rng = np.random.default_rng(326)
    y1, y0 = rng.integers(0, 400, 326), rng.integers(1, 400, 326)
    single = [(a, b, 1, int(rng.random() < 0.5) if a else 0) for a, b in zip(y1.tolist(), y0.tolist())]
    _rows_keep_their_bits(single)
    tied = _tied_rows(326, 40)
    sizes = [min(o, a) - max(0, o - b) + 1 for a, b, o, _ in tied]
    assert min(sizes) == 2 and max(sizes) == 40 and sum(s >= 9 for s in sizes) > 200
    assert min(o for _, _, o, _ in tied) > 1
    _rows_keep_their_bits(tied)


def test_tied_kernel_memory_is_bounded_by_the_cell_budget():
    """A batch of 32,698 tied events (a coarse event time of 100k records)
    on a 400-point grid is scored over windows about its modes, a block at a
    time: its traced peak stays under 8 MiB, where one (grid, support)
    table of 400 x 32,699 cells takes 105 MB, and each column equals its own
    scalar call, bit for bit, as do the columns of 40 batches of 2 to 40
    support points."""
    tied = _tied_rows(40, 294)
    stream = stream_of([(50_000, 50_000, 32_698, 16_000), (33_000, 34_000, 2, 1)] + tied)
    log_t = np.log(np.geomspace(1e-3, 1e3, 400))
    log_kernel(stream, 0.0)  # the log-factorial table is built outside the trace
    tracemalloc.start()
    try:
        got = log_kernel(stream, log_t[None, :])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak / 2**20
    assert got.shape == (42, 400) and np.all(got <= 0.0)
    for j in (0, 199, 399):
        assert np.array_equal(got[:, j], log_kernel(stream, log_t[j]))
    scalar = np.stack([log_kernel(stream_of(tied), lt) for lt in log_t], axis=1)
    assert np.array_equal(got[2:], scalar)


def _window_cells(y1, y0, o, log_t):
    """Each cell's log-normalizer over its window, as the kernel takes it,
    and the number of support points the window sums."""
    norm, count = np.full(log_t.shape, np.nan), np.zeros(log_t.shape, dtype=np.int64)
    for where, first, t in core._window_blocks(y1, y0, o, log_t, 0, core._CELLS // 64):
        count[where] = np.isfinite(t).sum(axis=0).reshape(first.size, -1)
        m = t.max(axis=0)
        norm[where] = (m + np.log(np.exp(t - m).sum(axis=0))).reshape(first.size, -1)
    return norm, count


def test_windowed_log_normalizer_matches_the_whole_support():
    """Summed over its window about the mode, a tied batch's log-normalizer
    is within 1e-13 of the whole-support sum, relative to max(1, |log Z|),
    for theta from 1e-8 to 1e8 and supports up to 32,699 points; a small
    batch's window is its whole support."""
    rng = np.random.default_rng(13)
    rows = [(50_000, 50_000, 32_698), (50_000, 49_000, 2_000), (40, 3_000, 39), (3_000, 40, 2_990), (7, 9, 10)]
    for _ in range(20):
        y1, y0 = (int(v) for v in rng.integers(2, 20_000, 2))
        rows.append((y1, y0, int(rng.integers(2, y1 + y0))))
    y1, y0, o = (np.array(c) for c in zip(*rows))
    thetas = np.concatenate([[1e-8, 1e-3, 0.5, 1.0, 2.0, 1e3, 1e8], np.exp(rng.uniform(-18.4, 18.4, 5))])
    log_t = np.log(np.broadcast_to(thetas, (len(rows), thetas.size)))
    got, count = _window_cells(y1, y0, o, log_t)
    want = np.array([[log_normalizer_reference(*row, lt) for lt in log_t[0]] for row in rows])
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    support = np.minimum(o, y1) - np.maximum(0, o - y0) + 1
    assert count[0].max() < support[0] // 10 and np.all(count[4] == support[4])


@pytest.mark.parametrize("order", [0, 16])
def test_tied_windows_double_until_the_tail_bound_holds(order):
    """From a first reach of 2 points, too short for the 2^-60 tail bound,
    each side of a window about the mode doubles its reach until the bound
    holds or the support ends: a side not cut at the support's edge reaches
    2^k points with k >= 1, the bound holds there (a first reach of that
    many gives the same side) and not at half of it (a first reach of half
    doubles to it).  Each window's log-normalizer is within 1e-13 of the
    whole-support sum, relative to max(1, |log Z|)."""
    rows = [(50_000, 50_000, 2_000), (20_000, 15_000, 5_000), (3_000, 40, 2_990), (400, 500, 300)]
    thetas = [1e-3, 0.5, 1.0, 2.0, 1e3]
    y1, y0, o = (np.repeat(c, len(thetas)) for c in np.array(rows).T)
    beta = np.tile(np.log(thetas), len(rows))
    u, log_w = support_table(y1, y0, o)
    terms = log_w + u * beta
    mode = u[terms.argmax(axis=0), np.arange(beta.size)]
    edges = (mode - np.maximum(0, o - y0), np.minimum(o, y1) - mode)

    def reaches(first_reach):
        first, size = core._windows(y1, y0, o, beta, first_reach, order)
        return mode - first, first + size - 1 - mode

    start = reaches(np.full(beta.size, 2))
    for side, (d, edge) in enumerate(zip(start, edges)):
        grown = d < edge
        assert np.all(d <= edge) and grown.sum() >= beta.size // 2
        assert np.all((d[grown] > 2) & (d[grown] & (d[grown] - 1) == 0))  # 2^k points, k >= 1
        assert np.array_equal(reaches(np.maximum(d, 2))[side][grown], d[grown])
        assert np.array_equal(reaches(np.maximum(d // 2, 2))[side][grown], d[grown])

    first, size = core._windows(y1, y0, o, beta, np.full(beta.size, 2), order)
    for k in range(beta.size):
        window = terms[first[k] - u[0, k] : first[k] - u[0, k] + size[k], k]
        got = window.max() + math.log(np.exp(window - window.max()).sum())
        want = log_normalizer_reference(int(y1[k]), int(y0[k]), int(o[k]), float(beta[k]))
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (k, got, want)


@pytest.mark.parametrize("theta", [1.0, 1e3, 1e-3])
def test_tied_kernel_cells_grow_as_the_root_of_the_batch(theta):
    """The cells the tied kernel sums for one batch grow by at most 2.5
    times when its events and both risk sets grow 4 times: its window
    scales with the sd of its law, not with its support, which grows 4
    times."""
    counts = []
    for scale in (1, 4):
        y1, y0, o = (np.array([v * scale]) for v in (2_500, 2_500, 1_600))
        counts.append(int(_window_cells(y1, y0, o, np.full((1, 1), math.log(theta)))[1][0, 0]))
    assert counts[1] <= 2.5 * counts[0], counts


def test_cell_bits_hold_on_the_dispatch_path_without_avx512():
    """The per-cell bit checks pass again in a child interpreter whose numpy
    dispatch stops below AVX-512, the path of machines without it."""
    code = (
        "from numpy._core._multiarray_umath import __cpu_features__ as f\n"
        "assert not f.get('AVX512_SKX')\n"
        "import test_core\n"
        "test_core.test_kernel_rows_keep_their_bits_in_any_block()\n"
        "test_core.test_tied_kernel_memory_is_bounded_by_the_cell_budget()\n"
    )
    paths = [os.path.dirname(__file__), os.path.dirname(os.path.dirname(core.__file__))]
    paths += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    env["NPY_DISABLE_CPU_FEATURES"] = "X86_V4 AVX512_ICL AVX512_SPR"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr


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
    with pytest.raises(ValueError, match="within its risk set"):
        dataset_from_stream(stream_of([(2, 2, 3, 0)]))  # needs at least 3-2=1 treatment event
    with pytest.raises(ValueError, match="within its risk set"):
        dataset_from_stream(stream_of([(2, 2, 1, 2)]))
    with pytest.raises(ValueError, match="within its risk set"):
        dataset_from_stream(stream_of([(2, 2, 0, 0)]))  # a batch must contain an event
    with pytest.raises(ValueError, match="within its risk set"):
        dataset_from_stream(stream_of([(2, 2, 5, 2)]))  # more events than participants


def test_dataset_from_stream_rejects_negative_risk_sets():
    with pytest.raises(ValueError, match="within its risk set"):
        dataset_from_stream(stream_of([(-1, 3, 1, 0)]))
    with pytest.raises(ValueError, match="within its risk set"):
        dataset_from_stream(stream_of([(3, -1, 1, 1)]))


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def _random_rows(rng, n_times, y1, y0, max_o):
    """A self-consistent stream of up to ``n_times`` batches of 1..max_o
    events, while both groups are at risk."""
    rows = []
    while len(rows) < n_times and y1 + y0 >= 2 and y1 > 0 and y0 > 0:
        o = int(rng.integers(1, min(max_o, y1 + y0) + 1))
        lo, hi = max(0, o - y0), min(o, y1)
        o1 = int(rng.integers(lo, hi + 1))
        rows.append((y1, y0, o, o1))
        y1, y0 = y1 - o1, y0 - (o - o1)
    return rows


def test_update_counts_events_and_event_times():
    ds = dataset_from_stream(stream_of([(10, 10, 2, 1), (9, 9, 1, 0)]))
    assert int((ds.status == EVENT).sum()) == 3
    assert ds.stream.times.tolist() == [1.0, 2.0]


def test_update_matches_brute_force_product():
    rows = _random_rows(np.random.default_rng(7), 30, 20, 15, 2)
    trace = log_evalue_trace(stream_of(rows), 0.7)
    plain = brute_force_product(
        float(exact_increment(Fraction(0.7), Fraction(1), *row)) for row in rows
    )
    assert math.exp(trace[-1]) == pytest.approx(plain[-1], rel=1e-10)


def test_trace_prefix_property():
    rows = [(10, 10, 1, 1), (9, 10, 2, 1), (8, 9, 1, 0)]
    full = log_evalue_trace(stream_of(rows), 0.7)
    prefix = log_evalue_trace(stream_of(rows[:2]), 0.7)
    assert np.allclose(full[:2], prefix, rtol=0, atol=0)


def test_crossed_threshold():
    # evidence reaches the level-alpha threshold 1/alpha = 20, or not
    def decide(log10_e):
        studies = [{"final_log10_e": log10_e}, {"final_log10_e": 0.0}]
        return pooled_decision(studies, 0.05)[1]

    assert decide(math.log10(20.0) + 1e-12) == "reject"
    assert decide(math.log10(19.0)) == "continue"


# ---------------------------------------------------------------------------
# two-sided mixture
# ---------------------------------------------------------------------------

def test_two_sided_single_control_event_is_uninformative():
    # theta_min=0.5 after one control event, balanced: (4/3 + 2/3)/2 == 1
    stream = stream_of([(10, 10, 1, 0)])
    assert math.exp(log_evalue_trace(stream, 0.5, two_sided=True)[0]) == pytest.approx(1.0, abs=1e-14)
    left, right = (log_evalue_trace(stream, t)[0] for t in (0.5, 2.0))
    assert math.exp(left) == pytest.approx(4 / 3, rel=1e-13)
    assert math.exp(right) == pytest.approx(2 / 3, rel=1e-13)


def test_two_sided_trace_scores_each_theta_once_in_one_kernel_call(monkeypatch):
    # theta1, 1/theta1 and theta0 are one grid of one log_kernel call, so
    # the null is not scored once per side; the trace keeps its bits
    stream = stream_of([(30, 30, 1, 1), (29, 30, 3, 2), (27, 28, 1, 0), (27, 27, 54, 27)])
    want = two_sided_log_evalue(*(log_evalue_trace(stream, t, 0.9) for t in (0.7, 1 / 0.7)))
    calls, kernel = [], core.log_kernel

    def counting(events, log_theta):
        calls.append(np.asarray(log_theta))
        return kernel(events, log_theta)

    monkeypatch.setattr(core, "log_kernel", counting)
    got = log_evalue_trace(stream, 0.7, 0.9, two_sided=True)
    assert len(calls) == 1
    assert np.array_equal(calls[0], [[math.log(0.7), math.log(1 / 0.7), math.log(0.9)]])
    assert np.array_equal(got, want)


def test_two_sided_components_kept_separate_until_readout():
    rng = np.random.default_rng(3)
    rows = []
    y1, y0 = 30, 30
    for _ in range(25):
        o1 = int(rng.integers(0, 2))
        if (o1 and y1 == 0) or (not o1 and y0 == 0):
            o1 = 1 - o1
        rows.append((y1, y0, 1, o1))
        y1, y0 = y1 - o1, y0 - (1 - o1)
    stream = stream_of(rows)
    mixed = log_evalue_trace(stream, 0.5, two_sided=True)
    left_only, right_only = log_evalue_trace(stream, 0.5), log_evalue_trace(stream, 2.0)
    # the mixture is read out from the two one-sided traces at every event time
    assert np.allclose(mixed, np.logaddexp(left_only, right_only) - math.log(2.0), rtol=0, atol=1e-12)
    assert mixed.shape == left_only.shape == right_only.shape
    assert two_sided_state(left_only, right_only) == pytest.approx(math.exp(mixed[-1]), rel=1e-12)


def test_two_sided_state_rejects_mismatched_histories():
    a, b = np.full(3, 0.1), np.full(4, 0.1)
    with pytest.raises(ValueError):
        two_sided_state(a, b)


# ---------------------------------------------------------------------------
# meta-analysis combination
# ---------------------------------------------------------------------------

def test_meta_combine_is_the_product():
    studies = [{"final_log10_e": math.log10(20.0)}, {"final_log10_e": 0.0}]
    combined, _ = pooled_decision(studies, 0.05)
    assert 10.0**combined == pytest.approx(20.0, rel=1e-12)


def test_meta_combine_interim_then_continue_equals_final_combination():
    """Combining at an interim look, continuing one trial, and recombining
    gives the same answer as combining the final e-values directly."""
    rows_a = [(10, 10, 1, 1), (9, 10, 1, 0), (9, 9, 2, 1)]
    rows_b = [(8, 8, 1, 0), (8, 7, 1, 1)]
    final_a = log_evalue_trace(stream_of(rows_a), 0.7)[-1]
    final_b = log_evalue_trace(stream_of(rows_b), 0.7)[-1]
    interim_a = log_evalue_trace(stream_of(rows_a[:2]), 0.7)[-1]
    _ = interim_a + final_b  # interim look, then trial A continues
    continued_a = interim_a + log_evalue_trace(stream_of(rows_a[2:]), 0.7)[-1]
    assert math.exp(continued_a + final_b) == pytest.approx(
        math.exp(final_a + final_b), rel=1e-12
    )


# ---------------------------------------------------------------------------
# score components
# ---------------------------------------------------------------------------

def _exact_score(rows, theta: Fraction) -> tuple[float, float]:
    """Score sum(o1 - mean) and information sum(variance) of the exact
    conditional likelihood at odds ``theta``, from the rational pmf."""
    score = information = Fraction(0)
    for y1, y0, o, o1 in rows:
        pmf = exact_hypergeom_pmf(theta, y1, y0, o)
        mean = sum(u * p for u, p in pmf.items())
        score += o1 - mean
        information += sum(u * u * p for u, p in pmf.items()) - mean * mean
    return float(score), float(information)


def test_score_at_null_equals_logrank_sums():
    rows = _random_rows(np.random.default_rng(11), 12, 25, 20, 4)
    score, variance = (float(x[-1]) for x in logrank_moments(stream_of(rows)))
    want_score = want_info = 0.0
    for y1, y0, o, o1 in rows:
        y = y1 + y0
        a1 = y1 / y
        want_score += o1 - o * a1
        want_info += o * a1 * (1 - a1) * (y - o) / (y - 1) if y > 1 else 0.0
    exact_score, exact_info = _exact_score(rows, Fraction(1))
    assert score == pytest.approx(want_score, abs=1e-12)
    assert variance == pytest.approx(want_info, abs=1e-12)
    # the logrank sums are the score test of the exact conditional likelihood
    assert score == pytest.approx(exact_score, abs=1e-12)
    assert variance == pytest.approx(exact_info, abs=1e-12)


@pytest.mark.parametrize("beta", [0.0, -0.35, 0.5])
def test_score_matches_finite_differences(beta):
    rows = _random_rows(np.random.default_rng(23), 12, 25, 20, 4)
    stream = stream_of(rows)
    h = 1e-5
    ll = lambda b_: float(log_kernel(stream, b_).sum())
    fd_score = (ll(beta + h) - ll(beta - h)) / (2 * h)
    fd_info = -(ll(beta + h) - 2 * ll(beta) + ll(beta - h)) / h**2
    score, information = _exact_score(rows, Fraction(math.exp(beta)))
    assert score == pytest.approx(fd_score, rel=1e-6, abs=1e-6)
    assert information == pytest.approx(fd_info, rel=1e-4, abs=1e-4)
