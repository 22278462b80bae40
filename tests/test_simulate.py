"""Tests for the Monte Carlo engine: samplers, stopping times, design sizing."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from safelogrank.adaptive import PriorSpec
from safelogrank.core import log_evalue_trace
from safelogrank.simulate import (
    DesignSpec,
    SimScenario,
    UnattainablePowerError,
    _BLOCK,
    _stopping_summary,
    _stopping_times,
    design_table,
    estimate_nmax,
    estimate_obf_nmax,
    sample_single_event_stream,
    sample_tied_stream,
    schoenfeld_sample_size,
    simulate_stopping_times,
    stream_rng,
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


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5])
def test_stream_keys_equal_numpys_seed_sequence(seed):
    # one vectorized hash gives every replication's Philox key bit for bit,
    # for seeds of one to three 32-bit words and replications of one word
    # and of two
    import safelogrank.simulate as simulate

    reps = [0, 1, 2**31, 2**32 - 1, 2**32, 2**40 + 3]
    want = [np.random.SeedSequence((seed, r)).generate_state(2, np.uint64) for r in reps]
    assert np.array_equal(simulate._stream_keys(seed, reps), np.array(want))
    assert simulate._stream_keys(seed, []).shape == (0, 2)


@pytest.mark.parametrize("size", [1, 3, 5, 256])
def test_resumed_draws_equal_one_draw(size):
    # a row's stream resumed from its key and draw count, in blocks of any
    # size and with other rows read between its blocks, gives the draws of
    # one stream_rng draw
    import safelogrank.simulate as simulate

    scenario = SimScenario(m1=10, m0=10, theta=0.7, design=DesignSpec(theta1=0.7), seed=9)
    streams = simulate._Streams(scenario, range(3), 20)
    want = [stream_rng(9, r).random(700) for r in range(3)]
    got = [[] for _ in range(3)]
    for done in range(0, 700, size):
        for r in (2, 0, 1):
            got[r].append(streams._seek(r, done).random(min(size, 700 - done)))
    for r in range(3):
        assert np.array_equal(np.concatenate(got[r]), want[r])


def test_tied_streams_drawn_from_keys_equal_stream_rngs():
    # a tied stream draws its geometric event intervals from its row's
    # stream, set to the start whatever row the generator read before
    import safelogrank.simulate as simulate
    from safelogrank.simulate import _tied_columns

    scenario = SimScenario(
        m1=300, m0=200, theta=0.6, design=DesignSpec(theta1=0.7), seed=12, tie_h0=0.02
    )
    streams = simulate._Streams(scenario, range(4), 500)
    streams._seek(3, 77).random(5)
    for r in (1, 0, 3, 2):
        got = _tied_columns(300, 200, 0.6, 0.02, streams._seek(r, 0))
        want = _tied_columns(300, 200, 0.6, 0.02, stream_rng(12, r))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_a_negative_library_seed_is_refused():
    design = DesignSpec(theta1=0.7)
    scenario = SimScenario(m1=20, m0=20, theta=0.7, design=design, replications=5, seed=-1)
    with pytest.raises(ValueError, match="non-negative"):
        simulate_stopping_times(scenario)
    with pytest.raises(ValueError, match="non-negative"):
        estimate_obf_nmax(scenario, cap=30)
    with pytest.raises(ValueError, match="non-negative"):
        design_table(0.7, 20, 20, replications=5, seed=-1)


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
    assert np.array_equal(fast, slow), (fast, slow)


def test_plugin_design_recentres_and_matches_per_stream(monkeypatch):
    # streams long enough that every replication's estimates re-centre on
    # their histories several times; the engine solves spans of growing
    # prefixes on carried series and the per-stream traces whole streams,
    # yet every crossing agrees
    import safelogrank.adaptive as adaptive

    recentred = []
    moments_about = adaptive._moments_about

    def counting(c, at, rows=None, ends=None):
        if ends is not None:  # a history read, not the moments of new events
            recentred.append(at.size)
        return moments_about(c, at, rows, ends)

    monkeypatch.setattr(adaptive, "_moments_about", counting)
    scenario = SimScenario(
        m1=400, m0=400, theta=0.8, design=DesignSpec(theta1=0.7, test_kind="plugin"),
        replications=12, seed=21,
    )
    fast = simulate_stopping_times(scenario, cap=600)
    assert sum(recentred) >= 5 * scenario.replications
    assert np.isfinite(fast).any() and (fast[np.isfinite(fast)] > 2 * _BLOCK).any()
    assert np.array_equal(fast, stopping_times_per_stream(scenario, cap=600))


def small_chunks(monkeypatch, scenario, cap, kinds=None):
    """Stopping times of ``scenario`` (by kind when ``kinds`` is given) with
    ``_CELLS`` shrunk to 3000 cells.  The engine then takes replications in
    several chunks for every kind (11 a chunk when no fit or tied stream is
    carried, 3 to 6 when one is) and reads a prefix of a chunk in several
    blocks (one replication a block for 94 new events or more, several for
    fewer), every block going on from the statistics its rows carried out
    of the prefix before; fails unless both happen."""
    import safelogrank.simulate as simulate

    chunks, blocks = [], []
    streams = simulate._Streams

    class Counting(streams):
        def __init__(self, *args):
            super().__init__(*args)
            chunks.append(self)

        def take(self, rows, length):
            blocks.append((len(chunks), length))
            return super().take(rows, length)

    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_CELLS", 3000)
        patch.setattr(simulate, "_Streams", Counting)
        if kinds is None:
            taus = simulate_stopping_times(scenario, cap=cap)
        else:
            taus = _stopping_times(scenario, kinds, cap=cap)
    assert len(chunks) > 1
    assert max(blocks.count(b) for b in blocks) > 1  # a prefix of a chunk read in several blocks
    return taus


@pytest.mark.parametrize("kind", ["fixed", "obf"])
def test_settled_rows_are_read_no_further(kind, monkeypatch):
    # at the null, a fixed row's one look at 300 events, and an O'Brien-
    # Fleming row's horizon of 300, settle every row that has not crossed
    # there: no later event can cross on it.  So the engine reads no row
    # past the prefix of 512 events that holds them; read on to the cap,
    # 194 fixed rows took 2,000 events each.  Their stopping times are
    # those of a run that reads every open row to the cap.
    import safelogrank.simulate as simulate

    design = DesignSpec(theta1=0.7, test_kind=kind, n_max=300)
    scenario = SimScenario(m1=1000, m0=1000, theta=1.0, design=design, replications=200, seed=1)
    reads, take = [], simulate._Streams.take

    def reading(self, rows, length):
        reads.append((rows.size, length))
        return take(self, rows, length)

    monkeypatch.setattr(simulate._Streams, "take", reading)
    taus = simulate_stopping_times(scenario, cap=2000)
    assert max(length for _, length in reads) == 512
    reads.clear()
    monkeypatch.setattr(simulate._Running, "open", lambda self, rows, taus: np.isinf(taus[rows]))
    assert np.array_equal(simulate_stopping_times(scenario, cap=2000), taus)
    assert sum(rows for rows, length in reads if length == 2000) == (194 if kind == "fixed" else 196)


def test_engine_chunking_is_bit_identical(monkeypatch):
    design = DesignSpec(theta1=0.7)
    scenario = SimScenario(
        m1=100, m0=100, theta=0.6, design=design, replications=33, seed=8
    )
    whole = simulate_stopping_times(scenario, cap=120)
    chunked = small_chunks(monkeypatch, scenario, cap=120)
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
        assert np.array_equal(whole, small_chunks(monkeypatch, scenario, cap=cap))
        assert np.array_equal(whole, stopping_times_per_stream(scenario, cap=cap))
    # two-sided designs, and single- and two-sided designs on tied streams
    for two_sided, tie_h0 in ((True, None), (False, 0.01), (True, 0.01)):
        scenario = SimScenario(
            m1=100, m0=100, theta=0.6, design=DesignSpec(theta1=0.7, two_sided=two_sided),
            replications=33, seed=8, tie_h0=tie_h0,
        )
        whole = simulate_stopping_times(scenario, cap=120)
        assert np.isfinite(whole).any()
        assert np.array_equal(whole, small_chunks(monkeypatch, scenario, cap=120))
    # every kind on single-event and tied streams, over three prefixes
    for tie_h0 in (None, 0.01):
        for kind, n_max in (
            ("gaussian", None), ("plugin", None), ("bayes", None), ("obf", 400), ("fixed", 300)
        ):
            alone = SimScenario(
                m1=300, m0=300, theta=0.75, design=DesignSpec(theta1=0.7, test_kind=kind, n_max=n_max),
                replications=15, seed=10, tie_h0=tie_h0,
            )
            whole = simulate_stopping_times(alone, cap=cap)
            assert np.isfinite(whole).any(), kind
            assert np.array_equal(whole, small_chunks(monkeypatch, alone, cap=cap)), (kind, tie_h0)


def test_plugin_rows_split_over_solver_calls_keep_their_stopping_times(monkeypatch):
    # with the chunks shrunk, the rows that one call of the plug-in solver
    # takes at a position are taken by several calls, a row at a time, each
    # over the same spans; no stopping time moves
    import safelogrank.simulate as simulate

    calls = {}
    solve = simulate._plugin_betas

    def counting(fit, rows, *columns):
        calls.setdefault(int(fit.taken[rows[0]]), []).append(rows.size)
        return solve(fit, rows, *columns)

    monkeypatch.setattr(simulate, "_plugin_betas", counting)
    scenario = SimScenario(
        m1=300, m0=300, theta=0.75, design=DesignSpec(theta1=0.7, test_kind="plugin"),
        replications=24, seed=5,
    )
    whole = simulate_stopping_times(scenario, cap=400)
    together, calls = calls, {}
    chunked = small_chunks(monkeypatch, scenario, cap=400)
    assert np.array_equal(whole, chunked)
    assert ((whole > _BLOCK) & np.isfinite(whole)).any() and np.isinf(whole).any()
    assert calls.keys() == together.keys()
    for position, sizes in together.items():
        assert sum(calls[position]) == sum(sizes)
        assert max(calls[position]) == 1
    assert max(max(sizes) for sizes in together.values()) > 1


def test_kinds_scored_together_keep_their_own_stopping_times(monkeypatch):
    # the engine samples 256 events, then 512, then the cap, and drops a
    # replication only once every kind has crossed on it; here rows cross
    # on different kinds before 256, between 256 and 512, after 512, and
    # never, so a row dropped while another kind still needs it, or
    # plug-in estimates lost between prefixes, would move a stopping time
    kinds = ("exact", "gaussian", "plugin")
    scenario = SimScenario(
        m1=300, m0=300, theta=0.8, design=DesignSpec(theta1=0.7), replications=12, seed=1
    )
    together = _stopping_times(scenario, kinds, cap=600)
    both = np.array([together["exact"], together["plugin"]])
    assert ((both[0] <= _BLOCK) & (both[1] > _BLOCK)).any()
    for lo, hi in ((0, _BLOCK), (_BLOCK, 2 * _BLOCK), (2 * _BLOCK, 600)):
        assert ((both > lo) & (both <= hi)).any(axis=1).all(), (lo, hi)
    assert np.isinf(np.array(list(together.values()))).all(axis=0).any()
    for kind in kinds:
        alone = SimScenario(
            m1=300, m0=300, theta=0.8, design=DesignSpec(theta1=0.7, test_kind=kind),
            replications=12, seed=1,
        )
        assert np.array_equal(together[kind], simulate_stopping_times(alone, cap=600)), kind
        assert np.array_equal(together[kind], stopping_times_per_stream(alone, cap=600)), kind
    chunked = small_chunks(monkeypatch, scenario, 600, kinds)
    for kind in kinds:
        assert np.array_equal(together[kind], chunked[kind]), kind


def test_tied_bayes_crossings_straddle_a_prefix():
    design = DesignSpec(theta1=0.7, test_kind="bayes")
    scenario = SimScenario(
        m1=300, m0=300, theta=0.6, design=design, replications=20, seed=3, tie_h0=0.02
    )
    fast = simulate_stopping_times(scenario)
    assert (fast <= _BLOCK).any() and (np.isfinite(fast) & (fast > _BLOCK)).any()
    assert np.array_equal(fast, stopping_times_per_stream(scenario))


@pytest.mark.parametrize("kind,tie_h0", [("plugin", 0.02), ("bayes", 0.02), ("bayes", None)])
def test_open_rows_of_a_block_share_each_solver_call(kind, tie_h0, monkeypatch):
    # tied rows stand at different batch counts and end in empty batches,
    # yet the open rows of a block share one _plugin_betas call a span (a
    # span holds at least _SPAN // 4 batches) or one _bayes_log_numerators
    # call; scoring a row at a time made a call per row and span
    import safelogrank.simulate as simulate

    log = []
    name = "_plugin_betas" if kind == "plugin" else "_bayes_log_numerators"
    solve = getattr(simulate, name)
    take = simulate._Streams.take

    def counting(*args):
        rows = args[1] if kind == "plugin" else args[0].o
        log[-1].append(len(rows))
        return solve(*args)

    def reading(self, rows, length):
        block, n = take(self, rows, length)
        log.append([int(np.count_nonzero(block.o, axis=1).max(initial=0))])
        return block, n

    monkeypatch.setattr(simulate, name, counting)
    monkeypatch.setattr(simulate._Streams, "take", reading)
    design = DesignSpec(theta1=0.7, test_kind=kind)
    scenario = SimScenario(
        m1=300, m0=300, theta=0.6, design=design, replications=40, seed=3, tie_h0=tie_h0
    )
    taus = simulate_stopping_times(scenario)
    assert np.isfinite(taus).any() and len(log) > 1
    for width, *calls in log:
        assert len(calls) <= (-(-width // (simulate._SPAN // 4)) if kind == "plugin" else 1)
    assert max(max(calls, default=0) for _, *calls in log) > 1


@pytest.mark.parametrize("tie_h0", [None, 0.02])
@pytest.mark.parametrize(
    "kind,n_max", [("exact", None), ("gaussian", None), ("plugin", None), ("bayes", None),
                   ("obf", 400), ("fixed", 300)],
)
def test_growing_prefixes_match_one_block_at_the_full_cap(kind, n_max, tie_h0, monkeypatch):
    # scoring every replication's whole stream in one block gives the same
    # stopping times as the engine's growing prefixes, each going on from
    # the statistics the one before carried, at cap = m1 + m0
    import safelogrank.simulate as simulate

    design = DesignSpec(theta1=0.7, test_kind=kind, n_max=n_max)
    scenario = SimScenario(
        m1=300, m0=300, theta=0.75, design=design, replications=16, seed=2, tie_h0=tie_h0
    )
    fast = simulate_stopping_times(scenario, cap=600)
    blocks = []
    take = simulate._Streams.take

    def counting(self, rows, length):
        blocks.append((rows.size, length))
        return take(self, rows, length)

    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_BLOCK", 600)  # the first prefix is the whole stream
        patch.setattr(simulate._Streams, "take", counting)
        whole = simulate_stopping_times(scenario, cap=600)
    assert blocks == [(16, 600)]
    assert np.isfinite(fast).any() and (fast[np.isfinite(fast)] > _BLOCK).any()
    assert np.array_equal(fast, whole)


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


def test_tied_streams_honor_cap():
    design = DesignSpec(theta1=0.7)
    scenario = SimScenario(
        m1=300, m0=300, theta=0.5, design=design, replications=40, seed=9, tie_h0=0.02
    )
    full = simulate_stopping_times(scenario)
    assert (full[np.isfinite(full)] > 60).any()
    capped = simulate_stopping_times(scenario, cap=60)
    assert np.array_equal(capped, np.where(full <= 60, full, np.inf))
    assert np.array_equal(capped, stopping_times_per_stream(scenario, cap=60))


@pytest.mark.parametrize("kind,n_max", [
    ("exact", None), ("gaussian", None), ("plugin", None), ("bayes", None), ("obf", 4), ("fixed", 3),
])
@pytest.mark.parametrize("m,h0,cap", [(300, 0.5, 5), (20, 0.1, 4)])
def test_engine_on_streams_that_end_before_their_first_batch(kind, n_max, m, h0, cap):
    # a tied stream whose first batch exceeds the cap has no batch within
    # it: at 300+300 every stream, at 20+20 only some
    design = DesignSpec(theta1=0.6, test_kind=kind, n_max=n_max)
    scenario = SimScenario(m1=m, m0=m, theta=0.5, design=design, replications=30, seed=5, tie_h0=h0)
    first = [sample_tied_stream(m, m, 0.5, h0, stream_rng(5, r)).o[0] for r in range(30)]
    empty = np.greater(first, cap)
    assert empty.all() if m == 300 else 0 < empty.sum() < empty.size
    fast = simulate_stopping_times(scenario, cap=cap)
    assert np.isinf(fast[empty]).all()
    assert np.array_equal(fast, stopping_times_per_stream(scenario, cap=cap))


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


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10_000).flatmap(lambda n: st.tuples(st.integers(1, n - 1), st.just(n))))
@example(count_n=(55, 100))
def test_estimate_nmax_takes_the_least_count_with_the_power(count_n):
    # at power k / n the k-th order statistic has the power exactly;
    # ceil(power * n) takes the (k+1)-th wherever the product rounds past k
    # (0.55 * 100 is 55.00000000000001)
    k, n = count_n
    assert estimate_nmax(np.arange(1.0, n + 1.0), k / n) == k


def test_the_required_count_at_power_0_8_is_ceil():
    # why no golden or pinned design moved when the count got its own
    # helper: at power 0.8 ceil(0.8 * n) is already the least count
    from safelogrank.simulate import _required_count

    assert all(_required_count(0.8, n) == math.ceil(0.8 * n) for n in range(1, 10_001))


def test_design_table_sizes_to_the_least_count_with_the_power():
    # 100 replications at power 0.55: the 55th stopping time, 157, has
    # power 0.55; ceil(0.55 * 100) = 56 gave 159 at power 0.56.  The
    # O'Brien-Fleming row counted crossings by the same rule all along.
    table = design_table(0.7, 2000, 2000, power=0.55, replications=100, seed=1, include_obf=True)
    exact, obf = table["rows"][:2]
    assert (exact.test_kind, exact.n_max, exact.power) == ("exact", 157, 0.55)
    assert obf.test_kind == "obrien-fleming" and obf.power >= 0.55


def test_estimate_nmax_unattainable():
    taus = np.array([10.0, 20.0, math.inf])
    with pytest.raises(UnattainablePowerError):
        estimate_nmax(taus, 0.8)


def test_estimate_nmax_refuses_no_stopping_times_and_nan():
    # no stopping time has no order statistic (it divided by zero), and a
    # NaN is no stopping time (it was counted as one that never came)
    with pytest.raises(ValueError, match="at least one stopping time"):
        estimate_nmax(np.array([]), 0.8)
    with pytest.raises(ValueError, match="NaN"):
        estimate_nmax([math.nan, 3.0], 0.5)


def test_summarize_stopping_truncates_at_horizon():
    mean_capped, conditional_mean, power = _stopping_summary(np.array([10.0, 20.0, math.inf]), 30)
    assert mean_capped == pytest.approx(20.0)
    assert conditional_mean == pytest.approx(15.0)
    assert power == pytest.approx(2.0 / 3.0)
    assert math.isnan(_stopping_summary(np.array([30.0, math.inf]), 30)[1])


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


@pytest.mark.parametrize(
    "theta,theta1,h",
    [(0.7, 0.7, 186), (1.4, 1.5, 227), (0.78, 0.7, 407), (0.82, 0.7, 585)],
)
def test_obf_scan_over_carried_prefixes_matches_one_whole_cap_scan(theta, theta1, h):
    # the scan reads 256 events, then 512, then the cap, each prefix going
    # on from the sums and running extremes the one before carried; the
    # oracle scans every horizon up to the cap on whole paths, on both
    # sides of 256 and 512 events
    scenario = SimScenario(
        m1=500, m0=500, theta=theta, design=DesignSpec(theta1=theta1), replications=80, seed=5
    )
    got_h, taus = estimate_obf_nmax(scenario, cap=900)
    z_scaled = obf_z_paths(scenario, cap=900)
    side = scenario.design.side
    want_h = next(
        n for n in range(1, 901) if np.isfinite(obf_stopping_times(z_scaled, n, 0.05, side)).mean() >= 0.8
    )
    assert got_h == want_h == h
    assert np.array_equal(taus, obf_stopping_times(z_scaled, h, 0.05, side))


def test_obf_scan_memory_does_not_grow_with_replications():
    # the scan keeps a replication's key, counts and sums, about 60 bytes,
    # and the engine, scoring the stopping times at the horizon, about as
    # much and a bounded block of events; with a generator a replication,
    # about 1.7 KB, the traced peak rose from 7.5 to 10.0 MiB between
    # these counts
    import tracemalloc

    peaks = []
    for reps in (1000, 4000):
        scenario = SimScenario(
            m1=500, m0=500, theta=0.7, design=DesignSpec(theta1=0.7), replications=reps, seed=5
        )
        tracemalloc.start()
        try:
            h, taus = estimate_obf_nmax(scenario, cap=600)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert 200 < h < 240 and taus.size == reps
    assert peaks[1] - peaks[0] < 2**19, peaks


def test_estimate_obf_nmax_refuses_tied_streams():
    # its scan counts one event per step, which a tied stream does not have
    design = DesignSpec(theta1=0.5)
    scenario = SimScenario(m1=100, m0=100, theta=0.5, design=design, replications=10, tie_h0=0.02)
    with pytest.raises(ValueError, match="single-event"):
        estimate_obf_nmax(scenario, cap=60)


def test_estimate_obf_nmax_refuses_a_design_with_no_side():
    # the boundary needs theta1 on one side of theta0; a plug-in design may
    # set theta1 = theta0, and is refused before the scan, by the engine's
    # own O'Brien-Fleming design check
    design = DesignSpec(theta1=1.0, test_kind="plugin")
    scenario = SimScenario(m1=100, m0=100, theta=0.5, design=design, replications=10)
    with pytest.raises(ValueError, match="theta1 must differ"):
        estimate_obf_nmax(scenario, cap=60)


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
    # the engine and the O'Brien-Fleming scan sample and score the new
    # events of growing prefixes 2^16 cells at a time, not the
    # (replications, cap) array of 80 MB at these settings
    import tracemalloc

    for include_obf in (False, True):
        tracemalloc.start()
        try:
            table = design_table(0.7, 5000, 5000, replications=1000, seed=0, include_obf=include_obf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kinds = ["exact"] + ["obrien-fleming"] * include_obf + ["fixed-classical"]
        assert [row.test_kind for row in table["rows"]] == kinds
        assert peak < 16 * 2**20, (include_obf, peak)


@pytest.mark.parametrize("include_obf,tie_h0", [(False, None), (True, None), (False, 0.01)])
def test_design_table_derives_each_key_once_a_pass(include_obf, tie_h0, monkeypatch):
    # replications run over 256, 512, 1024 and 1100 events here, and each
    # prefix resumes a replication's stream from its key and draw count;
    # each _Streams derives the keys of all its rows in one call, and no
    # generator is built a replication (stream_rng is never called).  With
    # the O'Brien-Fleming comparator its horizon scan is a second pass over
    # the same streams, with its own keys, and the engine's pass scores the
    # comparator with the other kinds: two keys a replication.
    import collections

    import safelogrank.simulate as simulate

    keys, derivations, lengths, instances = collections.Counter(), [], set(), []
    derive = simulate._stream_keys

    class Counting(simulate._Streams):
        def __init__(self, *args):
            super().__init__(*args)
            instances.append(self)

        def take(self, rows, length):
            lengths.add(length)
            return super().take(rows, length)

    def deriving(seed, replications):
        derivations.append(len(replications))
        keys.update(replications)
        return derive(seed, replications)

    def building(seed, replication):
        raise AssertionError("the engine builds no generator a replication")

    monkeypatch.setattr(simulate, "_stream_keys", deriving)
    monkeypatch.setattr(simulate, "stream_rng", building)
    monkeypatch.setattr(simulate, "_Streams", Counting)
    table = design_table(
        0.7, 600, 600, theta=0.8, replications=40, seed=4, kinds=("exact", "gaussian", "plugin"),
        cap=1100, include_obf=include_obf, tie_h0=tie_h0,
    )
    assert {256, 512, 1024, 1100} <= lengths
    assert "obrien-fleming" in [row.test_kind for row in table["rows"]] or not include_obf
    assert sorted(keys) == list(range(40))
    assert set(keys.values()) == {2 if include_obf else 1}
    assert len(derivations) == len(instances) == (2 if include_obf else 1)


def _tables_with_and_without_settling(monkeypatch, **kw):
    """``design_table(**kw)`` as it runs, settling a test once its horizon
    is known, and with the engine run to the cap on every row; with, for
    each of the two runs, the cells that each ``_Streams`` (a chunk of
    replications, or the O'Brien-Fleming scan) read at each prefix length."""
    import safelogrank.simulate as simulate

    reads, run = [], simulate._stopping_times

    class Counting(simulate._Streams):
        def __init__(self, *args):
            super().__init__(*args)
            self.read = {}
            reads[-1].append(self.read)

        def take(self, rows, length):
            block, n = super().take(rows, length)
            self.read[length] = self.read.get(length, 0) + block.o.size
            return block, n

    monkeypatch.setattr(simulate, "_Streams", Counting)
    reads.append([])
    settled = design_table(**kw)
    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_stopping_times", lambda scenario, kinds, cap, power: run(scenario, kinds, cap))
        reads.append([])
        whole = design_table(**kw)
    return settled, whole, reads


@pytest.mark.parametrize("tie_h0", [None, 0.01])
@pytest.mark.parametrize("theta,power,fewer", [(0.7, 0.5, True), (0.7, 0.95, False), (1.0, 0.8, False),
                                               (0.8, 0.8, False)])
def test_settled_horizons_give_the_tables_of_runs_to_the_cap(tie_h0, theta, power, fewer, monkeypatch):
    # once k stopping times lie within a prefix, k the least count with the
    # power, every row still open stops past n_max: no figure of its row
    # moves.  At power 0.5 the rows open after the prefix holding n_max are
    # read no further; at the null no test reaches the power and at 0.8
    # the plug-in test does not, so those run to the cap as before.
    kw = dict(theta1=0.7, m1=600, m0=600, theta=theta, power=power, replications=40, seed=4,
              kinds=("exact", "gaussian", "plugin"), cap=1100, tie_h0=tie_h0, include_obf=tie_h0 is None)
    settled, whole, reads = _tables_with_and_without_settling(monkeypatch, **kw)
    assert repr(settled) == repr(whole)
    assert bool(settled["unattained"]) == (theta != 0.7)
    read, read_whole = (sum(sum(chunk.values()) for chunk in run) for run in reads)
    assert read < read_whole if fewer else read == read_whole


@pytest.mark.parametrize("tie_h0", [None, 0.01])
def test_settling_counts_the_stopping_times_of_earlier_chunks(tie_h0, monkeypatch):
    # with _CELLS shrunk to 3000 cells the engine takes 3 (tied) or 11
    # replications a chunk, fewer than the 20 stopping times power 0.5
    # needs of 40; so a chunk that settles after its first prefix where a
    # run to the cap reads on has counted the chunks before it.  Its table
    # is that of one chunk run to the cap.
    import safelogrank.simulate as simulate

    kw = dict(theta1=0.7, m1=300, m0=300, theta=0.7, power=0.5, replications=40, seed=6,
              kinds=("exact", "gaussian"), cap=600, tie_h0=tie_h0)
    one_chunk = design_table(**kw)
    monkeypatch.setattr(simulate, "_CELLS", 3000)
    settled, whole, (chunks, chunks_whole) = _tables_with_and_without_settling(monkeypatch, **kw)
    assert repr(settled) == repr(whole) == repr(one_chunk)
    assert len(chunks) == len(chunks_whole) > 3
    assert any(max(a) == _BLOCK < max(b) for a, b in zip(chunks[1:], chunks_whole[1:]))


@pytest.mark.parametrize("cap,obf_cap", [(40, 300), (300, 50)])
def test_obf_comparator_limit_on_either_side_of_the_engine_cap(cap, obf_cap):
    # each test in the engine's pass reads up to its own limit: at cap 40
    # the comparator's horizon, 56, lies past the cap, where the three other
    # tests stop unattained; at cap 300 the comparator's scan ends at 50
    # without the power, and is reported unattained after the engine rows
    kw = dict(m1=200, m0=200, replications=150, seed=2, kinds=("exact", "gaussian", "plugin"), cap=cap)
    table = design_table(0.5, include_obf=True, obf_cap=obf_cap, **kw)
    alone = design_table(0.5, **kw)
    scenario = SimScenario(m1=200, m0=200, theta=0.5, design=DesignSpec(theta1=0.5), replications=150, seed=2)
    z_scaled = obf_z_paths(scenario, obf_cap)
    engine = [row for row in table["rows"] if row.test_kind != "obrien-fleming"]
    assert repr(engine) == repr(alone["rows"])
    unattained = [(u["test_kind"], u["requested"], u["achieved"]) for u in table["unattained"]]
    if cap < obf_cap:
        obf = table["rows"][0]
        assert (obf.test_kind, obf.n_max) == ("obrien-fleming", 56)
        taus = obf_stopping_times(z_scaled, 56, 0.05, "left")
        assert (obf.mean_capped, obf.conditional_mean, obf.power) == _stopping_summary(taus, 56)
        assert unattained == [("exact", 0.8, 69 / 150), ("gaussian", 0.8, 68 / 150), ("plugin", 0.8, 40 / 150)]
        assert table["unattained"] == alone["unattained"]
    else:
        assert [row.test_kind for row in table["rows"]] == ["exact", "gaussian", "plugin", "fixed-classical"]
        crossed = np.isfinite(obf_stopping_times(z_scaled, 50, 0.05, "left")).mean()
        assert unattained == [("obrien-fleming", 0.8, 113 / 150)] and crossed == 113 / 150
        assert alone["unattained"] == []


@pytest.mark.parametrize("kind", ["bayes", "nonsense"])
def test_design_table_refuses_kinds_it_cannot_size(kind):
    with pytest.raises(ValueError, match=kind):
        design_table(0.7, 100, 100, replications=10, kinds=(kind,))


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
    # settings the kind would ignore: a two-sided gaussian design gave the
    # one-sided stopping times, bit for bit
    with pytest.raises(ValueError, match="two_sided applies to exact"):
        DesignSpec(theta1=0.7, test_kind="gaussian", two_sided=True)
    with pytest.raises(ValueError, match="prior applies to bayes"):
        DesignSpec(theta1=0.7, test_kind="plugin", prior=PriorSpec.lognormal(math.log(0.7)))
    with pytest.raises(ValueError, match="n_max applies to obf/fixed"):
        DesignSpec(theta1=0.7, n_max=100)


def test_scenario_validation():
    design = DesignSpec(theta1=0.7)
    with pytest.raises(ValueError):
        SimScenario(m1=0, m0=10, theta=0.7, design=design)
    with pytest.raises(ValueError):
        SimScenario(m1=10, m0=10, theta=0.7, design=design, replications=0)
    with pytest.raises(ValueError):
        SimScenario(m1=10, m0=10, theta=2.0, design=design, tie_h0=0.6)


@pytest.mark.parametrize("cap", [0, -5])
def test_caps_below_one_are_refused(cap):
    scenario = SimScenario(m1=10, m0=10, theta=0.7, design=DesignSpec(theta1=0.7), replications=5)
    with pytest.raises(ValueError, match="cap"):
        simulate_stopping_times(scenario, cap=cap)
    with pytest.raises(ValueError, match="cap"):
        design_table(0.7, 10, 10, replications=5, cap=cap)
    with pytest.raises(ValueError, match="obf_cap"):
        design_table(0.7, 10, 10, replications=5, include_obf=True, obf_cap=cap)
