"""Release acceptance checks.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
failure report) and asserts the stated tolerance.  These are the
coarse-grained behavioural guarantees of the package; the per-module suites
cover the fine structure.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from safelogrank.adaptive import (
    PriorSpec,
    _bayes_log_numerators,
    _bayes_prior,
    _plugin_betas,
    _PluginFit,
    bayes_log_trace,
    confidence_sequence,
    plugin_log_trace,
)
from safelogrank.core import EventStream, log_evalue_trace, log_kernel, two_sided_log_evalue
from safelogrank.gaussian import null_expectation_audit
from safelogrank.simulate import (
    DesignSpec,
    SimScenario,
    design_table,
    sample_single_event_stream,
    schoenfeld_sample_size,
    simulate_stopping_times,
    stream_rng,
    wald_expected_stopping,
)

from oracles import (
    compare_exact_gaussian,
    enumerate_paths,
    exact_hypergeom_pmf,
    logrank_moments,
    sample_tied_stream_binomial,
    stream_of,
    unit_time_martingale,
)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_every_exact_factor_has_unit_null_expectation():
    """Exhaustive small-risk-set grid: conditional expectation of the exact
    multiplicative factor under the null equals 1 to 1e-12."""
    worst = 0.0
    pairs = [(0.7, 1.0), (0.1, 1.0), (2.5, 1.0), (0.7, 0.5), (3.0, 2.0), (1.0, 1.0)]
    for y1 in range(13):
        for y0 in range(13):
            if y1 + y0 == 0:
                continue
            for o in range(1, y1 + y0 + 1):
                # one row per possible treatment-event count
                support = stream_of([(y1, y0, o, u) for u in range(max(0, o - y0), min(o, y1) + 1)])
                for theta1, theta0 in pairs:
                    null = log_kernel(support, math.log(theta0))
                    factor = np.exp(log_kernel(support, math.log(theta1)) - null)
                    expectation = float(np.exp(null) @ factor)
                    worst = max(worst, abs(expectation - 1.0))
    _verdict(
        "unit null expectation (exhaustive grid)",
        worst <= 1e-12,
        f"max |E - 1| = {worst:.3e} (tolerance 1e-12)",
    )


def test_02_classical_sample_size_golden_values():
    expected = {0.5: 52, 0.6: 95, 0.7: 195, 0.8: 497, 0.9: 2228}
    got = {t: schoenfeld_sample_size(t, alpha=0.05, beta=0.2) for t in expected}
    _verdict(
        "classical event counts",
        got == expected,
        f"computed {got}",
    )


def test_03_type_one_error_under_optional_stopping():
    """10^3 null streams monitored to exhaustion: the crossing fraction must
    respect the Ville bound alpha=0.05 up to binomial noise."""
    design = DesignSpec(theta1=0.7, alpha=0.05)
    scenario = SimScenario(
        m1=500, m0=500, theta=1.0, design=design, replications=1000, seed=101
    )
    taus = simulate_stopping_times(scenario)  # cap defaults to exhaustion
    rate = float(np.isfinite(taus).mean())
    limit = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 1000.0)
    _verdict(
        "type-I under optional stopping",
        rate <= limit,
        f"crossing fraction {rate:.4f} <= {limit:.4f}",
    )


def test_04_gaussian_factor_null_expectation_audit():
    """Balanced designs keep the Gaussian factor a genuine e-variable over
    theta1 in [0.5, 2]; a 3:1 allocation at theta1=0.1 leaks."""
    worst = 0.0
    for m in (1, 5, 50, 500):
        for theta1 in np.geomspace(0.5, 2.0, 41):
            value = null_expectation_audit(float(theta1), m, m, m, m)
            worst = max(worst, value)
    leak = null_expectation_audit(0.1, 300, 100, 300, 100)
    ok = worst <= 1.0 + 1e-9 and leak > 1.0
    _verdict(
        "gaussian null-expectation audit",
        ok,
        f"balanced max {worst:.12f} (<= 1+1e-9), 3:1 at theta1=0.1 gives {leak:.6f} (> 1)",
    )


def test_05_exact_and_gaussian_stop_together_on_balanced_streams():
    design = DesignSpec(theta1=0.7, alpha=0.05)
    scenario = SimScenario(
        m1=5000, m0=5000, theta=0.7, design=design, replications=200, seed=7
    )
    cmp = compare_exact_gaussian(scenario, cap=3000)
    same = float(
        np.mean(np.isfinite(cmp.tau_exact) & (cmp.tau_exact == cmp.tau_gaussian))
    )
    stopped = np.isfinite(cmp.tau_exact)
    median_gap = float(np.median(cmp.dlog_at_exact_stop[stopped]))
    ok = same >= 0.60 and median_gap < 0.15
    _verdict(
        "exact vs gaussian agreement",
        ok,
        f"identical stopping count in {same:.1%} of runs (>= 60%), "
        f"median |dlog e| at stopping {median_gap:.4f} (< 0.15)",
    )


def test_06_design_table_relative_to_classical():
    table = design_table(
        0.7,
        5000,
        5000,
        alpha=0.05,
        power=0.8,
        replications=1000,
        seed=29,
        kinds=("exact",),
        cap=1200,
        include_obf=True,
        obf_cap=400,
    )
    n_fixed = table["n_fixed"]
    rows = {r.test_kind: r for r in table["rows"]}
    exact = rows["exact"]
    obf = rows["obrien-fleming"]
    checks = {
        "n_max ratio in [1.1, 1.7]": 1.1 <= exact.ratio_n_max <= 1.7,
        "mean ratio <= 1.0": exact.ratio_mean <= 1.0,
        "conditional ratio <= 0.85": exact.conditional_mean / n_fixed <= 0.85,
        "obf n_max in [195, 235]": 195 <= obf.n_max <= 235,
    }
    detail = (
        f"n_fixed={n_fixed}, exact n_max={exact.n_max} "
        f"(ratio {exact.ratio_n_max:.3f}), mean ratio {exact.ratio_mean:.3f}, "
        f"conditional ratio {exact.conditional_mean / n_fixed:.3f}, "
        f"obf n_max={obf.n_max}"
    )
    _verdict("design table vs classical", all(checks.values()), detail + f"; {checks}")


def test_07_confidence_sequence_coverage():
    """10^3 streams at theta=0.7: the plug-in confidence sequence may ever
    mis-exclude the truth in at most ~alpha of them."""
    theta_true = 0.7
    grid = np.unique(np.concatenate([np.geomspace(0.25, 2.8, 99), [theta_true]]))
    assert grid.size == 100 and theta_true in grid
    exits = 0
    reps = 1000
    for r in range(reps):
        stream = sample_single_event_stream(50, 50, theta_true, stream_rng(55, r))
        seq = confidence_sequence(stream, alpha=0.05, numerator="plugin", grid=grid)
        if not bool(seq.contains(theta_true).all()):
            exits += 1
    rate = exits / reps
    limit = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / reps)
    _verdict(
        "confidence sequence coverage",
        rate <= limit,
        f"truth ever excluded in {rate:.4f} of runs (<= {limit:.4f})",
    )


def test_08_learning_numerator_beats_misspecified_fixed_alternative():
    """With a strong true effect the learned numerator stops sooner than a
    weak fixed alternative; with a weak true effect the ordering flips."""
    means = {}
    for theta in (0.4, 0.8):
        means[theta] = {}
        for kind in ("exact", "plugin"):
            design = DesignSpec(theta1=0.8, alpha=0.05, test_kind=kind)
            scenario = SimScenario(
                m1=1000, m0=1000, theta=theta, design=design, replications=150, seed=67
            )
            # identical streams for both kinds: replication r draws from the
            # (seed, r)-keyed generator either way
            taus = simulate_stopping_times(scenario, cap=2000)
            means[theta][kind] = float(np.minimum(taus, 2000).mean())
    ok = (
        means[0.4]["plugin"] < means[0.4]["exact"]
        and means[0.8]["plugin"] > means[0.8]["exact"]
    )
    _verdict(
        "adaptive numerator advantage",
        ok,
        f"mean stopping at theta=0.4: plugin {means[0.4]['plugin']:.0f} < "
        f"fixed(0.8) {means[0.4]['exact']:.0f}; at theta=0.8: plugin "
        f"{means[0.8]['plugin']:.0f} > fixed(0.8) {means[0.8]['exact']:.0f}",
    )


def _exact_score(stream, beta: float) -> tuple[float, float]:
    """Score sum(o1 - mean) and information sum(variance) of the exact
    conditional likelihood at log hazard ratio ``beta``, from the rational
    pmf at the binary value of ``exp(beta)``."""
    theta = Fraction(math.exp(beta))
    score = information = Fraction(0)
    for y1, y0, o, o1 in zip(*(c.tolist() for c in (stream.y1, stream.y0, stream.o, stream.o1))):
        pmf = exact_hypergeom_pmf(theta, y1, y0, o)
        mean = sum(u * p for u, p in pmf.items())
        score += o1 - mean
        information += sum(u * u * p for u, p in pmf.items()) - mean * mean
    return float(score), float(information)


def test_09_score_statistic_equals_logrank_statistic():
    rng = np.random.Generator(np.random.Philox(909))
    worst_z = 0.0
    worst_fd = 0.0
    for _ in range(100):
        m1, m0 = int(rng.integers(10, 80)), int(rng.integers(10, 80))
        stream = sample_tied_stream_binomial(
            m1, m0, float(rng.choice([0.5, 0.8, 1.0, 1.5])), 0.08, rng, horizon=30
        )
        if len(stream.o) < 2:
            continue
        score, information = _exact_score(stream, 0.0)
        z_score = score / math.sqrt(information)
        logrank_score, variance = (x[-1] for x in logrank_moments(stream))
        z_logrank = logrank_score / math.sqrt(variance)
        worst_z = max(worst_z, abs(z_score - z_logrank))
        # score and information are the first and negative second derivative
        # of the log likelihood sum(log_kernel): central finite differences
        # at beta = -0.2
        ll = lambda b: float(log_kernel(stream, b).sum())  # noqa: E731
        h = 1e-5
        fd_score = (ll(-0.2 + h) - ll(-0.2 - h)) / (2 * h)
        h = 1e-4
        fd_info = -(ll(-0.2 + h) - 2 * ll(-0.2) + ll(-0.2 - h)) / h**2
        for fd, exact in zip((fd_score, fd_info), _exact_score(stream, -0.2)):
            worst_fd = max(worst_fd, abs(fd - exact) / max(1.0, abs(exact)))
    ok = worst_z <= 1e-10 and worst_fd <= 1e-6
    _verdict(
        "score test equals logrank statistic",
        ok,
        f"max |z_score - z_logrank| = {worst_z:.2e} (<= 1e-10), "
        f"max FD mismatch {worst_fd:.2e} (<= 1e-6)",
    )


def test_10_unit_time_process_matches_event_time_process():
    rng_master = np.random.Generator(np.random.Philox(4242))
    worst = 0.0
    for _ in range(100):
        m1 = int(rng_master.integers(20, 120))
        m0 = int(rng_master.integers(20, 120))
        theta = float(rng_master.choice([0.4, 0.7, 1.0, 1.8]))
        h0 = float(rng_master.choice([0.02, 0.05, 0.1]))
        if h0 * max(theta, 1.0) >= 1.0:
            continue
        stream = sample_tied_stream_binomial(m1, m0, theta, h0, rng_master)
        times = stream.times.astype(int)
        log_u = unit_time_martingale(stream, int(times[-1]), theta1=0.7)
        trace = log_evalue_trace(stream, 0.7)
        for cum, t in zip(trace, times):
            worst = max(worst, abs(log_u[t - 1] - cum))
    _verdict(
        "unit-time view matches event-time view",
        worst <= 1e-12,
        f"max |log U(t_I) - log M_I| = {worst:.2e} (<= 1e-12)",
    )


def test_11_wald_approximation_of_expected_stopping():
    value = wald_expected_stopping(0.7, 0.7, 4000, 4000, alpha=0.05)
    in_band = abs(value - 191.4) <= 0.1
    design = DesignSpec(theta1=0.7, alpha=0.05)
    scenario = SimScenario(
        m1=4000, m0=4000, theta=0.7, design=design, replications=500, seed=83
    )
    taus = simulate_stopping_times(scenario, cap=2500)
    untruncated = bool(np.isfinite(taus).all())
    rel = abs(float(taus.mean()) - value) / value
    ok = in_band and untruncated and rel <= 0.15
    _verdict(
        "wald expected stopping",
        ok,
        f"formula {value:.4f} (191.4 +/- 0.1), simulated mean {taus.mean():.1f}, "
        f"relative gap {rel:.3f} (<= 0.15), all replications stopped: {untruncated}",
    )


def test_12_meta_analysis_keeps_type_one_error():
    """2000 replications of 5 independent null studies of 60 vs 60, exact
    test at theta1 = 0.7: the pooled ``analyze --meta`` decision may reject
    in at most ~alpha of them.  Rejecting when any single study crosses on
    its own would reject in about 8% and fail this band."""
    from safelogrank.cli import pooled_decision
    from safelogrank.core import EventStream

    alpha, reps, studies, m = 0.05, 2000, 5, 60
    rng = np.random.Generator(np.random.Philox(1212))
    # under the null every order of the 2m events is equally likely
    o1 = rng.permuted(np.tile(np.repeat([1, 0], m), (reps * studies, 1)), axis=1)
    y1 = m - np.cumsum(o1, axis=1) + o1
    y0 = 2 * m - np.arange(2 * m) - y1
    ones = np.ones(2 * m, dtype=np.int64)
    rejections = 0
    for rep in range(reps):
        summaries = []
        for k in range(rep * studies, (rep + 1) * studies):
            stream = EventStream(np.arange(1.0, 2 * m + 1), y1[k], y0[k], ones, o1[k])
            trace = log_evalue_trace(stream, 0.7)
            crossed = bool(np.max(trace) >= math.log(1.0 / alpha))
            summaries.append(
                {"final_log10_e": float(trace[-1]) / math.log(10.0),
                 "decision": "reject" if crossed else "continue"}
            )
        rejections += pooled_decision(summaries, alpha)[1] == "reject"
    rate = rejections / reps
    limit = alpha + 3.0 * math.sqrt(alpha * (1 - alpha) / reps)
    _verdict(
        "meta-analysis type-I error",
        rate <= limit,
        f"pooled null rejected in {rate:.4f} of replications (<= {limit:.4f})",
    )


def test_13_exact_null_expectation_and_level_by_path_enumeration():
    """Every order of 7 + 7 uncensored events (3,432 equally likely paths
    under the null), scored as the rows of one call per numerator: the
    plug-in through one ``_PluginFit``, Bayes through the row-batched
    numerator.  Each gives ``E[M_n] = 1`` to 1e-12 at every n and an exact
    ``P(sup_n M_n >= 1/alpha) <= alpha``, and a row gets the log e-values
    of its one-row trace to 1e-12 (checked on every 34th path).  A plug-in
    or Bayes step that peeked at the current event would break the
    expectation at once; a Monte Carlo band would not show it here."""
    m, alpha, theta1 = 7, 0.05, 0.7
    paths = enumerate_paths(m)
    size, n = paths.o.shape
    assert size == math.comb(2 * m, m)
    columns = (paths.y1, paths.y0, paths.o, paths.o1)
    cells = EventStream(None, *(c.ravel() for c in columns))
    null = log_kernel(paths, 0.0)
    betas = _plugin_betas(_PluginFit(size, m, m, n), np.arange(size), paths)
    prior = PriorSpec.lognormal(math.log(theta1), n=41)
    log_num = _bayes_log_numerators(
        paths, np.log(prior.thetas)[None, :], *(np.repeat(a, size, axis=0) for a in _bayes_prior(prior))
    )
    left, right = (np.cumsum(log_kernel(paths, math.log(t)) - null, axis=1) for t in (theta1, 1 / theta1))
    traces = {
        "exact": left,
        "two-sided": two_sided_log_evalue(left, right),
        "plug-in": np.cumsum(log_kernel(cells, betas[:, :-1].ravel()).reshape(size, n) - null, axis=1),
        "Bayes": np.cumsum(log_num - null, axis=1),
    }
    one_row = {
        "exact": lambda s: log_evalue_trace(s, theta1),
        "two-sided": lambda s: log_evalue_trace(s, theta1, two_sided=True),
        "plug-in": plugin_log_trace,
        "Bayes": lambda s: bayes_log_trace(s, prior),
    }
    checked = {p: EventStream(None, *(c[p] for c in columns)) for p in range(0, size, 34)}
    for name, trace in traces.items():
        drift = np.abs(np.exp(trace).mean(axis=0) - 1.0).max()
        level = float(np.mean(trace.max(axis=1) >= math.log(1.0 / alpha)))
        apart = max(np.abs(one_row[name](stream) - trace[p]).max() for p, stream in checked.items())
        _verdict(
            f"exact null of the {name} numerator ({size} paths)",
            drift <= 1e-12 and level <= alpha and apart <= 1e-12,
            f"max_n |E[M_n] - 1| = {drift:.1e}, P(sup M >= 1/alpha) = {level:.5f}, "
            f"rows vs one-row traces {apart:.1e}",
        )


def test_14_optional_continuation_gives_power_one():
    """The exact test sized at power 0.8 (n_max 277 events at seed 11) and
    continued past n_max: by 4 x n_max at least 0.99 of 10^3 streams under
    the alternative reject, while under the null the crossing fraction over
    the same horizon respects alpha=0.05 up to binomial noise."""
    table = design_table(0.7, 2000, 2000, replications=1000, seed=11)
    cap = 4 * table["rows"][0].n_max
    rates = {}
    for theta in (0.7, 1.0):
        scenario = SimScenario(
            m1=2000, m0=2000, theta=theta, design=DesignSpec(theta1=0.7), replications=1000, seed=11
        )
        rates[theta] = float(np.isfinite(simulate_stopping_times(scenario, cap=cap)).mean())
    limit = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 1000.0)
    _verdict(
        "power one by optional continuation",
        rates[0.7] >= 0.99 and rates[1.0] <= limit,
        f"cap {cap}: power {rates[0.7]:.3f} >= 0.99, null rejection {rates[1.0]:.4f} <= {limit:.4f}",
    )
