"""Monte Carlo engine for sequential trial design with safe logrank tests.

Event streams are simulated directly on the risk-set scale: given ``y1``
treatment and ``y0`` control participants at risk, the next event falls in
the treatment group with probability ``theta * y1 / (y0 + theta * y1)``.
Tied streams instead run in unit time: every participant's event interval
is geometric, with success probability ``h0`` (control) or ``h0 * theta``
(treatment), which is the law of an event in each interval with those
probabilities; all events inside one unit interval form a single tied
batch.

Randomness is counter-based: replication ``r`` of a run with seed ``s``
draws from a Philox stream keyed by ``(s, r)``, so results are bit-identical
however replications are chunked or distributed.

One engine sizes every design.  Single-event streams for the exact (one- or
two-sided), Gaussian and plug-in tests evolve in lockstep, one event per
step across all replications, so a replication drops out as soon as every
requested test has stopped.  Tied streams, and the Bayes, O'Brien-Fleming
and fixed-horizon tests, are sampled first, all replications' event times
concatenated into one ``EventStream``; the kernel of ``core.log_kernel``
(or the logrank increments, or the learned numerators) runs over it once,
and cumulative sums along each replication give the first crossing.

A stopping time ``tau`` is the first cumulative event count at which the
monitored statistic crosses its threshold (``+inf`` when it never does);
``cap`` and ``max_events`` end every stream at that many cumulative events.
Designs are compared the way group-sequential designs usually are: the
maximum sample size ``n_max`` is the empirical ``power``-quantile of ``tau``,
the expected duration is the mean of ``tau' = min(tau, n_max)``, and the
early-stopping benefit is the mean of ``tau`` conditional on ``tau < n_max``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .adaptive import PriorSpec, bayes_log_trace, plugin_log_trace, plugin_newton
from .core import (
    EventBatch,
    EventStream,
    RiskSet,
    log_kernel,
    two_sided_log_evalue,
    validate_theta,
)
from .gaussian import (
    fixed_sample_boundary,
    log_gaussian_evalue,
    logrank_increments,
    normal_quantile,
    schoenfeld_mu,
)

__all__ = [
    "DesignSpec",
    "SimScenario",
    "StoppingReport",
    "TiedStream",
    "UnattainablePowerError",
    "stream_rng",
    "sample_single_event_stream",
    "sample_tied_stream",
    "simulate_stopping_times",
    "compare_exact_gaussian",
    "estimate_nmax",
    "summarize_stopping",
    "estimate_obf_nmax",
    "obf_stopping_times",
    "schoenfeld_sample_size",
    "wald_expected_stopping",
    "design_table",
    "DesignRow",
]

TestKind = Literal["exact", "gaussian", "plugin", "bayes", "obf", "fixed"]


class UnattainablePowerError(RuntimeError):
    """The requested power is not reached even with every observed event."""

    def __init__(self, requested: float, achieved: float):
        super().__init__(
            f"requested power {requested:.3f} but only {achieved:.3f} of "
            "replications ever stop; no finite n_max attains the target"
        )
        self.requested = requested
        self.achieved = achieved


@dataclass(frozen=True)
class DesignSpec:
    """What test is monitored and at what error rates.

    ``theta1`` is the design alternative (the minimal clinically relevant
    hazard ratio for two-sided tests); learning tests (``plugin``/``bayes``)
    ignore it for their numerator but keep it for reference sample sizes.
    ``n_max`` is the planning horizon required by ``obf`` and ``fixed``.
    """

    theta1: float
    alpha: float = 0.05
    power: float = 0.8
    theta0: float = 1.0
    test_kind: TestKind = "exact"
    two_sided: bool = False
    n_max: int | None = None
    prior: PriorSpec | None = None

    def __post_init__(self) -> None:
        validate_theta(self.theta1, "theta1")
        validate_theta(self.theta0, "theta0")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not (self.alpha < self.power < 1.0):
            raise ValueError(
                f"power must be in (alpha, 1) so that alpha + beta < 1, got {self.power}"
            )
        if self.test_kind not in ("exact", "gaussian", "plugin", "bayes", "obf", "fixed"):
            raise ValueError(f"unknown test kind {self.test_kind!r}")
        if self.test_kind in ("obf", "fixed") and self.n_max is None:
            raise ValueError(f"{self.test_kind!r} design needs an n_max horizon")
        if self.test_kind in ("exact", "gaussian", "obf") and self.theta1 == self.theta0:
            raise ValueError("theta1 must differ from theta0")

    @property
    def side(self) -> str:
        return "left" if self.theta1 < self.theta0 else "right"

    @property
    def log_threshold(self) -> float:
        return math.log(1.0 / self.alpha)


@dataclass(frozen=True)
class SimScenario:
    """A data-generating truth plus the design that monitors it."""

    m1: int
    m0: int
    theta: float
    design: DesignSpec
    replications: int = 10_000
    seed: int = 0
    tie_h0: float | None = None
    max_events: int | None = None

    def __post_init__(self) -> None:
        if self.m1 < 1 or self.m0 < 1:
            raise ValueError(f"group sizes must be >= 1, got m1={self.m1}, m0={self.m0}")
        validate_theta(self.theta)
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.tie_h0 is not None and not (
            0.0 < self.tie_h0 * max(self.theta, 1.0) < 1.0
        ):
            raise ValueError(
                f"tie_h0 * max(theta, 1) must lie in (0, 1), got tie_h0={self.tie_h0}"
            )


def stream_rng(seed: int, replication: int) -> np.random.Generator:
    """Counter-based per-replication generator keyed by (seed, replication)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, replication))))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def sample_single_event_stream(
    m1: int,
    m0: int,
    theta: float,
    rng: np.random.Generator,
    max_events: int | None = None,
) -> list[EventBatch]:
    """One-event-at-a-time stream, run to risk-set exhaustion (or a cap)."""
    validate_theta(theta)
    y1, y0 = m1, m0
    n = m1 + m0 if max_events is None else min(max_events, m1 + m0)
    u = rng.random(n)
    out = []
    for i in range(n):
        p1 = theta * y1 / (y0 + theta * y1)
        o1 = int(u[i] < p1)
        out.append(EventBatch(risk=RiskSet(y1, y0), o=1, o1=o1))
        y1 -= o1
        y0 -= 1 - o1
    return out


@dataclass(frozen=True)
class TiedStream:
    """Event batches indexed by the unit time interval they occurred in."""

    m1: int
    m0: int
    batches: tuple[EventBatch, ...]
    times: tuple[int, ...]  # 1-based unit time of each batch
    horizon: int  # number of unit intervals simulated

    def __post_init__(self) -> None:
        if len(self.batches) != len(self.times):
            raise ValueError("each batch needs exactly one unit time")
        if any(t2 <= t1 for t1, t2 in zip(self.times, self.times[1:])):
            raise ValueError("unit times must be strictly increasing")
        if self.times and not (1 <= self.times[0] and self.times[-1] <= self.horizon):
            raise ValueError("unit times must lie within the horizon")


def _tied_columns(
    m1: int, m0: int, theta: float, h0: float, rng: np.random.Generator
) -> tuple[np.ndarray, ...]:
    """The one tied sampler: unit time, ``y1``, ``y0``, ``o`` and ``o1`` of
    every interval with events, run to risk-set exhaustion.  Each treatment
    participant's event interval is ``Geometric(h0 * theta)`` and each
    control participant's ``Geometric(h0)``, drawn in that order."""
    if not (0.0 < h0 * max(theta, 1.0) < 1.0):
        raise ValueError(f"h0 * max(theta, 1) must lie in (0, 1), got h0={h0}")
    when = np.concatenate([rng.geometric(h0 * theta, m1), rng.geometric(h0, m0)])
    times, interval = np.unique(when, return_inverse=True)
    o = np.bincount(interval, minlength=times.size)
    o1 = np.bincount(interval[:m1], minlength=times.size)
    y1 = m1 - np.cumsum(o1) + o1
    return times, y1, m1 + m0 - np.cumsum(o) + o - y1, o, o1


def sample_tied_stream(
    m1: int,
    m0: int,
    theta: float,
    h0: float,
    rng: np.random.Generator,
    horizon: int | None = None,
) -> TiedStream:
    """Unit-time stream: each at-risk participant has an event in interval k
    with probability ``h0`` (control) or ``h0 * theta`` (treatment).  Runs to
    risk-set exhaustion unless a horizon is given."""
    validate_theta(theta)
    times, y1, y0, o, o1 = _tied_columns(m1, m0, theta, h0, rng)
    last = int(times[-1]) if times.size else 0
    if horizon is not None:
        last = min(last, horizon)
        keep = times <= horizon
        times, y1, y0, o, o1 = times[keep], y1[keep], y0[keep], o[keep], o1[keep]
    batches = tuple(
        EventBatch(risk=RiskSet(a, b), o=c, o1=d)
        for a, b, c, d in zip(y1.tolist(), y0.tolist(), o.tolist(), o1.tolist())
    )
    return TiedStream(m1=m1, m0=m0, batches=batches, times=tuple(times.tolist()), horizon=last)


# ---------------------------------------------------------------------------
# lockstep engine (single-event streams)
# ---------------------------------------------------------------------------

def _event_limit(scenario: SimScenario, cap: int | None) -> int:
    """Events per replication: ``m1 + m0``, ``cap`` and ``max_events``, whichever is least."""
    return min(b for b in (scenario.m1 + scenario.m0, cap, scenario.max_events) if b is not None)


def _single_increment(o1, ly1, ly0, log_theta, log_theta0):
    """Exact log e-value increment of single events with ``y1, y0 >= 1``."""
    return (
        o1 * (log_theta - log_theta0)
        + np.logaddexp(ly0, log_theta0 + ly1)
        - np.logaddexp(ly0, log_theta + ly1)
    )


@dataclass
class _EngineResult:
    cap: int
    taus: dict[str, np.ndarray]
    z_scaled: np.ndarray | None = None  # (reps, cap) of Z_n * sqrt(n)
    dlog_at_exact_stop: np.ndarray | None = None


def _evolve_single_event(
    scenario: SimScenario,
    kinds: Sequence[str],
    cap: int | None = None,
    rep_range: tuple[int, int] | None = None,
    collect_z: bool = False,
    collect_dlog: bool = False,
) -> _EngineResult:
    """Evolve every replication's event stream in lockstep, one event per
    step, recording first-crossing times for the requested tests.

    All tests see the same simulated streams, so stopping times for
    different kinds are directly comparable replication by replication.
    The cap never exceeds ``m1 + m0``, so every replication has an event at
    every step and the cumulative event count is simply the step index.
    A two-sided exact design keeps one accumulator for ``theta1`` and one
    for ``1/theta1`` and reads them out with ``two_sided_log_evalue``.
    """
    design = scenario.design
    m1, m0 = scenario.m1, scenario.m0
    lo, hi = rep_range if rep_range is not None else (0, scenario.replications)
    reps = hi - lo
    cap = _event_limit(scenario, cap)
    threshold = design.log_threshold

    u = np.empty((reps, cap))
    for r in range(reps):
        u[r] = stream_rng(scenario.seed, lo + r).random(cap)

    y1 = np.full(reps, m1, dtype=np.int64)
    y0 = np.full(reps, m0, dtype=np.int64)

    want = set(kinds)
    unknown = want - set(_LOCKSTEP_KINDS)
    if unknown:
        raise ValueError(f"engine supports exact/gaussian/plugin, got {sorted(unknown)}")
    taus = {k: np.full(reps, np.inf) for k in want}

    log_t0 = math.log(design.theta0)
    # one accumulator per alternative: theta1, and 1/theta1 when two-sided
    sides = [math.log(design.theta1)]
    if design.two_sided:
        sides.append(math.log(1.0 / design.theta1))
    side_logm = np.zeros((len(sides), reps))
    exact_logm = np.zeros(reps) if design.two_sided else side_logm[0]

    mu1 = schoenfeld_mu(design.theta1, m1, m0) if ("gaussian" in want or collect_z) else 0.0
    score = np.zeros(reps)
    variance = np.zeros(reps)
    gauss_logm = np.zeros(reps)

    if "plugin" in want:
        # Offsets log(y1/y0) of each replication's single events for
        # ``plugin_newton``: the virtual treatment and control events first,
        # then the informative events; empty slots hold -inf, which adds
        # nothing to the score.  ``o1_sum`` counts treatment events, the
        # virtual one included.
        hist_c = np.full((reps, cap + 2), -np.inf)
        hist_c[:, :2] = math.log((m1 + 1) / m0), math.log(m1 / (m0 + 1))
        o1_sum = np.ones(reps)
        beta = np.full(reps, plugin_newton(np.zeros(1), 1.0, hist_c[:1, :2])[0])
        plugin_logm = np.zeros(reps)

    z_scaled = np.full((reps, cap), np.nan) if collect_z else None
    dlog = np.full(reps, np.nan) if collect_dlog else None

    active = np.ones(reps, dtype=bool)
    for i in range(cap):
        n = i + 1
        if not active.any():
            break
        a = np.flatnonzero(active) if not collect_z else np.arange(reps)
        ay1, ay0 = y1[a], y0[a]
        total = ay1 + ay0
        p1 = scenario.theta * ay1 / (ay0 + scenario.theta * ay1)
        o1 = (u[a, i] < p1).astype(np.int64)

        informative = (ay1 > 0) & (ay0 > 0)
        inf_idx = a[informative]
        ly1 = np.log(y1[inf_idx])
        ly0 = np.log(y0[inf_idx])

        if "exact" in want:
            for j, log_t1 in enumerate(sides):
                inc = np.zeros(a.size)
                inc[informative] = _single_increment(o1[informative], ly1, ly0, log_t1, log_t0)
                side_logm[j, a] += inc
            if design.two_sided:
                exact_logm[a] = two_sided_log_evalue(*side_logm[:, a])
            newly = (taus["exact"][a] == np.inf) & (exact_logm[a] >= threshold)
            taus["exact"][a[newly]] = n

        if "gaussian" in want or collect_z:
            e1 = ay1 / total
            score[a] += o1 - e1
            variance[a] += e1 * (1.0 - e1)  # o == 1, so V1 = A1 (1 - A1)
            pos = variance[a] > 0
            z = np.zeros(a.size)
            z[pos] = score[a][pos] / np.sqrt(variance[a][pos])
            if collect_z:
                z_scaled[a[pos], i] = z[pos] * math.sqrt(n)
            if "gaussian" in want:
                gauss_logm[a] = -0.5 * n * mu1 * mu1 + mu1 * math.sqrt(n) * z
                newly = pos & (taus["gaussian"][a] == np.inf) & (gauss_logm[a] >= threshold)
                taus["gaussian"][a[newly]] = n

        if "plugin" in want:
            inc = np.zeros(a.size)
            inc[informative] = _single_increment(o1[informative], ly1, ly0, beta[inf_idx], log_t0)
            plugin_logm[a] += inc
            newly = (taus["plugin"][a] == np.inf) & (plugin_logm[a] >= threshold)
            taus["plugin"][a[newly]] = n
            # fold the new observation into each history, then re-solve
            hist_c[inf_idx, i + 2] = ly1 - ly0
            o1_sum[inf_idx] += o1[informative]
            beta[inf_idx] = plugin_newton(beta[inf_idx], o1_sum[inf_idx], hist_c[inf_idx, : i + 3])

        if collect_dlog and {"exact", "gaussian"} <= want:
            hit = a[(taus["exact"][a] == n)]
            dlog[hit] = np.abs(exact_logm[hit] - gauss_logm[hit])

        y1[a] -= o1
        y0[a] -= 1 - o1

        done = np.ones(a.size, dtype=bool)
        for k in want:
            done &= taus[k][a] < np.inf
        if not collect_z:
            active[a[done]] = False

    return _EngineResult(
        cap=cap,
        taus=taus,
        z_scaled=z_scaled,
        dlog_at_exact_stop=dlog,
    )


# ---------------------------------------------------------------------------
# stream engine (tied streams; Bayes, O'Brien-Fleming and fixed tests)
# ---------------------------------------------------------------------------

_LOCKSTEP_KINDS = ("exact", "gaussian", "plugin")

# Replications x events per chunk of the stream engine.  Chunks of this size
# run as fast as larger ones, and their few-hundred-kB temporaries leave the
# heap no larger between calls.
_STREAM_CELLS = 1 << 14


def _sample_streams(scenario: SimScenario, cap: int | None, lo: int, hi: int) -> list[EventStream]:
    """Event streams of replications ``lo..hi-1``, each ended after
    ``_event_limit`` cumulative events (a tied one at its last batch within
    them)."""
    m1, m0, theta = scenario.m1, scenario.m0, scenario.theta
    limit = _event_limit(scenario, cap)
    streams = []
    for r in range(lo, hi):
        rng = stream_rng(scenario.seed, r)
        if scenario.tie_h0 is None:
            streams.append(EventStream.from_batches(sample_single_event_stream(m1, m0, theta, rng, limit)))
        else:
            cols = _tied_columns(m1, m0, theta, scenario.tie_h0, rng)
            keep = np.cumsum(cols[3]) <= limit
            streams.append(EventStream(*(c[keep] for c in cols)))
    return streams


def _stream_taus(streams: list[EventStream], scenario: SimScenario, kind: str) -> np.ndarray:
    """First cumulative event count at which test ``kind`` crosses on each
    stream, ``inf`` if it never does.  The streams are concatenated into one
    for the kernels, and running sums are taken along a ``(streams, L)``
    layout with one stream per row, in event order."""
    design = scenario.design
    lengths = np.array([s.o.size for s in streams])
    valid = np.arange(lengths.max(initial=0)) < lengths[:, None]
    whole = EventStream(
        *(np.concatenate([getattr(s, f) for s in streams]) for f in ("times", "y1", "y0", "o", "o1"))
    )

    def per_row(values, fill=0.0):
        out = np.full(valid.shape, fill)
        out[valid] = values
        return out

    n = np.cumsum(per_row(whole.o), axis=1)
    if kind in ("exact", "plugin", "bayes"):
        if kind == "exact":
            null = log_kernel(whole, math.log(design.theta0))

            def trace(theta):
                return np.cumsum(per_row(log_kernel(whole, math.log(theta)) - null), axis=1)

            stat = trace(design.theta1)
            if design.two_sided:
                stat = two_sided_log_evalue(stat, trace(1.0 / design.theta1))
        else:
            prior = design.prior or PriorSpec.lognormal(math.log(design.theta1))
            traces = [
                plugin_log_trace(s, scenario.m1, scenario.m0, design.theta0)
                if kind == "plugin"
                else bayes_log_trace(s, prior, design.theta0)
                for s in streams
            ]
            stat = per_row(np.concatenate(traces), -np.inf)
        hit = stat >= design.log_threshold
    elif kind in ("gaussian", "obf", "fixed"):
        score, variance = (np.cumsum(per_row(x), axis=1) for x in logrank_increments(whole))
        pos = variance > 0
        z = np.divide(score, np.sqrt(variance), out=np.zeros(valid.shape), where=pos)
        left = design.side == "left"
        if kind == "gaussian":
            mu1 = schoenfeld_mu(design.theta1, scenario.m1, scenario.m0)
            hit = pos & (log_gaussian_evalue(np.maximum(n, 1), z, mu1) >= design.log_threshold)
        elif kind == "obf":
            bound = normal_quantile(1.0 - design.alpha / 2.0) / np.sqrt(n / design.n_max)
            hit = pos & (n <= design.n_max) & ((z <= -bound) if left else (z >= bound))
        else:  # fixed: one look, at the first event time reaching the horizon
            look = pos & (n >= design.n_max)
            bound = fixed_sample_boundary(design.alpha, design.side)
            hit = look & (np.cumsum(look, axis=1) == 1) & ((z <= bound) if left else (z >= bound))
    else:
        raise ValueError(f"unsupported test kind {kind!r}")
    hit &= valid
    first = hit.argmax(axis=1)
    return np.where(hit.any(axis=1), n[np.arange(valid.shape[0]), first], np.inf)


def _stopping_times(
    scenario: SimScenario,
    kinds: Sequence[str],
    cap: int | None = None,
    chunk_size: int | None = None,
) -> dict[str, np.ndarray]:
    """Stopping times of every replication for each test kind, every kind on
    the same streams: in lockstep for single-event streams and the kinds it
    knows, through the stream engine otherwise.  Replications are keyed
    individually, so any chunking gives bit-identical results."""
    lockstep = scenario.tie_h0 is None and set(kinds) <= set(_LOCKSTEP_KINDS)
    reps = scenario.replications
    if chunk_size is not None:
        chunk = max(1, chunk_size)
    else:
        chunk = reps if lockstep else max(1, _STREAM_CELLS // _event_limit(scenario, None))
    parts: dict[str, list[np.ndarray]] = {k: [] for k in kinds}
    for lo in range(0, reps, chunk):
        hi = min(lo + chunk, reps)
        if lockstep:
            taus = _evolve_single_event(scenario, kinds, cap, rep_range=(lo, hi)).taus
        else:
            streams = _sample_streams(scenario, cap, lo, hi)
            taus = {k: _stream_taus(streams, scenario, k) for k in kinds}
        for k in kinds:
            parts[k].append(taus[k])
    return {k: np.concatenate(v) for k, v in parts.items()}


def simulate_stopping_times(
    scenario: SimScenario,
    cap: int | None = None,
    chunk_size: int | None = None,
) -> np.ndarray:
    """Stopping times (in events) for every replication of a scenario.

    ``cap`` (and the scenario's ``max_events``) end each stream after that
    many cumulative events.  ``chunk_size`` only bounds memory:
    replications are keyed individually, so any chunking returns
    bit-identical results.
    """
    kind = scenario.design.test_kind
    return _stopping_times(scenario, (kind,), cap, chunk_size)[kind]


@dataclass(frozen=True)
class ExactGaussianComparison:
    tau_exact: np.ndarray
    tau_gaussian: np.ndarray
    dlog_at_exact_stop: np.ndarray  # nan where the exact test never stopped


def compare_exact_gaussian(scenario: SimScenario, cap: int | None = None) -> ExactGaussianComparison:
    """Run the exact and Gaussian-approximate tests on the same streams and
    record how far apart their log e-values are at the exact test's
    stopping time."""
    res = _evolve_single_event(
        scenario, kinds=("exact", "gaussian"), cap=cap, collect_dlog=True
    )
    return ExactGaussianComparison(
        tau_exact=res.taus["exact"],
        tau_gaussian=res.taus["gaussian"],
        dlog_at_exact_stop=res.dlog_at_exact_stop,
    )


# ---------------------------------------------------------------------------
# design summaries
# ---------------------------------------------------------------------------

def estimate_nmax(taus: np.ndarray, power: float) -> int:
    """Smallest horizon n_max with P(tau <= n_max) >= power, empirically:
    the ceil(power * N)-th order statistic of the stopping times."""
    if not (0.0 < power < 1.0):
        raise ValueError(f"power must be in (0, 1), got {power}")
    taus = np.asarray(taus, dtype=float)
    k = math.ceil(power * taus.size)
    finite = np.sort(taus[np.isfinite(taus)])
    if finite.size < k:
        raise UnattainablePowerError(power, finite.size / taus.size)
    return int(finite[k - 1])


@dataclass(frozen=True)
class StoppingReport:
    """Design summary at a fixed horizon: expected duration with stopping
    truncated at n_max, mean duration of the runs that stopped early, and
    achieved power."""

    n_max: int
    mean_capped: float
    conditional_mean: float
    power: float
    replications: int
    seed: int | None = None

    def as_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "mean_capped": self.mean_capped,
            "conditional_mean": self.conditional_mean,
            "power": self.power,
            "replications": self.replications,
            "seed": self.seed,
        }


def summarize_stopping(taus: np.ndarray, n_max: int, seed: int | None = None) -> StoppingReport:
    taus = np.asarray(taus, dtype=float)
    capped = np.minimum(taus, n_max)
    early = taus[taus < n_max]
    return StoppingReport(
        n_max=int(n_max),
        mean_capped=float(capped.mean()),
        conditional_mean=float(early.mean()) if early.size else math.nan,
        power=float((taus <= n_max).mean()),
        replications=taus.size,
        seed=seed,
    )


def obf_stopping_times(
    z_scaled: np.ndarray, n_max: int, alpha: float, side: str = "left"
) -> np.ndarray:
    """First event count n <= n_max at which Z_n crosses the O'Brien-Fleming
    boundary, given the matrix of Z_n * sqrt(n) paths."""
    if n_max > z_scaled.shape[1]:
        raise ValueError(f"n_max={n_max} exceeds the simulated path length {z_scaled.shape[1]}")
    path = z_scaled[:, :n_max]
    crit = normal_quantile(1.0 - alpha / 2.0) * math.sqrt(n_max)
    with np.errstate(invalid="ignore"):
        hits = path <= -crit if side == "left" else path >= crit
    any_hit = hits.any(axis=1)
    first = hits.argmax(axis=1) + 1.0
    return np.where(any_hit, first, np.inf)


def estimate_obf_nmax(
    scenario: SimScenario,
    cap: int,
    power: float | None = None,
) -> tuple[int, np.ndarray]:
    """Smallest O'Brien-Fleming horizon reaching the target power, found by
    scanning candidate horizons over shared simulated Z paths.

    A path crosses the boundary for horizon ``h`` iff
    ``min_n (Z_n * sqrt(n)) <= -z_{1-alpha/2} * sqrt(h)`` (left side), so one
    running minimum per path answers every candidate at once.  Returns the
    horizon and the matrix of scaled-Z paths for reuse.
    """
    design = scenario.design
    power = design.power if power is None else power
    res = _evolve_single_event(scenario, kinds=("gaussian",), cap=cap, collect_z=True)
    z_scaled = res.z_scaled
    crit = normal_quantile(1.0 - design.alpha / 2.0)
    with np.errstate(invalid="ignore"):
        extreme = (
            np.fmin.accumulate(z_scaled, axis=1)
            if design.side == "left"
            else np.fmax.accumulate(z_scaled, axis=1)
        )
    for h in range(1, res.cap + 1):
        col = extreme[:, h - 1]
        bound = crit * math.sqrt(h)
        frac = np.mean(col <= -bound) if design.side == "left" else np.mean(col >= bound)
        if frac >= power:
            return h, z_scaled
    achieved = float(np.mean(extreme[:, -1] <= -crit * math.sqrt(res.cap)))
    raise UnattainablePowerError(power, achieved)


def schoenfeld_sample_size(theta1: float, alpha: float = 0.05, beta: float = 0.2) -> int:
    """Classical fixed-sample event count for a one-sided level-alpha
    logrank test with power 1 - beta under a balanced design."""
    validate_theta(theta1, "theta1")
    if theta1 == 1.0:
        raise ValueError("theta1 = 1 has no finite fixed sample size")
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0 and alpha + beta < 1.0):
        raise ValueError(f"need alpha, beta in (0, 1) with alpha + beta < 1, got {alpha}, {beta}")
    za = normal_quantile(1.0 - alpha)
    zb = normal_quantile(1.0 - beta)
    return math.ceil(4.0 * (za + zb) ** 2 / math.log(theta1) ** 2)


def wald_expected_stopping(
    theta: float,
    theta1: float,
    m1: int,
    m0: int,
    alpha: float = 0.05,
    theta0: float = 1.0,
) -> float:
    """Wald-style approximation to the expected stopping time in events:
    log(1/alpha) divided by the expected log growth per event, computed for
    the single-event kernel with the risk ratio frozen at m1 : m0."""
    validate_theta(theta)
    validate_theta(theta1, "theta1")
    validate_theta(theta0, "theta0")

    def p(th: float) -> float:
        return th * m1 / (m0 + th * m1)

    pt, pa, p0 = p(theta), p(theta1), p(theta0)
    drift = pt * math.log(pa / p0) + (1.0 - pt) * math.log((1.0 - pa) / (1.0 - p0))
    if drift <= 0.0:
        raise ValueError(
            "expected log growth per event is nonpositive at this truth; "
            "the test is not expected to stop"
        )
    return math.log(1.0 / alpha) / drift


# ---------------------------------------------------------------------------
# design tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DesignRow:
    """One monitored design in a comparison table; ratios are relative to
    the classical fixed-sample event count."""

    test_kind: str
    n_max: int
    mean_capped: float
    conditional_mean: float
    power: float
    ratio_n_max: float
    ratio_mean: float


def design_table(
    theta1: float,
    m1: int,
    m0: int,
    *,
    theta: float | None = None,
    alpha: float = 0.05,
    power: float = 0.8,
    replications: int = 1000,
    seed: int = 0,
    kinds: Sequence[str] = ("exact",),
    cap: int | None = None,
    include_obf: bool = False,
    obf_cap: int | None = None,
    tie_h0: float | None = None,
) -> dict:
    """Compare sequential designs against the classical fixed-sample test.

    Simulates stopping times under ``theta`` (defaulting to the design
    alternative), sizes each design for the requested power, and reports
    expected durations.  The classical row is the reference: its n_max is
    the Schoenfeld event count and it never stops early.  ``tie_h0``
    simulates tied unit-time streams with that control hazard instead of
    single events; ``cap`` ends every stream after that many events.  The
    O'Brien-Fleming comparator needs single-event streams.
    """
    if include_obf and tie_h0 is not None:
        raise ValueError("the O'Brien-Fleming comparator needs single-event streams, not tie_h0")
    theta = theta1 if theta is None else theta
    n_fixed = schoenfeld_sample_size(theta1, alpha, 1.0 - power)
    rows: list[DesignRow] = []
    unattained: list[dict] = []

    design = DesignSpec(theta1=theta1, alpha=alpha, power=power)
    scenario = SimScenario(
        m1=m1,
        m0=m0,
        theta=theta,
        design=design,
        replications=replications,
        seed=seed,
        tie_h0=tie_h0,
    )

    def add_row(kind: str, taus: np.ndarray, n_max: int) -> None:
        rep = summarize_stopping(taus, n_max, seed=seed)
        rows.append(
            DesignRow(
                test_kind=kind,
                n_max=n_max,
                mean_capped=rep.mean_capped,
                conditional_mean=rep.conditional_mean,
                power=rep.power,
                ratio_n_max=n_max / n_fixed,
                ratio_mean=rep.mean_capped / n_fixed,
            )
        )

    def unattainable(kind: str, err: UnattainablePowerError) -> None:
        unattained.append({"test_kind": kind, "requested": err.requested, "achieved": err.achieved})

    engine_kinds = [k for k in kinds if k in _LOCKSTEP_KINDS]
    for kind, taus in (_stopping_times(scenario, engine_kinds, cap) if engine_kinds else {}).items():
        try:
            n_max = estimate_nmax(taus, power)
        except UnattainablePowerError as err:
            unattainable(kind, err)
        else:
            add_row(kind, taus, n_max)

    if include_obf:
        try:
            h, z_scaled = estimate_obf_nmax(
                scenario, cap=obf_cap if obf_cap is not None else (cap or m1 + m0)
            )
        except UnattainablePowerError as err:
            unattainable("obrien-fleming", err)
        else:
            add_row("obrien-fleming", obf_stopping_times(z_scaled, h, alpha, design.side), h)

    rows.append(
        DesignRow(
            test_kind="fixed-classical",
            n_max=n_fixed,
            mean_capped=float(n_fixed),
            conditional_mean=math.nan,
            power=power,
            ratio_n_max=1.0,
            ratio_mean=1.0,
        )
    )
    try:
        wald = wald_expected_stopping(theta, theta1, m1, m0, alpha)
    except ValueError:
        wald = math.nan  # no positive drift at this truth
    return {
        "n_fixed": n_fixed,
        "wald_expected": wald,
        "rows": rows,
        "unattained": unattained,
    }
