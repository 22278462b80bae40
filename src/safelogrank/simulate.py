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

One sampler draws every single-event stream: each replication reads
uniforms from its generator in blocks of steps, and one step per event
compares them with ``theta * y1 / (y0 + theta * y1)``.  One engine sizes
every design.  Single-event streams for the exact (one- or two-sided),
Gaussian and plug-in tests evolve in lockstep, one event per step across
all replications, so a replication stops drawing as soon as every requested
test has stopped.  Tied streams, and the Bayes, O'Brien-Fleming and
fixed-horizon tests, are sampled first (single-event ones by the same step,
vectorized over replications), all replications' event times concatenated
into one ``EventStream``; the kernel of ``core.log_kernel`` (or the logrank
increments, or the learned numerators) runs over it once, and cumulative
sums along each replication give the first crossing.  O'Brien-Fleming
sizing scans the running extremes of ``Z_n * sqrt(n)`` of sampled streams
for the shortest horizon with the requested power.  Replications are taken
in chunks, so memory stays bounded however many there are.

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
    EventStream,
    log_kernel,
    two_sided_log_evalue,
    validate_theta,
)
from .gaussian import (
    fixed_sample_boundary,
    log_gaussian_evalue,
    logrank_increments,
    normal_quantile,
    obf_boundary,
    schoenfeld_mu,
)

__all__ = [
    "DesignSpec",
    "SimScenario",
    "StoppingReport",
    "UnattainablePowerError",
    "stream_rng",
    "sample_single_event_stream",
    "sample_tied_stream",
    "simulate_stopping_times",
    "estimate_nmax",
    "summarize_stopping",
    "estimate_obf_nmax",
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
        _check_cap(self.max_events, "max_events")


def _check_cap(cap: int | None, name: str = "cap") -> None:
    if cap is not None and cap < 1:
        raise ValueError(f"{name} must be >= 1, got {cap}")


def stream_rng(seed: int, replication: int) -> np.random.Generator:
    """Counter-based per-replication generator keyed by (seed, replication)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, replication))))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

# Steps of uniforms a replication draws at once.
_BLOCK = 256


class _Uniforms:
    """The uniforms that drive single-event streams, one stream per
    generator.  Replication ``r`` draws from ``rngs[r]`` in blocks of
    ``_BLOCK`` steps, and only while it is asked for, so its events are the
    same however replications are grouped or when they stop."""

    def __init__(self, rngs: list[np.random.Generator], limit: int):
        self.rngs, self.limit = rngs, limit
        self.block = np.empty((len(rngs), min(_BLOCK, limit)))
        self.by_step = np.empty(self.block.shape[::-1])

    def at(self, i: int, rows) -> np.ndarray:
        """Uniforms of step ``i`` (0-based), one per replication; only the
        entries of ``rows`` are drawn, and a row asked for at step ``i``
        must have been asked for at every step before."""
        j = i % _BLOCK
        if j == 0:
            steps = min(_BLOCK, self.limit - i)
            for r in rows:
                self.rngs[r].random(out=self.block[r, :steps])
            self.by_step[...] = self.block.T
        return self.by_step[j]


def _treatment_events(theta: float, y1: np.ndarray, y0: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Whether each next single event falls in the treatment group, at risk
    sets ``y1, y0``: where ``u < theta * y1 / (y0 + theta * y1)``."""
    t1 = theta * y1
    return u < t1 / (y0 + t1)


def _single_event_columns(
    m1: int, m0: int, theta: float, rngs: list[np.random.Generator], limit: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``y1``, ``y0`` and ``o1`` of the first ``limit`` events of one
    single-event stream per generator, as ``(len(rngs), limit)`` arrays."""
    uniforms = _Uniforms(rngs, limit)
    rows = range(len(rngs))
    cols = np.empty((3, limit, len(rngs)), dtype=np.int64)
    y1 = np.full(len(rngs), m1, dtype=np.int64)
    y0 = np.full(len(rngs), m0, dtype=np.int64)
    for i in range(limit):
        o1 = _treatment_events(theta, y1, y0, uniforms.at(i, rows))
        cols[0, i], cols[1, i], cols[2, i] = y1, y0, o1
        y1 -= o1
        y0 -= ~o1
    return tuple(c.T for c in cols)


def sample_single_event_stream(
    m1: int,
    m0: int,
    theta: float,
    rng: np.random.Generator,
    max_events: int | None = None,
) -> EventStream:
    """One-event-at-a-time stream, run to risk-set exhaustion (or a cap),
    at event times 1, 2, ...: the one-row view of the column sampler."""
    validate_theta(theta)
    n = m1 + m0 if max_events is None else min(max_events, m1 + m0)
    (y1,), (y0,), (o1,) = _single_event_columns(m1, m0, theta, [rng], n)
    return EventStream(np.arange(1.0, n + 1.0), y1, y0, np.ones(n, dtype=np.int64), o1)


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
) -> EventStream:
    """Unit-time stream: each at-risk participant has an event in interval k
    with probability ``h0`` (control) or ``h0 * theta`` (treatment).  Each
    event time is the (1-based) unit interval of its batch.  Runs to
    risk-set exhaustion unless a horizon is given, which drops the batches
    after it."""
    validate_theta(theta)
    times, y1, y0, o, o1 = _tied_columns(m1, m0, theta, h0, rng)
    keep = slice(None) if horizon is None else times <= horizon
    return EventStream(times[keep].astype(float), y1[keep], y0[keep], o[keep], o1[keep])


# ---------------------------------------------------------------------------
# lockstep engine (single-event streams)
# ---------------------------------------------------------------------------

def _event_limit(scenario: SimScenario, cap: int | None) -> int:
    """Events per replication: ``m1 + m0``, ``cap`` and ``max_events``, whichever is least."""
    _check_cap(cap)
    return min(b for b in (scenario.m1 + scenario.m0, cap, scenario.max_events) if b is not None)


def _single_increment(o1, ly1, ly0, log_theta, log_theta0):
    """Exact log e-value increment of single events with ``y1, y0 >= 1``."""
    return (
        o1 * (log_theta - log_theta0)
        + np.logaddexp(ly0, log_theta0 + ly1)
        - np.logaddexp(ly0, log_theta + ly1)
    )


def _evolve_single_event(
    scenario: SimScenario,
    kinds: Sequence[str],
    cap: int | None = None,
    rep_range: tuple[int, int] | None = None,
) -> dict[str, np.ndarray]:
    """Evolve every replication's event stream in lockstep, one event per
    step, and return first-crossing times for the requested tests.

    All tests see the same simulated streams, so stopping times for
    different kinds are directly comparable replication by replication.  A
    replication stops drawing events once every requested test has
    stopped on it.  The cap never exceeds ``m1 + m0``, so every replication
    has an event at every step and the cumulative event count is simply
    the step index.  A two-sided exact design keeps one accumulator for
    ``theta1`` and one for ``1/theta1`` and reads them out with
    ``two_sided_log_evalue``.
    """
    design = scenario.design
    m1, m0 = scenario.m1, scenario.m0
    lo, hi = rep_range if rep_range is not None else (0, scenario.replications)
    reps = hi - lo
    cap = _event_limit(scenario, cap)
    threshold = design.log_threshold
    uniforms = _Uniforms([stream_rng(scenario.seed, r) for r in range(lo, hi)], cap)
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

    mu1 = schoenfeld_mu(design.theta1, m1, m0) if "gaussian" in want else 0.0
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

    active = np.ones(reps, dtype=bool)
    for i in range(cap):
        n = i + 1
        a = np.flatnonzero(active)
        if a.size == 0:
            break
        ay1, ay0 = y1[a], y0[a]
        o1 = _treatment_events(scenario.theta, ay1, ay0, uniforms.at(i, a)[a])

        informative = (ay1 > 0) & (ay0 > 0)
        inf_idx = a[informative]
        ly1 = np.log(ay1[informative])
        ly0 = np.log(ay0[informative])

        if "exact" in want:
            for j, log_t1 in enumerate(sides):
                inc = np.zeros(a.size)
                inc[informative] = _single_increment(o1[informative], ly1, ly0, log_t1, log_t0)
                side_logm[j, a] += inc
            if design.two_sided:
                exact_logm[a] = two_sided_log_evalue(*side_logm[:, a])
            newly = (taus["exact"][a] == np.inf) & (exact_logm[a] >= threshold)
            taus["exact"][a[newly]] = n

        if "gaussian" in want:
            e1 = ay1 / (ay1 + ay0)
            score[a] += o1 - e1
            variance[a] += e1 * (1.0 - e1)  # o == 1, so V1 = A1 (1 - A1)
            pos = variance[a] > 0
            z = np.zeros(a.size)
            z[pos] = score[a][pos] / np.sqrt(variance[a][pos])
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

        y1[a] = ay1 - o1
        y0[a] = ay0 - ~o1

        done = np.ones(a.size, dtype=bool)
        for k in want:
            done &= taus[k][a] < np.inf
        active[a[done]] = False

    return taus


# ---------------------------------------------------------------------------
# stream engine (tied streams; Bayes, O'Brien-Fleming and fixed tests)
# ---------------------------------------------------------------------------

_LOCKSTEP_KINDS = ("exact", "gaussian", "plugin")

# Replications x events per chunk of the stream engine.  Chunks of this size
# run as fast as larger ones, and their few-hundred-kB temporaries leave the
# heap no larger between calls.
_STREAM_CELLS = 1 << 14

# Replications x events per chunk of the lockstep loop and of the
# O'Brien-Fleming scan, which step every event across a whole chunk: larger
# chunks pay the per-step cost of numpy fewer times, and 2^20 cells keep each
# array of a chunk at 8 MB.
_LOCKSTEP_CELLS = 1 << 20


def _sample_streams(scenario: SimScenario, cap: int | None, lo: int, hi: int) -> list[EventStream]:
    """Event streams of replications ``lo..hi-1``, each ended after
    ``_event_limit`` cumulative events (a tied one at its last batch within
    them)."""
    m1, m0, theta = scenario.m1, scenario.m0, scenario.theta
    limit = _event_limit(scenario, cap)
    rngs = [stream_rng(scenario.seed, r) for r in range(lo, hi)]
    if scenario.tie_h0 is None:
        times, ones = np.arange(1.0, limit + 1.0), np.ones(limit, dtype=np.int64)
        y1, y0, o1 = _single_event_columns(m1, m0, theta, rngs, limit)
        return [EventStream(times, a, b, ones, c) for a, b, c in zip(y1, y0, o1)]
    streams = []
    for rng in rngs:
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
            bound = obf_boundary(np.clip(n, 1, design.n_max), design.n_max, design.alpha, design.side)
            hit = pos & (n <= design.n_max) & ((z <= bound) if left else (z >= bound))
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
    limit = _event_limit(scenario, cap)
    if chunk_size is not None:
        chunk = max(1, chunk_size)
    elif lockstep:
        # cells per replication of the lockstep's widest array: the
        # plug-in history, or the block of uniforms
        width = limit + 2 if "plugin" in kinds else min(_BLOCK, limit)
        chunk = max(1, _LOCKSTEP_CELLS // width)
    else:
        chunk = max(1, _STREAM_CELLS // _event_limit(scenario, None))
    parts: dict[str, list[np.ndarray]] = {k: [] for k in kinds}
    for lo in range(0, reps, chunk):
        hi = min(lo + chunk, reps)
        if lockstep:
            taus = _evolve_single_event(scenario, kinds, cap, rep_range=(lo, hi))
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


def estimate_obf_nmax(
    scenario: SimScenario,
    cap: int,
    power: float | None = None,
) -> tuple[int, np.ndarray]:
    """Smallest O'Brien-Fleming horizon reaching the target power, and each
    replication's stopping time at that horizon.

    A stream crosses the boundary of horizon ``h`` iff
    ``min_{n <= h} Z_n * sqrt(n) <= -z_{1-alpha/2} * sqrt(h)`` (left side;
    the maximum and ``>=`` on the right), so one running extreme per stream
    answers every candidate horizon at once.  ``Z_n * sqrt(n)`` comes from
    the logrank increments of the sampled single-event streams, in chunks
    of replications.  A second pass over the first ``h`` events of the same
    streams gives the stopping times, by the same comparison.
    """
    design = scenario.design
    power = design.power if power is None else power
    limit = _event_limit(scenario, cap)
    reps = scenario.replications
    sign = -1.0 if design.side == "left" else 1.0
    crit = normal_quantile(1.0 - design.alpha / 2.0)

    def extremes(steps: int):
        """Running maximum of ``sign * Z_n * sqrt(n)``, n = 1..steps, of
        each chunk of replications."""
        chunk = max(1, _LOCKSTEP_CELLS // steps)
        for lo in range(0, reps, chunk):
            rngs = [stream_rng(scenario.seed, r) for r in range(lo, min(lo + chunk, reps))]
            y1, y0, o1 = _single_event_columns(scenario.m1, scenario.m0, scenario.theta, rngs, steps)
            stream = EventStream(None, y1, y0, np.ones_like(o1), o1)
            score, variance = (np.cumsum(x, axis=1) for x in logrank_increments(stream))
            z = np.divide(score, np.sqrt(variance), out=np.full(score.shape, np.nan), where=variance > 0)
            yield np.fmax.accumulate(sign * (z * np.sqrt(np.arange(1.0, steps + 1.0))), axis=1)

    bounds = crit * np.sqrt(np.arange(1.0, limit + 1.0))
    crossed = sum((e >= bounds).sum(axis=0) for e in extremes(limit))
    reached = np.flatnonzero(crossed / reps >= power)
    if not reached.size:
        raise UnattainablePowerError(power, float(crossed[-1] / reps))
    h = int(reached[0]) + 1
    hits = [e >= bounds[h - 1] for e in extremes(h)]
    return h, np.concatenate([np.where(hit[:, -1], hit.argmax(axis=1) + 1.0, np.inf) for hit in hits])


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
    _check_cap(cap)
    _check_cap(obf_cap, "obf_cap")
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
            h, taus = estimate_obf_nmax(
                scenario, cap=obf_cap if obf_cap is not None else (cap or m1 + m0)
            )
        except UnattainablePowerError as err:
            unattainable("obrien-fleming", err)
        else:
            add_row("obrien-fleming", taus, h)

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
