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

One sampler draws every single-event stream: each replication draws one
uniform per event from its generator, and one step per event compares it
with ``theta * y1 / (y0 + theta * y1)``.  One engine sizes every design.
``_sample_block`` draws replications' streams as one ``EventStream`` whose
columns are ``(replications, L)`` arrays, one stream per row in event
order, tied rows padded with empty batches that add exactly 0 to every sum.
``core.log_kernel`` and ``gaussian.logrank_z`` (or the learned numerators)
run over the block, and running sums along each row give the first
crossing.  The engine scores growing prefixes, the first 256 events, then
512 and so on up to the limit, each for the replications that some
requested test has not yet stopped; a single-event plug-in goes on from
its fits on the prefix before.  The samplers are prefix-consistent, so
every prefix gives the stopping times of the whole stream, and a
replication is sampled to at most about twice the events its decisions
need.  O'Brien-Fleming sizing scans growing prefixes of single-event
blocks for the shortest horizon with the design's power, from the running
extremes of ``Z_n * sqrt(n)``.  Replications are taken in chunks, so
memory stays bounded however many there are.

A stopping time ``tau`` is the first cumulative event count at which the
monitored statistic crosses its threshold (``+inf`` when it never does);
``cap`` ends every stream at that many cumulative events.
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

from .adaptive import _BLOCK as _SPAN, _ORDER, PriorSpec, _PluginFit, _plugin_betas
from .adaptive import bayes_log_trace, plugin_log_trace
from .core import (
    EventStream,
    log_kernel,
    two_sided_log_evalue,
    validate_theta,
)
from .gaussian import (
    fixed_sample_boundary,
    log_gaussian_evalue,
    logrank_z,
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


def _check_cap(cap: int | None, name: str = "cap") -> None:
    if cap is not None and cap < 1:
        raise ValueError(f"{name} must be >= 1, got {cap}")


def stream_rng(seed: int, replication: int) -> np.random.Generator:
    """Counter-based per-replication generator keyed by (seed, replication)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, replication))))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _single_event_columns(
    m1: int, m0: int, theta: float, rngs: list[np.random.Generator], limit: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``y1``, ``y0`` and ``o1`` of the first ``limit`` events of one
    single-event stream per generator, as ``(len(rngs), limit)`` arrays.
    Generator r draws ``limit`` uniforms, one per event in order, and an
    event falls in the treatment group where its uniform is below
    ``theta * y1 / (y0 + theta * y1)``, so a stream's first events are the
    same whatever the limit."""
    uniforms = np.empty((limit, len(rngs)))
    for r, rng in enumerate(rngs):
        uniforms[:, r] = rng.random(limit)
    o1 = np.empty((limit, len(rngs)), dtype=bool)
    y1 = np.full(len(rngs), float(m1))  # risk sets, exact in floats
    y0 = np.full(len(rngs), float(m0))
    for i in range(limit):
        t1 = theta * y1
        np.less(uniforms[i], t1 / (y0 + t1), out=o1[i])
        y1 -= o1[i]
        np.subtract(m1 + m0 - i - 1, y1, out=y0)
    del uniforms
    o1 = o1.T.astype(np.int64)
    before = np.cumsum(o1, axis=1) - o1  # treatment events before each event
    return m1 - before, m0 - np.arange(limit) + before, o1


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
# engine
# ---------------------------------------------------------------------------

def _event_limit(scenario: SimScenario, cap: int | None) -> int:
    """Events per replication: ``m1 + m0`` or ``cap``, whichever is less."""
    _check_cap(cap)
    return scenario.m1 + scenario.m0 if cap is None else min(cap, scenario.m1 + scenario.m0)


# Events of the first prefix the engine samples; each later prefix doubles it.
_BLOCK = 256

# Replications x events per array: 2^20 cells keep each array at 8 MB.  The
# plug-in fits of a chunk of replications hold their histories in about
# _CELLS cells, and the O'Brien-Fleming scan samples chunks whose blocks
# fill _CELLS cells.  A block that is only scored holds about 16 arrays of
# its size at once, so the engine samples and scores _CELLS // 16 cells at
# a time.
_CELLS = 1 << 20


def _sample_block(scenario: SimScenario, limit: int, replications) -> EventStream:
    """Event streams of the given replications as ``(replications, L)``
    columns, one stream per row in event order, each ended after ``limit``
    cumulative events (a tied one at its last batch within them).  Single
    events fill ``L = limit`` columns.  A tied row shorter than the longest
    is padded with empty batches at risk sets ``(1, 1)``: they add exactly 0
    to every kernel and logrank sum and to the event count, so a row's
    running statistics stay flat past its last batch.  ``times`` is None;
    nothing that scores a block reads it."""
    m1, m0, theta = scenario.m1, scenario.m0, scenario.theta
    rngs = [stream_rng(scenario.seed, r) for r in replications]
    if scenario.tie_h0 is None:
        y1, y0, o1 = _single_event_columns(m1, m0, theta, rngs, limit)
        return EventStream(None, y1, y0, np.ones_like(o1), o1)
    streams = [_tied_columns(m1, m0, theta, scenario.tie_h0, rng)[1:] for rng in rngs]
    ends = [int(np.searchsorted(np.cumsum(o), limit, "right")) for _, _, o, _ in streams]
    block = np.zeros((4, len(rngs), max(ends, default=0)), dtype=np.int64)
    block[:2] = 1
    for row, (cols, end) in enumerate(zip(streams, ends)):
        for column, values in zip(block, cols):
            column[row, :end] = values[:end]
    return EventStream(None, *block)


def _stream_taus(block: EventStream, scenario: SimScenario, kind: str) -> np.ndarray:
    """First cumulative event count at which test ``kind`` crosses on each
    row of a ``_sample_block``, ``inf`` if it never does.  The kernels and
    ``logrank_z`` run over the whole block, the learned numerators row by
    row, and running sums go along each row; the first crossing of a row is
    never in its padding, which repeats the row's last statistic."""
    design = scenario.design
    n = np.cumsum(block.o, axis=1)
    if kind == "exact":
        # one kernel call scores every cell at each alternative, theta1 (and
        # 1/theta1 when two-sided), then at the null
        alternatives = [math.log(design.theta1)]
        if design.two_sided:
            alternatives.append(math.log(1.0 / design.theta1))
        cells = EventStream(None, *(c.ravel() for c in (block.y1, block.y0, block.o, block.o1)))
        table = log_kernel(cells, np.array([alternatives + [math.log(design.theta0)]]))
        traces = np.cumsum((table[:, :-1] - table[:, -1:]).reshape(n.shape + (len(alternatives),)), axis=1)
        stat = two_sided_log_evalue(traces[..., 0], traces[..., 1]) if design.two_sided else traces[..., 0]
        hit = stat >= design.log_threshold
    elif kind in ("plugin", "bayes"):
        prior = design.prior or PriorSpec.lognormal(math.log(design.theta1))
        rows = zip(block.y1, block.y0, block.o, block.o1)
        stat = np.array([
            plugin_log_trace(EventStream(None, *row), scenario.m1, scenario.m0, design.theta0)
            if kind == "plugin"
            else bayes_log_trace(EventStream(None, *row), prior, design.theta0)
            for row in rows
        ])
        hit = stat >= design.log_threshold
    elif kind in ("gaussian", "obf", "fixed"):
        z = logrank_z(block)  # NaN, which crosses nothing, until the variance is positive
        left = design.side == "left"
        if kind == "gaussian":
            mu1 = schoenfeld_mu(design.theta1, scenario.m1, scenario.m0)
            hit = log_gaussian_evalue(np.maximum(n, 1), z, mu1) >= design.log_threshold
        elif kind == "obf":
            bound = obf_boundary(np.clip(n, 1, design.n_max), design.n_max, design.alpha, design.side)
            hit = (n <= design.n_max) & ((z <= bound) if left else (z >= bound))
        else:  # fixed: one look, at the first event time reaching the horizon
            look = ~np.isnan(z) & (n >= design.n_max)
            bound = fixed_sample_boundary(design.alpha, design.side)
            hit = look & (np.cumsum(look, axis=1) == 1) & ((z <= bound) if left else (z >= bound))
    else:
        raise ValueError(f"unsupported test kind {kind!r}")
    if not hit.shape[1]:  # every stream ended before its first batch
        return np.full(hit.shape[0], np.inf)
    first = hit.argmax(axis=1)
    return np.where(hit.any(axis=1), n[np.arange(hit.shape[0]), first], np.inf)


def _plugin_crossings(
    fit: _PluginFit, log_m: np.ndarray, rows: np.ndarray, block: EventStream, done: int, design: DesignSpec
) -> np.ndarray:
    """Plug-in stopping times of rows ``rows`` of ``fit``, whose single-event
    streams ``block`` (``(rows, L)`` columns) are solved and scored up to
    event ``done``.  Chunks of rows holding about ``_CELLS // 8`` cells of
    series go on in spans as long as the events before them, a quarter of
    ``_SPAN`` to ``_SPAN``: ``_plugin_betas`` solves a span for the rows
    still open, one ``log_kernel`` call scores it at the estimates before
    each event less the null, and a row drops out at its first crossing."""
    taus = np.full(rows.size, np.inf)
    size = max(1, _CELLS // (16 * (_ORDER + 1) * (_SPAN + 1)))
    for lo in range(0, rows.size, size):
        keep, pos = np.arange(lo, min(lo + size, rows.size)), done  # the chunk's open rows
        while keep.size and pos < block.o.shape[1]:
            stop = min(block.o.shape[1], pos + min(_SPAN, max(_SPAN // 4, pos)))
            span = [c[keep, pos:stop] for c in (block.y1, block.y0, block.o, block.o1)]
            betas = _plugin_betas(fit, rows[keep], *span)[:, :-1]
            grid = np.stack([betas.ravel(), np.full(betas.size, math.log(design.theta0))], axis=1)
            k = log_kernel(EventStream(None, *(c.ravel() for c in span)), grid)
            steps = (k[:, 0] - k[:, 1]).reshape(betas.shape)
            trace = np.cumsum(np.concatenate([log_m[rows[keep], None], steps], axis=1), axis=1)
            hit = trace[:, 1:] >= design.log_threshold
            crossed = hit.any(axis=1)
            taus[keep[crossed]] = pos + hit[crossed].argmax(axis=1) + 1
            log_m[rows[keep]] = trace[:, -1]
            keep, pos = keep[~crossed], stop
    return taus


def _stopping_times(
    scenario: SimScenario, kinds: Sequence[str], cap: int | None = None
) -> dict[str, np.ndarray]:
    """Stopping times of every replication for each test kind, every kind on
    the same streams.

    Replications run over growing prefixes: ``_sample_block`` draws the
    first ``_BLOCK`` events of the replications still running, then twice
    as many, and so on up to the limit, in blocks of at most
    ``_CELLS // 16`` cells, and ``_stream_taus`` scores each kind on the
    rows that have not crossed for it.  A replication stops running once
    every kind has crossed on it, so it is sampled to at most about twice
    the events its decisions need.  The samplers are prefix-consistent, so
    a longer prefix repeats the shorter one and a row first crosses where it
    would on the whole stream.  On single-event streams the plug-in goes on
    from the prefix before: ``_plugin_crossings`` solves and scores each
    prefix's new events only, for chunks of ``_CELLS // (limit + 2 + _SPAN)``
    replications whose fits (``_PluginFit``) carry from one prefix to the
    next.  Replications are keyed individually, so any chunking gives
    bit-identical results.
    """
    kinds = list(dict.fromkeys(kinds))
    reps = scenario.replications
    limit = _event_limit(scenario, cap)
    taus = {k: np.full(reps, np.inf) for k in kinds}
    stepped = "plugin" in kinds and scenario.tie_h0 is None
    chunk = max(1, _CELLS // (limit + 2 + _SPAN)) if stepped else reps
    for lo in range(0, reps, chunk):
        rows = np.arange(lo, min(lo + chunk, reps))
        if stepped:
            fit = _PluginFit(rows.size, scenario.m1, scenario.m0, limit)
            log_m = np.zeros(rows.size)
        length = 0
        while kinds and rows.size and length < limit:
            done, length = length, min(max(2 * length, _BLOCK), limit)
            size = max(1, _CELLS // (16 * length))
            for start in range(0, rows.size, size):
                part = rows[start : start + size]
                block = _sample_block(scenario, length, part)
                for kind in kinds:
                    open_ = np.isinf(taus[kind][part])
                    if open_.any():
                        on = EventStream(None, *(c[open_] for c in (block.y1, block.y0, block.o, block.o1)))
                        taus[kind][part[open_]] = (
                            _plugin_crossings(fit, log_m, part[open_] - lo, on, done, scenario.design)
                            if kind == "plugin" and stepped else _stream_taus(on, scenario, kind)
                        )
            rows = rows[np.isinf([taus[k][rows] for k in kinds]).any(axis=0)]
    return taus


def simulate_stopping_times(scenario: SimScenario, cap: int | None = None) -> np.ndarray:
    """Stopping times (in events) for every replication of a scenario.

    ``cap`` ends each stream after that many cumulative events.
    Replications run in chunks that bound memory; each is keyed
    individually, so the chunking never changes the result.
    """
    kind = scenario.design.test_kind
    return _stopping_times(scenario, (kind,), cap)[kind]


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


def estimate_obf_nmax(scenario: SimScenario, cap: int) -> tuple[int, np.ndarray]:
    """Smallest O'Brien-Fleming horizon within ``cap`` events reaching the
    design's power, and each replication's stopping time at that horizon.

    A stream crosses the boundary of horizon ``h`` iff
    ``min_{n <= h} Z_n * sqrt(n) <= -z_{1-alpha/2} * sqrt(h)`` (left side;
    the maximum and ``>=`` on the right), so one running extreme per stream
    answers every candidate horizon at once.  ``Z_n`` is ``logrank_z`` of
    single-event blocks from ``_sample_block``, in chunks of replications.
    The scan reads growing prefixes, the first ``_BLOCK`` events, then
    twice as many and so on up to ``cap``, and stops at the first prefix
    that holds a horizon with the power: the samplers are
    prefix-consistent, so that horizon is the one a scan to ``cap`` finds.
    A second pass over the first ``h`` events of the same streams gives the
    stopping times, by the same comparison.
    """
    if scenario.tie_h0 is not None:
        raise ValueError("O'Brien-Fleming sizing needs single-event streams, not tie_h0")
    design = scenario.design
    limit = _event_limit(scenario, cap)
    reps = scenario.replications
    sign = -1.0 if design.side == "left" else 1.0
    crit = normal_quantile(1.0 - design.alpha / 2.0)

    def extremes(steps: int):
        """Running maximum of ``sign * Z_n * sqrt(n)``, n = 1..steps, of
        each chunk of replications."""
        chunk = max(1, _CELLS // steps)
        root_n = np.sqrt(np.arange(1.0, steps + 1.0))
        for lo in range(0, reps, chunk):
            z = logrank_z(_sample_block(scenario, steps, range(lo, min(lo + chunk, reps))))
            yield np.fmax.accumulate(sign * (z * root_n), axis=1)

    length = 0
    while length < limit:  # prefixes of _BLOCK events, then twice as many, up to the limit
        length = min(max(2 * length, _BLOCK), limit)
        bounds = crit * np.sqrt(np.arange(1.0, length + 1.0))
        crossed = sum((e >= bounds).sum(axis=0) for e in extremes(length))
        reached = np.flatnonzero(crossed / reps >= design.power)
        if reached.size:
            break
    else:
        raise UnattainablePowerError(design.power, float(crossed[-1] / reps))
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
    for kind in kinds:
        if kind not in ("exact", "gaussian", "plugin"):
            raise ValueError(f"design_table sizes exact/gaussian/plugin designs, got {kind!r}")
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

    for kind, taus in _stopping_times(scenario, kinds, cap).items():
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
