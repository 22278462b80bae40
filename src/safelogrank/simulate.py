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
It reads growing prefixes, the first 256 events, then 512 and so on up to
the limit, for the replications that some requested test has not yet
stopped, and each prefix goes on from where the one before ended: a
replication's generator is built once and its risk set carried, a tied
stream is drawn once and kept, and each test's running statistic is
carried from prefix to prefix, so each event is drawn and scored once.
``_Streams`` hands out the new events of a block of replications as one
``EventStream`` whose columns are ``(replications, L)`` arrays, tied rows
padded with empty batches that add exactly 0 to every sum;
``core.log_kernel`` and ``gaussian.logrank_increments`` (or the plug-in
and Bayes numerators) score all the rows of a block together, and running
sums carried along each row give the first crossing, the one a pass over
the whole stream finds.  O'Brien-Fleming sizing scans growing prefixes the
same way for the shortest horizon with the design's power, from the
running maxima of ``Z_n * sqrt(n)``, and scores that horizon's stopping
times as the engine's ``obf`` kind, by the same crossing rule.  The engine
takes replications in chunks, so its memory stays bounded however many
there are; the O'Brien-Fleming scan keeps every replication's generator
and running statistics, about 2 KB each.

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
from dataclasses import dataclass, replace
from typing import Literal, Sequence

import numpy as np

from .adaptive import _BLOCK as _SPAN, _ORDER, PriorSpec, _PluginFit, _plugin_betas
from .adaptive import _bayes_log_numerators, _bayes_prior
from .core import (
    EventStream,
    log_kernel,
    two_sided_log_evalue,
    validate_theta,
)
from .gaussian import (
    fixed_sample_boundary,
    _z_of_sums,
    log_gaussian_evalue,
    logrank_increments,
    normal_quantile,
    schoenfeld_mu,
)

__all__ = [
    "DesignSpec",
    "SimScenario",
    "UnattainablePowerError",
    "stream_rng",
    "sample_single_event_stream",
    "sample_tied_stream",
    "simulate_stopping_times",
    "estimate_nmax",
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
    theta: float, rngs: list[np.random.Generator], y1: np.ndarray, at_risk: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``y1``, ``y0`` and ``o1`` of the next ``count`` events of one
    single-event stream per generator, as ``(len(rngs), count)`` arrays,
    from ``at_risk`` participants of whom ``y1`` (a float array, one entry
    per generator, updated in place) are in the treatment group.  Generator
    r draws ``count`` uniforms, one per event in order, and an event falls
    in the treatment group where its uniform is below ``theta * y1 / (y0 +
    theta * y1)``.  Continued draws of a generator equal one long draw, so
    a stream drawn in parts has the events of one draw."""
    uniforms = np.empty((count, len(rngs)))
    for r, rng in enumerate(rngs):
        uniforms[:, r] = rng.random(count)
    o1 = np.empty((count, len(rngs)), dtype=bool)
    first = y1.astype(np.int64)
    y0 = at_risk - y1  # risk sets, exact in floats
    t1, p = np.empty((2, len(rngs)))
    for i in range(count):
        np.multiply(theta, y1, out=t1)
        np.divide(t1, np.add(y0, t1, out=p), out=p)
        np.less(uniforms[i], p, out=o1[i])
        np.subtract(y1, o1[i], out=y1)
        np.subtract(at_risk - i - 1, y1, out=y0)
    del uniforms
    o1 = o1.T.astype(np.int64)
    return (*_single_event_risk_sets(o1, first, at_risk), o1)


def _single_event_risk_sets(o1: np.ndarray, y1: np.ndarray, at_risk: int) -> tuple[np.ndarray, np.ndarray]:
    """``y1`` and ``y0`` before each of the single events ``o1`` (``(rows,
    L)`` columns), from ``at_risk`` participants, ``y1`` of them (one per
    row) in the treatment group, before the first."""
    before = np.cumsum(o1, axis=1) - o1  # treatment events before each event
    return y1[:, None] - before, (at_risk - y1)[:, None] - np.arange(o1.shape[1]) + before


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
    (y1,), (y0,), (o1,) = _single_event_columns(theta, [rng], np.array([float(m1)]), m1 + m0, n)
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


# Events of the first prefix the engine reads; each later prefix doubles it.
_BLOCK = 256

# Replications x events per array: 2^20 cells keep each array at 8 MB.  A
# block of new events that is scored holds about 16 arrays of its size at
# once, so the engine and the O'Brien-Fleming scan sample and score
# _CELLS // 16 cells at a time.  A replication carries about _BLOCK cells
# from prefix to prefix (its generator, about 2 KB, above all), and a
# plug-in or Bayes fit or a tied stream up to limit + 2 + _SPAN cells more,
# so the engine takes _CELLS cells' worth of replications at a time.
_CELLS = 1 << 20


class _Streams:
    """The event streams of some replications, read a block of new events
    at a time.

    ``take(rows, length)`` returns the events of rows ``rows`` (indices
    into ``replications``) after those they have taken, up to ``length``
    cumulative events, as an ``EventStream`` of ``(rows, L)`` columns
    (``times`` is None; nothing that scores a block reads it), with the
    cumulative event count at each.  A row's first take builds its
    generator: a single-event stream keeps it and its treatment risk set
    and draws each block's events from them, ``L = length - done``
    columns; a tied stream is drawn whole then, cut after ``limit``
    cumulative events and kept.  A tied row shorter than the longest is
    padded with empty batches at risk sets ``(1, 1)``: they add exactly 0
    to every kernel and logrank sum and to the event count, so a row's
    running statistics stay flat through its padding.  ``drop(rows)`` lets
    the generators and streams of rows that are not read again go.
    """

    def __init__(self, scenario: SimScenario, replications, limit: int):
        self.scenario, self.replications, self.limit = scenario, replications, limit
        self.size = len(replications)
        self.source = [None] * self.size  # each row's generator, or its tied stream
        self.events = np.zeros(self.size, dtype=np.int64)  # taken by each row
        self.y1 = np.full(self.size, float(scenario.m1))  # single events: treatment at risk
        self.taken = np.zeros(self.size, dtype=np.int64)  # tied streams: batches taken

    def _open(self, r: int):
        """Row ``r``'s generator, or its tied stream: ``y1``, ``y0``, ``o``,
        ``o1`` and the cumulative event count of its batches within the
        limit; built at its first take."""
        if self.source[r] is None:
            s = self.scenario
            rng = stream_rng(s.seed, self.replications[r])
            if s.tie_h0 is None:
                self.source[r] = rng
            else:
                _, *columns = _tied_columns(s.m1, s.m0, s.theta, s.tie_h0, rng)
                n = np.cumsum(columns[2])
                end = int(np.searchsorted(n, self.limit, "right"))
                self.source[r] = [c[:end] for c in (*columns, n)]
        return self.source[r]

    def take(self, rows: np.ndarray, length: int) -> tuple[EventStream, np.ndarray]:
        sources = [self._open(r) for r in rows]
        if self.scenario.tie_h0 is None:
            done = int(self.events[rows[0]])  # the rows read together stand at one event
            y1 = self.y1[rows]
            at_risk = self.scenario.m1 + self.scenario.m0 - done
            y1s, y0s, o1 = _single_event_columns(self.scenario.theta, sources, y1, at_risk, length - done)
            self.y1[rows] = y1
            block = EventStream(None, y1s, y0s, np.ones_like(o1), o1)
        else:
            starts = self.taken[rows]
            ends = np.array([np.searchsorted(t[4], length, "right") for t in sources], dtype=np.int64)
            columns = np.zeros((4, rows.size, max(0, (ends - starts).max())), dtype=np.int64)
            columns[:2] = 1
            for i, (stream, start, end) in enumerate(zip(sources, starts, ends)):
                for column, values in zip(columns, stream[:4]):
                    column[i, : end - start] = values[start:end]
            self.taken[rows] = ends
            block = EventStream(None, *columns)
        n = self.events[rows, None] + np.cumsum(block.o, axis=1)
        if n.shape[1]:
            self.events[rows] = n[:, -1]
        return block, n

    def drop(self, rows: np.ndarray) -> None:
        for r in rows:
            self.source[r] = None


def _carried(ufunc: np.ufunc, carry: np.ndarray, rows, steps: np.ndarray) -> np.ndarray:
    """``ufunc.accumulate`` of ``steps`` along each row (axis 1), going on
    from ``carry[rows]``, which then holds each row's last value: a row
    accumulated block by block gets the bits of one accumulation."""
    out = np.concatenate([carry[rows][:, None], steps], axis=1)
    ufunc.accumulate(out, axis=1, out=out)
    carry[rows] = out[:, -1]
    return out[:, 1:]


def _running_z(block: EventStream, sums: np.ndarray, rows) -> np.ndarray:
    """``logrank_z`` over the new events ``block`` of rows ``rows``, going
    on from their logrank score and variance sums ``sums[:2, rows]``; NaN,
    which crosses nothing, until the variance is positive."""
    score, variance = logrank_increments(block)
    return _z_of_sums(_carried(np.add, sums[0], rows, score), _carried(np.add, sums[1], rows, variance))


def _obf_scaled(z: np.ndarray, n: np.ndarray, design: DesignSpec) -> np.ndarray:
    """``Z_n * sqrt(n)`` on the design's side: negated when it is left."""
    return (-1.0 if design.side == "left" else 1.0) * (z * np.sqrt(n))


def _obf_reaches(scaled: np.ndarray, design: DesignSpec, horizon) -> np.ndarray:
    """The one O'Brien-Fleming crossing rule: whether ``scaled``
    (``_obf_scaled``, or its running maximum) reaches ``z_{1-alpha/2} *
    sqrt(horizon)``.  A stream crosses the boundary of horizon h at the
    first n <= h where its ``_obf_scaled`` does; NaN reaches nothing."""
    return scaled >= normal_quantile(1.0 - design.alpha / 2.0) * np.sqrt(horizon)


class _Running:
    """Test ``kind``'s running statistic on each of ``size`` replications,
    carried from one block of new events to the next.

    ``crossings(rows, block, n)`` scores the new events ``block``
    (``(rows, L)`` columns from ``_Streams.take``, ``n`` the cumulative
    event count at each) of rows ``rows``, carries their statistics past
    them, and returns each row's first crossing column, -1 where there is
    none; the first crossing of a row is never in its padding, which
    repeats the row's last statistic.  Every kind scores the rows of a
    block together.  The exact log e-values (one ``log_kernel`` call over
    every cell) and the logrank score and variance are running sums
    (``_carried``); the plug-in carries one ``_PluginFit`` of every row and
    the log e-values (``_plugin_crossings``); Bayes carries each row's log
    posterior, its log-sum-exp and the log e-value.  A ``fixed`` row is
    settled once its one look has passed without a crossing, and an ``obf``
    row once its event count reaches ``n_max``: no later event can cross on
    it, so the engine reads it no further, and its stopping time stays
    infinite.
    """

    def __init__(self, scenario: SimScenario, kind: str, size: int, limit: int):
        design = scenario.design
        self.kind, self.scenario = kind, scenario
        self.settled = np.zeros(size, dtype=bool)  # rows no later event can cross
        if kind == "exact":
            # one kernel call scores every cell at each alternative, theta1
            # (and 1/theta1 when two-sided), then at the null
            alternatives = [math.log(design.theta1)]
            if design.two_sided:
                alternatives.append(math.log(1.0 / design.theta1))
            self.grid = np.array([alternatives + [math.log(design.theta0)]])
            self.sums = np.zeros((size, len(alternatives)))
        elif kind in ("gaussian", "obf", "fixed"):
            self.sums = np.zeros((2, size))  # logrank score and variance
        elif kind == "plugin":
            self.log_m = np.zeros(size)
            self.fit = _PluginFit(size, scenario.m1, scenario.m0, limit)
        elif kind == "bayes":
            self.log_m = np.zeros(size)
            prior = design.prior or PriorSpec.lognormal(math.log(design.theta1))
            self.log_grid = np.log(prior.thetas)[None, :]
            self.log_post, self.norm = (np.repeat(a, size, axis=0) for a in _bayes_prior(prior))
        else:
            raise ValueError(f"unsupported test kind {kind!r}")

    def crossings(self, rows: np.ndarray, block: EventStream, n: np.ndarray) -> np.ndarray:
        design = self.scenario.design
        if self.kind == "exact":
            cells = EventStream(None, *(c.ravel() for c in (block.y1, block.y0, block.o, block.o1)))
            table = log_kernel(cells, self.grid)
            steps = (table[:, :-1] - table[:, -1:]).reshape(n.shape + (self.sums.shape[1],))
            traces = _carried(np.add, self.sums, rows, steps)
            stat = traces[..., 0]
            if design.two_sided:
                stat = two_sided_log_evalue(stat, traces[..., 1])
            hit = stat >= design.log_threshold
        elif self.kind in ("gaussian", "obf", "fixed"):
            z = _running_z(block, self.sums, rows)
            if self.kind == "gaussian":
                mu1 = schoenfeld_mu(design.theta1, self.scenario.m1, self.scenario.m0)
                hit = log_gaussian_evalue(np.maximum(n, 1), z, mu1) >= design.log_threshold
            elif self.kind == "obf":
                hit = (n <= design.n_max) & _obf_reaches(_obf_scaled(z, n, design), design, design.n_max)
                self.settled[rows] |= n[:, -1] >= design.n_max
            else:  # fixed: one look, at the first event time reaching the horizon
                look = ~np.isnan(z) & (n >= design.n_max)
                first_look = look & (np.cumsum(look, axis=1) == 1) & ~self.settled[rows, None]
                self.settled[rows] |= look.any(axis=1)
                bound = fixed_sample_boundary(design.alpha, design.side)
                hit = first_look & ((z <= bound) if design.side == "left" else (z >= bound))
        elif self.kind == "plugin":
            return _plugin_crossings(self.fit, self.log_m, rows, block, design)
        else:
            log_num, self.log_post[rows], self.norm[rows] = _bayes_log_numerators(
                block, self.log_grid, self.log_post[rows], self.norm[rows]
            )
            steps = log_num - log_kernel(block, math.log(design.theta0))
            hit = _carried(np.add, self.log_m, rows, steps) >= design.log_threshold
        return np.where(hit.any(axis=1), hit.argmax(axis=1), -1)

    def open(self, rows: np.ndarray, taus: np.ndarray) -> np.ndarray:
        """Which of rows ``rows``, with stopping times ``taus``, have neither
        crossed nor settled."""
        return np.isinf(taus[rows]) & ~self.settled[rows]


def _plugin_crossings(
    fit: _PluginFit, log_m: np.ndarray, rows: np.ndarray, block: EventStream, design: DesignSpec
) -> np.ndarray:
    """First column at which the plug-in log e-value crosses on each row
    ``rows`` of ``fit`` over its new batches ``block`` (``(rows, L)``
    columns, a row's empty batches last), -1 where it does not; ``fit`` and
    the log e-values ``log_m`` are carried past the block.  Chunks of rows
    holding about ``_CELLS // 8`` cells of series go on in spans as long as
    the fewest batches a row had taken, a quarter of ``_SPAN`` to
    ``_SPAN``: ``_plugin_betas`` solves a span for the open rows with
    batches in it, one ``log_kernel`` call scores it at the estimates
    before each batch less the null, and a row drops out at its first
    crossing."""
    first = np.full(rows.size, -1)
    width = np.count_nonzero(block.o, axis=1)  # each row's batches before its empty ones
    size = max(1, _CELLS // (16 * (_ORDER + 1) * (_SPAN + 1)))
    for lo in range(0, rows.size, size):
        keep, pos = np.arange(lo, min(lo + size, rows.size)), 0  # the chunk's open rows
        at = int(np.maximum(fit.taken[rows[keep]] - 2, 0).min())  # batches taken, virtual events not
        while (keep := keep[width[keep] > pos]).size:
            stop = min(block.o.shape[1], pos + min(_SPAN, max(_SPAN // 4, at + pos)))
            span = [c[keep, pos:stop] for c in (block.y1, block.y0, block.o, block.o1)]
            betas = _plugin_betas(fit, rows[keep], *span)[:, :-1]
            grid = np.stack([betas.ravel(), np.full(betas.size, math.log(design.theta0))], axis=1)
            k = log_kernel(EventStream(None, *(c.ravel() for c in span)), grid)
            steps = (k[:, 0] - k[:, 1]).reshape(betas.shape)
            hit = _carried(np.add, log_m, rows[keep], steps) >= design.log_threshold
            crossed = hit.any(axis=1)
            first[keep[crossed]] = pos + hit[crossed].argmax(axis=1)
            keep, pos = keep[~crossed], stop
    return first


def _stopping_times(
    scenario: SimScenario, kinds: Sequence[str], cap: int | None = None
) -> dict[str, np.ndarray]:
    """Stopping times of every replication for each test kind, every kind on
    the same streams.

    Replications run in chunks of ``_CELLS // (_BLOCK + history)``, the
    history being ``limit + 2 + _SPAN`` cells for plug-in and Bayes designs
    and tied streams and 0 otherwise, over growing prefixes: the first
    ``_BLOCK`` events of the replications still running, then twice as
    many, and so on up to the limit.  Each prefix goes on from where the
    one before ended: ``_Streams`` draws only the new events of the open
    rows, in blocks of at most ``_CELLS // 16`` cells, from generators built
    once and risk sets carried (tied streams are drawn once and kept), and
    ``_Running`` scores each kind on the rows that have neither crossed nor
    settled for it, from their carried statistics.  So each event is drawn
    and scored once, and a row first crosses where it would on the whole
    stream.  A replication stops running once every kind has crossed or
    settled on it.  Replications are keyed individually, so any chunking
    gives bit-identical results.
    """
    kinds = list(dict.fromkeys(kinds))
    reps = scenario.replications
    limit = _event_limit(scenario, cap)
    taus = {k: np.full(reps, np.inf) for k in kinds}
    history = scenario.tie_h0 is not None or not {"plugin", "bayes"}.isdisjoint(kinds)
    chunk = max(1, _CELLS // (_BLOCK + (limit + 2 + _SPAN if history else 0)))
    for lo in range(0, reps if kinds else 0, chunk):
        streams = _Streams(scenario, range(lo, min(lo + chunk, reps)), limit)
        running = {k: _Running(scenario, k, streams.size, limit) for k in kinds}
        ours = {k: taus[k][lo : lo + streams.size] for k in kinds}
        rows, length = np.arange(streams.size), 0
        while rows.size and length < limit:
            done, length = length, min(max(2 * length, _BLOCK), limit)
            size = max(1, _CELLS // (16 * (length - done)))
            for start in range(0, rows.size, size):
                part = rows[start : start + size]
                block, n = streams.take(part, length)
                for kind in kinds if n.shape[1] else ():  # a tied block may hold no batch
                    open_ = running[kind].open(part, ours[kind])
                    if open_.any():
                        on = block if open_.all() else EventStream(
                            None, *(c[open_] for c in (block.y1, block.y0, block.o, block.o1)))
                        first = running[kind].crossings(part[open_], on, n[open_])
                        hit = np.flatnonzero(first >= 0)
                        ours[kind][part[open_][hit]] = n[open_][hit, first[hit]]
                streams.drop(part[~np.any([running[k].open(part, ours[k]) for k in kinds], axis=0)])
            rows = rows[np.any([running[k].open(rows, ours[k]) for k in kinds], axis=0)]
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


def _stopping_summary(taus: np.ndarray, n_max: int) -> tuple[float, float, float]:
    """A design's ``DesignRow`` figures at horizon ``n_max``: the expected
    duration with stopping truncated at n_max, the mean duration of the
    runs that stopped early, and the achieved power."""
    early = taus[taus < n_max]
    return (
        float(np.minimum(taus, n_max).mean()),
        float(early.mean()) if early.size else math.nan,
        float((taus <= n_max).mean()),
    )


def estimate_obf_nmax(scenario: SimScenario, cap: int) -> tuple[int, np.ndarray]:
    """Smallest O'Brien-Fleming horizon within ``cap`` events reaching the
    design's power, and each replication's stopping time at that horizon.

    A stream crosses the boundary of horizon ``h`` iff the running maximum
    of ``Z_n * sqrt(n)`` on the design's side reaches ``z_{1-alpha/2} *
    sqrt(h)`` by n = h (``_obf_reaches``), so one running maximum per
    stream answers every candidate horizon at once.  The scan reads growing
    prefixes of every replication's single-event stream, the first
    ``_BLOCK`` events, then twice as many and so on up to ``cap``, the way
    the engine does: each prefix draws and scores only its new events
    (``_Streams``), in blocks of at most ``_CELLS // 16`` cells, going on
    from each replication's generator, risk set, logrank sums and running
    maximum, and counts the crossings of its new horizons.  It stops at the
    first prefix that holds a horizon with the power: a longer prefix
    changes no count of a shorter horizon, so that horizon is the one a
    scan to ``cap`` finds.  Every replication's generator and sums stay
    open until then, about 2 KB a replication, and its treatment events
    are kept as bits.  A second pass reads the first ``h`` events back from
    the bits and scores them as the engine's ``obf`` kind at ``n_max = h``,
    by the same rule, so the stopping times it gives have the power that
    chose ``h``.
    """
    if scenario.tie_h0 is not None:
        raise ValueError("O'Brien-Fleming sizing needs single-event streams, not tie_h0")
    design = scenario.design
    limit = _event_limit(scenario, cap)
    obf_design = replace(design, test_kind="obf", n_max=limit)  # refuses a design with no side
    reps = scenario.replications
    sums = np.zeros((3, reps))  # logrank score and variance, running maximum of _obf_scaled
    sums[2] = np.nan  # no maximum yet: fmax takes the first value
    streams, rows, length = _Streams(scenario, range(reps), limit), np.arange(reps), 0
    bits = []  # each prefix's treatment events, eight a byte
    while length < limit:  # prefixes of _BLOCK events, then twice as many, up to the limit
        done, length = length, min(max(2 * length, _BLOCK), limit)
        horizons = np.arange(done + 1, length + 1)
        size, crossed = max(1, _CELLS // (16 * (length - done))), 0
        bits.append(np.empty((reps, -(-(length - done) // 8)), dtype=np.uint8))
        for lo in range(0, reps, size):
            part = rows[lo : lo + size]
            block, n = streams.take(part, length)
            bits[-1][part] = np.packbits(block.o1, axis=1)  # padded to whole bytes
            maxima = _carried(np.fmax, sums[2], part, _obf_scaled(_running_z(block, sums, part), n, design))
            crossed = crossed + _obf_reaches(maxima, design, horizons).sum(axis=0)
        reached = np.flatnonzero(crossed / reps >= design.power)
        if reached.size:
            break
    else:
        raise UnattainablePowerError(design.power, float(crossed[-1] / reps))
    del streams
    h = done + int(reached[0]) + 1
    obf = replace(scenario, design=replace(obf_design, n_max=h))
    size, taus = max(1, _CELLS // (16 * h)), []
    for lo in range(0, reps, size):
        part = np.arange(lo, min(lo + size, reps))
        # every prefix but the last holds a multiple of _BLOCK events, so
        # only the last one's bytes end in padding, past the events read
        o1 = np.concatenate([np.unpackbits(b[part], axis=1) for b in bits], axis=1)[:, :h].astype(np.int64)
        y1, y0 = _single_event_risk_sets(o1, np.full(part.size, scenario.m1), scenario.m1 + scenario.m0)
        n = np.broadcast_to(np.arange(1, h + 1), o1.shape)
        first = _Running(obf, "obf", part.size, h).crossings(
            np.arange(part.size), EventStream(None, y1, y0, np.ones_like(o1), o1), n
        )
        taus.append(np.where(first >= 0, first + 1.0, np.inf))
    return h, np.concatenate(taus)


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
    design = DesignSpec(theta1=theta1, alpha=alpha, power=power)  # names a bad alpha or power
    n_fixed = schoenfeld_sample_size(theta1, alpha, 1.0 - power)
    rows: list[DesignRow] = []
    unattained: list[dict] = []

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
        mean_capped, conditional_mean, achieved = _stopping_summary(taus, n_max)
        rows.append(
            DesignRow(
                test_kind=kind,
                n_max=n_max,
                mean_capped=mean_capped,
                conditional_mean=conditional_mean,
                power=achieved,
                ratio_n_max=n_max / n_fixed,
                ratio_mean=mean_capped / n_fixed,
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
