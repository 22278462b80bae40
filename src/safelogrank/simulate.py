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
uniform per event from its stream, and one step per event compares it
with ``theta * y1 / (y0 + theta * y1)``.  One engine sizes every design.
It reads growing prefixes, the first 256 events, then 512 and so on up to
the limit, for the replications that some requested test has not yet
stopped, and each prefix goes on from where the one before ended: a
replication keeps only its Philox key and draw count, from which one
generator resumes its stream, and its risk set; a tied stream is drawn
once and kept, and each test's running statistic is carried from prefix
to prefix, so each event is drawn and scored once.
``_Streams`` hands out the new events of a block of replications as one
``EventStream`` whose columns are ``(replications, L)`` arrays, tied rows
padded with empty batches that add exactly 0 to every sum;
``core.log_kernel`` and ``gaussian.logrank_increments`` (or the plug-in
and Bayes numerators) score all the rows of a block together, and running
sums carried along each row give the first crossing, the one a pass over
the whole stream finds.  Design tables stop reading a test once its
horizon is settled: once enough stopping times lie within a prefix for
``n_max`` to lie within it too, no row still open can change ``n_max`` or
any figure of the design's row.  Each test reads up to its own event
limit: the cap, or the O'Brien-Fleming comparator's horizon, the shortest
with the design's power, which a scan of growing prefixes finds from the
running maxima of ``Z_n * sqrt(n)``; the engine scores the comparator as
its ``obf`` kind in the same pass as the other tests.  The engine takes
replications in chunks, so its memory stays bounded however many there
are; the scan keeps every replication's key, counts and running
statistics, about 60 bytes each.

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
import operator
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
    ``two_sided`` (``exact``), ``prior`` (``bayes``) and ``n_max`` are
    refused with any other kind, which would ignore them.
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
        given = {"two_sided": self.two_sided, "prior": self.prior is not None, "n_max": self.n_max is not None}
        for name, kinds in (("two_sided", ("exact",)), ("prior", ("bayes",)), ("n_max", ("obf", "fixed"))):
            if given[name] and self.test_kind not in kinds:
                raise ValueError(f"{name} applies to {'/'.join(kinds)} designs, not {self.test_kind!r}")
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
    """Counter-based per-replication generator keyed by (seed, replication):
    the reference whose draws the engine reads through ``_stream_keys``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, replication))))


_WORD = 0xFFFFFFFF


def _stream_keys(seed: int, replications) -> np.ndarray:
    """The Philox key of ``stream_rng(seed, r)`` for every ``r`` in
    ``replications``, as ``(len(replications), 2)`` uint64 rows: numpy's
    ``SeedSequence((seed, r)).generate_state(2, np.uint64)``, its entropy
    hash run on uint32 columns, one column per entropy word.  Rows whose
    replication needs a second 32-bit word are hashed apart, since their
    hash runs one word longer."""
    seed = operator.index(seed)
    reps = np.asarray(replications, dtype=np.int64).reshape(-1)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = []  # the seed's 32-bit words, least significant first, at least one
    while not words or seed:
        words.append(seed & _WORD)
        seed >>= 32
    keys = np.empty((reps.size, 2), dtype=np.uint64)
    for wide in (False, True):
        rows = (reps > _WORD) == wide
        if rows.any():
            r = reps[rows].astype(np.uint64)
            entropy = [np.full(r.size, w, dtype=np.uint32) for w in words] + [(r & _WORD).astype(np.uint32)]
            if wide:
                entropy.append((r >> 32).astype(np.uint32))
            keys[rows] = _seed_sequence_state(entropy)
    return keys


def _seed_sequence_state(entropy: list[np.ndarray]) -> np.ndarray:
    """``generate_state(2, np.uint64)`` of a ``SeedSequence`` whose entropy
    words are the uint32 columns ``entropy``, with a pool of 4 words: the
    hash of ``numpy.random.bit_generator``, wrapping in uint32 columns."""
    const = 0x43B0D7E5

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * 0x931E8875 & _WORD
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return result ^ result >> np.uint32(16)

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(entropy[0])) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, state = 0x8B51F9DD, []
    for value in pool:
        value = value ^ np.uint32(const)
        const = const * 0x58F38DED & _WORD
        value = value * np.uint32(const)
        state.append((value ^ value >> np.uint32(16)).astype(np.uint64))
    return np.stack([state[0] | state[1] << np.uint64(32), state[2] | state[3] << np.uint64(32)], axis=1)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _single_event_columns(
    theta: float, uniforms: np.ndarray, y1: np.ndarray, at_risk: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``y1``, ``y0`` and ``o1`` of the next ``count`` events of one
    single-event stream per column of ``uniforms``, a ``(count, streams)``
    array, as ``(streams, count)`` arrays, from ``at_risk`` participants of
    whom ``y1`` (a float array, one entry per stream, updated in place) are
    in the treatment group.  Stream r's event i falls in the treatment group
    where ``uniforms[i, r]`` is below ``theta * y1 / (y0 + theta * y1)``.
    Each stream's uniforms are its generator's draws in order, one per
    event, so a stream drawn in parts has the events of one draw."""
    count, size = uniforms.shape
    o1 = np.empty((count, size), dtype=bool)
    first = y1.astype(np.int64)
    y0 = at_risk - y1  # risk sets, exact in floats
    t1, p = np.empty((2, size))
    for i in range(count):
        np.multiply(theta, y1, out=t1)
        np.divide(t1, np.add(y0, t1, out=p), out=p)
        np.less(uniforms[i], p, out=o1[i])
        np.subtract(y1, o1[i], out=y1)
        np.subtract(at_risk - i - 1, y1, out=y0)
    del uniforms
    o1 = o1.T.astype(np.int64)
    before = np.cumsum(o1, axis=1) - o1  # treatment events before each event
    return first[:, None] - before, (at_risk - first)[:, None] - np.arange(count) + before, o1


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
    (y1,), (y0,), (o1,) = _single_event_columns(theta, rng.random((n, 1)), np.array([float(m1)]), m1 + m0)
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
# _CELLS // 16 cells at a time.  A replication carries up to _BLOCK cells
# from prefix to prefix (its key, counts, risk set and running sums take a
# few), and a plug-in or Bayes fit or a tied stream up to limit + 2 + _SPAN
# cells more, limit the furthest any test reads, so the engine takes _CELLS
# cells' worth of replications at a time.
_CELLS = 1 << 20


class _Streams:
    """The event streams of some replications, read a block of new events
    at a time.

    ``take(rows, length)`` returns the events of rows ``rows`` (indices
    into ``replications``) after those they have taken, up to ``length``
    cumulative events, as an ``EventStream`` of ``(rows, L)`` columns
    (``times`` is None; nothing that scores a block reads it), with the
    cumulative event count at each.  A row holds its Philox key
    (``_stream_keys``, 16 bytes) and no generator: one ``Philox`` and
    ``Generator`` pair, built at the first take, is set to a row's key and
    draw count before each of its reads (``_seek``), and Philox, being
    counter-based, then goes on with the draws of ``stream_rng(seed, r)``.
    A single-event row draws one uniform an event, so its draw count is
    its event count, and it carries its treatment risk set; each take
    draws ``L = length - done`` columns.  A tied stream is drawn whole at
    its row's first take, cut after ``limit`` cumulative events and kept.
    A tied row shorter than the longest is padded with empty batches at
    risk sets ``(1, 1)``: they add exactly 0 to every kernel and logrank
    sum and to the event count, so a row's running statistics stay flat
    through its padding.  ``drop(rows)`` lets the tied streams of rows
    that are not read again go.
    """

    def __init__(self, scenario: SimScenario, replications, limit: int):
        self.scenario, self.limit = scenario, limit
        self.keys = _stream_keys(scenario.seed, replications)  # each row's Philox key
        self.size = len(self.keys)
        self.rng: np.random.Generator | None = None  # set to a row's stream by _seek
        self.tied: dict[int, list[np.ndarray]] = {}  # tied streams: each drawn row's
        self.events = np.zeros(self.size, dtype=np.int64)  # taken by each row
        self.y1 = np.full(self.size, float(scenario.m1))  # single events: treatment at risk
        self.taken = np.zeros(self.size, dtype=np.int64)  # tied streams: batches taken

    def _seek(self, r: int, drawn: int) -> np.random.Generator:
        """The generator, set to row ``r``'s stream after ``drawn`` raw
        64-bit draws: Philox draws four at a counter, so the counter is
        ``drawn // 4`` with its buffer spent, and ``drawn % 4`` draws are
        discarded."""
        if self.rng is None:
            self.rng = np.random.Generator(np.random.Philox(key=self.keys[r]))
        bits = self.rng.bit_generator
        bits.state = {
            "bit_generator": "Philox", "state": {"counter": [drawn // 4, 0, 0, 0], "key": self.keys[r]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        if drawn % 4:
            bits.random_raw(drawn % 4)
        return self.rng

    def _tied(self, r: int) -> list[np.ndarray]:
        """Row ``r``'s tied stream: ``y1``, ``y0``, ``o``, ``o1`` and the
        cumulative event count of its batches within the limit; drawn at its
        first take."""
        if r not in self.tied:
            s = self.scenario
            _, *columns = _tied_columns(s.m1, s.m0, s.theta, s.tie_h0, self._seek(r, 0))
            n = np.cumsum(columns[2])
            end = int(np.searchsorted(n, self.limit, "right"))
            self.tied[r] = [c[:end] for c in (*columns, n)]
        return self.tied[r]

    def _uniforms(self, rows: np.ndarray, done: int, count: int) -> np.ndarray:
        """The next ``count`` uniforms of rows ``rows``, each of which has
        drawn ``done``, as a ``(count, rows)`` view of one row's draws a
        row."""
        uniforms = np.empty((rows.size, count))
        for r, out in zip(rows, uniforms):
            self._seek(r, done).random(out=out)
        return uniforms.T

    def take(self, rows: np.ndarray, length: int) -> tuple[EventStream, np.ndarray]:
        if self.scenario.tie_h0 is None:
            done = int(self.events[rows[0]])  # the rows read together stand at one event
            y1 = self.y1[rows]
            at_risk = self.scenario.m1 + self.scenario.m0 - done
            y1s, y0s, o1 = _single_event_columns(
                self.scenario.theta, self._uniforms(rows, done, length - done), y1, at_risk
            )
            self.y1[rows] = y1
            block = EventStream(None, y1s, y0s, np.ones_like(o1), o1)
        else:
            sources = [self._tied(r) for r in rows]
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
        if self.tied:
            for r in rows:
                self.tied.pop(r, None)


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

    ``read(rows, block, n, taus)`` scores the new events ``block`` (``(rows,
    L)`` columns from ``_Streams.take``, ``n`` the cumulative event count at
    each) of rows ``rows`` up to the test's event ``limit``, the cap or an
    ``obf`` test's horizon ``n_max``, carries their statistics past them, and
    sets ``taus`` at each row's first crossing (``crossings``), which is never
    in its padding, where the row's last statistic repeats.  A crossing past
    the limit does not count, and a row settles once its event count reaches
    the limit.  Every kind scores the rows of a block together.  The exact log
    e-values (one ``log_kernel`` call over every cell) and the logrank score
    and variance are running sums (``_carried``); the plug-in carries one
    ``_PluginFit`` of every row and the log e-values (``_plugin_crossings``);
    Bayes carries each row's log posterior, its log-sum-exp and the log
    e-value.  A ``fixed`` row is settled once its one look has passed without a
    crossing.  No later event can cross on a settled row, so the engine reads
    it no further, and its stopping time stays infinite.
    """

    def __init__(self, scenario: SimScenario, kind: str, size: int, limit: int):
        design = scenario.design
        self.kind, self.scenario = kind, scenario
        self.limit = min(limit, design.n_max) if kind == "obf" else limit  # or the horizon, if sooner
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

    def read(self, rows: np.ndarray, block: EventStream, n: np.ndarray, taus: np.ndarray) -> None:
        width = n.shape[1]  # n grows along a row, so a row within the limit at its end is within it
        if n[:, -1].min() > self.limit:
            width = int(np.count_nonzero(n <= self.limit, axis=1).max())
        if width:
            within = EventStream(None, *(c[:, :width] for c in (block.y1, block.y0, block.o, block.o1)))
            first = self.crossings(rows, within, n[:, :width])
            hit = np.flatnonzero(first >= 0)
            hit = hit[n[hit, first[hit]] <= self.limit]  # a tied row may pass the limit sooner
            taus[rows[hit]] = n[hit, first[hit]]
        self.settled[rows] |= n[:, -1] >= self.limit

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
                hit = _obf_reaches(_obf_scaled(z, n, design), design, design.n_max)
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
    scenario: SimScenario, kinds: Sequence[str] | dict[str, int], cap: int | None = None,
    power: float | None = None,
) -> dict[str, np.ndarray]:
    """Stopping times of every replication for each test kind, every kind on
    the same streams.

    Each kind reads up to the cap, or to the event limit ``kinds`` maps it
    to, which may lie past the cap (``_Running.read``).  Replications run
    in chunks of ``_CELLS // (_BLOCK + history)``, the history being
    ``limit + 2 + _SPAN`` cells (``limit`` the furthest) for plug-in and
    Bayes designs and tied streams and 0 otherwise, over growing prefixes:
    the first ``_BLOCK`` events of the replications still running, then
    twice as many, and so on up to the limit.  Each prefix goes on from
    where the one before ended: ``_Streams`` draws only the new events of
    the open rows, in blocks of at most ``_CELLS // 16`` cells, from each
    row's key and draw count and its carried risk set (tied streams are
    drawn once and kept), and ``_Running`` scores each kind on the rows
    that have neither crossed nor settled for it, from their carried
    statistics.  So each event is drawn and scored once, and a row first
    crosses where it would on the whole stream.  A replication stops
    running once every kind has crossed or settled on it.  Replications
    are keyed individually, so any chunking gives bit-identical results.

    With ``power``, a kind's horizon is settled once ``_required_count(power,
    replications)`` of its stopping times, over every replication scored so
    far, lie within the prefix just read: its ``n_max`` (``estimate_nmax``)
    is then at most that prefix's length, so every row still open for it
    settles, its stopping time left infinite.  Those rows stop past
    ``n_max``, so ``n_max``, the capped and conditional means and the power
    of ``_stopping_summary`` are those of a run to the limit; the stopping
    times themselves are not, which is why ``simulate_stopping_times``
    passes no power.
    """
    reps = scenario.replications
    limit = _event_limit(scenario, cap)
    limits = kinds if isinstance(kinds, dict) else dict.fromkeys(kinds, limit)
    end = max([limit, *limits.values()])
    need = math.inf if power is None else _required_count(power, reps)
    taus = {k: np.full(reps, np.inf) for k in limits}
    history = scenario.tie_h0 is not None or not {"plugin", "bayes"}.isdisjoint(limits)
    chunk = max(1, _CELLS // (_BLOCK + (end + 2 + _SPAN if history else 0)))
    for lo in range(0, reps if limits else 0, chunk):
        streams = _Streams(scenario, range(lo, min(lo + chunk, reps)), end)
        running = {k: _Running(scenario, k, streams.size, limits[k]) for k in limits}
        ours = {k: taus[k][lo : lo + streams.size] for k in limits}
        rows, length = np.arange(streams.size), 0
        while rows.size and length < end:
            done, length = length, min(max(2 * length, _BLOCK), end)
            size = max(1, _CELLS // (16 * (length - done)))
            for start in range(0, rows.size, size):
                part = rows[start : start + size]
                block, n = streams.take(part, length)
                for kind in limits if n.shape[1] else ():  # a tied block may hold no batch
                    open_ = running[kind].open(part, ours[kind])
                    if open_.any():
                        on = block if open_.all() else EventStream(
                            None, *(c[open_] for c in (block.y1, block.y0, block.o, block.o1)))
                        running[kind].read(part[open_], on, n[open_], ours[kind])
                streams.drop(part[~np.any([running[k].open(part, ours[k]) for k in limits], axis=0)])
            for kind in limits:
                if np.count_nonzero(taus[kind] <= length) >= need:  # n_max <= length
                    running[kind].settled[rows] = True
            still = np.any([running[k].open(rows, ours[k]) for k in limits], axis=0)
            streams.drop(rows[~still])
            rows = rows[still]
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

def _required_count(power: float, n: int) -> int:
    """The least count k of n replications with ``k / n >= power``: how
    many must stop within a horizon for it to have the power.  ``ceil(power
    * n)`` can be one more, where the product rounds up past an integer
    (0.55 * 100 is 55.00000000000001)."""
    k = math.ceil(power * n)
    while k > 0 and (k - 1) / n >= power:
        k -= 1
    while k / n < power:
        k += 1
    return k


def estimate_nmax(taus: np.ndarray, power: float) -> int:
    """Smallest horizon n_max with P(tau <= n_max) >= power, empirically:
    the k-th order statistic of the N stopping times, k the least count
    with k / N >= power (``_required_count``); refuses no stopping times
    and NaN ones."""
    if not (0.0 < power < 1.0):
        raise ValueError(f"power must be in (0, 1), got {power}")
    taus = np.asarray(taus, dtype=float)
    if taus.size == 0 or np.isnan(taus).any():
        raise ValueError("estimate_nmax needs at least one stopping time and no NaN")
    k = _required_count(power, taus.size)
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


def _obf_horizon(scenario: SimScenario, cap: int) -> int:
    """Smallest O'Brien-Fleming horizon within ``cap`` events reaching the
    design's power, or ``UnattainablePowerError``.

    A stream crosses the boundary of horizon ``h`` iff the running maximum
    of ``Z_n * sqrt(n)`` on the design's side reaches ``z_{1-alpha/2} *
    sqrt(h)`` by n = h (``_obf_reaches``), so one running maximum per
    stream answers every candidate horizon at once.  The scan reads growing
    prefixes of every replication's single-event stream, the first
    ``_BLOCK`` events, then twice as many and so on up to ``cap``, the way
    the engine does: each prefix draws and scores only its new events
    (``_Streams``), in blocks of at most ``_CELLS // 16`` cells, going on
    from each replication's key, risk set, logrank sums and running
    maximum, and counts the crossings of its new horizons.  It stops at the
    first prefix that holds a horizon with the power: a longer prefix
    changes no count of a shorter horizon, so that horizon is the one a
    scan to ``cap`` finds.  Every replication's key, counts and sums stay
    open until then, about 60 bytes a replication.  The scan is its own
    pass over every replication, not the engine's: the engine's chunks
    cannot count crossings over all replications before the first ends.
    """
    if scenario.tie_h0 is not None:
        raise ValueError("O'Brien-Fleming sizing needs single-event streams, not tie_h0")
    design = scenario.design
    limit = _event_limit(scenario, cap)
    reps = scenario.replications
    need = _required_count(design.power, reps)
    sums = np.zeros((3, reps))  # logrank score and variance, running maximum of _obf_scaled
    sums[2] = np.nan  # no maximum yet: fmax takes the first value
    streams, rows, length = _Streams(scenario, range(reps), limit), np.arange(reps), 0
    while length < limit:  # prefixes of _BLOCK events, then twice as many, up to the limit
        done, length = length, min(max(2 * length, _BLOCK), limit)
        horizons = np.arange(done + 1, length + 1)
        size, crossed = max(1, _CELLS // (16 * (length - done))), 0
        for lo in range(0, reps, size):
            part = rows[lo : lo + size]
            block, n = streams.take(part, length)
            maxima = _carried(np.fmax, sums[2], part, _obf_scaled(_running_z(block, sums, part), n, design))
            crossed = crossed + _obf_reaches(maxima, design, horizons).sum(axis=0)
        reached = np.flatnonzero(crossed >= need)
        if reached.size:
            return done + int(reached[0]) + 1
    raise UnattainablePowerError(design.power, float(crossed[-1] / reps))


def estimate_obf_nmax(scenario: SimScenario, cap: int) -> tuple[int, np.ndarray]:
    """Smallest O'Brien-Fleming horizon within ``cap`` events reaching the
    design's power (``_obf_horizon``), and each replication's stopping
    time at that horizon: the engine's ``obf`` kind at ``n_max = h``, by the
    same crossing rule, so the stopping times it gives have the power that
    chose ``h``."""
    # the scenario's alternative and rates as an O'Brien-Fleming design: refuses one with no side
    obf = replace(scenario.design, test_kind="obf", n_max=cap, two_sided=False, prior=None)
    h = _obf_horizon(scenario, cap)
    return h, simulate_stopping_times(replace(scenario, design=replace(obf, n_max=h)), h)


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
    scenario = SimScenario(
        m1=m1,
        m0=m0,
        theta=theta,
        design=design,
        replications=replications,
        seed=seed,
        tie_h0=tie_h0,
    )

    tests = dict.fromkeys(kinds, _event_limit(scenario, cap))  # each kind's event limit
    rows, failed, obf_failed = [], [], []
    if include_obf:
        try:
            tests["obf"] = _obf_horizon(scenario, obf_cap if obf_cap is not None else (cap or m1 + m0))
        except UnattainablePowerError as err:
            obf_failed.append(("obrien-fleming", err))
        else:  # scored to its horizon, past the cap if need be; the other kinds keep theta1 and alpha
            scenario = replace(scenario, design=replace(design, test_kind="obf", n_max=tests["obf"]))
    for kind, taus in _stopping_times(scenario, tests, cap, power).items():
        name = "obrien-fleming" if kind == "obf" else kind
        try:
            n_max = tests[kind] if kind == "obf" else estimate_nmax(taus, power)
        except UnattainablePowerError as err:
            failed.append((name, err))
            continue
        mean_capped, conditional_mean, achieved = _stopping_summary(taus, n_max)
        rows.append(
            DesignRow(
                test_kind=name,
                n_max=n_max,
                mean_capped=mean_capped,
                conditional_mean=conditional_mean,
                power=achieved,
                ratio_n_max=n_max / n_fixed,
                ratio_mean=mean_capped / n_fixed,
            )
        )
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
        "unattained": [
            {"test_kind": kind, "requested": err.requested, "achieved": err.achieved}
            for kind, err in failed + obf_failed
        ],
    }
