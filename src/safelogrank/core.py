"""Exact e-value machinery for two-group survival comparisons.

This module implements the probabilistic core of the safe (anytime-valid)
logrank test.  Time is discretized by event times.  Just before the i-th
event time the *risk set* holds ``y1`` treatment-group and ``y0``
control-group participants.  Conditionally on ``o`` events happening at that
time (ties allowed), the number ``o1`` of treatment-group events follows
Fisher's noncentral hypergeometric distribution with odds parameter
``theta``, the hazard ratio of treatment to control:

    P(o1 | y1, y0, o) = C(y1, o1) * C(y0, o - o1) * theta**o1 / Z(theta)

where ``Z`` sums the numerator over the support
``max(0, o - y0) <= o1 <= min(o, y1)``.  For a single event (``o = 1``) this
reduces to a Bernoulli draw with success probability
``y1 * theta / (y0 + y1 * theta)``.

Evidence against a null hazard ratio ``theta0`` in favor of an alternative
``theta1`` accumulates multiplicatively through likelihood ratios of these
conditional distributions.  The running product is a nonnegative martingale
with expectation 1 under the null, so by Ville's inequality the probability
that it ever exceeds ``1/alpha`` is at most ``alpha`` — the test may be
monitored continuously and stopped (or extended) at will without inflating
the type-I error.

All arithmetic is in natural-log space.  ``log_kernel`` is the one
vectorized ``log q_theta(o1 | batch)`` over a columnar ``EventStream``, with
``theta`` a scalar, one value per event time, or a grid: single events use
the logistic closed form, forced batches give exactly 0, and tied batches
are evaluated together over a padded support table whose log-binomials come
from one log-factorial table (built with ``math.lgamma``), normalized by
log-sum-exp: the package's one Fisher noncentral hypergeometric formula,
which ``log_hypergeom_pmf`` shares.  The exact traces, the learned
numerators, the confidence sequence denominators and the simulation engine
all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "THETA_LOWER",
    "THETA_UPPER",
    "RiskSet",
    "EventBatch",
    "EventStream",
    "MartingaleState",
    "ScoreComponents",
    "validate_theta",
    "bernoulli_event_prob",
    "log_bernoulli_event_prob",
    "hypergeom_event_prob",
    "log_hypergeom_event_prob",
    "log_hypergeom_pmf",
    "evalue_increment",
    "log_evalue_increment",
    "update_martingale",
    "update_two_sided",
    "two_sided_log_evalue",
    "meta_combine",
    "log_likelihood",
    "as_stream",
    "log_kernel",
    "log_evalue_trace",
    "score_components",
]

# Admissible hazard-ratio range.  Values outside are almost certainly unit
# confusion (e.g. a log hazard ratio passed where a ratio was expected).
THETA_LOWER = 1e-8
THETA_UPPER = 1e8


def _logsumexp(values: np.ndarray) -> float:
    """Stable log-sum-exp of a small 1-d array (scipy's version carries too
    much call overhead for the per-event hot path)."""
    m = values.max()
    if not math.isfinite(m):
        return float(m)
    return float(m + math.log(np.exp(values - m).sum()))


def validate_theta(theta: float, name: str = "theta") -> float:
    """Check that a hazard ratio lies in [1e-8, 1e8] and return it as float."""
    theta = float(theta)
    if not math.isfinite(theta) or not (THETA_LOWER <= theta <= THETA_UPPER):
        raise ValueError(
            f"{name} must be a finite hazard ratio in [{THETA_LOWER:g}, {THETA_UPPER:g}], got {theta!r}"
        )
    return theta


@dataclass(frozen=True)
class RiskSet:
    """Participants still at risk just before an event time.

    ``y1`` counts the treatment group, ``y0`` the control group.  The risk
    set at a time ``t`` contains everyone with ``entry < t <= exit``; in
    particular it still includes the participants about to have their event
    at ``t``, and anyone censored exactly at ``t``.
    """

    y1: int
    y0: int

    def __post_init__(self) -> None:
        for label, value in (("y1", self.y1), ("y0", self.y0)):
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"RiskSet.{label} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"RiskSet.{label} must be >= 0, got {value}")

    @property
    def total(self) -> int:
        return self.y1 + self.y0

    def after_events(self, o1: int, o0: int) -> "RiskSet":
        """Risk set after removing ``o1`` treatment and ``o0`` control exits."""
        return RiskSet(self.y1 - o1, self.y0 - o0)


@dataclass(frozen=True)
class EventBatch:
    """All events tied at one event time: ``o`` events, ``o1`` from treatment.

    Ties are exact equality of recorded exit times.  ``o1`` must lie in the
    hypergeometric support ``[max(0, o - y0), min(o, y1)]``; anything else is
    inconsistent with the risk set and rejected outright.
    """

    risk: RiskSet
    o: int
    o1: int

    def __post_init__(self) -> None:
        if not (1 <= self.o <= self.risk.total):
            raise ValueError(
                f"event count o={self.o} outside [1, {self.risk.total}] for risk set {self.risk}"
            )
        if not (self.o1_min <= self.o1 <= self.o1_max):
            raise ValueError(
                f"o1={self.o1} outside support [{self.o1_min}, {self.o1_max}] "
                f"for o={self.o} events in risk set {self.risk}"
            )

    @property
    def o0(self) -> int:
        return self.o - self.o1

    @property
    def o1_min(self) -> int:
        return max(0, self.o - self.risk.y0)

    @property
    def o1_max(self) -> int:
        return min(self.o, self.risk.y1)

    @property
    def forced(self) -> bool:
        """True when the risk set leaves only one possible ``o1`` (no information)."""
        return self.o1_min == self.o1_max


def log_bernoulli_event_prob(theta: float, y1: int, y0: int, o1: int) -> float:
    """log P(single event comes from treatment group) = log of
    ``y1*theta/(y0 + y1*theta)`` if ``o1 == 1`` else ``y0/(y0 + y1*theta)``.

    Computed as a two-term log-sum-exp so extreme ``theta`` cannot overflow.
    """
    theta = validate_theta(theta)
    if o1 not in (0, 1):
        raise ValueError(f"o1 must be 0 or 1 for a single event, got {o1}")
    if y1 < 0 or y0 < 0 or y1 + y0 < 1:
        raise ValueError(f"invalid risk set (y1={y1}, y0={y0})")
    if (o1 == 1 and y1 == 0) or (o1 == 0 and y0 == 0):
        return -math.inf
    log_w1 = math.log(y1) + math.log(theta) if y1 > 0 else -math.inf
    log_w0 = math.log(y0) if y0 > 0 else -math.inf
    log_z = np.logaddexp(log_w1, log_w0)
    return float((log_w1 if o1 == 1 else log_w0) - log_z)


def bernoulli_event_prob(theta: float, risk: RiskSet, o1: int) -> float:
    """Probability that a single (untied) event falls in the treatment group."""
    return math.exp(log_bernoulli_event_prob(theta, risk.y1, risk.y0, o1))


def log_hypergeom_pmf(
    theta: float, y1: int, y0: int, o: int
) -> tuple[np.ndarray, np.ndarray]:
    """Full log-pmf of Fisher's noncentral hypergeometric distribution.

    Returns ``(support, logp)`` where ``support`` enumerates the possible
    treatment-event counts ``max(0, o - y0) .. min(o, y1)`` and ``logp`` the
    corresponding normalized log-probabilities.  Weights are assembled in log
    space (log-binomials from a log-factorial table, normalizer via
    log-sum-exp), so the result is finite for any admissible ``theta``.
    """
    theta = validate_theta(theta)
    if y1 < 0 or y0 < 0 or not (1 <= o <= y1 + y0):
        raise ValueError(f"invalid batch (y1={y1}, y0={y0}, o={o})")
    u = np.arange(max(0, o - y0), min(o, y1) + 1)
    log_w = _log_binom_weights(_log_factorial(max(y1, y0)), y1, y0, o, u) + u * math.log(theta)
    return u, log_w - _logsumexp(log_w)


_LOG_FACTORIAL = np.zeros(1)


def _log_factorial(n: int) -> np.ndarray:
    """``log(k!)`` for ``k = 0..n`` at least, from a table grown by doubling."""
    global _LOG_FACTORIAL
    size = _LOG_FACTORIAL.size
    if size <= n:
        more = [math.lgamma(k + 1.0) for k in range(size, max(n + 1, 2 * size))]
        _LOG_FACTORIAL = np.concatenate([_LOG_FACTORIAL, more])
    return _LOG_FACTORIAL


def _log_binom_weights(lf: np.ndarray, y1, y0, o, u):
    """``log C(y1, u) + log C(y0, o - u)``, elementwise for ``u`` in the
    support, from the log-factorial table ``lf``."""
    return lf[y1] - lf[u] - lf[y1 - u] + lf[y0] - lf[o - u] - lf[y0 - o + u]


def _support_table(y1: np.ndarray, y0: np.ndarray, o: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Padded supports of batches, one row each: ``u[k, j] = lo_k + j`` with
    ``lo_k = max(0, o_k - y0_k)``, and the log weights of
    ``_log_binom_weights``, ``-inf`` past the row's support."""
    lo = np.maximum(0, o - y0)
    size = np.minimum(o, y1) - lo + 1
    u = lo[:, None] + np.arange(size.max(initial=1))
    inside = u < (lo + size)[:, None]
    lf = _log_factorial(int(max(y1.max(initial=0), y0.max(initial=0))))
    log_w = _log_binom_weights(
        lf, y1[:, None], y0[:, None], o[:, None], np.where(inside, u, lo[:, None])
    )
    return u, np.where(inside, log_w, -np.inf)


def log_hypergeom_event_prob(theta: float, batch: EventBatch) -> float:
    """log P(o1 treatment events | risk set, o total events) under ``theta``."""
    support, logp = log_hypergeom_pmf(theta, batch.risk.y1, batch.risk.y0, batch.o)
    return float(logp[batch.o1 - support[0]])


def hypergeom_event_prob(theta: float, batch: EventBatch) -> float:
    return math.exp(log_hypergeom_event_prob(theta, batch))


def log_evalue_increment(theta1: float, theta0: float, batch: EventBatch) -> float:
    """Log likelihood ratio q_theta1(o1 | batch) / q_theta0(o1 | batch).

    The product of these increments over event times is the test martingale:
    its conditional expectation under ``theta0`` equals 1 at every step
    (summing q_theta0 * ratio over the support telescopes to sum q_theta1 = 1),
    which is just the normalization of the alternative's kernel.

    A *forced* batch — one whose support is a single point, because one group's
    risk set can no longer produce a different split — carries no information
    and short-circuits to exactly 0.0 rather than a difference of two equal
    log-probabilities.
    """
    if batch.forced:
        validate_theta(theta1, "theta1")
        validate_theta(theta0, "theta0")
        return 0.0
    return log_hypergeom_event_prob(theta1, batch) - log_hypergeom_event_prob(
        theta0, batch
    )


def evalue_increment(theta1: float, theta0: float, batch: EventBatch) -> float:
    """Single-event-time e-value increment (likelihood ratio), linear scale."""
    return math.exp(log_evalue_increment(theta1, theta0, batch))


@dataclass(frozen=True, eq=False)
class EventStream:
    """Event batches as columns, one entry per event time: ascending
    ``times`` and integer arrays ``y1``, ``y0`` (at risk just before), ``o``
    (events) and ``o1`` (treatment events)."""

    times: np.ndarray
    y1: np.ndarray
    y0: np.ndarray
    o: np.ndarray
    o1: np.ndarray

    @classmethod
    def from_batches(cls, batches: Sequence[EventBatch]) -> "EventStream":
        """Columns of ``batches``, at times 1, 2, ..."""
        cols = np.array([(b.risk.y1, b.risk.y0, b.o, b.o1) for b in batches], dtype=np.int64)
        return cls(np.arange(1.0, len(batches) + 1.0), *cols.reshape(-1, 4).T)


@dataclass(frozen=True)
class MartingaleState:
    """Running state of a test martingale.

    ``log_e`` is the operative log e-value, ``n_events`` the cumulative number
    of events processed (ties each count), ``n_event_times`` the number of
    distinct event times.  For a two-sided test ``components`` stores the two
    one-sided log values (alternatives ``theta_min`` and ``1/theta_min``)
    separately; ``log_e`` then holds their equal-weight mixture, recomputed at
    every read-out rather than accumulated, so neither side's precision decays.
    """

    log_e: float = 0.0
    n_events: int = 0
    n_event_times: int = 0
    components: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.log_e):
            raise ValueError(f"log_e must be finite, got {self.log_e!r}")
        if self.n_events < 0 or self.n_event_times < 0:
            raise ValueError("event counts must be nonnegative")
        if self.n_event_times > self.n_events:
            raise ValueError(
                f"n_event_times={self.n_event_times} exceeds n_events={self.n_events}"
            )
        if self.components is not None and not all(
            math.isfinite(c) for c in self.components
        ):
            raise ValueError(f"components must be finite, got {self.components!r}")

    @property
    def evalue(self) -> float:
        return math.exp(self.log_e)

    def crossed(self, alpha: float) -> bool:
        """Has the evidence reached the level-``alpha`` threshold 1/alpha?"""
        return self.log_e >= -math.log(alpha)


def update_martingale(
    state: MartingaleState,
    batch: EventBatch,
    theta1: float,
    theta0: float = 1.0,
) -> MartingaleState:
    """Fold one event batch into a one-sided martingale state."""
    if state.components is not None:
        raise ValueError("state is two-sided; use update_two_sided")
    return MartingaleState(
        log_e=state.log_e + log_evalue_increment(theta1, theta0, batch),
        n_events=state.n_events + batch.o,
        n_event_times=state.n_event_times + 1,
    )


def two_sided_log_evalue(log_left, log_right):
    """Log of the equal-weight mixture (M_left + M_right) / 2, in log space;
    elementwise for arrays."""
    return np.logaddexp(log_left, log_right) - math.log(2.0)


def update_two_sided(
    state: MartingaleState,
    batch: EventBatch,
    theta_min: float,
    theta0: float = 1.0,
) -> MartingaleState:
    """Fold one batch into a two-sided state mixing ``theta_min`` and ``1/theta_min``.

    The mixture of the two one-sided martingales is itself a martingale; its
    per-step increment is the ratio of consecutive mixture values, which this
    representation yields for free.
    """
    theta_min = validate_theta(theta_min, "theta_min")
    left, right = state.components if state.components is not None else (0.0, 0.0)
    left = left + log_evalue_increment(theta_min, theta0, batch)
    right = right + log_evalue_increment(1.0 / theta_min, theta0, batch)
    return MartingaleState(
        log_e=float(two_sided_log_evalue(left, right)),
        n_events=state.n_events + batch.o,
        n_event_times=state.n_event_times + 1,
        components=(left, right),
    )


def meta_combine(states: Iterable[MartingaleState]) -> float:
    """Multiply evidence across independent trials.

    The product of e-values from independent (or sequentially run) trials is
    again an e-value, so evidence can be pooled across studies at any interim
    point and the pooled trial continued later; the result depends only on
    the final per-trial states.
    """
    return math.exp(sum(s.log_e for s in states))


def log_likelihood(
    batches: Sequence[EventBatch], theta: float
) -> float:
    """Sum of log q_theta(o1 | batch) over event times."""
    return float(sum(log_hypergeom_event_prob(theta, b) for b in batches))


def as_stream(stream: EventStream | Sequence[EventBatch]) -> EventStream:
    """``stream`` itself, or the columns of a sequence of batches."""
    return stream if isinstance(stream, EventStream) else EventStream.from_batches(stream)


def log_kernel(stream: EventStream, log_theta) -> np.ndarray:
    """log q_theta(o1 | batch) at every event time of ``stream``.

    ``log_theta`` is a scalar, a per-row array of shape ``(n,)``, or a grid
    of shape ``(1, G)`` or ``(n, G)``, which gives an ``(n, G)`` result.
    Single events use the logistic closed form ``-log(1 + exp(-/+d))`` with
    ``d = log(y1/y0) + log_theta``; forced batches give exactly 0; tied
    batches evaluate the Fisher noncentral hypergeometric log-pmf together,
    in blocks of rows of similar support size, so no block holds more than
    ``_TIE_CELLS`` (rows, grid, support) cells.
    """
    log_theta = np.asarray(log_theta, dtype=float)
    y1, y0, o, o1 = stream.y1, stream.y0, stream.o, stream.o1
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.log(y1) - np.log(y0)  # +-inf on forced rows, overwritten below
    sign = np.where(o1 == 1, -1.0, 1.0)
    if log_theta.ndim == 2:
        c, sign = c[:, None], sign[:, None]
    out = c + log_theta
    out *= sign
    np.logaddexp(0.0, out, out=out)
    np.negative(out, out=out)
    forced = np.maximum(0, o - y0) == np.minimum(o, y1)
    out[forced] = 0.0
    tied = np.flatnonzero((o > 1) & ~forced)
    if tied.size:
        rows = np.broadcast_to(log_theta, out.shape)[tied]
        out[tied] = _tied_log_kernel(y1[tied], y0[tied], o[tied], o1[tied], rows)
    return out


# Rows x grid x support cells of one block of tied batches in ``log_kernel``.
_TIE_CELLS = 1 << 14


def _tied_log_kernel(y1, y0, o, o1, log_theta: np.ndarray) -> np.ndarray:
    """``log_kernel`` of informative tied batches, ``log_theta`` of shape
    ``(k,)`` or ``(k, G)``: log weight of the observed split minus the
    log-sum-exp over the padded support, in blocks of rows sorted by
    support size."""
    grid = log_theta.reshape(o.size, -1)
    size = np.minimum(o, y1) - np.maximum(0, o - y0) + 1
    order = np.argsort(size, kind="stable")
    out = np.empty(grid.shape)
    start = 0
    while start < order.size:
        cells = np.arange(1, order.size - start + 1) * size[order[start:]] * grid.shape[1]
        rows = order[start : start + max(1, int(np.searchsorted(cells, _TIE_CELLS, "right")))]
        start += rows.size
        u, log_w = _support_table(y1[rows], y0[rows], o[rows])
        lt = grid[rows]
        table = log_w[:, None, :] + lt[:, :, None] * u[:, None, :]
        m = table.max(axis=-1)
        table -= m[..., None]
        np.exp(table, out=table)
        seen = log_w[np.arange(rows.size), o1[rows] - u[:, 0]]
        out[rows] = seen[:, None] + lt * o1[rows, None] - (m + np.log(table.sum(axis=-1)))
    return out.reshape(log_theta.shape)


def log_evalue_trace(
    stream: EventStream | Sequence[EventBatch],
    theta1: float,
    theta0: float = 1.0,
    two_sided: bool = False,
) -> np.ndarray:
    """Cumulative log e-value after each event time: the running sum of
    ``log_evalue_increment`` over the stream, ``log_kernel`` at ``theta1``
    minus ``log_kernel`` at ``theta0``.  ``two_sided`` mixes the
    alternatives ``theta1`` and ``1/theta1`` half-half, as
    ``update_two_sided`` does."""
    stream = as_stream(stream)
    theta1 = validate_theta(theta1, "theta1")
    theta0 = validate_theta(theta0, "theta0")
    if two_sided:
        left, right = (log_evalue_trace(stream, t, theta0) for t in (theta1, 1.0 / theta1))
        return two_sided_log_evalue(left, right)
    inc = log_kernel(stream, math.log(theta1)) - log_kernel(stream, math.log(theta0))
    return np.cumsum(inc)


@dataclass(frozen=True)
class ScoreComponents:
    """Score ``U(beta)`` and observed information ``-U'(beta)`` of the partial
    likelihood in the log hazard ratio ``beta``."""

    score: float
    information: float


def score_components(
    batches: Sequence[EventBatch], beta: float = 0.0
) -> ScoreComponents:
    """Score-test components of the exact conditional likelihood.

    For each event time the conditional law of ``o1`` given ``o`` is the
    noncentral hypergeometric kernel with odds ``exp(beta)``; the score is the
    sum of ``o1 - mean`` and the information the sum of variances of that
    kernel.  At ``beta = 0`` these are exactly the classical logrank score
    ``sum(o1 - E1)`` and its ties-corrected variance ``sum(V1)``, so
    ``U(0)/sqrt(-U'(0))`` is the logrank statistic.
    """
    theta = math.exp(beta)
    validate_theta(theta, "exp(beta)")
    score = 0.0
    information = 0.0
    for batch in batches:
        support, logp = log_hypergeom_pmf(
            theta, batch.risk.y1, batch.risk.y0, batch.o
        )
        p = np.exp(logp)
        mean = float(p @ support)
        var = float(p @ (support.astype(float) ** 2)) - mean * mean
        score += batch.o1 - mean
        information += var
    return ScoreComponents(score=score, information=information)
