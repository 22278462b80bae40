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
log-sum-exp: the package's one Fisher noncentral hypergeometric formula.
The exact traces, the learned numerators, the confidence sequence
denominators and the simulation engine all read it.  ``RiskSet`` and
``EventBatch`` are a validating scalar view of one row of an
``EventStream``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "THETA_LOWER",
    "THETA_UPPER",
    "RiskSet",
    "EventBatch",
    "EventStream",
    "validate_theta",
    "two_sided_log_evalue",
    "log_kernel",
    "log_evalue_trace",
]

# Admissible hazard-ratio range.  Values outside are almost certainly unit
# confusion (e.g. a log hazard ratio passed where a ratio was expected).
THETA_LOWER = 1e-8
THETA_UPPER = 1e8


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
    def o1_min(self) -> int:
        return max(0, self.o - self.risk.y0)

    @property
    def o1_max(self) -> int:
        return min(self.o, self.risk.y1)


_LOG_FACTORIAL = np.zeros(1)


def _log_factorial(n: int) -> np.ndarray:
    """``log(k!)`` for ``k = 0..n`` at least, from a table grown by doubling."""
    global _LOG_FACTORIAL
    size = _LOG_FACTORIAL.size
    if size <= n:
        more = [math.lgamma(k + 1.0) for k in range(size, max(n + 1, 2 * size))]
        _LOG_FACTORIAL = np.concatenate([_LOG_FACTORIAL, more])
    return _LOG_FACTORIAL


def _support_table(y1: np.ndarray, y0: np.ndarray, o: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Padded supports of batches, one row each: ``u[k, j] = lo_k + j`` with
    ``lo_k = max(0, o_k - y0_k)``, and the log weights
    ``log C(y1, u) + log C(y0, o - u)`` from one log-factorial table,
    ``-inf`` past the row's support."""
    lo = np.maximum(0, o - y0)
    size = np.minimum(o, y1) - lo + 1
    u = lo[:, None] + np.arange(size.max(initial=1))
    inside = u < (lo + size)[:, None]
    lf = _log_factorial(int(max(y1.max(initial=0), y0.max(initial=0))))
    y1, y0, o, v = y1[:, None], y0[:, None], o[:, None], np.where(inside, u, lo[:, None])
    log_w = lf[y1] - lf[v] - lf[y1 - v] + lf[y0] - lf[o - v] - lf[y0 - o + v]
    return u, np.where(inside, log_w, -np.inf)


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


def two_sided_log_evalue(log_left, log_right):
    """Log of the equal-weight mixture (M_left + M_right) / 2, in log space;
    elementwise for arrays."""
    return np.logaddexp(log_left, log_right) - math.log(2.0)


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
    stream: EventStream, theta1: float, theta0: float = 1.0, two_sided: bool = False
) -> np.ndarray:
    """Cumulative log e-value after each event time: the running sum of the
    log likelihood ratios ``log_kernel`` at ``theta1`` minus ``log_kernel``
    at ``theta0``.  Each ratio has conditional expectation 1 under
    ``theta0`` (summing ``q_theta0 * ratio`` over the support gives the
    total mass of ``q_theta1``), so the running product is a test
    martingale; a forced batch contributes exactly 0.  ``two_sided`` mixes
    the one-sided traces of the alternatives ``theta1`` and ``1/theta1``
    half-half at every read-out (``two_sided_log_evalue``), so neither
    side's precision decays."""
    theta1 = validate_theta(theta1, "theta1")
    theta0 = validate_theta(theta0, "theta0")
    if two_sided:
        left, right = (log_evalue_trace(stream, t, theta0) for t in (theta1, 1.0 / theta1))
        return two_sided_log_evalue(left, right)
    inc = log_kernel(stream, math.log(theta1)) - log_kernel(stream, math.log(theta0))
    return np.cumsum(inc)
