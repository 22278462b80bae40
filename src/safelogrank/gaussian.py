"""Gaussian approximation to the exact e-process, and monitoring boundaries.

The logrank statistic ``Z = sum(o1 - E1) / sqrt(sum(V1))`` is asymptotically
standard normal under the null hazard ratio ``theta0 = 1`` and, under an
alternative ``theta``, approximately normal with drift ``mu1 * sqrt(n)``
where ``mu1 = log(theta) * sqrt(m1 * m0) / (m1 + m0)`` is the per-event mean
shift for initial group sizes ``m1`` (treatment) and ``m0`` (control).
Replacing the exact conditional likelihood ratio with a ratio of these
normal densities gives a Gaussian e-value that only needs the summary
statistic ``(n, Z)``:

    log M''(n, Z) = -n * mu1**2 / 2 + mu1 * sqrt(n) * Z

This is an enormous practical convenience — the test can run off a published
logrank Z — but unlike the exact e-process it is only *approximately* safe.
``null_expectation_audit`` quantifies the failure mode: the per-event
Gaussian increment has null expectation <= 1 for balanced designs (so the
approximation stays conservative there), but exceeds 1 for sufficiently
unbalanced allocations combined with extreme design alternatives.

The module also provides the classical monitoring boundaries used for
comparison: the level set of the Gaussian e-value expressed on the Z scale,
a continuous-monitoring O'Brien-Fleming-type boundary, and the fixed-sample
critical value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .core import EventBatch, EventStream, RiskSet, validate_theta

__all__ = [
    "LogrankSummary",
    "logrank_increments",
    "logrank_moments",
    "logrank_z",
    "per_event_z",
    "schoenfeld_mu",
    "gaussian_increment",
    "log_gaussian_increment",
    "gaussian_evalue",
    "log_gaussian_evalue",
    "null_expectation_audit",
    "normal_quantile",
    "gaussian_safe_boundary",
    "obf_boundary",
    "fixed_sample_boundary",
]


@dataclass(frozen=True)
class LogrankSummary:
    """Sufficient summary of a dataset for the Gaussian e-process.

    ``score``    sum over event times of (o1 - E1), E1 = o * y1 / (y1 + y0)
    ``variance`` sum of the ties-corrected hypergeometric variances V1
    ``n_events`` total number of events (ties each count)
    ``n_event_times`` number of distinct event times
    """

    score: float
    variance: float
    n_events: int
    n_event_times: int

    @property
    def z(self) -> float:
        if self.variance <= 0.0:
            raise ValueError(
                "logrank Z is undefined: total variance is zero "
                "(every event time had a one-group or exhausted risk set)"
            )
        return self.score / math.sqrt(self.variance)


def logrank_increments(stream: EventStream) -> tuple[np.ndarray, np.ndarray]:
    """Logrank score term ``o1 - E1`` and ties-corrected variance term
    ``V1`` of each event time, where E1 = o*y1/y and
    V1 = o*(y1/y)*(1 - y1/y)*(y - o)/(y - 1) (0 when y = 1)."""
    y = stream.y1 + stream.y0
    a1 = stream.y1 / y
    v1 = stream.o * a1 * (1.0 - a1) * (y - stream.o) / np.maximum(y - 1, 1)
    return stream.o1 - stream.o * a1, v1


def logrank_moments(stream: EventStream) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative logrank score sum(o1 - E1) and ties-corrected variance
    sum(V1) after each event time (see ``logrank_increments``)."""
    return tuple(np.cumsum(x) for x in logrank_increments(stream))


def logrank_z(batches: Sequence[EventBatch]) -> LogrankSummary:
    """Ties-corrected logrank summary of an event-batch sequence."""
    score, variance = logrank_moments(EventStream.from_batches(batches))
    summary = LogrankSummary(
        score=float(score[-1]) if len(batches) else 0.0,
        variance=float(variance[-1]) if len(batches) else 0.0,
        n_events=sum(b.o for b in batches),
        n_event_times=len(batches),
    )
    summary.z  # fail fast on degenerate variance
    return summary


def per_event_z(batch: EventBatch) -> float:
    """Standardized contribution (o1 - E1)/sqrt(V1) of a single event time."""
    (score,), (v1,) = logrank_moments(EventStream.from_batches([batch]))
    if v1 <= 0.0:
        raise ValueError(f"per-event Z undefined for forced batch {batch}")
    return float(score) / math.sqrt(v1)


def schoenfeld_mu(theta: float, m1: int, m0: int) -> float:
    """Per-event mean shift of the logrank statistic under hazard ratio ``theta``
    for initial allocation ``m1`` treatment vs ``m0`` control:
    ``log(theta) * sqrt(m1*m0) / (m1 + m0)``.  After ``n`` events the total
    drift is ``mu1 * sqrt(n)``."""
    theta = validate_theta(theta)
    if m1 < 1 or m0 < 1:
        raise ValueError(f"group sizes must be >= 1, got m1={m1}, m0={m0}")
    return math.log(theta) * math.sqrt(m1 * m0) / (m1 + m0)


def log_gaussian_increment(mu1: float, z: float, o: int = 1) -> float:
    """Log ratio of N(mu1*sqrt(o), 1) to N(0, 1) densities at the per-event-time
    standardized statistic ``z``:  -mu1**2 * o / 2 + mu1 * sqrt(o) * z."""
    if o < 1:
        raise ValueError(f"o must be >= 1, got {o}")
    return -0.5 * mu1 * mu1 * o + mu1 * math.sqrt(o) * z


def gaussian_increment(mu1: float, z: float, o: int = 1) -> float:
    return math.exp(log_gaussian_increment(mu1, z, o))


def log_gaussian_evalue(n, z, mu1: float):
    """Log Gaussian e-value from the summary statistic after ``n`` events;
    ``n`` and ``z`` may be arrays of one shape."""
    if np.any(np.less(n, 1)):
        raise ValueError(f"n must be >= 1, got {n}")
    return -0.5 * n * mu1 * mu1 + mu1 * np.sqrt(n) * z


def gaussian_evalue(summary: LogrankSummary, mu1: float) -> float:
    """Gaussian e-value of a dataset summary against drift ``mu1``."""
    return math.exp(log_gaussian_evalue(summary.n_events, summary.z, mu1))


def null_expectation_audit(
    theta1: float, m1: int, m0: int, current_risk: RiskSet
) -> float:
    """Exact null expectation of the per-event Gaussian increment.

    The drift ``mu1`` is fixed from the *initial* allocation ``(m1, m0)``
    while the event is drawn from the *current* risk set — exactly the
    situation during a running trial.  A value <= 1 means the Gaussian
    increment is a genuine e-variable at this state (the approximation is
    safe, if slightly conservative); a value > 1 quantifies the type-I
    leakage of the approximation.  Balanced designs with equal current risk
    sets give exp(-mu1^2/2)*cosh(mu1) <= 1 for every design alternative;
    sufficiently unbalanced allocations with extreme ``theta1`` exceed 1.
    """
    mu1 = schoenfeld_mu(theta1, m1, m0)
    y1, y0 = current_risk.y1, current_risk.y0
    if y1 < 1 or y0 < 1:
        raise ValueError(
            f"audit needs both groups at risk, got y1={y1}, y0={y0}"
        )
    total = 0.0
    for o1 in (0, 1):
        b = EventBatch(risk=current_risk, o=1, o1=o1)
        q_null = (y1 if o1 == 1 else y0) / current_risk.total
        total += q_null * gaussian_increment(mu1, per_event_z(b), o=1)
    return total


def normal_quantile(p: float) -> float:
    """Standard normal quantile, accurate to well below 1e-9 absolute error."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must be in (0, 1), got {p}")
    return NormalDist().inv_cdf(p)


def gaussian_safe_boundary(n, theta1: float, alpha: float, m1: int = 1, m0: int = 1):
    """Z-scale rejection threshold of the Gaussian e-value test after ``n``
    events (an integer or an integer array).

    Solves log M''(n, Z) = log(1/alpha) for Z:

        Z* = mu1*sqrt(n)/2 - log(alpha) / (mu1*sqrt(n))

    For ``theta1 < 1`` (negative drift) the test rejects when Z <= Z*; for
    ``theta1 > 1`` when Z >= Z*.  With a balanced design this reduces to the
    familiar closed form ``log(theta1)*sqrt(n/4)/2 - log(alpha)/(log(theta1)*sqrt(n/4))``.
    """
    theta1 = validate_theta(theta1, "theta1")
    if theta1 == 1.0:
        raise ValueError("theta1=1 has no rejection boundary")
    _check_alpha(alpha)
    if np.any(np.less(n, 1)):
        raise ValueError(f"n must be >= 1, got {n}")
    g = schoenfeld_mu(theta1, m1, m0) * np.sqrt(n)
    return g / 2.0 - math.log(alpha) / g


def obf_boundary(n, n_max: int, alpha: float, side: str = "left"):
    """Continuous-monitoring O'Brien-Fleming-type boundary on the Z scale
    after ``n`` events (an integer or an integer array).

    Derived from the reflection bound for Brownian motion monitored up to a
    planning horizon of ``n_max`` events: the trial rejects at information
    fraction ``n/n_max`` when ``|Z| >= Phi^{-1}(1 - alpha/2) / sqrt(n/n_max)``
    on the designated side.  Valid only up to the horizon.
    """
    _check_alpha(alpha)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if np.any(np.less(n, 1)) or np.any(np.greater(n, n_max)):
        raise ValueError(
            f"O'Brien-Fleming boundary undefined beyond the horizon: n={n}, n_max={n_max}"
        )
    c = normal_quantile(1.0 - alpha / 2.0) / np.sqrt(np.divide(n, n_max))
    return -c if _check_side(side) == "left" else c


def fixed_sample_boundary(alpha: float, side: str = "left") -> float:
    """Classical fixed-sample one-sided critical value on the Z scale."""
    _check_alpha(alpha)
    c = normal_quantile(1.0 - alpha)
    return -c if _check_side(side) == "left" else c


def _check_alpha(alpha: float) -> float:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return alpha


def _check_side(side: str) -> str:
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return side
