"""Learning the alternative while testing: plug-in and Bayes e-processes,
and the confidence sequences they induce.

A fixed-alternative e-process grows fastest when the design alternative
``theta1`` happens to equal the true hazard ratio.  When it does not, the
*numerator* of the likelihood ratio may instead be learned from the past:
any predictive strategy ``r_i(o1 | past)`` that depends only on events
strictly before event time ``i`` keeps the running product

    M_i = prod_{k<=i} r_k(o1_k | past) / q_theta0(o1_k | batch_k)

a nonnegative martingale with unit expectation under ``theta0`` — the
learning cannot break type-I error control, it only shifts where the power
goes.

Two strategies are provided:

* **plug-in**: ``r_i = q_thetahat`` where ``thetahat`` maximizes the
  conditional likelihood of the strictly-past events, smoothed by two
  virtual observations anchored at the initial risk set (one treatment
  event with an extra treatment participant, one control event with an
  extra control participant).  The smoothing keeps the maximizer interior
  from the first event onward.  ``plugin_newton`` is the one solver: a
  safeguarded Newton iteration on the smoothed score, vectorized over rows.
  A trace solves 64 consecutive prefixes of the stream as the rows of one
  call, warm-started from the estimate before them; the simulation engine
  solves all its replications at once, warm-started from each one's
  previous estimate.  Either way a solve takes two to four iterations over
  the single-event columns and the padded tied-batch table of the history,
  so a trace of T event times costs O(T^2) vectorized work in O(T/64)
  Python steps.

* **Bayes predictive**: ``r_i`` is the posterior predictive under a prior on
  ``theta``, discretized on a fixed log-spaced quadrature grid.  The log
  posterior before each event time is the log prior plus a cumulative sum
  over the ``(event times, nodes)`` kernel table, so the product of
  predictive increments telescopes exactly to the (discretized) Bayes
  factor, which the tests exploit.

Inverting a family of such e-processes over a grid of null hazard ratios
gives an anytime-valid confidence sequence for the hazard ratio.  Every
likelihood here is ``core.log_kernel``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import (
    THETA_LOWER,
    THETA_UPPER,
    EventStream,
    _support_table,
    log_kernel,
    validate_theta,
)

__all__ = [
    "PriorSpec",
    "ConfidenceSequence",
    "plugin_newton",
    "plugin_estimates",
    "plugin_log_trace",
    "bayes_log_trace",
    "confidence_sequence",
    "default_theta_grid",
]

_LOG_THETA_LO = math.log(THETA_LOWER)
_LOG_THETA_HI = math.log(THETA_UPPER)


# ---------------------------------------------------------------------------
# plug-in (prequential maximum likelihood)
# ---------------------------------------------------------------------------

def plugin_newton(
    beta: np.ndarray,
    o1_sum,
    c: np.ndarray,
    ties: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Roots ``beta = log(theta_hat)`` of the smoothed plug-in scores, one
    per row, by safeguarded Newton from the warm start ``beta``.

    Row ``r`` scores

        U(beta) = o1_sum[r] - sum_j sigmoid(beta + c[r, j])
                  + sum_k (o1[r, k] - E_beta[u[r, k]])

    ``c`` holds ``log(y1/y0)`` of each single event, the two virtual events
    included, and ``-inf`` in unused slots (they add nothing); ``o1_sum``
    counts their treatment events.  ``ties = (o1, u, log_w)`` holds the
    informative tied batches, broadcast to ``(R, K)`` observed counts and
    ``(R, K, S)`` tables of support values and log-binomial weights, padded
    with ``log_w = -inf``; ``E_beta[u]`` is the mean of the batch's
    noncentral hypergeometric law.  An unused batch slot is ``o1 = 0`` with
    the single support point ``u = 0``, ``log_w = 0``.

    U is strictly decreasing (the smoothed likelihood is strictly concave),
    so each iteration narrows the bracket its sign gives, starting from
    ``[log 1e-8, log 1e8]``; a Newton step that leaves the bracket is
    replaced by bisection, and a root beyond the admissible range ends at
    its edge.  A row stops, and is left unchanged from then on, when its
    last Newton step is at most 1e-7 (the error left after it is of order
    1e-14) or its bracket is narrower than 1e-12, so every row's result
    depends on its own inputs only.
    """
    b = np.array(beta, dtype=float)
    lo = np.full(b.shape, _LOG_THETA_LO)
    hi = np.full(b.shape, _LOG_THETA_HI)
    active = np.ones(b.shape, dtype=bool)
    half_c, width = 0.5 * c, c.shape[1]
    for _ in range(100):
        # sigmoid(x) = (1 + tanh(x/2)) / 2, its derivative (1 - tanh(x/2)**2) / 4
        t = half_c + 0.5 * b[:, None]
        np.tanh(t, out=t)
        score = o1_sum - 0.5 * (width + t.sum(axis=1))
        t *= t
        info = 0.25 * (width - t.sum(axis=1))
        if ties is not None:
            t_o1, t_u, t_lw = ties
            w = t_lw + t_u * b[:, None, None]
            w -= w.max(axis=-1, keepdims=True)
            np.exp(w, out=w)
            w /= w.sum(axis=-1, keepdims=True)
            mean = (w * t_u).sum(axis=-1)
            score += (t_o1 - mean).sum(axis=-1)
            info += ((w * t_u * t_u).sum(axis=-1) - mean * mean).sum(axis=-1)
        lo = np.where(score > 0, b, lo)
        hi = np.where(score < 0, b, hi)
        new = b + score / info
        newton = (new > lo) & (new < hi)
        new = np.where(newton, new, 0.5 * (lo + hi))
        done = (np.abs(new - b) <= 1e-7) & newton | (hi - lo <= 1e-12)
        b = np.where(active, new, b)
        active &= ~done
        if not active.any():
            break
    return b


# Estimates solved together, one row per prefix of the stream.  The block
# and its single-event width depend on the row index only, so a prefix of a
# stream of single events gets bit-identical estimates.
_BLOCK = 64


def _plugin_betas(stream: EventStream, m1: int | None, m0: int | None) -> np.ndarray:
    """``log(theta_hat)`` fitted on the first ``i`` event times, i = 0..n;
    ``m1``/``m0`` default to the risk set of the first batch.

    The history is laid out once: the single events (the two virtual ones
    first, then the stream's informative ones) as one column of offsets
    ``log(y1/y0)`` with running treatment counts, and the informative tied
    batches as one padded table.  The fit on the first i event times reads
    their prefixes.  ``plugin_newton`` solves ``_BLOCK`` consecutive
    prefixes at a time as its rows, warm-started from the last estimate of
    the block before.  Forced batches carry no likelihood information and
    leave the estimate unchanged.
    """
    y1, y0, o, o1 = stream.y1, stream.y0, stream.o, stream.o1
    m1 = int(y1[0]) if m1 is None else m1
    m0 = int(y0[0]) if m0 is None else m0
    if m1 < 1 or m0 < 1:
        raise ValueError(f"initial group sizes must be >= 1, got m1={m1}, m0={m0}")
    n = o.size
    informative = np.maximum(0, o - y0) != np.minimum(o, y1)
    single = informative & (o == 1)
    tied = np.flatnonzero(informative & (o > 1))
    n_single = np.concatenate([[0], np.cumsum(single)])
    n_tied = np.concatenate([[0], np.cumsum(informative & (o > 1))])

    # virtual treatment event at (m1+1, m0), virtual control event at (m1, m0+1)
    c = np.full(n + _BLOCK + 2, -np.inf)
    c[:2] = math.log((m1 + 1) / m0), math.log(m1 / (m0 + 1))
    c[2 : 2 + n_single[-1]] = np.log(y1[single]) - np.log(y0[single])
    o1_sum = 1.0 + np.concatenate([[0.0], np.cumsum(o1[single], dtype=float)])

    t_u, t_lw = _support_table(y1[tied], y0[tied], o[tied])
    t_u = t_u.astype(float)
    size = t_u.shape[1]
    t_o1 = o1[tied].astype(float)
    unused = np.where(np.arange(size) == 0, 0.0, -np.inf)
    block = _BLOCK if not tied.size else max(1, min(_BLOCK, 2**17 // (tied.size * size)))

    betas = np.empty(n + 1)
    warm = 0.0
    for start in range(0, n + 1, block):
        rows = np.arange(start, min(start + block, n + 1))
        width = start + block + 2
        held = np.arange(width) < n_single[rows][:, None] + 2
        c_rows = np.where(held, c[:width], -np.inf)
        ties = None
        k = int(n_tied[rows[-1]])
        if k:
            held = np.arange(k) < n_tied[rows][:, None]
            ties = (
                np.where(held, t_o1[:k], 0.0),
                np.where(held[..., None], t_u[:k], 0.0),
                np.where(held[..., None], t_lw[:k], unused),
            )
        betas[rows] = plugin_newton(
            np.full(rows.size, warm), o1_sum[n_single[rows]], c_rows, ties
        )
        warm = betas[rows[-1]]
    return betas


def plugin_estimates(
    stream: EventStream, m1: int | None = None, m0: int | None = None
) -> np.ndarray:
    """Plug-in estimates ``theta_hat`` after 0, 1, ..., n event times.

    ``theta_hat`` maximizes the smoothed conditional log-likelihood

        sum_k log q_theta(o1_k | batch_k)
        + log q_theta(1 | m1+1, m0) + log q_theta(0 | m1, m0+1)

    where ``(m1, m0)`` is the *initial* risk set (the virtual points stay
    anchored there no matter how far the trial has progressed), which
    defaults to the first batch's.  Entry 0 comes from the virtual points
    alone (exactly 1 for a balanced initial risk set).
    """
    return np.exp(_plugin_betas(stream, m1, m0))


def plugin_log_trace(
    stream: EventStream,
    m1: int | None = None,
    m0: int | None = None,
    theta0: float = 1.0,
    return_numerator: bool = False,
):
    """Cumulative plug-in log e-value after each event time.

    ``m1``/``m0`` default to the risk set of the first batch.  Event time i
    is scored by ``log_kernel`` at the estimate fitted on event times
    before i.  With ``return_numerator`` the per-event log predictive
    probabilities log q_thetahat_i(o1_i | batch_i) come back too (they do
    not depend on ``theta0``, which confidence sequences exploit).
    """
    theta0 = validate_theta(theta0, "theta0")
    if not stream.o.size:
        empty = np.zeros(0)
        return (empty, empty) if return_numerator else empty
    log_num = log_kernel(stream, _plugin_betas(stream, m1, m0)[:-1])
    trace = np.cumsum(log_num - log_kernel(stream, math.log(theta0)))
    return (trace, log_num) if return_numerator else trace


# ---------------------------------------------------------------------------
# Bayes predictive
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PriorSpec:
    """A prior on the hazard ratio, discretized on a fixed quadrature grid.

    ``thetas`` are the ordered positive support points and ``weights`` their
    prior masses (nonnegative, summing to one).  All posterior updating is
    deterministic reweighting in log space — no sampling anywhere — so the
    predictive-increment product telescopes to the grid Bayes factor exactly,
    up to float rounding.
    """

    thetas: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        thetas = np.asarray(self.thetas, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if thetas.ndim != 1 or thetas.size == 0 or weights.shape != thetas.shape:
            raise ValueError("thetas and weights must be matching 1-d arrays")
        if np.any(np.diff(thetas) <= 0):
            raise ValueError("thetas must be strictly increasing")
        for t in (thetas[0], thetas[-1]):
            validate_theta(float(t), "prior support point")
        if np.any(weights < 0) or not np.isfinite(weights).all():
            raise ValueError("weights must be finite and nonnegative")
        total = weights.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 (within 1e-12), got {total!r}")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "weights", weights / total)

    @classmethod
    def lognormal(
        cls, mean_log: float, sd_log: float = 0.5, n: int = 201, width: float = 6.0
    ) -> "PriorSpec":
        """Normal prior on log(theta), truncated at ``width`` standard
        deviations and discretized on ``n`` equally log-spaced nodes."""
        if sd_log <= 0 or n < 2:
            raise ValueError("sd_log must be > 0 and n >= 2")
        x = np.linspace(mean_log - width * sd_log, mean_log + width * sd_log, n)
        w = np.exp(-0.5 * ((x - mean_log) / sd_log) ** 2)
        return cls(thetas=np.exp(x), weights=w / w.sum())

    @classmethod
    def point_mass(cls, theta: float) -> "PriorSpec":
        return cls(thetas=np.array([float(theta)]), weights=np.array([1.0]))

    @classmethod
    def from_grid(cls, thetas, weights) -> "PriorSpec":
        w = np.asarray(weights, dtype=float)
        return cls(thetas=np.asarray(thetas, dtype=float), weights=w)


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Log-sum-exp of each row of a 2-d array, overwriting ``a``."""
    m = a.max(axis=1)
    a -= m[:, None]
    np.exp(a, out=a)
    return m + np.log(a.sum(axis=1))


def bayes_log_trace(
    stream: EventStream,
    prior: PriorSpec,
    theta0: float = 1.0,
    return_numerator: bool = False,
):
    """Cumulative Bayes-predictive log e-value after each event time.

    With ``K[i, g] = log q_{theta_g}(o1_i | batch_i)`` from ``log_kernel``,
    the unnormalized log posterior before event time i is
    ``log prior + sum_{k<i} K[k]`` and the log predictive is
    ``logsumexp(posterior + K[i]) - logsumexp(posterior)``.
    """
    theta0 = validate_theta(theta0, "theta0")
    if not stream.o.size:
        empty = np.zeros(0)
        return (empty, empty) if return_numerator else empty
    table = log_kernel(stream, np.log(prior.thetas)[None, :])
    log_post = np.empty_like(table)
    with np.errstate(divide="ignore"):
        log_post[0] = np.log(prior.weights)
    log_post[1:] = table[:-1]
    np.cumsum(log_post, axis=0, out=log_post)
    table += log_post
    log_num = _logsumexp_rows(table) - _logsumexp_rows(log_post)
    if not np.isfinite(log_num).all():
        raise ValueError(
            "posterior predictive underflowed to zero; the prior grid puts "
            "no usable mass near the data"
        )
    trace = np.cumsum(log_num - log_kernel(stream, math.log(theta0)))
    return (trace, log_num) if return_numerator else trace


# ---------------------------------------------------------------------------
# confidence sequences
# ---------------------------------------------------------------------------

def default_theta_grid(n: int = 400, lo: float = 1e-3, hi: float = 1e3) -> np.ndarray:
    """Log-spaced hazard-ratio grid used to invert the e-process family."""
    if n < 2 or not (THETA_LOWER <= lo < hi <= THETA_UPPER):
        raise ValueError(f"bad grid request (n={n}, lo={lo}, hi={hi})")
    return np.exp(np.linspace(math.log(lo), math.log(hi), n))


@dataclass(frozen=True)
class ConfidenceSequence:
    """Anytime-valid confidence intervals for the hazard ratio, per event time.

    ``lower``/``upper`` hold, for each event time, the hull of grid points
    *not* rejected at level alpha: the smallest interval such that every grid
    point outside it has e-value >= 1/alpha.  ``lower_bracketed`` (resp.
    upper) records whether the grid's own endpoint was rejected — when False
    the true bound lies outside the searched range and the reported endpoint
    is just the grid edge, which callers must not mistake for an inference.
    With ``intersected`` the running intersection over event times was taken,
    making the sequence monotone (nested) at the cost of non-recoverable
    narrowing.
    """

    grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    lower_bracketed: np.ndarray
    upper_bracketed: np.ndarray
    alpha: float
    numerator: str
    intersected: bool

    @property
    def final_lower(self) -> float:
        return float(self.lower[-1]) if self.lower.size else float(self.grid[0])

    @property
    def final_upper(self) -> float:
        return float(self.upper[-1]) if self.upper.size else float(self.grid[-1])

    def contains(self, theta: float) -> np.ndarray:
        """Per-event-time indicator that ``theta`` lies in the interval."""
        return (self.lower <= theta) & (theta <= self.upper)


def confidence_sequence(
    stream: EventStream,
    alpha: float = 0.05,
    numerator: Literal["plugin", "bayes"] = "plugin",
    grid: np.ndarray | None = None,
    prior: PriorSpec | None = None,
    m1: int | None = None,
    m0: int | None = None,
    running_intersection: bool = False,
) -> ConfidenceSequence:
    """Invert a learned-numerator e-process family into a confidence sequence.

    For every grid value ``theta'`` the e-process M_{theta'} shares the same
    numerator (the plug-in or Bayes predictive trace) and differs only in the
    denominator likelihood, so one pass computes the whole family.  The
    interval at event time i is the hull of non-rejected grid points; by
    Ville's inequality the true hazard ratio leaves the (unintersected)
    sequence at any time with probability at most alpha — provided it lies on
    the grid; off-grid values inherit the guarantee of their nearest bracketing
    grid points.  Running intersection is off by default: the plain sequence is
    what the coverage guarantee speaks about, intersection is a reporting
    convenience.

    The family is one ``(event times, grid)`` array: the ``log_kernel``
    denominators, summed over event times and subtracted from the summed
    numerator in place.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if grid is None:
        grid = default_theta_grid()
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be a strictly increasing 1-d array")

    if numerator == "plugin":
        _, log_num = plugin_log_trace(stream, m1=m1, m0=m0, return_numerator=True)
    elif numerator == "bayes":
        if prior is None:
            prior = PriorSpec.lognormal(mean_log=0.0)
        _, log_num = bayes_log_trace(stream, prior, return_numerator=True)
    else:
        raise ValueError(f"unknown numerator strategy {numerator!r}")

    log_mart = log_kernel(stream, np.log(grid)[None, :])
    np.cumsum(log_mart, axis=0, out=log_mart)
    np.subtract(np.cumsum(log_num)[:, None], log_mart, out=log_mart)
    keep = log_mart < math.log(1.0 / alpha)
    del log_mart

    # hull of the kept grid points; NaN when the grid is too coarse and
    # every candidate is rejected
    first = keep.argmax(axis=1)
    last = grid.size - 1 - keep[:, ::-1].argmax(axis=1)
    some = keep[np.arange(keep.shape[0]), first]
    lower = np.where(some, grid[first], math.nan)
    upper = np.where(some, grid[last], math.nan)
    lower_bracketed = ~keep[:, 0]
    upper_bracketed = ~keep[:, -1]

    if running_intersection and keep.shape[0]:
        lower = np.maximum.accumulate(lower)
        upper = np.minimum.accumulate(upper)
        lower_bracketed = np.maximum.accumulate(lower_bracketed)
        upper_bracketed = np.maximum.accumulate(upper_bracketed)

    return ConfidenceSequence(
        grid=grid,
        lower=lower,
        upper=upper,
        lower_bracketed=lower_bracketed,
        upper_bracketed=upper_bracketed,
        alpha=alpha,
        numerator=numerator,
        intersected=bool(running_intersection),
    )
