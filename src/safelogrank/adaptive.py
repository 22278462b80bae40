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
  The score is a sum of means, one per informative batch, and enters the
  solver as Taylor series about a centre per row (``_SeriesTerm``; order
  14, used within 0.25 of the centre).  A single event contributes the
  power moments of its sigmoid, which a fixed table turns into the series
  (radius pi); a tied batch contributes the cumulants of its Fisher
  noncentral hypergeometric law, taken from the central moments of its
  support table, used within ``2.2 / sd`` of the centre when its tilted sd
  is large.  ``_plugin_betas`` fits many rows of streams at once and
  carries each row's fit from one call to the next: it solves blocks of up
  to 64 prefixes of every row as the rows of one call, on the series of
  the history before them plus prefix sums of one series per new batch.  A
  trace is one call on one row; the simulation engine calls it on the open
  replications of each growing prefix, a span of events at a time.  A
  solve reads a row's stored history only when its iterate leaves the
  radius, and then re-centres there, so a stream costs work close to
  linear in its length.

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
from typing import Callable, Literal

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
    term: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Roots ``beta = log(theta_hat)`` of the smoothed plug-in scores, one
    per row, by safeguarded Newton from the warm start ``beta``.

    Row ``r`` scores

        U(beta) = o1_sum[r] - sum_k E_beta[u_k]

    over its informative batches k, the two virtual events included:
    ``o1_sum`` counts their treatment events, and ``E_beta[u_k]`` is the
    mean of batch k's treatment count at hazard ratio ``exp(beta)``, the
    sigmoid of ``beta + log(y1/y0)`` for a single event and a Fisher
    noncentral hypergeometric mean for a tied batch.  ``term(beta,
    active)`` returns every row's sum of those means and the sum of their
    variances, which is ``-U'(beta)``; ``_SeriesTerm`` reads both from
    Taylor series about a centre per row.

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
    for _ in range(100):
        total, info = term(b, active)
        score = o1_sum - total
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


# The score is a sum of means, expanded as a Taylor series about a centre.
# Every derivative of the sigmoid is a polynomial in the sigmoid itself,
# P_0(s) = s and P_{k+1}(s) = P_k'(s) s (1 - s).  The series has radius pi
# (the sigmoid has poles at +-i pi), so _ORDER + 1 terms within _RADIUS of
# the centre leave a relative error near 1e-17.
_ORDER = 14
_RADIUS = 0.25

# Cells per chunk of the moments of a history read when re-centring: the
# power moments of single events, the central moments of tied batches.
_CELLS = 1 << 18


def _taylor_table(order: int) -> np.ndarray:
    """The map from power moments to Taylor coefficients.  An event's power
    moments are ``[s, t, t*s, ..., t*s^order]`` with ``s`` its sigmoid and
    ``t = s (1 - s)``; row k of the table, dotted with them, is
    ``P_k(s) / k!`` for k = 0..order+1.  ``P_k = t R_k`` for k >= 1, where
    ``R_1 = 1`` and ``R_{k+1} = (1 - 2s) R_k + s (1 - s) R_k'``, so row k
    holds the coefficients of ``R_k`` (ascending) over k!.  Factoring out
    ``t`` keeps the tails accurate, where ``s`` is near 0 or 1."""
    table = np.zeros((order + 2, order + 2))
    table[0, 0] = 1.0
    r = [1]
    for k in range(1, order + 2):
        table[k, 1 : 1 + len(r)] = np.array(r, dtype=float) / math.factorial(k)
        nxt = [0] * (len(r) + 1)
        for d, v in enumerate(r):
            nxt[d] += (1 + d) * v
            nxt[d + 1] -= (2 + d) * v
        r = nxt
    return table


# the coefficients of h**k, k = 0.._ORDER, in the series of the sigmoid sum
# (columns 0.._ORDER) and of its derivative (the next _ORDER + 1), as one
# map from power moments: a (_ORDER + 2, 2 (_ORDER + 1)) matrix
_TAYLOR = _taylor_table(_ORDER)
_SERIES = np.ascontiguousarray(
    np.concatenate([_TAYLOR[:-1], _TAYLOR[1:] * np.arange(1.0, _ORDER + 2)[:, None]]).T
)


def _sigmoids(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``s = sigmoid(x)`` and ``t = s (1 - s)``, with ``1 - s`` computed as
    ``sigmoid(-x)``, so ``t`` keeps its relative accuracy in the tails."""
    s = 1.0 / (1.0 + np.exp(-x))
    return s, s / (1.0 + np.exp(x))


def _moments_about(c: np.ndarray, at: np.ndarray, rows=None, ends=None) -> np.ndarray:
    """Summed power moments ``[s, t, t*s, ..., t*s^_ORDER]`` of each row of
    offsets ``c`` (``-inf`` where empty, which adds nothing) about the
    centres ``at``, one row per centre: ``s`` is the sigmoid of
    ``at + c`` and ``t = s (1 - s)``.  With ``rows`` and ``ends``, centre
    r reads the first ``ends[r]`` offsets of row ``rows[r]``.  A row's bits
    depend on its offsets and the width of ``c`` only."""
    out = np.empty((at.size, _ORDER + 2))
    step = max(1, _CELLS // ((_ORDER + 2) * max(1, c.shape[-1])))
    for lo in range(0, at.size, step):
        part = slice(lo, lo + step)
        x = c[part] if ends is None else np.where(
            np.arange(c.shape[1]) < ends[part, None], c[rows[part]] if c.shape[0] > 1 else c, -np.inf)
        s, t = _sigmoids(x + at[part, None])
        # moment-major, one whole-array product per power: several times
        # faster than np.cumprod across the moments, and the same products
        p = np.empty((_ORDER + 2,) + s.shape)
        p[0], p[1] = s, t
        for k in range(2, _ORDER + 2):
            np.multiply(p[k - 1], s, out=p[k])
        out[part] = (p.sum(axis=2) if p.shape[2] > 1 else p[:, :, 0]).T  # one offset a row: its own sum
    return out


def _series(moments: np.ndarray) -> np.ndarray:
    """Coefficients ``(R, 2, _ORDER + 1)`` of the sigmoid sum's series and
    of its derivative's, from rows of power moments, by one matrix product.
    A row gets the same bits whatever the rows beside it: BLAS takes a
    single row down its matrix-vector path, which sums in another order, so
    one row is multiplied as two."""
    rows = moments if moments.shape[0] != 1 else np.repeat(moments, 2, axis=0)
    return (rows @ _SERIES)[: moments.shape[0]].reshape(-1, 2, _ORDER + 1)


# A tied batch's series comes from its cumulants, which the moment-to-
# cumulant recursion below takes from central moments.  The recursion
# cancels more as the batch's tilted sd grows, so a row holding tied
# batches uses its series within min(_RADIUS, _TIED_REACH / sd) of the
# centre, sd the largest among them: that keeps the error near 1e-12 up to
# sd 25, where the full radius would leave 4e-9 at sd 15.
_TIED_REACH = 2.2
_CUMULANT_BINOMIALS = np.array(
    [[math.comb(n - 1, j - 1) if 0 < j <= n else 0 for j in range(_ORDER + 3)] for n in range(_ORDER + 3)],
    dtype=float,
)
_FACTORIALS = np.array([math.factorial(j) for j in range(_ORDER + 1)], dtype=float)


def _radius(sd: np.ndarray) -> np.ndarray:
    """Where a series about a centre serves, from the largest tilted sd of
    the tied batches it sums (0 for single events only)."""
    return np.minimum(_RADIUS, _TIED_REACH / np.maximum(sd, 1.0))


def _tied_series(u: np.ndarray, log_w: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients ``(k, 2, _ORDER + 1)`` of the Taylor series of k tied
    batches' means (row 0) and variances (row 1) about the centres ``at``,
    and the batches' standard deviations there, from their support tables
    (``core._support_table``).

    Tilted to ``at``, a batch's treatment count u has the law proportional
    to ``w(u) exp(at u)``, with cumulants ``kappa_n``; at ``at + h`` its
    mean is ``sum_j kappa_{j+1} h^j / j!`` and its variance
    ``sum_j kappa_{j+2} h^j / j!``.  The cumulants come from the central
    moments ``m_n`` by ``kappa_n = m_n - sum_{j=2}^{n-2} C(n-1, j-1)
    kappa_j m_{n-j}``, since ``m_1 = 0``."""
    kappa = np.empty((_ORDER + 3, at.size))
    step = max(1, _CELLS // ((_ORDER + 3) * u.shape[1]))
    for lo in range(0, at.size, step):
        part = slice(lo, lo + step)
        p = log_w[part] + at[part, None] * u[part]
        p -= p.max(axis=1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=1, keepdims=True)
        kappa[1, part] = (p * u[part]).sum(axis=1)
        d = u[part] - kappa[1, part, None]
        p *= d
        for n in range(2, _ORDER + 3):
            p *= d
            kappa[n, part] = p.sum(axis=1)
    m = kappa.copy()  # central moments from order 2
    for n in range(4, _ORDER + 3):
        kappa[n] -= np.einsum(
            "j,jk,jk->k", _CUMULANT_BINOMIALS[n, 2 : n - 1], kappa[2 : n - 1], m[n - 2 : 1 : -1]
        )
    coef = np.stack([kappa[1 : _ORDER + 2], kappa[2:]], axis=-1) / _FACTORIALS[:, None, None]
    return coef.transpose(1, 2, 0), np.sqrt(kappa[2])


def _tied_sums(u: np.ndarray, log_w: np.ndarray, starts: np.ndarray, counts: np.ndarray, at: np.ndarray):
    """Row r's summed series (``_tied_series``) of the ``counts[r]``
    batches of a support table from row ``starts[r]`` on, about ``at[r]``,
    and the largest sd among them (0 where the row holds none).  Whole rows
    are read together, about ``_CELLS`` support cells at a time."""
    out = np.zeros((at.size, 2, _ORDER + 1))
    sd = np.zeros(at.size)
    rows = np.flatnonzero(counts)
    cells = np.cumsum(counts[rows]) * u.shape[1]
    lo = 0
    while lo < rows.size:
        reach = (cells[lo - 1] if lo else 0) + _CELLS
        part = rows[lo : max(lo + 1, int(np.searchsorted(cells, reach, "right")))]
        lo += part.size
        k = counts[part]
        first = np.cumsum(k) - k
        batch = np.arange(k.sum()) + np.repeat(starts[part] - first, k)
        coef, s = _tied_series(u[batch], log_w[batch], np.repeat(at[part], k))
        out[part] = np.add.reduceat(coef, first, axis=0)
        sd[part] = np.maximum.reduceat(s, first)
    return out, sd


class _SeriesTerm:
    """The term of ``plugin_newton`` from Taylor series about a centre per
    row.

    Row ``r`` of ``series`` holds the coefficients of ``h**k``,
    k = 0.._ORDER, in the sum of its batches' means (``[r, 0]``) and
    variances (``[r, 1]``) at ``centre[r] + h``, which serve within
    ``radius[r]`` of the centre.  When an active row's iterate moves
    further, ``history(rows, at)`` returns those rows' series about ``at``
    and their radii there, read from their stored events, and the rows
    re-centre: ``series``, ``centre`` and ``radius`` are updated in place.
    """

    def __init__(self, series, centre, radius, history):
        self.series, self.centre, self.radius = series, centre, radius
        self.history = history
        self.powers = np.ones((centre.size, _ORDER + 1))

    def __call__(self, b, active):
        h = b - self.centre
        far = np.abs(h) > self.radius
        if far.any() and (far := np.flatnonzero(far & active)).size:
            self.series[far], self.radius[far] = self.history(far, b[far])
            self.centre[far] = b[far]
            h[far] = 0.0
        p = self.powers
        p[:, 1:] = h[:, None]
        if h.size > _BLOCK:  # many rows: whole-column products beat cumprod along short rows
            for k in range(2, _ORDER + 1):
                np.multiply(p[:, k - 1], h, out=p[:, k])
        else:
            np.cumprod(p, axis=1, out=p)
        return np.einsum("rjk,rk->jr", self.series, p)


# Estimates solved together, one row per prefix of a stream.  The block and
# its single-event width depend on the prefix's position only, so a row gets
# bit-identical estimates whatever the rows solved with it, and a prefix of
# a stream of single events those of the whole stream.
_BLOCK = 64


class _PluginFit:
    """What ``_plugin_betas`` carries for each row from call to call: the
    estimate, treatment count, centre, radius and series (``state``), the
    batches taken, virtual and empty ones included, and the history: the
    offsets ``log(y1/y0)`` of its informative single events in order
    (``held`` of them) and the ``(y1, y0, o)`` of its informative tied
    batches in order (``held_tied`` of them)."""

    def __init__(self, rows: int, m1: int, m0: int, batches: int):
        if m1 < 1 or m0 < 1:
            raise ValueError(f"initial group sizes must be >= 1, got m1={m1}, m0={m0}")
        self.m1, self.m0 = m1, m0
        self.state = np.zeros((rows, 4 + 2 * (_ORDER + 1)))
        self.state[:, 3] = _RADIUS
        self.taken, self.held, self.held_tied = np.zeros((3, rows), dtype=np.int64)
        self.offsets = np.full((rows, batches + 2 + _BLOCK), -np.inf)
        self.tied = np.zeros((3, rows, 0), dtype=np.int64)  # grown as rows take tied batches


def _plugin_betas(fit: _PluginFit, rows: np.ndarray, y1, y0, o, o1) -> np.ndarray:
    """``log(theta_hat)`` of rows ``rows`` of ``fit``, fitted on their
    history and the first j of the new batches ``y1, y0, o, o1`` (``(rows,
    k)`` columns), j = 0..k, as ``(rows, k + 1)``.  The rows may have taken
    different numbers of batches, and a row's new batches may end in empty
    ones (``o = 0``), which change nothing.  A new fit takes the two virtual
    events first, as batches of their own, while the other rows of its call
    take two empty batches.

    Blocks of at most ``_BLOCK`` prefixes of every row, from where the rows
    stand, are solved together by ``plugin_newton``, warm-started from each
    row's last estimate, on Taylor series about the row's centre
    (``_SeriesTerm``): the series of the fit before the block plus prefix
    sums of one series per new batch, power moments for a single event and
    cumulants for a tied batch.  A prefix whose iterate leaves the radius
    re-centres on its own history, read as a row as wide as the block's
    start plus ``_BLOCK``, and on one support table of the rows' tied
    batches.  The next block starts from the series each row's last prefix
    ended with, read again about the warm start only when that centre is
    more than half the radius from it.  Forced batches leave the fit
    unchanged.
    """
    taken = fit.taken[rows]
    lead = 0 if taken.all() else 2
    if lead:  # a virtual treatment event at (m1+1, m0), a virtual control event at (m1, m0+1)
        columns = np.zeros((4, rows.size, 2 + o.shape[1]), dtype=np.int64)
        columns[:2, :, :2] = 1  # empty batches, at risk sets (1, 1), for the rows that have taken some
        columns[:, taken == 0, :2] = [[[fit.m1 + 1, fit.m1]], [[fit.m0, fit.m0 + 1]], [[1, 1]], [[1, 0]]]
        columns[:, :, 2:] = y1, y0, o, o1
        y1, y0, o, o1 = columns
    n = o.shape[1]
    informative = np.maximum(0, o - y0) != np.minimum(o, y1)
    single = informative & (o == 1)
    tied = informative & (o > 1)
    gap = np.log(np.maximum(y1, 1)) - np.log(np.maximum(y0, 1))  # log(y1/y0) where single
    # running counts over the first j new batches, j = 0..n: single events
    # (the offsets held), tied batches and treatment events
    counts = np.zeros((3, rows.size, n + 1), dtype=np.int64)
    counts[:, :, 1:] = single, tied, np.where(informative, o1, 0)
    np.cumsum(counts, axis=2, out=counts)
    state = fit.state[rows]
    beta, o1_sum, centre, base_radius = state[:, :4].T
    base = state[:, 4:].reshape(-1, 2, _ORDER + 1)
    ends, n_tied = fit.held[rows, None] + counts[0], fit.held_tied[rows, None] + counts[1]
    o1_sum = o1_sum[:, None] + counts[2]
    r, j = np.nonzero(single)
    fit.offsets[rows[r], ends[r, j]] = gap[single]
    held = n_tied[:, -1]
    if tied.any():
        if held.max() > fit.tied.shape[2]:  # at least twice the room
            fit.tied = np.pad(fit.tied, ((0, 0), (0, 0), (0, held.max())))
        r, j = np.nonzero(tied)
        fit.tied[:, rows[r], n_tied[r, j]] = y1[tied], y0[tied], o[tied]
    if held.any():  # one support table of the rows' tied batches, row r's from starts[r] on
        starts = np.cumsum(held) - held
        r = np.repeat(np.arange(rows.size), held)
        batches = fit.tied[:, rows[r], np.arange(r.size) - starts[r]]
        t_u, t_lw = (table.astype(float) for table in _support_table(*batches))

    def history(r, i, at, width):
        """Series about ``at``, and radii, of the fits of rows ``r`` on their
        first ``i`` new batches; single events read ``width`` wide."""
        series = _series(_moments_about(fit.offsets[:, :width], at, rows[r], ends[r, i]))
        if not held.any():
            return series, np.full(at.size, _RADIUS)
        tied_series, sd = _tied_sums(t_u, t_lw, starts[r], n_tied[r, i], at)
        return series + tied_series, _radius(sd)

    betas = np.empty((rows.size, n + 1))
    betas[:, 0] = beta
    for lo in range(0, n, _BLOCK):
        # the fits on the new batches lo..hi: one series per batch, summed
        # onto the fit before; a prefix's radius is its batches' least; no
        # row's history reaches past start + _BLOCK
        hi, start = min(lo + _BLOCK, n), int(taken.max()) + lo
        step = np.zeros((rows.size, 1 + hi - lo, 2, _ORDER + 1))
        radius = np.full(step.shape[:2], _RADIUS)
        step[:, 0], radius[:, 0] = base, base_radius
        s, t = single[:, lo:hi], tied[:, lo:hi]
        step[:, 1:][s] = _series(_moments_about(gap[:, lo:hi][s][:, None], centre.repeat(s.sum(axis=1))))
        if t.any():
            r, j = np.nonzero(t)
            k = starts[r] + n_tied[r, lo + j]
            step[:, 1:][t], sd = _tied_series(t_u[k], t_lw[k], centre[r])
            radius[:, 1:][t] = _radius(sd)
        np.cumsum(step, axis=1, out=step)
        np.minimum.accumulate(radius, axis=1, out=radius)

        first = max(1, lead - lo)  # a fit holds both virtual events
        count = hi - lo + 1 - first
        term = _SeriesTerm(
            step[:, first:].reshape(-1, 2, _ORDER + 1), centre.repeat(count), radius[:, first:].ravel(),
            lambda f, at: history(f // count, lo + first + f % count, at, start + _BLOCK),
        )
        b = plugin_newton(beta.repeat(count), o1_sum[:, lo + first : hi + 1].ravel(), term)
        betas[:, lo + first : hi + 1] = b.reshape(rows.size, count)
        last = slice(count - 1, None, count)  # each row's last prefix
        beta[:], base[:] = b[last], term.series[last]
        centre[:], base_radius[:] = term.centre[last], term.radius[last]
        far = np.abs(beta - centre) > 0.5 * base_radius
        if far.any():
            far = np.flatnonzero(far)
            centre[far] = beta[far]
            base[far], base_radius[far] = history(far, np.full(far.size, hi), centre[far], start + _BLOCK)
    state[:, 1] = o1_sum[:, -1]
    fit.state[rows], fit.held[rows], fit.held_tied[rows] = state, ends[:, -1], held
    fit.taken[rows] += n
    return betas[:, lead:]


def _stream_betas(stream: EventStream, m1: int | None, m0: int | None) -> np.ndarray:
    """``log(theta_hat)`` on the first i event times, i = 0..n, by one call on a one-row fit."""
    m1, m0 = int(stream.y1[0]) if m1 is None else m1, int(stream.y0[0]) if m0 is None else m0
    columns = (c[None] for c in (stream.y1, stream.y0, stream.o, stream.o1))
    return _plugin_betas(_PluginFit(1, m1, m0, stream.o.size), np.zeros(1, dtype=np.int64), *columns)[0]


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
    return np.exp(_stream_betas(stream, m1, m0))


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
    log_num = log_kernel(stream, _stream_betas(stream, m1, m0)[:-1])
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


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Log-sum-exp of each row of a 2-d array, overwriting ``a``."""
    m = a.max(axis=1)
    a -= m[:, None]
    np.exp(a, out=a)
    return m + np.log(a.sum(axis=1))


def _bayes_prior(prior: PriorSpec) -> tuple[np.ndarray, np.ndarray]:
    """The log prior, which is the log posterior before any event, as one
    row ``(1, G)``, and its log-sum-exp ``(1,)``."""
    with np.errstate(divide="ignore"):
        log_prior = np.log(prior.weights)[None, :]
    return log_prior, _logsumexp_rows(log_prior.copy())


def _bayes_log_numerators(
    block: EventStream, log_grid: np.ndarray, log_post: np.ndarray, norm: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log predictive of each event time of the streams ``block`` (``(rows,
    L)`` columns) on the nodes ``log_grid`` (``(1, G)``), going on from each
    row's unnormalized log posterior ``log_post`` (``(rows, G)``) and its
    log-sum-exp ``norm`` (``(rows,)``); returns them with the log posteriors
    after the block and their log-sum-exps, so a stream read in parts gets
    the bits of one pass.  An empty batch (``o = 0``) leaves the posterior
    as it is, and its log predictive is exactly 0.

    With ``K[i, g] = log q_{theta_g}(o1_i | batch_i)`` from ``log_kernel``,
    the log posterior before event time i is ``log_post + sum_{k<i} K[k]``
    and the log predictive is ``logsumexp(posterior + K[i]) -
    logsumexp(posterior)``.  The first term of event time i - 1 is the
    second of event time i (the same sums of the same operands), so one
    log-sum-exp serves both.  The table is read in chunks of
    ``_FAMILY_CELLS`` cells, each row's running posterior and log-sum-exp
    carried into a chunk's first event time, as ``confidence_sequence``
    reads its family.
    """
    size, n = block.o.shape
    log_num, log_post, norm = np.empty((size, n)), log_post.copy(), norm.copy()
    cells = max(1, _FAMILY_CELLS // log_grid.size)  # (rows, event times) cells a chunk
    height = max(1, cells // max(n, 1))
    for r in range(0, size, height):
        rows = slice(r, r + height)
        for lo in range(0, n, cells // height):
            part = (rows, slice(lo, lo + cells // height))
            shape = block.o[part].shape
            cols = (c[part].ravel() for c in (block.y1, block.y0, block.o, block.o1))
            table = log_kernel(EventStream(None, *cols), log_grid).reshape(shape + (-1,))
            posterior = np.empty_like(table)
            posterior[:, 0], posterior[:, 1:] = log_post[rows], table[:, :-1]
            np.cumsum(posterior, axis=1, out=posterior)
            log_post[rows] = posterior[:, -1] + table[:, -1]
            table += posterior
            numerator = _logsumexp_rows(table.reshape(-1, log_grid.size)).reshape(shape)
            log_num[part] = numerator
            log_num[rows, lo] -= norm[rows]
            log_num[rows, lo + 1 : lo + numerator.shape[1]] -= numerator[:, :-1]
            norm[rows] = numerator[:, -1]
    if not np.isfinite(log_num).all():
        raise ValueError(
            "posterior predictive underflowed to zero; the prior grid puts "
            "no usable mass near the data"
        )
    return log_num, log_post, norm


def bayes_log_trace(
    stream: EventStream,
    prior: PriorSpec,
    theta0: float = 1.0,
    return_numerator: bool = False,
):
    """Cumulative Bayes-predictive log e-value after each event time: the
    log predictives of ``_bayes_log_numerators`` from the log prior, less
    the ``log_kernel`` at ``theta0``, summed."""
    theta0 = validate_theta(theta0, "theta0")
    if not stream.o.size:
        empty = np.zeros(0)
        return (empty, empty) if return_numerator else empty
    row = EventStream(None, *(c[None] for c in (stream.y1, stream.y0, stream.o, stream.o1)))
    (log_num,), _, _ = _bayes_log_numerators(row, np.log(prior.thetas)[None, :], *_bayes_prior(prior))
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


# Cells of an (event times, grid or prior nodes) kernel table held at a
# time: 64k cells, 512 KB.  bayes_log_trace reads its table in chunks of
# them, and a column joining a confidence sequence's band catches up in
# blocks of them.  confidence_sequence reads its first chunk of event times
# on every grid column, _FIRST_CELLS cells, and each later chunk on a band
# of columns, _BAND_CELLS cells: those within _MARGIN of the two hull ends
# at the end of the chunk before, widened where a hull end leaves them.
_FAMILY_CELLS = 1 << 16
_FIRST_CELLS = _FAMILY_CELLS // 4
_BAND_CELLS = _FAMILY_CELLS // 16
_MARGIN = 4


class _Family:
    """The denominators of a confidence sequence's e-process family,
    ``sum_{k<=i} log q_theta(o1_k | batch_k)`` for event time ``i`` and
    grid column ``theta``, on the columns asked for.  ``run[g]`` holds
    column g's sum over its first ``upto[g]`` event times, so a column
    that leaves the band and joins it again is summed on from there."""

    def __init__(self, stream: EventStream, grid: np.ndarray):
        self.stream, self.log_grid = stream, np.log(grid)
        self.run, self.upto = np.zeros(grid.size), np.zeros(grid.size, dtype=np.int64)

    def _summed(self, cols: np.ndarray, lo: int, hi: int, start) -> np.ndarray:
        """``log_kernel`` of event times ``lo..hi-1`` on columns ``cols``,
        summed down each column from ``start``, the sum of the rows before:
        one sequential sum, however the rows are split."""
        s = self.stream
        rows = EventStream(None, s.y1[lo:hi], s.y0[lo:hi], s.o[lo:hi], s.o1[lo:hi])
        table = log_kernel(rows, self.log_grid[None, cols])
        table[0] += start
        return np.cumsum(table, axis=0, out=table)

    def rows(self, cols: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """The summed denominators of event times ``lo..hi-1`` on columns
        ``cols``, bringing any column behind ``lo`` up to it first, in
        blocks of at most ``_FAMILY_CELLS`` cells."""
        behind = cols[self.upto[cols] < lo]
        for start in np.unique(self.upto[behind]):
            c = behind[self.upto[behind] == start]
            step = max(1, _FAMILY_CELLS // c.size)
            for a in range(start, lo, step):
                self.run[c] = self._summed(c, a, min(a + step, lo), self.run[c])[-1]
            self.upto[c] = lo
        return self._summed(cols, lo, hi, self.run[cols])

    def carry(self, cols: np.ndarray, last: np.ndarray, hi: int) -> None:
        """Record ``last``, the sums of columns ``cols`` through event
        time ``hi - 1``."""
        self.run[cols], self.upto[cols] = last, hi


def _hull(cols: np.ndarray, f: np.ndarray, log_bound: float, size: int):
    """Each row's first and last kept column of the tracked columns
    ``cols`` (sorted) with log e-values ``f``, or its smallest ``f`` twice
    when it keeps none; whether it keeps any; and whether the lower and
    upper end may lie in columns not tracked.

    The non-rejected set is one run of columns, ``f`` being convex in
    ``log theta``.  So a row's first kept tracked column is its lower end
    if the tracked run holding it starts at column 0 or at a rejected
    column, and the upper end likewise; a row that keeps no tracked column
    keeps none at all if its smallest tracked ``f`` has tracked columns on
    both sides (or the grid's edge), since the samples of a convex
    function fall, then rise.
    """
    keep = f < log_bound
    some = keep.any(axis=1)
    least = f.argmin(axis=1)
    first = np.where(some, keep.argmax(axis=1), least)
    last = np.where(some, cols.size - 1 - keep[:, ::-1].argmax(axis=1), least)
    # tracked columns that start (end) a run with an untracked column below (above)
    gap = np.diff(cols) != 1
    open_below = np.concatenate([[True], gap]) & (cols > 0)
    open_above = np.concatenate([gap, [True]]) & (cols < size - 1)
    return cols[first], cols[last], some, open_below[first], open_above[last]


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
    interval at event time i is the hull of non-rejected grid points.  By
    Ville's inequality a true hazard ratio *on the grid* leaves the
    (unintersected) sequence at any time with probability at most alpha.
    The guarantee holds for grid values only: the hull rounds each end of
    the non-rejected set inward by up to one grid cell, so an off-grid
    value may be printed as excluded before its own e-process rejects it
    (ROADMAP.md, "Confidence sequences that keep their guarantee off the
    grid").  Running intersection is off by default: the plain sequence is
    what the coverage guarantee speaks about, intersection is a reporting
    convenience.

    The family's denominators, ``log_kernel`` summed down each grid
    column, are read in chunks of event times.  The first chunk holds every
    column for ``_FIRST_CELLS`` cells; each later chunk holds
    ``_BAND_CELLS`` cells of a band of columns, those within ``_MARGIN`` of
    the two hull ends at the chunk before's last event time.  The
    non-rejected set is one run of columns (the log e-value is convex in
    ``log theta``), so the band's edge columns, rejected, show that a hull
    end lies inside it; where a row's end may lie beyond the band, the band
    widens toward it, doubling, on the rows of the chunk (``_hull``).  A
    column joining the band is first summed over the event times before
    it, from where it last left the band.  The cost is O(n x band) plus
    those catch-ups, and memory does not grow with the number of event
    times.  Each column is one sequential sum, however it is split, so a
    single event's cells keep the bits of a whole-table pass.  A tied
    batch's ``log_kernel`` pads its support to the widest in its block of
    rows, which the chunks and the band's columns can change, so tied cells
    may differ from a whole-table pass in their last bits (about 1e-13 in
    the log e-value), as they do between chunkings.
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

    n, size = stream.o.size, grid.size
    cum_num = np.cumsum(log_num)
    log_bound = math.log(1.0 / alpha)
    lower_col, upper_col = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    some = np.empty(n, dtype=bool)
    family = _Family(stream, grid)
    cols, lo = np.arange(size), 0
    while lo < n:
        hi = min(n, lo + max(1, (_BAND_CELLS if lo else _FIRST_CELLS) // cols.size))
        den, reach = family.rows(cols, lo, hi), 2 * _MARGIN
        while True:
            first, last, kept, down, up = _hull(cols, cum_num[lo:hi, None] - den, log_bound, size)
            if not (down.any() or up.any()):
                break
            join = np.zeros(size, dtype=bool)
            for end in np.unique(first[down]):
                join[max(0, end - reach) : end] = True
            for end in np.unique(last[up]):
                join[end + 1 : end + 1 + reach] = True
            join[cols] = False
            new = np.flatnonzero(join)
            # a widened chunk holds no more cells than the first
            hi = min(hi, lo + max(1, _FIRST_CELLS // (cols.size + new.size)))
            merged = np.concatenate([cols, new])
            order = np.argsort(merged)
            den = np.concatenate([den[: hi - lo], family.rows(new, lo, hi)], axis=1)[:, order]
            cols, reach = merged[order], 2 * reach
        family.carry(cols, den[-1], hi)
        lower_col[lo:hi], upper_col[lo:hi], some[lo:hi] = first, last, kept
        band = np.zeros(size, dtype=bool)
        for end in (first[-1], last[-1]):
            band[max(0, end - _MARGIN) : end + _MARGIN + 1] = True
        cols, lo = np.flatnonzero(band), hi

    # NaN where the grid is too coarse and every column is rejected
    lower = np.where(some, grid[lower_col], math.nan)
    upper = np.where(some, grid[upper_col], math.nan)
    lower_bracketed = ~(some & (lower_col == 0))
    upper_bracketed = ~(some & (upper_col == size - 1))

    if running_intersection and n:
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
