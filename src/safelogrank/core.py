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

Evidence against a null ``theta0`` for an alternative ``theta1`` multiplies
the likelihood ratios of these conditional laws: the running product is a
nonnegative martingale with expectation 1 under the null, so by Ville's
inequality it ever exceeds ``1/alpha`` with probability at most ``alpha``,
however the trial is monitored, stopped or extended.

All arithmetic is in natural-log space.  ``log_kernel`` is the one
vectorized ``log q_theta(o1 | batch)`` over a columnar ``EventStream`` of
any shape (indexing a stream indexes its columns), at a scalar ``theta``,
one per cell, or a grid on a trailing axis: a softplus for single
events, exactly 0 for forced batches, and for a tied batch at each theta
a log-sum-exp over one window about the mode of its tilted law, a root of
a quadratic, grown until the geometric bound on the log-concave pmf's
tail falls below 2^-60 of the sum (``_window_blocks``), with log-binomials
from one log-factorial table.  A cell's bits depend on its batch and theta
alone.  The exact traces, the learned numerators, the confidence sequence
denominators and the simulation engine all read it, and the plug-in's
tied cumulants read the same windows.  ``_exact_steps`` is the one exact
likelihood-ratio increment, scoring the alternatives and the null in one
``log_kernel`` call; ``log_evalue_trace`` and the simulation engine's
exact test both sum it and read it by ``_exact_log_evalue``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "THETA_LOWER",
    "THETA_UPPER",
    "EventStream",
    "validate_theta",
    "log_kernel",
    "log_evalue_trace",
]

# The chunk budget: the cells, 8 bytes each, that the working arrays of one
# chunk may hold, 2^20 (8 MiB).  It is the package's one budget: every loop
# over chunks of event times, grid columns or replications reads it as
# ``core._CELLS`` when it runs and says, where it sizes a chunk, how many
# arrays of the chunk it holds, so memory stays bounded however long a
# trial runs.  No output depends on it (``tests/test_determinism.py``).
_CELLS = 1 << 20

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


_LOG_FACTORIAL = np.zeros(1)


def _log_factorial(n: int) -> np.ndarray:
    """``log(k!)`` for ``k = 0..n`` at least, from a table grown by doubling."""
    global _LOG_FACTORIAL
    size = _LOG_FACTORIAL.size
    if size <= n:
        more = [math.lgamma(k + 1.0) for k in range(size, max(n + 1, 2 * size))]
        _LOG_FACTORIAL = np.concatenate([_LOG_FACTORIAL, more])
    return _LOG_FACTORIAL


def _windows(y1, y0, o, beta, reach, order: int) -> tuple[np.ndarray, np.ndarray]:
    """First point and size of the windows of tied cells, batches ``(y1,
    y0, o)`` at ``beta = log(theta)``: ``reach`` points either side of the
    mode ``M`` of ``p(u) ~ C(y1, u) C(y0, o - u) theta^u`` (the floor of the
    root of the quadratic ``p(u) = p(u - 1)``), or twice as far and so on,
    until the geometric bound past each end (the pmf is log-concave) on the
    terms ``p(u) ((|u - M| + 1) / s)^order``, ``s`` the normal sd at ``M``
    or 1, is at most ``2^-60 p(M)``.  Elementwise on each cell alone."""
    lo, hi = np.maximum(0, o - y0), np.minimum(o, y1)
    theta = np.exp(beta)
    a, b, c = theta - 1.0, theta * (y1 + o + 2) + (y0 - o), theta * ((y1 + 1.0) * (o + 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(b * b - 4.0 * a * c)  # b <= 0 only where theta < 1, so a < 0
        mode = np.where(b > 0, 2.0 * c / (b + root), (b - root) / (2.0 * a))
    mode = np.minimum(np.maximum(np.floor(mode), lo), hi).astype(np.int64)
    lf = _log_factorial(int(max(y1.max(), y0.max())))

    def holds(i, side, d):  # the bound on the tail past distance d on side of cell i's mode
        m, y1_, y0_, o_, beta_ = mode[i], y1[i], y0[i], o[i], beta[i]
        e = m + side * d
        q = e if side > 0 else e - 1  # log p(q + 1) - log p(q), outward
        step = side * (beta_ + np.log((y1_ - q) * (o_ - q) / ((q + 1.0) * (y0_ - o_ + q + 1.0))))
        gap = beta_ * (e - m) + (lf[m] + lf[y1_ - m] + lf[o_ - m] + lf[y0_ - o_ + m])
        gap -= lf[e] + lf[y1_ - e] + lf[o_ - e] + lf[y0_ - o_ + e]
        if order:
            var = 1.0 / (1.0 / (m + 1.0) + 1.0 / (y1_ - m + 1.0) + 1.0 / (o_ - m + 1.0) + 1.0 / (y0_ - o_ + m + 1.0))
            step += order * np.log1p(1.0 / (d + 1.0))
            gap += order * (np.log(d + 1.0) - 0.5 * np.log(np.maximum(var, 1.0)))
        with np.errstate(divide="ignore", invalid="ignore"):
            return (step < 0) & (gap + step - np.log(-np.expm1(step)) <= -60.0 * math.log(2.0))

    ends = []
    for side, edge in ((-1, lo), (1, hi)):
        last = side * (edge - mode)
        d = np.minimum(reach, last)
        i = np.flatnonzero(d < last)
        while (i := i[~holds(i, side, d[i])]).size:
            d[i] = np.minimum(2 * d[i], last[i])
            i = i[d[i] < last[i]]
        ends.append(mode + side * d)
    return ends[0], ends[1] - ends[0] + 1


def _window_blocks(y1, y0, o, beta: np.ndarray, order: int, cells: int):
    """Blocks ``(where, first, t)`` of the windows of k tied batches ``(y1,
    y0, o)`` at the ``(k, G)`` tilts ``beta``, of at most ``cells`` cells or
    one window: ``where`` indexes the cells in a ``(k, G)`` array as
    ``(windows, cells a window)``, ``first`` the windows' first points, and
    column c of ``t`` a cell's ``beta u + log C(y1, u) + log C(y0, o - u)``
    at ``u = first + j`` in row j, ``-inf`` past its window.  A window first
    reaches ``(10 + order / 4) s + 15 + order`` points from its mode, ``s =
    max(1, sqrt(n) / 2)`` at least the sd of a sum of ``n = max - min``
    Bernoulli counts; a batch within reach of its support sums it all, its
    cells sharing one column of log weights, and other cells have windows
    of their own (``_windows``), going by size to blocks, as many at a time
    as fit, with all their cells or a slice of one window's."""
    g, lo = beta.shape[1], np.maximum(0, o - y0)
    n = np.minimum(o, y1) - lo
    reach = np.ceil((10.0 + order / 4) * np.sqrt(np.maximum(4.0, n)) / 2 + 15.0 + order).astype(np.int64)
    whole, wide = np.flatnonzero(reach >= n), np.flatnonzero(reach < n)
    units = [(whole, None, lo[whole], n[whole] + 1)]  # column None: one window for every column
    if wide.size:
        y1_, y0_, o_, reach_ = (np.repeat(c[wide], g) for c in (y1, y0, o, reach))
        first, size = _windows(y1_, y0_, o_, beta[wide].ravel(), reach_, order)
        units.append((np.repeat(wide, g)[:, None], np.tile(np.arange(g), wide.size), first, size))
    lf = _log_factorial(int(max(y1.max(), y0.max())))
    for row, column, first, size in units:
        # 16-bit keys, which numpy radix-sorts; a window wider than cells has a block of its own
        by_size = np.argsort(np.minimum(size, cells).astype(np.uint16), kind="stable")
        row, first, size, sizes = row[by_size], first[by_size], size[by_size], size[by_size].tolist()
        shared, lo = (g if column is None else 1), 0
        while lo < row.size:
            hi = min(row.size, max(lo + 1, lo + cells // sizes[min(row.size, lo + cells // sizes[lo]) - 1]))
            j = np.arange(sizes[hi - 1])[:, None]
            at, r, inside = first[lo:hi], row[lo:hi].ravel(), j < size[lo:hi]
            v = np.where(inside, at + j, at)
            c1, c0, c = y1[r], y0[r], o[r]
            weights = np.where(inside, lf[c1] - lf[v] - lf[c1 - v] + lf[c0] - lf[c - v] - lf[c0 - c + v], -np.inf)
            points, a = v.astype(float), lo
            while a < hi:
                width = sizes[min(hi, a + max(1, cells // (shared * sizes[a]))) - 1]
                b = min(hi, a + max(1, cells // (shared * width)))
                step = max(1, cells // (width * (b - a)))
                for part in range(0, shared, step):
                    where = row[a:b], slice(part, part + step) if column is None else column[by_size[a:b], None]
                    cut = beta[where]
                    t, w = points[:width, a - lo : b - lo], weights[:width, a - lo : b - lo]
                    if cut.shape[1] > 1:  # a window's log weights for each of its cells
                        t, w = t.repeat(cut.shape[1], axis=1), w.repeat(cut.shape[1], axis=1)
                    t = np.multiply(t, cut.ravel(), out=t if cut.shape[1] > 1 else None)
                    t += w
                    yield where, first[a:b], t
                a = b
            lo = hi


def _ascending_sum(table: np.ndarray) -> np.ndarray:
    """Sums of ``table`` down axis 0, added in row order for any shape,
    memory layout or column count: the one place that fixes a summation
    order.  numpy sums along a contiguous axis pairwise, in blocks, as a
    single column or an F-ordered table would be; so the table is read
    C-ordered, its rows added one after another, and one column by cumsum."""
    rows = np.ascontiguousarray(table).reshape(table.shape[0], -1)
    total = rows.sum(axis=0) if rows.shape[1] > 1 else np.cumsum(rows, axis=0)[-1]
    return total.reshape(table.shape[1:])


@dataclass(frozen=True, eq=False)
class EventStream:
    """Event batches as columns, one entry per event time: ascending
    ``times`` and integer arrays ``y1``, ``y0`` (at risk just before), ``o``
    (events) and ``o1`` (treatment events).  The columns may have any one
    shape, such as ``(replications, L)`` for rows of streams, with ``times``
    None; indexing a stream applies the index to every column."""

    times: np.ndarray | None
    y1: np.ndarray
    y0: np.ndarray
    o: np.ndarray
    o1: np.ndarray

    def __getitem__(self, index) -> "EventStream":
        times = None if self.times is None else self.times[index]
        return EventStream(times, self.y1[index], self.y0[index], self.o[index], self.o1[index])


def two_sided_log_evalue(log_left, log_right):
    """Log of the equal-weight mixture (M_left + M_right) / 2, in log space;
    elementwise for arrays."""
    return np.logaddexp(log_left, log_right) - math.log(2.0)


def log_kernel(stream: EventStream, log_theta) -> np.ndarray:
    """log q_theta(o1 | batch) at every event time of ``stream``, whose
    columns may have any shape, such as ``(replications, L)``.

    ``log_theta`` is a scalar, an array of the columns' shape (one per
    cell), or a grid with one more axis than the columns, placed on the
    trailing axis and broadcast against them, such as ``(1, G)`` or ``(n,
    G)`` for one stream: a grid gives the columns' shape plus ``(G,)``.
    Single events use ``-softplus(x)``, ``x = -/+(log(y1/y0) +
    log_theta)``, as ``-(max(x, 0) + log1p(exp(-|x|)))`` on numpy's
    vectorized ufuncs; forced batches give exactly 0; tied batches sum over
    windows about the mode (``_tied_log_kernel``).  A cell's bits do not
    depend on the grid, chunk or rows it is scored with."""
    log_theta = np.asarray(log_theta, dtype=float)
    y1, y0, o, o1 = stream.y1, stream.y0, stream.o, stream.o1
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.log(y1 / y0)  # +-inf or nan on forced rows, overwritten below
    sign = np.where(o1 == 1, -1.0, 1.0)
    if log_theta.ndim > o.ndim:
        c, sign = c[..., None], sign[..., None]
    out = c + log_theta
    out *= sign
    soft = np.abs(out)  # log q = -softplus(x) = -(max(x, 0) + log1p(exp(-|x|)))
    np.negative(soft, out=soft)
    np.exp(soft, out=soft)
    np.log1p(soft, out=soft)
    np.maximum(out, 0.0, out=out)
    out += soft
    np.negative(out, out=out)
    forced = np.maximum(0, o - y0) == np.minimum(o, y1)
    out[forced] = 0.0
    tied = np.nonzero((o > 1) & ~forced)
    if tied[0].size:
        rows = np.broadcast_to(log_theta, out.shape)[tied]
        out[tied] = _tied_log_kernel(y1[tied], y0[tied], o[tied], o1[tied], rows)
    return out


def _tied_log_kernel(y1, y0, o, o1, log_theta: np.ndarray) -> np.ndarray:
    """``log_kernel`` of informative tied batches at ``log_theta`` of shape
    ``(k,)`` or ``(k, G)``: the observed split's tilted log weight less the
    log-sum-exp over the cell's window (``_window_blocks``), shifted by its
    maximum and added in ascending u, so its bits depend on its batch and
    theta alone."""
    grid = log_theta.reshape(o.size, -1)
    norm = np.empty(grid.shape)
    # a block holds about four arrays of its cells (the windows' points, log
    # weights and indices, and the tilted block), a 16th of the budget
    for where, first, t in _window_blocks(y1, y0, o, grid, 0, _CELLS // 64):
        m = t.max(axis=0)
        t -= m
        np.exp(t, out=t)
        norm[where] = (m + np.log(_ascending_sum(t))).reshape(first.size, -1)
    lf = _log_factorial(int(max(y1.max(), y0.max())))
    seen = lf[y1] - lf[o1] - lf[y1 - o1] + lf[y0] - lf[o - o1] - lf[y0 - o + o1]
    return (seen[:, None] + grid * o1[:, None] - norm).reshape(log_theta.shape)


def _exact_steps(stream: EventStream, theta1: float, theta0: float, two_sided: bool) -> np.ndarray:
    """Log likelihood ratio of each event time of ``stream`` (columns of any
    shape) at ``theta1``, and at ``1/theta1`` when ``two_sided``, against
    ``theta0``, as the columns' shape plus one axis for the alternatives:
    ``log_kernel`` on one grid of the alternatives and ``theta0``, each
    scored once in one call.  Each ratio has conditional expectation 1
    under ``theta0`` (summing ``q_theta0 * ratio`` over the support gives
    the total mass of ``q_theta1``), and a forced batch contributes exactly
    0."""
    alternatives = [math.log(theta1)] + ([math.log(1.0 / theta1)] if two_sided else [])
    table = log_kernel(stream, np.array(alternatives + [math.log(theta0)], ndmin=stream.o.ndim + 1))
    return table[..., :-1] - table[..., -1:]


def _exact_log_evalue(traces: np.ndarray) -> np.ndarray:
    """The exact log e-value from running sums of ``_exact_steps``: the one
    alternative's, or the two-sided half-half mixture of both
    (``two_sided_log_evalue``), so neither side's precision decays."""
    return traces[..., 0] if traces.shape[-1] == 1 else two_sided_log_evalue(traces[..., 0], traces[..., 1])


def log_evalue_trace(
    stream: EventStream, theta1: float, theta0: float = 1.0, two_sided: bool = False
) -> np.ndarray:
    """Cumulative log e-value after each event time: the running sums of
    ``_exact_steps``, the log likelihood ratios at ``theta1`` (and
    ``1/theta1`` when ``two_sided``) against ``theta0``, read by
    ``_exact_log_evalue``.  The running product is a test martingale, and
    the two-sided trace mixes the alternatives' traces at every read-out."""
    theta1 = validate_theta(theta1, "theta1")
    theta0 = validate_theta(theta0, "theta0")
    return _exact_log_evalue(np.cumsum(_exact_steps(stream, theta1, theta0, two_sided), axis=0))
