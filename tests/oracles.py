"""Independent reference implementations used as test oracles.

Everything here is deliberately written in a different style from the
package under test: exact rational arithmetic via ``fractions.Fraction``
where possible, naive brute-force sums elsewhere.  Slow is fine; these only
run inside the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction


def exact_hypergeom_pmf(theta: Fraction, y1: int, y0: int, o: int) -> dict[int, Fraction]:
    """Noncentral hypergeometric pmf as exact rationals.

    ``theta`` must be a Fraction so the whole computation stays in Q.
    """
    lo, hi = max(0, o - y0), min(o, y1)
    weights = {
        u: Fraction(math.comb(y1, u) * math.comb(y0, o - u)) * theta**u
        for u in range(lo, hi + 1)
    }
    total = sum(weights.values())
    return {u: w / total for u, w in weights.items()}


def exact_bernoulli_prob(theta: Fraction, y1: int, y0: int, o1: int) -> Fraction:
    p1 = Fraction(y1) * theta / (Fraction(y0) + Fraction(y1) * theta)
    return p1 if o1 == 1 else 1 - p1


def exact_increment(theta1: Fraction, theta0: Fraction, y1: int, y0: int, o: int, o1: int) -> Fraction:
    """Likelihood-ratio increment as an exact rational."""
    num = exact_hypergeom_pmf(theta1, y1, y0, o)[o1]
    den = exact_hypergeom_pmf(theta0, y1, y0, o)[o1]
    return num / den


def stream_of(rows, times=None):
    """``EventStream`` of ``(y1, y0, o, o1)`` row tuples, at event times
    1, 2, ... unless ``times`` are given."""
    import numpy as np

    from safelogrank.core import EventStream

    y1, y0, o, o1 = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    times = np.arange(1.0, len(y1) + 1.0) if times is None else np.asarray(times, dtype=float)
    return EventStream(times, y1, y0, o, o1)


def rows_of(stream):
    """The ``(y1, y0, o, o1)`` rows of a stream, as Python ints."""
    return list(zip(*(c.tolist() for c in (stream.y1, stream.y0, stream.o, stream.o1))))


def _log_q(theta: float, y1: int, y0: int, o: int, o1: int) -> float:
    """log q_theta(o1 | batch), from the exact rational pmf at the binary
    value of ``theta``."""
    return math.log(exact_hypergeom_pmf(Fraction(theta), y1, y0, o)[o1])


def dataset_of(records):
    """``TrialDataset`` of ``(entry, exit, group, status)`` record tuples."""
    from safelogrank.data import TrialDataset

    return TrialDataset(*(list(zip(*records)) or [(), (), (), ()]))


def parse_dataset_reference(text: str, delimiter: str | None = None):
    """``parse_dataset`` one line at a time: the row loop that the columnar
    parse replaced, kept as the spec for its columns and its messages.

    Each non-blank body line is split, its field count checked, then its
    exit and entry converted by ``float``, its group and status looked up;
    the first line refused ends the parse, unless a record read before it
    breaks a record rule, which is then named instead.
    """
    from safelogrank.data import (
        _GROUP_NAMES, _STATUS_NAMES, DatasetError, TrialDataset, _first_fault,
    )

    def split(line):
        if delimiter is None:
            return line.split()
        return [f.strip() for f in line.split(delimiter)]

    rows = [(i + 1, ln) for i, ln in enumerate(text.splitlines()) if ln.strip()]
    if not rows:
        raise DatasetError("empty input: expected a header row and at least one record")
    header_no, header = rows[0]
    if delimiter is None:
        delimiter = next((d for d in ("\t", ",") if d in header.strip()), None)
    names = [f.lower() for f in split(header)]
    columns: dict[str, int] = {}
    for idx, name in enumerate(names):
        key = "exit" if name in ("exit", "time") else name
        if key in columns:
            raise DatasetError(f"line {header_no}: duplicate column {name!r}")
        columns[key] = idx
    missing = [c for c in ("exit", "group", "status") if c not in columns]
    if missing:
        raise DatasetError(
            f"line {header_no}: header must name columns {missing} "
            f"(got {names!r}); one of 'exit'/'time' supplies the exit column"
        )
    if len(rows) == 1:
        raise DatasetError("no records after the header row")

    width = len(names)
    entry_at = columns.get("entry")
    body = rows[1:]
    parsed = entry, exit_, group, status = [], [], [], []

    def refuse_first_fault():
        fault = _first_fault(*parsed)
        if fault is not None:
            raise DatasetError(f"line {body[fault[0]][0]}: {fault[1]}") from None

    try:
        for line_no, line in body:
            fields = split(line)
            if len(fields) < width:
                raise DatasetError(f"line {line_no}: expected {width} fields, got {len(fields)}")
            try:
                x = float(fields[columns["exit"]])
                e = float(fields[entry_at]) if entry_at is not None else 0.0
            except ValueError as err:
                raise DatasetError(f"line {line_no}: {err}") from None
            g = _GROUP_NAMES.get(fields[columns["group"]])
            if g is None:
                raise DatasetError(
                    f"line {line_no}: group must be 0 or 1, got {fields[columns['group']]!r}"
                )
            status_text = fields[columns["status"]].lower()
            s = _STATUS_NAMES.get(status_text)
            if s is None:
                raise DatasetError(
                    f"line {line_no}: status must be one of 1/0/event/censored, got {status_text!r}"
                )
            entry.append(e)
            exit_.append(x)
            group.append(g)
            status.append(s)
    except DatasetError:
        refuse_first_fault()  # a record rule broken on an earlier line is the first error
        raise
    refuse_first_fault()
    return TrialDataset(*parsed)


def event_batches_reference(records) -> tuple[tuple[float, ...], tuple]:
    """Event times and ``(y1, y0, o, o1)`` batches of ``(entry, exit, group,
    status)`` records, one event time at a time.

    The O(event times x records) derivation by definition: at each distinct
    event time t, count per group the records with ``entry < t <= exit``,
    and the events at t.  Each batch is checked to be one: it holds an
    event, no more events than are at risk, and a treatment count ``o1`` in
    the support ``[max(0, o - y0), min(o, y1)]``.
    """
    events = [(x, g) for _, x, g, s in records if s == 1]
    batches = []
    times = sorted({x for x, _ in events})
    for t in times:
        y1, y0 = (sum(1 for e, x, g, _ in records if g == k and e < t <= x) for k in (1, 0))
        o = sum(1 for x, _ in events if x == t)
        o1 = sum(1 for x, g in events if x == t and g == 1)
        assert 1 <= o <= y1 + y0 and max(0, o - y0) <= o1 <= min(o, y1), (t, y1, y0, o, o1)
        batches.append((y1, y0, o, o1))
    return tuple(float(t) for t in times), tuple(batches)


def brute_force_product(increments) -> float:
    """Plain running product of float increments (no log-space tricks)."""
    out = []
    m = 1.0
    for inc in increments:
        m *= inc
        out.append(m)
    return out


def grid_argmax(fn, lo: float, hi: float, n_coarse: int = 20_000, n_fine: int = 50_000) -> float:
    """Two-stage dense grid search for the maximizer of ``fn`` on [lo, hi].

    ``fn`` maps an array of grid points to their values.  Stage one scans a
    log-spaced grid over the whole bracket; stage two re-scans a fine grid
    across the two coarse cells flanking the winner.  Resolution after
    refinement is ~4e-8 relative, good enough to certify an optimizer to
    1e-6.
    """
    import numpy as np

    grid = np.exp(np.linspace(math.log(lo), math.log(hi), n_coarse))
    k = int(np.argmax(fn(grid)))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, n_coarse - 1)]
    fine = np.exp(np.linspace(math.log(a), math.log(b), n_fine))
    return float(fine[int(np.argmax(fn(fine)))])


# ---------------------------------------------------------------------------
# per-event learned numerators: the brentq plug-in and the per-batch Bayes
# posterior that the vectorized solver and kernel of the package replaced
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlugInState:
    """Plug-in estimate of the hazard ratio from the strictly-past events.

    ``theta_hat`` maximizes the smoothed conditional log-likelihood

        sum_k log q_theta(o1_k | batch_k)
        + log q_theta(1 | m1+1, m0) + log q_theta(0 | m1, m0+1)

    where ``(m1, m0)`` is the initial risk set.  Updates return fresh
    states, and each re-solves with brentq over the whole history.
    """

    m1: int
    m0: int
    theta_hat: float
    n_events: int = 0
    n_event_times: int = 0
    _single_o1: tuple = ()
    _single_offset: tuple = ()
    _ties: tuple = ()  # (o1, support, log binomial weights) per tied batch

    def smoothed_score(self, beta: float) -> float:
        """U(beta) of the smoothed likelihood (strictly decreasing in beta)."""
        import numpy as np

        total = 0.0
        if self._single_o1:
            p = _sigmoid(beta + np.array(self._single_offset))
            total += float(np.sum(np.array(self._single_o1) - p))
        for o1, support, log_w in self._ties:
            total += o1 - _tilted_mean(support, log_w, beta)
        # virtual treatment event at (m1+1, m0), virtual control event at (m1, m0+1)
        total += 1.0 - _sigmoid(beta + math.log((self.m1 + 1) / self.m0))
        total -= _sigmoid(beta + math.log(self.m1 / (self.m0 + 1)))
        return total


def _sigmoid(x):
    import numpy as np

    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _tilted_mean(support, log_w, beta: float) -> float:
    import numpy as np

    log_p = log_w + support * beta
    log_p = log_p - _lse(log_p)
    return float(np.exp(log_p) @ support)


def _lse(values) -> float:
    import numpy as np

    m = values.max()
    return float(m + math.log(np.exp(values - m).sum()))


def _log_binom_weights(y1: int, y0: int, o: int, support):
    from scipy.special import gammaln

    u = support
    return (
        gammaln(y1 + 1) - gammaln(u + 1) - gammaln(y1 - u + 1)
        + gammaln(y0 + 1) - gammaln(o - u + 1) - gammaln(y0 - o + u + 1)
    )


def _solve_theta_hat(state: PlugInState) -> float:
    from scipy.optimize import brentq

    beta_hat = brentq(
        state.smoothed_score, math.log(1e-8), math.log(1e8), xtol=1e-12, rtol=8.9e-16
    )
    return math.exp(beta_hat)


def new_plugin_state(m1: int, m0: int) -> PlugInState:
    """Plug-in state before any events: the virtual points alone."""
    if m1 < 1 or m0 < 1:
        raise ValueError(f"initial group sizes must be >= 1, got m1={m1}, m0={m0}")
    return replace(
        PlugInState(m1=m1, m0=m0, theta_hat=1.0),
        theta_hat=_solve_theta_hat(PlugInState(m1=m1, m0=m0, theta_hat=1.0)),
    )


def plugin_update(state: PlugInState, row) -> PlugInState:
    """Fold one ``(y1, y0, o, o1)`` event batch into the history and
    re-maximize; forced batches are counted but carry no likelihood
    information."""
    import numpy as np

    y1, y0, o, o1 = row
    single_o1, single_offset, ties = state._single_o1, state._single_offset, state._ties
    lo, hi = max(0, o - y0), min(o, y1)
    if lo < hi:
        if o == 1:
            single_o1 = single_o1 + (float(o1),)
            single_offset = single_offset + (math.log(y1 / y0),)
        else:
            support = np.arange(lo, hi + 1)
            log_w = _log_binom_weights(y1, y0, o, support)
            ties = ties + ((o1, support.astype(float), log_w),)
    probe = replace(
        state,
        n_events=state.n_events + o,
        n_event_times=state.n_event_times + 1,
        _single_o1=single_o1,
        _single_offset=single_offset,
        _ties=ties,
    )
    return replace(probe, theta_hat=_solve_theta_hat(probe))


def plugin_reference(stream, m1=None, m0=None, theta0: float = 1.0):
    """Per-event plug-in: (trace, log numerators, theta_hat before each
    event time and after the last)."""
    rows = rows_of(stream)
    m1 = rows[0][0] if m1 is None else m1
    m0 = rows[0][1] if m0 is None else m0
    state = new_plugin_state(m1, m0)
    log_m, trace, log_num, thetas = 0.0, [], [], [state.theta_hat]
    for row in rows:
        log_num.append(_log_q(state.theta_hat, *row))
        log_m += log_num[-1] - _log_q(theta0, *row)
        trace.append(log_m)
        state = plugin_update(state, row)
        thetas.append(state.theta_hat)
    return trace, log_num, thetas


def support_table(y1, y0, o):
    """Whole supports of tied batches, padded, one column each: ``u[j, k] =
    lo_k + j`` with ``lo_k = max(0, o_k - y0_k)``, and the log weights
    ``log C(y1, u) + log C(y0, o - u)`` from the package's log-factorial
    table, ``-inf`` past the column's support.  The reference that the
    package's windows about the mode (``core._windows``) are checked
    against."""
    import numpy as np

    from safelogrank.core import _log_factorial

    lo = np.maximum(0, o - y0)
    size = np.minimum(o, y1) - lo + 1
    u = lo + np.arange(size.max(initial=1))[:, None]
    inside = u < lo + size
    lf = _log_factorial(int(max(y1.max(initial=0), y0.max(initial=0))))
    v = np.where(inside, u, lo)
    log_w = lf[y1] - lf[v] - lf[y1 - v] + lf[y0] - lf[o - v] - lf[y0 - o + v]
    return u, np.where(inside, log_w, -np.inf)


def log_normalizer_reference(y1: int, y0: int, o: int, log_theta: float) -> float:
    """``log Z(theta)`` of one tied batch, summed over its whole support
    (``support_table``) with ``math.fsum``, shifted by the largest term."""
    import numpy as np

    u, log_w = support_table(*(np.array([v]) for v in (y1, y0, o)))
    terms = log_w[:, 0] + u[:, 0] * log_theta
    top = terms.max()
    return float(top + math.log(math.fsum(np.exp(terms - top).tolist())))


def plugin_table_term(c, ties=None):
    """The term of ``adaptive.plugin_newton`` summed afresh on every call:
    each row's sigmoids over its offsets ``c`` (``-inf`` in unused slots,
    which add nothing) and, with ``ties = (u, log_w)``, the tilted means and
    variances of its tied batches, read from ``(R, K, S)`` support tables
    padded with ``log_w = -inf`` (an unused batch slot is the single support
    point ``u = 0``, ``log_w = 0``).  The reference for the package's Taylor
    series term: the same solver on the same history, exact to rounding."""
    import numpy as np

    half_c, width = 0.5 * np.asarray(c, dtype=float), c.shape[1]

    def term(b, active):
        # sigmoid(x) = (1 + tanh(x/2)) / 2, its derivative (1 - tanh(x/2)**2) / 4
        t = np.tanh(half_c + 0.5 * b[:, None])
        total = 0.5 * (width + t.sum(axis=1))
        info = 0.25 * (width - (t * t).sum(axis=1))
        if ties is not None:
            u, log_w = ties
            w = log_w + u * b[:, None, None]
            w = np.exp(w - w.max(axis=-1, keepdims=True))
            w /= w.sum(axis=-1, keepdims=True)
            mean = (w * u).sum(axis=-1)
            total = total + mean.sum(axis=-1)
            # about the mean: E[u^2] - E[u]^2 loses ~1e-9 at 1,500 events
            info = info + (w * (u - mean[..., None]) ** 2).sum(axis=(-2, -1))
        return total, info

    return term


def exact_plugin_betas(stream, m1=None, m0=None):
    """``log(theta_hat)`` after 0..n event times, every prefix solved by
    ``adaptive.plugin_newton`` from 0 on ``plugin_table_term`` over its whole
    history, 64 prefixes per call."""
    import numpy as np

    from safelogrank.adaptive import plugin_newton

    y1, y0, o, o1 = (np.asarray(a) for a in (stream.y1, stream.y0, stream.o, stream.o1))
    m1 = int(y1[0]) if m1 is None else m1
    m0 = int(y0[0]) if m0 is None else m0
    n = o.size
    informative = np.maximum(0, o - y0) != np.minimum(o, y1)
    single = informative & (o == 1)
    tied = np.flatnonzero(informative & (o > 1))
    with np.errstate(divide="ignore"):
        offsets = np.where(single, np.log(y1) - np.log(y0), -np.inf)
    o1_sum = 1.0 + np.concatenate([[0.0], np.cumsum(np.where(informative, o1, 0))])
    u, log_w = (np.ascontiguousarray(t.T) for t in support_table(y1[tied], y0[tied], o[tied]))
    unused = np.where(np.arange(u.shape[1]) == 0, 0.0, -np.inf)
    betas = np.empty(n + 1)
    for start in range(0, n + 1, 64):
        rows = np.arange(start, min(start + 64, n + 1))
        before = np.arange(n) < rows[:, None]  # event k is in the history of fit i when k < i
        c = np.concatenate([
            np.tile([math.log((m1 + 1) / m0), math.log(m1 / (m0 + 1))], (rows.size, 1)),
            np.where(before, offsets, -np.inf),
        ], axis=1)
        ties = None
        if tied.size:
            held = (tied < rows[:, None])[..., None]
            ties = (np.where(held, u, 0.0), np.where(held, log_w, unused))
        betas[rows] = plugin_newton(np.zeros(rows.size), o1_sum[rows], plugin_table_term(c, ties))
    return betas


def exact_plugin_log_trace(stream, theta0: float = 1.0):
    """The plug-in trace scored at ``exact_plugin_betas``."""
    import numpy as np

    from safelogrank.core import log_kernel

    if not stream.o.size:
        return np.zeros(0)
    log_num = log_kernel(stream, exact_plugin_betas(stream)[:-1])
    return np.cumsum(log_num - log_kernel(stream, math.log(theta0)))


def single_event_log_q(y1: int, y0: int, o1: int, log_theta: float) -> float:
    """log q of one single-event batch ``(y1, y0, 1, o1)``, correctly
    rounded: ``-softplus(x)`` with ``x = -/+(log(y1/y0) + log_theta)``, in
    60-digit decimal arithmetic from the exact value of the binary
    ``log_theta``; ``log(1 + t)`` of a tiny ``t = exp(-|x|)`` is its series."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 60
        d = Decimal(y1).ln() - Decimal(y0).ln() + Decimal(log_theta)
        x = -d if o1 == 1 else d
        t = (-abs(x)).exp()
        log1p_t = t - t * t / 2 + t * t * t / 3 if t < Decimal("1e-20") else (1 + t).ln()
        return float(-(max(x, 0) + log1p_t))


def log_kernel_on_nodes(log_thetas, row):
    """log q_theta(o1 | batch) at every node, for one ``(y1, y0, o, o1)``
    batch."""
    import numpy as np

    y1, y0, o, o1 = row
    lo, hi = max(0, o - y0), min(o, y1)
    if lo == hi:
        return np.zeros_like(log_thetas)
    if o == 1:
        log_w1 = math.log(y1) + log_thetas
        log_z = np.logaddexp(math.log(y0), log_w1)
        return (log_w1 if o1 == 1 else math.log(y0)) - log_z
    support = np.arange(lo, hi + 1)
    log_w = _log_binom_weights(y1, y0, o, support)
    table = log_w[None, :] + np.outer(log_thetas, support.astype(float))
    m = table.max(axis=1)
    log_z = m + np.log(np.exp(table - m[:, None]).sum(axis=1))
    return table[:, int(o1 - support[0])] - log_z


class BayesPosterior:
    """Posterior over the prior's grid, updated one event batch at a time."""

    def __init__(self, prior):
        import numpy as np

        self._log_thetas = np.log(prior.thetas)
        with np.errstate(divide="ignore"):
            self._log_w = np.log(prior.weights)

    def log_predictive(self, row) -> float:
        """log of the posterior-predictive probability of the observed o1."""
        log_k = log_kernel_on_nodes(self._log_thetas, row)
        return _lse(self._log_w + log_k) - _lse(self._log_w)

    def log_increment(self, row, theta0: float = 1.0) -> float:
        y1, y0, o, _ = row
        if max(0, o - y0) == min(o, y1):
            return 0.0
        return self.log_predictive(row) - _log_q(theta0, *row)

    def update(self, row) -> None:
        self._log_w = self._log_w + log_kernel_on_nodes(self._log_thetas, row)


def bayes_reference(stream, prior, theta0: float = 1.0):
    """Per-batch Bayes predictive: (trace, log numerators)."""
    posterior = BayesPosterior(prior)
    log_m, trace, log_num = 0.0, [], []
    for row in rows_of(stream):
        log_num.append(posterior.log_predictive(row))
        log_m += posterior.log_increment(row, theta0)
        trace.append(log_m)
        posterior.update(row)
    return trace, log_num


def confidence_bounds_reference(stream, log_num, grid, alpha: float):
    """Hull of the non-rejected grid points at each event time, one row and
    one batch at a time: (lower, upper, lower_bracketed, upper_bracketed)."""
    import numpy as np

    log_thetas = np.log(grid)
    log_den = np.zeros(len(grid))
    cum_num = 0.0
    out = []
    for row, num in zip(rows_of(stream), log_num):
        log_den = log_den + log_kernel_on_nodes(log_thetas, row)
        cum_num += num
        rejected = cum_num - log_den >= math.log(1.0 / alpha)
        keep = np.flatnonzero(~rejected)
        if keep.size:
            out.append((grid[keep[0]], grid[keep[-1]], bool(rejected[0]), bool(rejected[-1])))
        else:
            out.append((math.nan, math.nan, True, True))
    return out


def family_table_bounds(stream, log_num, grid, alpha: float, running_intersection=False, cells=1 << 16):
    """The confidence sequence's bounds from the whole ``(event times,
    grid)`` family table, read ``cells`` cells of event-time rows at a time
    with the running denominators carried into each chunk: (lower, upper,
    lower_bracketed, upper_bracketed) arrays, as ``confidence_sequence``
    returns them."""
    import numpy as np

    from safelogrank.core import EventStream, log_kernel

    n = stream.o.size
    cum_num = np.cumsum(log_num)
    log_grid, log_bound = np.log(grid)[None, :], math.log(1.0 / alpha)
    lower, upper = np.empty(n), np.empty(n)
    lower_bracketed, upper_bracketed = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    denominator = np.zeros(grid.size)
    step = max(1, cells // grid.size)
    for lo in range(0, n, step):
        part = slice(lo, lo + step)
        rows = EventStream(None, stream.y1[part], stream.y0[part], stream.o[part], stream.o1[part])
        log_mart = log_kernel(rows, log_grid)
        log_mart[0] += denominator
        np.cumsum(log_mart, axis=0, out=log_mart)
        denominator = log_mart[-1].copy()
        np.subtract(cum_num[part, None], log_mart, out=log_mart)
        keep = log_mart < log_bound
        first = keep.argmax(axis=1)
        last = grid.size - 1 - keep[:, ::-1].argmax(axis=1)
        some = keep[np.arange(keep.shape[0]), first]
        lower[part] = np.where(some, grid[first], math.nan)
        upper[part] = np.where(some, grid[last], math.nan)
        lower_bracketed[part] = ~keep[:, 0]
        upper_bracketed[part] = ~keep[:, -1]
    if running_intersection and n:
        lower = np.maximum.accumulate(lower)
        upper = np.minimum.accumulate(upper)
        lower_bracketed = np.maximum.accumulate(lower_bracketed)
        upper_bracketed = np.maximum.accumulate(upper_bracketed)
    return lower, upper, lower_bracketed, upper_bracketed


# ---------------------------------------------------------------------------
# per-stream simulation: the walker, tied sampler and summaries that the
# package's engine replaced
# ---------------------------------------------------------------------------

def sample_tied_stream_binomial(m1: int, m0: int, theta: float, h0: float, rng, horizon=None):
    """Unit-time stream drawn one interval at a time: ``Binomial(y1, h0 *
    theta)`` treatment and ``Binomial(y0, h0)`` control events per interval,
    each interval with events one event time.  The same law as the
    package's geometric sampler, in another draw order."""
    y1, y0 = m1, m0
    rows, times = [], []
    k = 0
    while y1 + y0 > 0 and (horizon is None or k < horizon):
        k += 1
        o1 = int(rng.binomial(y1, h0 * theta)) if y1 else 0
        o0 = int(rng.binomial(y0, h0)) if y0 else 0
        if o1 + o0:
            rows.append((y1, y0, o1 + o0, o1))
            times.append(k)
            y1 -= o1
            y0 -= o0
    return stream_of(rows, times)


def enumerate_paths(m: int):
    """Every order of the 2m uncensored events of m treatment and m control
    participants, one row each: an ``EventStream`` of ``(C(2m, m), 2m)``
    single-event columns.  Under the null hazard ratio 1 each order has
    probability ``1 / C(2m, m)``, so a mean over the rows is an exact null
    expectation."""
    import itertools

    import numpy as np

    from safelogrank.core import EventStream

    n = 2 * m
    o1 = np.zeros((math.comb(n, m), n), dtype=np.int64)
    for row, treated in enumerate(itertools.combinations(range(n), m)):
        o1[row, treated] = 1
    before = np.cumsum(o1, axis=1) - o1  # treatment events before each event
    return EventStream(None, m - before, m - np.arange(n) + before, np.ones_like(o1), o1)


def logrank_moments(stream):
    """Cumulative logrank score sum(o1 - E1) and ties-corrected variance
    sum(V1) after each event time, from the package's per-event
    ``logrank_increments``."""
    import numpy as np

    from safelogrank.gaussian import logrank_increments

    return tuple(np.cumsum(x) for x in logrank_increments(stream))


def sample_single_event_stream_loop(m1: int, m0: int, theta: float, rng, max_events=None):
    """Single-event stream drawn event by event from one ``rng.random(n)``
    call: the event falls in the treatment group when its uniform is below
    ``theta * y1 / (y0 + theta * y1)``."""
    y1, y0 = m1, m0
    n = m1 + m0 if max_events is None else min(max_events, m1 + m0)
    u = rng.random(n)
    rows = []
    for i in range(n):
        p1 = theta * y1 / (y0 + theta * y1)
        o1 = int(u[i] < p1)
        rows.append((y1, y0, 1, o1))
        y1 -= o1
        y0 -= 1 - o1
    return stream_of(rows)


def stopping_time(stream, design, horizon=None) -> float:
    """First cumulative event count at which the design's statistic crosses
    its threshold, walking one explicit stream event time by event time
    (the likelihood traces come whole from the package's trace functions,
    the plug-in one from ``exact_plugin_log_trace``); ``inf`` if it never
    does.  With ``horizon``, the statistic is Z against the O'Brien-Fleming
    boundary of that horizon, on the side of the design's alternative."""
    import numpy as np

    from safelogrank.core import log_evalue_trace
    from safelogrank.gaussian import log_gaussian_evalue, obf_boundary, schoenfeld_mu

    rows = rows_of(stream)
    n_events = np.cumsum(stream.o)
    kind = design.test_kind if horizon is None else "obf"
    if kind in ("exact", "plugin"):
        if kind == "exact":
            trace = log_evalue_trace(stream, design.theta1, design.theta0, design.two_sided)
        else:
            trace = exact_plugin_log_trace(stream, theta0=design.theta0)
        hits = np.flatnonzero(trace >= design.log_threshold)
        return float(n_events[hits[0]]) if hits.size else math.inf

    mu1 = (
        schoenfeld_mu(design.theta1, rows[0][0], rows[0][1])
        if rows and kind == "gaussian"
        else None
    )
    score = variance = 0.0
    for (y1, y0, o, o1), n in zip(rows, n_events):
        y = y1 + y0
        a1 = y1 / y
        score += o1 - o * a1
        if y > 1:
            variance += o * a1 * (1 - a1) * (y - o) / (y - 1)
        if variance <= 0:
            continue
        z = score / math.sqrt(variance)
        if kind == "gaussian":
            if log_gaussian_evalue(int(n), z, mu1) >= design.log_threshold:
                return float(n)
        elif n > horizon:
            return math.inf
        else:
            bound = obf_boundary(int(n), horizon, design.alpha, design.side)
            if (z <= bound) if design.side == "left" else (z >= bound):
                return float(n)
    return math.inf


def stopping_times_per_stream(scenario, cap=None, tied_sampler=None, horizon=None):
    """Stopping times of a scenario, one replication at a time through
    ``stopping_time`` (at the O'Brien-Fleming ``horizon`` when it is
    given): single-event streams from ``sample_single_event_stream_loop``,
    tied streams from ``tied_sampler`` (default: the package's), both
    truncated after ``cap`` cumulative events when it is given."""
    import numpy as np

    from safelogrank.core import EventStream
    from safelogrank.simulate import sample_tied_stream, stream_rng

    tied_sampler = tied_sampler or sample_tied_stream
    taus = np.empty(scenario.replications)
    for r in range(scenario.replications):
        rng = stream_rng(scenario.seed, r)
        if scenario.tie_h0 is None:
            stream = sample_single_event_stream_loop(
                scenario.m1, scenario.m0, scenario.theta, rng, max_events=cap
            )
        else:
            stream = tied_sampler(scenario.m1, scenario.m0, scenario.theta, scenario.tie_h0, rng)
            if cap is not None:
                keep = np.cumsum(stream.o) <= cap
                stream = EventStream(*(c[keep] for c in (stream.times, stream.y1, stream.y0, stream.o, stream.o1)))
        taus[r] = stopping_time(stream, scenario.design, horizon)
    return taus


def obf_z_paths(scenario, cap: int):
    """``Z_n * sqrt(n)`` of each replication's single-event stream, one row
    per replication and one column per event up to ``cap``, from
    ``sample_single_event_stream_loop`` and the logrank moments."""
    import numpy as np

    from safelogrank.simulate import stream_rng

    paths = []
    for r in range(scenario.replications):
        stream = sample_single_event_stream_loop(
            scenario.m1, scenario.m0, scenario.theta, stream_rng(scenario.seed, r), cap
        )
        score, variance = logrank_moments(stream)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(variance > 0, score / np.sqrt(variance), np.nan)
        paths.append(z * np.sqrt(np.arange(1.0, stream.o.size + 1.0)))
    return np.array(paths)


def obf_stopping_times(z_scaled, n_max: int, alpha: float, side: str = "left"):
    """First event count n <= n_max at which Z_n crosses the O'Brien-Fleming
    boundary, given the matrix of Z_n * sqrt(n) paths."""
    import numpy as np

    from safelogrank.gaussian import normal_quantile

    if n_max > z_scaled.shape[1]:
        raise ValueError(f"n_max={n_max} exceeds the simulated path length {z_scaled.shape[1]}")
    path = z_scaled[:, :n_max]
    crit = normal_quantile(1.0 - alpha / 2.0) * math.sqrt(n_max)
    with np.errstate(invalid="ignore"):
        hits = path <= -crit if side == "left" else path >= crit
    any_hit = hits.any(axis=1)
    first = hits.argmax(axis=1) + 1.0
    return np.where(any_hit, first, np.inf)


@dataclass(frozen=True)
class ExactGaussianComparison:
    tau_exact: object
    tau_gaussian: object
    dlog_at_exact_stop: object  # nan where the exact test never stopped


def compare_exact_gaussian(scenario, cap=None) -> ExactGaussianComparison:
    """Run the exact and Gaussian-approximate tests on the same streams, one
    stream at a time, and record how far apart their log e-values are at
    the exact test's stopping time.  The streams come from the package's
    column sampler, which ``sample_single_event_stream_loop`` checks."""
    import numpy as np

    from safelogrank.core import EventStream, log_evalue_trace
    from safelogrank.gaussian import log_gaussian_evalue, schoenfeld_mu
    from safelogrank.simulate import _single_event_columns, stream_rng

    design = scenario.design
    reps = scenario.replications
    limit = min(scenario.m1 + scenario.m0, cap or scenario.m1 + scenario.m0)
    uniforms = np.stack([stream_rng(scenario.seed, r).random(limit) for r in range(reps)], axis=1)
    y1 = np.full(reps, float(scenario.m1))
    columns = _single_event_columns(scenario.theta, uniforms, y1, scenario.m1 + scenario.m0)
    mu1 = schoenfeld_mu(design.theta1, scenario.m1, scenario.m0)
    n = np.arange(1, limit + 1)
    tau_exact = np.full(reps, np.inf)
    tau_gaussian = np.full(reps, np.inf)
    dlog = np.full(reps, np.nan)
    for r, (y1, y0, o1) in enumerate(zip(*columns)):
        stream = EventStream(n.astype(float), y1, y0, np.ones(limit, dtype=np.int64), o1)
        exact = log_evalue_trace(stream, design.theta1, design.theta0)
        score, variance = logrank_moments(stream)
        gauss = np.where(variance > 0, log_gaussian_evalue(n, score / np.sqrt(variance), mu1), -np.inf)
        for taus, trace in ((tau_exact, exact), (tau_gaussian, gauss)):
            hits = np.flatnonzero(trace >= design.log_threshold)
            if hits.size:
                taus[r] = n[hits[0]]
        if np.isfinite(tau_exact[r]):
            i = int(tau_exact[r]) - 1
            dlog[r] = abs(exact[i] - gauss[i])
    return ExactGaussianComparison(tau_exact, tau_gaussian, dlog)


def unit_time_martingale(stream, horizon: int, theta1: float, theta0: float = 1.0):
    """Cumulative log e-value of a unit-time stream over intervals
    1..``horizon`` rather than over event times: the event time of a batch
    is its interval, intervals without events contribute a factor of one,
    so the process agrees with the event-time martingale at every event
    time and is flat in between.  The factors are the exact rational
    likelihood ratios."""
    import numpy as np

    log_u = np.zeros(horizon)
    increments = {
        int(t): _log_q(theta1, *row) - _log_q(theta0, *row)
        for t, row in zip(stream.times.tolist(), rows_of(stream))
    }
    running = 0.0
    for k in range(1, horizon + 1):
        running += increments.get(k, 0.0)
        log_u[k - 1] = running
    return log_u


def bootstrap_nmax(taus, power: float, rounds: int = 1000, seed: int = 0, level: float = 0.95):
    """Percentile bootstrap interval for the estimated n_max."""
    import numpy as np

    from safelogrank.simulate import UnattainablePowerError, estimate_nmax

    taus = np.asarray(taus, dtype=float)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xB007))))
    estimates = np.empty(rounds)
    for b in range(rounds):
        resampled = taus[rng.integers(0, taus.size, taus.size)]
        try:
            estimates[b] = estimate_nmax(resampled, power)
        except UnattainablePowerError:
            estimates[b] = np.inf
    tail = (1.0 - level) / 2.0
    lo, hi = np.quantile(estimates, [tail, 1.0 - tail])
    return int(lo), int(hi)


def two_sided_state(left, right) -> float:
    """Mix two independently tracked one-sided log e-value traces into one
    e-value at read-out; both must have seen the same event times."""
    from safelogrank.core import two_sided_log_evalue

    if len(left) != len(right):
        raise ValueError(
            f"two-sided components disagree on event times: {len(left)} vs {len(right)}"
        )
    return math.exp(two_sided_log_evalue(left[-1], right[-1]))


# Standard normal quantiles to 25 significant digits (computed offline with
# mpmath's erfinv at 40-digit precision).  Used to certify the package's
# quantile routine to the documented 1e-9 absolute error bound.
NORMAL_QUANTILES = {
    1e-10: -6.361340902404056204695376,
    0.001: -3.0902323061678135415404,
    0.025: -1.959963984540054235524594,
    0.05: -1.644853626951472714863849,
    0.2: -0.8416212335729142051787061,
    0.5: 0.0,
    0.8: 0.8416212335729142051787061,
    0.95: 1.644853626951472714863849,
    0.975: 1.959963984540054235524594,
    0.999: 3.0902323061678135415404,
}
