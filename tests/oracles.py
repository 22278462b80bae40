"""Independent reference implementations used as test oracles.

Everything here is deliberately written in a different style from the
package under test: exact rational arithmetic via ``fractions.Fraction``
where possible, naive brute-force sums elsewhere.  Slow is fine; these only
run inside the test suite.
"""

from __future__ import annotations

import math
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


def event_batches_reference(records) -> tuple[tuple[float, ...], tuple]:
    """Event times and batches of survival records, one event time at a time.

    The O(event times x records) derivation the package used before its
    columnar stream: at each distinct event time t, count per group the
    records with entry < t minus those with exit < t, and the events at t.
    """
    import numpy as np

    from safelogrank.core import EventBatch, RiskSet

    events = [r for r in records if r.status == 1]
    times = np.unique([r.exit for r in events])
    entry = {g: np.sort([r.entry for r in records if r.group == g]) for g in (0, 1)}
    exits = {g: np.sort([r.exit for r in records if r.group == g]) for g in (0, 1)}
    batches = []
    for t in times:
        y = {
            g: int(
                np.searchsorted(entry[g], t, side="left")
                - np.searchsorted(exits[g], t, side="left")
            )
            for g in (0, 1)
        }
        o1 = sum(1 for r in events if r.exit == t and r.group == 1)
        o = sum(1 for r in events if r.exit == t)
        batches.append(EventBatch(risk=RiskSet(y[1], y[0]), o=o, o1=o1))
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

    Stage one scans a log-spaced grid over the whole bracket; stage two
    re-scans a fine grid across the two coarse cells flanking the winner.
    Resolution after refinement is ~4e-8 relative, good enough to certify an
    optimizer to 1e-6.
    """
    import numpy as np

    grid = np.exp(np.linspace(math.log(lo), math.log(hi), n_coarse))
    vals = np.array([fn(g) for g in grid])
    k = int(np.argmax(vals))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, n_coarse - 1)]
    fine = np.exp(np.linspace(math.log(a), math.log(b), n_fine))
    fvals = np.array([fn(g) for g in fine])
    return float(fine[int(np.argmax(fvals))])


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
