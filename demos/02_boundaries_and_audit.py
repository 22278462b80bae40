"""Rejection boundaries on the familiar Z scale, and when to trust them.

Three monitoring rules for the same trial, written as thresholds for the
standardized logrank statistic after n events:

* the e-value test based on the Gaussian approximation (anytime-valid,
  no horizon needed),
* O'Brien-Fleming continuous monitoring (needs a maximum sample size),
* the classical fixed-sample test (valid only at its single look).

The second half audits the Gaussian shortcut: its per-event factor should
have null expectation <= 1.  Balanced allocation keeps it honest; a 3:1
allocation with an extreme alternative does not.
"""

from __future__ import annotations

import numpy as np

from safelogrank import (
    fixed_sample_boundary,
    gaussian_safe_boundary,
    null_expectation_audit,
    obf_boundary,
)

ALPHA = 0.05
THETA1 = 0.7
N_MAX = 300


def boundary_table() -> None:
    print(f"Z thresholds, alpha={ALPHA}, theta1={THETA1}, horizon {N_MAX} events")
    print(f"{'n':>6} {'e-value (gaussian)':>20} {'obrien-fleming':>16} {'fixed':>8}")
    fixed = fixed_sample_boundary(ALPHA)
    for n in (10, 25, 50, 100, 188, 250, 300):
        safe = gaussian_safe_boundary(n, THETA1, ALPHA)
        obf = obf_boundary(n, N_MAX, ALPHA)
        print(f"{n:>6} {safe:>20.3f} {obf:>16.3f} {fixed:>8.3f}")
    print(
        "\nthe e-value boundary is most stringent around n ~ 188 "
        "(= 2 log(1/alpha) / mu1^2) and needs no horizon; O'Brien-Fleming "
        f"relaxes towards the fixed threshold at its horizon n = {N_MAX}.\n"
    )


def audit() -> None:
    print("null expectation of the Gaussian per-event factor (must be <= 1):")
    for m1, m0 in ((100, 100), (300, 100)):
        worst = max(
            null_expectation_audit(float(t), m1, m0, m1, m0)
            for t in np.geomspace(0.5, 2.0, 31)
        )
        print(f"  allocation {m1}:{m0}, theta1 in [0.5, 2]: worst = {worst:.9f}")
    leak = null_expectation_audit(0.1, 300, 100, 300, 100)
    print(f"  allocation 300:100 at theta1 = 0.1: {leak:.6f}  <-- leaks!")
    print(
        "for unbalanced designs or extreme alternatives, use the exact test "
        "(the command line refuses the Gaussian there unless overridden)."
    )


if __name__ == "__main__":
    boundary_table()
    audit()
