"""When you cannot commit to one alternative: learn it as you go.

A fixed-alternative e-process grows fastest when its theta1 matches the
truth.  The plug-in process sidesteps the choice: each event is scored
against the smoothed maximum-likelihood estimate built from *strictly
earlier* events, which preserves the martingale property.  Inverting the
same construction over a grid of hypothesized hazard ratios yields an
anytime-valid confidence sequence.
"""

from __future__ import annotations

import numpy as np

from safelogrank import (
    confidence_sequence,
    log_evalue_trace,
    plugin_estimates,
    plugin_log_trace,
    sample_single_event_stream,
    stream_rng,
)

TRUTH = 0.45


def main() -> None:
    stream = sample_single_event_stream(150, 150, TRUTH, stream_rng(99, 0))

    # watch the estimate converge
    theta_hat = plugin_estimates(stream, 150, 150)
    print(f"true hazard ratio {TRUTH}; plug-in estimate after k events:")
    for k in (1, 5, 25, 100, 250):
        print(f"  k = {k:>3}: theta_hat = {theta_hat[k]:.3f}")

    # evidence accumulated: learned numerator vs committed alternatives
    plug = plugin_log_trace(stream)
    print("\nlog10 e-value after all events:")
    print(f"  plug-in (no commitment):   {plug[-1] / np.log(10):>6.1f}")
    for theta1 in (0.45, 0.7, 0.9):
        fixed = log_evalue_trace(stream, theta1=theta1)
        note = "  <- knew the truth" if theta1 == TRUTH else ""
        print(f"  fixed theta1 = {theta1}:        {fixed[-1] / np.log(10):>6.1f}{note}")
    print(
        "the plug-in pays a learning tax relative to the oracle but beats "
        "badly-guessed alternatives, and it never risks the guarantee."
    )

    # confidence sequence: valid at every event time simultaneously
    grid = np.geomspace(0.1, 4.0, 200)
    seq = confidence_sequence(stream, alpha=0.05, numerator="plugin", grid=grid)
    print("\n95% confidence sequence for the hazard ratio:")
    for k in (10, 50, 150, 300):
        print(f"  after {k:>3} events: [{seq.lower[k - 1]:.3f}, {seq.upper[k - 1]:.3f}]")
    covered = bool(seq.contains(TRUTH).all())
    print(f"truth {TRUTH} inside at every single event time: {covered}")
    print("(the 'ever excludes the truth' probability is at most alpha)")


if __name__ == "__main__":
    main()
