"""Monitor a running survival trial with an exact anytime-valid logrank test.

The story: a balanced two-arm trial where the treatment truly halves the
hazard.  We watch the evidence process event by event, stop the moment it
passes 1/alpha, and show that peeking is free — the guarantee is built into
the process, not into a prespecified look schedule.  A second site's data
then multiplies in (optional continuation).
"""

from __future__ import annotations

import math

import numpy as np

from safelogrank import log_evalue_trace, sample_single_event_stream, stream_rng

ALPHA = 0.05
THETA1 = 0.5  # design alternative: treatment halves the hazard


def run_site(seed: int, rep: int, label: str) -> float:
    """Monitor one site's event stream; return its final log e-value."""
    stream = sample_single_event_stream(80, 80, theta=0.5, rng=stream_rng(seed, rep))
    trace = log_evalue_trace(stream, theta1=THETA1)  # log e-value after each event
    n_events = np.cumsum(stream.o)
    crossed = np.flatnonzero(trace >= -math.log(ALPHA))
    print(f"{label}: {n_events[-1]} events, final e-value {math.exp(trace[-1]):,.1f}")
    if not crossed.size:
        print(f"  never crossed 1/alpha = {1 / ALPHA:.0f}; decision: continue")
    else:
        print(
            f"  crossed 1/alpha = {1 / ALPHA:.0f} after {n_events[crossed[0]]} events -- "
            "we could have stopped there, and stopping would not inflate the "
            "type-I error"
        )
    return float(trace[-1])


def main() -> None:
    print(f"design alternative theta1 = {THETA1}, alpha = {ALPHA}\n")
    site_a = run_site(2024, 0, "site A")
    print()
    site_b = run_site(2024, 1, "site B")

    combined = math.exp(site_a + site_b)  # the product of the final e-values
    print(
        f"\nmeta-analysis: evidence multiplies, combined e-value "
        f"{combined:,.1f}"
    )
    print(
        "site B was started *because* site A looked promising -- optional "
        "continuation is exactly the setting where this product stays a "
        "valid e-value."
    )


if __name__ == "__main__":
    main()
