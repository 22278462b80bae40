"""The determinism contract: no output bit depends on a chunk size.

Every constant that sizes a chunk of work (a block of tied windows, a
chunk of history reads or of a kernel table, a chunk of replications) is
set to a quarter and to four times its value, and a fixed set of library
calls is run at each: plug-in traces on single events and on tied batches
wide enough to fill a block of tied windows alone, the Bayes trace and
both confidence sequences on a tied input, the engine's plug-in solver on
rows of streams fitted together, and design tables of every test kind on
single-event and tied streams.  Their outputs' sha256 digests must agree.
"""

from __future__ import annotations

import hashlib

import numpy as np

from safelogrank import adaptive, core, simulate
from safelogrank.adaptive import (
    PriorSpec,
    _PluginFit,
    _plugin_betas,
    bayes_log_trace,
    confidence_sequence,
    plugin_log_trace,
)
from safelogrank.core import EventStream
from safelogrank.simulate import design_table, sample_single_event_stream, sample_tied_stream, stream_rng

from oracles import stream_of

CHUNK_CONSTANTS = (
    (simulate, "_CELLS"),
    (adaptive, "_CELLS"),
    (adaptive, "_FAMILY_CELLS"),
    (adaptive, "_FIRST_CELLS"),
    (adaptive, "_BAND_CELLS"),
    (core, "_TIE_CELLS"),
)


def _digest(value) -> str:
    """sha256 of an array's shape and bytes, or of a value's repr (a float's
    repr round-trips, so it names its bits)."""
    if isinstance(value, np.ndarray):
        data = repr(value.shape).encode() + np.ascontiguousarray(value).tobytes()
    else:
        data = repr(value).encode()
    return hashlib.sha256(data).hexdigest()


def _outputs() -> dict[str, str]:
    """The digests of the contract's library calls."""
    single = sample_single_event_stream(1500, 1500, 0.8, stream_rng(3, 0), max_events=2000)
    tied = sample_tied_stream(1000, 1000, 0.7, 0.02, stream_rng(3, 1))
    # 56,780 events in 13 tied batches from risk sets of 50,000 a group: the
    # widest windows about the mode, up to 2,595 points, fill a quarter of a
    # block of tied windows alone
    coarse = stream_of([
        (50000, 50000, 32698, 16430), (33570, 33732, 12000, 5955), (27615, 27687, 6000, 3075),
        (24540, 24762, 3000, 1491), (23049, 23253, 1500, 722), (22327, 22475, 800, 393),
        (21934, 22068, 400, 201), (21733, 21869, 200, 90), (21643, 21759, 100, 54),
        (21589, 21713, 50, 31), (21558, 21694, 20, 10), (21548, 21684, 9, 6), (21542, 21681, 3, 2),
    ])
    thetas = np.linspace(0.4, 1.5, 100)
    streams = [sample_single_event_stream(150, 150, theta, stream_rng(5, r)) for r, theta in enumerate(thetas)]
    rows = EventStream(None, *(np.array([getattr(s, c) for s in streams]) for c in ("y1", "y0", "o", "o1")))
    out = {
        "plugin trace": plugin_log_trace(single),
        "plugin trace, wide ties": plugin_log_trace(coarse),
        "plugin rows fitted together": _plugin_betas(_PluginFit(100, 150, 150, 300), np.arange(100), rows),
        "bayes trace, tied": bayes_log_trace(tied, PriorSpec.lognormal(0.0)),
    }
    for numerator in ("plugin", "bayes"):
        cs = confidence_sequence(tied, numerator=numerator)
        out[f"{numerator} confidence sequence, tied"] = np.stack(
            [cs.lower, cs.upper, cs.lower_bracketed, cs.upper_bracketed]
        )
    design = dict(replications=60, seed=2, kinds=("exact", "gaussian", "plugin"), cap=300)
    out["designs"] = design_table(0.7, 150, 150, include_obf=True, **design)
    out["designs, tied"] = design_table(0.7, 150, 150, tie_h0=0.02, **design)
    return {name: _digest(value) for name, value in out.items()}


def test_outputs_do_not_depend_on_chunk_sizes(monkeypatch):
    digests = []
    for scale in (0.25, 4.0):
        with monkeypatch.context() as patch:
            for module, name in CHUNK_CONSTANTS:
                patch.setattr(module, name, int(getattr(module, name) * scale))
            digests.append(_outputs())
    assert digests[0] == digests[1], [name for name in digests[0] if digests[0][name] != digests[1][name]]
