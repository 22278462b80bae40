"""The determinism contract: no output bit depends on a chunk size.

The one chunk budget, ``core._CELLS``, sizes every chunk of work (a block
of tied windows, a chunk of history reads or of a kernel table, a chunk of
replications).  It is set to a quarter and to four times its value, and a
fixed set of library calls is run at each: plug-in traces on single events
and on tied batches wide enough to fill a block of tied windows alone, the
Bayes trace and both confidence sequences on a tied input, the engine's
plug-in solver on rows of streams fitted together, and design tables of
every test kind on single-event and tied streams.  Their outputs' sha256
digests must agree, and the smaller budget must make more ``log_kernel``
calls, so the budget is read.  No other module-level name of the package
may end in ``_CELLS``.
"""

from __future__ import annotations

import ast
import hashlib
from pathlib import Path

import numpy as np

from safelogrank import adaptive, core
from safelogrank.adaptive import (
    PriorSpec,
    _PluginFit,
    _plugin_betas,
    bayes_log_trace,
    confidence_sequence,
    plugin_log_trace,
)
from safelogrank.core import EventStream
from safelogrank.simulate import design_table, sample_single_event_stream, stream_rng

from oracles import sample_tied_stream, stream_of

PACKAGE = Path(core.__file__).resolve().parent


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
    digests, calls = [], []
    for scale in (0.25, 4.0):
        count = [0]

        def counted(*args, kernel=core.log_kernel):
            count[0] += 1
            return kernel(*args)

        with monkeypatch.context() as patch:
            patch.setattr(core, "_CELLS", int(core._CELLS * scale))
            for module in (core, adaptive):  # the modules that call log_kernel by name
                patch.setattr(module, "log_kernel", counted)
            digests.append(_outputs())
        calls.append(count[0])
    assert digests[0] == digests[1], [name for name in digests[0] if digests[0][name] != digests[1][name]]
    assert calls[0] > calls[1] > 0


def test_the_package_has_one_chunk_budget():
    # every chunked loop reads core._CELLS; a module-level name of its own
    # ending in _CELLS would be a second budget that the test above does not scale
    budgets = sorted(
        f"{path.stem}.{name.id}"
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for name in ast.walk(target)
        if isinstance(name, ast.Name) and name.id.endswith("_CELLS")
    )
    assert budgets == ["core._CELLS"]
