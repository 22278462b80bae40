"""Command line interface: analyze, design, boundary, confseq, audit.

Exit codes make the test outcome scriptable: 0 means the command ran and the
monitored test says "continue"; 10 means "reject at level alpha"; 64 flags a
usage/configuration problem and 65 malformed or unreadable data.

Human-facing output reports e-values in log10 (a value of 1.3 means the
e-value passed 20); everything internal is natural-log.  ``--out BASE``
writes ``BASE.csv`` (fixed column order, '.' decimal separator, %.10g) and a
``BASE.json`` mirror carrying full precision.  A ``--config`` file holds
``key = value`` pairs for any long option; explicit flags win.  The
environment variable ``SAFELOGRANK_SEED`` supplies the default seed, nothing
else.  Reports are standard JSON: a value that is not finite, in any column
or the summary, is written as ``null`` (an empty CSV cell).  Every command
checks ``--out`` before it reads an input or simulates: it refuses a base in
a directory that does not exist and one whose report files would replace an
input.  ``emit_report`` takes each table as columns and writes both files in
chunks of rows, formatting each column chunk once, so the memory it holds
does not grow with the table.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from .adaptive import PriorSpec, confidence_sequence, plugin_log_trace, bayes_log_trace
from .core import log_evalue_trace
from .data import DatasetError, TrialDataset, read_dataset
from .gaussian import (
    _gaussian_log_evidence,
    fixed_sample_boundary,
    gaussian_safe_boundary,
    logrank_z,
    null_expectation_audit,
    obf_boundary,
    schoenfeld_mu,
)
from .simulate import design_table

EXIT_CONTINUE = 0
EXIT_REJECT = 10
EXIT_USAGE = 64
EXIT_DATA = 65

LN10 = math.log(10.0)

_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


class _Parser(argparse.ArgumentParser):
    """argparse with sysexits-style usage failures (64, not 2)."""

    def error(self, message):  # noqa: A002 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class UsageError(ValueError):
    """Flag combination or value that cannot be acted on."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def load_config(path: str) -> dict[str, str]:
    """Key-value config: one ``name = value`` per line, ``#`` comments.

    Names match the long command line options (hyphens and underscores are
    interchangeable).  One file may serve several commands, so a key of any
    command is accepted; a key that no command knows is refused, and so is
    ``meta``: the datasets a decision combines are named on the command
    line only.
    """
    out: dict[str, str] = {}
    known = _option_names()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{line_no}: expected 'name = value', got {raw.rstrip()!r}")
            name, value = line.split("=", 1)
            name = name.strip().lower().replace("-", "_")
            if name not in known:
                raise UsageError(f"{path}:{line_no}: no command has an option {name!r}")
            if name == "meta":
                raise UsageError(f"{path}:{line_no}: give --meta on the command line, not in a config file")
            out[name] = value.strip()
    return out


class Options:
    """Layered option lookup: explicit flag, then config file, then default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = load_config(args.config) if getattr(args, "config", None) else {}

    def get(self, name: str, default=None, cast=None):
        value = getattr(self.args, name, None)
        if value is None and name in self.config:
            value = self.config[name]
        if value is None:
            return default
        if cast is not None and isinstance(value, str):
            try:
                value = cast(value)
            except ValueError:
                raise UsageError(f"option {name!r}: cannot parse {value!r}") from None
        return value

    def flag(self, name: str) -> bool:
        if getattr(self.args, name, False):
            return True
        value = self.config.get(name, "false")
        if value.lower() not in _BOOLEANS:
            raise UsageError(
                f"option {name!r}: expected one of 1/true/yes/on or 0/false/no/off, got {value!r}"
            )
        return _BOOLEANS[value.lower()]


def _env_seed() -> int:
    """The seed in ``SAFELOGRANK_SEED``, or 0; read only when neither a flag
    nor a config key sets one."""
    value = os.environ.get("SAFELOGRANK_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise UsageError(f"SAFELOGRANK_SEED must be an integer, got {value!r}") from None


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _finite(value: float) -> float | None:
    """``value``, or None (JSON null) when it is NaN or infinite."""
    return value if math.isfinite(value) else None


def _report_base(out: str | None, inputs: Sequence[str] = ()) -> str | None:
    """``out`` without a trailing ``.csv``.  Refuses a base that names no
    file, one in a directory that does not exist, and one whose report files
    would replace one of ``inputs``; commands call it before any work."""
    if out is None:
        return None
    base = out[:-4] if out.endswith(".csv") else out
    directory, name = os.path.split(base)
    if not name:  # "dir/" would write the hidden files dir/.csv and dir/.json
        raise UsageError(f"--out {out} names no file: give a base such as {directory or '.'}/report")
    if directory and not os.path.isdir(directory):
        raise UsageError(f"--out {out}: the directory {directory} does not exist")
    targets = {os.path.realpath(base + ext) for ext in (".csv", ".json")}
    for path in inputs:
        if os.path.realpath(path) in targets:
            raise UsageError(f"--out {out} would overwrite the input {path}")
    return base


# Rows formatted and written at a time; bounds the text held.  Larger chunks
# were no faster, and 4096 rows raised the peak memory of a 4k-row report.
_CHUNK_ROWS = 512
_BOOL = {True: "true", False: "false"}
# One C-level formatter per cell type, applied to a whole column chunk:
# (JSON text, CSV text), where None means the CSV text is the JSON text.  A
# formatter is a function mapped over the cells, or a %-format applied to
# all of them at once.  JSON text is exactly what ``json.dump`` writes.
_FORMAT = {
    float: (float.__repr__, "%.10g"),
    int: (int.__repr__, None),
    bool: (_BOOL.__getitem__, None),
    str: (json.encoder.encode_basestring_ascii, str),
}
# The cell type of a numeric array's ``tolist``, by dtype kind
_KIND = {"b": bool, "i": int, "u": int, "f": float}


def _texts(form, values: list) -> list[str]:
    """The text of each value by ``form``: a %-format fills one string for
    all of them, split at the line breaks it puts between them."""
    if not isinstance(form, str):
        return list(map(form, values))
    return ("\n".join([form] * len(values)) % tuple(values)).split("\n") if values else []


def _cell(value) -> tuple[str, str]:
    """JSON and CSV text of one cell of a chunk holding mixed types."""
    if value is None:
        return "null", ""
    if value is True or value is False:
        return _BOOL[value], _BOOL[value]
    if isinstance(value, str):
        return json.encoder.encode_basestring_ascii(value), value
    if isinstance(value, int):
        return int.__repr__(value), int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value), "%.10g" % value
        return "null", ""
    raise TypeError(f"a report cell cannot hold {type(value).__name__}: {value!r}")


def _format_chunk(chunk) -> tuple[list[str], list[str]]:
    """JSON and CSV text of one column chunk (a list, range or 1-d array); a
    non-finite float is null in JSON and an empty CSV cell.

    An array chunk that repeats one value, bit for bit, has its text made
    once.  A bool, int or float array (of at most 64 bits) takes its cell
    type from its dtype, so its cells are not scanned for their types.  A
    float array chunk in which at least half the cells repeat their
    neighbour bit for bit, as confidence-sequence bounds on a grid do, has
    the text of each such run made once: formatting a float costs far more
    than spreading its text over a run, formatting an int or a bool does
    not.  CSV floats are formatted by one %-format over the whole chunk,
    JSON floats by ``float.__repr__``; the non-finite cells of a float
    chunk are found by ``np.isfinite``.
    """
    if isinstance(chunk, np.ndarray):
        if chunk.size > 1 and chunk.tobytes() == chunk[:1].tobytes() * chunk.size:
            json_cells, csv_cells = _format_chunk(chunk[:1])
            return json_cells * chunk.size, csv_cells * chunk.size
        kind = _KIND.get(chunk.dtype.kind) if chunk.itemsize <= 8 else None
        if kind is float and chunk.size > 1:
            # by their bits, so 0.0 and -0.0 differ and a NaN matches only its own
            bits = chunk.view(f"u{chunk.itemsize}")
            start = np.concatenate(([True], bits[1:] != bits[:-1]))
            if 2 * np.count_nonzero(start) <= chunk.size:
                json_runs, csv_runs = _format_chunk(chunk[start])
                run = np.cumsum(start) - 1  # each cell's run
                return (np.array(json_runs, dtype=object)[run].tolist(),
                        np.array(csv_runs, dtype=object)[run].tolist())
        values = chunk.tolist()
    else:
        kind, values = None, chunk
    if kind is None:
        kinds = set(map(type, values))
        if len(kinds) > 1 or kinds.isdisjoint(_FORMAT):
            json_cells, csv_cells = zip(*map(_cell, values))
            return list(json_cells), list(csv_cells)
        kind = kinds.pop()
    to_json, to_csv = _FORMAT[kind]
    json_cells = _texts(to_json, values)
    csv_cells = json_cells if to_csv is None else _texts(to_csv, values)
    if kind is float:
        for i in np.flatnonzero(~np.isfinite(chunk)).tolist():
            json_cells[i], csv_cells[i] = "null", ""
    return json_cells, csv_cells


def emit_report(
    out: str | None, columns: Sequence[str], table: dict, summary: dict
) -> None:
    """Write ``<out>.csv`` (fixed order, %.10g) and ``<out>.json`` (full
    precision, standard JSON); no files when ``out`` is None.

    ``out`` is a base from ``_report_base``.  ``table`` maps each column name
    to its values (a list, range or 1-d array, all of one length); its key
    order is the key order of each JSON row, and ``columns`` is the CSV and
    header order.  Cells are None, bool, int, float or str; a float that is
    not finite is written as null.  Rows are formatted and written
    ``_CHUNK_ROWS`` at a time, one column chunk per formatter call.  Each
    file's text of a chunk is one ``"".join`` over a list that holds a row's
    fixed pieces (key texts, separators, line ends), made from the names
    once, with the cell texts set between them by slice assignment.
    """
    if out is None:
        return
    names = list(table)
    n_rows = len(table[names[0]]) if names else 0
    payload = {"summary": summary, "columns": list(columns), "rows": []}
    head, _, tail = json.dumps(payload, indent=1, allow_nan=False).rpartition("[]")
    keys = [f"   {json.encoder.encode_basestring_ascii(name)}: " for name in names]
    # The pieces of _CHUNK_ROWS rows: in JSON, a piece before each cell, and
    # a row after the first opens by closing the one before; in CSV, a
    # piece after each cell.  None marks a cell's place.
    json_row = [None] * (2 * len(names))
    json_row[::2] = [",\n" + key for key in keys]
    if names:
        json_row[0] = "\n  },\n  {\n" + keys[0]
    csv_row = [None, ","] * len(columns)
    csv_row[-1:] = ["\n"]
    json_parts, csv_parts = json_row * _CHUNK_ROWS, csv_row * _CHUNK_ROWS
    with open(out + ".csv", "w", encoding="utf-8") as csv_fh, \
            open(out + ".json", "w", encoding="utf-8") as json_fh:
        csv_fh.write(",".join(columns) + "\n")
        json_fh.write(head + ("[\n" if n_rows else "[]"))
        for lo in range(0, n_rows, _CHUNK_ROWS):
            cells = {}  # name -> (JSON texts, CSV texts) of this chunk
            for name in names:
                cells[name] = _format_chunk(table[name][lo:lo + _CHUNK_ROWS])
            rows = min(_CHUNK_ROWS, n_rows - lo)
            parts = json_parts[: len(json_row) * rows]
            for i, name in enumerate(names):
                parts[2 * i + 1 :: len(json_row)] = cells[name][0]
            parts[0] = ("  {\n" if lo == 0 else ",\n  {\n") + keys[0]
            json_fh.write("".join(parts) + "\n  }")
            parts = csv_parts[: len(csv_row) * rows]
            for i, name in enumerate(columns):
                parts[2 * i :: len(csv_row)] = cells[name][1]
            csv_fh.write("".join(parts))
        json_fh.write(("\n ]" if n_rows else "") + tail + "\n")


def _print_summary(summary: dict) -> None:
    for key, value in summary.items():
        if isinstance(value, float):
            print(f"{key}: {value:.6g}")
        elif isinstance(value, (list, dict)):
            print(f"{key}: {json.dumps(value)}")
        else:
            print(f"{key}: {value}")


# ---------------------------------------------------------------------------
# shared flag parsing helpers
# ---------------------------------------------------------------------------

def _refuse(args: argparse.Namespace, reason: str, *names: str) -> None:
    """Refuse command line flags that the chosen test would ignore (a
    config file key may serve several commands, so keys are not refused)."""
    for name in names:
        value = getattr(args, name, None)
        if value is not None and value is not False:
            raise UsageError(f"--{name.replace('_', '-')} {reason}")


def _bayes_prior(opt: Options) -> PriorSpec:
    """The Bayes prior of ``--prior``, else a default centered at ``--theta1``."""
    text = opt.get("prior")
    if text is None:
        theta1 = opt.get("theta1", None, float)
        if theta1 is None:
            raise UsageError("the bayes test needs --prior or --theta1 to center a default prior")
        return PriorSpec.lognormal(math.log(theta1))
    _refuse(opt.args, "only centers the default prior; it does not apply with --prior", "theta1")
    kind, _, rest = text.partition(":")
    try:
        if kind == "lognormal":
            parts = [float(p) for p in rest.split(",") if p]
            if not 1 <= len(parts) <= 2:
                raise ValueError
            sd = parts[1] if len(parts) == 2 else 0.5
            return PriorSpec.lognormal(math.log(parts[0]), sd)
        if kind == "point":
            return PriorSpec.point_mass(float(rest))
    except ValueError:
        raise UsageError(f"--prior: cannot parse {text!r}") from None
    raise UsageError(
        f"--prior: unknown kind {kind!r}: use lognormal:CENTER[,SD_LOG] or point:THETA"
    )


def _parse_grid(text: str | None) -> np.ndarray | None:
    if text is None:
        return None
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise UsageError(f"--grid: cannot parse {text!r}: expected LO:HI:COUNT") from None
    if not (0 < lo < hi < math.inf) or count < 2:
        raise UsageError("--grid needs 0 < LO < HI < inf and COUNT >= 2")
    return np.geomspace(lo, hi, count)


def _parse_ratio(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(":")
        pair = (int(a), int(b))
    except ValueError:
        raise UsageError(f"--ratios: cannot parse allocation ratio {text!r}: expected A:B") from None
    if min(pair) < 1:
        raise UsageError(f"--ratios: allocation ratio parts must be >= 1, got {text!r}")
    return pair


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

_ANALYSIS_COLUMNS = ("index", "time", "n", "y1", "y0", "o", "o1", "log10_e", "z", "boundary_z")


def _analysis_table(
    dataset: TrialDataset,
    test: str,
    theta1: float | None,
    theta0: float,
    alpha: float,
    two_sided: bool,
    prior: PriorSpec | None,
) -> tuple[dict, dict]:
    stream = dataset.stream
    size = len(stream.times)
    n = np.cumsum(stream.o)
    z = logrank_z(stream)
    boundary = np.full(size, np.nan)  # written as null: only the gaussian test has one

    if not size:
        log_e_trace = np.zeros(0)
    elif test == "exact":
        log_e_trace = log_evalue_trace(stream, theta1, theta0, two_sided=two_sided)
    elif test == "plugin":
        log_e_trace = plugin_log_trace(stream, theta0=theta0)
    elif test == "bayes":
        log_e_trace = bayes_log_trace(stream, prior, theta0=theta0)
    else:
        m1, m0 = int(stream.y1[0]), int(stream.y0[0])
        log_e_trace = _gaussian_log_evidence(n, z, schoenfeld_mu(theta1, m1, m0))
        boundary = gaussian_safe_boundary(n, theta1, alpha, m1, m0)

    values = (
        np.arange(1, size + 1), stream.times, n, stream.y1, stream.y0, stream.o, stream.o1,
        log_e_trace / LN10, z, boundary,
    )
    table = dict(zip(_ANALYSIS_COLUMNS, values))

    final_log_e = float(log_e_trace[-1]) if size else 0.0
    running_max = float(np.max(log_e_trace)) if size else 0.0
    hits = np.flatnonzero(log_e_trace >= math.log(1.0 / alpha))
    summary = {
        "n_events": int(n[-1]) if size else 0,
        "final_log10_e": _finite(final_log_e / LN10),
        "max_log10_e": _finite(running_max / LN10),
        "decision": "reject" if hits.size else "continue",
        "reject_at_n": int(n[hits[0]]) if hits.size else None,
    }
    return table, summary


def pooled_decision(summaries: list[dict], alpha: float) -> tuple[float | None, str]:
    """Combined log10 e-value of independent studies and the decision.

    Evidence multiplies across independent studies: only the product of
    their final e-values is an e-value, so only it decides.  A study
    crossing ``1/alpha`` on its own stays in its own summary but does not
    reject the pooled null (that would take a union bound over studies).
    A study without a defined (Gaussian) e-value leaves the product
    undefined.  One study decides by its own running maximum.
    """
    if len(summaries) == 1:
        return summaries[0]["final_log10_e"], summaries[0]["decision"]
    finals = [s["final_log10_e"] for s in summaries]
    combined = None if None in finals else sum(finals)
    reject = combined is not None and combined >= math.log10(1.0 / alpha)
    return combined, "reject" if reject else "continue"


def cmd_analyze(args: argparse.Namespace) -> int:
    opt = Options(args)
    test = opt.get("test", "exact")
    if test not in ("exact", "gaussian", "plugin", "bayes"):
        raise UsageError(f"--test: unknown test {test!r}")
    alpha = opt.get("alpha", 0.05, float)
    theta0 = opt.get("theta0", 1.0, float)
    theta1 = opt.get("theta1", None, float)
    two_sided = opt.flag("two_sided")
    delimiter = opt.get("delimiter")
    if not (0 < alpha < 1):
        raise UsageError(f"--alpha must be in (0, 1), got {alpha}")
    if test in ("exact", "gaussian") and theta1 is None:
        raise UsageError(f"--theta1 (or --theta-min) is required for the {test} test")
    if two_sided and test != "exact":
        raise UsageError("--two-sided is only available for the exact test")
    if test == "gaussian" and theta0 != 1.0:
        raise UsageError("the gaussian test only tests theta0 = 1; use --test exact")

    prior = None
    if test == "bayes":
        prior = _bayes_prior(opt)
    else:
        _refuse(args, f"applies only to the bayes test, not {test}", "prior")
    if test == "plugin":
        _refuse(args, "does not apply to the plugin test, which learns its alternative", "theta1")
    if test != "gaussian":
        _refuse(args, f"applies only to the gaussian test, not {test}", "allow_unbalanced_gaussian")

    paths = [args.dataset] + list(args.meta or [])
    real = [os.path.realpath(p) for p in paths]
    for i, path in enumerate(real):
        if path in real[:i]:  # one study's e-value would multiply itself
            raise UsageError(
                f"{paths[i]} is the same file as {paths[real.index(path)]}: "
                "--meta combines independent datasets"
            )
    out = _report_base(opt.get("out"), paths)
    datasets = [read_dataset(p, delimiter=delimiter) for p in paths]

    if test == "gaussian":
        allow_unbalanced = opt.flag("allow_unbalanced_gaussian")
        for path, ds in zip(paths, datasets):
            stream = ds.stream
            if not len(stream.o):
                continue
            m1, m0 = int(stream.y1[0]), int(stream.y0[0])
            if (m1 != m0 or not 0.5 <= theta1 <= 2.0) and not allow_unbalanced:
                raise UsageError(
                    f"{path}: the Gaussian approximation is only recommended for "
                    f"balanced groups with theta1 in [0.5, 2] (got {m1}:{m0}, "
                    f"theta1={theta1}); it can overshoot the nominal level "
                    "otherwise. Re-run with --allow-unbalanced-gaussian to "
                    "proceed anyway, or use --test exact."
                )

    tables = []
    summaries = []
    for index, (path, ds) in enumerate(zip(paths, datasets)):
        table, summary = _analysis_table(
            ds, test, theta1, theta0, alpha, two_sided, prior
        )
        table["dataset"] = np.full(len(table["n"]), index)
        tables.append(table)
        summary["path"] = path
        summaries.append(summary)
    table = {name: np.concatenate([t[name] for t in tables]) for name in tables[0]}
    combined_log10, decision = pooled_decision(summaries, alpha)
    if len(datasets) == 1:
        summary = dict(summaries[0])
        del summary["path"]
    else:
        summary = {
            "combined_log10_e": combined_log10,
            "decision": decision,
            "per_dataset": summaries,
        }
    summary["alpha"] = alpha
    summary["test"] = test

    emit_report(out, ("dataset",) + _ANALYSIS_COLUMNS, table, summary)
    _print_summary(summary)
    return EXIT_REJECT if decision == "reject" else EXIT_CONTINUE


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------

def cmd_design(args: argparse.Namespace) -> int:
    opt = Options(args)
    theta1 = opt.get("theta1", None, float)
    if theta1 is None:
        raise UsageError("--theta1 is required")
    alpha = opt.get("alpha", 0.05, float)
    power = opt.get("power", 0.8, float)
    m1 = opt.get("m1", 5000, int)
    m0 = opt.get("m0", 5000, int)
    theta = opt.get("true_theta", theta1, float)
    reps = opt.get("reps", 1000, int)
    seed = opt.get("seed", None, int)
    source = "--seed" if args.seed is not None else f"seed in {args.config}"
    if seed is None:
        seed, source = _env_seed(), "SAFELOGRANK_SEED"
    if seed < 0:
        raise UsageError(f"{source} must be a nonnegative integer, got {seed}")
    cap = opt.get("cap", None, int)
    tie_h0 = opt.get("tie_h0", None, float)
    tests = [t.strip() for t in opt.get("test", "exact").split(",")]  # design_table checks the kinds

    include_obf = opt.flag("obf")
    obf_cap = opt.get("obf_cap", None, int)
    if obf_cap is not None and not include_obf:
        raise UsageError("--obf-cap sets the O'Brien-Fleming horizon scan; it needs --obf")
    out = _report_base(opt.get("out"))

    table = design_table(
        theta1,
        m1,
        m0,
        theta=theta,
        alpha=alpha,
        power=power,
        replications=reps,
        seed=seed,
        kinds=tuple(tests),
        cap=cap,
        include_obf=include_obf,
        obf_cap=obf_cap,
        tie_h0=tie_h0,
    )
    rows = table["rows"]
    report = {
        "test": [r.test_kind for r in rows],
        "n_max": [r.n_max for r in rows],
        "mean_capped": [r.mean_capped for r in rows],
        "conditional_mean": [r.conditional_mean for r in rows],
        "power": [r.power for r in rows],
        "ratio_n_max": [r.ratio_n_max for r in rows],
        "ratio_mean": [r.ratio_mean for r in rows],
    }
    summary = {
        "schoenfeld_n_fixed": table["n_fixed"],
        "wald_expected_stopping": _finite(table["wald_expected"]),
        "theta1": theta1,
        "true_theta": theta,
        "alpha": alpha,
        "power": power,
        "replications": reps,
        "seed": seed,
        "unattained_power": table["unattained"],
    }
    emit_report(out, list(report), report, summary)
    _print_summary(summary)
    for r in rows:
        print(f"  {r.test_kind}: n_max={r.n_max} mean={r.mean_capped:.1f} power={r.power:.3f}")
    return EXIT_CONTINUE


# ---------------------------------------------------------------------------
# boundary
# ---------------------------------------------------------------------------

def cmd_boundary(args: argparse.Namespace) -> int:
    opt = Options(args)
    theta1 = opt.get("theta1", None, float)
    if theta1 is None:
        raise UsageError("--theta1 is required (it sets the gaussian-safe drift)")
    alpha = opt.get("alpha", 0.05, float)
    n_max = opt.get("nmax", None, int)
    if n_max is None or n_max < 1:
        raise UsageError("--nmax is required and must be >= 1 (it anchors the O'Brien-Fleming column)")
    m1 = opt.get("m1", 1, int)
    m0 = opt.get("m0", 1, int)
    side = opt.get("side", "left" if theta1 < 1.0 else "right")
    n_from = opt.get("n_from", 1, int)
    n_to = opt.get("n_to", n_max, int)
    step = opt.get("n_step", 1, int)
    if not (1 <= n_from <= n_to) or step < 1:
        raise UsageError("need 1 <= --n-from <= --n-to and --n-step >= 1")
    out = _report_base(opt.get("out"))

    sign = -1.0 if side == "left" else 1.0
    fixed = fixed_sample_boundary(alpha, side)
    ns = np.arange(n_from, n_to + 1, step)
    safe = sign * np.abs(gaussian_safe_boundary(ns, theta1, alpha, m1, m0))
    obf = np.full(ns.size, np.nan)  # written as null past the horizon
    obf[ns <= n_max] = obf_boundary(ns[ns <= n_max], n_max, alpha, side)
    table = {
        "n": ns, "gaussian_safe": safe, "obrien_fleming": obf,
        "fixed_classical": np.full(ns.size, fixed),
    }
    summary = {
        "theta1": theta1,
        "alpha": alpha,
        "n_max": n_max,
        "side": side,
        "rows_emitted": ns.size,
    }
    emit_report(out, list(table), table, summary)
    _print_summary(summary)
    return EXIT_CONTINUE


# ---------------------------------------------------------------------------
# confseq
# ---------------------------------------------------------------------------

def cmd_confseq(args: argparse.Namespace) -> int:
    opt = Options(args)
    alpha = opt.get("alpha", 0.05, float)
    numerator = opt.get("numerator", "plugin")
    if numerator not in ("plugin", "bayes"):
        raise UsageError(f"--numerator must be plugin or bayes, got {numerator!r}")
    grid = _parse_grid(opt.get("grid"))
    prior = None
    if numerator == "bayes":
        prior = _bayes_prior(opt)
    else:
        _refuse(args, "applies only to the bayes numerator", "prior", "theta1")
    out = _report_base(opt.get("out"), [args.dataset])
    stream = read_dataset(args.dataset, delimiter=opt.get("delimiter")).stream
    seq = confidence_sequence(
        stream,
        alpha=alpha,
        numerator=numerator,
        grid=grid,
        prior=prior,
        running_intersection=opt.flag("intersect"),
    )
    table = {
        "index": np.arange(1, len(stream.times) + 1),
        "time": stream.times,
        "n": np.cumsum(stream.o),
        "lower": seq.lower,
        "upper": seq.upper,
        "lower_bracketed": seq.lower_bracketed,
        "upper_bracketed": seq.upper_bracketed,
    }
    summary = {
        "n_events": int(stream.o.sum()),
        "final_lower": _finite(seq.final_lower),
        "final_upper": _finite(seq.final_upper),
        "alpha": alpha,
        "numerator": numerator,
        "intersected": seq.intersected,
        "grid_lo": float(seq.grid[0]),
        "grid_hi": float(seq.grid[-1]),
        "grid_points": int(seq.grid.size),
    }
    emit_report(out, list(table), table, summary)
    _print_summary(summary)
    return EXIT_CONTINUE


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def cmd_audit(args: argparse.Namespace) -> int:
    opt = Options(args)
    lo = opt.get("theta_from", 0.5, float)
    hi = opt.get("theta_to", 2.0, float)
    points = opt.get("points", 61, int)
    scale = opt.get("scale", 100, int)
    ratios = [_parse_ratio(r) for r in opt.get("ratios", "1:1,3:1").split(",")]
    if not (0 < lo < hi) or points < 2 or scale < 1:
        raise UsageError("need 0 < --theta-from < --theta-to, --points >= 2 and --scale >= 1")
    out = _report_base(opt.get("out"))

    thetas = np.geomspace(lo, hi, points).tolist()
    table = {"theta": thetas}
    summary = {"theta_from": lo, "theta_to": hi, "points": points, "scale": scale}
    for a, b in ratios:
        m1, m0 = a * scale, b * scale
        values = [null_expectation_audit(theta, m1, m0, m1, m0) for theta in thetas]
        table[f"audit_{a}_{b}"] = values
        summary[f"max_audit_{a}_{b}"] = max([0.0] + values)
    emit_report(out, list(table), table, summary)
    _print_summary(summary)
    return EXIT_CONTINUE


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value file; flags override it")
    sub.add_argument("--out", help="write OUT.csv and OUT.json reports")


@functools.cache
def build_parser() -> _Parser:
    """The command line parser, built once per process (parsing does not
    change it)."""
    parser = _Parser(
        prog="safelogrank",
        description="Anytime-valid logrank tests: analyze trials, size designs, "
        "tabulate boundaries, and invert confidence sequences.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    parser.commands = commands.choices  # command name -> its parser

    analyze = commands.add_parser(
        "analyze", help="per-event-time e-value trace and decision for a dataset"
    )
    analyze.add_argument("dataset", help="delimited survival data (header required)")
    analyze.add_argument("--test", choices=["exact", "gaussian", "plugin", "bayes"])
    analyze.add_argument("--theta1", "--theta-min", dest="theta1", type=float,
                         help="design alternative hazard ratio (theta-min when two-sided)")
    analyze.add_argument("--theta0", type=float, help="null hazard ratio (default 1)")
    analyze.add_argument("--two-sided", action="store_true", dest="two_sided")
    analyze.add_argument("--prior", help="bayes numerator prior: lognormal:CENTER[,SD] | point:THETA")
    analyze.add_argument("--meta", nargs="+", metavar="DATASET",
                         help="further independent datasets; the product of the final e-values decides")
    analyze.add_argument("--delimiter", help="force a field delimiter")
    analyze.add_argument("--allow-unbalanced-gaussian", action="store_true",
                         dest="allow_unbalanced_gaussian")
    _add_common(analyze)
    analyze.set_defaults(handler=cmd_analyze)

    design = commands.add_parser(
        "design", help="simulate stopping times and size a sequential design"
    )
    design.add_argument("--theta1", type=float, help="design alternative hazard ratio")
    design.add_argument("--true-theta", dest="true_theta", type=float,
                        help="data-generating hazard ratio (default: theta1)")
    design.add_argument("--test", help="comma list of exact,gaussian,plugin (default exact)")
    design.add_argument("--m1", type=int, help="treatment group size (default 5000)")
    design.add_argument("--m0", type=int, help="control group size (default 5000)")
    design.add_argument("--power", type=float, help="target power (default 0.8)")
    design.add_argument("--reps", type=int, help="replications (default 1000)")
    design.add_argument("--seed", type=int, help="simulation seed (default $SAFELOGRANK_SEED or 0)")
    design.add_argument("--cap", type=int, help="per-replication event cap")
    design.add_argument("--tie-h0", dest="tie_h0", type=float,
                        help="simulate tied unit-time streams with this control hazard")
    design.add_argument("--obf", action="store_true",
                        help="also size an O'Brien-Fleming comparator")
    design.add_argument("--obf-cap", dest="obf_cap", type=int,
                        help="horizon scan limit for the O'Brien-Fleming comparator")
    _add_common(design)
    design.set_defaults(handler=cmd_design)

    boundary = commands.add_parser(
        "boundary", help="per-n rejection thresholds on the Z scale"
    )
    boundary.add_argument("--theta1", type=float)
    boundary.add_argument("--nmax", type=int, help="O'Brien-Fleming horizon")
    boundary.add_argument("--side", choices=["left", "right"])
    boundary.add_argument("--m1", type=int, help="allocation numerator (default 1)")
    boundary.add_argument("--m0", type=int, help="allocation denominator (default 1)")
    boundary.add_argument("--n-from", dest="n_from", type=int)
    boundary.add_argument("--n-to", dest="n_to", type=int)
    boundary.add_argument("--n-step", dest="n_step", type=int)
    _add_common(boundary)
    boundary.set_defaults(handler=cmd_boundary)

    confseq = commands.add_parser(
        "confseq", help="anytime-valid confidence sequence for the hazard ratio"
    )
    confseq.add_argument("dataset")
    confseq.add_argument("--numerator", choices=["plugin", "bayes"])
    confseq.add_argument("--grid", help="hazard-ratio grid LO:HI:COUNT (log-spaced)")
    confseq.add_argument("--prior", help="bayes prior: lognormal:CENTER[,SD] | point:THETA")
    confseq.add_argument("--theta1", type=float, help="centers the default bayes prior")
    confseq.add_argument("--intersect", action="store_true",
                         help="running intersection (nested intervals)")
    confseq.add_argument("--delimiter", help="force a field delimiter")
    _add_common(confseq)
    confseq.set_defaults(handler=cmd_confseq)

    audit = commands.add_parser(
        "audit",
        help="null expectation of the Gaussian per-event factor across "
        "alternatives and allocation ratios (values > 1 flag leakage)",
    )
    audit.add_argument("--theta-from", dest="theta_from", type=float)
    audit.add_argument("--theta-to", dest="theta_to", type=float)
    audit.add_argument("--points", type=int)
    audit.add_argument("--ratios", help="comma list of allocation ratios, e.g. 1:1,3:1")
    audit.add_argument("--scale", type=int, help="participants per ratio unit (default 100)")
    _add_common(audit)
    audit.set_defaults(handler=cmd_audit)

    # every command but audit, whose table does not depend on a level
    for sub in (analyze, design, boundary, confseq):
        sub.add_argument("--alpha", type=float, help="type-I error budget (default 0.05)")
    return parser


@functools.cache
def _option_names() -> frozenset[str]:
    """The long options of every command, by their config-file names."""
    return frozenset(
        action.dest
        for command in build_parser().commands.values()
        for action in command._actions
        if action.option_strings and action.dest not in ("help", "config")
    )


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except UsageError as err:
        print(f"safelogrank: {err}", file=sys.stderr)
        return EXIT_USAGE
    except DatasetError as err:
        print(f"safelogrank: data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except OSError as err:
        print(f"safelogrank: {err}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as err:
        print(f"safelogrank: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
