"""``cli.emit_report`` writes the same bytes as ``json.dump(indent=1)`` and
the per-row CSV formula it replaced, for every cell type and across chunks."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from safelogrank.cli import _CHUNK_ROWS, emit_report

FLOATS = [-0.0, 0.0, 1e16, 5e-324, 0.1 + 0.2, -1.5, 1 / 3, 1e-5, 123456789012.5, 2.0**-1074 * 3]
NONFINITE = [math.nan, math.inf, -math.inf]
STRINGS = ['say "hi"', "naïve ≥ 1", "100%", "%s %d %%", "a,b", ""]


def reference_report(columns, table, summary) -> tuple[str, str]:
    """The CSV and JSON text of the per-row emitter, on rows whose non-finite
    floats are None."""

    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return format(value, ".10g")
        return str(value)

    def finite(value):
        return None if isinstance(value, float) and not math.isfinite(value) else value

    lists = [v.tolist() if isinstance(v, np.ndarray) else list(v) for v in table.values()]
    rows = [dict(zip(table, map(finite, values))) for values in zip(*lists)]
    csv = ",".join(columns) + "\n"
    for row in rows:
        csv += ",".join(cell(row.get(c)) for c in columns) + "\n"
    payload = {"summary": summary, "columns": list(columns), "rows": rows}
    return csv, json.dumps(payload, indent=1, allow_nan=False) + "\n"


def assert_same_text(got: str, want: str) -> None:
    """Equal texts; on a difference, name its first position (a full diff of
    megabyte texts takes minutes)."""
    same = got == want
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    assert same, f"first difference at {at}: {got[at - 60:at + 60]!r} != {want[at - 60:at + 60]!r}"


def cycle(values, n):
    return [values[i % len(values)] for i in range(n)]


def runs(values, lengths, n, dtype=None) -> np.ndarray:
    """The first ``n`` cells of runs of ``values``, run i holding
    ``lengths[i % len(lengths)]`` cells, values taken cyclically."""
    k = n + 1  # enough runs: each holds at least one cell
    return np.repeat(np.array(cycle(values, k), dtype=dtype), cycle(lengths, k))[:n]


def mixed_table(n: int) -> dict:
    rng = np.random.default_rng(n)
    grid = np.geomspace(1e-3, 1e3, 400)
    return {
        "index": range(1, n + 1),
        "int": cycle([0, -7, 2**70, 3], n),
        "float": cycle(FLOATS, n),
        "float array": rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, size=n),
        "nonfinite": np.array(cycle(NONFINITE + FLOATS[:2], n)),
        "all nan": np.full(n, np.nan),
        "maybe": cycle([None, 1.25, None, -2.0], n),
        "flag": np.arange(n) % 3 == 0,
        "text": cycle(STRINGS, n),
        "any": cycle([None, True, 3, 0.5, "x", False, math.inf], n),
        "100% \"quoted\" é": cycle([1, 2], n),
        "dataset": np.full(n, 4),
        # the first chunk mixes zeros of both signs, equal under == but not in text
        "signed zero": np.where(np.arange(n) == 1, -0.0, 0.0),
        "constant": np.full(n, 1.959963984540054),
        "constant flag": np.full(n, True),
        "constant text": np.full(n, "100% \"sure\""),
        # runs of equal cells, as confidence-sequence bounds on a grid hold them:
        # the run of 300 cells from row 353 crosses the chunk edge at row 512
        "grid runs": runs(grid[rng.permutation(400)], [5, 1, 17, 2, 300, 3], n),
        # three runs in four cells: too few repeats to format by runs
        "sparse runs": runs(grid, [1, 1, 2], n),
        "signed zero runs": runs([0.0, -0.0], [3, 4, 1], n),
        "nonfinite runs": runs([math.nan, -math.nan, math.inf, 1.5, -math.inf, math.nan], [2, 3, 1], n),
        "flag runs": runs([True, False], [5, 1, 600], n),
        "int runs": runs([0, -7, 2**62, 3], [7, 1, 2], n),
        "small int runs": runs([1, 2, 255], [4, 4, 1], n, dtype=np.uint8),
        "text runs": runs(STRINGS, [2, 1], n),
        "alternating": np.where(np.arange(n) % 2 == 0, grid[7], grid[8]),
        # names that a %-template or a JSON key must not change
        "%s": cycle([1.5, 2.5], n),
        "%%d": cycle([3, 4], n),
        "50%": cycle(["a", "b"], n),
        'say "hi"': cycle([True, False], n),
        "back\\slash": cycle([0.5], n),
        "naïve ≥ 1 ✓": cycle([None, 7], n),
    }


ROWS = [0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1]


def check_report(table, columns, tmp_path) -> None:
    summary = {"n": len(next(iter(table.values()))), "final": 0.1 + 0.2, "none": None,
               "nested": [{"a": []}], "empty": []}
    emit_report(str(tmp_path / "r"), columns, table, summary)
    want_csv, want_json = reference_report(columns, table, summary)
    assert_same_text((tmp_path / "r.csv").read_text(encoding="utf-8"), want_csv)
    assert_same_text((tmp_path / "r.json").read_text(encoding="utf-8"), want_json)


@pytest.mark.parametrize("n", ROWS)
def test_emit_matches_json_dump_and_the_per_row_csv(n, tmp_path):
    table = mixed_table(n)
    columns = ["dataset"] + [c for c in table if c != "dataset"]  # CSV order differs from JSON order
    check_report(table, columns, tmp_path)


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1 / 3, -2.5, 1e-5, 65504.0, 0.1]
INT_TYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def typed_table(n: int) -> dict:
    """Columns of each float, int and bool dtype: constant, in runs, with
    no runs, and constant over the first chunk only."""
    first = np.arange(n) < _CHUNK_ROWS
    table = {}
    for dtype in (np.float16, np.float32, np.float64):
        name = np.dtype(dtype).name
        table[f"{name} constant"] = np.full(n, 1 / 3, dtype=dtype)
        table[f"{name} nan"] = np.full(n, math.nan, dtype=dtype)
        table[f"{name} runs"] = runs(SPECIAL_FLOATS, [3, 1, 5, 2], n, dtype=dtype)
        table[f"{name} cycle"] = np.array(cycle(SPECIAL_FLOATS, n), dtype=dtype)
        table[f"{name} first chunk"] = np.where(first, dtype(-0.0), np.array(cycle(SPECIAL_FLOATS, n), dtype))
    for dtype in INT_TYPES:
        info = np.iinfo(dtype)
        values = [info.min, info.max, 0, 1, info.max // 3]
        name = np.dtype(dtype).name
        table[f"{name} constant"] = np.full(n, info.max, dtype=dtype)
        table[f"{name} runs"] = runs(values, [4, 1, 2], n, dtype=dtype)
        table[f"{name} cycle"] = np.array(cycle(values, n), dtype=dtype)
    table["bool constant"] = np.zeros(n, dtype=bool)
    table["bool runs"] = runs([True, False], [5, 1, 2], n, dtype=bool)
    table["bool cycle"] = np.arange(n) % 3 == 1
    return table


@pytest.mark.parametrize("n", ROWS)
def test_typed_columns_match_json_dump_and_the_per_row_csv(n, tmp_path):
    table = typed_table(n)
    check_report(table, list(table)[::-1], tmp_path)


def test_nonfinite_cells_are_null_and_empty(tmp_path):
    table = {"x": np.array([1.0, math.nan, math.inf, -math.inf]), "y": [math.nan, 2, None, True]}
    emit_report(str(tmp_path / "r"), ["x", "y"], table, {})
    rows = json.loads((tmp_path / "r.json").read_text())["rows"]
    assert rows == [{"x": 1.0, "y": None}, {"x": None, "y": 2}, {"x": None, "y": None},
                    {"x": None, "y": True}]
    assert (tmp_path / "r.csv").read_text().splitlines() == ["x,y", "1,", ",2", ",", ",true"]


def test_no_files_without_a_base(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    emit_report(None, ["x"], {"x": [1]}, {})
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "column",
    [[object()], [1, object()], np.array([b"a", b"b"], dtype=object), [np.int64(3)], [[1, 2]],
     np.array([0.5, 1 / 3], dtype=np.longdouble), np.array([1j, 2.0])],
)
def test_unsupported_cells_raise_type_error(column, tmp_path):
    with pytest.raises(TypeError, match="a report cell cannot hold"):
        emit_report(str(tmp_path / "r"), ["x"], {"x": column}, {})
