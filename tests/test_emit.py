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


def mixed_table(n: int) -> dict:
    rng = np.random.default_rng(n)
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
    }


@pytest.mark.parametrize("n", [0, 1, 2 * _CHUNK_ROWS + 1])
def test_emit_matches_json_dump_and_the_per_row_csv(n, tmp_path):
    table = mixed_table(n)
    columns = ["dataset"] + [c for c in table if c != "dataset"]  # CSV order differs from JSON order
    summary = {"n": n, "final": 0.1 + 0.2, "none": None, "nested": [{"a": []}], "empty": []}
    emit_report(str(tmp_path / "r"), columns, table, summary)
    want_csv, want_json = reference_report(columns, table, summary)
    assert_same_text((tmp_path / "r.csv").read_text(encoding="utf-8"), want_csv)
    assert_same_text((tmp_path / "r.json").read_text(encoding="utf-8"), want_json)


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
    [[object()], [1, object()], np.array([b"a", b"b"], dtype=object), [np.int64(3)], [[1, 2]]],
)
def test_unsupported_cells_raise_type_error(column, tmp_path):
    with pytest.raises(TypeError):
        emit_report(str(tmp_path / "r"), ["x"], {"x": column}, {})
