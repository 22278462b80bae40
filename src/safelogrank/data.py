"""Survival datasets: records as columns, delimited-text parsing, event-stream derivation.

A dataset is four columns, one entry per record: ``entry``, ``exit``,
``group`` and ``status``.  The risk set at an event time t contains every
record with ``entry < t <= exit`` — including the participant whose event
defines t, and including records censored exactly at t (censoring ties
resolve after events).  Ties are grouped by exact equality of exit times,
so event batches are reproducible from the file bytes alone.  Events are
derived once, by sorting, as a columnar ``EventStream`` (O(N log N) in the
number of records), which is what every analysis reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, islice
from operator import itemgetter, methodcaller
from typing import TextIO

import numpy as np

from .core import EventStream

__all__ = [
    "EVENT",
    "CENSORED",
    "DatasetError",
    "TrialDataset",
    "parse_dataset",
    "read_dataset",
    "write_dataset",
    "dataset_from_stream",
]

EVENT = 1
CENSORED = 0

_STATUS_NAMES = {
    "1": EVENT,
    "event": EVENT,
    "0": CENSORED,
    "censored": CENSORED,
}

_GROUP_NAMES = {"0": 0, "1": 1}


class DatasetError(ValueError):
    """Malformed survival data; the message carries the offending line."""


def _first_fault(entry, exit_, group, status) -> tuple[int, str] | None:
    """The first record that breaks a record rule, and the first rule it
    breaks: group and status in {0, 1}, entry >= 0, exit > entry (so
    neither time is NaN), and a finite exit.  None when every record keeps
    them."""
    entry, exit_, group, status = (np.asarray(c) for c in (entry, exit_, group, status))
    rules = (
        ~np.isin(group, (0, 1)),
        ~np.isin(status, (EVENT, CENSORED)),
        entry < 0,
        ~(exit_ > entry),
        exit_ == np.inf,
    )
    broken = np.logical_or.reduce(rules)
    if not broken.any():
        return None
    i = int(np.argmax(broken))
    e, x = float(entry[i]), float(exit_[i])
    messages = (
        f"group must be 0 or 1, got {group[i]}",
        f"status must be {EVENT} (event) or {CENSORED} (censored)",
        f"entry time must be nonnegative, got {e}",
        f"exit time must exceed entry time, got entry={e} exit={x}",
        f"exit time must be finite, got entry={e} exit={x}",
    )
    return i, next(m for rule, m in zip(rules, messages) if rule[i])


@dataclass(frozen=True, eq=False)
class TrialDataset:
    """Survival records as four 1-d columns of one length: each record is
    at risk on (entry, exit], in group 0 (control) or 1 (treatment), with
    an event (status 1) or a censoring (0) at exit.  The columns are stored
    read-only, as float ``entry``/``exit`` and integer ``group``/``status``;
    a record that breaks a rule is refused, naming its index."""

    entry: np.ndarray
    exit: np.ndarray
    group: np.ndarray
    status: np.ndarray

    def __post_init__(self) -> None:
        columns = [np.array(c, dtype=float) for c in (self.entry, self.exit)]
        columns += [np.array(c) for c in (self.group, self.status)]
        if any(c.shape != columns[0].shape or c.ndim != 1 for c in columns):
            raise DatasetError("entry, exit, group and status must be 1-d columns of one length")
        fault = _first_fault(*columns)
        if fault is not None:
            raise DatasetError(f"record {fault[0]}: {fault[1]}")
        columns[2:] = [c.astype(np.int64) for c in columns[2:]]
        for name, column in zip(("entry", "exit", "group", "status"), columns):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "_stream", None)

    def event_batches(self) -> EventStream:
        """Derive and cache the columnar event stream: one row per distinct
        event time, with the batch of events at it.

        ``np.unique`` and ``np.bincount`` give the event times and counts,
        and the number at risk in a group at time t is
        #(entry < t) - #(exit < t), by ``searchsorted`` on the group's
        sorted entry and exit times.  Every event lies in its own group's
        risk set, since each record has entry < exit.
        """
        if self._stream is not None:
            return self._stream
        event = self.status == EVENT
        times, slot = np.unique(self.exit[event], return_inverse=True)
        o = np.bincount(slot, minlength=times.size)
        o1 = np.bincount(slot[self.group[event] == 1], minlength=times.size)
        y1, y0 = (
            np.searchsorted(np.sort(self.entry[self.group == g]), times, side="left")
            - np.searchsorted(np.sort(self.exit[self.group == g]), times, side="left")
            for g in (1, 0)
        )
        object.__setattr__(self, "_stream", EventStream(times, y1, y0, o, o1))
        return self._stream

    @property
    def stream(self) -> EventStream:
        """The columnar event stream, as derived by ``event_batches``."""
        return self.event_batches()


# ---------------------------------------------------------------------------
# delimited text
# ---------------------------------------------------------------------------

_EXIT_NAMES = ("exit", "time")


# How each column's fields become values, in the order a line's fields are
# checked: (column, the C-level steps that convert a whole column, dtype,
# and, for a lookup, the message for a text it does not know).
_FIELDS = (
    ("exit", (float,), float, None),
    ("entry", (float,), float, None),
    ("group", (_GROUP_NAMES.__getitem__,), np.int64, "group must be 0 or 1, got {!r}"),
    ("status", (str.lower, _STATUS_NAMES.__getitem__), np.int64,
     "status must be one of 1/0/event/censored, got {!r}"),
)


# Lines of the body that parse_dataset splits and converts at a time, so
# the split fields of only one block are held at once.
_BLOCK_LINES = 1 << 10

# The ASCII characters that str.strip removes and str.splitlines leaves
# inside a line
_LINE_SPACES = " \t\x1f"


def _line_number(lines: list[str], k: int) -> int:
    """The 1-based number of the k-th non-blank line."""
    return next(islice(compress(count(1), map(str.strip, lines)), k, None))


def _columns(fields, n: int, at: dict[str, int], strip: bool) -> list[np.ndarray]:
    """The entry, exit, group and status columns of ``n`` records, column
    i's field texts given by ``fields(i)``, each taken, stripped (unless
    ``strip`` is false) and converted whole.  Raises ValueError if any is
    refused, with the message of the first check it fails: exit, entry,
    group and status."""
    columns = {"entry": np.zeros(n)}  # when the header names no entry
    for name, steps, dtype, unknown in _FIELDS:
        if name not in at:
            continue
        values = fields(at[name])
        if strip:
            values = map(str.strip, values)
        for step in steps:
            values = map(step, values)
        try:
            columns[name] = np.fromiter(values, dtype, n)
        except KeyError as err:
            raise ValueError(unknown.format(err.args[0])) from None
    return [columns[name] for name in ("entry", "exit", "group", "status")]


def _row_columns(rows: list[list[str]], width: int, at: dict[str, int], strip: bool) -> list[np.ndarray]:
    """``_columns`` of split rows, each of which must hold ``width`` fields
    or more; on one row, the message is that of the first check it fails:
    field count, then exit, entry, group and status."""
    fewest = min(map(len, rows), default=width)
    if fewest < width:
        raise ValueError(f"expected {width} fields, got {fewest}")
    return _columns(lambda i: map(itemgetter(i), rows), len(rows), at, strip)


def _block_columns(lines: list[str], split, delimiter: str | None, width: int, at: dict[str, int],
                   strip: bool) -> list[np.ndarray]:
    """``_columns`` of a block of lines.  When each line splits on the
    delimiter into ``width`` fields exactly, the lines are split as one
    string, joined by a delimiter, a line break and a delimiter: the
    fields of line k fill ``width`` places from ``k * (width + 1)`` and a
    line break, which no field holds, the place after them, so each column
    is one slice.  Other blocks are split line by line."""
    if delimiter is not None:
        fields = (delimiter + "\n" + delimiter).join(lines).split(delimiter)
        stride = width + 1
        if len(fields) == stride * len(lines) - 1 and fields[width::stride].count("\n") == len(lines) - 1:
            return _columns(lambda i: fields[i::stride], len(lines), at, strip)
    return _row_columns(list(map(split, lines)), width, at, strip)


def _refusal(rows: list[list[str]], width: int, at: dict[str, int], strip: bool) -> str | None:
    """Why ``_row_columns`` refuses these rows, or None if it reads them."""
    try:
        _row_columns(rows, width, at, strip)
    except ValueError as err:
        return str(err)
    return None


def parse_dataset(text: str, delimiter: str | None = None) -> TrialDataset:
    """Parse delimited survival data with a header row.

    The header must name ``exit`` (or ``time``), ``group`` and ``status``
    columns; an ``entry`` column is optional and defaults to 0.  Unless
    forced, the delimiter is read once, from the header with its leading
    and trailing whitespace stripped: a tab if it has one, else a comma if
    it has one, else runs of whitespace; every row is split with it, so a
    row separated otherwise than its header is refused.  Fields beyond the
    header's are ignored.  Status accepts 1/0 or event/censored, in any case.

    The body is read by column, in blocks of ``_BLOCK_LINES`` non-blank
    lines: a block's lines are split (as one string when each holds the
    header's field count, see ``_block_columns``), each of its columns
    taken and converted whole (``float`` for the times, the name tables for
    group and status), and the blocks' columns joined.  Fields are stripped
    only when the text is not ASCII or holds a space, tab or unit separator
    besides its delimiter; a field split on whitespace holds none.  Errors
    carry 1-based line numbers: the first line refused, either for its text
    (field count, then exit, entry, group and status) or for a record rule
    that its record breaks.
    """
    lines = text.splitlines()
    body = list(filter(str.strip, lines))
    if not body:
        raise DatasetError("empty input: expected a header row and at least one record")
    header = body[0]
    if delimiter is None:
        delimiter = next((d for d in ("\t", ",") if d in header.strip()), None)
    split = str.split if delimiter is None else methodcaller("split", delimiter)
    names = [f.strip().lower() for f in split(header)]
    at: dict[str, int] = {}
    for idx, name in enumerate(names):
        key = "exit" if name in _EXIT_NAMES else name
        if key in at:
            raise DatasetError(f"line {_line_number(lines, 0)}: duplicate column {name!r}")
        at[key] = idx
    missing = [c for c in ("exit", "group", "status") if c not in at]
    if missing:
        raise DatasetError(
            f"line {_line_number(lines, 0)}: header must name columns {missing} "
            f"(got {names!r}); one of 'exit'/'time' supplies the exit column"
        )
    if len(body) == 1:
        raise DatasetError("no records after the header row")

    # fields split on whitespace hold none; otherwise only a text with
    # whitespace besides line ends and the delimiter may have fields to strip
    strip = delimiter is not None and not (
        text.isascii() and not any(c in text for c in _LINE_SPACES if c != delimiter)
    )
    width, blocks, text_fault = len(names), [], None
    for start in range(1, len(body), _BLOCK_LINES):
        block = body[start : start + _BLOCK_LINES]
        try:
            blocks.append(_block_columns(block, split, delimiter, width, at, strip))
        except ValueError:
            rows = list(map(split, block))
            refusals = (_refusal([row], width, at, strip) for row in rows)
            k, why = next((k, why) for k, why in enumerate(refusals) if why is not None)
            text_fault = (start - 1 + k, why)
            # the records before it are read; a rule one of them breaks comes first
            blocks.append(_row_columns(rows[:k], width, at, strip))
            break
    columns = [np.concatenate(block) for block in zip(*blocks)]
    fault = _first_fault(*columns) or text_fault
    if fault is not None:
        raise DatasetError(f"line {_line_number(lines, fault[0] + 1)}: {fault[1]}")
    return TrialDataset(*columns)


def read_dataset(path: str, delimiter: str | None = None) -> TrialDataset:
    # utf-8-sig drops the byte-order mark that spreadsheets write
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as err:
        raise DatasetError(f"{path} is not UTF-8 text: {err}") from None
    return parse_dataset(text, delimiter=delimiter)


def write_dataset(dataset: TrialDataset, target: str | TextIO) -> None:
    """Write records as comma-separated text that parse_dataset round-trips:
    each time is written as its shortest repr, which reads back as the same
    double."""
    own = isinstance(target, str)
    fh: TextIO = open(target, "w", encoding="utf-8") if own else target
    try:
        fh.write("entry,exit,group,status\n")
        status = np.where(dataset.status == EVENT, "event", "censored").tolist()
        columns = (dataset.entry.tolist(), dataset.exit.tolist(), dataset.group.tolist(), status)
        fh.writelines(map("%r,%r,%d,%s\n".__mod__, zip(*columns)))
    finally:
        if own:
            fh.close()


def dataset_from_stream(stream: EventStream) -> TrialDataset:
    """Reconstruct a dataset whose derived stream equals ``stream``.

    Everyone enters at 0; each event at time t becomes a record exiting at
    t, treatment events before control events; participants remaining at
    risk after the final event time are censored at it (they were still in
    its risk set), treatment before control.  Useful for persisting
    simulated streams in the on-disk format.
    """
    times, y1, y0, o1 = stream.times, stream.y1, stream.y0, stream.o1
    if not times.size:
        raise ValueError("need at least one event time to reconstruct a dataset")
    if np.any(np.diff(times) <= 0):
        raise ValueError("event times must be strictly increasing")
    o0 = stream.o - o1
    if np.any((o1 < 0) | (o0 < 0) | (stream.o < 1) | (o1 > y1) | (o0 > y0)):
        raise ValueError("every event time needs events within its risk set")
    left1, left0 = y1 - o1, y0 - o0
    moved = (y1[1:] != left1[:-1]) | (y0[1:] != left0[:-1])
    if np.any(moved):
        i = int(np.argmax(moved)) + 1
        raise ValueError(
            f"event time {float(times[i])} has risk {(int(y1[i]), int(y0[i]))} but "
            f"{(int(left1[i - 1]), int(left0[i - 1]))} remain; the stream is not self-consistent"
        )
    # runs of records: (treatment, control) events at each time, then the
    # (treatment, control) censored tail at the last time
    counts = np.append(np.column_stack([o1, o0]), [left1[-1], left0[-1]])
    runs = times.size + 1
    exit_ = np.repeat(np.append(times, times[-1]), 2)
    return TrialDataset(
        np.zeros(int(counts.sum())),
        np.repeat(exit_, counts),
        np.repeat(np.tile([1, 0], runs), counts),
        np.repeat(np.where(np.arange(2 * runs) < 2 * times.size, EVENT, CENSORED), counts),
    )
