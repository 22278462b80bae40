"""Survival datasets: records, delimited-text parsing, event-stream derivation.

A record is (entry, exit, group, status).  The risk set at an event time t
contains every record with ``entry < t <= exit`` — including the participant
whose event defines t, and including records censored exactly at t (censoring
ties resolve after events).  Ties are grouped by exact equality of exit
times, so event batches are reproducible from the file bytes alone.  Events
are derived once, by sorting, as a columnar ``EventStream`` (O(N log N) in
the number of records), which is what every analysis reads;
``TrialDataset.batches`` builds a validating ``EventBatch`` view of it only
when asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .core import EventBatch, EventStream, RiskSet

__all__ = [
    "EVENT",
    "CENSORED",
    "DatasetError",
    "SurvivalRecord",
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


class DatasetError(ValueError):
    """Malformed survival data; the message carries the offending line."""


@dataclass(frozen=True)
class SurvivalRecord:
    """One participant: at risk on (entry, exit], with an event or a
    censoring at exit."""

    exit: float
    group: int
    status: int
    entry: float = 0.0

    def __post_init__(self) -> None:
        if self.group not in (0, 1):
            raise DatasetError(f"group must be 0 or 1, got {self.group}")
        if self.status not in (EVENT, CENSORED):
            raise DatasetError(f"status must be {EVENT} (event) or {CENSORED} (censored)")
        if self.entry < 0:
            raise DatasetError(f"entry time must be nonnegative, got {self.entry}")
        if not self.exit > self.entry:
            raise DatasetError(
                f"exit time must exceed entry time, got entry={self.entry} exit={self.exit}"
            )


@dataclass(frozen=True)
class TrialDataset:
    """An ordered collection of survival records with its derived event stream."""

    records: tuple[SurvivalRecord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_stream", None)

    def group_size(self, group: int) -> int:
        return sum(1 for r in self.records if r.group == group)

    @property
    def n_events(self) -> int:
        return sum(1 for r in self.records if r.status == EVENT)

    def event_batches(self) -> EventStream:
        """Derive and cache the columnar event stream: one row per distinct
        event time, with the batch of events at it.

        ``np.unique`` and ``np.bincount`` give the event times and counts,
        and the number at risk in a group at time t is
        #(entry < t) - #(exit < t), by ``searchsorted`` on the group's
        sorted entry and exit times.  An event outside its own risk set
        (possible only for records that skipped validation) is refused.
        """
        if self._stream is not None:
            return self._stream
        exit_, entry, group, status = np.array(
            [(r.exit, r.entry, r.group, r.status) for r in self.records], dtype=float
        ).reshape(-1, 4).T
        times, slot = np.unique(exit_[status == EVENT], return_inverse=True)
        o = np.bincount(slot, minlength=times.size)
        o1 = np.bincount(slot[group[status == EVENT] == 1], minlength=times.size)
        y1, y0 = (
            np.searchsorted(np.sort(entry[group == g]), times, side="left")
            - np.searchsorted(np.sort(exit_[group == g]), times, side="left")
            for g in (1, 0)
        )
        short = (y1 < o1) | (y0 < o - o1)
        if np.any(short):
            i = np.argmax(short)
            raise DatasetError(
                f"event at time {float(times[i])} with only {int(y1[i] + y0[i])} at risk "
                f"({int(y1[i])} treatment, {int(y0[i])} control); check entry/exit times"
            )
        object.__setattr__(self, "_stream", EventStream(times, y1, y0, o, o1))
        return self._stream

    @property
    def stream(self) -> EventStream:
        """The columnar event stream, as derived by ``event_batches``."""
        return self.event_batches()

    @property
    def batches(self) -> tuple[EventBatch, ...]:
        """The stream as validating ``EventBatch`` rows, built when read."""
        s = self.stream
        columns = (s.y1.tolist(), s.y0.tolist(), s.o.tolist(), s.o1.tolist())
        return tuple(EventBatch(RiskSet(a, b), k, j) for a, b, k, j in zip(*columns))

    @property
    def event_times(self) -> tuple[float, ...]:
        return tuple(self.stream.times.tolist())


# ---------------------------------------------------------------------------
# delimited text
# ---------------------------------------------------------------------------

_EXIT_NAMES = ("exit", "time")


def _split(line: str, delimiter: str | None) -> list[str]:
    if delimiter is not None:
        return [f.strip() for f in line.split(delimiter)]
    if "\t" in line:
        return [f.strip() for f in line.split("\t")]
    if "," in line:
        return [f.strip() for f in line.split(",")]
    return line.split()


def parse_dataset(text: str, delimiter: str | None = None) -> TrialDataset:
    """Parse delimited survival data with a header row.

    The header must name ``exit`` (or ``time``), ``group`` and ``status``
    columns; an ``entry`` column is optional and defaults to 0.  The
    delimiter is comma/tab autodetected unless forced.  Status accepts
    1/0 or event/censored.  Errors carry 1-based line numbers.
    """
    lines = [ln for ln in text.splitlines()]
    rows = [(i + 1, ln) for i, ln in enumerate(lines) if ln.strip()]
    if not rows:
        raise DatasetError("empty input: expected a header row and at least one record")
    header_no, header = rows[0]
    names = [f.lower() for f in _split(header, delimiter)]
    columns: dict[str, int] = {}
    for idx, name in enumerate(names):
        key = "exit" if name in _EXIT_NAMES else name
        if key in columns:
            raise DatasetError(f"line {header_no}: duplicate column {name!r}")
        columns[key] = idx
    missing = [c for c in ("exit", "group", "status") if c not in columns]
    if missing:
        raise DatasetError(
            f"line {header_no}: header must name columns {missing} "
            f"(got {names!r}); one of 'exit'/'time' supplies the exit column"
        )
    if len(rows) == 1:
        raise DatasetError("no records after the header row")

    records = []
    for line_no, line in rows[1:]:
        fields = _split(line, delimiter)
        if len(fields) < len(names):
            raise DatasetError(
                f"line {line_no}: expected {len(names)} fields, got {len(fields)}"
            )
        try:
            exit_time = float(fields[columns["exit"]])
            entry = float(fields[columns["entry"]]) if "entry" in columns else 0.0
        except ValueError as err:
            raise DatasetError(f"line {line_no}: {err}") from None
        group_text = fields[columns["group"]]
        if group_text not in ("0", "1"):
            raise DatasetError(f"line {line_no}: group must be 0 or 1, got {group_text!r}")
        status_text = fields[columns["status"]].lower()
        if status_text not in _STATUS_NAMES:
            raise DatasetError(
                f"line {line_no}: status must be one of 1/0/event/censored, got {status_text!r}"
            )
        try:
            records.append(
                SurvivalRecord(
                    exit=exit_time,
                    group=int(group_text),
                    status=_STATUS_NAMES[status_text],
                    entry=entry,
                )
            )
        except DatasetError as err:
            raise DatasetError(f"line {line_no}: {err}") from None
    return TrialDataset(records=tuple(records))


def read_dataset(path: str, delimiter: str | None = None) -> TrialDataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dataset(fh.read(), delimiter=delimiter)


def write_dataset(dataset: TrialDataset, target: str | TextIO) -> None:
    """Write records as comma-separated text that parse_dataset round-trips."""
    own = isinstance(target, str)
    fh: TextIO = open(target, "w", encoding="utf-8") if own else target
    try:
        fh.write("entry,exit,group,status\n")
        for r in dataset.records:
            status = "event" if r.status == EVENT else "censored"
            fh.write(f"{r.entry:.10g},{r.exit:.10g},{r.group},{status}\n")
    finally:
        if own:
            fh.close()


def dataset_from_stream(stream: EventStream) -> TrialDataset:
    """Reconstruct a dataset whose derived stream equals ``stream``.

    Everyone enters at 0; each event at time t becomes a record exiting at
    t; participants remaining at risk after the final event time are
    censored at it (they were still in its risk set).  Useful for
    persisting simulated streams in the on-disk format.
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
    records = []
    for t, k1, k0 in zip(times.tolist(), o1.tolist(), o0.tolist()):
        records += [SurvivalRecord(exit=t, group=1, status=EVENT) for _ in range(k1)]
        records += [SurvivalRecord(exit=t, group=0, status=EVENT) for _ in range(k0)]
    last = float(times[-1])
    records += [SurvivalRecord(exit=last, group=1, status=CENSORED) for _ in range(int(left1[-1]))]
    records += [SurvivalRecord(exit=last, group=0, status=CENSORED) for _ in range(int(left0[-1]))]
    return TrialDataset(records=tuple(records))
