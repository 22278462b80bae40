"""Survival datasets: records, delimited-text parsing, event-stream derivation.

A record is (entry, exit, group, status).  The risk set at an event time t
contains every record with ``entry < t <= exit`` — including the participant
whose event defines t, and including records censored exactly at t (censoring
ties resolve after events).  Ties are grouped by exact equality of exit
times, so event batches are reproducible from the file bytes alone.  Events
are derived once, by sorting, as a columnar ``EventStream`` (O(N log N) in
the number of records); the ``EventBatch`` tuple is a scalar view of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TextIO

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
    "dataset_from_batches",
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
    """An ordered collection of survival records with derived event batches."""

    records: tuple[SurvivalRecord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_cache", None)

    def group_size(self, group: int) -> int:
        return sum(1 for r in self.records if r.group == group)

    @property
    def n_events(self) -> int:
        return sum(1 for r in self.records if r.status == EVENT)

    def event_batches(self) -> tuple[tuple[float, ...], tuple[EventBatch, ...]]:
        """Distinct event times (ascending) and the batch at each.

        Derives and caches the columnar ``stream``: ``np.unique`` and
        ``np.bincount`` give the event times and counts, and the number at
        risk in a group at time t is #(entry < t) - #(exit < t), by
        ``searchsorted`` on the group's sorted entry and exit times.
        """
        if self._cache is not None:
            return self._cache[1:]
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
        if np.any(y1 + y0 < o):
            i = np.argmax(y1 + y0 < o)
            raise DatasetError(
                f"event at time {float(times[i])} with only {int(y1[i] + y0[i])} at risk; "
                "check entry/exit times"
            )
        # the validating scalar view of the stream
        columns = (y1.tolist(), y0.tolist(), o.tolist(), o1.tolist())
        batches = tuple(EventBatch(RiskSet(a, b), k, j) for a, b, k, j in zip(*columns))
        stream = EventStream(times, y1, y0, o, o1)
        object.__setattr__(self, "_cache", (stream, tuple(times.tolist()), batches))
        return self._cache[1:]

    @property
    def stream(self) -> EventStream:
        """The columnar event stream, as derived by ``event_batches``."""
        if self._cache is None:
            self.event_batches()
        return self._cache[0]

    @property
    def batches(self) -> tuple[EventBatch, ...]:
        return self.event_batches()[1]

    @property
    def event_times(self) -> tuple[float, ...]:
        return self.event_batches()[0]


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


def dataset_from_batches(
    batches: Sequence[EventBatch], times: Sequence[float] | None = None
) -> TrialDataset:
    """Reconstruct a dataset whose derived batches equal ``batches``.

    Everyone enters at 0; each event in the batch at time t becomes a record
    exiting at t; participants remaining at risk after the final batch are
    censored at the last event time (they were still in its risk set).
    Useful for persisting simulated streams in the on-disk format.
    """
    if not batches:
        raise ValueError("need at least one batch to reconstruct a dataset")
    if times is None:
        times = tuple(float(k) for k in range(1, len(batches) + 1))
    if len(times) != len(batches):
        raise ValueError("need exactly one time per batch")
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("batch times must be strictly increasing")

    records = []
    y1, y0 = batches[0].risk.y1, batches[0].risk.y0
    for b, t in zip(batches, times):
        if (b.risk.y1, b.risk.y0) != (y1, y0):
            raise ValueError(
                f"batch at time {t} has risk {(b.risk.y1, b.risk.y0)} but "
                f"{(y1, y0)} remain; the stream is not self-consistent"
            )
        for _ in range(b.o1):
            records.append(SurvivalRecord(exit=t, group=1, status=EVENT))
        for _ in range(b.o0):
            records.append(SurvivalRecord(exit=t, group=0, status=EVENT))
        y1 -= b.o1
        y0 -= b.o0
    last = times[-1]
    for _ in range(y1):
        records.append(SurvivalRecord(exit=last, group=1, status=CENSORED))
    for _ in range(y0):
        records.append(SurvivalRecord(exit=last, group=0, status=CENSORED))
    return TrialDataset(records=tuple(records))
