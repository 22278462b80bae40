"""Dataset parsing, risk-set derivation, and the simulator round-trip."""

from __future__ import annotations

import hashlib
import io
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from safelogrank import data
from safelogrank.core import log_evalue_trace
from safelogrank.data import (
    CENSORED,
    EVENT,
    DatasetError,
    TrialDataset,
    dataset_from_stream,
    parse_dataset,
    read_dataset,
    write_dataset,
)
from safelogrank.simulate import sample_single_event_stream, sample_tied_stream, stream_rng

from oracles import (
    dataset_of,
    event_batches_reference,
    exact_increment,
    parse_dataset_reference,
    rows_of,
    stream_of,
)

CSV_BASIC = """\
time,group,status
1.0,1,event
2.0,0,event
3.0,1,censored
4.0,0,event
"""


def test_parse_basic_csv():
    ds = parse_dataset(CSV_BASIC)
    assert [c.tolist() for c in (ds.entry, ds.exit, ds.group, ds.status)] == [
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 2.0, 3.0, 4.0],
        [1, 0, 1, 0],
        [EVENT, EVENT, CENSORED, EVENT],
    ]
    assert int(ds.stream.o.sum()) == 3
    batches = rows_of(ds.stream)
    assert ds.stream.times.tolist() == [1.0, 2.0, 4.0]
    assert batches[0] == (2, 2, 1, 1)
    assert batches[1] == (1, 2, 1, 0)
    # the record censored at 3.0 has left the risk set by 4.0
    assert batches[2] == (0, 1, 1, 0)


def test_tied_events_pool_into_one_batch():
    text = "time,group,status\n2,1,1\n2,0,1\n5,0,0\n5,1,0\n"
    ds = parse_dataset(text)
    assert ds.stream.times.tolist() == [2.0]
    assert rows_of(ds.stream) == [(2, 2, 2, 1)]


def test_censoring_tie_at_event_time_counts_in_risk_set():
    # censored exactly at the event time: still at risk for that event
    text = "time,group,status\n3,1,event\n3,0,censored\n"
    ds = parse_dataset(text)
    assert rows_of(ds.stream) == [(1, 1, 1, 1)]


def test_left_truncated_entry_joins_late():
    text = "entry,time,group,status\n0,1,1,event\n0,4,0,event\n2,4,1,censored\n2,5,1,event\n"
    ds = parse_dataset(text)
    risk = [(y1, y0) for y1, y0, _, _ in rows_of(ds.stream)]
    assert ds.stream.times.tolist() == [1.0, 4.0, 5.0]
    # at t=1 the late entrants (entry=2) are not yet at risk
    assert risk[0] == (1, 1)
    # at t=4 both have joined; one is censored exactly there and still counts
    assert risk[1] == (2, 1)
    assert risk[2] == (1, 0)


def test_tab_delimiter_autodetected_and_forcible():
    text = "time\tgroup\tstatus\n1\t1\t1\n2\t0\t0\n"
    assert int(parse_dataset(text).stream.o.sum()) == 1
    semi = "time;group;status\n1;1;1\n"
    assert int(parse_dataset(semi, delimiter=";").stream.o.sum()) == 1


def test_delimiter_is_read_once_from_the_header():
    # a stray tab at the end of a comma-separated row is whitespace, not a
    # delimiter of that row
    text = "time,group,status\n1,0,event\t\n2,1,censored\n"
    stream = parse_dataset(text).stream
    assert stream.times.tolist() == [1.0] and stream.o1.tolist() == [0]
    # and so is one at the end of the header
    assert parse_dataset("time,group,status\t\n1,0,event\n").stream.times.tolist() == [1.0]
    # a whitespace-separated file stays whitespace-separated
    assert parse_dataset("time group status\t\n1  1\tevent\n").stream.o1.tolist() == [1]
    # every row is split as its header is: whitespace-separated rows under a
    # comma or tab header are refused
    for header in ("time,group,status", "time\tgroup\tstatus"):
        with pytest.raises(DatasetError) as err:
            parse_dataset(f"{header}\n1 0 event\n")
        assert str(err.value) == "line 2: expected 3 fields, got 1"


def test_header_synonym_exit():
    text = "exit,group,status\n1.5,0,event\n"
    assert parse_dataset(text).stream.times.tolist() == [1.5]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty input"),
        ("time,group,status\n", "no records"),
        ("when,group,status\n1,0,1\n", "header must name"),
        ("time,group,status\n1,2,1\n", "line 2: group"),
        ("time,group,status\n1,0,maybe\n", "line 2: status"),
        ("time,group,status\nsoon,0,1\n", "line 2"),
        ("time,group,status\n1,0\n", "line 2: expected 3 fields"),
        ("time,group,status,time\n1,0,1,2\n", "duplicate column"),
        ("entry,time,group,status\n3,1,0,event\n", "line 2: exit time must exceed"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(DatasetError, match=fragment):
        parse_dataset(text)


def test_record_validation():
    with pytest.raises(DatasetError, match=r"^record 0: group must be 0 or 1, got 2$"):
        dataset_of([(0.0, 1.0, 2, EVENT)])
    with pytest.raises(DatasetError, match=r"^record 0: status must be 1"):
        dataset_of([(0.0, 1.0, 0, 5)])
    with pytest.raises(DatasetError, match=r"^record 1: entry time must be nonnegative"):
        dataset_of([(0.0, 1.0, 0, EVENT), (-0.5, 1.0, 0, EVENT)])
    with pytest.raises(DatasetError, match=r"^record 0: exit time must exceed entry time"):
        dataset_of([(1.0, 1.0, 0, EVENT)])
    with pytest.raises(DatasetError, match="1-d columns of one length"):
        TrialDataset([0.0], [1.0, 2.0], [0], [EVENT])


def test_all_censored_dataset_has_no_batches():
    ds = parse_dataset("time,group,status\n1,0,censored\n2,1,0\n")
    assert rows_of(ds.stream) == []
    assert int((ds.status == EVENT).sum()) == 0


def _columns(stream):
    return [c.tolist() for c in (stream.times, stream.y1, stream.y0, stream.o, stream.o1)]


def test_round_trip_single_event_stream():
    stream = sample_single_event_stream(12, 9, 0.6, stream_rng(44, 0))
    ds = dataset_from_stream(stream)
    buf = io.StringIO()
    write_dataset(ds, buf)
    reparsed = parse_dataset(buf.getvalue())
    assert _columns(reparsed.stream) == _columns(stream)


def test_round_trip_tied_stream_with_censoring():
    tied = sample_tied_stream(20, 20, 0.8, 0.1, stream_rng(45, 1), horizon=8)
    ds = dataset_from_stream(tied)
    assert (ds.status == CENSORED).any()  # horizon truncates
    buf = io.StringIO()
    write_dataset(ds, buf)
    assert _columns(parse_dataset(buf.getvalue()).stream) == _columns(tied)


_LATE_ENTRIES = """\
entry,time,group,status
0,1,1,event
0,4,0,event
2,4,1,censored
2,5,1,event
0.1234567890123,3.75,0,censored
1e-3,2.5,1,1
0,6,0,0
"""


# Times are written as their shortest repr, so they read back as the same
# doubles; the digests were re-pinned when that replaced %.10g, which wrote
# 0.1234567890123 as 0.123456789 and every whole time without its ".0".
@pytest.mark.parametrize(
    "make,digest",
    [
        (
            lambda: dataset_from_stream(sample_single_event_stream(12, 9, 0.6, stream_rng(44, 0))),
            "bcddd6152d95fc67b9320871f88a8f4c9a3cdcc881e79801fb27da7513d368d2",
        ),
        (
            # the horizon leaves 9 + 6 at risk, written as a censored tail
            lambda: dataset_from_stream(
                sample_tied_stream(20, 20, 0.8, 0.1, stream_rng(45, 1), horizon=8)
            ),
            "762b645f269a7d061bb6cca0e1abc0181640e76a9e71bb9c190fea51a860af4f",
        ),
        (
            lambda: parse_dataset(_LATE_ENTRIES),
            "6444f8b6372c87dc5f72c307beab8eda5c5401f0b22549c9ba8882397bdb55bb",
        ),
    ],
    ids=["single-event-stream", "tied-stream-censored-tail", "parsed-late-entries"],
)
def test_written_datasets_are_pinned(make, digest):
    buf = io.StringIO()
    write_dataset(make(), buf)
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest


def test_written_times_read_back_as_the_same_doubles():
    # %.10g wrote both exits as 0.123456789: one tied batch of two events
    ds = TrialDataset([0.0, 0.0], [0.12345678901, 0.12345678904], [1, 0], [EVENT, EVENT])
    buf = io.StringIO()
    write_dataset(ds, buf)
    back = parse_dataset(buf.getvalue())
    assert back.exit.tolist() == [0.12345678901, 0.12345678904]
    assert back.stream.o.tolist() == [1, 1]


@pytest.mark.parametrize(
    "rows,message",
    [
        ("-0.5,1,0,event\n", "line 2: entry time must be nonnegative, got -0.5"),
        ("0,nan,0,event\n", "line 2: exit time must exceed entry time, got entry=0.0 exit=nan"),
        ("nan,1,0,event\n", "line 2: exit time must exceed entry time, got entry=nan exit=1.0"),
        ("0,inf,0,event\n", "line 2: exit time must be finite, got entry=0.0 exit=inf"),
        # with several bad lines, the first is named, whichever rule it breaks
        (
            "3,1,0,event\n0,1,2,event\n",
            "line 2: exit time must exceed entry time, got entry=3.0 exit=1.0",
        ),
        ("0,1,2,event\n3,1,0,event\n", "line 2: group must be 0 or 1, got '2'"),
        (
            "0,1,0,event\n3,1,0,event\n0,1,0\n",
            "line 3: exit time must exceed entry time, got entry=3.0 exit=1.0",
        ),
    ],
)
def test_record_errors_are_pinned(rows, message):
    with pytest.raises(DatasetError) as err:
        parse_dataset("entry,time,group,status\n" + rows)
    assert str(err.value) == message


def test_dataset_from_stream_rejects_inconsistent_stream():
    bad = stream_of([(2, 2, 1, 1), (2, 2, 1, 1)])  # risk did not shrink
    with pytest.raises(ValueError, match="not self-consistent"):
        dataset_from_stream(bad)
    with pytest.raises(ValueError):
        dataset_from_stream(stream_of([]))
    with pytest.raises(ValueError, match="strictly increasing"):
        dataset_from_stream(stream_of([(2, 2, 1, 1), (1, 2, 1, 1)], times=[1.0, 1.0]))


def test_group_sizes():
    ds = parse_dataset(CSV_BASIC)
    assert int((ds.group == 1).sum()) == 2
    assert int((ds.group == 0).sum()) == 2


def test_records_outside_their_own_risk_set_are_refused():
    # an event lies outside its own risk set only if its record has
    # entry >= exit, and such a record is refused when the columns are built
    with pytest.raises(DatasetError, match=r"^record 1: .* got entry=3\.0 exit=2\.0$"):
        TrialDataset([0.0, 3.0, 5.0], [1.0, 2.0, 4.0], [0, 1, 0], [EVENT] * 3)
    # enough at risk in total, but not in the event's own group
    with pytest.raises(DatasetError, match=r"^record 0: .* got entry=3\.0 exit=2\.0$"):
        TrialDataset([3.0, 0.0, 0.0], [2.0, 6.0, 6.0], [1, 0, 0], [EVENT, CENSORED, CENSORED])


@st.composite
def _records(draw):
    """A few ``(entry, exit, group, status)`` records on a coarse time grid:
    ties, censoring exactly at event times, late entries (sometimes at an
    event time) and one-group tails."""
    records = []
    for _ in range(draw(st.integers(1, 14))):
        k = draw(st.integers(1, 6))
        entry = draw(st.sampled_from([0, 0, 0, draw(st.integers(0, k - 1))]))
        group = draw(st.integers(0, 1))
        status = draw(st.sampled_from([EVENT, EVENT, CENSORED]))
        records.append((entry / 2, k / 2, group, status))
    return tuple(records)


_MIXED = (
    (0.0, 1.0, 1, EVENT),
    (0.0, 1.0, 0, EVENT),  # tie
    (0.0, 1.0, 0, CENSORED),  # censored at an event time
    (1.0, 2.0, 1, EVENT),  # enters at an event time
    (0.0, 2.5, 1, EVENT),
    (0.0, 3.0, 1, EVENT),  # only treatment left: forced
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(records=_records())
@example(records=_MIXED)
def test_event_stream_equals_reference_derivation(records):
    stream = dataset_of(records).stream
    assert (tuple(stream.times.tolist()), tuple(rows_of(stream))) == event_batches_reference(records)


# Field texts by column: valid ones, ones refused as text, and ones that
# break a record rule (a negative entry, a NaN or infinite exit, an exit not
# after its entry).  Some valid texts hold whitespace that only str.strip
# removes: a unit separator, a no-break space, an ideographic space.
_VALID = {
    "entry": ["0", "0", "0.5", "1", " 0 ", "1e-3", "0_1", "\u3000" + "0"],
    "time": ["2", "2", "2.5", "3", " 4 ", "1_0", "7e1", "\x1f" + "2", "3\xa0"],
    "group": ["0", "1", "\x1f" + "1", "1\xa0", "\u3000" + "0"],
    "status": ["1", "0", "event", "censored", "Event", "CENSORED", "eVeNt", "\x1f" + "1", "0\xa0",
               "\u3000" + "event"],
    "note": ["a", "b c", ""],
}
_REFUSED = {
    "entry": ["soon", "", "1..2"],
    "time": ["x", "", "1..2", "--1"],
    "group": ["2", "01", "x", ""],
    "status": ["maybe", "2", "", "events"],
}
_RULE_BREAKING = {"entry": ["-0.5", "nan", "5"], "time": ["inf", "nan", "0", "-1"]}


@st.composite
def _dataset_texts(draw):
    """A delimited text and the delimiter to force, or None: any column
    order, ``time`` or ``exit``, with or without ``entry`` and an extra
    column; a byte-order mark, CRLF and blank lines; rows with too few
    fields, extra fields, refused texts or broken record rules."""
    extra = draw(st.sampled_from([[], ["entry"], ["entry", "note"], ["note"]]))
    names = draw(st.permutations(["time", "group", "status"] + extra))
    delimiter, forced = draw(st.sampled_from([("\t", False), (",", False), (";", True), (" ", False)]))
    exit_name = draw(st.sampled_from(["time", "exit", "Time"]))
    lines = [delimiter.join(exit_name if n == "time" else n for n in names)]
    for _ in range(draw(st.integers(1, 8))):
        fields = [draw(st.sampled_from(_VALID[n])) for n in names]
        fault = draw(st.sampled_from([None] * 8 + ["short", "long", "refused", "refused", "rule"]))
        if fault == "short":
            fields.pop(draw(st.integers(0, len(fields) - 1)))
        elif fault == "long":
            fields.append("x")
        elif fault is not None:
            pool = _REFUSED if fault == "refused" else _RULE_BREAKING
            at = draw(st.sampled_from([i for i, n in enumerate(names) if n in pool]))
            fields[at] = draw(st.sampled_from(pool[names[at]]))
        lines.append(delimiter.join(fields))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    bom = draw(st.sampled_from(["", "", "", "", "", "\ufeff"]))
    text = bom + "".join(line + end for line, end in zip(lines, ends))
    return text, delimiter if forced else None


def _parsed(parse, text, delimiter):
    try:
        ds = parse(text, delimiter=delimiter)
    except DatasetError as err:
        return str(err)
    return [ds.entry, ds.exit, ds.group, ds.status]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=_dataset_texts())
@example(case=("entry,time,group,status\n3,1,0,event\n0,x,0,event\n", None))  # record fault first
@example(case=("entry,time,group,status\n0,x,0,event\n3,1,0,event\n", None))  # text fault first
@example(case=("entry,time,group,status\n0,1,0,event\n0,1,9\n", None))  # short row, bad group
@example(case=("entry,time,group,status\nx,y,9,maybe\n", None))  # exit is checked before entry
@example(case=("time;group;status;\r\n\r\n1;1;Event;;\n", ";"))
def test_parse_matches_the_row_by_row_reference(case):
    text, delimiter = case
    got = _parsed(parse_dataset, text, delimiter)
    want = _parsed(parse_dataset_reference, text, delimiter)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=_dataset_texts(), block=st.sampled_from([1, 2, 3]))
@example(case=("entry,time,group,status\n3,1,0,event\n0,x,0,event\n", None), block=1)
@example(case=("entry,time,group,status\n0,1,0,event\n\n0,1,9\n", None), block=1)
# one line of a block with an extra field: the block is split line by line
@example(case=("time,group,status\n1,0,event\n2,1,censored,x\n3,0,1\n", None), block=1)
@example(case=("time,group,status\n1,0,event\n2,1,censored,x\n3,0,1\n", None), block=2)
@example(case=("time\tgroup\tstatus\n1\t0\tevent\n2\t1\tcensored\n3\t0\t1\t\n", None), block=3)
# an extra field, then a missing one: the block holds as many fields as
# lines of the header's width would
@example(case=("time,group,status\n1,0,event,x\n2,1\n3,0,1\n", None), block=2)
@example(case=("time;group;status\n1;0;1\n1;0;event;;\n2;1\n", ";"), block=3)
# the same, where the shifted fields would all convert
@example(case=("note,time,group,status\na,1,0,event,x\n1,0,event\n", None), block=2)
def test_parse_in_blocks_matches_the_row_by_row_reference(case, block):
    # a body read a few lines at a time gives the columns and the error,
    # line number included, of one whole read: a record rule broken in a
    # block before a refused text still comes first
    text, delimiter = case
    with mock.patch.object(data, "_BLOCK_LINES", block):
        got = _parsed(parse_dataset, text, delimiter)
    want = _parsed(parse_dataset_reference, text, delimiter)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def test_read_dataset_memory_is_bounded_by_blocks(tmp_path):
    # 10k records as the benchmark's monitor workload writes them (repr
    # times, about 20% entering late, 0/1 group and status): the split
    # fields of one block of lines are held at a time, so the traced peak
    # stays near the text, its lines and the columns (4.9 MB when every
    # line was split at once)
    rng = np.random.default_rng(1)
    n = 10_000
    group = rng.permutation(np.arange(n) % 2)
    event = rng.exponential(1.0 / np.where(group == 1, 0.8, 1.0))
    censor = np.maximum(rng.exponential(1.0 / 0.39, n), event.min())
    exit_ = np.minimum(event, censor)
    entry = np.where(rng.random(n) < 0.2, exit_ * rng.uniform(0.05, 0.95, n), 0.0)
    columns = (entry.tolist(), exit_.tolist(), group.tolist(), (event <= censor).astype(int).tolist())
    path = tmp_path / "monitor-10k.csv"
    path.write_text("entry,exit,group,status\n" + "".join(map("%r,%r,%d,%d\n".__mod__, zip(*columns))))
    read_dataset(str(path))
    tracemalloc.start()
    try:
        ds = read_dataset(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.exit.size == n
    assert peak <= 3.4e6, peak


def _log(value: Fraction) -> float:
    return math.log(value.numerator) - math.log(value.denominator)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    records=_records(),
    theta1=st.sampled_from([0.25, 0.7, 1.6, 3.0]),
    theta0=st.sampled_from([1.0, 0.8]),
)
@example(records=_MIXED, theta1=0.5, theta0=1.0)
def test_vectorized_traces_match_rational_oracle(records, theta1, theta0):
    stream = dataset_of(records).stream
    left = right = Fraction(1)
    one_sided, two_sided = [], []
    for y1, y0, o, o1 in zip(*(a.tolist() for a in (stream.y1, stream.y0, stream.o, stream.o1))):
        left *= exact_increment(Fraction(theta1), Fraction(theta0), y1, y0, o, o1)
        right *= exact_increment(Fraction(1.0 / theta1), Fraction(theta0), y1, y0, o, o1)
        one_sided.append(_log(left))
        two_sided.append(_log((left + right) / 2))
    got = log_evalue_trace(stream, theta1, theta0)
    assert np.allclose(got, one_sided, rtol=0, atol=1e-12)
    got = log_evalue_trace(stream, theta1, theta0, two_sided=True)
    assert np.allclose(got, two_sided, rtol=0, atol=1e-12)
