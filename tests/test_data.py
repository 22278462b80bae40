"""Dataset parsing, risk-set derivation, and the simulator round-trip."""

from __future__ import annotations

import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from safelogrank.core import EventBatch, RiskSet, log_evalue_trace
from safelogrank.data import (
    CENSORED,
    EVENT,
    DatasetError,
    SurvivalRecord,
    TrialDataset,
    dataset_from_stream,
    parse_dataset,
    write_dataset,
)
from safelogrank.simulate import sample_single_event_stream, sample_tied_stream, stream_rng

from oracles import event_batches_reference, exact_increment, stream_of

CSV_BASIC = """\
time,group,status
1.0,1,event
2.0,0,event
3.0,1,censored
4.0,0,event
"""


def test_parse_basic_csv():
    ds = parse_dataset(CSV_BASIC)
    assert len(ds.records) == 4
    assert ds.n_events == 3
    batches = ds.batches
    assert ds.event_times == (1.0, 2.0, 4.0)
    assert batches[0] == EventBatch(risk=RiskSet(2, 2), o=1, o1=1)
    assert batches[1] == EventBatch(risk=RiskSet(1, 2), o=1, o1=0)
    # the record censored at 3.0 has left the risk set by 4.0
    assert batches[2] == EventBatch(risk=RiskSet(0, 1), o=1, o1=0)


def test_tied_events_pool_into_one_batch():
    text = "time,group,status\n2,1,1\n2,0,1\n5,0,0\n5,1,0\n"
    ds = parse_dataset(text)
    assert ds.event_times == (2.0,)
    assert ds.batches == (EventBatch(risk=RiskSet(2, 2), o=2, o1=1),)


def test_censoring_tie_at_event_time_counts_in_risk_set():
    # censored exactly at the event time: still at risk for that event
    text = "time,group,status\n3,1,event\n3,0,censored\n"
    ds = parse_dataset(text)
    assert ds.batches == (EventBatch(risk=RiskSet(1, 1), o=1, o1=1),)


def test_left_truncated_entry_joins_late():
    text = "entry,time,group,status\n0,1,1,event\n0,4,0,event\n2,4,1,censored\n2,5,1,event\n"
    ds = parse_dataset(text)
    batches = ds.batches
    assert ds.event_times == (1.0, 4.0, 5.0)
    # at t=1 the late entrants (entry=2) are not yet at risk
    assert batches[0].risk == RiskSet(1, 1)
    # at t=4 both have joined; one is censored exactly there and still counts
    assert batches[1].risk == RiskSet(2, 1)
    assert batches[2].risk == RiskSet(1, 0)


def test_tab_delimiter_autodetected_and_forcible():
    text = "time\tgroup\tstatus\n1\t1\t1\n2\t0\t0\n"
    assert parse_dataset(text).n_events == 1
    semi = "time;group;status\n1;1;1\n"
    assert parse_dataset(semi, delimiter=";").n_events == 1


def test_header_synonym_exit():
    text = "exit,group,status\n1.5,0,event\n"
    assert parse_dataset(text).event_times == (1.5,)


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
    with pytest.raises(DatasetError):
        SurvivalRecord(exit=1.0, group=2, status=EVENT)
    with pytest.raises(DatasetError):
        SurvivalRecord(exit=1.0, group=0, status=5)
    with pytest.raises(DatasetError):
        SurvivalRecord(exit=1.0, group=0, status=EVENT, entry=-0.5)
    with pytest.raises(DatasetError):
        SurvivalRecord(exit=1.0, group=0, status=EVENT, entry=1.0)


def test_all_censored_dataset_has_no_batches():
    ds = parse_dataset("time,group,status\n1,0,censored\n2,1,0\n")
    assert ds.batches == ()
    assert ds.n_events == 0


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
    assert any(r.status == CENSORED for r in ds.records)  # horizon truncates
    buf = io.StringIO()
    write_dataset(ds, buf)
    assert _columns(parse_dataset(buf.getvalue()).stream) == _columns(tied)


def test_dataset_from_stream_rejects_inconsistent_stream():
    bad = stream_of([(2, 2, 1, 1), (2, 2, 1, 1)])  # risk did not shrink
    with pytest.raises(ValueError, match="not self-consistent"):
        dataset_from_stream(bad)
    with pytest.raises(ValueError):
        dataset_from_stream(stream_of([]))


def test_group_sizes():
    ds = parse_dataset(CSV_BASIC)
    assert ds.group_size(1) == 2
    assert ds.group_size(0) == 2


def test_short_risk_set_names_the_first_offending_time():
    # records that skip validation: each is absent from its own event's risk set
    early = SurvivalRecord(exit=1.0, group=0, status=EVENT)
    late = SurvivalRecord(exit=2.0, group=1, status=EVENT)
    later = SurvivalRecord(exit=4.0, group=0, status=EVENT)
    object.__setattr__(late, "entry", 3.0)
    object.__setattr__(later, "entry", 5.0)
    with pytest.raises(DatasetError, match=r"^event at time 2\.0 with only 0 at risk"):
        TrialDataset(records=(early, late, later)).stream
    # enough at risk in total, but not in the event's own group
    control = SurvivalRecord(exit=6.0, group=0, status=CENSORED)
    with pytest.raises(DatasetError, match=r"^event at time 2\.0 .*\(0 treatment, 2 control\)"):
        TrialDataset(records=(late, control, control)).stream


@st.composite
def _records(draw):
    """A few records on a coarse time grid: ties, censoring exactly at event
    times, late entries (sometimes at an event time) and one-group tails."""
    records = []
    for _ in range(draw(st.integers(1, 14))):
        k = draw(st.integers(1, 6))
        entry = draw(st.sampled_from([0, 0, 0, draw(st.integers(0, k - 1))]))
        records.append(
            SurvivalRecord(
                exit=k / 2,
                group=draw(st.integers(0, 1)),
                status=draw(st.sampled_from([EVENT, EVENT, CENSORED])),
                entry=entry / 2,
            )
        )
    return tuple(records)


_MIXED = (
    SurvivalRecord(exit=1.0, group=1, status=EVENT),
    SurvivalRecord(exit=1.0, group=0, status=EVENT),  # tie
    SurvivalRecord(exit=1.0, group=0, status=CENSORED),  # censored at an event time
    SurvivalRecord(exit=2.0, group=1, status=EVENT, entry=1.0),  # enters at an event time
    SurvivalRecord(exit=2.5, group=1, status=EVENT),
    SurvivalRecord(exit=3.0, group=1, status=EVENT),  # only treatment left: forced
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(records=_records())
@example(records=_MIXED)
def test_event_stream_equals_reference_derivation(records):
    ds = TrialDataset(records=records)
    assert (ds.event_times, ds.batches) == event_batches_reference(records)


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
    stream = TrialDataset(records=records).stream
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
