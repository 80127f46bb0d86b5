"""The array-based loader, writer, resampler and synth emitter against the
row-at-a-time references they replaced.

The references are the per-row code: the cohort reader, writer and
resampler of `cohort_ref.py`, and synth building one rounded sample per
observation. The array code must give bit-identical records, series and
bytes, and the same error class and message (line number included) on
corrupted input.
"""

import re
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cohort_ref import (Patient, assert_same_outcome, assert_same_patients, irregular_series,
                        outcome, ref_load_rows, ref_resample, ref_write_cohort,
                        unchecked_records, vital_rows)
from vitalnet import data
from vitalnet.data import CSV_HEADER, PatientRecord, load_cohort, resample, write_cohort
from vitalnet.errors import ParseError, ValidationError
from vitalnet.synth import _patient_record, _round2

UTC = timezone.utc
CHUNKS = [1, 7, 64, data._CHUNK_BYTES]  # bytes per read of the byte path
T0 = datetime(2020, 3, 21, tzinfo=UTC)
SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


# ---------------------------------------------------------------------------
# Helpers and strategies
# ---------------------------------------------------------------------------


def to_datetime64(ts: datetime) -> np.datetime64:
    return np.datetime64(ts.astimezone(UTC).replace(tzinfo=None), "us")


def as_patient(pid, age, label, samples) -> Patient:
    """(datetime, hr, sbp, dbp) samples as a reference patient."""
    return Patient(pid, age, label, np.array([to_datetime64(s[0]) for s in samples]),
                   np.array([s[1:] for s in samples], dtype=float))


STAMP_FORMS = ["Z", "+00:00", "+05:30", "-03:00", "frac", "fracZ"]


def format_stamp(ts: datetime, form: str) -> str:
    """The same UTC instant written in one of several ISO-8601 forms."""
    if form == "Z":
        return ts.strftime("%Y-%m-%dT%H:%M:%SZ")
    if form.startswith("frac"):
        body = ts.strftime("%Y-%m-%dT%H:%M:%S") + f".{ts.microsecond:06d}"
        return body + ("Z" if form == "fracZ" else "+00:00")
    hours, minutes = int(form[1:3]), int(form[4:6])
    offset = timedelta(hours=hours, minutes=minutes) * (1 if form[0] == "+" else -1)
    return (ts + offset).replace(tzinfo=timezone(offset)).isoformat()


@st.composite
def cohort_rows(draw):
    """Rows of a valid cohort CSV (header excluded), in a shuffled order;
    half the files write every timestamp in the canonical '...Z' form, and
    half write vitals rounded to hundredths, as synth does."""
    forms = draw(st.sampled_from([["Z"], STAMP_FORMS]))
    vitals = draw(st.sampled_from([vital_rows, vital_rows.map(lambda r: [round(v, 2) for v in r])]))
    rows = []
    for i in range(draw(st.integers(1, 4))):
        pid = f"P{i}"
        age, label = draw(st.integers(21, 100)), draw(st.integers(0, 1))
        seconds = draw(st.lists(st.integers(0, 3 * 86400), min_size=1, max_size=25, unique=True))
        for s in seconds:
            micro = draw(st.sampled_from([0, 0, 500000, 123456]))
            form = draw(st.sampled_from(forms))
            if micro and not form.startswith("frac"):
                micro = 0
            ts = T0 + timedelta(seconds=s, microseconds=micro)
            hr, sbp, dbp = draw(vitals)
            rows.append([pid, format_stamp(ts, form), repr(hr), repr(sbp), repr(dbp),
                         str(age), str(label)])
    return draw(st.permutations(rows))


def write_rows(path, rows, blank_every=0):
    lines = [",".join(CSV_HEADER)]
    for i, row in enumerate(rows):
        if blank_every and i % blank_every == 0:
            lines.append("")
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def on_byte_path(rows):
    """Whether the byte path reads every row: canonical stamps, and vitals
    of at most 8 bytes, digits with at most one point between them."""
    return all(len(r[1]) == 20 and r[1].endswith("Z")
               and all(re.fullmatch(r"(?=.{1,8}$)\d+(\.\d+)?", v) for v in r[2:5]) for r in rows)


# ---------------------------------------------------------------------------
# resample
# ---------------------------------------------------------------------------


def grids(times, rows):
    """`resample`'s grid and the reference's of one patient's datetimes and rows."""
    got = resample(PatientRecord("p", 50, 0, [to_datetime64(t) for t in times], rows)).values
    return got, ref_resample([(t, *r) for t, r in zip(times, rows)], timedelta(hours=1))


class TestResampleOracle:
    @SETTINGS
    @given(series=irregular_series())
    def test_bit_equal(self, series):
        offsets, rows = series
        got, want = grids([T0 + timedelta(microseconds=o) for o in offsets], rows)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_every_slot_filled(self):
        # two samples in each of 30 slots: no slot is forward-filled
        times = [T0 + timedelta(minutes=30 * i + 7) for i in range(60)]
        rows = [(60.0 + i * 0.37, 120.0 + i * 0.11, 70.0 - i * 0.23) for i in range(60)]
        got, want = grids(times, rows)
        assert got.shape == (30, 3) and got.tobytes() == want.tobytes()

    def test_many_samples_per_slot_and_long_gap(self):
        times = [T0 + timedelta(minutes=m) for m in (0, 1, 2, 59, 60, 61, 600, 601)]
        rows = [(60.0 + i, 120.0 + i, 70.0 - i) for i in range(len(times))]
        got, want = grids(times, rows)
        assert got.tobytes() == want.tobytes()
        assert len(got) == 11 and (got[2:10] == got[1]).all()


# ---------------------------------------------------------------------------
# load_cohort / write_cohort
# ---------------------------------------------------------------------------


class TestLoadOracle:
    @SETTINGS
    @given(rows=cohort_rows(), chunk=st.sampled_from(CHUNKS),
           blank_every=st.sampled_from([0, 0, 4]))
    def test_same_records_and_bytes(self, tmp_path, rows, chunk, blank_every):
        path = tmp_path / "c.csv"
        write_rows(path, rows, blank_every)
        ref = ref_load_rows(path)
        with mock.patch.object(data, "_CHUNK_BYTES", chunk), mock.patch.object(
            data, "_row_error", wraps=data._row_error
        ) as row_error, mock.patch.object(
            data, "_parse_timestamp", wraps=data._parse_timestamp
        ) as parse_timestamp:
            cohort = load_cohort(path)
        # valid files never need the per-row checker; the row path parses
        # each stamp on its own
        assert not row_error.called
        assert parse_timestamp.called == (not on_byte_path(rows))
        assert_same_patients(cohort.patients, ref)
        out, ref_out = tmp_path / "out.csv", tmp_path / "ref.csv"
        write_cohort(cohort, out)
        ref_write_cohort(ref, ref_out)
        assert out.read_bytes() == ref_out.read_bytes()

    def test_default_chunk_size_spans_blocks(self, tmp_path):
        # rows of about 45 bytes, more than one read holds, with a patient
        # crossing the end of the first read
        n = data._CHUNK_BYTES // 40
        rows = [["A" if i < n - 20 else "B", format_stamp(T0 + timedelta(minutes=i), "Z"),
                 "80.5", "120.25", "70.0", "50", "1"] for i in range(n)]
        path = tmp_path / "c.csv"
        write_rows(path, rows[::-1])
        cohort = load_cohort(path)
        assert_same_patients(cohort.patients, ref_load_rows(path))


def corrupt(row, kind, other):
    """Apply one corruption to a copy of a valid row. `other` is another row
    of the file, used for duplicates and age/label clashes."""
    row = list(row)
    if kind == "bad_timestamp":
        row[1] = "2020-13-45T00:00:00Z"
    elif kind == "garbage_timestamp":
        row[1] = "not-a-time"
    elif kind == "year_zero":
        row[1] = "0000-01-01T00:00:00Z"
    elif kind == "trailing_nul":
        row[1] += "\x00"
    elif kind == "naive_timestamp":
        row[1] = row[1][:19]
    elif kind == "non_numeric":
        row[2] = "eighty"
    elif kind == "non_finite":
        row[3] = "inf"
    elif kind == "nan":
        row[4] = "nan"
    elif kind == "dbp_ge_sbp":
        row[3], row[4] = row[4], row[3]
    elif kind == "non_positive":
        row[2] = "-1.0"
    elif kind == "fields":
        row = row[:-1]
    elif kind == "label":
        row[6] = "2"
    elif kind == "non_integer_age":
        row[5] = "55.0"
    elif kind == "age_range":
        row[5] = "10"
    elif kind == "inconsistent":
        row[0], row[5] = other[0], str(int(other[5]) % 100 + 1)
        row[6] = other[6]
    elif kind == "duplicate":
        # the same UTC instant as `other`, written with a different offset
        row[0], row[5], row[6] = other[0], other[5], other[6]
        ts = datetime.fromisoformat(other[1].replace("Z", "+00:00"))
        row[1] = format_stamp(ts.astimezone(UTC), "-03:00")
    return row


CORRUPTIONS = [
    "bad_timestamp", "garbage_timestamp", "year_zero", "trailing_nul", "naive_timestamp", "non_numeric", "non_finite",
    "nan", "dbp_ge_sbp", "non_positive", "fields", "label", "non_integer_age", "age_range",
    "inconsistent", "duplicate",
]


def corrupted_file(tmp_path, kind):
    """Six hourly rows of one patient, the fifth (line 6) corrupted by `kind`."""
    rows = [["P0", format_stamp(T0 + timedelta(hours=h), "Z"), "80.0", "120.0", "70.0",
             "50", "1"] for h in range(6)]
    rows[4] = corrupt(rows[4], kind, rows[1])
    path = tmp_path / "c.csv"
    write_rows(path, rows)
    return path


class TestLoadErrorsOracle:
    @SETTINGS
    @given(
        rows=cohort_rows(),
        edits=st.lists(
            st.tuples(st.sampled_from(CORRUPTIONS), st.integers(0, 10**6), st.integers(0, 10**6)),
            min_size=1,
            max_size=3,
        ),
        chunk=st.sampled_from(CHUNKS),
    )
    def test_same_error(self, tmp_path, rows, edits, chunk):
        valid, rows = rows, list(rows)
        for kind, at, other in edits:  # the last edit of a row wins
            rows[at % len(rows)] = corrupt(valid[at % len(rows)], kind, valid[other % len(rows)])
        path = tmp_path / "c.csv"
        write_rows(path, rows)
        want = outcome(ref_load_rows, path)
        with mock.patch.object(data, "_CHUNK_BYTES", chunk):
            assert_same_outcome(outcome(load_cohort, path), want)

    @pytest.mark.parametrize("kind", [k for k in CORRUPTIONS if k != "trailing_nul"])
    def test_each_corruption_names_its_line(self, tmp_path, kind):
        path = corrupted_file(tmp_path, kind)
        want = outcome(ref_load_rows, path)
        assert want[0] in (ParseError, ValidationError) and "line 6" in want[1]
        for chunk in CHUNKS:
            with mock.patch.object(data, "_CHUNK_BYTES", chunk):
                assert outcome(load_cohort, path) == want, chunk

    @pytest.mark.parametrize("kind", CORRUPTIONS)
    def test_reference_states_every_rule_itself(self, tmp_path, kind):
        # the reference reads each file the same when the records check nothing
        path = corrupted_file(tmp_path, kind)
        want = outcome(ref_load_rows, path)
        with unchecked_records():
            assert_same_outcome(outcome(ref_load_rows, path), want)

    def test_trailing_nul_is_not_canonical(self, tmp_path):
        # `datetime.fromisoformat` accepts a trailing NUL; the byte path
        # gives up on a stamp of 21 bytes, and the row path parses each
        # stamp on its own
        rows = [["P0", format_stamp(T0 + timedelta(hours=h), "Z") + "\x00" * (h == 1),
                 "80.0", "120.0", "70.0", "50", "1"] for h in range(3)]
        path = tmp_path / "c.csv"
        write_rows(path, rows)
        with mock.patch.object(data, "_row_columns", wraps=data._row_columns) as row_path, \
                mock.patch.object(data, "_parse_timestamp", wraps=data._parse_timestamp) as parse:
            cohort = load_cohort(path)
        assert row_path.called
        assert rows[1][1] in [c.args[0] for c in parse.call_args_list]
        assert_same_patients(cohort.patients, ref_load_rows(path))

    def test_age_out_of_range_after_parse(self, tmp_path):
        rows = [["P0", format_stamp(T0 + timedelta(hours=h), "Z"), "80.0", "120.0", "70.0",
                 "10", "1"] for h in range(3)]
        path = tmp_path / "c.csv"
        write_rows(path, rows)
        want = (ValidationError, "age must be in [21, 100], got 10")
        assert outcome(ref_load_rows, path) == outcome(load_cohort, path) == want


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

# decimal ties such as 80.125 (k/1000 with k odd in the last place), where
# NumPy's scale-and-round and Python's round can disagree
tie_floats = st.integers(20_000, 250_000).map(lambda k: k / 1000)


# hundredths (the block writer's arithmetic path) and other floats (its
# repr path), in years 1000-9999 (test_data_text's writer cohorts reach
# years 0 and 10000)
writer_values = st.one_of(st.integers(1, 10**6).map(lambda k: k / 100), st.floats(1e-3, 1e14))
writer_starts = [datetime(1000, 1, 1, tzinfo=UTC), datetime(1969, 12, 31, 23, 59, 58, 500001,
                 tzinfo=UTC), T0, datetime(9999, 12, 31, tzinfo=UTC)]


class TestWriteOracle:
    """The block writer against the row-at-a-time writer, on and off its fast path."""

    @SETTINGS
    @given(
        chunk=st.integers(1, 9),
        patients=st.lists(st.tuples(
            st.sampled_from(writer_starts),
            st.lists(st.tuples(st.integers(1, 10**6) | st.integers(1, 3600 * 10**6),
                               writer_values, writer_values, writer_values),
                     min_size=1, max_size=8),
        ), min_size=1, max_size=3),
    )
    def test_same_bytes_as_row_writer(self, tmp_path, chunk, patients):
        ref = []
        for i, (start, rows) in enumerate(patients):
            ts = start + timedelta(microseconds=1) * np.cumsum([row[0] for row in rows])
            samples = [(t, hr, max(a, b), min(a, b) if a != b else a / 2)
                       for t, (_, hr, a, b) in zip(ts, rows)]
            ref.append(as_patient(f"P{i}", 21 + i, i % 2, samples))
        cohort = data.Cohort([PatientRecord(*p) for p in ref])
        with mock.patch.object(data, "_CHUNK_ROWS", chunk):
            write_cohort(cohort, tmp_path / "new.csv")
        ref_write_cohort(ref, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def ref_synth_samples(start_minute, cadence_min, channels):
    """Synth's samples built one at a time: a datetime and three rounded vitals."""
    start = T0 + timedelta(minutes=float(start_minute))
    return [(start + timedelta(minutes=cadence_min * k),
             *(round(float(channels[v][k]), 2) for v in ("hr", "sbp", "dbp")))
            for k in range(len(channels["hr"]))]


class TestSynthOracle:
    @SETTINGS
    @given(x=st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True), tie_floats,
                                st.floats(-1e8, 1e8)), min_size=1, max_size=40))
    def test_round2_is_python_round(self, x):
        got = _round2(np.array(x, dtype=float))
        want = np.array([round(v, 2) for v in x], dtype=float)
        assert np.array_equal(got, want, equal_nan=True)
        assert (np.signbit(got) == np.signbit(want)).all()

    @SETTINGS
    @given(
        start_minute=st.integers(0, 90 * 24 * 60 - 1),
        cadence=st.integers(1, 120),
        rows=st.lists(
            st.tuples(st.one_of(st.floats(30, 200), tie_floats.filter(lambda v: v <= 200)),
                      st.one_of(st.floats(100, 250), tie_floats.filter(lambda v: v >= 100)),
                      st.floats(20, 89.99)),
            min_size=1,
            max_size=50,
        ),
    )
    def test_record_matches_per_sample_build(self, start_minute, cadence, rows):
        channels = {v: np.array(col) for v, col in zip(("hr", "sbp", "dbp"), zip(*rows))}
        record = _patient_record("SYN-0-000", 50, 1, start_minute, cadence, np.array(rows))
        want = as_patient("SYN-0-000", 50, 1, ref_synth_samples(start_minute, cadence, channels))
        assert_same_patients([record], [want])
