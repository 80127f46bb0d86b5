"""The array-based loader, writer, resampler and synth emitter against the
row-at-a-time versions they replaced.

The references below are the original per-row code: `load_cohort` parsing
and checking one row at a time into per-patient dicts of timestamped
samples, `write_cohort` formatting one row at a time, `resample` with its
per-sample and per-slot loops, and synth building one rounded sample per
observation. The array code must give bit-identical records, series and
bytes, and the same error class and message (line number included) on
corrupted input.
"""

import csv
import math
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vitalnet import data
from vitalnet.data import CSV_HEADER, PatientRecord, load_cohort, resample, write_cohort
from vitalnet.errors import ParseError, ValidationError
from vitalnet.synth import _patient_record, _round2

UTC = timezone.utc
T0 = datetime(2020, 3, 21, tzinfo=UTC)
SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


# ---------------------------------------------------------------------------
# Reference implementations (the per-row code)
# ---------------------------------------------------------------------------


def ref_parse_timestamp(raw, line_no):
    try:
        ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError:
        raise ParseError(f"line {line_no}: bad timestamp {raw!r}") from None
    if ts.tzinfo is None:
        raise ParseError(f"line {line_no}: timestamp {raw!r} lacks a UTC offset")
    return ts.astimezone(timezone.utc)


def ref_parse_float(raw, name, line_no):
    try:
        v = float(raw)
    except ValueError:
        raise ParseError(f"line {line_no}: non-numeric {name} {raw!r}") from None
    if not math.isfinite(v):
        raise ParseError(f"line {line_no}: non-finite {name} {raw!r}")
    return v


def ref_parse_int(raw, name, line_no):
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"line {line_no}: non-integer {name} {raw!r}") from None


def ref_load_cohort(path):
    """[(pid, age, label, [(timestamp, hr, sbp, dbp), ...]), ...]"""
    per_patient = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header == CSV_HEADER
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise ParseError(f"line {line_no}: expected {len(CSV_HEADER)} fields")
            pid, ts_raw, hr_raw, sbp_raw, dbp_raw, age_raw, label_raw = row
            ts = ref_parse_timestamp(ts_raw, line_no)
            hr = ref_parse_float(hr_raw, "hr", line_no)
            sbp = ref_parse_float(sbp_raw, "sbp", line_no)
            dbp = ref_parse_float(dbp_raw, "dbp", line_no)
            age = ref_parse_int(age_raw, "age", line_no)
            label = ref_parse_int(label_raw, "label", line_no)
            if dbp >= sbp:
                raise ValidationError(f"line {line_no}: dbp ({dbp}) must be < sbp ({sbp})")
            if min(hr, sbp, dbp) <= 0:
                raise ValidationError(f"line {line_no}: vitals must be > 0")
            if label not in (0, 1):
                raise ValidationError(f"line {line_no}: label must be 0 or 1")
            entry = per_patient.setdefault(pid, {"age": age, "label": label, "rows": {}})
            if entry["age"] != age or entry["label"] != label:
                raise ValidationError(
                    f"line {line_no}: patient {pid} has inconsistent age/label"
                )
            if ts in entry["rows"]:
                raise ValidationError(
                    f"line {line_no}: duplicate timestamp {ts_raw} for patient {pid}"
                )
            entry["rows"][ts] = (hr, sbp, dbp)
    patients = []
    for pid, entry in per_patient.items():
        if not 21 <= entry["age"] <= 100:  # the record's own check
            raise ValidationError(f"age must be in [21, 100], got {entry['age']}")
        samples = [(ts, *v) for ts, v in sorted(entry["rows"].items())]
        patients.append((pid, entry["age"], entry["label"], samples))
    return patients


def ref_write_cohort(patients, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for pid, age, label, samples in patients:
            for ts, hr, sbp, dbp in samples:
                stamp = ts.astimezone(UTC).strftime("%Y-%m-%dT%H:%M:%SZ")
                writer.writerow([pid, stamp, repr(hr), repr(sbp), repr(dbp), age, label])


def ref_resample(samples, step):
    start = samples[0][0]
    last = samples[-1][0]
    n_slots = int((last - start) / step) + 1
    sums = np.zeros((n_slots, 3))
    counts = np.zeros(n_slots)
    for ts, hr, sbp, dbp in samples:
        idx = int((ts - start) / step)
        sums[idx] += (hr, sbp, dbp)
        counts[idx] += 1
    values = np.full((n_slots, 3), np.nan)
    filled = counts > 0
    values[filled] = sums[filled] / counts[filled, None]
    last_seen = None
    for t in range(n_slots):
        if filled[t]:
            last_seen = values[t]
        elif last_seen is not None:
            values[t] = last_seen
    nxt = None
    for t in range(n_slots - 1, -1, -1):
        if np.isfinite(values[t]).all():
            nxt = values[t]
        elif nxt is not None:
            values[t] = nxt
    return values


def ref_synth_samples(start_minute, cadence_min, channels):
    start = T0 + timedelta(minutes=float(start_minute))
    return [
        (
            start + timedelta(minutes=cadence_min * k),
            round(float(channels["hr"][k]), 2),
            round(float(channels["sbp"][k]), 2),
            round(float(channels["dbp"][k]), 2),
        )
        for k in range(len(channels["hr"]))
    ]


# ---------------------------------------------------------------------------
# Helpers and strategies
# ---------------------------------------------------------------------------


def to_datetime64(ts: datetime) -> np.datetime64:
    return np.datetime64(ts.astimezone(UTC).replace(tzinfo=None), "us")


def assert_same_record(record, ref):
    pid, age, label, samples = ref
    assert (record.patient_id, record.age, record.label) == (pid, age, label)
    assert record.times.tolist() == [to_datetime64(s[0]).item() for s in samples]
    expected = np.array([s[1:] for s in samples], dtype=float)
    assert record.values.tobytes() == expected.tobytes()


vital_rows = st.tuples(
    st.floats(30, 200),  # hr
    st.floats(100, 220),  # sbp
    st.floats(20, 99),  # dbp, always below sbp
)
# several samples in one slot (seconds apart) and gaps of several hours
gaps_us = st.one_of(
    st.integers(1, 600 * 10**6),
    st.integers(1, 12 * 3600 * 10**6),
    st.integers(0, 6).map(lambda h: h * 3600 * 10**6 + 1),
)


@st.composite
def irregular_series(draw):
    n = draw(st.integers(1, 60))
    offsets = np.cumsum([0] + draw(st.lists(gaps_us, min_size=n - 1, max_size=n - 1)))
    rows = draw(st.lists(vital_rows, min_size=n, max_size=n))
    return [int(o) for o in offsets], rows


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
    half the files write every timestamp in the canonical '...Z' form."""
    forms = draw(st.sampled_from([["Z"], STAMP_FORMS]))
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
            hr, sbp, dbp = draw(vital_rows)
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


def canonical(rows):
    return all(len(r[1]) == 20 and r[1].endswith("Z") for r in rows)


def outcome(fn, path):
    try:
        return "ok", fn(path)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# resample
# ---------------------------------------------------------------------------


class TestResampleOracle:
    @SETTINGS
    @given(series=irregular_series())
    def test_bit_equal(self, series):
        offsets, rows = series
        times = [T0 + timedelta(microseconds=o) for o in offsets]
        record = PatientRecord("p", 50, 0, [to_datetime64(t) for t in times], rows)
        got = resample(record)
        want = ref_resample([(t, *r) for t, r in zip(times, rows)], timedelta(hours=1))
        assert got.values.shape == want.shape
        assert got.values.tobytes() == want.tobytes()

    def test_many_samples_per_slot_and_long_gap(self):
        times = [T0 + timedelta(minutes=m) for m in (0, 1, 2, 59, 60, 61, 600, 601)]
        rows = [(60.0 + i, 120.0 + i, 70.0 - i) for i in range(len(times))]
        record = PatientRecord("p", 50, 0, [to_datetime64(t) for t in times], rows)
        got = resample(record).values
        want = ref_resample([(t, *r) for t, r in zip(times, rows)], timedelta(hours=1))
        assert got.tobytes() == want.tobytes()
        assert len(got) == 11 and (got[2:10] == got[1]).all()


# ---------------------------------------------------------------------------
# load_cohort / write_cohort
# ---------------------------------------------------------------------------


class TestLoadOracle:
    @SETTINGS
    @given(rows=cohort_rows(), chunk=st.integers(1, 9), blank_every=st.sampled_from([0, 0, 4]))
    def test_same_records_and_bytes(self, tmp_path, rows, chunk, blank_every):
        path = tmp_path / "c.csv"
        write_rows(path, rows, blank_every)
        ref = ref_load_cohort(path)
        with mock.patch.object(data, "_CHUNK_ROWS", chunk), mock.patch.object(
            data, "_row_error", wraps=data._row_error
        ) as row_error, mock.patch.object(
            data, "_parse_timestamp", wraps=data._parse_timestamp
        ) as parse_timestamp:
            cohort = load_cohort(path)
        # valid files never need the per-row checker; other stamp forms are
        # parsed one at a time
        assert not row_error.called
        assert parse_timestamp.called == (not canonical(rows))
        assert len(cohort) == len(ref)
        for record, want in zip(cohort.patients, ref):
            assert_same_record(record, want)
        out, ref_out = tmp_path / "out.csv", tmp_path / "ref.csv"
        write_cohort(cohort, out)
        ref_write_cohort(ref, ref_out)
        assert out.read_bytes() == ref_out.read_bytes()

    def test_default_chunk_size_spans_blocks(self, tmp_path):
        # more rows than one block, with a patient crossing the block boundary
        n = data._CHUNK_ROWS + 10
        rows = [["A" if i < n - 20 else "B", format_stamp(T0 + timedelta(minutes=i), "Z"),
                 "80.5", "120.25", "70.0", "50", "1"] for i in range(n)]
        path = tmp_path / "c.csv"
        write_rows(path, rows[::-1])
        cohort = load_cohort(path)
        for record, want in zip(cohort.patients, ref_load_cohort(path)):
            assert_same_record(record, want)


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


class TestLoadErrorsOracle:
    @SETTINGS
    @given(
        rows=cohort_rows(),
        edits=st.lists(
            st.tuples(st.sampled_from(CORRUPTIONS), st.integers(0, 10**6), st.integers(0, 10**6)),
            min_size=1,
            max_size=3,
        ),
        chunk=st.sampled_from([1, 3, 8192]),
    )
    def test_same_error(self, tmp_path, rows, edits, chunk):
        valid, rows = rows, list(rows)
        for kind, at, other in edits:  # the last edit of a row wins
            rows[at % len(rows)] = corrupt(valid[at % len(rows)], kind, valid[other % len(rows)])
        path = tmp_path / "c.csv"
        write_rows(path, rows)
        want = outcome(ref_load_cohort, path)
        with mock.patch.object(data, "_CHUNK_ROWS", chunk):
            got = outcome(load_cohort, path)
        if want[0] == "ok":
            assert got[0] == "ok"
            for record, ref in zip(got[1].patients, want[1]):
                assert_same_record(record, ref)
        else:
            assert got == want

    @pytest.mark.parametrize("kind", [k for k in CORRUPTIONS if k != "trailing_nul"])
    def test_each_corruption_names_its_line(self, tmp_path, kind):
        rows = [["P0", format_stamp(T0 + timedelta(hours=h), "Z"), "80.0", "120.0", "70.0",
                 "50", "1"] for h in range(6)]
        rows[4] = corrupt(rows[4], kind, rows[1])
        path = tmp_path / "c.csv"
        write_rows(path, rows)
        want = outcome(ref_load_cohort, path)
        assert want[0] in (ParseError, ValidationError) and "line 6" in want[1]
        assert outcome(load_cohort, path) == want

    def test_trailing_nul_is_not_canonical(self, tmp_path):
        # `datetime.fromisoformat` accepts a trailing NUL, which NumPy's
        # string arrays would drop; such a stamp is parsed on its own
        rows = [["P0", format_stamp(T0 + timedelta(hours=h), "Z") + "\x00" * (h == 1),
                 "80.0", "120.0", "70.0", "50", "1"] for h in range(3)]
        path = tmp_path / "c.csv"
        write_rows(path, rows)
        with mock.patch.object(data, "_parse_timestamp", wraps=data._parse_timestamp) as parse:
            cohort = load_cohort(path)
        assert rows[1][1] in [c.args[0] for c in parse.call_args_list]
        assert_same_record(cohort.patients[0], ref_load_cohort(path)[0])

    def test_age_out_of_range_after_parse(self, tmp_path):
        rows = [["P0", format_stamp(T0 + timedelta(hours=h), "Z"), "80.0", "120.0", "70.0",
                 "10", "1"] for h in range(3)]
        path = tmp_path / "c.csv"
        write_rows(path, rows)
        want = (ValidationError, "age must be in [21, 100], got 10")
        assert outcome(ref_load_cohort, path) == outcome(load_cohort, path) == want


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

# decimal ties such as 80.125 (k/1000 with k odd in the last place), where
# NumPy's scale-and-round and Python's round can disagree
tie_floats = st.integers(20_000, 250_000).map(lambda k: k / 1000)


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
        record = _patient_record("SYN-0-000", 50, 1, start_minute, cadence, channels)
        assert_same_record(
            record, ("SYN-0-000", 50, 1, ref_synth_samples(start_minute, cadence, channels))
        )
