"""The row-at-a-time reference for the cohort CSV, written from its schema.

`ref_load_rows` reads a file with `csv.reader` and applies every row rule in
file order (the field count, each field's parse, dbp < sbp, vitals > 0, a
0/1 label, one age and label per patient, no repeated instant), then each
patient's age rule. Its error class and message, line number included, are
those `vitalnet.data.load_cohort` must raise. `ref_write_cohort` writes rows
with `csv.writer`, and `ref_resample` grids by per-sample and per-slot loops.
None of them calls into `vitalnet.data` or builds a `PatientRecord`, so the
code under test can move its rules and still be checked against these
(`unchecked_records` is the probe).
"""

from __future__ import annotations

import csv
import math
from collections import namedtuple
from contextlib import contextmanager
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import strategies as st

from vitalnet.errors import ParseError, ValidationError

HEADER = ["patient_id", "timestamp", "hr", "sbp", "dbp", "age", "label"]


# a patient as the reference reads it: times datetime64[us] and increasing,
# values n x 3 (hr, sbp, dbp); a `PatientRecord` has the same fields
Patient = namedtuple("Patient", "patient_id age label times values")


def ref_parse_timestamp(raw: str, line_no: int) -> np.datetime64:
    try:
        ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError:
        raise ParseError(f"line {line_no}: bad timestamp {raw!r}") from None
    if ts.tzinfo is None:
        raise ParseError(f"line {line_no}: timestamp {raw!r} lacks a UTC offset")
    try:
        ts = ts.astimezone(timezone.utc)
    except OverflowError:
        raise ParseError(f"line {line_no}: timestamp {raw!r} is outside years 1-9999 "
                         "in UTC") from None
    return np.datetime64(ts.replace(tzinfo=None), "us")


def ref_parse_float(raw: str, name: str, line_no: int) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ParseError(f"line {line_no}: non-numeric {name} {raw!r}") from None
    if not math.isfinite(v):
        raise ParseError(f"line {line_no}: non-finite {name} {raw!r}")
    return v


def ref_parse_int(raw: str, name: str, line_no: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"line {line_no}: non-integer {name} {raw!r}") from None


def ref_load_rows(path) -> list[Patient]:
    """The patients of a cohort file, in order of first row, or the error of
    its first bad line (module docstring)."""
    path = Path(path)
    per_patient: dict[str, dict] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        if header != HEADER:
            raise ParseError(f"{path}: bad header {header!r}, expected {HEADER!r}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(HEADER):
                raise ParseError(f"line {line_no}: expected {len(HEADER)} fields")
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
                raise ValidationError(f"line {line_no}: patient {pid} has inconsistent age/label")
            if ts in entry["rows"]:
                raise ValidationError(
                    f"line {line_no}: duplicate timestamp {ts_raw} for patient {pid}"
                )
            entry["rows"][ts] = (hr, sbp, dbp)
    patients = []
    for pid, entry in per_patient.items():
        if not 21 <= entry["age"] <= 100:
            raise ValidationError(f"age must be in [21, 100], got {entry['age']}")
        times, values = zip(*sorted(entry["rows"].items()))
        patients.append(Patient(pid, entry["age"], entry["label"],
                                np.array(times, "datetime64[us]"), np.array(values, float)))
    return patients


def ref_write_cohort(patients, path) -> None:
    """`patients` (`Patient`s or records) as `csv.writer` writes them:
    stamps in whole seconds with a Z, values by `repr`."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        for p in patients:
            stamps = np.char.add(np.datetime_as_string(p.times, unit="s"), "Z").tolist()
            hr, sbp, dbp = (map(repr, col) for col in p.values.T.tolist())
            writer.writerows(zip(repeat(p.patient_id), stamps, hr, sbp, dbp,
                                 repeat(p.age), repeat(p.label)))


def outcome(load, path):
    """("ok", the patients) or (the error's class, its message) of `load(path)`."""
    try:
        cohort = load(path)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)
    return "ok", getattr(cohort, "patients", cohort)


def assert_same_patients(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.patient_id, a.age, a.label) == (b.patient_id, b.age, b.label)
        assert a.times.dtype == b.times.dtype and np.array_equal(a.times, b.times)
        assert a.values.shape == b.values.shape and a.values.tobytes() == b.values.tobytes()


def assert_same_outcome(got, want):
    """Two `outcome`s: the same patients, or the same error class and message."""
    assert got[0] == want[0], (got, want)
    if want[0] == "ok":
        assert_same_patients(got[1], want[1])
    else:
        assert got[1] == want[1]


@contextmanager
def unchecked_records():
    """`PatientRecord` reduced to coercing its arrays: a reference that
    states each rule itself reads every file the same under it."""
    from vitalnet.data import PatientRecord

    def coerce(record):
        record.times = np.asarray(record.times, "datetime64[us]")
        record.values = np.asarray(record.values, float)

    with mock.patch.object(PatientRecord, "__post_init__", coerce):
        yield


def ref_resample(samples, step):
    """The grid of `samples`, (datetime, hr, sbp, dbp) tuples in time order,
    in slots `step` wide from the first: each slot's mean, an empty slot
    filled from the nearest filled one."""
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
    """(microsecond offsets from the first sample, (hr, sbp, dbp) rows)."""
    n = draw(st.integers(1, 60))
    offsets = np.cumsum([0] + draw(st.lists(gaps_us, min_size=n - 1, max_size=n - 1)))
    rows = draw(st.lists(vital_rows, min_size=n, max_size=n))
    return [int(o) for o in offsets], rows
