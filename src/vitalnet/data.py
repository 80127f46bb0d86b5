"""Cohort ingestion, grid resampling, normalization, windowing, and
patient-level splitting.

Cohort CSV schema (UTF-8, one row per observation):
    patient_id,timestamp,hr,sbp,dbp,age,label
with ISO-8601 UTC timestamps (e.g. 2020-03-21T14:00:00Z) and label in {0,1}.

A patient is two arrays, `times` (datetime64[us], UTC) and `values` (n x 3),
checked once when the record is built. Loading, writing and resampling work
on whole arrays; `resample` averages each grid slot and forward-fills the
empty ones.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import groupby, islice, repeat
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError, require

CSV_HEADER = ["patient_id", "timestamp", "hr", "sbp", "dbp", "age", "label"]

CHANNELS = ("hr", "sbp", "dbp")

HOUR = timedelta(hours=1)

# upper bound of a window length or stride in hourly slots (a leap year),
# far above the paper's 48 and 24; it is checked before any window exists
MAX_WINDOW_LEN = 24 * 366

_CHUNK_ROWS = 1024  # rows per vectorized block; small blocks hold few strings at once


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass
class PatientRecord:
    """One patient's observations as two arrays: `times` (datetime64[us],
    UTC, strictly increasing) and `values` (n x 3: hr, sbp, dbp)."""

    patient_id: str
    age: int
    label: int
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValidationError(f"label must be 0 or 1, got {self.label}")
        if not 21 <= self.age <= 100:
            raise ValidationError(f"age must be in [21, 100], got {self.age}")
        self.times = np.asarray(self.times, dtype="datetime64[us]")
        self.values = np.asarray(self.values, dtype=float)
        pid, n = self.patient_id, len(self.times)
        if n == 0:
            raise ValidationError(f"patient {pid} has no samples")
        if self.times.ndim != 1 or self.values.shape != (n, 3):
            raise ValidationError(f"patient {pid}: need n times and n x 3 values, got "
                                  f"{self.times.shape} and {self.values.shape}")
        if not (np.isfinite(self.values).all() and (self.values > 0).all()):
            raise ValidationError(f"patient {pid}: vitals must be finite and > 0")
        if (self.values[:, 2] >= self.values[:, 1]).any():
            raise ValidationError(f"patient {pid}: dbp must be < sbp")
        if np.isnat(self.times).any() or not (np.diff(self.times) > np.timedelta64(0)).all():
            raise ValidationError(f"patient {pid}: timestamps not strictly increasing")


@dataclass
class Cohort:
    patients: list[PatientRecord] = field(default_factory=list)

    def __post_init__(self):
        ids = [p.patient_id for p in self.patients]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValidationError(f"duplicate patient ids: {dupes}")

    def __len__(self) -> int:
        return len(self.patients)

    def labels(self) -> np.ndarray:
        return np.array([p.label for p in self.patients], dtype=int)


@dataclass
class RegularSeries:
    """Regularly gridded T x 3 matrix (HR, SBP, DBP), no missing values."""

    start: np.datetime64
    step: timedelta
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != 3:
            raise ValidationError(f"values must be T x 3, got {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise ValidationError("regular series contains non-finite cells")

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class ChannelStats:
    """Per-channel (HR, SBP, DBP) normalization constants from the train set."""

    mean: np.ndarray
    std: np.ndarray

    def normalize(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std


@dataclass
class WindowedDataset:
    """Fixed-length, normalized windows; the unit of training and evaluation.

    X has shape (n, window_len, 3); y holds the owning patient's label per
    window; padded flags windows that were front-zero-padded because the
    patient's series was shorter than window_len.
    """

    X: np.ndarray
    y: np.ndarray
    patient_ids: list[str]
    padded: np.ndarray
    window_len: int
    stats: ChannelStats

    def __post_init__(self):
        if self.X.ndim != 3 or self.X.shape[2] != 3:
            raise ValidationError(f"X must be n x W x 3, got {self.X.shape}")
        if self.X.shape[1] != self.window_len:
            raise ValidationError("window length mismatch")
        if not np.isfinite(self.X).all():
            raise ValidationError("windows contain non-finite values")

    def __len__(self) -> int:
        return self.X.shape[0]


# ---------------------------------------------------------------------------
# CSV ingestion / emission
# ---------------------------------------------------------------------------


def _parse_timestamp(raw: str, line_no: int) -> np.datetime64:
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


def _parse_float(raw: str, name: str, line_no: int) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ParseError(f"line {line_no}: non-numeric {name} {raw!r}") from None
    if not math.isfinite(v):
        raise ParseError(f"line {line_no}: non-finite {name} {raw!r}")
    return v


def _parse_int(raw: str, name: str, line_no: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"line {line_no}: non-integer {name} {raw!r}") from None


def _parse_chunk(rows: list[list[str]]) -> tuple | None:
    """Vectorized parse of a block of rows; None if a row has the wrong field
    count, a field that does not parse or a timestamp not 'YYYY-MM-DDTHH:MM:SSZ'."""
    if set(map(len, rows)) != {len(CSV_HEADER)}:
        return None
    pids, stamps, hr, sbp, dbp, ages, labels = zip(*rows)
    raw = np.array(stamps)
    try:
        times = raw.astype("U19").astype("datetime64[us]")
        values = np.array([list(map(float, col)) for col in (hr, sbp, dbp)]).T
        ages = np.fromiter(map(int, ages), np.int64, len(rows))
        labels = np.fromiter(map(int, labels), np.int64, len(rows))
    except (ValueError, OverflowError):
        return None
    # canonical: prints back as itself, in a year (>= 1) that datetime accepts
    canon = np.char.add(np.datetime_as_string(times, unit="s"), "Z") == raw
    canon &= times >= np.datetime64("0001")
    canon &= np.fromiter(map(len, stamps), int, len(rows)) == 20
    return (pids, times, values, ages, labels) if canon.all() else None


def _load_rows(path: Path) -> Cohort:
    """Row-at-a-time reader for files the block reader rejects: raises at the
    first bad line, or reads what the blocks leave out (offset timestamps)."""
    per_patient: dict[str, dict] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header, checked by load_cohort
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise ParseError(f"line {line_no}: expected {len(CSV_HEADER)} fields")
            pid, ts_raw, hr_raw, sbp_raw, dbp_raw, age_raw, label_raw = row
            ts = _parse_timestamp(ts_raw, line_no)
            hr = _parse_float(hr_raw, "hr", line_no)
            sbp = _parse_float(sbp_raw, "sbp", line_no)
            dbp = _parse_float(dbp_raw, "dbp", line_no)
            age = _parse_int(age_raw, "age", line_no)
            label = _parse_int(label_raw, "label", line_no)
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
        times, values = zip(*sorted(entry["rows"].items()))
        patients.append(PatientRecord(pid, entry["age"], entry["label"], times, values))
    return Cohort(patients=patients)


def load_cohort(path) -> Cohort:
    """Read a cohort CSV, grouping rows by patient and sorting by timestamp.

    Rows are parsed and checked in vectorized blocks of `_CHUNK_ROWS`. If any
    check fails, or a timestamp is not canonical, the file is read again row
    by row, so an error names the first bad line: its own fields first, then
    a patient's inconsistent age/label or a repeated timestamp.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"no such file: {path}")
    index: dict[str, int] = {}  # patient id -> code, in order of first row
    parts = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if header != CSV_HEADER:
            raise ParseError(
                f"{path}: bad header {header!r}, expected {CSV_HEADER!r}"
            )
        data_rows = filter(None, reader)  # blank lines carry no data
        while rows := list(islice(data_rows, _CHUNK_ROWS)):
            columns = _parse_chunk(rows)
            if columns is None:
                return _load_rows(path)
            pids, *columns = columns  # ids come in runs: look each run up once
            runs = [(index.setdefault(pid, len(index)), len(list(g))) for pid, g in groupby(pids)]
            parts.append((np.repeat(*np.array(runs).T), *columns))
    if not parts:
        return Cohort()
    codes, times, values, ages, labels = map(np.concatenate, zip(*parts))
    first = np.unique(codes, return_index=True)[1]  # each patient's first row
    if (ages != ages[first][codes]).any() or (labels != labels[first][codes]).any():
        return _load_rows(path)
    order = np.lexsort((times, codes))
    splits = np.searchsorted(codes[order], np.arange(1, len(index)))
    try:  # the records check values, labels, ages and repeated times
        return Cohort([
            PatientRecord(pid, int(ages[f]), int(labels[f]), t, v)
            for pid, f, t, v in zip(
                index, first, np.split(times[order], splits), np.split(values[order], splits)
            )
        ])
    except ValidationError:
        return _load_rows(path)


def write_cohort(cohort: Cohort, path) -> None:
    """Write a cohort CSV, one `writerows` call per patient: timestamps in
    whole UTC seconds with a Z suffix, floats in shortest round-trip form."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for p in cohort.patients:
            stamps = np.char.add(np.datetime_as_string(p.times, unit="s"), "Z").tolist()
            hr, sbp, dbp = (map(repr, col) for col in p.values.T.tolist())
            writer.writerows(zip(repeat(p.patient_id), stamps, hr, sbp, dbp,
                                 repeat(p.age), repeat(p.label)))


# ---------------------------------------------------------------------------
# Resampling and windowing
# ---------------------------------------------------------------------------


def resample(record: PatientRecord, step: timedelta = HOUR) -> RegularSeries:
    """Average samples onto a regular grid from the first to the last
    timestamp; empty slots are forward-filled.

    Slot t covers [start + t*step, start + (t+1)*step). Slot 0 holds the
    first sample, so every empty slot has a filled one before it.
    """
    if step <= timedelta(0):
        raise ValidationError(f"step must be positive, got {step}")
    start = record.times[0]
    slots = (record.times - start) // np.timedelta64(step)
    n_slots = int(slots[-1]) + 1
    counts = np.bincount(slots, minlength=n_slots)
    sums = np.column_stack([np.bincount(slots, col, n_slots) for col in record.values.T])
    # each slot reads the mean of the last filled slot at or before it
    src = np.maximum.accumulate(np.where(counts > 0, np.arange(n_slots), 0))
    return RegularSeries(start=start, step=step, values=sums[src] / counts[src, None])


def compute_channel_stats(train: list[RegularSeries]) -> ChannelStats:
    """Pooled per-channel mean and population std over all train grid cells.

    Must only ever see training-set series; the returned stats are applied
    unchanged to validation/test data.
    """
    if not train:
        raise ValidationError("compute_channel_stats: no series given")
    cells = np.concatenate([s.values for s in train], axis=0)
    mean = cells.mean(axis=0)
    std = cells.std(axis=0)
    if (std <= 0).any():
        bad = [CHANNELS[i] for i in np.flatnonzero(std <= 0)]
        raise ValidationError(f"zero-variance channel(s): {bad}")
    return ChannelStats(mean=mean, std=std)


def check_window_args(window_len, stride, source: str = "") -> None:
    """Require integer window_len and stride in [1, MAX_WINDOW_LEN]."""
    for key, value in (("window_len", window_len), ("stride", stride)):
        require(f"{source}{key}", value, numbers.Integral, 1, MAX_WINDOW_LEN)


def make_windows(
    series: list[tuple[str, RegularSeries, int]],
    window_len: int,
    stride: int,
    stats: ChannelStats,
) -> WindowedDataset:
    """Slide fixed-length windows over each patient's normalized series.

    Patients shorter than window_len contribute one window, front-zero-padded
    (zeros in normalized space equal the channel means) and flagged as padded.
    """
    check_window_args(window_len, stride)
    xs, ys, pids, padded = [], [], [], []
    for pid, reg, label in series:
        norm = stats.normalize(reg.values)
        t = norm.shape[0]
        if t < window_len:
            win = np.zeros((window_len, 3))
            win[window_len - t :] = norm
            xs.append(win)
            ys.append(label)
            pids.append(pid)
            padded.append(True)
            continue
        for lo in range(0, t - window_len + 1, stride):
            xs.append(norm[lo : lo + window_len])
            ys.append(label)
            pids.append(pid)
            padded.append(False)
    X = np.stack(xs) if xs else np.zeros((0, window_len, 3))
    return WindowedDataset(
        X=X,
        y=np.array(ys, dtype=int),
        patient_ids=pids,
        padded=np.array(padded, dtype=bool),
        window_len=window_len,
        stats=stats,
    )


def split_by_patient(
    cohort: Cohort, train_fraction: float, seed: int
) -> tuple[Cohort, Cohort]:
    """Label-stratified patient-level partition, deterministic per seed."""
    if not 0.0 < train_fraction < 1.0:
        raise ValidationError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    by_label: dict[int, list[PatientRecord]] = {0: [], 1: []}
    for p in cohort.patients:
        by_label[p.label].append(p)
    if min(len(v) for v in by_label.values()) < 2:
        raise ValidationError(
            "cohort too small to stratify: need at least 2 patients of each label"
        )
    rng = np.random.default_rng(seed)
    train, test = [], []
    for label in (0, 1):
        group = sorted(by_label[label], key=lambda p: p.patient_id)
        order = rng.permutation(len(group))
        n_train = int(round(train_fraction * len(group)))
        n_train = min(max(n_train, 1), len(group) - 1)
        chosen = set(order[:n_train].tolist())
        for i, p in enumerate(group):
            (train if i in chosen else test).append(p)
    # preserve original cohort ordering for reproducible output files
    order_index = {p.patient_id: i for i, p in enumerate(cohort.patients)}
    train.sort(key=lambda p: order_index[p.patient_id])
    test.sort(key=lambda p: order_index[p.patient_id])
    return Cohort(patients=train), Cohort(patients=test)
