"""Cohort ingestion, grid resampling, normalization, windowing, and
patient-level splitting.

Cohort CSV schema (UTF-8, one row per observation):
    patient_id,timestamp,hr,sbp,dbp,age,label
with ISO-8601 UTC timestamps (e.g. 2020-03-21T14:00:00Z) and label in {0,1}.

A patient is two arrays, `times` (datetime64[us], UTC) and `values` (n x 3),
checked once when the record is built. Loading, writing and resampling work
on whole arrays; `resample` averages each hourly slot and forward-fills the
empty ones. `make_windows` windows the first `cut` slots of each grid, and
each window records its end slot and its patient's grid length, which is
what a day sweep selects on.

The text path has one reader. `load_cohort` reads blocks of lines, split
at commas until a block holds a quote or a CR and read by the csv module
from there on, and checks canonical stamps by arithmetic on their bytes; a
block that holds another stamp form is parsed one stamp at a time. An error
names the first bad line, as a reader of one row at a time would.
`write_cohort` joins each patient's lines into one string, with the id
quoted as `csv.writer` would.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from functools import partial
from itertools import chain, groupby, islice, repeat
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError, VitalnetError, require

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
    """Hourly gridded T x 3 matrix (HR, SBP, DBP), no missing values."""

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
    cut of the patient's series was shorter than window_len. ends holds each
    window's end slot (one past its last, counted from the start of the
    grid; a padded window ends at its cut) and lengths its patient's grid
    length.
    """

    X: np.ndarray
    y: np.ndarray
    patient_ids: list[str]
    padded: np.ndarray
    ends: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        if self.X.ndim != 3 or self.X.shape[2] != 3:
            raise ValidationError(f"X must be n x W x 3, got {self.X.shape}")
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


# A canonical stamp is 'YYYY-MM-DDTHH:MM:SSZ': these bytes at these offsets,
# and ASCII digits at the 14 others.
_STAMP_SEP_AT = [4, 7, 10, 13, 16, 19]
_STAMP_SEPS = np.frombuffer(b"--T::Z", np.uint8)
_STAMP_DIGIT_AT = [i for i in range(20) if i not in _STAMP_SEP_AT]
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _parse_stamps(stamps: list[str]) -> np.ndarray | None:
    """Canonical stamps as datetime64[us], checked and converted by arithmetic;
    None unless every stamp is canonical and names a real date and time (year
    >= 1, Gregorian leap years, no leap second)."""
    if set(map(len, stamps)) != {20}:
        return None
    try:
        raw = np.frombuffer("".join(stamps).encode("ascii"), np.uint8).reshape(-1, 20)
    except UnicodeEncodeError:
        return None
    digits = raw[:, _STAMP_DIGIT_AT] - np.uint8(48)  # bytes below "0" wrap past 9
    if (raw[:, _STAMP_SEP_AT] != _STAMP_SEPS).any() or (digits > 9).any():
        return None
    digits = digits.astype(np.int64)
    year = digits[:, :4] @ np.array([1000, 100, 10, 1])
    month, day, hour, minute, second = (digits[:, 4::2] * 10 + digits[:, 5::2]).T
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_ok = (month >= 1) & (month <= 12)
    last_day = _MONTH_DAYS[np.where(month_ok, month, 0)] + (leap & (month == 2))
    ok = month_ok & (year >= 1) & (day >= 1) & (day <= last_day)
    if not (ok & (hour <= 23) & (minute <= 59) & (second <= 59)).all():
        return None
    # days since 1970-01-01 (days_from_civil: years start in March, 400-year eras)
    y = year - (month <= 2)
    era, yoe = np.divmod(y, 400)
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468
    seconds = ((days * 24 + hour) * 60 + minute) * 60 + second
    return (seconds * 1_000_000).view("datetime64[us]")


def _ints(raw: list[str], dtype) -> np.ndarray:
    """`raw` as narrow `dtype` ints, or as Python ints if one does not fit."""
    try:
        return np.fromiter(map(int, raw), dtype, len(raw))
    except OverflowError:
        return np.array(list(map(int, raw)), object)


def _parse_block(flat: list[str]) -> tuple | None:
    """Columns of a block of rows given as their fields in one flat list, 7
    a row; None if a field does not parse. Canonical stamps are converted by
    arithmetic; a block that holds another form, one stamp at a time."""
    pids, stamps, hr, sbp, dbp, ages, labels = (flat[k::7] for k in range(7))
    times = _parse_stamps(stamps)
    try:
        if times is None:  # the line is named when the row is re-read
            times = np.array([_parse_timestamp(stamp, 0) for stamp in stamps])
        values = np.array([list(map(float, col)) for col in (hr, sbp, dbp)]).T
        return pids, times, values, _ints(ages, np.int16), _ints(labels, np.int8)
    except (ValueError, ParseError):
        return None


def _blocks(fh):
    """The non-blank data rows, up to `_CHUNK_ROWS` lines at a time, as (their
    columns, or None if a row does not parse; the rows as lists of fields).
    Lines are split at commas until a block holds a quote or a CR; from there
    `csv.reader` reads the rest of the file, so a quoted field may span lines."""
    while lines := list(islice(fh, _CHUNK_ROWS)):
        text = ",".join(lines)  # each label keeps its newline, which int() ignores
        if '"' in text or "\r" in text:
            break
        if "\n" in lines:  # blank lines carry no data
            lines = [line for line in lines if line != "\n"]
            text = ",".join(lines)
        if lines:
            counts = set(map(str.count, lines, repeat(",")))
            yield (_parse_block(text.split(",")) if counts == {len(CSV_HEADER) - 1} else None,
                   map(str.split, lines, repeat(",")))
    else:
        return
    reader = csv.reader(chain(lines, fh))
    while block := list(islice(reader, _CHUNK_ROWS)):
        if rows := [row for row in block if row]:
            whole = set(map(len, rows)) == {len(CSV_HEADER)}
            yield _parse_block(list(chain.from_iterable(rows))) if whole else None, rows


def _row_error(row: list[str], line_no: int) -> VitalnetError | None:
    """The first of a row's own checks that it fails, in this order: its
    field count, each field's parse, dbp < sbp, vitals > 0, a 0/1 label."""
    if len(row) != len(CSV_HEADER):
        return ParseError(f"line {line_no}: expected {len(CSV_HEADER)} fields")
    try:
        _parse_timestamp(row[1], line_no)
    except ParseError as exc:
        return exc
    parsed = []
    for name, raw in zip(CSV_HEADER[2:], row[2:]):
        cast = float if name in CHANNELS else int
        try:
            parsed.append(cast(raw))
        except ValueError:
            kind = "numeric" if cast is float else "integer"
            return ParseError(f"line {line_no}: non-{kind} {name} {raw!r}")
        if cast is float and not math.isfinite(parsed[-1]):
            return ParseError(f"line {line_no}: non-finite {name} {raw!r}")
    hr, sbp, dbp, _, label = parsed
    if dbp >= sbp:
        return ValidationError(f"line {line_no}: dbp ({dbp}) must be < sbp ({sbp})")
    if min(hr, sbp, dbp) <= 0:
        return ValidationError(f"line {line_no}: vitals must be > 0")
    if label not in (0, 1):
        return ValidationError(f"line {line_no}: label must be 0 or 1")
    return None


def _numbered_rows(fh):
    """The non-blank rows of a cohort file, header first, with their line
    numbers. As in `_blocks`, lines are split at commas until one holds a
    quote or a CR, so an unquoted field has no length limit; from there
    `csv.reader` reads the rest, numbering its records."""
    for line_no, line in enumerate(fh, start=1):
        if '"' in line or "\r" in line:
            break
        if line != "\n":
            yield line_no, line.rstrip("\n").split(",")
    else:
        return
    yield from ((i, row) for i, row in enumerate(csv.reader(chain([line], fh)), start=line_no)
                if row)


def _first_error(path: Path, codes, times, values, ages, labels, first, order,
                 bad: int | None) -> VitalnetError | None:
    """The error of the first row (blank lines not counted) to fail a value
    check, differ from its patient's first age or label, or repeat one of
    its patient's times (`order` sorts by patient and time), else of row
    `bad`, else None; that row is re-read for its line number and fields."""
    inconsistent = (ages != ages[first][codes]) | (labels != labels[first][codes])
    flagged = inconsistent | ((labels != 0) & (labels != 1)) | (values[:, 2] >= values[:, 1])
    flagged |= ~np.isfinite(values).all(axis=1) | (values <= 0).any(axis=1)
    rows = np.arange(len(codes))[order]
    codes, times = codes[rows], times[rows]
    flagged[rows[1:][(codes[1:] == codes[:-1]) & (times[1:] == times[:-1])]] = True
    if flagged.any():
        bad = int(flagged.argmax())
    elif bad is None:
        return None
    with path.open(newline="", encoding="utf-8") as fh:
        line_no, row = next(islice(_numbered_rows(fh), bad + 1, None))  # after the header
    if error := _row_error(row, line_no):
        return error
    if inconsistent[bad]:
        return ValidationError(f"line {line_no}: patient {row[0]} has inconsistent age/label")
    return ValidationError(f"line {line_no}: duplicate timestamp {row[1]} for patient {row[0]}")


def load_cohort(path) -> Cohort:
    """Read a cohort CSV, grouping rows by patient and sorting by timestamp.

    A first pass counts the file's line ends, which bounds its rows (a file
    that grows past the count while it is read is an error): the columns
    are filled in place from the blocks of `_blocks`, and the records are
    views of them. An error names the first bad line, as a reader of one
    row at a time would: a block that does not parse keeps its rows before
    the first that `_row_error` rejects, and `_first_error` finds the first
    bad row among those kept.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"no such file: {path}")
    # a row per line end (LF, CR or CRLF), and one after the last; reads stay
    # under glibc's 128 KiB mmap threshold, which freeing a larger buffer would raise
    with path.open("rb") as fh:
        capacity = 1 + sum(
            chunk.count(b"\n") + (b"\r" in chunk and chunk.count(b"\r") - chunk.count(b"\r\n"))
            for chunk in iter(partial(fh.read, 1 << 16), b""))
    codes = np.empty(capacity, np.int32)
    times = np.empty(capacity, "datetime64[us]")
    values = np.empty((capacity, 3))
    ages = np.empty(capacity, np.int16)
    labels = np.empty(capacity, np.int8)
    index: dict[str, int] = {}  # patient id -> code, in order of first row
    first: list[int] = []  # each patient's first row
    n, bad = 0, None  # rows kept; the first row that fails its own checks
    with path.open(newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)  # reads the header's line(s) only
        if header is None:
            raise ParseError(f"{path}: empty file")
        if header != CSV_HEADER:
            raise ParseError(f"{path}: bad header {header!r}, expected {CSV_HEADER!r}")
        for columns, rows in _blocks(fh):
            if columns is None:  # keep the rows before the first bad one
                rows = list(rows)
                bad = n + next(j for j, row in enumerate(rows) if _row_error(row, 0))
                if bad == n:
                    break
                columns = _parse_block(list(chain.from_iterable(rows[:bad - n])))
            pids, *columns = columns  # ids come in runs: look each run up once
            rows = slice(n, n + len(pids))
            if rows.stop > capacity:
                raise ParseError(f"{path}: the file grew while it was read")
            runs = [(index.setdefault(pid, len(index)), len(list(g))) for pid, g in groupby(pids)]
            codes[rows] = np.repeat(*np.array(runs).T)
            if object in (columns[2].dtype, columns[3].dtype):  # an int too wide for them
                ages, labels = ages.astype(object, copy=False), labels.astype(object, copy=False)
            times[rows], values[rows], ages[rows], labels[rows] = columns
            for code, length in runs:
                if code == len(first):  # a new patient
                    first.append(n)
                n += length
            if bad is not None:
                break
    columns = codes, times, values, ages, labels = tuple(
        a[:n] for a in (codes, times, values, ages, labels))
    # rows already grouped by patient and in time order, as written here, stay put
    same = codes[1:] == codes[:-1]
    in_order = ((codes[1:] > codes[:-1]) | (same & (times[1:] > times[:-1]))).all()
    order = slice(None) if in_order else np.lexsort((times, codes))
    consistent = (ages == ages[first][codes]).all() and (labels == labels[first][codes]).all()
    if bad is None and consistent:
        splits = np.searchsorted(codes[order], np.arange(1, len(index)))
        try:  # the records check values, labels, ages and repeated times
            return Cohort([
                PatientRecord(pid, int(ages[f]), int(labels[f]), t, v) for pid, f, t, v in zip(
                    index, first, np.split(times[order], splits), np.split(values[order], splits))
            ])
        except ValidationError as exc:  # if no row is bad, an age out of range
            error = exc
    raise _first_error(path, *columns, first, order, bad) or error


def _csv_field(text) -> str:
    """`text` as `csv.writer` writes one field of a longer row (a lone empty
    field is '""', others are not) ending in CRLF, so a lone CR is quoted."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([text, ""])
    return buf.getvalue()[:-3]


def write_cohort(cohort: Cohort, path) -> None:
    """Write a cohort CSV with the bytes `csv.writer` gives: timestamps in
    whole UTC seconds with a Z suffix, floats in shortest round-trip form.

    A patient's lines are joined and written `_CHUNK_ROWS` at a time, so
    each string stays short for any stay. Only the patient id can need
    quoting: `_csv_field` formats it once per patient, a lone CR quoted too.
    """
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for p in cohort.patients:
            pid, tail = _csv_field(p.patient_id), f",{p.age},{p.label}\n"
            for lo in range(0, len(p.times), _CHUNK_ROWS):
                rows = slice(lo, lo + _CHUNK_ROWS)
                stamps = np.datetime_as_string(p.times[rows], unit="s").tolist()
                values = p.values[rows].tolist()
                fh.write("".join([f"{pid},{stamp}Z,{hr!r},{sbp!r},{dbp!r}{tail}"
                                  for stamp, (hr, sbp, dbp) in zip(stamps, values)]))


# ---------------------------------------------------------------------------
# Resampling and windowing
# ---------------------------------------------------------------------------


def resample(record: PatientRecord) -> RegularSeries:
    """Average samples onto an hourly grid from the first to the last
    timestamp; empty slots are forward-filled.

    Slot t covers [first + t hours, first + t+1 hours). Slot 0 holds the
    first sample, so every empty slot has a filled one before it.
    """
    slots = (record.times - record.times[0]) // np.timedelta64(HOUR)
    n_slots = int(slots[-1]) + 1
    counts = np.bincount(slots, minlength=n_slots)
    sums = np.column_stack([np.bincount(slots, col, n_slots) for col in record.values.T])
    # each slot reads the mean of the last filled slot at or before it
    src = np.maximum.accumulate(np.where(counts > 0, np.arange(n_slots), 0))
    return RegularSeries(values=sums[src] / counts[src, None])


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
    series: list[tuple[str, RegularSeries, int, int]],
    window_len: int,
    stride: int,
    stats: ChannelStats,
) -> WindowedDataset:
    """Slide fixed-length windows over the first `cut` slots of each
    patient's normalized series; an entry is (patient_id, series, label, cut).

    Windows start at the first slot and step by stride. A cut shorter than
    window_len gives one window, front-zero-padded (zeros in normalized space
    equal the channel means) and flagged as padded.
    """
    check_window_args(window_len, stride)
    xs, ys, pids, padded, ends, lengths = [], [], [], [], [], []
    for pid, reg, label, cut in series:
        norm = stats.normalize(reg.values[:cut])
        t = norm.shape[0]
        if t < window_len:
            win = np.zeros((window_len, 3))
            win[window_len - t :] = norm
            xs.append(win)
            stops = [t]
        else:
            stops = range(window_len, t + 1, stride)
            xs += [norm[stop - window_len : stop] for stop in stops]
        ys += [label] * len(stops)
        pids += [pid] * len(stops)
        padded += [t < window_len] * len(stops)
        ends += stops
        lengths += [len(reg)] * len(stops)
    X = np.stack(xs) if xs else np.zeros((0, window_len, 3))
    return WindowedDataset(
        X=X,
        y=np.array(ys, dtype=int),
        patient_ids=pids,
        padded=np.array(padded, dtype=bool),
        ends=np.array(ends, dtype=int),
        lengths=np.array(lengths, dtype=int),
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
