"""Cohort ingestion, grid resampling, normalization, windowing, and
patient-level splitting.

Cohort CSV schema (UTF-8, one row per observation):
    patient_id,timestamp,hr,sbp,dbp,age,label
with ISO-8601 UTC timestamps (e.g. 2020-03-21T14:00:00Z) and label in {0,1}.

A patient is two arrays, `times` (datetime64[us], UTC) and `values` (n x 3),
checked once when the record is built. Loading, writing and resampling work
on whole arrays; `resample` divides each channel's hourly sums by the slot
counts, and gathers to forward-fill only when a slot is empty. `make_windows`
windows the first `cut` slots of each grid, and each window records its end
slot and its patient's grid length, which is what a day sweep selects on.

The text path has one reader, which reads a regular file's bytes once;
every later step reads those bytes, and none opens the file again. Its byte
path reads the bytes of rows by integer arithmetic on 8-byte words: an id of
up to 32 bytes with no quote or CR, a canonical stamp, hr, sbp and dbp of
1-8 ASCII digits with at most one point inside, an age of 1-4 digits, a
label of 1-2, and LF or CRLF line ends; any other file (say with a quote, a
lone CR, or a stamp with an offset) is read whole by the row path, one row
at a time, as Python parses it from a text-mode view of the bytes (`_text`).
An error names the first bad line, as a reader of one row at a time would,
or the offset of the first byte that is not UTF-8. `write_cohort` writes
back the rows of a file in its own form as they were read (`load_cohort`),
and formats others up to `_CHUNK_ROWS` of a patient's rows at once in a
byte array, by table lookups and integer arithmetic, with the id quoted as
`csv.writer` would; a block holding a value that is not a whole number of
hundredths below 1e13, or a stamp outside years 1-9999, is formatted one
`repr` per value, with the same bytes.
"""

from __future__ import annotations

import csv
import io
import math
import mmap
import numbers
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError, VitalnetError, check_elements, require

CSV_HEADER = ["patient_id", "timestamp", "hr", "sbp", "dbp", "age", "label"]

CHANNELS = ("hr", "sbp", "dbp")

HOUR = timedelta(hours=1)

# upper bound of a window length or stride in hourly slots (a leap year),
# far above the paper's 48 and 24; it is checked before any window exists
MAX_WINDOW_LEN = 24 * 366

_CHUNK_ROWS = 1024  # rows the writer formats at once; small blocks hold few strings at once
_CHUNK_BYTES = 1 << 16  # bytes the byte path parses at once


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass
class PatientRecord:
    """One patient's observations as two arrays: `times` (datetime64[us],
    UTC, strictly increasing) and `values` (n x 3: hr, sbp, dbp); `text`
    (`load_cohort`) must not be kept on a record changed after loading."""

    patient_id: str
    age: int
    label: int
    times: np.ndarray
    values: np.ndarray
    text: memoryview | None = field(default=None, init=False, repr=False, compare=False)

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
            dupes = sorted(i for i, count in Counter(ids).items() if count > 1)
            raise ValidationError(f"duplicate patient ids: {dupes}")

    def __len__(self) -> int:
        return len(self.patients)


@dataclass
class RegularSeries:
    """Hourly gridded T x 3 matrix (HR, SBP, DBP), finite (`resample`)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != 3:
            raise ValidationError(f"values must be T x 3, got {self.values.shape}")

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


def _parse_timestamp(raw: str, line_no: int) -> int:
    """`raw` in microseconds since 1970-01-01 UTC."""
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
    return (ts - datetime(1970, 1, 1, tzinfo=timezone.utc)) // timedelta(microseconds=1)


# A canonical stamp is 'YYYY-MM-DDTHH:MM:SSZ', padded with NULs to three
# little-endian 8-byte words. XOR with the template's words leaves a digit's
# value in its byte and zeroes every other byte that matches. A byte is bad
# where it exceeds its limit: 0 off the digits, 9 on them, and less on a tens
# digit that no month, day, hour, minute or second exceeds. A byte b exceeds
# L where bit 7 of ((b & 0x7F) + 0x7F - L) | b is set; no sum leaves its byte.
_STAMP_WORD = np.dtype("<u8")
_STAMP_TEMPLATE = np.frombuffer(b"0000-00-00T00:00:00Z".ljust(24, b"\0"), _STAMP_WORD)[:, None]
_STAMP_OVER = (0x7F - np.uint8([9, 9, 9, 9, 0, 1, 9, 0, 3, 9, 0, 2, 9, 0, 5, 9, 0, 5, 9, 0, 0, 0,
                                0, 0])).view(_STAMP_WORD)[:, None]
_LOW7, _HIGH = np.uint64(0x7F7F_7F7F_7F7F_7F7F), np.uint64(0x8080_8080_8080_8080)
# Per year 0-9999: the days from 1970-01-01 to its first day, and the offset
# of its row in the month tables: 0 common, 20 leap (Gregorian), 40 year 0,
# which has no valid day. Per row and month 0-19: the month's last day (0
# for no month), and the days before its first day in its year less one, so
# that adding the day of the month gives the day of the year from 0.
_YEARS = np.arange(10_000, dtype=np.int16)
_YEAR_DAYS = (_YEARS - 1970).astype("datetime64[Y]").astype("datetime64[D]").astype(np.int32)
_YEAR_ROW = ((_YEARS % 4 == 0) & ((_YEARS % 100 != 0) | (_YEARS % 400 == 0))).astype(np.uint8) * 20
_YEAR_ROW[0] = 40
_MONTH_LAST = np.zeros((3, 20), np.uint8)
_MONTH_LAST[:2, 1:13] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
_MONTH_LAST[1, 2] = 29
_MONTH_BEFORE = (np.cumsum(_MONTH_LAST, axis=1, dtype=np.int32) - _MONTH_LAST - 1).ravel()
_MONTH_LAST = _MONTH_LAST.ravel()


def _parse_stamps(words: np.ndarray) -> np.ndarray | None:
    """Canonical stamps as datetime64[us], checked and converted by integer
    arithmetic on their bytes and table lookups; None unless every stamp is
    canonical and names a real date and time (year >= 1, Gregorian leap
    years, no leap second). The stamps come as the byte path gathers them
    once per read, and are overwritten: three little-endian 8-byte words a
    stamp, its bytes padded with NULs, transposed so that word k of stamp i
    is at [k, i], each row contiguous. Its ~30 NumPy calls each run over a
    row of words or over a byte of each stamp, so that few calls do the work
    of many rows; its one buffer besides `words` is as large."""
    words ^= _STAMP_TEMPLATE
    pairs = words & _LOW7  # in place from here on
    pairs += _STAMP_OVER
    pairs |= words
    pairs &= _HIGH
    if pairs.any():
        return None
    # each byte of `pairs` is 10 times a digit plus the next; those of two
    # digits of a field hold the field's value
    np.multiply(words, np.uint64(10), out=pairs)
    words >>= np.uint64(8)
    pairs += words
    (century, _, year, _, _, month, _, _), (day, _, _, hour, _, _, minute, _), (_, second, *_) = (
        pairs.view(np.uint8).reshape(3, words.shape[1], 8).transpose(0, 2, 1))
    years = np.multiply(century, 100, dtype=np.intp)
    years += year
    row = _YEAR_ROW.take(years)
    row += month
    if ((day - 1 >= _MONTH_LAST.take(row)) | (hour > 23)).any():  # day 0 wraps to 255
        return None
    days = _YEAR_DAYS.take(years)
    days += _MONTH_BEFORE.take(row)
    days += day
    seconds = days * np.int64(24)
    seconds += hour
    seconds *= 60
    seconds += minute
    seconds *= 60
    seconds += second
    seconds *= 1_000_000
    return seconds.view("datetime64[us]")


# The byte path reads each of a row's hr, sbp, dbp, age and label as the 8
# bytes that end it, one little-endian word whose top byte is the field's
# last. XOR with `_ZEROS` leaves a digit's value in its byte and a point as
# 0x1E; `_KEEP[n]` keeps a word's top n bytes.
_FIELD_WIDTH = np.array([8, 8, 8, 4, 2])
_POINT_OK = np.uint64([2**56 - 1] * 3 + [0] * 2)[:, None]  # in hr, sbp and dbp, not the last byte
_ZEROS, _NINES = np.uint64(0x3030_3030_3030_3030), np.uint64(0x7676_7676_7676_7676)  # 0x7F - 9
_KEEP = np.array([-(1 << 64 - 8 * n) % (1 << 64) for n in range(9)], np.uint64)
# digit pairs and their sums (Lemire's eight-digit SWAR); 10**d by 8 x the
# byte of a point, which has d = 7 - its byte digits after it
_PAIRS = np.uint64(0xFF_0000_00FF)
_PAIR_SCALES = np.uint64([100 + (10**6 << 32), 1 + (10**4 << 32)])
_SCALE = np.ones(49)
_SCALE[8::8] = [10**d for d in range(6, 0, -1)]
# by 8k + n, for a field of n bytes with k before its point (0: none), the least digits m
# with no leading zero in the whole part, and with a point, m / 10**(7 - k) >= 1e-4
_LEAST = np.uint64([0] + [max(10 ** (n - 2) * (n + k > 9), 10 ** max(3 - k, 0)) if k else
                          10 ** (n - 1) * (n > 1) for k in range(8) for n in range(1, 9)])
_ZERO_END, _TEN_ENDS = np.uint64(0x3030 << 48), np.uint64(10 << 48)  # words ending '00' to '90'
_ID_BYTES = 32  # the longest id that the byte path reads
_HEADER_LINES = tuple((",".join(CSV_HEADER) + end).encode() for end in ("\n", "\r\n"))


def _parse_numbers(x: np.ndarray, lengths: np.ndarray):
    """The hr, sbp and dbp (rows x 3 floats), ages and labels of fields given
    as the word that ends each (`x`, overwritten) and their lengths, field by
    row, and whether all are in the writer's form (`load_cohort`); None
    unless each is 1 to `_FIELD_WIDTH` ASCII digits with, in hr, sbp and dbp
    only, at most one point, neither its first byte nor its last: then its
    digits make m < 10**8, d of them after the point, and m / 10**d is
    `float` of its text, the one rounding of an exact quotient."""
    widest = lengths.max(axis=1, initial=0)
    if lengths.min(initial=1) < 1 or (widest > _FIELD_WIDTH).any():
        return None
    # one-digit labels, and no hr, sbp or dbp whose last two bytes are a digit and '0'
    canonical = widest[4] == 1 and not (x[:3] - _ZERO_END < _TEN_ENDS).any()
    keep = _KEEP.take(lengths)
    x ^= _ZEROS
    x &= keep  # the bytes before the field read as leading zeros
    over = (((x & _LOW7) + _NINES) | x) & _HIGH  # bit 7 of each byte above 9
    bad = over & (over - 1)  # two such bytes
    bad |= over & ~(keep << 8 & _POINT_OK)  # or one where no point may be
    point = over >> 7
    x ^= point * 0x1E  # a point's byte reads 0
    bad |= x & point * 0xFF  # or one that is no point
    if bad.any():
        return None
    point = np.maximum(point, 1) - 1  # the bytes before the point move up over it
    before = np.bitwise_count(point[:4])  # 8 x the bytes before the point; 0 with none
    scale = _SCALE.take(before[:3])
    x += (x & point) * 255
    np.add(x * 10, x >> 8, out=x)  # bytes 0, 2, 4 and 6 hold two digits each
    pairs = (x >> 16 & _PAIRS) * _PAIR_SCALES[1]
    x &= _PAIRS
    np.add(x * _PAIR_SCALES[0], pairs, out=x)
    x >>= 32
    # a point in hr, sbp and dbp, no leading zero, no value below 1e-4 (`repr` gives exponents)
    canonical = canonical and before[:3].all() and not (
        x[:4] < _LEAST.take(before + lengths[:4])).any()
    return (x[:3].view(np.int64) / scale).T, x[3], x[4], canonical


def _parse_rows(data: bytes, begin: int, end: int, index: dict[str, int]):
    """The codes, times, values, ages and labels of the rows in the lines of
    data[begin:end] after the LF at data[begin], and the offsets of the first
    rows of patients first seen there if all are canonical (`load_cohort`);
    None unless each line is blank or a row of the byte path (module
    docstring). The LFs and commas are found once, and each field is read as
    the 8-byte words at its bytes. Ids come in runs, each decoded as UTF-8
    and looked up in `index` (id -> code, numbered in order of first row)
    once; one starts where an id's length, or a word from its start, differs
    from the row before (past the id, a word holds a comma and a stamp)."""
    raw = np.frombuffer(data, np.uint8, end - begin, begin)
    lf = np.flatnonzero(raw == 10)
    starts, stops = lf[:-1] + 1, lf[1:]
    if has_cr := data.find(b"\r", begin, end) >= 0:  # less a CR before an LF
        stops = stops - (cr := raw[stops - 1] == 13)
    if data.find(b'"', begin, end) >= 0 or has_cr and np.count_nonzero(raw == 13) != cr.sum():
        return None  # a quote, or a CR that does not end a line
    if (blank := stops == starts).any():
        starts, stops = starts[~blank], stops[~blank]
    commas = np.flatnonzero(raw == 44)
    if len(commas) != 6 * len(starts):
        return None
    seps = np.empty((7, len(starts)), np.intp)  # each row's commas and its end, by field
    seps[:6], seps[6] = commas.reshape(-1, 6).T, stops
    # with 6 commas a row in all, these hold only if each row has 6; an id of
    # at most `_ID_BYTES` and a stamp of 20 bytes must lead
    if not (((seps[0] - starts).view(np.uint64) <= _ID_BYTES).all()
            and (seps[5] < stops).all() and (seps[1] - seps[0] == 21).all()):
        return None
    words = np.ndarray(max(len(raw) - 7, 0), _STAMP_WORD, raw, strides=(1,))  # each byte's word
    stamps = np.ndarray(max(len(raw) - 23, 0), "V24", raw, strides=(1,))[seps[0] + 1]
    stamps = stamps.view(_STAMP_WORD).reshape(-1, 3).T.copy()
    stamps[2] &= 0xFFFF_FFFF  # the bytes after the stamp
    lengths = seps[2:] - seps[1:6] - 1  # of hr, sbp, dbp, age and label
    if (numbers := _parse_numbers(words[seps[2:] - 8], lengths)) is None or (
            times := _parse_stamps(stamps)) is None:
        return None
    canonical = numbers[3] and not (has_cr or blank.any())
    lengths = seps[0] - starts  # of the ids
    at = np.arange(0, lengths.max(initial=0), 8)[:, None]
    ids = words[starts + at]
    new = np.ones(len(starts), bool)
    new[1:] = (lengths[1:] != lengths[:-1]) | (ids[:, 1:] != ids[:, :-1]).any(axis=0)
    first, known = np.flatnonzero(new), len(index)
    ats = (starts[first] + begin).tolist()  # where each run starts in data
    try:
        runs = [index.setdefault(data[s:e].decode(), len(index))
                for s, e in zip(ats, (seps[0, first] + begin).tolist())]
    except UnicodeDecodeError:  # which the row path raises
        return None
    fresh = dict(zip(runs[::-1], range(len(runs))[::-1]))  # each code's first run
    return (np.repeat(runs, np.append(first[1:], len(starts)) - first), times, *numbers[:3]), (
        [ats[fresh[code]] for code in range(known, len(index))] if canonical else None)


def _byte_columns(data: bytes, start: int):
    """The byte path: parses the rows after the header (before data[start])
    into columns that its LFs size, a slice at a time: the whole lines of
    `_CHUNK_BYTES` bytes, or one longer line. Returns the patient index, the
    columns, None and, if the file is canonical but for its rows' order
    (`load_cohort`), the offsets of the patients' first rows; or None."""
    heads = [] if start == len(_HEADER_LINES[0]) and data[-1:] == b"\n" else None
    data = data if data[-1:] == b"\n" else data[:] + b"\n"  # the last line's end
    raw = np.frombuffer(data, np.uint8)
    capacity = sum(np.count_nonzero(raw[i:i + _CHUNK_BYTES] == 10)
                   for i in range(start, len(raw), _CHUNK_BYTES))
    columns = [np.empty(capacity, dtype) for dtype in ("i4", "M8[us]", "3f8", "i2", "i1")]
    index: dict[str, int] = {}
    n = 0
    while start < len(data):
        end = (data.rfind(b"\n", start, start + _CHUNK_BYTES) + 1
               or data.find(b"\n", start + _CHUNK_BYTES) + 1)
        if (parsed := _parse_rows(data, start - 1, end, index)) is None:
            return None
        rows, found = parsed
        for column, part in zip(columns, rows):
            column[n:n + len(rows[0])] = part
        n, start = n + len(rows[0]), end
        heads = None if heads is None or found is None else heads + found
    return index, tuple(column[:n] for column in columns), None, heads


def _text(data) -> io.TextIOWrapper:
    """`data` as UTF-8 text, in the lines and chunks that `open(newline="")` reads."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")


def _row_columns(data):
    """The row path: `_numbered_rows` reads the rows of `data` after the
    header one at a time, up to the first that does not parse. Returns what
    the byte path does, with the index of that row third (None if every row
    parses) and None. Ages and labels are Python ints, whatever their size."""
    index: dict[str, int] = {}
    rows, bad = [], None
    for _, row in islice(_numbered_rows(_text(data)), 1, None):
        try:
            pid, stamp, hr, sbp, dbp, age, label = row
            rows.append((index.setdefault(pid, len(index)), _parse_timestamp(stamp, 0),
                         (float(hr), float(sbp), float(dbp)), int(age), int(label)))
        except (ValueError, ParseError):  # `_first_error` names the line
            bad = len(rows)
            break
    codes, times, values, ages, labels = zip(*rows) if rows else ((),) * 5
    columns = (np.array(codes, np.int32), np.array(times, np.int64).view("datetime64[us]"),
               np.array(values).reshape(-1, 3), np.array(ages, object), np.array(labels, object))
    return index, columns, bad, None


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
    numbers. Lines are split at commas until one holds a quote or a CR, so
    an unquoted field has no length limit; from there `csv.reader` reads the
    rest, numbering its records."""
    for line_no, line in enumerate(fh, start=1):
        if '"' in line or "\r" in line:
            break
        if line != "\n":
            yield line_no, line.rstrip("\n").split(",")
    else:
        return
    yield from ((i, row) for i, row in enumerate(csv.reader(chain([line], fh)), start=line_no)
                if row)


def _first_error(data, codes, times, values, ages, labels, first, order,
                 bad: int | None) -> VitalnetError | None:
    """The error of the first row (blank lines not counted) to fail a value
    check, differ from its patient's first age or label, or repeat one of
    its patient's times (`order` sorts by patient and time), else of row
    `bad`, else None; that row's line number and fields are read from `data`."""
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
    line_no, row = next(islice(_numbered_rows(_text(data)), bad + 1, None))  # after the header
    if error := _row_error(row, line_no):
        return error
    if inconsistent[bad]:
        return ValidationError(f"line {line_no}: patient {row[0]} has inconsistent age/label")
    return ValidationError(f"line {line_no}: duplicate timestamp {row[1]} for patient {row[0]}")


def _cohort(data, path: Path) -> Cohort:
    """The cohort in `data`, the bytes of the file at `path` (`load_cohort`)."""
    if not (start := next((len(line) for line in _HEADER_LINES if data[:len(line)] == line), 0)):
        header = next(csv.reader(_text(data)), None)  # decodes the first chunk only
        if header is None:
            raise ParseError(f"{path}: empty file")
        if header != CSV_HEADER:
            raise ParseError(f"{path}: bad header {header!r}, expected {CSV_HEADER!r}")
    index, columns, bad, heads = start and _byte_columns(data, start) or _row_columns(data)
    codes, times, values, ages, labels = columns
    # each patient's first row: codes are numbered in order of first row
    first = np.flatnonzero(codes > np.r_[-1, np.maximum.accumulate(codes)[:-1]])
    # rows already grouped by patient and in time order, as written here, stay put
    same = codes[1:] == codes[:-1]
    in_order = ((codes[1:] > codes[:-1]) | (same & (times[1:] > times[:-1]))).all()
    order = slice(None) if in_order else np.lexsort((times, codes))
    consistent = (ages == ages[first][codes]).all() and (labels == labels[first][codes]).all()
    if bad is None and consistent:
        splits = np.searchsorted(codes[order], np.arange(1, len(index)))
        try:  # the records check values, labels, ages and repeated times
            cohort = Cohort([
                PatientRecord(pid, int(ages[f]), int(labels[f]), t, v) for pid, f, t, v in zip(
                    index, first, np.split(times[order], splits), np.split(values[order], splits))
            ])
        except ValidationError as exc:  # if no row is bad, an age out of range
            error = exc
        else:
            if in_order and heads is not None:  # a patient's rows end where the next begins
                for p, lo, hi in zip(cohort.patients, heads, [*heads[1:], len(data)]):
                    p.text = memoryview(data)[lo:hi]
            return cohort
    raise _first_error(data, *columns, first, order, bad) or error


def load_cohort(path) -> Cohort:
    """Read a cohort CSV, grouping rows by patient and sorting by timestamp.

    The file, which must be a regular file, is opened once and its bytes
    read once; nothing after reads the file. If its header line is exactly
    the header, the byte path (`_byte_columns`) parses the bytes; a file
    whose header line is not, or that the byte path gives up on, is read
    whole by the row path (`_row_columns`), which stops at the first row that
    does not parse. The header check of the one and the row path read the
    bytes through `_text`. The records are views of the columns. An error
    names the first bad line, as a reader of one row at a time would:
    `_first_error` finds it among the rows read and the row that stopped the
    row path, and reads its line from the same bytes. A byte that is not
    UTF-8 is an error that names its offset in the file.

    A file is in the writer's own form when the byte path reads it, its
    header line ends in an LF, it has no CR and no blank line and ends in
    an LF, its rows are grouped by patient in order of first row with times
    increasing, each hr, sbp and dbp is `repr` of its float, and each age
    has no leading zero and each label one digit. Then each record's `text`
    is a view of the bytes of its rows, which `write_cohort` writes back.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"no such file: {path}")
    if not path.is_file():  # a pipe or a directory has no size to read
        raise ValidationError(f"{path}: not a regular file")
    with path.open("rb") as fh:  # into pages that go back to the OS when freed; heap may not
        data = mmap.mmap(-1, max(path.stat().st_size, 1), access=mmap.ACCESS_COPY)
        data = data if fh.readinto(data) == len(data) else data[:fh.tell()]
    try:
        return _cohort(data, path)
    except UnicodeDecodeError:  # its offset is in the decoder's chunk; find it in the file
        try:
            str(data, "utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text at byte {exc.start}") from None
        raise


def _csv_field(text) -> str:
    """`text` as `csv.writer` writes one field of a longer row (a lone empty
    field is '""', others are not) ending in CRLF, so a lone CR is quoted."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([text, ""])
    return buf.getvalue()[:-3]


# The writer's fast path lays a row out as little-endian 4-byte words, each
# looked up whole in a table, beside a word of 0/1 flags marking the bytes
# it keeps. A "_" below is a padding byte, never kept.
_WORD = np.dtype("<u4")


def _words(table) -> np.ndarray:
    """A table of 4-byte rows as one word each."""
    return np.ascontiguousarray(table, np.uint8).view(_WORD).ravel()


def _text_words(texts) -> np.ndarray:
    """Texts of 4 bytes as one word each."""
    return np.frombuffer("".join(texts).encode(), _WORD)


# int16, so that no temporary reaches 128 KiB: freeing one would raise
# glibc's mmap threshold for the whole process
_FOUR_DIGITS, _PLACES = np.arange(10_000, dtype=np.int16)[:, None], np.int16([1000, 100, 10, 1])
_GROUPS = _words(_FOUR_DIGITS // _PLACES % 10 + 48)  # '0000' to '9999'
_LEADING = _words(_FOUR_DIGITS >= _PLACES)  # the digits that n prints
_GROUP_BASES = 10_000 ** np.arange(3, -1, -1)  # an integer part below 1e13 has <= 4 groups
_CENTS = _text_words(f".{i:02d}," for i in range(100))
_CENTS_KEPT = _words([[1, 1, i % 10 != 0, 1] for i in range(100)])  # '.30,' prints '.3,'
_COLON = _text_words(f"{i:02d}:_" for i in range(60))  # hh: and mm:
_ZULU = _text_words(f"{i:02d}Z," for i in range(60))
_STAMP_KEPT = _words(np.frombuffer(b"YYYY-MM-DDT_hh:_mm:_ssZ,", np.uint8) != ord("_"))
_DAYS = (-719162, 2932896)  # 0001-01-01 and 9999-12-31, in days since 1970-01-01


def _padded(text: bytes) -> tuple[np.ndarray, np.ndarray]:
    """`text` as words padded with NULs, and the flags of its own bytes."""
    padding = -len(text) % 4
    return (np.frombuffer(text + bytes(padding), _WORD),
            _words(np.arange(len(text) + padding) < len(text)))


def _pack_rows(head: bytes, tail: bytes, times: np.ndarray, values: np.ndarray):
    """The CSV bytes of a block of one patient's rows, `head` (the id and its
    comma) and `tail` (age, label, newline) being fixed; None unless every
    value v is a whole number of hundredths, 0 < v < 1e13, and every stamp
    falls in years 1-9999.

    Then `repr(v)` is k // 100, a point and k % 100 with one trailing zero
    dropped, for k = rint(100 v): any other decimal of as few digits is
    >= 0.01 from k / 100, while floats below 1e13 are <= 2**-9 apart. A row
    is the words of the head, 'YYYY' '-MM-' 'DDT_' 'hh:_' 'mm:_' 'ssZ,', per
    value its integer part in 4-digit groups and '.cc,', and the tail. The
    bytes kept are those the layout keeps, whatever they hold: no padding,
    no leading zero of an integer part, no trailing zero of the hundredths.
    Each day's date is formatted once. With the default `_CHUNK_ROWS`, a
    layout under 128 bytes a row (64 for synth rows) keeps every array
    under glibc's 128 KiB mmap threshold.
    """
    if not ((values > 0) & (values < 1e13)).all():
        return None
    cents = np.rint(values * 100)
    if not (cents / 100 == values).all():
        return None
    # whole seconds, floored as datetime_as_string floors them
    days, second = np.divmod(times.view(np.int64) // 1_000_000, 86400)
    days, day_of = np.unique(days, return_inverse=True)
    if days[0] < _DAYS[0] or days[-1] > _DAYS[1]:
        return None
    dates = np.full((len(days), 12), ord("T"), np.uint8)
    dates[:, :10] = np.datetime_as_string(days.astype("datetime64[D]")).astype("S10").view(
        np.uint8).reshape(-1, 10)
    whole, cent = np.divmod(cents.astype(np.int64), 100)
    groups = -(-len(str(whole.max())) // 4)  # 4-digit groups of the longest integer part

    n, (head, head_kept), (tail, tail_kept) = len(times), _padded(head), _padded(tail)
    stamp, at, size = len(head), len(head) + 6, 3 * (groups + 1)  # word offsets and count
    rows = np.empty((n, at + size + len(tail)), _WORD)
    kept = np.empty_like(rows)
    rows[:, :stamp], kept[:, :stamp] = head, head_kept
    rows[:, at + size:], kept[:, at + size:] = tail, tail_kept
    rows[:, stamp:stamp + 3] = dates.view(_WORD)[day_of]
    rows[:, stamp + 3] = _COLON[second // 3600]
    rows[:, stamp + 4] = _COLON[second // 60 % 60]
    rows[:, stamp + 5] = _ZULU[second % 60]
    kept[:, stamp:at] = _STAMP_KEPT
    for j, base in enumerate(_GROUP_BASES[-groups:]):  # word j of each value
        # the group holds count's last 4 digits and prints those below its
        # leading zeros; the last group prints at least its units digit
        count = whole // base
        words = slice(at + j, at + size, groups + 1)
        rows[:, words] = _GROUPS[count % 10_000]
        kept[:, words] = _LEADING[np.maximum(np.minimum(count, 9999), j == groups - 1)]
    words = slice(at + groups, at + size, groups + 1)
    rows[:, words], kept[:, words] = _CENTS[cent], _CENTS_KEPT[cent]
    return rows.view(np.uint8)[kept.view(bool)]


def _join_rows(head: str, tail: str, times: np.ndarray, values: np.ndarray) -> str:
    """The general formatter: a block of rows as text, one `repr` per value."""
    stamps = np.datetime_as_string(times, unit="s").tolist()
    return "".join([f"{head}{stamp}Z,{hr!r},{sbp!r},{dbp!r},{tail}"
                    for stamp, (hr, sbp, dbp) in zip(stamps, values.tolist())])


def write_cohort(cohort: Cohort, path) -> None:
    """Write a cohort CSV with the bytes `csv.writer` gives: timestamps in
    whole UTC seconds (floored) with a Z suffix, floats in shortest
    round-trip form.

    A patient's rows are formatted and written `_CHUNK_ROWS` at a time, so
    a block stays small for any stay: by `_pack_rows` in one byte matrix,
    or by `_join_rows` if a value or stamp is off its fast path. Only the
    patient id can need quoting: `_csv_field` formats it once per patient,
    a lone CR quoted too.
    """
    path = Path(path)
    with path.open("wb") as fh:
        fh.write((",".join(CSV_HEADER) + "\n").encode())
        for p in cohort.patients:
            if p.text is not None:  # its rows as they were read
                fh.write(p.text)
                continue
            head, tail = _csv_field(p.patient_id) + ",", f"{p.age},{p.label}\n"
            fixed = head.encode(), tail.encode()
            for lo in range(0, len(p.times), _CHUNK_ROWS):
                times, values = p.times[lo:lo + _CHUNK_ROWS], p.values[lo:lo + _CHUNK_ROWS]
                block = _pack_rows(*fixed, times, values)
                if block is None:
                    block = _join_rows(head, tail, times, values).encode()
                fh.write(block)


# ---------------------------------------------------------------------------
# Resampling and windowing
# ---------------------------------------------------------------------------


def resample(record: PatientRecord) -> RegularSeries:
    """Average samples onto an hourly grid from the first to the last
    timestamp; empty slots are forward-filled.

    Slot t covers [first + t hours, first + t+1 hours). Slot 0 holds the
    first sample, so every empty slot has a filled one before it. A grid over
    the element budget is rejected before any of it is allocated.
    """
    slots = (record.times - record.times[0]) // np.timedelta64(HOUR)
    n_slots = int(slots[-1]) + 1
    # the grid's arrays stay under 12 elements a slot (6 with no empty slot, 9
    # with one); each row adds its slot index and one transient
    check_elements(f"patient {record.patient_id}'s hourly grid of {n_slots:,} slots",
                   4 * n_slots * len(CHANNELS) + 2 * len(slots))
    counts = np.bincount(slots, minlength=n_slots)
    divisor = np.maximum(counts, 1)  # an empty slot's sum of 0 is divided by 1, then filled
    means = np.empty((n_slots, len(CHANNELS)))
    for c, col in enumerate(record.values.T):
        np.divide(np.bincount(slots, col, n_slots), divisor, out=means[:, c])
    if not np.isfinite(means).all():  # a sum past float64
        raise ValidationError(f"patient {record.patient_id}: an hourly mean of its vitals is "
                              "not finite")
    if not counts.all():  # each slot reads the mean of the last filled slot at or before it
        means = means[np.maximum.accumulate(np.where(counts > 0, np.arange(n_slots), 0))]
    return RegularSeries(values=means)


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
    equal the channel means) and flagged as padded. A table over the element
    budget is rejected before any window is built.
    """
    check_window_args(window_len, stride)
    n = sum(1 if t < window_len else (t - window_len) // stride + 1
            for t in (min(cut, len(reg)) for _, reg, _, cut in series))
    check_elements(f"a table of {n:,} windows of {window_len} slots", n * window_len * 3)
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


def split_by_patient(cohort: Cohort, train_fraction: float, seed: int) -> tuple[Cohort, Cohort]:
    """Label-stratified patient-level partition, deterministic per seed; each
    part keeps the cohort's order, for reproducible output files."""
    if not 0.0 < train_fraction < 1.0:
        raise ValidationError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    groups = [sorted(p.patient_id for p in cohort.patients if p.label == y) for y in (0, 1)]
    if min(map(len, groups)) < 2:
        raise ValidationError("cohort too small to stratify: need at least 2 patients of "
                              "each label")
    rng = np.random.default_rng(seed)
    train_ids = set()
    for group in groups:
        order = rng.permutation(len(group))
        n_train = min(max(int(round(train_fraction * len(group))), 1), len(group) - 1)
        train_ids.update(group[i] for i in order[:n_train])
    return (Cohort([p for p in cohort.patients if p.patient_id in train_ids]),
            Cohort([p for p in cohort.patients if p.patient_id not in train_ids]))
