"""The cohort text path against the row-at-a-time reference
(`cohort_ref.py`) and the stamp parsers it replaced.

The reader (its byte path and its row path) must give the reference
reader's records on every file, or raise the same error class and message
(line number included); the per-patient writer must give the reference
writer's bytes (`csv.writer` per row), differing in one way on purpose: it
quotes an id holding a lone CR. The arithmetic stamp parser must accept the
stamps that the NumPy round trip (`ref_parse_stamps`) and the per-block
parser it replaced (`oracle_parse_stamps`) accept, with the same instants;
the byte path's number parser must read every field that it accepts as
`float` or `int` reads its text. A file in the writer's own form is written
back as it was read, and only such a file.
"""

import csv
import io
import re
import sys
import warnings
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alloc_probe import LARGE_BLOCK, largest_line_rise
from cohort_ref import (assert_same_outcome, assert_same_patients, outcome, ref_load_rows,
                        ref_write_cohort, unchecked_records)
from vitalnet import data
from vitalnet.cli import run as cli_run
from vitalnet.data import (CSV_HEADER, Cohort, PatientRecord, load_cohort, split_by_patient,
                           write_cohort)
from vitalnet.errors import ParseError, ValidationError
from vitalnet.synth import default_config, generate_cohort

HEADER = ",".join(CSV_HEADER) + "\n"
ROW = "P0,2020-03-21T00:00:00Z,80.0,120.0,70.0,50,1\n"
ROW2 = "P0,2020-03-21T01:00:00Z,81.5,121.0,71.25,50,1\n"


# ---------------------------------------------------------------------------
# Stamp references (the NumPy round trip and the earlier per-block parser)
# ---------------------------------------------------------------------------


def ref_parse_stamps(stamps):
    """The NumPy route: parse, then require that the stamp prints back as
    itself, in a year >= 1, at 20 characters."""
    raw = np.array(stamps)
    try:
        with warnings.catch_warnings():  # a stamp cut to 19 characters can end in "Z"
            warnings.simplefilter("ignore", UserWarning)
            times = raw.astype("U19").astype("datetime64[us]")
    except (ValueError, OverflowError):
        return None
    canon = np.char.add(np.datetime_as_string(times, unit="s"), "Z") == raw
    canon &= times >= np.datetime64("0001")
    canon &= np.fromiter(map(len, stamps), int, len(stamps)) == 20
    return times if canon.all() else None


# The per-block parser that the slab parser replaced: int64 arithmetic on
# the digits, and the days_from_civil conversion.
ORACLE_SEP_AT = [4, 7, 10, 13, 16, 19]
ORACLE_SEPS = np.frombuffer(b"--T::Z", np.uint8)
ORACLE_DIGIT_AT = [i for i in range(20) if i not in ORACLE_SEP_AT]
ORACLE_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def oracle_parse_stamps(stamps: np.ndarray) -> np.ndarray | None:
    raw = np.ascontiguousarray(stamps).view(np.uint8).reshape(len(stamps), stamps.itemsize)
    if raw.shape[1] < 20 or raw[:, 20:].any():
        return None
    raw = raw[:, :20]
    digits = raw[:, ORACLE_DIGIT_AT] - np.uint8(48)  # bytes below "0" wrap past 9
    if (raw[:, ORACLE_SEP_AT] != ORACLE_SEPS).any() or (digits > 9).any():
        return None
    digits = digits.astype(np.int64)
    year = digits[:, :4] @ np.array([1000, 100, 10, 1])
    month, day, hour, minute, second = (digits[:, 4::2] * 10 + digits[:, 5::2]).T
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_ok = (month >= 1) & (month <= 12)
    last_day = ORACLE_MONTH_DAYS[np.where(month_ok, month, 0)] + (leap & (month == 2))
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


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def assert_loads_as_reference(path):
    """`load_cohort`'s outcome on `path`, which must be the reference's."""
    got = outcome(load_cohort, path)
    assert_same_outcome(got, outcome(ref_load_rows, path))
    return got


def stamp_bytes(stamps):
    """The stamps' UTF-8 bytes, as an `S` array."""
    return np.array([s.encode() for s in stamps], "S")


def stamp_column(stamps):
    """The stamps as the byte path hands them to `_parse_stamps`: three
    little-endian 8-byte words a stamp, its bytes padded with NULs,
    transposed."""
    return np.array([s.encode() for s in stamps], "S24").view("<u8").reshape(len(stamps), 3).T.copy()


def assert_same_times(got, want, stamps):
    if want is None:
        assert got is None, stamps
    else:
        assert got is not None, stamps
        assert got.dtype == want.dtype and np.array_equal(got, want), stamps


def assert_same_stamps(stamps):
    want = ref_parse_stamps(stamps)
    if any(len(s.encode()) != 20 for s in stamps):
        # the byte path gives `_parse_stamps` no stamp of another length
        assert want is None, stamps
        return
    got = data._parse_stamps(stamp_column(stamps))
    assert_same_times(got, want, stamps)
    assert_same_times(got, oracle_parse_stamps(stamp_bytes(stamps)), stamps)


# ---------------------------------------------------------------------------
# Stamps
# ---------------------------------------------------------------------------

GOOD = "2020-03-21T14:00:00Z"
BOUNDARY_STAMPS = [
    GOOD,
    "0000-01-01T00:00:00Z", "0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z",
    "1970-01-01T00:00:00Z", "1969-12-31T23:59:59Z", "1600-02-29T12:00:00Z",
    "2020-00-10T00:00:00Z", "2020-13-10T00:00:00Z", "2020-12-31T00:00:00Z",
    "2020-01-00T00:00:00Z", "2020-01-32T00:00:00Z", "2020-01-31T00:00:00Z",
    "2020-04-31T00:00:00Z", "2020-04-30T00:00:00Z",
    "2000-02-29T00:00:00Z", "1900-02-29T00:00:00Z", "2019-02-29T00:00:00Z",
    "2020-02-29T00:00:00Z", "2020-02-30T00:00:00Z", "2019-02-28T00:00:00Z",
    "2020-03-21T24:00:00Z", "2020-03-21T23:60:00Z", "2020-03-21T23:59:60Z",
    "2020-03-21T23:59:59Z",
    "2020-03-21T14:00:00z", "2020-03-21t14:00:00Z", "2020-03-21 14:00:00Z",
    "2020-03-21T14:00:00+00:00", "2020-03-21T14:00:00+01:00", "2020-03-21T14:00:00",
    "2020-03-21T14:00:00.000000Z", "2020-03-21T14:00Z",
    "2020-03-2١T14:00:00Z", "２020-03-21T14:00:00Z", "2020-03-21T14:00:00ź",
    "2020-03-21T14:00:00Z\x00", "2020-03-21T14:00:0\x00Z", " 020-03-21T14:00:00Z",
    "+020-03-21T14:00:00Z", "-020-03-21T14:00:00Z", "2020/03/21T14:00:00Z",
    "2020-03-21T14:00:00ZZ", "2020-03-21T14:00:00", "", "Z" * 20, "0" * 20,
    "99999-01-01T00:00:00Z", "2020-3-21T14:00:00Z",
]


class TestParseStamps:
    @pytest.mark.parametrize("stamp", BOUNDARY_STAMPS)
    def test_boundary_stamp_alone(self, stamp):
        assert_same_stamps([stamp])

    @pytest.mark.parametrize("stamp", BOUNDARY_STAMPS)
    def test_boundary_stamp_among_good_ones(self, stamp):
        assert_same_stamps([GOOD, stamp, "1999-12-31T23:59:59Z"])

    def test_lengths_that_cancel_out(self):
        # 19 + 21 characters make two 20-character stamps; the byte path reads
        # neither, and `_parse_stamps` refuses both by their bytes
        stamps = ["2020-03-21T14:00:00", "Z2020-03-21T15:00:00Z"]
        assert_same_stamps(stamps)
        assert data._parse_stamps(stamp_column(stamps)) is None

    def test_every_day_of_four_centuries(self):
        days = np.arange(np.datetime64("1600-01-01"), np.datetime64("2000-01-01"))
        stamps = [f"{d}T{(i * 7) % 24:02d}:{i % 60:02d}:{(i * 13) % 60:02d}Z"
                  for i, d in enumerate(days.astype(str).tolist())]
        assert_same_stamps(stamps)
        assert len(data._parse_stamps(stamp_column(stamps))) == len(days)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.text("0123456789-T:Z", min_size=20, max_size=20),
        # well-formed shapes, digits anywhere: exercises every range check
        st.lists(st.sampled_from("0123456789"), min_size=14, max_size=14).map(
            lambda d: "{}{}{}{}-{}{}-{}{}T{}{}:{}{}:{}{}Z".format(*d)),
    ), min_size=1, max_size=4))
    def test_property_over_stamp_alphabet(self, stamps):
        assert_same_stamps(stamps)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31)),
                    min_size=1, max_size=8))
    def test_property_over_real_instants(self, instants):
        stamps = [t.isoformat(timespec="seconds") + "Z" for t in instants]
        got = data._parse_stamps(stamp_column(stamps))
        want = np.array([np.datetime64(t.replace(microsecond=0), "us") for t in instants])
        assert np.array_equal(got, want)
        assert_same_times(got, oracle_parse_stamps(stamp_bytes(stamps)), instants)


# ---------------------------------------------------------------------------
# Numbers
# ---------------------------------------------------------------------------

FIELD_GRAMMAR = [re.compile(rb"(?=.{1,8}$)[0-9]+(\.[0-9]+)?")] * 3 + [
    re.compile(rb"[0-9]{1,4}"), re.compile(rb"[0-9]{1,2}")]  # hr, sbp, dbp, age, label


def field_words(texts, fill=b","):
    """Texts as the byte path reads a field: the 8 bytes that end it as a
    little-endian word, `fill` before the text."""
    return np.frombuffer(b"".join(t.rjust(8, fill)[-8:] for t in texts), "<u8")


def parse_fields(texts, field, fill=b","):
    """`_parse_numbers` on rows whose field `field` (0-2 hr, sbp, dbp; 3
    age; 4 label) holds one of `texts` and each other field "1": that
    field's values, or None."""
    words = np.tile(field_words([b"1"]), (5, len(texts)))
    lengths = np.ones((5, len(texts)), np.intp)
    words[field], lengths[field] = field_words(texts, fill), [len(t) for t in texts]
    got = data._parse_numbers(words, lengths)
    return None if got is None else got[0][:, field] if field < 3 else got[field - 2]


def assert_reads_as_float(words, lengths, texts):
    """`texts`, given as words (`field_words`) and lengths, a third of them
    in each of hr, sbp and dbp, read as `float` reads them."""
    want = np.array(list(map(float, texts)))
    n = -(-len(texts) // 3)
    fields, sizes = np.tile(field_words([b"1"]), (5, n)), np.ones((5, n), np.intp)
    fields.ravel()[:len(texts)], sizes.ravel()[:len(texts)] = words, lengths
    got = data._parse_numbers(fields, sizes)
    assert got is not None and got[0].T.ravel()[:len(texts)].tobytes() == want.tobytes()


class TestParseNumbers:
    @pytest.mark.parametrize("form", ["{!r}", "{:.2f}"])
    def test_every_hundredth_below_ten_thousand(self, form):
        # with digits before each field, which must not read as its own
        for lo in range(1, 10**6, 2 * 10**5):
            values = (np.arange(lo, min(lo + 2 * 10**5, 10**6)) / 100).tolist()
            texts = [form.format(v).encode() for v in values]
            assert_reads_as_float(field_words(texts, b"9"), list(map(len, texts)), texts)

    def test_every_thousandth_of_eight_bytes_at_most(self):
        # "0.000" to "9999.999", built as words by digit arithmetic, spaces
        # before each, which `float` skips
        for lo in range(0, 10**7, 2 * 10**6):
            k = np.arange(lo, lo + 2 * 10**6, dtype=np.uint64)
            whole = k // 1000
            words = np.full(len(k), ord(".") << 32, np.uint64)
            for byte, digit in ((7, k), (6, k // 10), (5, k // 100)):
                words |= (digit % 10 + 48) << 8 * byte
            for byte in range(4):  # the whole part's units in byte 3, then up
                digit = whole // 10 ** (3 - byte)
                words |= np.where((digit > 0) | (byte == 3), digit % 10 + 48, ord(" ")) << 8 * byte
            texts = np.frombuffer(words.tobytes(), "S8").tolist()
            assert texts[-1].lstrip() == f"{int(k[-1]) / 1000:.3f}".encode()
            assert_reads_as_float(words, 5 + (whole >= 10) + (whole >= 100) + (whole >= 1000),
                                  texts)

    @pytest.mark.parametrize("field,width", [(3, 4), (4, 2)])
    def test_every_integer_with_leading_zeros(self, field, width):
        texts = [f"{i:0{w}d}".encode() for w in range(1, width + 1) for i in range(10**w)]
        got = parse_fields(texts, field)
        assert got.tolist() == [int(t) for t in texts]
        assert parse_fields([b"1" * (width + 1)], field) is None

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(list(b"0123456789.0123456789.+-e _,\x00\x1c\xc3\xa9")),
                    min_size=1, max_size=9).map(bytes), st.integers(0, 4))
    @example(b"1.5", 3)
    @example(b".5", 0)
    @example(b"5.", 0)
    @example(b"1.2.3", 0)
    @example(b"12345678", 0)
    @example(b"123456789", 0)
    def test_property_reads_as_python_or_is_refused(self, text, field):
        got = parse_fields([text], field)
        assert (got is not None) == bool(FIELD_GRAMMAR[field].fullmatch(text)), text
        if got is not None:
            want = float(text) if field < 3 else int(text)
            assert np.array([want], got.dtype).tobytes() == got.tobytes(), text


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------

IDS = ["", "a,b", 'say "hi"', '"', "cr\rid", "lf\nid", "crlf\r\nid", " lead", "trail ",
       " both ", "été-中", "tab\tid", "semi;colon", "P0", "'q'", "\x00nul"]


# stamps from the first to past the last year the fast path prints, with
# fractions of a second before and after 1970
STARTS = [np.datetime64(stamp, "us") for stamp in (
    "0000-12-31T23:59:58", "0001-01-01T00:00:00", "1969-12-31T23:59:58.500001",
    "2020-03-21T00:00:00", "9999-12-31T23:59:50")] + [np.datetime64(253402300800, "s")]
HUNDREDTHS = (st.integers(1, 10**6) | st.integers(1, 10**15)).map(lambda k: k / 100)  # to 1e13
OTHER_VALUES = st.one_of(
    st.integers(1, 10**7).map(lambda k: k / 1000),  # 3 decimals
    st.floats(1000, 1e20),
    st.floats(5e-324, 0.01, exclude_max=True),
    st.floats(0, exclude_min=True, allow_infinity=False),
)
# a patient's values: all on the fast path, or now and then off it
WRITER_VALUES = st.sampled_from([HUNDREDTHS, st.one_of(HUNDREDTHS, HUNDREDTHS, OTHER_VALUES)])
WRITER_IDS = st.sampled_from(IDS) | st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters="\r"), max_size=4)


def bp_pair(a, b):
    """(sbp, dbp) with sbp > dbp > 0 from two positive draws. An equal pair
    is split by one ulp, upward unless that overflows: halving the smaller
    value would take 5e-324 to 0.0."""
    if a != b:
        return max(a, b), min(a, b)
    if a < sys.float_info.max:
        return np.nextafter(a, np.inf), a
    return a, np.nextafter(a, 0.0)


def one_row_cohort(hr, a, b):
    times = np.array(["2020-03-21T00:00:00"], "datetime64[us]")
    return Cohort([PatientRecord("P0", 21, 0, times, [[hr, *bp_pair(a, b)]])])


@st.composite
def writer_cohorts(draw):
    """Cohorts for the writer: ids that need quoting or hold NUL and
    non-ASCII text; values on and off the fast path; stamps in years 0, 1,
    9999 and 10000 and around 1970, a microsecond to days apart."""
    patients = []
    for i, pid in enumerate(draw(st.lists(WRITER_IDS, min_size=1, max_size=4, unique=True))):
        n = draw(st.integers(1, 12))
        steps = draw(st.lists(st.integers(1, 10**6) | st.integers(1, 3 * 86400 * 10**6),
                              min_size=n, max_size=n))
        times = draw(st.sampled_from(STARTS)) + np.cumsum(steps).astype("timedelta64[us]")
        value, values = draw(WRITER_VALUES), []
        for _ in range(n):
            hr, a, b = draw(st.tuples(value, value, value))
            values.append([hr, *bp_pair(a, b)])
        patients.append(PatientRecord(pid, 21 + i, i % 2, times, values))
    return Cohort(patients)


def cohort_with_ids(ids):
    times = np.datetime64("2020-03-21T00:00:00", "us") + np.arange(3) * np.timedelta64(
        3601, "s")
    values = np.array([[80.0, 120.5, 70.25], [81.123, 119.0, 69.0], [1e-5, 2.5e7, 1.0]])
    return Cohort([PatientRecord(pid, 21 + i, i % 2, times, values) for i, pid in enumerate(ids)])


def ref_bytes(path):
    """The reference writer's bytes with the one intended difference: an id
    holding a lone CR is quoted, as `csv.writer` does under a CRLF line end."""
    return path.read_bytes().replace(b"cr\rid", b'"cr\rid"')


class TestWriter:
    @pytest.mark.parametrize("pid", IDS)
    def test_field_is_csv_writers_field(self, pid):
        for row in ([pid, "x", "1"], ["x", pid, "1"], ["x", "1", pid]):
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\r\n").writerow(row)
            fields = [data._csv_field(v) for v in row]
            assert ",".join(fields) + "\r\n" == buf.getvalue()

    def test_empty_id_alone_is_not_quoted(self):
        assert data._csv_field("") == ""

    @pytest.mark.parametrize("pid", IDS)
    def test_same_bytes_as_csv_writer(self, tmp_path, pid):
        cohort = cohort_with_ids([pid, "other"])
        write_cohort(cohort, tmp_path / "new.csv")
        ref_write_cohort(cohort.patients, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == ref_bytes(tmp_path / "ref.csv")
        if pid == "cr\rid":  # csv.writer under a LF line end leaves it bare
            assert b'\n"cr\rid",2020' in (tmp_path / "new.csv").read_bytes()

    def test_all_ids_round_trip(self, tmp_path):
        cohort = cohort_with_ids(IDS)
        path = tmp_path / "c.csv"
        write_cohort(cohort, path)
        ref_write_cohort(cohort.patients, tmp_path / "ref.csv")
        assert path.read_bytes() == ref_bytes(tmp_path / "ref.csv")
        assert_same_patients(assert_loads_as_reference(path)[1], cohort.patients)

    def test_empty_cohort_is_header_only(self, tmp_path):
        write_cohort(Cohort(), tmp_path / "c.csv")
        assert (tmp_path / "c.csv").read_text() == HEADER

    @settings(max_examples=150, deadline=None)
    @given(cohort=writer_cohorts(), chunk=st.integers(1, 9))
    @example(cohort=one_row_cohort(5e-324, 5e-324, 5e-324), chunk=1)
    @example(cohort=one_row_cohort(80.0, sys.float_info.max, sys.float_info.max), chunk=1)
    def test_property_same_bytes_as_oracle(self, tmp_path_factory, cohort, chunk):
        d = tmp_path_factory.mktemp("w")
        with mock.patch.object(data, "_CHUNK_ROWS", chunk):
            write_cohort(cohort, d / "new.csv")
        ref_write_cohort(cohort.patients, d / "ref.csv")
        assert (d / "new.csv").read_bytes() == ref_bytes(d / "ref.csv")

    @pytest.mark.parametrize("v", [0.01, 0.05, 0.1, 0.5, 1.0, 9.99, 10.0, 87.3, 87.05, 100.1,
                                   999.99, 1000.0, 1e4, 12345.67, 99999999.99, 9999999999999.99])
    def test_fast_path_is_repr(self, v):
        times = np.array(["2020-03-21T00:00:00"], "datetime64[us]")
        got = data._pack_rows(b"P,", b"50,1\n", times, np.array([[v, v, v]]))
        assert got.tobytes() == f"P,2020-03-21T00:00:00Z,{v!r},{v!r},{v!r},50,1\n".encode()

    @pytest.mark.parametrize("v", [0.001, 0.1 + 0.2, 87.301, 1e13, 1e16, 5e-324])
    def test_other_values_fall_back(self, v):
        times = np.array(["2020-03-21T00:00:00"], "datetime64[us]")
        assert data._pack_rows(b"P,", b"50,1\n", times, np.array([[80.0, v, 1.0]])) is None

    @pytest.mark.parametrize("stamp", ["0000-12-31T23:59:59", "10000-01-01T00:00:00"])
    def test_stamps_outside_years_1_to_9999_fall_back(self, stamp):
        times = np.array([stamp], "datetime64[us]")
        assert data._pack_rows(b"P,", b"50,1\n", times, np.array([[80.0, 120.0, 70.0]])) is None

    def test_synth_cohort_and_its_halves_never_fall_back(self, tmp_path):
        cohort = generate_cohort(default_config())
        halves = split_by_patient(cohort, 0.8, 11)
        with mock.patch.object(data, "_join_rows", wraps=data._join_rows) as join_rows:
            for i, part in enumerate([cohort, *halves]):
                write_cohort(part, tmp_path / f"{i}.csv")
            assert not join_rows.called
            slow = Cohort([PatientRecord(p.patient_id, p.age, p.label, p.times, p.values + 1e-3)
                           for p in cohort.patients[:2]])
            write_cohort(slow, tmp_path / "slow.csv")  # values with 3 decimals
            assert join_rows.called
        ref_write_cohort(cohort.patients, tmp_path / "ref.csv")
        assert (tmp_path / "0.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

ID_WIDTH = data._ID_BYTES  # the longest id that the byte path reads


def two_ids(a, b):
    """Rows of patients a, b, b, a: the block path finds id runs by 8-byte words."""
    return HEADER + "".join(r.replace("P0", pid) for r, pid in
                            ((ROW, a), (ROW, b), (ROW2, b), (ROW2, a)))


FILE_CORPUS = {
    "empty": "",
    "header_only": HEADER,
    "header_no_newline": HEADER[:-1],
    "blank_lines_only": HEADER + "\n\n\n",
    "blank_first_line": "\n" + HEADER + ROW,
    "no_trailing_newline": HEADER + ROW + ROW2[:-1],
    "blank_between_rows": HEADER + ROW + "\n\n" + ROW2 + "\n",
    "crlf": (HEADER + ROW + ROW2).replace("\n", "\r\n"),
    "crlf_header_only": HEADER.replace("\n", "\r\n") + ROW + ROW2,
    "lone_cr": HEADER + ROW[:-1] + "\r" + ROW2,
    "cr_line_ends": (HEADER + ROW + ROW2).replace("\n", "\r"),
    "quoted_id": HEADER + '"P0",2020-03-21T00:00:00Z,80.0,120.0,70.0,50,1\n' + ROW2,
    "quoted_id_with_comma": HEADER + '"P,0",2020-03-21T00:00:00Z,80.0,120.0,70.0,50,1\n',
    "quoted_header": HEADER.replace("hr", '"hr"') + ROW,
    "nul_in_id": HEADER + ROW.replace("P0", "P\x000") + ROW2.replace("P0", "P\x000"),
    "nul_in_value": HEADER + ROW.replace("80.0", "80\x00.0"),
    "spaces_only_line": HEADER + ROW + "   \n" + ROW2,
    "extra_field": HEADER + ROW + ROW2[:-1] + ",x\n",
    "missing_field": HEADER + ROW + ROW2.replace(",1\n", "\n"),
    "extra_and_missing": HEADER + ROW.replace(",1\n", "\n") + ROW2[:-1] + ",1\n",
    "underscore_number": HEADER + ROW.replace("80.0", "8_0.0") + ROW2,
    "spaced_numbers": HEADER + ROW.replace(",50,1", ", 50 , 1 ") + ROW2,
    "plus_label": HEADER + ROW.replace(",1\n", ",+1\n") + ROW2,
    "offset_stamp": HEADER + ROW + ROW2.replace("01:00:00Z", "02:00:00+01:00"),
    "duplicate_instant": HEADER + ROW + ROW.replace("00:00:00Z", "01:00:00+01:00"),
    "lowercase_z": HEADER + ROW.replace("Z,", "z,") + ROW2,
    "year_zero": HEADER + ROW.replace("2020-03-21", "0000-03-21") + ROW2,
    "leap_day_1900": HEADER + ROW.replace("2020-03-21", "1900-02-29"),
    "leap_second": HEADER + ROW.replace("00:00:00Z", "23:59:60Z"),
    "bad_header": HEADER.replace("hr", "heart") + ROW,
    "inconsistent_age": HEADER + ROW + ROW2.replace(",50,", ",51,"),
    "unsorted_rows": HEADER + ROW2 + ROW,
    "non_ascii_id": HEADER + (ROW + ROW2).replace("P0", "é中"),
    "non_finite": HEADER + ROW + ROW2.replace("81.5", "inf"),
    "huge_age": HEADER + ROW.replace(",50,", ",99999999999999999999,"),
    # offset stamps whose UTC instant falls outside years 1-9999
    "utc_before_year_1": HEADER + ROW + ROW2.replace("2020-03-21T01:00:00Z",
                                                     "0001-01-01T00:00:00+01:00"),
    "utc_after_year_9999": HEADER + ROW + ROW2.replace("2020-03-21T01:00:00Z",
                                                       "9999-12-31T23:30:00-01:00"),
    # a NUL that ends an id, a stamp a byte too long, and ids at, past and
    # below the byte path's widest
    "nul_ending_id": HEADER + ROW + ROW2.replace("P0", "P0\x00"),
    "stamp_of_21_bytes": HEADER + ROW.replace("00:00:00Z", "00:00:00Z0") + ROW2,
    "id_at_width": HEADER + (ROW + ROW2).replace("P0", "P" * ID_WIDTH),
    "id_past_width": HEADER + (ROW + ROW2).replace("P0", "P" * (ID_WIDTH + 1)),
    "id_below_width": HEADER + (ROW + ROW2).replace("P0", "P" * (ID_WIDTH - 1)),
    # equal in the first 8-byte word, or in every byte but the last
    "ids_differ_at_byte_9": two_ids("PPPPPPPPa", "PPPPPPPPb"),
    "ids_one_ends_at_byte_8": two_ids("PPPPPPPP", "PPPPPPPPa"),
    "ids_differ_in_last_byte": two_ids("P" * (ID_WIDTH - 2) + "a", "P" * (ID_WIDTH - 2) + "b"),
    "ids_at_width_differ_in_last_byte": two_ids("P" * (ID_WIDTH - 1) + "a",
                                                "P" * (ID_WIDTH - 1) + "b"),
    # ages that no ASCII-digit parser reads, nor Python's int
    "separator_in_age": HEADER + ROW.replace(",50,", ",50\x1c,") + ROW2,
    "devanagari_in_age": HEADER + ROW.replace(",50,", ",5\u0930,") + ROW2,
}

# The byte path parses the whole lines of each slice of `data._CHUNK_BYTES`
# at once: a slab, in these names. At the default size, "last_block" changes
# the last row that the first slice holds whole, "next_first_block" the row
# that the first slice cuts and the second ends, and "partial_end" the last
# row, in a second slice that the file ends.
SLAB_ROWS = data._CHUNK_BYTES // 30  # of about 45 bytes: a slice and a half
SLAB_CHANGES = {  # name: (field, its new text from the old)
    "offset_stamp": (1, lambda stamp: stamp.replace("Z", "+00:00")),
    "id_past_width": (0, lambda pid: "P" * (ID_WIDTH + 1)),
    "unparsable_hr": (2, lambda hr: "eighty"),
}
# patients of 1,000 hourly rows each, one after the other
SLAB_START = datetime(2020, 3, 21)
SLAB_BASE = [[f"P{i // 1000}", f"{SLAB_START + timedelta(hours=i % 1000):%Y-%m-%dT%H:%M:%SZ}",
              f"{60 + i % 50}.5", "120.0", f"{70 + i % 7}.0", str(40 + i // 1000),
              str(i // 1000 % 2)] for i in range(SLAB_ROWS)]


def slab_file(place: str, field: int, change) -> str:
    """The SLAB_ROWS rows of SLAB_BASE, with `change` made to a field of the
    data row at `place`, where the first read ends (the byte path reads the
    header line on its own, then the rows)."""
    rows = [list(row) for row in SLAB_BASE]
    longer = len(change(rows[0][field])) - len(rows[0][field])
    ends = np.cumsum([len(",".join(row)) + 1 for row in rows])  # the bytes up to each row's end
    # the rows read whole, were a row that many bytes longer
    whole = [int(np.searchsorted(ends + more, data._CHUNK_BYTES, side="right"))
             for more in (0, longer)]
    at = {"last_block": whole[1] - 1, "next_first_block": whole[0],
          "partial_end": SLAB_ROWS - 1}[place]
    rows[at][field] = change(rows[at][field])
    return HEADER + "".join(",".join(row) + "\n" for row in rows)


FILE_CORPUS.update({
    f"slab_{place}_{name}": slab_file(place, *change)
    for place in ("last_block", "next_first_block", "partial_end")
    for name, change in SLAB_CHANGES.items()
})


# bytes per slice of the byte path: a row spans many slices (1, 2, 7), or
# about one (64); a slice holds a few dozen rows (1024), or the default
CHUNKS = [1, 2, 7, 64, 1024, data._CHUNK_BYTES]


class TestLoadFiles:
    @pytest.mark.parametrize("name", sorted(FILE_CORPUS))
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_same_cohort_or_error(self, tmp_path, name, chunk):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(FILE_CORPUS[name].encode("utf-8"))
        with mock.patch.object(data, "_CHUNK_BYTES", chunk):
            assert_loads_as_reference(path)

    @pytest.mark.parametrize("name", sorted(FILE_CORPUS))
    def test_path_is_opened_once_in_binary(self, tmp_path, name):
        # the header check, the row path and the line of an error read the
        # bytes of the one read
        path = tmp_path / f"{name}.csv"
        path.write_bytes(FILE_CORPUS[name].encode("utf-8"))
        with mock.patch.object(Path, "open", autospec=True, side_effect=Path.open) as open_:
            outcome(load_cohort, path)
        assert open_.call_args_list == [mock.call(path, "rb")]

    @pytest.mark.parametrize("name", sorted(FILE_CORPUS))
    def test_reference_states_every_rule_itself(self, tmp_path, name):
        # the reference reads each file the same when the records check nothing
        path = tmp_path / f"{name}.csv"
        path.write_bytes(FILE_CORPUS[name].encode("utf-8"))
        want = outcome(ref_load_rows, path)
        with unchecked_records():
            assert_same_outcome(outcome(ref_load_rows, path), want)

    def test_empty_file_message(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(b"")
        with pytest.raises(ParseError, match=r"c\.csv: empty file$"):
            load_cohort(path)

    def test_blank_first_line_is_a_bad_header(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("\n" + HEADER + ROW)
        with pytest.raises(ParseError, match=r"bad header \[\]"):
            load_cohort(path)

    # the files whose header line is not exactly the header: the byte path
    # never starts on them
    HEADER_OFF = {"quoted_header", "cr_line_ends"}

    @pytest.mark.parametrize("name,row_path", [
        ("no_trailing_newline", False), ("blank_between_rows", False), ("crlf", False),
        ("lone_cr", True), ("quoted_id", True), ("offset_stamp", True),
        ("lowercase_z", True), ("spaces_only_line", True), ("underscore_number", True),
        ("non_ascii_id", False), ("nul_in_id", False), ("nul_ending_id", False),
        ("stamp_of_21_bytes", True), ("id_at_width", False), ("id_past_width", True),
        ("id_below_width", False), ("ids_differ_at_byte_9", False),
        ("ids_one_ends_at_byte_8", False), ("ids_differ_in_last_byte", False),
        ("ids_at_width_differ_in_last_byte", False),
        ("separator_in_age", True), ("devanagari_in_age", True),
        ("quoted_header", True), ("cr_line_ends", True), ("crlf_header_only", False),
    ])
    def test_which_files_take_the_row_reader(self, tmp_path, name, row_path):
        # `row_path`: the file is read whole by the row-at-a-time path, after
        # the byte path gives up on it unless its header line is off; the
        # others are read by the byte path alone
        path = tmp_path / "c.csv"
        path.write_bytes(FILE_CORPUS[name].encode("utf-8"))
        with mock.patch.object(data, "_byte_columns", wraps=data._byte_columns) as bytes_read, \
                mock.patch.object(data, "_row_columns", wraps=data._row_columns) as rows:
            assert_loads_as_reference(path)
        assert rows.called == row_path
        assert bytes_read.called == (name not in self.HEADER_OFF)

    def test_synth_cohort_and_its_halves_never_take_the_row_path(self, tmp_path):
        cohort = generate_cohort(default_config())
        for i, part in enumerate([cohort, *split_by_patient(cohort, 0.8, 11)]):
            write_cohort(part, tmp_path / f"{i}.csv")
        with mock.patch.object(data, "_row_columns", wraps=data._row_columns) as rows:
            loaded = [load_cohort(tmp_path / f"{i}.csv") for i in range(3)]
            assert not rows.called
            slow = tmp_path / "slow.csv"  # one stamp with an offset
            slow.write_text((tmp_path / "2.csv").read_text().replace("Z,", "+00:00,", 1))
            assert_same_patients(load_cohort(slow).patients, loaded[2].patients)
            assert rows.called
        assert_same_patients(loaded[0].patients, cohort.patients)

    @pytest.mark.parametrize("change", [
        lambda text: text.replace(b"SYN-", "é中-".encode()),  # non-ASCII ids
        lambda text: text.replace(b"\n", b"\r\n"),  # CRLF line ends
    ], ids=["non_ascii_ids", "crlf"])
    def test_synth_cohort_rewritten_never_takes_the_row_path(self, tmp_path, change):
        path = tmp_path / "c.csv"
        write_cohort(generate_cohort(default_config()), path)
        path.write_bytes(change(path.read_bytes()))
        with mock.patch.object(data, "_row_columns", wraps=data._row_columns) as rows:
            got = load_cohort(path)
        assert not rows.called
        assert_same_patients(got.patients, ref_load_rows(path))

    def test_rows_spanning_blocks_with_blank_lines(self, tmp_path):
        t0 = datetime(2020, 3, 21, tzinfo=timezone.utc)
        lines = [HEADER]
        for i in range(2 * data._CHUNK_BYTES // 40):  # rows of about 48 bytes: 3 reads
            if i % 97 == 0:
                lines.append("\n")
            stamp = (t0 + timedelta(minutes=7 * i)).strftime("%Y-%m-%dT%H:%M:%SZ")
            lines.append(f"P{i % 3},{stamp},{60 + i % 50}.5,130.0,{70 + i % 7}.0,{40 + i % 3},"
                         f"{i % 3 % 2}\n")
        path = tmp_path / "c.csv"
        path.write_text("".join(lines[:1] + lines[:0:-1]))  # rows in reverse order
        with mock.patch.object(data, "_row_error", wraps=data._row_error) as row_error:
            got = load_cohort(path)
        assert not row_error.called
        assert_same_patients(got.patients, ref_load_rows(path))
        assert sum(len(p.times) for p in got.patients) == len(lines) - 1 - lines.count("\n")


def row(pid, hour, stamp=None, hr="80.0", dbp="70.0", age=50):
    stamp = stamp or f"{datetime(2020, 3, 21) + timedelta(hours=hour):%Y-%m-%dT%H:%M:%SZ}"
    return f"{pid},{stamp},{hr},120.0,{dbp},{age},1\n"


def block_cases(c):
    """Files whose features sit where reads of c rows end, with the outcome
    the reference gives each (None: it loads)."""
    p0 = [row("P0", h) for h in range(2 * c)]
    multi = '"Q\nR"'  # a quoted id that spans two lines
    return {
        "quoted_id_across_blocks": (
            "".join(p0[:c - 1]) + row(multi, 0) + row(multi, 1) + p0[-1], None),
        "quote_in_third_block_then_bad_row": (
            "".join(p0) + row('"P1"', 0) + row("P1", 1) + row("P1", 2, dbp="130.0"),
            (ValidationError, f"line {2 * c + 4}: dbp (130.0) must be < sbp (120.0)")),
        "crlf_bad_row": (
            ("".join(p0[:c]) + row("P0", 99, hr="eighty") + "".join(p0[c:])).replace(
                "\n", "\r\n"),
            (ParseError, f"line {c + 2}: non-numeric hr 'eighty'")),
        "ages_beyond_int16": (
            row("P0", 0, age=40000) + row("P0", 1, age=40001) + "".join(p0[2:]),
            (ValidationError, "line 3: patient P0 has inconsistent age/label")),
        "offset_repeat_across_blocks": (
            "".join(p0[:c + 1]) + row("P0", 0, stamp="2020-03-21T01:00:00+01:00"),
            (ValidationError, f"line {c + 3}: duplicate timestamp 2020-03-21T01:00:00+01:00 "
                              "for patient P0")),
    }


class TestBlockBoundaries:
    @pytest.mark.parametrize("name", sorted(block_cases(1)))
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_same_cohort_or_error(self, tmp_path, name, chunk):
        text, want = block_cases(max(1, chunk // len(row("P0", 0))))[name]
        path = tmp_path / f"{name}.csv"
        path.write_bytes((HEADER + text).encode("utf-8"))
        with mock.patch.object(data, "_CHUNK_BYTES", chunk):
            got = assert_loads_as_reference(path)
        assert (got[0] == "ok") if want is None else (got == want)

    def test_long_unquoted_id_has_no_field_limit(self, tmp_path):
        # longer than csv.field_size_limit(), with a stamp parsed on its own
        pid = "P" * 200_000
        path = tmp_path / "c.csv"
        path.write_text(HEADER + row(pid, 0, stamp="2020-03-21T00:00:00+00:00"))
        (patient,) = load_cohort(path).patients
        assert patient.patient_id == pid and len(patient.times) == 1

    def test_long_number_has_no_field_limit(self, tmp_path):
        # longer than csv.field_size_limit(): wider than the byte path reads,
        # and split at commas by the row path
        path = tmp_path / "c.csv"
        path.write_text(HEADER + row("P0", 0, hr="0" * 200_000 + "80.5"))
        with mock.patch.object(data, "_row_columns", wraps=data._row_columns) as rows:
            (patient,) = load_cohort(path).patients
        assert rows.called
        assert patient.patient_id == "P0" and patient.values[0, 0] == 80.5

    def test_quoted_field_over_the_csv_limit_is_malformed(self, tmp_path):
        # a file holding a quote takes the row path, where the csv module
        # reads from the quote on, under its field limit
        path = tmp_path / "c.csv"
        path.write_text(HEADER + row('"P0"', 0, hr="0" * 200_000 + "80.5"))
        with pytest.raises(csv.Error, match="field larger than field limit"):
            load_cohort(path)

    def test_a_file_growing_while_read_loads_the_bytes_read(self, tmp_path):
        # the file is read once, before the byte path parses it: rows that
        # another writer appends while the rows are parsed are not seen
        path = tmp_path / "c.csv"
        path.write_text(HEADER + row("P0", 0) + row("P0", 1))
        real = data._parse_rows

        def parse_rows(*args):
            with path.open("a") as fh:
                fh.write(row("P0", 9, stamp="2020-03-21T09:00:00+00:00"))
            return real(*args)

        with mock.patch.object(data, "_CHUNK_BYTES", 1), \
                mock.patch.object(data, "_parse_rows", parse_rows), \
                mock.patch.object(data, "_row_columns", wraps=data._row_columns) as rows:
            (patient,) = load_cohort(path).patients
        assert not rows.called and len(patient.times) == 2
        assert bytes(patient.text) == (row("P0", 0) + row("P0", 1)).encode()

    @pytest.fixture(scope="class")
    def x4_file(self, tmp_path_factory):
        """The benchmark's x4 cohort: 280 patients, ~166k rows."""
        cfg = default_config()
        for group in cfg.groups:
            group.patients_per_bin = [4 * n for n in group.patients_per_bin]
        path = tmp_path_factory.mktemp("x4") / "c.csv"
        write_cohort(generate_cohort(cfg), path)
        return path

    def test_a_load_parses_stamps_once_per_slab(self, x4_file):
        with mock.patch.object(data, "_parse_rows", wraps=data._parse_rows) as reads, \
                mock.patch.object(data, "_parse_stamps", wraps=data._parse_stamps) as stamps:
            load_cohort(x4_file)
        assert reads.call_count > 100
        assert stamps.call_count == reads.call_count
        assert stamps.call_count <= -(-x4_file.stat().st_size // data._CHUNK_BYTES)

    def test_reads_after_the_columns_allocate_no_large_block(self, x4_file):
        # each line of the byte path, from its first read on, allocates less
        # than glibc's mmap threshold; only the columns, allocated once
        # before, may be larger
        reading = False
        real = data._byte_columns

        def byte_columns(*args):
            nonlocal reading
            reading = True
            try:
                return real(*args)
            finally:
                reading = False

        parse_rows = mock.patch.object(data, "_parse_rows", wraps=data._parse_rows)
        with mock.patch.object(data, "_byte_columns", byte_columns), parse_rows as reads:
            rise = largest_line_rise(lambda: load_cohort(x4_file),
                                     armed=lambda: reading and reads.called)
        assert reads.call_count > 100
        assert rise < LARGE_BLOCK


# ---------------------------------------------------------------------------
# Files in the writer's own form
# ---------------------------------------------------------------------------

# the ids of IDS that the byte path reads: no quote, comma, CR or LF
BYTE_IDS = [pid for pid in IDS if not set(pid) & set('",\r\n')] + ["P" * ID_WIDTH]
FORM_STARTS = [datetime(2020, 3, 21), datetime(999, 12, 31, 23), datetime(9999, 1, 1)]
FORM_VALUES = st.integers(1, 30_000).map(lambda k: k / 100) | st.sampled_from(
    [0.0001, 0.0005, 0.125, 0.001, 999999.5])


def other_spelling(kind: str, lines: list[list[str]], at: int, other: int) -> None:
    """Change `lines` (the rows' fields, in file order) one way that the
    writer would not write: `kind` respells a field of row `at`, or moves
    that row to `other`; the file still loads."""
    row = lines[at]
    if kind == "trailing_zero":
        row[2] += "0" if len(row[2]) < 8 else ""
    elif kind == "leading_zero":
        row[3] = "0" + row[3] if len(row[3]) < 8 else row[3]
    elif kind == "no_point":
        row[2] = str(int(float(row[2])) + 1)
    elif kind == "exponent_in_repr":
        row[2] = "0.00005"
    elif kind == "age_leading_zero":
        row[5] = "0" + row[5]
    elif kind == "label_of_two_digits":
        row[6] = "0" + row[6]
    elif kind == "rows_moved":  # out of time order, or one patient inside another
        lines.insert(other, lines.pop(at))


FORM_CHANGES = ["trailing_zero", "leading_zero", "no_point", "exponent_in_repr",
                "age_leading_zero", "label_of_two_digits", "rows_moved", "crlf", "crlf_rows",
                "crlf_header", "blank_line", "no_final_lf"]


@st.composite
def byte_path_files(draw):
    """The bytes of files that the byte path reads: a few patients' rows as
    the writer writes them, with no change, one of FORM_CHANGES (each as
    likely), or now and then two."""
    lines = []
    for i, pid in enumerate(draw(st.lists(st.sampled_from(BYTE_IDS), min_size=1, max_size=4,
                                          unique=True))):
        n = draw(st.integers(1, 5))
        t = draw(st.sampled_from(FORM_STARTS))
        for step in draw(st.lists(st.integers(1, 3 * 86400), min_size=n, max_size=n)):
            t += timedelta(seconds=step)
            hr, sbp, dbp = draw(FORM_VALUES), draw(st.integers(100, 300)), draw(st.integers(1, 99))
            lines.append([pid, f"{t:%Y-%m-%dT%H:%M:%SZ}".rjust(20, "0"), repr(hr),
                          repr(sbp + 0.5), repr(dbp / 4), str(21 + 20 * i), str(i % 2)])
    changes = {draw(st.sampled_from(["none", *FORM_CHANGES]))}
    if draw(st.integers(0, 3)) == 0:
        changes.add(draw(st.sampled_from(FORM_CHANGES)))
    for kind in changes:
        other_spelling(kind, lines, draw(st.integers(0, len(lines) - 1)),
                       draw(st.integers(0, len(lines) - 1)))
    text = "".join(",".join(row) + "\n" for row in lines)
    if "blank_line" in changes:
        at = draw(st.integers(0, text.count("\n")))
        text = "\n".join(text.split("\n")[:at] + [""] + text.split("\n")[at:])
    if "crlf_rows" in changes:
        text = text.replace("\n", "\r\n")
    text = HEADER + text
    if "crlf" in changes:
        text = text.replace("\n", "\r\n").replace("\r\r", "\r")
    elif "crlf_header" in changes:
        text = text.replace("\n", "\r\n", 1)
    if "no_final_lf" in changes:
        text = text[:-1]
    return text.encode()


def written(cohort, path, texts=True):
    """`write_cohort`'s bytes for `cohort`, with each patient's `text` as
    loaded, or (`texts` false) with none."""
    kept = [p.text for p in cohort.patients]
    if not texts:
        for p in cohort.patients:
            p.text = None
    write_cohort(cohort, path)
    for p, text in zip(cohort.patients, kept):
        p.text = text
    return path.read_bytes()


class TestWritersOwnForm:
    @pytest.mark.parametrize("chunk", [1, 7, 64, data._CHUNK_BYTES])
    @settings(max_examples=100, deadline=None)
    @given(text=byte_path_files())
    # an empty id, whose first word holds the stamp's, so that its rows make
    # more than one run (`data._parse_rows`), before a patient first seen
    @example(text=(HEADER + ",2020-03-31T23:00:00Z,80.5,120.5,70.5,21,0\n"
                   ",2020-04-01T00:00:00Z,80.5,120.5,70.5,21,0\n"
                   "P1,2020-03-21T00:00:00Z,80.5,120.5,70.5,41,1\n").encode())
    def test_property_text_written_back_is_the_formatted_text(self, tmp_path_factory, chunk,
                                                              text):
        d = tmp_path_factory.mktemp("form")
        (d / "in.csv").write_bytes(text)
        with mock.patch.object(data, "_CHUNK_BYTES", chunk), \
                mock.patch.object(data, "_row_columns", wraps=data._row_columns) as rows:
            cohort = load_cohort(d / "in.csv")
        assert not rows.called
        formatted = written(cohort, d / "formatted.csv", texts=False)
        assert written(cohort, d / "kept.csv") == formatted
        # every patient keeps its text exactly when the file is the writer's
        kept = {p.text is not None for p in cohort.patients}
        assert kept == {text == formatted}

    @pytest.fixture(scope="class")
    def small_synth_file(self, tmp_path_factory):
        cfg = default_config()
        for group in cfg.groups:
            group.patients_per_bin = [1, 1, 1, 1]
        path = tmp_path_factory.mktemp("synth") / "c.csv"
        write_cohort(generate_cohort(cfg), path)
        return path.read_bytes()

    @pytest.mark.parametrize("change", ["as_written", "72.50", "072.5", "72", "0.00005", "crlf",
                                        "blank_line", "no_final_lf", "label_01", "age_065",
                                        "rows_swapped", "patient_interleaved", "crlf_header"])
    def test_split_of_another_spelling_writes_the_formatted_rows(self, tmp_path,
                                                                 small_synth_file, change):
        header, *lines = small_synth_file.decode().splitlines(True)
        first = lines[0].rstrip("\n").split(",")
        second = next(i for i, line in enumerate(lines) if not line.startswith(first[0] + ","))
        respell = {"72.50": (2, first[2] + "0"), "072.5": (2, "0" + first[2]), "72": (2, "72"),
                   "0.00005": (2, "0.00005"), "label_01": (6, "0" + first[6]),
                   "age_065": (5, "0" + first[5])}
        if change in respell:
            field, spelling = respell[change]
            first[field] = spelling
            lines[0] = ",".join(first) + "\n"
        elif change == "rows_swapped":
            lines[:2] = lines[1::-1]
        elif change == "patient_interleaved":
            lines.insert(1, lines.pop(second))
        elif change == "blank_line":
            lines.insert(1, "\n")
        text = header + "".join(lines)
        text = {"crlf": text.replace("\n", "\r\n"), "no_final_lf": text[:-1],
                "crlf_header": text.replace("\n", "\r\n", 1)}.get(change, text)
        path = tmp_path / "c.csv"
        path.write_bytes(text.encode())
        cohort = load_cohort(path)
        assert [p.text is not None for p in cohort.patients] == [change == "as_written"] * 8
        out = [tmp_path / "train.csv", tmp_path / "test.csv"]
        with mock.patch.object(data, "_pack_rows", wraps=data._pack_rows) as pack_rows:
            assert cli_run(["split", "--cohort", str(path), "--seed", "3",
                            "--train-out", str(out[0]), "--test-out", str(out[1])]) == 0
        assert pack_rows.called == (change != "as_written")  # as written, rows are copied
        for part, got in zip(split_by_patient(cohort, 0.8, 3), out):
            ref_write_cohort(part.patients, tmp_path / "ref.csv")
            assert got.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_ids_the_byte_path_reads_are_written_as_they_are(self, tmp_path):
        read = []
        for pid in IDS:
            path = tmp_path / "c.csv"
            times = np.arange(3).astype("datetime64[h]").astype("datetime64[us]")
            write_cohort(Cohort([PatientRecord(pid, 50, 1, times, [[80.0, 120.5, 70.25]] * 3)]),
                         path)  # the id quoted as `csv.writer` quotes it
            with mock.patch.object(data, "_row_columns", wraps=data._row_columns) as rows:
                (patient,) = load_cohort(path).patients
            if not rows.called:
                read.append(pid)
                assert data._csv_field(pid) == pid and patient.patient_id == pid
        assert read == BYTE_IDS[:-1]
