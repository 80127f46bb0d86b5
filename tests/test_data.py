import time
import tracemalloc
from datetime import timedelta

import numpy as np
import pytest

from vitalnet import data
from vitalnet.data import (
    CSV_HEADER,
    ChannelStats,
    Cohort,
    PatientRecord,
    compute_channel_stats,
    load_cohort,
    make_windows,
    resample,
    split_by_patient,
    write_cohort,
)
from vitalnet.errors import ParseError, ValidationError

HOUR = timedelta(hours=1)
T0 = np.datetime64("2020-03-21T00:00", "us")


def ts(hours: float) -> np.datetime64:
    return T0 + np.timedelta64(round(hours * 3600e6), "us")


def patient(rows, pid="p", age=50, label=0):
    """A record from (hours, hr, sbp, dbp) rows."""
    return PatientRecord(
        pid, age, label, times=[ts(r[0]) for r in rows], values=[r[1:] for r in rows]
    )


def record(pid="p1", hours_hr=((0, 80.0),), age=50, label=0):
    return patient([(h, v, 120.0, 70.0) for h, v in hours_hr], pid, age, label)


def write_lines(path, rows):
    path.write_text(
        ",".join(CSV_HEADER) + "\n" + "\n".join(",".join(map(str, r)) for r in rows) + "\n"
    )


class TestTypes:
    def test_vital_invariants(self):
        with pytest.raises(ValidationError):
            patient([(0, -1, 120, 70)])
        with pytest.raises(ValidationError):
            patient([(0, 80, 80, 90)])

    def test_patient_requires_increasing_times(self):
        with pytest.raises(ValidationError):
            patient([(1, 80, 120, 70), (0, 80, 120, 70)])
        with pytest.raises(ValidationError):
            patient([(0, 80, 120, 70), (0, 80, 120, 70)])

    def test_cohort_unique_ids(self):
        with pytest.raises(ValidationError):
            Cohort([record("a"), record("a")])
        # each repeated id once, sorted
        with pytest.raises(ValidationError, match=r"^duplicate patient ids: \['a', 'b'\]$"):
            Cohort([record(i) for i in ["b", "a", "b", "c", "a", "b"]])

    def test_duplicate_ids_found_in_linear_time(self):
        # counting each id by a scan of all ids took 6 s over these 20,001
        records = [record(f"p{i}") for i in range(20_000)] + [record("p7")]
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=r"\['p7'\]"):
            Cohort(records)
        assert time.perf_counter() - start < 1.0


class TestLoadCohort:
    def test_minimal_valid(self, tmp_path):
        f = tmp_path / "c.csv"
        write_lines(
            f,
            [
                ["p1", "2020-03-21T14:00:00Z", 80, 120, 70, 55, 1],
                ["p1", "2020-03-21T15:00:00Z", 82, 121, 71, 55, 1],
            ],
        )
        cohort = load_cohort(f)
        assert len(cohort) == 1
        assert len(cohort.patients[0].times) == 2
        assert cohort.patients[0].label == 1

    def test_rows_sorted_per_patient(self, tmp_path):
        f = tmp_path / "c.csv"
        write_lines(
            f,
            [
                ["p1", "2020-03-21T15:00:00Z", 82, 121, 71, 55, 1],
                ["p1", "2020-03-21T14:00:00Z", 80, 120, 70, 55, 1],
            ],
        )
        values = load_cohort(f).patients[0].values
        assert values[0, 0] == 80

    def test_bad_timestamp_names_line(self, tmp_path):
        f = tmp_path / "c.csv"
        write_lines(
            f,
            [
                ["p1", "2020-03-21T14:00:00Z", 80, 120, 70, 55, 1],
                ["p1", "not-a-time", 82, 121, 71, 55, 1],
            ],
        )
        with pytest.raises(ParseError, match="line 3"):
            load_cohort(f)

    @pytest.mark.parametrize(
        "stamp", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:30:00-01:00"]
    )
    def test_stamp_outside_utc_years_names_line(self, tmp_path, stamp):
        f = tmp_path / "c.csv"
        write_lines(
            f,
            [
                ["p1", "2020-03-21T14:00:00Z", 80, 120, 70, 55, 1],
                ["p1", stamp, 82, 121, 71, 55, 1],
            ],
        )
        with pytest.raises(ParseError, match="line 3.*outside years"):
            load_cohort(f)

    def test_non_numeric_vital_names_line(self, tmp_path):
        f = tmp_path / "c.csv"
        write_lines(f, [["p1", "2020-03-21T14:00:00Z", "eighty", 120, 70, 55, 1]])
        with pytest.raises(ParseError, match="line 2"):
            load_cohort(f)

    def test_dbp_not_below_sbp_cites_row(self, tmp_path):
        f = tmp_path / "c.csv"
        write_lines(f, [["p1", "2020-03-21T14:00:00Z", 80, 80, 90, 55, 1]])
        with pytest.raises(ValidationError, match="line 2"):
            load_cohort(f)

    def test_duplicate_timestamp_rejected(self, tmp_path):
        f = tmp_path / "c.csv"
        write_lines(
            f,
            [
                ["p1", "2020-03-21T14:00:00Z", 80, 120, 70, 55, 1],
                ["p1", "2020-03-21T14:00:00Z", 82, 121, 71, 55, 1],
            ],
        )
        with pytest.raises(ValidationError, match="duplicate"):
            load_cohort(f)

    def test_bad_header(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("a,b,c\n")
        with pytest.raises(ParseError, match="header"):
            load_cohort(f)

    def test_inconsistent_age_rejected(self, tmp_path):
        f = tmp_path / "c.csv"
        write_lines(
            f,
            [
                ["p1", "2020-03-21T14:00:00Z", 80, 120, 70, 55, 1],
                ["p1", "2020-03-21T15:00:00Z", 82, 121, 71, 56, 1],
            ],
        )
        with pytest.raises(ValidationError, match="inconsistent"):
            load_cohort(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="no such file"):
            load_cohort(tmp_path / "absent.csv")

    def test_round_trip_bytes(self, tmp_path):
        f = tmp_path / "c.csv"
        write_lines(
            f,
            [
                ["p1", "2020-03-21T14:00:00Z", 80.5, 120.25, 70.125, 55, 1],
                ["p1", "2020-03-21T15:00:00Z", 82.0, 121.0, 71.0, 55, 1],
                ["p2", "2020-03-21T14:30:00Z", 90.0, 130.0, 80.0, 60, 0],
            ],
        )
        g = tmp_path / "copy.csv"
        write_cohort(load_cohort(f), g)
        assert g.read_bytes() == f.read_bytes()


class TestResample:
    def test_mean_within_slot(self):
        rec = record(hours_hr=[(0, 80.0), (0.25, 82.0), (0.5, 84.0), (0.75, 86.0)])
        reg = resample(rec)
        assert len(reg) == 1
        assert reg.values[0, 0] == pytest.approx(83.0)

    def test_single_sample_identity(self):
        reg = resample(record(hours_hr=[(0, 77.0)]))
        assert len(reg) == 1
        assert reg.values[0].tolist() == [77.0, 120.0, 70.0]

    def test_gap_forward_filled(self):
        reg = resample(record(hours_hr=[(0, 80.0), (2, 90.0)]))
        assert len(reg) == 3
        assert reg.values[1, 0] == 80.0  # forward fill
        assert reg.values[2, 0] == 90.0

    def test_length_is_spanned_slots(self):
        # slots cover [first, last] inclusive: floor(span/step) + 1
        reg = resample(record(hours_hr=[(0, 80.0), (2.5, 90.0)]))
        assert len(reg) == 3
        assert np.isfinite(reg.values).all()

    def test_all_cells_finite_random(self):
        rng = np.random.default_rng(0)
        hours = np.cumsum(rng.uniform(0.1, 3.0, size=40))
        rec = record(hours_hr=[(h, 60 + 30 * rng.random()) for h in hours])
        reg = resample(rec)
        span = rec.times[-1] - rec.times[0]
        assert len(reg) == int(span / np.timedelta64(HOUR)) + 1
        assert np.isfinite(reg.values).all()

    # a grid of two rows, of one row a slot and of ten rows a slot
    @pytest.mark.parametrize("n_slots,rows_per_slot", [(200_000, 0), (200_000, 1), (20_000, 10)])
    def test_peak_within_the_charged_elements(self, monkeypatch, n_slots, rows_per_slot):
        n_rows = max(2, n_slots * rows_per_slot)
        hours = np.linspace(0, n_slots - 1, n_rows)
        rec = PatientRecord("A", 50, 1, times=T0 + (hours * 3600e6).astype("timedelta64[us]"),
                            values=np.tile([80.0, 120.0, 70.0], (n_rows, 1)))
        charged = []
        monkeypatch.setattr(data, "check_elements", lambda what, n: charged.append(n))
        tracemalloc.start()
        try:
            resample(rec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(charged) == 1
        # NumPy's internal buffers add a fixed ~68 KB at any grid size
        assert peak <= 8 * charged[0] + (128 << 10), (peak, charged[0])

    def test_grid_over_budget_names_the_patient(self):
        # years 1 to 9999 are in range, but not one hourly grid between them
        rec = PatientRecord("A", 50, 1, times=["0001-01-01", "9999-12-31"],
                            values=[[80.0, 120.0, 70.0]] * 2)
        with pytest.raises(ValidationError, match="patient A's hourly grid of 87,649,393 slots"):
            resample(rec)


class TestChannelStats:
    def test_constant_channel_rejected(self):
        reg = resample(record(hours_hr=[(0, 80.0), (1, 80.0)]))
        with pytest.raises(ValidationError, match="zero-variance"):
            compute_channel_stats([reg])

    def test_two_point(self):
        rec = patient([(0, 70, 100, 60), (1, 90, 140, 80)])
        stats = compute_channel_stats([resample(rec)])
        assert stats.mean[0] == pytest.approx(80)
        assert stats.std[0] == pytest.approx(10)

    def test_zscore_identity(self):
        rng = np.random.default_rng(1)
        series = []
        for i in range(5):
            hours = np.arange(30)
            rec = patient(
                [
                    (h, 60 + 30 * rng.random(), 100 + 40 * rng.random(), 50 + 20 * rng.random())
                    for h in hours
                ],
                pid=f"p{i}",
            )
            series.append(resample(rec))
        stats = compute_channel_stats(series)
        cells = np.concatenate([stats.normalize(s.values) for s in series])
        assert np.abs(cells.mean(axis=0)).max() < 1e-9
        assert np.abs(cells.std(axis=0) - 1).max() < 1e-9


def _series_of_length(n_slots, pid="p1", label=0, seed=0):
    rng = np.random.default_rng(seed)
    rec = patient(
        [
            (h, 70 + 20 * rng.random(), 110 + 20 * rng.random(), 60 + 10 * rng.random())
            for h in range(n_slots)
        ],
        pid=pid,
        label=label,
    )
    return resample(rec)


def _stats():
    return ChannelStats(mean=np.array([80.0, 120.0, 65.0]), std=np.array([10.0, 15.0, 8.0]))


class TestMakeWindows:
    def test_window_count(self):
        reg = _series_of_length(240)
        ds = make_windows([("p1", reg, 0, 240)], 48, 24, _stats())
        assert len(ds) == 9  # floor((240-48)/24) + 1
        assert ds.ends.tolist() == list(range(48, 241, 24))
        assert ds.lengths.tolist() == [240] * 9

    def test_short_patient_padded(self):
        reg = _series_of_length(10)
        ds = make_windows([("p1", reg, 1, 10)], 48, 24, _stats())
        assert len(ds) == 1
        assert ds.padded[0]
        assert ds.ends.tolist() == [10] and ds.lengths.tolist() == [10]
        assert np.all(ds.X[0, :38, :] == 0.0)
        assert not np.all(ds.X[0, 38:, :] == 0.0)

    def test_label_inheritance(self):
        ds = make_windows([("p1", _series_of_length(240), 1, 240)], 48, 24, _stats())
        assert set(ds.y.tolist()) == {1}

    def test_empty_input_ok(self):
        ds = make_windows([], 48, 24, _stats())
        assert len(ds) == 0

    def test_bad_params(self):
        with pytest.raises(ValidationError):
            make_windows([], 0, 1, _stats())


class TestSplitByPatient:
    @staticmethod
    def _cohort(n_pos=32, n_neg=38):
        patients = [record(f"pos{i}", ((0, 80.0),), label=1) for i in range(n_pos)]
        patients += [record(f"neg{i}", ((0, 80.0),), label=0) for i in range(n_neg)]
        return Cohort(patients)

    def test_counts_70_at_80_percent(self):
        train, test = split_by_patient(self._cohort(), 0.8, seed=0)
        assert len(train) == 56
        assert len(test) == 14

    def test_deterministic(self):
        a = split_by_patient(self._cohort(), 0.8, seed=3)
        b = split_by_patient(self._cohort(), 0.8, seed=3)
        assert [p.patient_id for p in a[0].patients] == [p.patient_id for p in b[0].patients]

    def test_partition(self):
        cohort = self._cohort()
        train, test = split_by_patient(cohort, 0.8, seed=5)
        train_ids = {p.patient_id for p in train.patients}
        test_ids = {p.patient_id for p in test.patients}
        assert train_ids | test_ids == {p.patient_id for p in cohort.patients}
        assert train_ids & test_ids == set()

    def test_stratified_every_seed(self):
        # enumeration oracle: for 32/38 at 0.8, the test side must keep
        # at least 2 patients of each label for every seed
        cohort = self._cohort()
        for seed in range(20):
            _, test = split_by_patient(cohort, 0.8, seed=seed)
            labels = [p.label for p in test.patients]
            assert labels.count(0) >= 2
            assert labels.count(1) >= 2
            assert labels.count(0) == 8 and labels.count(1) == 6

    def test_too_small_to_stratify(self):
        cohort = Cohort(
            [record("a", label=0), record("b", label=0), record("c", label=1)]
        )
        with pytest.raises(ValidationError):
            split_by_patient(cohort, 0.8, seed=0)

    def test_bad_fraction(self):
        with pytest.raises(ValidationError):
            split_by_patient(self._cohort(), 1.0, seed=0)
