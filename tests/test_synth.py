import copy
import hashlib
import json
import shutil
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from childproc import SRC, run_call
from cohort_ref import irregular_series, ref_resample
# the Python loops the block kernel replaced, and the per-vital assembly
from synth_oracle import _CLIP, _ar1, _burst, ref_assemble_patient, ref_mix
from vitalnet import synth
from vitalnet.cli import run
from vitalnet.data import (Cohort, PatientRecord, RegularSeries, resample, split_by_patient,
                           write_cohort)
from vitalnet.errors import ValidationError
from vitalnet.synth import (
    STATS,
    VITALS,
    Dynamics,
    SynthConfig,
    calibration_report,
    default_config,
    generate_cohort,
    patient_feature_table,
)

# published group totals for raw observation counts per vital
NEG_ROWS, POS_ROWS = 23057, 19449

# SHA-256 of `vitalnet synth --seed S` with the default config, as written by
# the per-row (VitalSample) generator that the array code replaced
PINNED_SHA256 = {
    0: "1a7d3a72a6920edb561b0475293fb7920f236c8a70ba16fdb395c01f058e991d",
    1: "af78d0ae1bb30f8af1be5f99b047a19afa1371658980d63b89b2e25f98a39f54",
    42: "2a9a54b9e0a9752dd9ec2b5686dfd603f67408e111cda07e3cae29087222e472",
}

# SHA-256 of `write_cohort` for the benchmark's x4 cohort: the default config
# with 4x the patients per bin, seed 1 (280 patients, 167,644 rows)
X4_SHA256 = "f8c7c7c4c5f840fb7eed0c587e81ad6c63ccfc9d1f7a122aa2d73ae3022a6462"


def x4_config():
    cfg = default_config()
    cfg.seed = 1
    for group in cfg.groups:
        group.patients_per_bin = [4 * n for n in group.patients_per_bin]
    return cfg


def edge_config(short_stays: bool, clip_bounds: bool):
    """The default config with stays under 15 minutes, so that every patient
    has one sample and each vital's mixed path is constant; and/or with
    targets that drive every vital past both of its clip bounds and dbp
    under sbp - 10."""
    cfg = default_config()
    for group in cfg.groups:
        if short_stays:
            group.stay_days = (0.001, 0.01)
        if clip_bounds:
            t = group.targets
            t["hr"]["mean"], t["hr"]["min"] = (195.0, 205.0), (25.0, 35.0)
            t["sbp"]["mean"] = (245.0, 255.0)
            t["dbp"]["mean"], t["dbp"]["min"] = (150.0, 160.0), (15.0, 25.0)
    return cfg


# SHA-256 of `write_cohort` for the edge configs, as written by the generator
# that mixed and rescaled the vitals one at a time through dicts; (True, True)
# as written once constant rows were clipped too (the others did not move)
EDGE_SHA256 = {
    (True, False): "c1b0567688ada8b7cb0eaf281f4ffcbcbacb0d6847a77a72474e53458ddc1341",
    (False, True): "b5addebfd3ad9210cf5af100940f9663db58784b4e86b4eaf419ce8e3ae5eb79",
    (True, True): "ce4df9bedc6aee9db90d52834840302bf6211b7e9ade11e7bb1239c2a8ed28cd",
}


@pytest.fixture(scope="module")
def cohort():
    return generate_cohort(default_config())


# a module for the child of `test_default_config_of_a_copy_under_another_name`
COPY_PROBE = """
import importlib.util

def default_config_of_copy():
    from vitalnet_copy.synth import default_config

    return importlib.util.find_spec("vitalnet") is not None, default_config().to_dict()
"""


def test_default_config_of_a_copy_under_another_name(tmp_path):
    # a copy of the package, imported as `vitalnet_copy` in a child that has
    # no plain `vitalnet` to import, reads its own default config
    shutil.copytree(SRC / "vitalnet", tmp_path / "vitalnet_copy",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "copy_probe.py").write_text(COPY_PROBE)
    run = run_call("copy_probe:default_config_of_copy", src=tmp_path,
                   env={"PYTHONPATH": None}, timeout=120)
    assert run.code == 0, run.stderr
    plain_importable, config = run.value
    assert not plain_importable
    assert config == default_config().to_dict()


class TestGenerateCohort:
    def test_patient_counts(self, cohort):
        labels = np.array([p.label for p in cohort.patients])
        assert len(cohort) == 70
        assert int(labels.sum()) == 32
        assert int((labels == 0).sum()) == 38

    def test_age_bins(self, cohort):
        cfg = default_config()
        for group in cfg.groups:
            ages = [p.age for p in cohort.patients if p.label == group.label]
            for (lo, hi), expected in zip(cfg.age_bins, group.patients_per_bin):
                got = sum(1 for a in ages if lo <= a <= hi)
                assert got == expected, (group.label, lo, hi)

    def test_row_counts_near_published_totals(self, cohort):
        rows = {0: 0, 1: 0}
        for p in cohort.patients:
            rows[p.label] += len(p.times)
        assert abs(rows[0] - NEG_ROWS) / NEG_ROWS < 0.10
        assert abs(rows[1] - POS_ROWS) / POS_ROWS < 0.10

    def test_csv_round_trip_through_loader(self, tmp_path, cohort):
        from vitalnet.data import load_cohort

        path = tmp_path / "cohort.csv"
        write_cohort(cohort, path)
        loaded = load_cohort(path)
        labels = np.array([p.label for p in loaded.patients])
        assert len(loaded) == 70
        assert int(labels.sum()) == 32 and int((labels == 0).sum()) == 38
        assert [len(p.times) for p in loaded.patients] == [
            len(p.times) for p in cohort.patients
        ]

    def test_deterministic_bytes(self, tmp_path, cohort):
        again = generate_cohort(default_config())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_cohort(cohort, a)
        write_cohort(again, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("seed", sorted(PINNED_SHA256))
    def test_pinned_bytes(self, tmp_path, seed):
        cfg = default_config()
        cfg.seed = seed
        path = tmp_path / "cohort.csv"
        write_cohort(generate_cohort(cfg), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SHA256[seed]

    @pytest.mark.parametrize("cells", [0, 1 << 62])
    @pytest.mark.parametrize("seed", sorted(PINNED_SHA256))
    def test_pinned_bytes_at_block_bounds(self, tmp_path, monkeypatch, seed, cells):
        # 0: every patient is a block of its own; 2**62: each group is one
        # block (a block never spans groups, whose stays are drawn in turn)
        recur, blocks = synth._recur, []

        def counted(buf, *args):
            blocks.append(buf.shape[1] // 5)  # patients in the block
            recur(buf, *args)

        monkeypatch.setattr(synth, "_BLOCK_CELLS", cells)
        monkeypatch.setattr(synth, "_recur", counted)
        cfg = default_config()
        cfg.seed = seed
        path = tmp_path / "cohort.csv"
        write_cohort(generate_cohort(cfg), path)
        assert blocks == ([1] * 70 if cells == 0 else [38, 32])
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SHA256[seed]

    def test_pinned_x4_bytes(self, tmp_path):
        path = tmp_path / "cohort.csv"
        cohort = generate_cohort(x4_config())
        write_cohort(cohort, path)
        assert sum(len(p.times) for p in cohort.patients) == 167_644
        assert hashlib.sha256(path.read_bytes()).hexdigest() == X4_SHA256

    @pytest.mark.parametrize("short_stays,clip_bounds", sorted(EDGE_SHA256))
    def test_pinned_edge_bytes(self, tmp_path, short_stays, clip_bounds):
        cohort = generate_cohort(edge_config(short_stays, clip_bounds))
        path = tmp_path / "cohort.csv"
        write_cohort(cohort, path)
        hr, sbp, dbp = np.concatenate([p.values for p in cohort.patients]).T
        if short_stays:  # constant paths: each at its latent mean, clipped
            assert all(len(p.times) == 1 for p in cohort.patients)
            at_bounds = [(hr == 200).any(), (sbp == 250).any(), (dbp == 150).all()]
            assert at_bounds == [clip_bounds] * 3
        else:  # every bound binds, and so does dbp <= sbp - 10
            assert all((v == b).sum() > 10 for v, b in [(hr, 30), (hr, 200), (sbp, 60),
                                                        (sbp, 250), (dbp, 20), (dbp, 150)])
            assert (np.abs(sbp - 10 - dbp) < 0.015).sum() > 100
        want = EDGE_SHA256[short_stays, clip_bounds]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want

    def test_x4_memory_peak(self):
        # the blocks bound what the recurrences hold: 6.4 MiB at the default
        # bound, 18.5 MiB with each group in one block, 5.5 MiB with one
        # patient a block (as the Python loops ran)
        cfg = x4_config()
        tracemalloc.start()
        try:
            generate_cohort(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20

    def test_different_seed_differs(self, cohort, tmp_path):
        cfg = default_config()
        cfg.seed = 43
        other = generate_cohort(cfg)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_cohort(cohort, a)
        write_cohort(other, b)
        assert a.read_bytes() != b.read_bytes()

    def test_sample_invariants(self, cohort):
        # constructors enforce these; assert directly as well
        for p in cohort.patients:
            hr, sbp, dbp = p.values.T
            assert (hr > 0).all() and (sbp > 0).all() and (dbp > 0).all()
            assert (dbp < sbp).all()
            times = p.times.tolist()
            assert all(b > a for a, b in zip(times, times[1:]))

    def test_cadence_from_config_set(self, cohort):
        cadences = set()
        for p in cohort.patients:
            delta = (p.times[1] - p.times[0]).item()
            cadences.add(int(delta.total_seconds() / 60))
        assert cadences <= {15, 30, 60}
        assert len(cadences) > 1

    def test_group_with_no_patients_is_skipped(self):
        cfg = default_config()
        cfg.groups[0].patients_per_bin = [0] * len(cfg.groups[0].patients_per_bin)
        cohort = generate_cohort(cfg)
        assert [p.patient_id for p in cohort.patients] == [f"SYN-1-{i:03d}" for i in range(32)]
        assert {p.label for p in cohort.patients} == {1}

    def test_impossible_config_rejected(self):
        cfg = default_config()
        cfg.groups[0].targets["hr"]["mean"] = (90.0, 80.0)  # lo > hi
        with pytest.raises(ValidationError):
            generate_cohort(cfg)

    @pytest.mark.parametrize(
        "path,value",
        [
            (("seed",), -1),
            (("seed",), 1.5),
            (("cadences_minutes", 0), 7.5),
            (("cadence_weights", 1), float("nan")),
            (("age_bins", 0, 0), "21"),
            (("groups", 0, "label"), "0"),
            (("groups", 1, "patients_per_bin", 2), 1e300),
            (("groups", 0, "stay_days", 1), 3e6),  # ends after year 9999
            (("groups", 1, "targets", "hr", "mean", 0), float("inf")),
            (("groups", 0, "circadian_hr_amp"), float("nan")),
            (("dynamics", "ar_coef_hourly"), -0.5),
            (("dynamics", "burst_decay_hourly"), 1.5),
            (("dynamics", "sbp_dbp_corr"), 2.0),
            (("dynamics", "spike_rate_per_hour"), -1.0),
            (("dynamics", "min_sd", "sbp"), -3.0),
            (("dynamics", "dip_gain", "hr"), "1"),
            # pieces of the wrong shape
            (("groups", 0, "targets"), [1, 2]),
            (("groups", 1, "targets", "hr"), [[80, 90], [10, 15]]),
            (("groups", 0, "targets", "sbp", "mean"), [110.0, 120.0, 130.0]),
            (("groups", 1, "stay_days"), [3, 6, 9]),
            (("age_bins", 0), [21, 30, 40]),
        ],
    )
    def test_out_of_range_config_value_rejected(self, path, value):
        raw = default_config().to_dict()
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ValidationError):
            SynthConfig.from_dict(raw)

    def test_config_json_round_trip(self):
        cfg = default_config()
        again = SynthConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()


# (coef,) is an AR(1) path and (rate, decay, dt_hours) a burst path, each run
# at every length of a set: the coefficients span the Dynamics bounds, rate 0
# and 100 give no and only impulses, and decay 1e-100 runs into subnormals
RECURRENCES = [(0.0,), (1.0,), (0.9**0.25,), (0.0, 0.9, 0.25), (0.05, 0.0, 1.0),
               (0.05, 1.0, 0.5), (100.0, 0.9, 0.25), (0.5, 1e-100, 1.0)]


@st.composite
def single_sample_configs(draw):
    """The default config at a drawn seed, with stays under 15 minutes (the
    shortest cadence), so that every patient has one sample and every row is
    constant, and with each vital's mean and min targets centred at one of
    its clip bounds or anywhere from 60 below the lower to 60 above the upper."""
    cfg = default_config()
    cfg.seed = draw(st.integers(0, 2**32 - 1))
    for group in cfg.groups:
        lo = draw(st.floats(0.0005, 0.0104))
        group.stay_days = (lo, draw(st.floats(lo, 0.0104)))
        for vital, (c_lo, c_hi) in _CLIP.items():
            for stat in ("mean", "min"):
                mid = draw(st.sampled_from([c_lo, c_hi]) | st.floats(c_lo - 60.0, c_hi + 60.0))
                half = draw(st.floats(0.5, 10.0))
                group.targets[vital][stat] = (mid - half, mid + half)
    return cfg


class TestOutputContract:
    @settings(max_examples=40, deadline=None)
    @given(cfg=single_sample_configs())
    def test_every_row_inside_the_clip_bounds(self, cfg):
        cohort = generate_cohort(cfg)
        assert all(len(p.times) == 1 for p in cohort.patients)
        values = np.concatenate([p.values for p in cohort.patients])
        bounds = np.array([_CLIP[v] for v in VITALS])
        assert ((bounds[:, 0] <= values) & (values <= bounds[:, 1])).all()
        assert (values[:, 2] < values[:, 1]).all()
        with tempfile.TemporaryDirectory() as tmp:
            config, out = Path(tmp, "config.json"), Path(tmp, "cohort.csv")
            config.write_text(json.dumps(cfg.to_dict()))
            assert run(["synth", "--config", str(config), "--out", str(out)]) == 0


class TestRecurrenceBlocks:
    @pytest.mark.parametrize("lengths", [[1], [2], [1, 2], [40] * 4, [2, 1, 300, 3, 1, 2]])
    def test_block_matches_python_loops(self, lengths):
        specs = [(n, *args) for n in lengths for args in RECURRENCES]
        expected, draws, coefs = [], [], []
        for seed, (n, *args) in enumerate(specs):
            rng = np.random.default_rng(seed)
            expected.append(_ar1(rng, n, *args) if len(args) == 1 else _burst(rng, n, *args))
            rng = np.random.default_rng(seed)  # the generator's draws, in its order
            if len(args) == 1:
                (coef,) = args
                x = rng.standard_normal(n) * np.sqrt(1.0 - coef * coef)
                x[0] = rng.standard_normal()
            else:
                rate, decay, dt_hours = args
                coef = decay**dt_hours
                hits = rng.random(n) < rate * dt_hours
                x = rng.exponential(1.0, size=n) * hits
            draws.append(x)
            coefs.append(coef)
        order = sorted(range(len(specs)), key=lambda i: -len(draws[i]))  # longest first
        buf = np.full((max(lengths), len(specs)), 7.0)
        for col, i in enumerate(order):
            buf[:len(draws[i]), col] = draws[i]
        synth._recur(buf, np.array(coefs)[order], np.array([len(draws[i]) for i in order]))
        for col, i in enumerate(order):
            got = buf[:len(draws[i]), col]
            assert (got.view(np.int64) == expected[i].view(np.int64)).all(), specs[i]
            assert (buf[len(draws[i]):, col] == 7.0).all()  # past its end: untouched


@st.composite
def five_paths(draw):
    """A block's five paths for one patient (n = 1-50): spikes and dips >= 0,
    then the hr, sbp and independent dbp AR(1) paths. Each path, or all five
    at once, may be constant."""
    n = draw(st.integers(1, 50))
    all_constant = draw(st.booleans())

    def path(lo, hi):
        if all_constant or draw(st.booleans()):
            return [draw(st.floats(lo, hi))] * n
        return draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))

    return np.array([path(0.0, 5.0), path(0.0, 5.0)] + [path(-4.0, 4.0) for _ in VITALS]).T


def fp_outcome(f, *args):
    """f(*args) with float overflow, division by zero and NaN raising, or
    None if one did. A path whose spread is subnormal (a constant path whose
    mean rounds above its minimum) overflows the rescale in both forms."""
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            return f(*args)
        except FloatingPointError:
            return None


# latent means that reach past both clip bounds of each vital, and dbp's past sbp - 10
LATENT_MEANS = {"hr": (0.0, 260.0), "sbp": (30.0, 300.0), "dbp": (0.0, 260.0)}


class TestAssembleOracle:
    @settings(max_examples=300, deadline=None)
    @given(paths=five_paths(), data=st.data(),
           amp=st.one_of(st.just(0.0), st.floats(0.0, 10.0)), rho=st.floats(-1.0, 1.0),
           cadence=st.sampled_from([1, 15, 60, 7 * 24 * 60]), phase=st.floats(0.0, 24.0))
    def test_matches_per_vital_reference(self, paths, data, amp, rho, cadence, phase):
        group = copy.deepcopy(default_config().groups[0])
        group.circadian_hr_amp = amp
        gain = st.floats(0.0, 3.0)
        dyn = Dynamics(sbp_dbp_corr=rho, **{name: {v: data.draw(gain) for v in VITALS}
                                            for name in ("base_sd", "spike_gain", "dip_gain")})
        mu = {v: data.draw(st.floats(*LATENT_MEANS[v])) for v in VITALS}
        mn = {v: min(data.draw(st.floats(-50.0, 250.0)), mu[v] - 5.0) for v in VITALS}
        # the reference keeps a constant row at the mean it is handed: hand it
        # that row's mean clipped, and its dbp rule then applies as the
        # generator's does; every other row is the reference's as it stands
        z = ref_mix(group, dyn, cadence, paths, phase)
        ref_mu = {v: np.clip(mu[v], *_CLIP[v]) if z[v].mean() - z[v].min() <= 0 else mu[v]
                  for v in VITALS}
        want = fp_outcome(ref_assemble_patient, "P", group, dyn, 50, cadence, paths, ref_mu,
                          mn, phase, 0)

        # the paths as the generator passes them: a patient's columns of a block
        n = len(paths)
        buf = np.full((n + 2, 15), 7.0)
        buf[:n, 5:10] = paths
        gains = np.array([[dyn.base_sd[v], dyn.spike_gain[v], dyn.dip_gain[v]]
                          for v in VITALS])
        column = lambda d: np.array([[d[v]] for v in VITALS])  # noqa: E731
        with mock.patch.object(synth, "_patient_record", lambda *args: args[-1]):
            got = fp_outcome(synth._assemble_patient, "P", group, dyn, gains, 50, cadence,
                             buf[:n, 5:10], column(mu), column(mn), phase, 0)
        if want is None:  # the reference overflowed
            assert got is None
            return
        assert got.shape == want.shape and got.flags.c_contiguous
        assert (got.view(np.int64) == want.view(np.int64)).all()

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           mids=st.lists(st.floats(-300.0, 300.0), min_size=6, max_size=6),
           sds=st.lists(st.floats(0.0, 10.0), min_size=6, max_size=6))
    def test_one_call_draws_are_six_scalar_draws(self, seed, mids, sds):
        # the latent (mean, min) draws of each vital in turn, as one call on
        # (3, 2) arrays and as six scalar calls in the same order
        one, six = np.random.default_rng(seed), np.random.default_rng(seed)
        got = one.normal(np.reshape(mids, (3, 2)), np.reshape(sds, (3, 2)))
        want = np.array([six.normal(m, s) for m, s in zip(mids, sds)])
        assert (got.ravel().view(np.int64) == want.view(np.int64)).all()
        assert one.random() == six.random()  # the same stream position


class TestCalibrationReport:
    def test_mean_cells_overlap(self, cohort):
        report = calibration_report(cohort)
        assert all(c.overlaps for c in report.cells if c.stat == "mean")

    def test_positive_mean_hr_interval(self, cohort):
        report = calibration_report(cohort)
        cell = next(
            c for c in report.cells if c.label == 1 and c.vital == "hr" and c.stat == "mean"
        )
        assert cell.target == (75.78, 86.18)
        assert cell.ci[0] <= 86.18 and cell.ci[1] >= 75.78

    def test_resting_hr_within_5bpm(self, cohort):
        report = calibration_report(cohort)
        assert report.resting_hr[1]["reference"] == pytest.approx(48.055, abs=1e-9)
        assert report.resting_hr[0]["reference"] == pytest.approx(55.235, abs=1e-9)
        for label in (0, 1):
            row = report.resting_hr[label]
            assert abs(row["observed_mean"] - row["reference"]) <= 5.0
            assert row["within_5_bpm"]

    def test_swapped_labels_flag_mean_hr(self, cohort):
        swapped = copy.deepcopy(cohort)
        for p in swapped.patients:
            p.label = 1 - p.label
        report = calibration_report(swapped)
        hr_mean_cells = [
            c for c in report.cells if c.vital == "hr" and c.stat == "mean"
        ]
        assert all(not c.overlaps for c in hr_mean_cells)

    def test_needs_both_labels(self, cohort):
        single = copy.deepcopy(cohort)
        for p in single.patients:
            p.label = 1
        with pytest.raises(ValidationError):
            calibration_report(single)

    def test_needs_two_patients_of_each_label(self, cohort):
        one_negative = Cohort([p for p in cohort.patients if p.label == 1]
                              + [next(p for p in cohort.patients if p.label == 0)])
        with pytest.raises(ValidationError, match="^need at least 2 patients with label 0$"):
            calibration_report(one_negative)


def ref_patient_feature_table(cohort, grid=resample):
    """The feature table that the row reductions replaced: per patient, one
    strided reduction per (vital, statistic) of its grid, boxed as a float."""
    rows = {f"{v}_{s}": [] for v in VITALS for s in STATS}
    rows["label"] = []
    rows["age"] = []
    for p in cohort.patients:
        series = grid(p)
        rows["label"].append(p.label)
        rows["age"].append(p.age)
        for ci, vital in enumerate(VITALS):
            col = series.values[:, ci]
            rows[f"{vital}_mean"].append(float(col.mean()))
            rows[f"{vital}_std"].append(float(col.std()))
            rows[f"{vital}_min"].append(float(col.min()))
            rows[f"{vital}_max"].append(float(col.max()))
    return {k: np.asarray(v) for k, v in rows.items()}


def ref_grid(record):
    """`ref_resample`'s per-sample and per-slot loops on a record."""
    samples = [(t, *v) for t, v in zip(record.times.astype(object), record.values.tolist())]
    return RegularSeries(ref_resample(samples, np.timedelta64(1, "h").astype(object)))


def assert_same_table(got, want):
    assert list(got) == list(want)
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert got[key].shape == want[key].shape, key
        assert got[key].tobytes() == want[key].tobytes(), key


def hourly_patient(pid, hours, rows):
    offsets = (np.asarray(hours) * 3600e6).astype(np.int64)
    times = np.datetime64("2020-03-21T00:00", "us") + offsets * np.timedelta64(1, "us")
    return PatientRecord(pid, 50 + len(hours), len(hours) % 2, times, rows)


class TestFeatureTableOracle:
    """`patient_feature_table` byte for byte against the per-column table,
    on grids from the loop resampler and from `resample`."""

    # patients as (hours since the first sample, (hr, sbp, dbp) rows)
    CASES = {
        "empty": [],
        "one_slot": [([0], [(80.0, 120.0, 70.0)]),
                     ([0, 0.25, 0.5], [(80.0, 120.0, 70.0), (81.1, 121.3, 70.2),
                                       (79.7, 119.9, 69.9)])],
        "constant_channel": [(range(50), [(72.3, 110.0 + i % 7 * 1.1, 65.0)
                                          for i in range(50)])],
        "gaps": [([0, 1, 5, 6, 30, 31.5, 100],
                  [(60.0 + i, 130.0 - i * 0.7, 80.0 + i * 0.3) for i in range(7)]),
                 ([0, 49], [(99.9, 150.0, 90.0), (40.1, 101.0, 50.5)])],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_small_cohorts(self, name):
        cohort = Cohort([hourly_patient(f"p{i}", hours, rows)
                         for i, (hours, rows) in enumerate(self.CASES[name])])
        want = ref_patient_feature_table(cohort, ref_grid)
        assert_same_table(patient_feature_table(cohort), want)
        assert_same_table(ref_patient_feature_table(cohort), want)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(irregular_series(), min_size=1, max_size=4))
    def test_irregular_cohorts(self, series):
        cohort = Cohort([PatientRecord(f"p{i}", 40, i % 2, np.datetime64("2020-03-21", "us")
                                       + np.asarray(offsets) * np.timedelta64(1, "us"), rows)
                         for i, (offsets, rows) in enumerate(series)])
        assert_same_table(patient_feature_table(cohort), ref_patient_feature_table(cohort))

    def test_x4_cohort_and_its_halves(self):
        cohort = generate_cohort(x4_config())
        for part in (cohort, *split_by_patient(cohort, 0.8, 3)):
            assert_same_table(patient_feature_table(part), ref_patient_feature_table(part))
        # every 10th grid against the loop resampler: none has an empty slot
        for p in cohort.patients[::10]:
            grid = resample(p).values
            assert grid.tobytes() == ref_grid(p).values.tobytes()
            slots = (p.times - p.times[0]) // np.timedelta64(1, "h")
            assert len(np.unique(slots)) == len(grid)
