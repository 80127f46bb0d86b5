import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vitalnet.data import ChannelStats, WindowedDataset
from vitalnet.errors import ValidationError
from vitalnet.evaluate import (
    DEFAULT_DAYS,
    MetricsRow,
    accuracy,
    day_sweep,
    extract_features,
    predict,
    roc_auc,
    windows_from_cohort,
)
from vitalnet.nn import ModelConfig, init_params, zero_params
from vitalnet.synth import default_config, generate_cohort

TINY = ModelConfig(
    conv1_filters=2, conv1_kernel=3, conv2_filters=2, conv2_kernel=3, lstm_hidden=4
)


def pair_count_auc(probs, labels):
    """Brute-force Mann-Whitney oracle: ties credited 0.5."""
    probs = np.asarray(probs, float)
    labels = np.asarray(labels)
    pos = probs[labels == 1]
    neg = probs[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def make_dataset(n=12, window_len=16, seed=0):
    rng = np.random.default_rng(seed)
    return WindowedDataset(
        X=rng.standard_normal((n, window_len, 3)),
        y=np.arange(n) % 2,
        patient_ids=[f"p{i // 3}" for i in range(n)],
        padded=np.zeros(n, dtype=bool),
        window_len=window_len,
        stats=ChannelStats(mean=np.zeros(3), std=np.ones(3)),
    )


class TestAccuracy:
    def test_simple(self):
        assert accuracy([0.9, 0.1], [1, 0]) == 1.0

    def test_tie_predicts_positive(self):
        # all scores at the threshold predict 1, so accuracy = share of 1s
        labels = np.array([1, 1, 0, 0])
        assert accuracy([0.5] * 4, labels) == 0.5
        labels = np.array([1, 1, 1, 0])
        assert accuracy([0.5] * 4, labels) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            accuracy([0.5], [1, 0])


class TestRocAuc:
    def test_worked_example(self):
        assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(
            0.75, abs=1e-12
        )

    def test_perfect_separation(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_half(self):
        assert roc_auc([0.3, 0.3, 0.3, 0.3], [0, 1, 0, 1]) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            roc_auc([0.1, 0.9], [1, 1])

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=200, deadline=None)
    def test_matches_pair_counting(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        # quantized scores force plenty of ties
        probs = rng.integers(0, 5, size=n) / 4.0
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            return
        assert abs(roc_auc(probs, labels) - pair_count_auc(probs, labels)) < 1e-12

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=100, deadline=None)
    def test_invariances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 50))
        probs = rng.random(n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            return
        base = roc_auc(probs, labels)
        # strictly increasing transform leaves the AUC unchanged
        assert roc_auc(np.exp(2.0 * probs), labels) == pytest.approx(base, abs=1e-12)
        # negated scores mirror it
        assert roc_auc(-probs, labels) == pytest.approx(1.0 - base, abs=1e-12)


class TestPredict:
    def test_zero_init_all_half(self):
        ds = make_dataset()
        probs = predict(zero_params(TINY), ds)
        assert np.all(probs == 0.5)

    def test_empty_dataset(self):
        ds = make_dataset(n=0)
        assert predict(init_params(TINY), ds).size == 0

    def test_batched_equals_one_at_a_time(self):
        ds = make_dataset(n=20)
        params = init_params(TINY)
        batched = predict(params, ds)
        from vitalnet.nn import forward

        single = np.array([forward(params, ds.X[i : i + 1])[0][0] for i in range(20)])
        assert np.abs(batched - single).max() < 1e-12

    def test_zero_init_accuracy_is_majority_share(self):
        ds = make_dataset(n=10)
        probs = predict(zero_params(TINY), ds)
        assert accuracy(probs, ds.y) == ds.y.mean()


class TestExtractFeatures:
    def test_width_100(self):
        feats = extract_features(init_params(TINY), make_dataset())
        assert feats.shape == (12, 100)

    def test_zero_init_all_zero(self):
        feats = extract_features(zero_params(TINY), make_dataset())
        assert np.all(feats == 0.0)

    def test_identical_windows_identical_rows(self):
        ds = make_dataset(n=4)
        ds.X[1] = ds.X[0]
        feats = extract_features(init_params(TINY), ds)
        assert np.array_equal(feats[0], feats[1])


@pytest.fixture(scope="module")
def small_cohort():
    cfg = default_config()
    for g in cfg.groups:
        g.patients_per_bin = [1, 1, 1, 1]
        g.stay_days = (3, 12)
    return generate_cohort(cfg)


@pytest.fixture(scope="module")
def stats(small_cohort):
    from vitalnet.data import compute_channel_stats, resample

    return compute_channel_stats([resample(p) for p in small_cohort.patients])


class TestDaySweep:

    def test_default_days_gives_14_rows(self, small_cohort, stats):
        params = init_params(TINY)
        rows = day_sweep(params, small_cohort, stats, 16, 24)
        assert len(rows) == 14
        assert [r.days for r in rows] == list(DEFAULT_DAYS)

    def test_rows_ascending_and_valid(self, small_cohort, stats):
        params = init_params(TINY)
        rows = day_sweep(params, small_cohort, stats, 16, 24, days=(4, 2, 8))
        assert [r.days for r in rows] == [2, 4, 8]
        for r in rows:
            assert 0 <= r.accuracy <= 1 and 0 <= r.auc <= 1

    def test_truncation_beyond_max_is_noop(self, small_cohort, stats):
        # stays cap at 12 days, so N=14 and N=100 see identical data
        params = init_params(ModelConfig(seed=3, conv1_filters=2, conv2_filters=2, lstm_hidden=4))
        rows = day_sweep(params, small_cohort, stats, 16, 24, days=(14, 100))
        a, b = rows
        assert a.n_windows == b.n_windows
        assert a.accuracy == b.accuracy
        assert a.auc == b.auc

    @pytest.mark.parametrize("days", [(0,), (-2,), (2, 0)])
    def test_days_below_one_rejected(self, small_cohort, stats, days):
        with pytest.raises(ValidationError):
            day_sweep(init_params(TINY), small_cohort, stats, 16, 24, days=days)

    @pytest.mark.parametrize("threshold", [-0.01, 1.5, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, small_cohort, stats, threshold):
        with pytest.raises(ValidationError):
            day_sweep(init_params(TINY), small_cohort, stats, 16, 24, days=(2,),
                      threshold=threshold)

    def test_metrics_row_validation(self):
        with pytest.raises(ValidationError):
            MetricsRow(days=2, n_windows=5, accuracy=1.5, auc=0.5)


class TestWindowsFromCohort:
    def test_short_patients_padded_not_dropped(self):
        cfg = default_config()
        for g in cfg.groups:
            g.patients_per_bin = [1, 0, 0, 0]
            g.stay_days = (3, 4)
        cohort = generate_cohort(cfg)
        from vitalnet.data import compute_channel_stats, resample

        stats = compute_channel_stats([resample(p) for p in cohort.patients])
        # truncate to 1 day (24 slots), below the 48-slot window
        ds = windows_from_cohort(cohort, stats, 48, 24, max_days=1)
        assert len(ds) == len(cohort.patients)
        assert ds.padded.all()
