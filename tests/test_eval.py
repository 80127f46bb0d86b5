import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vitalnet.evaluate as evaluate
from vitalnet.data import (
    RegularSeries,
    WindowedDataset,
    compute_channel_stats,
    make_windows,
    resample,
)
from vitalnet.errors import ValidationError
from vitalnet.evaluate import (
    DEFAULT_DAYS,
    MetricsRow,
    accuracy,
    day_sweep,
    extract_features,
    predict,
    roc_auc,
    window_metrics,
    windows_from_cohort,
)
from vitalnet.nn import ModelConfig, Workspace, init_params
from vitalnet.synth import default_config, generate_cohort

from alloc_probe import LARGE_BLOCK, largest_line_rise

TINY = ModelConfig(
    conv1_filters=2, conv1_kernel=3, conv2_filters=2, conv2_kernel=3, lstm_hidden=4
)
ZERO = init_params(TINY)
ZERO.flat[:] = 0.0  # every sigmoid reads 0.5 and every ReLU 0


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
        ends=np.full(n, window_len),
        lengths=np.full(n, window_len),
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
        probs = predict(ZERO, ds)
        assert np.all(probs == 0.5)

    def test_empty_dataset(self):
        ds = make_dataset(n=0)
        assert predict(init_params(TINY), ds).size == 0

    def test_batched_equals_one_at_a_time(self):
        ds = make_dataset(n=20)
        params = init_params(TINY)
        batched = predict(params, ds)
        from vitalnet.nn import forward

        ws = Workspace()
        single = np.array([forward(params, ds.X[i : i + 1], ws)[0][0] for i in range(20)])
        assert np.abs(batched - single).max() < 1e-12

    def test_zero_init_accuracy_is_majority_share(self):
        ds = make_dataset(n=10)
        probs = predict(ZERO, ds)
        assert accuracy(probs, ds.y) == ds.y.mean()

    def test_chunks_match_one_forward_pass(self, monkeypatch):
        from vitalnet.nn import forward

        ds = make_dataset(n=20)
        params = init_params(TINY)
        probs, feats, _ = forward(params, ds.X, Workspace())
        monkeypatch.setattr(evaluate, "chunk_windows", lambda config, window_len: 7)
        assert np.abs(predict(params, ds) - probs).max() < 1e-12
        assert np.abs(extract_features(params, ds) - feats).max() < 1e-12

    def test_non_finite_output_rejected(self):
        params = init_params(TINY)
        params.tensors["dense2_b"][...] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            predict(params, make_dataset())


@pytest.fixture(scope="module")
def heldout(pipeline):
    """The 216 windows of the seed-11 held-out split."""
    grids = [resample(p) for p in pipeline.test_cohort.patients]
    return windows_from_cohort(pipeline.test_cohort, grids, pipeline.stats, 48, 24)


class TestScoringChunks:
    """_score's chunk comes from the element budget and the checkpoint's
    per-window element count."""

    def test_default_chunk(self):
        assert evaluate.chunk_windows(ModelConfig(), 48) == 32

    @pytest.mark.parametrize("cfg,window_len", [
        (ModelConfig(), 48), (ModelConfig(), 200), (TINY, 16), (ModelConfig(), 8784),
        (ModelConfig(conv1_filters=1024, conv2_filters=1024, lstm_hidden=1024), 48)])
    def test_chunk_is_the_largest_power_of_two_in_budget(self, cfg, window_len):
        chunk = evaluate.chunk_windows(cfg, window_len)
        per_window = cfg.window_elements(window_len)
        assert chunk & (chunk - 1) == 0
        assert chunk == 1 or chunk * per_window <= evaluate._CHUNK_ELEMENTS
        assert 2 * chunk * per_window > evaluate._CHUNK_ELEMENTS

    def test_window_over_budget_rejected(self):
        cfg = ModelConfig(conv1_filters=1024, conv1_kernel=64, conv2_kernel=64)
        with pytest.raises(ValidationError, match="one window of 8784 slots needs"):
            evaluate.chunk_windows(cfg, 8784)

    def test_heldout_peak_within_chunk_budget(self, pipeline, heldout):
        # one 216-window pass peaked at 18.45 MiB; a chunk's arrays stay
        # inside the 8 MiB that _CHUNK_ELEMENTS float64 elements take
        assert len(heldout) == 216
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            evaluate._score(pipeline.params, heldout)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 8 * evaluate._CHUNK_ELEMENTS

    def test_chunks_after_the_first_allocate_no_large_block(self, pipeline, heldout,
                                                            monkeypatch):
        # the chunks share one workspace; 216 windows give six chunks of 32
        # and a partial one of 24
        passes = 0
        forward = evaluate.forward

        def counting(*args):
            nonlocal passes
            out = forward(*args)
            passes += 1
            return out

        monkeypatch.setattr(evaluate, "forward", counting)
        rise = largest_line_rise(lambda: evaluate._score(pipeline.params, heldout),
                                 armed=lambda: passes >= 1)
        assert passes == 7
        assert rise < LARGE_BLOCK


class TestExtractFeatures:
    def test_width_100(self):
        feats = extract_features(init_params(TINY), make_dataset())
        assert feats.shape == (12, 100)

    def test_zero_init_all_zero(self):
        feats = extract_features(ZERO, make_dataset())
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

    @pytest.mark.parametrize("window_len,stride", [(16, 0), (0, 24)])
    def test_window_len_and_stride_below_one_rejected(self, small_cohort, stats,
                                                      window_len, stride):
        with pytest.raises(ValidationError):
            day_sweep(init_params(TINY), small_cohort, stats, window_len, stride)

    @pytest.mark.parametrize("threshold", [-0.01, 1.5, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, small_cohort, stats, threshold):
        with pytest.raises(ValidationError):
            day_sweep(init_params(TINY), small_cohort, stats, 16, 24, days=(2,),
                      threshold=threshold)

    def test_metrics_row_validation(self):
        with pytest.raises(ValidationError):
            MetricsRow(days=2, n_windows=5, accuracy=1.5, auc=0.5)


def reference_windows(cohort, stats, window_len, stride, max_days=None):
    """The truncate-then-window path the window table replaced: resample each
    patient, cut its series to the first max_days days, and window the cut."""
    series = []
    for p in cohort.patients:
        reg = resample(p)
        if max_days is not None and len(reg) > max_days * 24:
            reg = RegularSeries(values=reg.values[: max_days * 24])
        series.append((p.patient_id, reg, p.label, len(reg)))
    return make_windows(series, window_len, stride, stats)


def assert_same_windows(got, want):
    assert np.array_equal(got.X, want.X)
    assert np.array_equal(got.y, want.y)
    assert got.patient_ids == want.patient_ids
    assert np.array_equal(got.padded, want.padded)
    assert np.array_equal(got.ends, want.ends)


class TestWindowsFromCohort:
    def test_short_patients_padded_not_dropped(self):
        cfg = default_config()
        for g in cfg.groups:
            g.patients_per_bin = [1, 0, 0, 0]
            g.stay_days = (3, 4)
        cohort = generate_cohort(cfg)
        grids = [resample(p) for p in cohort.patients]
        stats = compute_channel_stats(grids)
        # truncate to 1 day (24 slots), below the 48-slot window
        ds = windows_from_cohort(cohort, grids, stats, 48, 24, days=(1,))
        assert len(ds) == len(cohort.patients)
        assert ds.padded.all()
        assert_same_windows(ds, reference_windows(cohort, stats, 48, 24, max_days=1))

    @pytest.mark.parametrize("window_len,stride", [(48, 24), (16, 24), (10, 5)])
    @pytest.mark.parametrize("max_days", [None, 1, 2, 3, 40])
    def test_one_cut_matches_truncate_then_window(self, short_cohort, window_len, stride,
                                                  max_days):
        cohort, stats = short_cohort
        days = None if max_days is None else (max_days,)
        grids = [resample(p) for p in cohort.patients]
        got = windows_from_cohort(cohort, grids, stats, window_len, stride, days)
        assert_same_windows(got, reference_windows(cohort, stats, window_len, stride,
                                                   max_days))
        lengths = {p.patient_id: len(resample(p)) for p in cohort.patients}
        assert got.lengths.tolist() == [lengths[pid] for pid in got.patient_ids]


def reference_day_sweep(params, cohort, stats, window_len, stride, days,
                        threshold=0.5, per_patient=False):
    """The per-N sweep: re-window the cohort cut to N days and score it, for
    every N. Returns the rows and, per row, the scored windows'
    (probabilities, labels, patient ids)."""
    rows, scored = [], []
    for n_days in sorted(days):
        ds = reference_windows(cohort, stats, window_len, stride, max_days=n_days)
        probs = predict(params, ds)
        acc, auc = window_metrics(probs, ds, threshold, per_patient)
        rows.append(MetricsRow(days=n_days, n_windows=len(ds), accuracy=acc, auc=auc))
        scored.append((probs, ds.y, ds.patient_ids))
    return rows, scored


@pytest.fixture(scope="module")
def short_cohort():
    # stays of 12 h to 3 days: several patients shorter than a 48-slot window
    cfg = default_config()
    cfg.seed = 5
    for g in cfg.groups:
        g.patients_per_bin = [2, 2, 1, 1]
        g.stay_days = (0.5, 3)
    cohort = generate_cohort(cfg)
    return cohort, compute_channel_stats([resample(p) for p in cohort.patients])


class TestDaySweepOracle:
    """The scored-window table against the per-N sweep it replaced."""

    DAYS = [(2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28), (1, 2, 3, 5, 40),
            (3, 1, 3, 1000, 1), (1,)]

    def check(self, monkeypatch, params, cohort, stats, window_len, stride, days,
              per_patient):
        scored = []
        metrics = evaluate._metrics

        def recording(probs, labels, patient_ids, threshold, per_patient):
            scored.append((probs, labels, patient_ids))
            return metrics(probs, labels, patient_ids, threshold, per_patient)

        monkeypatch.setattr(evaluate, "_metrics", recording)
        got = day_sweep(params, cohort, stats, window_len, stride, days,
                        per_patient=per_patient)
        monkeypatch.undo()
        want, want_scored = reference_day_sweep(params, cohort, stats, window_len,
                                                stride, days, per_patient=per_patient)
        assert [r.days for r in got] == sorted(days)
        assert [r.n_windows for r in got] == [r.n_windows for r in want]
        assert got == want  # exact accuracy and AUC
        assert len(scored) == len(want_scored)
        for (probs, labels, pids), (ref_probs, ref_labels, ref_pids) in zip(
            scored, want_scored
        ):
            assert np.abs(probs - ref_probs).max() <= 1e-12
            assert np.array_equal(labels, ref_labels)
            assert list(pids) == list(ref_pids)

    @pytest.mark.parametrize("per_patient", [False, True])
    @pytest.mark.parametrize("days", DAYS)
    def test_default_heldout_cohort(self, monkeypatch, pipeline, days, per_patient):
        self.check(monkeypatch, pipeline.params, pipeline.test_cohort, pipeline.stats,
                   48, 24, days, per_patient)

    @pytest.mark.parametrize("per_patient", [False, True])
    @pytest.mark.parametrize("window_len,stride", [(48, 24), (16, 24), (10, 5)])
    @pytest.mark.parametrize("days", DAYS[1:])
    def test_short_patients(self, monkeypatch, short_cohort, window_len, stride, days,
                            per_patient):
        cohort, stats = short_cohort
        params = init_params(ModelConfig(seed=4, conv1_filters=3, conv2_filters=3,
                                         lstm_hidden=5))
        self.check(monkeypatch, params, cohort, stats, window_len, stride, days,
                   per_patient)

    def test_short_cohort_has_padded_windows(self, short_cohort):
        cohort, stats = short_cohort
        grids = [resample(p) for p in cohort.patients]
        assert windows_from_cohort(cohort, grids, stats, 48, 24).padded.sum() >= 2
        assert windows_from_cohort(cohort, grids, stats, 48, 24, days=(1,)).padded.all()

    def test_scores_only_windows_some_row_reads(self, monkeypatch, pipeline):
        sizes = []

        def recording(params, dataset):
            sizes.append(len(dataset))
            return predict(params, dataset)

        monkeypatch.setattr(evaluate, "predict", recording)
        day_sweep(pipeline.params, pipeline.test_cohort, pipeline.stats, 48, 24, days=(2, 4))
        read = set()
        for n_days in (2, 4):
            ds = reference_windows(pipeline.test_cohort, pipeline.stats, 48, 24, n_days)
            read.update((pid, x.tobytes()) for pid, x in zip(ds.patient_ids, ds.X))
        assert sizes == [len(read)]
