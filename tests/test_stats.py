import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

import stats_oracle
from vitalnet import stats
from vitalnet.data import Cohort, PatientRecord
from vitalnet.errors import ValidationError
from vitalnet.stats import (
    boxplot_stats,
    confidence_interval,
    point_biserial,
    t_quantile,
    t_sf,
)
from vitalnet.synth import patient_feature_table


def features(hr, sbp=None, dbp=None) -> dict[str, float]:
    """`patient_feature_table` row of one patient with one sample per hour."""
    n = len(hr)
    sbp = [120.0] * n if sbp is None else sbp
    dbp = [70.0] * n if dbp is None else dbp
    times = np.datetime64("2020-03-21T00:00", "us") + np.arange(n) * np.timedelta64(1, "h")
    record = PatientRecord("p", 50, 0, times, np.column_stack([hr, sbp, dbp]))
    return {k: v[0] for k, v in patient_feature_table(Cohort([record])).items()}


class TestSummaryFeatures:
    def test_constant(self):
        f = features([80, 80, 80])
        assert (f["hr_mean"], f["hr_std"], f["hr_min"], f["hr_max"]) == (80, 0, 80, 80)

    def test_two_point(self):
        f = features([70, 90])
        assert (f["hr_mean"], f["hr_std"], f["hr_min"], f["hr_max"]) == (80, 10, 70, 90)

    def test_population_std(self):
        # direct definition: sqrt(mean of squared deviations)
        x = [1, 2, 3, 4]
        expected = math.sqrt(sum((v - 2.5) ** 2 for v in x) / 4)
        assert features(x)["hr_std"] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.118034, abs=1e-6)

    def test_empty_rejected(self):
        # a patient without samples has no feature row: the record refuses it
        with pytest.raises(ValidationError):
            PatientRecord("p", 50, 0, np.array([], "datetime64[us]"), np.zeros((0, 3)))

    def test_per_channel_on_regular_series(self):
        feats = features([70.0, 90.0], sbp=[110.0, 130.0], dbp=[60.0, 70.0])
        assert {k.split("_")[0] for k in feats} == {"hr", "sbp", "dbp", "label", "age"}
        assert feats["hr_mean"] == 80 and feats["hr_std"] == 10
        assert feats["sbp_min"] == 110 and feats["dbp_max"] == 70


class TestTSf:
    def test_zero_is_half(self):
        for df in (1, 2, 5, 30):
            assert t_sf(0.0, df) == 0.5

    def test_df1_cauchy_closed_form(self):
        # sf(t, 1) = 1/2 - arctan(t)/pi
        assert t_sf(1.0, 1) == pytest.approx(0.25, abs=1e-12)
        for t in (0.3, 2.0, 17.5):
            assert t_sf(t, 1) == pytest.approx(0.5 - math.atan(t) / math.pi, abs=1e-12)

    def test_df2_closed_form(self):
        # sf(t, 2) = 1/2 - t / (2 sqrt(2 + t^2))
        t = 2.828427
        expected = 0.5 - t / (2.0 * math.sqrt(2.0 + t * t))
        assert t_sf(t, 2) == pytest.approx(expected, abs=1e-12)
        assert t_sf(t, 2) == pytest.approx(0.052786, abs=1e-6)

    def test_against_scipy_grid(self):
        for df in (1, 2, 3, 5, 10, 30, 100):
            for t in (-8.0, -1.5, -0.1, 0.2, 0.9, 2.5, 6.0, 12.0):
                assert t_sf(t, df) == pytest.approx(
                    float(sps.t.sf(t, df)), abs=1e-10
                ), (t, df)

    def test_quantile_round_trip(self):
        for df in (1, 4, 9, 40):
            for p in (0.6, 0.9, 0.975, 0.995):
                q = t_quantile(p, df)
                assert 1.0 - t_sf(q, df) == pytest.approx(p, abs=1e-9)

    def test_quantile_matches_scipy(self):
        assert t_quantile(0.975, 4) == pytest.approx(2.7764451, abs=1e-6)

    def test_quantile_is_memoized(self, monkeypatch):
        calls = []

        def counted_sf(t, df):
            calls.append((t, df))
            return t_sf(t, df)

        monkeypatch.setattr(stats, "t_sf", counted_sf)
        first = t_quantile(0.9731, 13)
        assert calls
        calls.clear()
        assert t_quantile(0.9731, 13) == first
        assert calls == []
        with pytest.raises(ValidationError):  # errors are raised on every call
            t_quantile(1.0, 13)
        with pytest.raises(ValidationError):
            t_quantile(1.0, 13)


class TestPointBiserial:
    def test_worked_example(self):
        res = point_biserial([1, 2, 3, 4], [0, 0, 1, 1])
        assert res.r == pytest.approx(0.894427, abs=1e-6)
        assert res.p == pytest.approx(0.105573, abs=1e-6)
        assert res.n == 4

    def test_perfect_separation(self):
        res = point_biserial([1, 1, 2, 2], [0, 0, 1, 1])
        assert res.r == pytest.approx(1.0, abs=1e-12)
        assert res.p == 0.0

    def test_errors(self):
        with pytest.raises(ValidationError):
            point_biserial([1.0, 1.0, 1.0, 1.0], [0, 0, 1, 1])  # constant x
        with pytest.raises(ValidationError):
            point_biserial([1.0, 2.0, 3.0], [1, 1, 1])  # single class
        with pytest.raises(ValidationError):
            point_biserial([1.0, 2.0], [0, 1])  # too short

    @staticmethod
    def _random_instance(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 60))
        x = rng.normal(size=n)
        y = np.zeros(n, dtype=int)
        y[: int(rng.integers(1, n))] = 1
        rng.shuffle(y)
        if y.min() == y.max() or np.std(x) == 0:
            return None
        return x, y

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_equals_pearson_on_binary(self, seed):
        inst = self._random_instance(seed)
        if inst is None:
            return
        x, y = inst
        res = point_biserial(x, y)
        pearson = np.corrcoef(x, y.astype(float))[0, 1]
        assert abs(res.r - pearson) < 1e-12

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=-5, max_value=5, allow_nan=False).filter(
            lambda a: abs(a) > 1e-3
        ),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_affine_invariance(self, seed, a, b):
        inst = self._random_instance(seed)
        if inst is None:
            return
        x, y = inst
        base = point_biserial(x, y)
        scaled = point_biserial(a * x + b, y)
        assert abs(abs(scaled.r) - abs(base.r)) < 1e-9
        assert np.sign(scaled.r) == np.sign(base.r) * np.sign(a)
        assert abs(scaled.p - base.p) < 1e-9

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_label_swap_negates_r(self, seed):
        inst = self._random_instance(seed)
        if inst is None:
            return
        x, y = inst
        res = point_biserial(x, y)
        swapped = point_biserial(x, 1 - y)
        assert abs(res.r + swapped.r) < 1e-12
        assert abs(res.p - swapped.p) < 1e-12

    def test_p_against_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(4, 80))
            x = rng.normal(size=n)
            y = (rng.random(n) < 0.4).astype(int)
            if y.min() == y.max():
                continue
            res = point_biserial(x, y)
            ref = sps.pointbiserialr(y, x)
            assert res.r == pytest.approx(float(ref.correlation), abs=1e-12)
            assert res.p == pytest.approx(float(ref.pvalue), abs=1e-10)


class TestConfidenceInterval:
    def test_zero_width(self):
        assert confidence_interval([5.0, 5.0, 5.0]) == (5.0, 5.0)

    def test_worked_example(self):
        lo, hi = confidence_interval([10, 12, 14, 16, 18])
        assert lo == pytest.approx(10.0736, abs=1e-3)
        assert hi == pytest.approx(17.9264, abs=1e-3)

    def test_matches_scipy(self):
        rng = np.random.default_rng(2)
        x = rng.normal(10, 3, size=23)
        lo, hi = confidence_interval(x)
        ref = sps.t.interval(0.95, len(x) - 1, loc=np.mean(x), scale=sps.sem(x))
        assert lo == pytest.approx(float(ref[0]), abs=1e-9)
        assert hi == pytest.approx(float(ref[1]), abs=1e-9)

    def test_width_shrinks_like_sqrt_n(self):
        # tiling preserves the sample variance, so width ~ t_df / sqrt(n)
        base = [2.0, 4.0, 6.0, 8.0]
        w1 = np.diff(confidence_interval(base * 25))[0]
        w4 = np.diff(confidence_interval(base * 100))[0]
        assert w4 == pytest.approx(w1 / 2, rel=0.02)

    def test_too_small(self):
        with pytest.raises(ValidationError):
            confidence_interval([1.0])


def outcome(f, *args):
    """f(*args) as its exact bits (`float.hex`), or as the type it raised."""
    try:
        return float.hex(f(*args))
    except (ArithmeticError, ValidationError) as exc:
        return type(exc)


_SPECIAL_T = st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf])


class TestParentOracle:
    """The Student-t tail is bit-equal to `stats_oracle`, the parent's form."""

    @settings(max_examples=1000, deadline=None)
    @given(a=st.floats(1e-6, 1e6) | st.sampled_from([0.5, 1.0, 34.0]),
           b=st.floats(1e-6, 1e6) | st.sampled_from([0.5, 1.0, 34.0]),
           x=st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2**-53]))
    def test_betacf_and_betainc(self, a, b, x):
        assert outcome(stats._betacf, a, b, x) == outcome(stats_oracle._betacf, a, b, x)
        assert outcome(stats._betainc, a, b, x) == outcome(stats_oracle._betainc, a, b, x)

    @settings(max_examples=1000, deadline=None)
    @given(t=st.floats() | _SPECIAL_T, df=st.integers(0, 10**7) | st.sampled_from([1, 2, 5, 68]))
    def test_t_sf(self, t, df):
        assert outcome(t_sf, t, df) == outcome(stats_oracle.t_sf, t, df)

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60))
    def test_confidence_interval(self, values):
        got = confidence_interval(values)
        want = stats_oracle.confidence_interval(values, 0.95)
        assert [float.hex(v) for v in got] == [float.hex(v) for v in want]


class TestBoxplotStats:
    def test_quartiles(self):
        b = boxplot_stats([1, 2, 3, 4, 5])
        assert b["median"] == 3
        assert b["q1"] == 2 and b["q3"] == 4
        assert b["whisker_lo"] == 1 and b["whisker_hi"] == 5

    def test_outlier_excluded_from_whiskers(self):
        b = boxplot_stats([1, 2, 3, 4, 5, 100])
        assert b["whisker_hi"] < 100
