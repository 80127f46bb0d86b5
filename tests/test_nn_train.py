import json
import numbers
from dataclasses import fields

import numpy as np
import pytest

from vitalnet.data import WindowedDataset
from vitalnet.errors import ValidationError, require
from vitalnet.nn import (
    AdamState,
    ModelConfig,
    TrainConfig,
    adam_step,
    finite_diff_grads,
    forward,
    grad_check,
    init_params,
    load_checkpoint,
    loss_and_grads,
    max_relative_error,
    save_checkpoint,
    train,
    zero_params,
)
from vitalnet.nn import gradcheck
from vitalnet.nn.gradcheck import make_check_batch
from vitalnet.nn.layers import conv1d_forward
from vitalnet.nn.model import FIXED_KEYS, MAX_KERNEL, MAX_POOL, MAX_WIDTH, TENSOR_ORDER
from vitalnet.nn.train import MAX_EPOCHS

TINY = ModelConfig(
    conv1_filters=2, conv1_kernel=3, conv2_filters=2, conv2_kernel=3, lstm_hidden=4
)


def make_dataset(n_windows=40, window_len=24, separation=0.0, seed=0):
    """Synthetic windowed dataset; positive windows shifted in channel 0."""
    rng = np.random.default_rng(seed)
    y = np.arange(n_windows) % 2
    x = rng.standard_normal((n_windows, window_len, 3))
    x[y == 1, :, 0] += separation
    return WindowedDataset(
        X=x,
        y=y,
        patient_ids=[f"p{i}" for i in range(n_windows)],
        padded=np.zeros(n_windows, dtype=bool),
        ends=np.full(n_windows, window_len),
        lengths=np.full(n_windows, window_len),
    )


class TestModelBasics:
    def test_zero_params_probability_half(self):
        params = zero_params(TINY)
        rng = np.random.default_rng(0)
        probs, feats, _ = forward(params, rng.standard_normal((5, 16, 3)))
        assert np.all(probs == 0.5)
        assert np.all(feats == 0.0)  # ReLU of zero pre-activations

    def test_forward_deterministic(self):
        params = init_params(TINY)
        x = np.random.default_rng(1).standard_normal((3, 16, 3))
        a = forward(params, x)[0]
        b = forward(params, x)[0]
        assert np.array_equal(a, b)

    def test_feature_width_fixed_at_100(self):
        params = init_params(TINY)
        x = np.random.default_rng(2).standard_normal((4, 16, 3))
        _, feats, _ = forward(params, x)
        assert feats.shape == (4, 100)

    def test_probabilities_in_open_interval(self):
        params = init_params(TINY)
        x = np.random.default_rng(3).standard_normal((8, 16, 3))
        probs, _, _ = forward(params, x)
        assert np.all((probs > 0) & (probs < 1))

    def test_window_too_short_rejected(self):
        params = init_params(TINY)
        with pytest.raises(ValidationError):
            forward(params, np.zeros((1, 4, 3)))

    def test_dense1_units_pinned(self):
        with pytest.raises(ValidationError):
            ModelConfig.from_dict({"dense1_units": 64})
        with pytest.raises(ValidationError):
            ModelConfig.from_dict({"dense2_units": 2})

    def test_model_config_has_no_fixed_fields(self):
        assert len(fields(ModelConfig)) == 8
        assert not set(FIXED_KEYS) & {f.name for f in fields(ModelConfig)}

    @pytest.mark.parametrize(
        "field,bound",
        [("conv1_filters", MAX_WIDTH), ("conv2_filters", MAX_WIDTH),
         ("lstm_hidden", MAX_WIDTH), ("conv1_kernel", MAX_KERNEL),
         ("conv2_kernel", MAX_KERNEL), ("pool_size", MAX_POOL), ("pool_stride", MAX_POOL)],
    )
    def test_layer_sizes_bounded(self, field, bound):
        paper = getattr(ModelConfig(), field)
        assert paper * 8 <= bound  # the paper's settings sit far inside
        ModelConfig(**{field: bound}).validate()
        for bad in (bound + 1, 2**70, 10**30):
            with pytest.raises(ValidationError, match=field):
                ModelConfig(**{field: bad}).validate()

    def test_epochs_bounded(self):
        assert TrainConfig().epochs * 300 <= MAX_EPOCHS
        TrainConfig(epochs=MAX_EPOCHS).validate()
        for bad in (MAX_EPOCHS + 1, 10**12, 2**70):
            with pytest.raises(ValidationError, match="epochs"):
                TrainConfig(epochs=bad).validate()

    def test_huge_integers_checked_exactly(self):
        huge = 10**400  # beyond any float
        require("n", huge, numbers.Integral, 1)
        for bad in (-huge, huge + 1):
            with pytest.raises(ValidationError):
                require("n", bad, numbers.Integral, 1, huge)
        with pytest.raises(ValidationError, match="finite number"):
            require("x", huge)
        with pytest.raises(ValidationError):
            TrainConfig(learning_rate=huge).validate()
        with pytest.raises(ValidationError):
            ModelConfig(lstm_hidden=-huge).validate()

    @pytest.mark.parametrize(
        "field,value", [("seed", 1e3), ("seed", -1), ("conv1_kernel", 2.0),
                        ("pool_size", True), ("lstm_hidden", "8")]
    )
    def test_model_config_needs_integers(self, field, value):
        with pytest.raises(ValidationError):
            ModelConfig(**{field: value}).validate()

    @pytest.mark.parametrize(
        "field,value", [("seed", 1e3), ("epochs", 2.0), ("batch_size", "32"),
                        ("learning_rate", "fast"), ("eps", float("inf"))]
    )
    def test_train_config_field_types(self, field, value):
        with pytest.raises(ValidationError):
            TrainConfig(**{field: value}).validate()


class TestAdam:
    def test_zero_gradients_no_change(self):
        params = init_params(TINY)
        before = {k: v.copy() for k, v in params.tensors.items()}
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        state = AdamState()
        adam_step(params, grads, state, 1, TrainConfig())
        for k in before:
            assert np.array_equal(params.tensors[k], before[k])
            assert np.all(state.m[k] == 0.0)
            assert np.all(state.v[k] == 0.0)

    def test_first_step_magnitude(self):
        # with constant g=1 at t=1, bias correction gives m_hat = v_hat = 1,
        # so the update is lr / (1 + eps)
        cfg = TrainConfig(learning_rate=0.1)
        params = zero_params(TINY)
        grads = {k: np.ones_like(v) for k, v in params.tensors.items()}
        adam_step(params, grads, AdamState(), 1, cfg)
        delta = params.tensors["dense1_w"]
        assert np.allclose(delta, -0.1 / (1 + cfg.eps), atol=1e-12)
        assert np.allclose(delta, -0.1, atol=1e-6)

    def test_nonfinite_gradient_names_tensor(self):
        params = init_params(TINY)
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        grads["lstm_wh"][0, 0] = np.nan
        with pytest.raises(ValidationError, match="lstm_wh"):
            adam_step(params, grads, AdamState(), 1, TrainConfig())

    def test_bad_step_index(self):
        params = init_params(TINY)
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        with pytest.raises(ValidationError):
            adam_step(params, grads, AdamState(), 0, TrainConfig())


class TestTrain:
    def test_zero_epochs_returns_init(self):
        ds = make_dataset()
        params, history = train(ds, TINY, TrainConfig(epochs=0))
        ref = init_params(TINY)
        assert history == []
        for k in ref.tensors:
            assert np.array_equal(params.tensors[k], ref.tensors[k])

    def test_deterministic_history(self):
        ds = make_dataset()
        _, h1 = train(ds, TINY, TrainConfig(epochs=3, seed=5))
        _, h2 = train(ds, TINY, TrainConfig(epochs=3, seed=5))
        assert h1 == h2

    def test_single_class_rejected(self):
        ds = make_dataset()
        ds.y[:] = 1
        with pytest.raises(ValidationError):
            train(ds, TINY, TrainConfig(epochs=1))

    def test_learns_separable_data(self):
        # clearly separated classes must be fit quickly by the tiny config
        ds = make_dataset(n_windows=60, separation=2.0, seed=4)
        _, history = train(
            ds, TINY, TrainConfig(epochs=15, seed=0, learning_rate=1e-2)
        )
        assert history[-1]["accuracy"] >= 0.95

    def test_history_records_every_epoch(self):
        ds = make_dataset()
        _, history = train(ds, TINY, TrainConfig(epochs=4))
        assert [h["epoch"] for h in history] == [1, 2, 3, 4]


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        params = init_params(TINY)
        path = tmp_path / "model.json"
        save_checkpoint(path, params, {"window_len": 16})
        loaded, preprocess = load_checkpoint(path)
        assert preprocess["window_len"] == 16
        x = np.random.default_rng(7).standard_normal((6, 16, 3))
        a = forward(params, x)[0]
        b = forward(loaded, x)[0]
        assert np.array_equal(a, b)

    def test_bytes_match_streamed_json_dump(self, tmp_path):
        # the former writer, json.dump() to the file, is the reference
        params = init_params(TINY)
        params.tensors["dense1_w"][0, 0] = 1e-300
        params.tensors["dense2_b"][0] = -0.0
        preprocess = {"window_len": 16, "stride": 8, "channel_mean": [70.0, 120.5, 80.25],
                      "channel_std": [11.0, 15.0, 9.5]}
        path = tmp_path / "model.json"
        save_checkpoint(path, params, preprocess)
        doc = {
            "format_version": 1,
            "model_config": {f.name: getattr(TINY, f.name) for f in fields(TINY)},
            "preprocess": preprocess,
            "tensors": [{"name": n, "shape": list(params.tensors[n].shape),
                         "data": params.tensors[n].ravel().tolist()} for n in TENSOR_ORDER],
        }
        ref = tmp_path / "ref.json"
        with ref.open("w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
        assert path.read_bytes() == ref.read_bytes()

    def test_unknown_format_version_rejected(self, tmp_path):
        params = init_params(TINY)
        path = tmp_path / "model.json"
        save_checkpoint(path, params)
        doc = path.read_text().replace('"format_version":1', '"format_version":99')
        path.write_text(doc)
        with pytest.raises(ValidationError, match="format_version"):
            load_checkpoint(path)

    @staticmethod
    def _saved_doc(tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(path, init_params(TINY))
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("field", ["name", "shape", "data"])
    def test_tensor_entry_missing_field(self, tmp_path, field):
        path, doc = self._saved_doc(tmp_path)
        del doc["tensors"][3][field]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=field):
            load_checkpoint(path)

    def test_shape_checked_against_model_config(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        entry = next(e for e in doc["tensors"] if e["name"] == "conv2_w")
        entry["shape"] = [entry["shape"][0], entry["shape"][2], entry["shape"][1]]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="conv2_w has shape"):
            load_checkpoint(path)

    def test_data_must_fill_shape(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        doc["tensors"][0]["data"] = doc["tensors"][0]["data"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="does not fill"):
            load_checkpoint(path)

    def test_integer_beyond_float_in_data_rejected(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        doc["tensors"][0]["data"][0] = 10**400
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="does not fill"):
            load_checkpoint(path)

    def test_unknown_tensor_rejected(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        doc["tensors"].append({"name": "extra_w", "shape": [1], "data": [0.0]})
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="unknown tensors: \\['extra_w'\\]"):
            load_checkpoint(path)

    def test_older_layout_still_loads(self, tmp_path):
        # tensors in any order, default model_config keys left out, as an
        # earlier writer may have produced
        params = init_params(TINY)
        path, doc = self._saved_doc(tmp_path)
        doc["tensors"].reverse()
        doc["model_config"] = {
            k: v for k, v in doc["model_config"].items()
            if v != getattr(ModelConfig(), k)
        }
        path.write_text(json.dumps(doc, indent=1))
        loaded, preprocess = load_checkpoint(path)
        assert preprocess == {}
        for name, t in params.tensors.items():
            assert np.array_equal(loaded.tensors[name], t)

    def test_legacy_fixed_keys_load(self, tmp_path):
        # a checkpoint from when the dense widths and activations were fields
        params = init_params(TINY)
        path, doc = self._saved_doc(tmp_path)
        assert not set(FIXED_KEYS) & set(doc["model_config"])
        doc["model_config"].update(dense1_units=100, dense2_units=1,
                                   conv_activation="relu", dense1_activation="relu")
        path.write_text(json.dumps(doc))
        loaded, _ = load_checkpoint(path)
        assert loaded.config == TINY
        for name, t in params.tensors.items():
            assert np.array_equal(loaded.tensors[name], t)

    @pytest.mark.parametrize("key,value", [
        ("conv_activation", "tanh"), ("dense1_activation", "linear"),
        ("dense1_units", 64), ("dense2_units", 2), ("dense1_units", 100.0),
        ("dense2_units", True)])
    def test_legacy_keys_at_other_values_rejected(self, tmp_path, key, value):
        path, doc = self._saved_doc(tmp_path)
        doc["model_config"][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=f"{key} is fixed"):
            load_checkpoint(path)


def relu_then_pool_margin(params, x):
    """The kink margin with the pool-tie gap taken over conv2's ReLU output,
    as for a ReLU before the pool. conv2's arrays are rebuilt from its cached
    input, as the model's cache holds no (F, B, T) array of conv2."""
    cfg, t = params.config, params.tensors
    _, _, (c1, c2, _, _, _, c5, _) = forward(params, x)
    pre2, _ = conv1d_forward(c2[0], t["conv2_w"], t["conv2_b"], relu=False)
    out2 = np.maximum(pre2, 0.0)
    margin = min(float(np.abs(pre).min()) for pre in (c1[2], pre2, c5[2]))
    if cfg.pool_size > 1:
        win = np.lib.stride_tricks.sliding_window_view(
            out2, cfg.pool_size, axis=2)[:, :, :: cfg.pool_stride]
        top2 = -np.partition(-win, 1, axis=3)[..., :2]
        gap = top2[..., 0] - top2[..., 1]
        live = top2[..., 1] > 0
        if live.any():
            margin = min(margin, float(gap[live].min()))
    return margin


class TestGradCheck:
    @pytest.mark.parametrize("cfg,window_len", [
        (TINY, 16), (ModelConfig(conv1_filters=3, conv2_filters=4, pool_size=3,
                                 pool_stride=2, lstm_hidden=3), 20)])
    def test_kink_margin_unchanged_by_relu_after_pool(self, cfg, window_len):
        # the margin over pre-activation windows equals the one over ReLU
        # outputs, so make_check_batch draws the same batches as before
        params = init_params(cfg)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.standard_normal((4, window_len, 3))
            assert gradcheck._kink_margin(params, x) == relu_then_pool_margin(params, x)

    def test_tiny_config_under_1e6(self):
        assert grad_check() < 1e-6

    def test_kernel_one_network_under_1e7(self):
        cfg = ModelConfig(
            conv1_filters=3,
            conv1_kernel=1,
            conv2_filters=3,
            conv2_kernel=1,
            pool_size=1,
            pool_stride=1,
            lstm_hidden=4,
        )
        assert grad_check(cfg, window_len=8) < 1e-7

    def test_corrupted_backward_is_caught(self):
        # harness self-test: a sign flip in one tensor must blow the error up
        params, x, y = make_check_batch(TINY, window_len=16, batch=4, seed=0)
        _, _, analytic = loss_and_grads(params, x, y)
        numeric = finite_diff_grads(params, x, y)
        analytic["conv2_w"] = -analytic["conv2_w"]
        assert max_relative_error(analytic, numeric) > 1e-1
