import numpy as np
import pytest

from vitalnet.data import ChannelStats, WindowedDataset
from vitalnet.errors import ValidationError
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
from vitalnet.nn.gradcheck import make_check_batch

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
        window_len=window_len,
        stats=ChannelStats(mean=np.zeros(3), std=np.ones(3)),
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
            ModelConfig(dense1_units=64).validate()
        with pytest.raises(ValidationError):
            ModelConfig(dense2_units=2).validate()


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

    def test_unknown_format_version_rejected(self, tmp_path):
        params = init_params(TINY)
        path = tmp_path / "model.json"
        save_checkpoint(path, params)
        doc = path.read_text().replace('"format_version":1', '"format_version":99')
        path.write_text(doc)
        with pytest.raises(ValidationError, match="format_version"):
            load_checkpoint(path)


class TestGradCheck:
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
