import base64
import importlib
import json
import numbers
from dataclasses import fields

import numpy as np
import pytest

from vitalnet.data import WindowedDataset
from vitalnet.errors import MAX_ELEMENTS, ValidationError, require
from vitalnet.nn import (
    AdamState,
    ModelConfig,
    TrainConfig,
    adam_step,
    forward,
    init_params,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
    train,
)
from vitalnet.nn.layers import Workspace, conv1d_forward, dense_forward
from vitalnet.nn.model import FIXED_KEYS, MAX_KERNEL, MAX_WIDTH, TENSOR_ORDER
from vitalnet.nn.train import MAX_EPOCHS

import gradcheck  # the finite-difference helper
from checkpoint_docs import as_version, b64_floats, with_data
from alloc_probe import LARGE_BLOCK, largest_line_rise
from gradcheck import finite_diff_grads, grad_check, make_check_batch, max_relative_error

# the module itself: as an attribute of `vitalnet.nn`, `train` is the function
train_module = importlib.import_module("vitalnet.nn.train")

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
        params = init_params(TINY)
        params.flat[:] = 0.0
        rng = np.random.default_rng(0)
        probs, feats, _ = forward(params, rng.standard_normal((5, 16, 3)), Workspace())
        assert np.all(probs == 0.5)
        assert np.all(feats == 0.0)  # ReLU of zero pre-activations

    def test_forward_deterministic(self):
        params = init_params(TINY)
        x = np.random.default_rng(1).standard_normal((3, 16, 3))
        a = forward(params, x, Workspace())[0]
        b = forward(params, x, Workspace())[0]
        assert np.array_equal(a, b)

    def test_feature_width_fixed_at_100(self):
        params = init_params(TINY)
        x = np.random.default_rng(2).standard_normal((4, 16, 3))
        _, feats, _ = forward(params, x, Workspace())
        assert feats.shape == (4, 100)

    def test_probabilities_in_open_interval(self):
        params = init_params(TINY)
        x = np.random.default_rng(3).standard_normal((8, 16, 3))
        probs, _, _ = forward(params, x, Workspace())
        assert np.all((probs > 0) & (probs < 1))

    def test_window_too_short_rejected(self):
        params = init_params(TINY)
        with pytest.raises(ValidationError):
            forward(params, np.zeros((1, 4, 3)), Workspace())

    def test_dense1_units_pinned(self):
        with pytest.raises(ValidationError):
            ModelConfig.from_dict({"dense1_units": 64})
        with pytest.raises(ValidationError):
            ModelConfig.from_dict({"dense2_units": 2})

    def test_model_config_has_no_fixed_fields(self):
        assert len(fields(ModelConfig)) == 6
        assert not set(FIXED_KEYS) & {f.name for f in fields(ModelConfig)}

    @pytest.mark.parametrize(
        "field,bound",
        [("conv1_filters", MAX_WIDTH), ("conv2_filters", MAX_WIDTH),
         ("lstm_hidden", MAX_WIDTH), ("conv1_kernel", MAX_KERNEL),
         ("conv2_kernel", MAX_KERNEL)],
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
            ModelConfig.from_dict({field: value})

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
        adam_step(params, grads, state, 1, TrainConfig(), Workspace())
        for k in before:
            assert np.array_equal(params.tensors[k], before[k])
        assert state.m.shape == state.v.shape == params.flat.shape
        assert np.all(state.m == 0.0) and np.all(state.v == 0.0)

    def test_first_step_magnitude(self):
        # with constant g=1 at t=1, bias correction gives m_hat = v_hat = 1,
        # so the update is lr / (1 + eps)
        cfg = TrainConfig(learning_rate=0.1)
        params = init_params(TINY)
        params.flat[:] = 0.0
        grads = {k: np.ones_like(v) for k, v in params.tensors.items()}
        adam_step(params, grads, AdamState(), 1, cfg, Workspace())
        delta = params.tensors["dense1_w"]
        assert np.allclose(delta, -0.1 / (1 + cfg.eps), atol=1e-12)
        assert np.allclose(delta, -0.1, atol=1e-6)

    def test_nonfinite_gradient_names_tensor(self):
        params = init_params(TINY)
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        grads["lstm_wh"][0, 0] = np.nan
        with pytest.raises(ValidationError, match="lstm_wh"):
            adam_step(params, grads, AdamState(), 1, TrainConfig(), Workspace())

    def test_bad_step_index(self):
        params = init_params(TINY)
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        with pytest.raises(ValidationError):
            adam_step(params, grads, AdamState(), 0, TrainConfig(), Workspace())


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


def train_allocating(ds, mcfg, tcfg):
    """train()'s loop with a fresh workspace per step, so that every step
    allocates its arrays: the oracle of the reused workspace."""
    params, state = init_params(mcfg), AdamState()
    rng = np.random.default_rng(tcfg.seed)
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(tcfg.epochs):
            order = rng.permutation(len(ds))
            for lo in range(0, len(ds), tcfg.batch_size):
                idx = order[lo : lo + tcfg.batch_size]
                ws = Workspace()
                _, _, grads = loss_and_grads(params, ds.X[idx], ds.y[idx], ws)
                step += 1
                adam_step(params, grads, state, step, tcfg, ws)
    return params


class TestWorkspace:
    """Training reuses one workspace's buffers; the bits stay those of
    passes that each allocate a fresh workspace."""

    def test_take_gives_prefix_views_per_role(self):
        ws = Workspace()
        a = ws.take("x", (4, 3))
        assert ws.take("x", (2, 3)).base is a.base  # a smaller batch reuses it
        assert ws.layer("conv1").take("x", (4, 3)).base is not a.base
        assert ws.layer("conv1").take("x", (2,)).base is ws.layer("conv1").take("x", (3,)).base
        grown = ws.take("x", (5, 3))  # a larger one grows the buffer
        assert grown.shape == (5, 3) and grown.base is not a.base

    @pytest.mark.parametrize("cfg", [ModelConfig(), TINY])
    def test_same_gradients_as_allocating_pass(self, cfg):
        # batch sizes that shrink, grow back and shrink again through one
        # workspace, each pass against one in a fresh workspace and compared
        # before the next overwrites it
        params = init_params(cfg)
        rng = np.random.default_rng(3)
        ws = Workspace()
        for batch in (32, 8, 32, 1):
            x = rng.standard_normal((batch, 48, 3))
            y = np.arange(batch) % 2
            loss, probs, grads = loss_and_grads(params, x, y, ws)
            ref_loss, ref_probs, ref_grads = loss_and_grads(params, x, y, Workspace())
            assert loss == ref_loss
            assert np.array_equal(probs, ref_probs)
            for name in TENSOR_ORDER:
                assert np.array_equal(grads[name], ref_grads[name]), (batch, name)

    @pytest.mark.parametrize("cfg,n,batch", [(ModelConfig(seed=3), 72, 32), (TINY, 23, 5)])
    def test_train_matches_allocating_loop(self, cfg, n, batch):
        ds = make_dataset(n_windows=n, window_len=48, seed=2)
        tcfg = TrainConfig(epochs=2, batch_size=batch, seed=4)
        params, _ = train(ds, cfg, tcfg)
        ref = train_allocating(ds, cfg, tcfg)
        assert np.array_equal(params.flat, ref.flat)

    def test_steps_after_the_first_allocate_no_large_block(self, monkeypatch):
        # default config and batch; 72 windows give two full batches and a
        # partial one per epoch
        steps = 0
        adam = train_module.adam_step

        def counting(*args, **kwargs):
            nonlocal steps
            out = adam(*args, **kwargs)
            steps += 1
            return out

        monkeypatch.setattr(train_module, "adam_step", counting)
        ds = make_dataset(n_windows=72, window_len=48, seed=1)
        rise = largest_line_rise(lambda: train(ds, ModelConfig(), TrainConfig(epochs=2)),
                                 armed=lambda: steps >= 1)
        assert steps == 6
        assert rise < LARGE_BLOCK


class TestElementBudget:
    def test_default_window_elements(self):
        assert ModelConfig().window_elements(48) == 20_116

    def test_short_window_rejected(self):
        with pytest.raises(ValidationError, match="below the minimum 10"):
            ModelConfig().window_elements(9)

    def test_batch_over_budget_rejected_before_init(self, monkeypatch):
        cfg = ModelConfig(conv1_filters=64, conv2_filters=64)
        per_window = cfg.window_elements(48)
        batch = MAX_ELEMENTS // per_window + 1
        ds = make_dataset(n_windows=batch, window_len=48)
        monkeypatch.setattr(train_module, "init_params", None)  # reached = TypeError
        with pytest.raises(ValidationError, match=f"a batch of {batch} windows"):
            train(ds, cfg, TrainConfig(batch_size=batch))
        # the batch is the smaller of batch_size and the window count
        with pytest.raises(TypeError):
            train(ds, cfg, TrainConfig(batch_size=batch - 1))

    def test_parameter_count_over_budget_rejected(self):
        cfg = ModelConfig(conv1_filters=MAX_WIDTH, conv1_kernel=MAX_KERNEL,
                          conv2_filters=MAX_WIDTH, conv2_kernel=MAX_KERNEL)
        with pytest.raises(ValidationError, match="the parameters needs"):
            cfg.check_batch(2 * MAX_KERNEL, 1)


class CheckpointDocTests:
    """Edits of a saved checkpoint document in format VERSION; each must load
    as before or be a ValidationError. The Test classes below set VERSION."""

    VERSION = 2

    def _saved_doc(self, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(path, init_params(TINY))
        return path, as_version(json.loads(path.read_text()), self.VERSION)

    def test_unknown_format_version_rejected(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="format_version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [0, 3, "2", 2.0, 1.0, True, None])
    def test_format_version_must_be_1_or_2(self, tmp_path, bad):
        path, doc = self._saved_doc(tmp_path)
        doc["format_version"] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="format_version"):
            load_checkpoint(path)

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
        values = init_params(TINY).tensors["conv1_w"].ravel().tolist()
        doc["tensors"][0]["data"] = with_data(self.VERSION, values[:-1])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="conv1_w: data does not fill"):
            load_checkpoint(path)

    def test_unknown_tensor_rejected(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        doc["tensors"].append({"name": "extra_w", "shape": [1],
                               "data": with_data(self.VERSION, [0.0])})
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="unknown tensors: \\['extra_w'\\]"):
            load_checkpoint(path)

    @pytest.mark.parametrize("which", [0, -1])
    def test_repeated_tensor_rejected(self, tmp_path, which):
        # the second copy holds other values, which a dict would keep silently
        path, doc = self._saved_doc(tmp_path)
        entry = doc["tensors"][which]
        size = int(np.prod(entry["shape"]))
        doc["tensors"].insert(which % len(doc["tensors"]) + 1,
                              {**entry, "data": with_data(self.VERSION, [0.25] * size)})
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=f"tensor '{entry['name']}' twice"):
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
                                   conv_activation="relu", dense1_activation="relu",
                                   pool_size=2, pool_stride=2)
        path.write_text(json.dumps(doc))
        loaded, _ = load_checkpoint(path)
        assert loaded.config == TINY
        for name, t in params.tensors.items():
            assert np.array_equal(loaded.tensors[name], t)

    @pytest.mark.parametrize("key,value", [
        ("conv_activation", "tanh"), ("dense1_activation", "linear"),
        ("dense1_units", 64), ("dense2_units", 2), ("dense1_units", 100.0),
        ("dense2_units", True), ("pool_size", 3), ("pool_stride", 2**70),
        ("pool_size", True)])
    def test_legacy_keys_at_other_values_rejected(self, tmp_path, key, value):
        path, doc = self._saved_doc(tmp_path)
        doc["model_config"][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=f"{key} is fixed"):
            load_checkpoint(path)

    def _with_dense2_b(self, tmp_path, data):
        """The saved document with dense2_b's data replaced, written back."""
        path, doc = self._saved_doc(tmp_path)
        next(e for e in doc["tensors"] if e["name"] == "dense2_b")["data"] = data
        path.write_text(json.dumps(doc))
        return path


class TestCheckpoint(CheckpointDocTests):
    """Format 2, which save_checkpoint writes."""

    def test_round_trip_bit_identical(self, tmp_path):
        params = init_params(TINY)
        path = tmp_path / "model.json"
        save_checkpoint(path, params, {"window_len": 16})
        loaded, preprocess = load_checkpoint(path)
        assert preprocess["window_len"] == 16
        x = np.random.default_rng(7).standard_normal((6, 16, 3))
        a = forward(params, x, Workspace())[0]
        b = forward(loaded, x, Workspace())[0]
        assert np.array_equal(a, b)

    def test_extremes_round_trip_bit_exact_in_both_versions(self, tmp_path):
        # format 2 keeps the bits; format 1's shortest decimals read back to them
        params = init_params(TINY)
        big = np.finfo(float).max
        params.tensors["conv1_w"].reshape(-1)[:5] = [-0.0, 1e-300, big, -big, 5e-324]
        path = tmp_path / "model.json"
        save_checkpoint(path, params)
        assert json.loads(path.read_text())["format_version"] == 2
        v1 = tmp_path / "v1.json"
        v1.write_text(json.dumps(as_version(json.loads(path.read_text()), 1)))
        for p in (path, v1):
            loaded, _ = load_checkpoint(p)
            for name, t in params.tensors.items():
                assert loaded.tensors[name].tobytes() == t.tobytes(), (p, name)

    def test_bytes_match_streamed_json_dump(self, tmp_path):
        # the format-2 reference: json.dump() to the file of each tensor's
        # float64 values packed little-endian by struct, then base64
        params = init_params(TINY)
        params.tensors["dense1_w"][0, 0] = 1e-300
        params.tensors["dense2_b"][0] = -0.0
        preprocess = {"window_len": 16, "stride": 8, "channel_mean": [70.0, 120.5, 80.25],
                      "channel_std": [11.0, 15.0, 9.5]}
        path = tmp_path / "model.json"
        save_checkpoint(path, params, preprocess)
        doc = {
            "format_version": 2,
            "model_config": {f.name: getattr(TINY, f.name) for f in fields(TINY)},
            "preprocess": preprocess,
            "tensors": [{"name": n, "shape": list(params.tensors[n].shape),
                         "data": b64_floats(params.tensors[n].ravel().tolist())}
                        for n in TENSOR_ORDER],
        }
        ref = tmp_path / "ref.json"
        with ref.open("w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
        assert path.read_bytes() == ref.read_bytes()

    def test_integer_beyond_float_in_data_rejected(self, tmp_path):
        # only format 1 holds numbers in its data
        path = tmp_path / "model.json"
        save_checkpoint(path, init_params(TINY))
        doc = as_version(json.loads(path.read_text()), 1)
        doc["tensors"][0]["data"][0] = 10**400
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="does not fill"):
            load_checkpoint(path)

    @pytest.mark.parametrize("data,message", [
        ("AAAA!AAAAAA=", "does not fill"),  # a byte outside the base64 alphabet
        ("AAAAAAAAAAA", "does not fill"),  # its padding stripped
        ("AAAAAAAAAAA==", "does not fill"),  # excess padding
        ("AAAAAAAAAAA=\n", "does not fill"),  # a line end
        (base64.b64encode(bytes(12)).decode(), "does not fill"),  # 12 bytes for 1 float
        (b64_floats([0.0, 0.0]), "does not fill"),  # 2 floats for 1
        ("", "does not fill"),
        (b64_floats([float("nan")]), "non-finite values in parameter dense2_b"),
        (b64_floats([float("-inf")]), "non-finite values in parameter dense2_b"),
        ([0.5], "does not fill"),  # format 1's list in a format-2 document
        (0.5, "does not fill"),
        (None, "does not fill"),
    ])
    def test_bad_format_2_data_rejected(self, tmp_path, data, message):
        path = self._with_dense2_b(tmp_path, data)
        with pytest.raises(ValidationError, match=message):
            load_checkpoint(path)


class TestCheckpointFormat1(CheckpointDocTests):
    """Format 1, which older versions wrote: `data` is a list of floats."""

    VERSION = 1

    @pytest.mark.parametrize("data", [b64_floats([0.5]), "0.5", 0.5, {"0": 0.5}])
    def test_data_must_be_a_list(self, tmp_path, data):
        # np.array("0.5", dtype=float) would fill a shape of one element
        path = self._with_dense2_b(tmp_path, data)
        with pytest.raises(ValidationError, match="dense2_b: data does not fill"):
            load_checkpoint(path)


def relu_then_pool_margin(params, x):
    """The kink margin with the pool-tie gap taken over conv2's ReLU output,
    as for a ReLU before the pool. The pre-activations are rebuilt from the
    layers' cached inputs, as the model's cache holds none."""
    t = params.tensors
    _, _, (c1, c2, _, _, c5, _) = forward(params, x, Workspace())
    pre1, _ = conv1d_forward(c1[0], t["conv1_w"], t["conv1_b"], Workspace())
    pre2, _ = conv1d_forward(c2[0], t["conv2_w"], t["conv2_b"], Workspace())
    pre5, _ = dense_forward(c5[0], t["dense1_w"], t["dense1_b"])
    out2 = np.maximum(pre2, 0.0)
    margin = min(float(np.abs(pre).min()) for pre in (pre1, pre2, pre5))
    win = np.lib.stride_tricks.sliding_window_view(out2, 2, axis=2)[:, :, ::2]
    top2 = -np.partition(-win, 1, axis=3)[..., :2]
    gap = top2[..., 0] - top2[..., 1]
    live = top2[..., 1] > 0
    if live.any():
        margin = min(margin, float(gap[live].min()))
    return margin


class TestGradCheck:
    @pytest.mark.parametrize("cfg,window_len", [
        (TINY, 16), (ModelConfig(conv1_filters=3, conv2_filters=4, lstm_hidden=3), 20)])
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
            lstm_hidden=4,
        )
        assert grad_check(cfg, window_len=8) < 1e-7

    def test_corrupted_backward_is_caught(self):
        # harness self-test: a sign flip in one tensor must blow the error up
        params, x, y = make_check_batch(TINY, window_len=16, batch=4, seed=0)
        _, _, analytic = loss_and_grads(params, x, y, Workspace())
        numeric = finite_diff_grads(params, x, y)
        analytic["conv2_w"] = -analytic["conv2_w"]
        assert max_relative_error(analytic, numeric) > 1e-1
