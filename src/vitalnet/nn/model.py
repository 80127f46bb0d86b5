"""The fixed network graph: conv1 -> conv2 -> max-pool -> LSTM -> dense(100,
ReLU) -> dense(1, sigmoid), with seeded initialization and checkpoint I/O.

The 100-unit dense layer's activations are the feature vectors consumed by
the t-SNE projection; the final unit yields the positive-class probability.
The parameter tensors are views of one float64 vector, `ModelParams.flat`,
which Adam updates in one pass.
"""

from __future__ import annotations

import base64
import json
import math
import numbers
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from ..errors import ValidationError, check_elements, read_json, require
from . import layers
from .layers import Workspace

CHECKPOINT_FORMAT_VERSION = 2
# how a tensor's `data` is written in each format version that still loads
DATA_FORMS = {1: "a list of numbers", 2: "base64 of little-endian float64 bytes"}

N_CHANNELS = 3
FEATURE_UNITS = 100  # width of dense1, the feature layer

# upper bounds of the layer sizes, far above the paper's 32/64 filters,
# kernel 5 and hidden 64; they keep a config from reaching NumPy's
# dimension or integer limits before any array is allocated
MAX_WIDTH = 1024  # conv filters and LSTM units
MAX_KERNEL = 64  # conv kernel widths

# keys of the once-configurable layers, still read at their fixed values so
# that older checkpoints and `--set` lines load
FIXED_KEYS = {"dense1_units": FEATURE_UNITS, "dense2_units": 1,
              "conv_activation": "relu", "dense1_activation": "relu",
              "pool_size": 2, "pool_stride": 2}

# serialization order of the parameter tensors (row-major data)
TENSOR_ORDER = (
    "conv1_w",
    "conv1_b",
    "conv2_w",
    "conv2_b",
    "lstm_wx",
    "lstm_wh",
    "lstm_b",
    "dense1_w",
    "dense1_b",
    "dense2_w",
    "dense2_b",
)


@dataclass
class ModelConfig:
    conv1_filters: int = 32
    conv1_kernel: int = 5
    conv2_filters: int = 64
    conv2_kernel: int = 5
    lstm_hidden: int = 64
    seed: int = 0

    def validate(self) -> None:
        # every field is a bounded layer size (>= 1) but the seed (>= 0)
        for f in fields(self):
            if f.name == "seed":
                require(f.name, self.seed, numbers.Integral, 0)
                continue
            hi = MAX_KERNEL if f.name.endswith("kernel") else MAX_WIDTH
            require(f.name, getattr(self, f.name), numbers.Integral, 1, hi)

    def min_window_len(self) -> int:
        # smallest input length that survives both convs and the size-2 pool
        return self.conv1_kernel + self.conv2_kernel

    def window_elements(self, window_len: int) -> int:
        """Float64 elements that one window of `window_len` slots adds to a
        forward pass: both im2col matrices, the conv and pool outputs, and
        the LSTM's gates and states (20,116 at the defaults and 48 slots)."""
        if window_len < self.min_window_len():
            raise ValidationError(f"window length {window_len} below the minimum "
                                  f"{self.min_window_len()} for this config")
        f1, k1, f2, k2 = (self.conv1_filters, self.conv1_kernel,
                          self.conv2_filters, self.conv2_kernel)
        t1 = window_len - k1 + 1
        t2 = t1 - k2 + 1
        h, tp = self.lstm_hidden, t2 // 2
        return ((k1 * N_CHANNELS + f1) * t1 + (k2 * f1 + f2) * t2 + f2 * tp
                + 4 * h * tp + 2 * h * (tp + 1))

    def check_batch(self, window_len: int, batch: int) -> None:
        """Reject, before anything is allocated, a batch of `batch` windows
        or a parameter count over the element budget."""
        check_elements(f"a batch of {batch} windows of {window_len} slots",
                       batch * self.window_elements(window_len))
        check_elements("the parameters", sum(math.prod(s) for s in tensor_shapes(self).values()))

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        if not isinstance(raw, dict):
            raise ValidationError(f"bad model config: expected an object, got {raw!r}")
        for key, fixed in FIXED_KEYS.items():
            if key in raw and (type(raw[key]) is not type(fixed) or raw[key] != fixed):
                raise ValidationError(f"{key} is fixed at {fixed!r}, got {raw[key]!r}")
        try:
            cfg = cls(**{k: v for k, v in raw.items() if k not in FIXED_KEYS})
        except TypeError as exc:
            raise ValidationError(f"bad model config: {exc}") from None
        cfg.validate()
        return cfg


@dataclass
class ModelParams:
    """All weight tensors, keyed per TENSOR_ORDER. `flat` is one contiguous
    float64 copy of the tensors passed in, and `tensors` becomes views of
    it, so that an elementwise update of every tensor is one array operation."""

    tensors: dict[str, np.ndarray]
    config: ModelConfig

    def __post_init__(self):
        given = self.tensors
        self.flat = np.concatenate([np.ravel(given[n]) for n in TENSOR_ORDER], dtype=float)
        self.tensors, lo = {}, 0
        for name in TENSOR_ORDER:
            shape = np.shape(given[name])
            size = math.prod(shape)
            self.tensors[name] = self.flat[lo : lo + size].reshape(shape)
            lo += size


def first_nonfinite(tensors: dict[str, np.ndarray]) -> str:
    """Name of the first tensor, in TENSOR_ORDER, that holds a NaN or inf;
    called once a check over all of them has failed."""
    return next(n for n in TENSOR_ORDER if not np.isfinite(tensors[n]).all())


def tensor_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter tensor, in TENSOR_ORDER."""
    f1, k1 = config.conv1_filters, config.conv1_kernel
    f2, k2 = config.conv2_filters, config.conv2_kernel
    h, d1 = config.lstm_hidden, FEATURE_UNITS
    return {
        "conv1_w": (f1, k1, N_CHANNELS), "conv1_b": (f1,),
        "conv2_w": (f2, k2, f1), "conv2_b": (f2,),
        "lstm_wx": (f2, 4 * h), "lstm_wh": (h, 4 * h), "lstm_b": (4 * h,),
        "dense1_w": (h, d1), "dense1_b": (d1,),
        "dense2_w": (d1, 1), "dense2_b": (1,),
    }


def init_params(config: ModelConfig) -> ModelParams:
    """Seeded uniform fan-in initialization; LSTM forget-gate bias set to 1."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    tensors = {}
    for name, shape in tensor_shapes(config).items():
        if name.endswith("_b"):
            tensors[name] = np.zeros(shape)
            continue
        # fan-in: kernel x input channels for a conv, the input width otherwise
        fan_in = shape[1] * shape[2] if name.startswith("conv") else shape[0]
        bound = 1.0 / np.sqrt(fan_in)
        tensors[name] = rng.uniform(-bound, bound, size=shape)
    h = config.lstm_hidden
    tensors["lstm_b"][h : 2 * h] = 1.0  # forget gate bias
    return ModelParams(tensors=tensors, config=config)


def forward(params: ModelParams, x: np.ndarray, ws: Workspace):
    """x: (B, W, 3) normalized windows -> (probs (B,), features (B, 100), cache).

    The layers are linear; the model applies the three ReLUs in place, after
    conv1, after the pool and after dense1. Each ReLU output is cached once,
    as the input of the layer that reads it. The cache holds views of the
    workspace's buffers, good until the next pass.
    """
    cfg = params.config
    t = params.tensors
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[2] != N_CHANNELS:
        raise ValidationError(f"forward: expected (B, W, {N_CHANNELS}), got {x.shape}")
    if x.shape[1] < cfg.min_window_len():
        raise ValidationError(
            f"forward: window length {x.shape[1]} below the minimum "
            f"{cfg.min_window_len()} for this config"
        )
    # every layer up to the LSTM runs channels-first, (C, B, T). conv2's ReLU
    # runs after the pool, on the half-size pooled array: relu(max(a, b)) =
    # max(relu(a), relu(b)).
    a1, c1 = layers.conv1d_forward(x.transpose(2, 0, 1), t["conv1_w"], t["conv1_b"],
                                   ws.layer("conv1"))
    np.maximum(a1, 0.0, out=a1)
    pre2, c2 = layers.conv1d_forward(a1, t["conv2_w"], t["conv2_b"], ws.layer("conv2"))
    a3, c3 = layers.maxpool1d_forward(pre2, ws.layer("pool"))
    np.maximum(a3, 0.0, out=a3)
    h4, c4 = layers.lstm_forward(a3, t["lstm_wx"], t["lstm_wh"], t["lstm_b"], ws.layer("lstm"))
    feats, c5 = layers.dense_forward(h4, t["dense1_w"], t["dense1_b"])
    np.maximum(feats, 0.0, out=feats)
    logits, c6 = layers.dense_forward(feats, t["dense2_w"], t["dense2_b"])
    probs = layers.sigmoid(logits[:, 0])
    cache = (c1, c2, c3, c4, c5, c6)
    return probs, feats, cache


def backward(dlogits: np.ndarray, cache, ws: Workspace):
    """Gradients of the loss w.r.t. every tensor, given d(loss)/d(logit).
    This consumes the cache of forward's pass in the same workspace, and the
    LSTM's weight gradients are its buffers, good until the next pass."""
    c1, c2, c3, c4, c5, c6 = cache
    # each ReLU's mask is read off its output, the next layer's cached input:
    # max(p, 0) > 0 exactly where p > 0
    dfeat, dw6, db6 = layers.dense_backward(dlogits[:, None], c6)
    dfeat *= c6[0] > 0
    dh, dw5, db5 = layers.dense_backward(dfeat, c5)
    da3, dwx, dwh, dbl = layers.lstm_backward(dh, c4, ws.layer("lstm"))
    da3 *= c4[0] > 0
    dpre2 = layers.maxpool1d_backward(da3, c3, ws.layer("pool"))
    da1, dw2, db2 = layers.conv1d_backward(dpre2, c2, ws.layer("conv2"))
    da1 *= c2[0] > 0
    _, dw1, db1 = layers.conv1d_backward(da1, c1, ws.layer("conv1"), input_grad=False)
    return dict(zip(TENSOR_ORDER, (dw1, db1, dw2, db2, dwx, dwh, dbl, dw5, db5, dw6, db6)))


def loss_and_grads(params: ModelParams, x: np.ndarray, y: np.ndarray, ws: Workspace):
    """Mean BCE over the batch plus gradients for every parameter tensor."""
    probs, _, cache = forward(params, x, ws)
    loss = layers.bce_loss(probs, y)
    dlogits = (probs - np.asarray(y, dtype=float)) / len(y)
    grads = backward(dlogits, cache, ws)
    return loss, probs, grads


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(
    path, params: ModelParams, preprocess: dict | None = None
) -> None:
    """JSON checkpoint of format CHECKPOINT_FORMAT_VERSION: `format_version`,
    `model_config`, `preprocess` and, per tensor in TENSOR_ORDER, an object
    `{name, shape, data}`, where `data` is the standard padded base64 of the
    tensor's C-order little-endian float64 bytes: exact by construction, and
    decoded without parsing a decimal per value."""
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "model_config": asdict(params.config),
        "preprocess": preprocess or {},
        "tensors": [
            {
                "name": name,
                "shape": list(params.tensors[name].shape),
                "data": base64.b64encode(params.tensors[name].astype("<f8").tobytes()).decode(),
            }
            for name in TENSOR_ORDER
        ],
    }
    # one dumps() call runs the C encoder; json.dump() to a file does not
    text = json.dumps(doc, separators=(",", ":"), sort_keys=True)
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _tensor_data(version: int, data) -> np.ndarray:
    """The flat float64 values of one tensor's `data` in format `version`;
    TypeError or ValueError when it is not of DATA_FORMS[version]."""
    if version == 1:
        if not isinstance(data, list):
            raise TypeError
        return np.array(data, dtype=float)
    if not isinstance(data, str):
        raise TypeError
    return np.frombuffer(base64.b64decode(data, validate=True), dtype="<f8")


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Params and preprocess dict of a checkpoint of format 2 or of the
    older format 1, whose `data` is a list of decimal floats; the
    `format_version` field picks the decoder. Any other version, a missing,
    unknown or repeated tensor, a shape other than the config's, data that
    does not fill it, or a NaN or inf is a ValidationError."""
    doc = read_json(path)
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if type(version) is not int or version not in DATA_FORMS:
        raise ValidationError(
            f"unsupported checkpoint format_version {version!r} "
            f"(expected one of {sorted(DATA_FORMS)})"
        )
    try:
        config = ModelConfig.from_dict(doc["model_config"])
        entries = {}
        for e in doc["tensors"]:
            if e["name"] in entries:
                raise ValidationError(f"checkpoint holds tensor {e['name']!r} twice")
            entries[e["name"]] = (e["shape"], e["data"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed checkpoint: missing or bad field {exc}") from None
    shapes = tensor_shapes(config)
    if set(entries) != set(shapes):
        missing, unknown = set(shapes) - set(entries), set(entries) - set(shapes)
        raise ValidationError(f"checkpoint missing tensors: {sorted(missing)}, "
                              f"unknown tensors: {sorted(unknown, key=str)}")
    tensors = {}
    for name, (shape, data) in entries.items():
        want = list(shapes[name])
        if shape != want:
            raise ValidationError(f"checkpoint tensor {name} has shape {shape}, config: {want}")
        try:
            tensors[name] = _tensor_data(version, data).reshape(want)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(
                f"checkpoint tensor {name}: data does not fill {want} with floats "
                f"(format {version}: {DATA_FORMS[version]})") from None
    params = ModelParams(tensors=tensors, config=config)
    if not np.isfinite(params.flat).all():
        name = first_nonfinite(params.tensors)
        raise ValidationError(f"non-finite values in parameter {name}")
    return params, doc.get("preprocess", {})
