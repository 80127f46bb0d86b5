"""The fixed network graph: conv1 -> conv2 -> max-pool -> LSTM -> dense(100,
ReLU) -> dense(1, sigmoid), with seeded initialization and checkpoint I/O.

The 100-unit dense layer's activations are the feature vectors consumed by
the t-SNE projection; the final unit yields the positive-class probability.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..errors import ValidationError
from . import layers

CHECKPOINT_FORMAT_VERSION = 1

N_CHANNELS = 3

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


def require_int(name: str, value) -> None:
    """Reject a config value that is not an integer (bools included)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


@dataclass
class ModelConfig:
    conv1_filters: int = 32
    conv1_kernel: int = 5
    conv2_filters: int = 64
    conv2_kernel: int = 5
    pool_size: int = 2
    pool_stride: int = 2
    lstm_hidden: int = 64
    dense1_units: int = 100
    dense2_units: int = 1
    conv_activation: str = "relu"
    dense1_activation: str = "relu"
    seed: int = 0

    def validate(self) -> None:
        sizes = (
            "conv1_filters",
            "conv1_kernel",
            "conv2_filters",
            "conv2_kernel",
            "pool_size",
            "pool_stride",
            "lstm_hidden",
        )
        for name in (*sizes, "dense1_units", "dense2_units", "seed"):
            require_int(name, getattr(self, name))
        if self.dense1_units != 100:
            raise ValidationError("dense1_units is fixed at 100 (the feature layer)")
        if self.dense2_units != 1:
            raise ValidationError("dense2_units is fixed at 1")
        if any(getattr(self, name) < 1 for name in sizes):
            raise ValidationError(f"all layer sizes must be >= 1, got {self}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")

    def min_window_len(self) -> int:
        # smallest input length that survives both convs and the pool
        return self.conv1_kernel + self.conv2_kernel - 2 + self.pool_size

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        try:
            cfg = cls(**raw)
        except TypeError as exc:
            raise ValidationError(f"bad model config: {exc}") from None
        cfg.validate()
        return cfg


@dataclass
class ModelParams:
    """All weight tensors, keyed per TENSOR_ORDER."""

    tensors: dict[str, np.ndarray]
    config: ModelConfig

    def copy(self) -> "ModelParams":
        return ModelParams(
            tensors={k: v.copy() for k, v in self.tensors.items()}, config=self.config
        )

    def check_finite(self) -> None:
        for name, t in self.tensors.items():
            if not np.isfinite(t).all():
                raise ValidationError(f"non-finite values in parameter {name}")


def init_params(config: ModelConfig) -> ModelParams:
    """Seeded uniform fan-in initialization; LSTM forget-gate bias set to 1."""
    config.validate()
    rng = np.random.default_rng(config.seed)

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    f1, k1 = config.conv1_filters, config.conv1_kernel
    f2, k2 = config.conv2_filters, config.conv2_kernel
    h = config.lstm_hidden
    tensors = {
        "conv1_w": uniform((f1, k1, N_CHANNELS), k1 * N_CHANNELS),
        "conv1_b": np.zeros(f1),
        "conv2_w": uniform((f2, k2, f1), k2 * f1),
        "conv2_b": np.zeros(f2),
        "lstm_wx": uniform((f2, 4 * h), f2),
        "lstm_wh": uniform((h, 4 * h), h),
        "lstm_b": np.zeros(4 * h),
        "dense1_w": uniform((h, config.dense1_units), h),
        "dense1_b": np.zeros(config.dense1_units),
        "dense2_w": uniform((config.dense1_units, 1), config.dense1_units),
        "dense2_b": np.zeros(1),
    }
    tensors["lstm_b"][h : 2 * h] = 1.0  # forget gate bias
    return ModelParams(tensors=tensors, config=config)


def zero_params(config: ModelConfig) -> ModelParams:
    params = init_params(config)
    for t in params.tensors.values():
        t[:] = 0.0
    return params


def forward(params: ModelParams, x: np.ndarray):
    """x: (B, W, 3) normalized windows -> (probs (B,), features (B, 100), cache)."""
    cfg = params.config
    t = params.tensors
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        x = x[None]
    if x.ndim != 3 or x.shape[2] != N_CHANNELS:
        raise ValidationError(f"forward: expected (B, W, {N_CHANNELS}), got {x.shape}")
    if x.shape[1] < cfg.min_window_len():
        raise ValidationError(
            f"forward: window length {x.shape[1]} below the minimum "
            f"{cfg.min_window_len()} for this config"
        )
    a1, c1 = layers.conv1d_forward(x, t["conv1_w"], t["conv1_b"], cfg.conv_activation)
    a2, c2 = layers.conv1d_forward(a1, t["conv2_w"], t["conv2_b"], cfg.conv_activation)
    p3, c3 = layers.maxpool1d_forward(a2, cfg.pool_size, cfg.pool_stride)
    h4, c4 = layers.lstm_forward(p3, t["lstm_wx"], t["lstm_wh"], t["lstm_b"])
    feats, c5 = layers.dense_forward(
        h4, t["dense1_w"], t["dense1_b"], cfg.dense1_activation
    )
    logits, c6 = layers.dense_forward(feats, t["dense2_w"], t["dense2_b"], "linear")
    probs = layers.sigmoid(logits[:, 0])
    cache = (c1, c2, c3, c4, c5, c6)
    return probs, feats, cache


def backward(params: ModelParams, dlogits: np.ndarray, cache):
    """Gradients of the loss w.r.t. every tensor, given d(loss)/d(logit)."""
    c1, c2, c3, c4, c5, c6 = cache
    dfeat, dw6, db6 = layers.dense_backward(dlogits[:, None], c6)
    dh, dw5, db5 = layers.dense_backward(dfeat, c5)
    dp3, dwx, dwh, dbl = layers.lstm_backward(dh, c4)
    da2 = layers.maxpool1d_backward(dp3, c3)
    da1, dw2, db2 = layers.conv1d_backward(da2, c2)
    _, dw1, db1 = layers.conv1d_backward(da1, c1)
    return {
        "conv1_w": dw1,
        "conv1_b": db1,
        "conv2_w": dw2,
        "conv2_b": db2,
        "lstm_wx": dwx,
        "lstm_wh": dwh,
        "lstm_b": dbl,
        "dense1_w": dw5,
        "dense1_b": db5,
        "dense2_w": dw6,
        "dense2_b": db6,
    }


def loss_and_grads(params: ModelParams, x: np.ndarray, y: np.ndarray):
    """Mean BCE over the batch plus gradients for every parameter tensor."""
    probs, _, cache = forward(params, x)
    loss = layers.bce_loss(probs, y)
    dlogits = (probs - np.asarray(y, dtype=float)) / len(y)
    grads = backward(params, dlogits, cache)
    return loss, probs, grads


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(
    path, params: ModelParams, preprocess: dict | None = None
) -> None:
    """JSON checkpoint: format_version, model_config, per-tensor flat data."""
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "model_config": asdict(params.config),
        "preprocess": preprocess or {},
        "tensors": [
            {
                "name": name,
                "shape": list(params.tensors[name].shape),
                "data": params.tensors[name].ravel(order="C").tolist(),
            }
            for name in TENSOR_ORDER
        ],
    }
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    with Path(path).open(encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValidationError(
            f"unsupported checkpoint format_version {version!r} "
            f"(expected {CHECKPOINT_FORMAT_VERSION})"
        )
    config = ModelConfig.from_dict(doc["model_config"])
    tensors = {}
    for entry in doc["tensors"]:
        arr = np.array(entry["data"], dtype=float).reshape(entry["shape"])
        tensors[entry["name"]] = arr
    missing = set(TENSOR_ORDER) - set(tensors)
    if missing:
        raise ValidationError(f"checkpoint missing tensors: {sorted(missing)}")
    params = ModelParams(tensors=tensors, config=config)
    params.check_finite()
    return params, doc.get("preprocess", {})
