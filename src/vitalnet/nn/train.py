"""Adam optimizer and the mini-batch training loop."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ..data import WindowedDataset
from ..errors import ValidationError
from .model import (
    ModelConfig,
    ModelParams,
    init_params,
    loss_and_grads,
    require_int,
)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 32
    epochs: int = 30
    seed: int = 0

    def validate(self) -> None:
        for name in ("learning_rate", "beta1", "beta2", "eps"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(value)
            ):
                raise ValidationError(f"{name} must be a finite number, got {value!r}")
        for name in ("batch_size", "epochs", "seed"):
            require_int(name, getattr(self, name))
        if self.learning_rate <= 0 or self.eps <= 0:
            raise ValidationError("learning_rate and eps must be > 0")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValidationError("beta1 and beta2 must be in (0, 1)")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValidationError("batch_size must be >= 1 and epochs >= 0")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        try:
            cfg = cls(**raw)
        except TypeError as exc:
            raise ValidationError(f"bad train config: {exc}") from None
        cfg.validate()
        return cfg


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    t: int,
    config: TrainConfig,
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update; mutates params and state in place."""
    if t < 1:
        raise ValidationError(f"adam_step: step index must be >= 1, got {t}")
    b1, b2 = config.beta1, config.beta2
    for name, tensor in params.tensors.items():
        g = grads[name]
        if not np.isfinite(g).all():
            raise ValidationError(f"non-finite gradient in tensor {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(tensor)
            state.v[name] = np.zeros_like(tensor)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        tensor -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)
    return params, state


def train(
    train_set: WindowedDataset,
    mcfg: ModelConfig | None = None,
    tcfg: TrainConfig | None = None,
) -> tuple[ModelParams, list[dict]]:
    """Mini-batch training with seeded shuffling; returns params and the
    per-epoch history (epoch, loss, accuracy on the training windows).
    """
    mcfg = mcfg or ModelConfig()
    tcfg = tcfg or TrainConfig()
    mcfg.validate()
    tcfg.validate()
    n = len(train_set)
    if n == 0:
        raise ValidationError("train: empty training set")
    classes = set(np.unique(train_set.y).tolist())
    if classes != {0, 1}:
        raise ValidationError(f"train: need both labels present, got {sorted(classes)}")

    params = init_params(mcfg)
    state = AdamState()
    rng = np.random.default_rng(tcfg.seed)
    history: list[dict] = []
    step = 0
    x_all = train_set.X
    y_all = train_set.y
    for epoch in range(tcfg.epochs):
        order = rng.permutation(n)
        total_loss = 0.0
        correct = 0
        for lo in range(0, n, tcfg.batch_size):
            idx = order[lo : lo + tcfg.batch_size]
            xb, yb = x_all[idx], y_all[idx]
            loss, probs, grads = loss_and_grads(params, xb, yb)
            total_loss += loss * len(idx)
            correct += int(((probs >= 0.5).astype(int) == yb).sum())
            step += 1
            adam_step(params, grads, state, step, tcfg)
        history.append(
            {
                "epoch": epoch + 1,
                "loss": total_loss / n,
                "accuracy": correct / n,
            }
        )
    return params, history
