"""Adam optimizer and the mini-batch training loop."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from ..data import WindowedDataset
from ..errors import ValidationError, require
from .layers import Workspace
from .model import (TENSOR_ORDER, ModelConfig, ModelParams, first_nonfinite, init_params,
                    loss_and_grads)

# far above the paper's 30 epochs; one epoch over the default cohort takes
# ~0.19 s (1 BLAS thread, 2-vCPU Xeon), so the bound keeps one flag from
# buying years of training
MAX_EPOCHS = 10_000


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
            require(name, getattr(self, name))
        require("batch_size", self.batch_size, numbers.Integral, 1)
        require("epochs", self.epochs, numbers.Integral, 0, MAX_EPOCHS)
        require("seed", self.seed, numbers.Integral, 0)
        if self.learning_rate <= 0 or self.eps <= 0:
            raise ValidationError("learning_rate and eps must be > 0")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValidationError("beta1 and beta2 must be in (0, 1)")

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
    """First and second moment estimates, float64 vectors laid out like
    `ModelParams.flat`; None until the first step."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    t: int,
    config: TrainConfig,
    ws: Workspace,
) -> None:
    """One bias-corrected Adam update; mutates params and state in place.

    The update is elementwise, so it runs once over the flat parameter,
    gradient and moment vectors. The flat gradient, packed per TENSOR_ORDER,
    and the scratch vector are buffers of the workspace.
    """
    if t < 1:
        raise ValidationError(f"adam_step: step index must be >= 1, got {t}")
    ws = ws.layer("adam")
    shape = params.flat.shape
    g = np.concatenate([np.ravel(grads[n]) for n in TENSOR_ORDER], out=ws.take("grad", shape))
    if not np.isfinite(g).all():
        raise ValidationError(f"non-finite gradient in tensor {first_nonfinite(grads)}")
    if state.m is None:
        state.m, state.v = np.zeros(shape), np.zeros(shape)
    b1, b2 = config.beta1, config.beta2
    m, v = state.m, state.v
    # one scratch vector, then also the gradient's own copy once the moments
    # have read it, carry every intermediate of
    # p -= lr * m_hat / (sqrt(v_hat) + eps), operand order as written
    step = ws.take("step", shape)
    m *= b1
    m += np.multiply(1.0 - b1, g, out=step)
    v *= b2
    np.multiply(1.0 - b2, g, out=step)
    v += np.multiply(step, g, out=step)
    denom = g
    np.divide(m, 1.0 - b1**t, out=step)
    np.divide(v, 1.0 - b2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += config.eps
    np.multiply(config.learning_rate, step, out=step)
    params.flat -= np.divide(step, denom, out=step)


def train(
    train_set: WindowedDataset,
    mcfg: ModelConfig | None = None,
    tcfg: TrainConfig | None = None,
) -> tuple[ModelParams, list[dict]]:
    """Mini-batch training with seeded shuffling; returns params and the
    per-epoch history (epoch, loss, accuracy on the training windows).

    Every step's large arrays are views of one Workspace's buffers, which
    the first (and largest) batch allocates.
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
    mcfg.check_batch(train_set.X.shape[1], min(tcfg.batch_size, n))

    params = init_params(mcfg)
    ws = Workspace()
    state = AdamState()
    rng = np.random.default_rng(tcfg.seed)
    history: list[dict] = []
    step = 0
    x_all = train_set.X
    y_all = train_set.y
    # a step that overflows leaves a non-finite gradient, which adam_step rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(tcfg.epochs):
            order = rng.permutation(n)
            total_loss = 0.0
            correct = 0
            for lo in range(0, n, tcfg.batch_size):
                idx = order[lo : lo + tcfg.batch_size]
                xb, yb = x_all[idx], y_all[idx]
                loss, probs, grads = loss_and_grads(params, xb, yb, ws)
                total_loss += loss * len(idx)
                correct += int(((probs >= 0.5).astype(int) == yb).sum())
                step += 1
                adam_step(params, grads, state, step, tcfg, ws)
            history.append(
                {
                    "epoch": epoch + 1,
                    "loss": total_loss / n,
                    "accuracy": correct / n,
                }
            )
    return params, history
