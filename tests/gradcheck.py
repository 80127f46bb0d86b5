"""Finite-difference verification of the end-to-end analytic gradient, a
helper of the tests.

Central differences on every parameter coordinate are compared against the
backward pass for the mean BCE on a random mini-batch. Inputs whose ReLU
pre-activations or max-pool pairs sit too close to a kink/tie are
resampled, since the loss is not differentiable there. The model's cache
holds no pre-activation, so they are rebuilt from the linear layers' cached
inputs.
"""

from __future__ import annotations

import numpy as np

from vitalnet.errors import ValidationError
from vitalnet.nn.layers import Workspace, bce_loss, conv1d_forward, dense_forward
from vitalnet.nn.model import ModelConfig, ModelParams, forward, init_params, loss_and_grads

# margin around ReLU kinks / pool ties below which a draw is rejected
KINK_MARGIN = 2e-4


def finite_diff_grads(
    params: ModelParams, x: np.ndarray, y: np.ndarray, eps: float = 1e-5
) -> dict[str, np.ndarray]:
    """Central-difference gradient of the mean BCE for every coordinate."""
    ws = Workspace()

    def loss_at() -> float:
        probs, _, _ = forward(params, x, ws)
        return bce_loss(probs, y)

    grads = {}
    for name, tensor in params.tensors.items():
        g = np.zeros_like(tensor)
        flat = tensor.ravel()
        g_flat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss_at()
            flat[i] = orig - eps
            lo = loss_at()
            flat[i] = orig
            g_flat[i] = (hi - lo) / (2.0 * eps)
        grads[name] = g
    return grads


def max_relative_error(
    analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray]
) -> float:
    """Max over tensors of max|a - n| / max(max|a|, max|n|, 1e-8)."""
    worst = 0.0
    for name in analytic:
        a = analytic[name]
        n = numeric[name]
        denom = max(float(np.abs(a).max()), float(np.abs(n).max()), 1e-8)
        err = float(np.abs(a - n).max()) / denom
        worst = max(worst, err)
    return worst


def _kink_margin(params: ModelParams, x: np.ndarray) -> float:
    """Distance of the closest pre-activation to a ReLU kink or pool tie."""
    tensors = params.tensors
    _, _, (c1, c2, _, _, c5, _) = forward(params, x, Workspace())
    pre1, _ = conv1d_forward(c1[0], tensors["conv1_w"], tensors["conv1_b"], Workspace())
    pre2, _ = conv1d_forward(c2[0], tensors["conv2_w"], tensors["conv2_b"], Workspace())
    pre5, _ = dense_forward(c5[0], tensors["dense1_w"], tensors["dense1_b"])
    margin = min(float(np.abs(pre).min()) for pre in (pre1, pre2, pre5))
    t = pre2.shape[2]
    first, second = pre2[..., 0 : t - 1 : 2], pre2[..., 1:t:2]
    # a pair whose smaller slot is <= 0 cannot tie: with the ReLU margin
    # enforced, its max is either > margin above it or clipped by the ReLU
    # after the pool, so only live pairs count
    live = np.minimum(first, second) > 0
    if live.any():
        margin = min(margin, float(np.abs(first - second)[live].min()))
    return margin


def make_check_batch(
    config: ModelConfig, window_len: int, batch: int, seed: int = 0
) -> tuple[ModelParams, np.ndarray, np.ndarray]:
    """Seeded params and a random batch resampled away from kinks/ties."""
    params = init_params(config)
    rng = np.random.default_rng(seed)
    for _ in range(100):
        x = rng.standard_normal((batch, window_len, 3))
        y = rng.integers(0, 2, size=batch)
        if len(set(y.tolist())) < 2:
            continue
        if _kink_margin(params, x) > KINK_MARGIN:
            return params, x, y
    raise ValidationError("could not draw a batch clear of ReLU kinks / pool ties")


def grad_check(
    mcfg: ModelConfig | None = None,
    eps: float = 1e-5,
    window_len: int = 16,
    batch: int = 4,
    seed: int = 0,
) -> float:
    """Max relative error of analytic vs finite-difference gradients.

    Keep the config tiny: full central differencing evaluates the forward
    pass twice per parameter coordinate.
    """
    if mcfg is None:
        mcfg = ModelConfig(
            conv1_filters=2,
            conv1_kernel=3,
            conv2_filters=2,
            conv2_kernel=3,
            lstm_hidden=4,
        )
    mcfg.validate()
    params, x, y = make_check_batch(mcfg, window_len, batch, seed)
    _, _, analytic = loss_and_grads(params, x, y, Workspace())
    numeric = finite_diff_grads(params, x, y, eps)
    return max_relative_error(analytic, numeric)
