"""From-scratch CNN+LSTM binary classifier with manual backpropagation."""

from .gradcheck import finite_diff_grads, grad_check, max_relative_error
from .layers import bce_loss, sigmoid
from .model import (
    ModelConfig,
    ModelParams,
    forward,
    init_params,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
    zero_params,
)
from .train import AdamState, TrainConfig, adam_step, train

__all__ = [
    "AdamState",
    "ModelConfig",
    "ModelParams",
    "TrainConfig",
    "adam_step",
    "bce_loss",
    "finite_diff_grads",
    "forward",
    "grad_check",
    "init_params",
    "load_checkpoint",
    "loss_and_grads",
    "max_relative_error",
    "save_checkpoint",
    "sigmoid",
    "train",
    "zero_params",
]
