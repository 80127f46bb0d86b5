"""From-scratch CNN+LSTM binary classifier with manual backpropagation."""

from .layers import Workspace, bce_loss, sigmoid
from .model import (
    ModelConfig,
    ModelParams,
    forward,
    init_params,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
)
from .train import AdamState, TrainConfig, adam_step, train

__all__ = [
    "AdamState",
    "ModelConfig",
    "ModelParams",
    "TrainConfig",
    "Workspace",
    "adam_step",
    "bce_loss",
    "forward",
    "init_params",
    "load_checkpoint",
    "loss_and_grads",
    "save_checkpoint",
    "sigmoid",
    "train",
]
