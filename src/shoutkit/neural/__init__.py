"""Minimal differentiable-computation engine: tensors, layers, losses, Adam."""

from .tensor import (Tensor, no_grad, add, mul, linear, reshape,
                     transpose, concat, relu, sigmoid, softmax,
                     sum_all, mean_all)
from .layers import (Dense, Conv2d, MaxPool2d, BiGRU, conv2d, maxpool2d, conv_stack,
                     gru_sequence)
from .losses import LossKind, loss, mse_loss, cross_entropy_loss
from .optim import Adam, AdamState
from .checkpoint import save_checkpoint, load_checkpoint

__all__ = [
    "Tensor", "no_grad", "add", "mul", "linear", "reshape",
    "transpose", "concat", "relu", "sigmoid", "softmax",
    "sum_all", "mean_all",
    "Dense", "Conv2d", "MaxPool2d", "BiGRU", "conv2d", "maxpool2d", "conv_stack",
    "gru_sequence",
    "LossKind", "loss", "mse_loss", "cross_entropy_loss",
    "Adam", "AdamState", "save_checkpoint", "load_checkpoint",
]
