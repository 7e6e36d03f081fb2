"""Training losses."""

from __future__ import annotations

from enum import Enum

import numpy as np

from ..errors import RangeError, ShapeError
from .tensor import Tensor

PROB_FLOOR = 1e-12


class LossKind(Enum):
    MEAN_SQUARED_ERROR = "mse"
    CROSS_ENTROPY = "cross_entropy"


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean of squared differences over all elements, recorded as one node;
    the target is cast to the prediction's dtype first."""
    target = np.asarray(target if not isinstance(target, Tensor) else target.data)
    if target.shape != pred.data.shape:
        raise ShapeError(f"mse shapes differ: {pred.data.shape} vs {target.shape}")
    diff = pred.data - target.astype(pred.data.dtype, copy=False)
    n = diff.size

    def backward(g):
        t = (g / n) * diff
        return (t + t,)

    return Tensor._make((diff * diff).mean(), (pred,), backward)


def cross_entropy_loss(probs: Tensor, targets) -> Tensor:
    """-log p[target], averaged over the batch.

    ``probs`` are class probabilities (rows summing to 1), ``targets`` integer
    class indices. Probabilities are floored at 1e-12 inside the log; the
    loss is recorded as one node.
    """
    targets = np.asarray(targets)
    if probs.data.ndim != 2:
        raise ShapeError(f"cross entropy expects (N, C) probabilities, got {probs.data.shape}")
    if not np.issubdtype(targets.dtype, np.integer):
        raise RangeError("cross entropy targets must be integer class indices")
    n_classes = probs.data.shape[1]
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= n_classes:
        raise RangeError(f"class index out of range for {n_classes} classes")
    if targets.ndim != 1 or targets.shape[0] != probs.data.shape[0]:
        raise ShapeError("one index per row required")
    n = len(targets)
    rows = np.arange(n)
    picked = probs.data[rows, targets]
    clipped = np.maximum(picked, PROB_FLOOR)

    def backward(g):
        full = np.zeros_like(probs.data)
        full[rows, targets] = np.where(picked > PROB_FLOOR, (-g / n) / clipped, 0.0)
        return (full,)

    return Tensor._make(-np.log(clipped).mean(), (probs,), backward)


def loss(pred: Tensor, target, kind: LossKind) -> Tensor:
    if kind is LossKind.MEAN_SQUARED_ERROR:
        return mse_loss(pred, target)
    if kind is LossKind.CROSS_ENTROPY:
        return cross_entropy_loss(pred, target)
    raise RangeError(f"unknown loss kind {kind}")
