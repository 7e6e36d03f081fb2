"""Evaluation metrics: F1, weighted F1, RMSE, confusion matrices."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import get_type_hints

import numpy as np

from ..errors import FormatError, RangeError, ShapeError

# The positive label of the binary task.
_SHOUT = 1

REPORT_SCHEMA = "shoutkit.report.v1"


def _check_lengths(y_true, y_pred):
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ShapeError(f"label vectors must be 1-D and equal length, "
                         f"got {y_true.shape} and {y_pred.shape}")
    return y_true, y_pred


def binary_f1(y_true, y_pred) -> float:
    """F1 with the shout class (label 1) as positive; 0 when precision+recall is 0."""
    y_true, y_pred = _check_lengths(y_true, y_pred)
    tp = int(np.sum((y_pred == _SHOUT) & (y_true == _SHOUT)))
    fp = int(np.sum((y_pred == _SHOUT) & (y_true != _SHOUT)))
    fn = int(np.sum((y_pred != _SHOUT) & (y_true == _SHOUT)))
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2.0 * tp / (2 * tp + fp + fn)


def weighted_f1(y_true, y_pred, n_classes: int) -> float:
    """Per-class F1 averaged with weights equal to class support."""
    counts = _counts(y_true, y_pred, n_classes)
    total = int(counts.sum())
    if total == 0:
        raise ShapeError("cannot score empty label vectors")
    score = 0.0
    # 2tp + fp + fn is support + predicted, an exact integer; summed in class
    # order as Python floats, so the score is the float a per-class
    # binary_f1 loop returns
    for tp, support, predicted in zip(np.diag(counts).tolist(), counts.sum(axis=1).tolist(),
                                      counts.sum(axis=0).tolist()):
        if support:
            score += support * (2.0 * tp / (support + predicted))
    return score / total


def _check_range(labels, n_classes):
    if not labels.size:
        return
    if labels.dtype.kind not in "biu":
        raise RangeError(f"labels must be integer class indices, got {labels.dtype} values")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise RangeError(f"labels outside 0..{n_classes - 1}")


def _counts(y_true, y_pred, n_classes: int) -> np.ndarray:
    """The (n_classes, n_classes) count matrix, rows = true class."""
    y_true, y_pred = _check_lengths(y_true, y_pred)
    _check_range(y_true, n_classes)
    _check_range(y_pred, n_classes)
    # empty label lists arrive as float64, which bincount refuses
    index = y_true * n_classes + y_pred if y_true.size else np.zeros(0, dtype=np.int64)
    return np.bincount(index, minlength=n_classes * n_classes).reshape(n_classes, n_classes)


def rmse(actual, predicted) -> float:
    actual, predicted = _check_lengths(np.asarray(actual, dtype=np.float64),
                                       np.asarray(predicted, dtype=np.float64))
    return float(np.sqrt(np.mean((actual - predicted) ** 2)))


def confusion_matrix(y_true, y_pred, n_classes: int = 4):
    """Counts (rows = true class) and row-normalized percentages.

    Rows with no support get all-zero percentages.
    """
    counts = _counts(y_true, y_pred, n_classes)
    row_sums = counts.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        percentages = np.where(row_sums > 0, 100.0 * counts / row_sums, 0.0)
    return counts, percentages


@dataclass
class MetricsReport:
    """Scores for one (task, model, features) cell of the experiment grid."""

    task: str
    arch: str
    features: str
    numeric_mode: str
    seed: int
    per_fold_snr: dict = field(default_factory=dict)   # "fold/snr" -> metric value
    snr_means: dict = field(default_factory=dict)      # snr label -> cross-fold mean
    average: float | None = None                       # mean over the SNR sweep
    confusions: dict = field(default_factory=dict)     # "fold/snr" -> count rows (4-class)
    scatter: dict = field(default_factory=dict)        # "fold/snr" -> [[actual, predicted]..]
    config_echo: dict = field(default_factory=dict)
    training: list = field(default_factory=list)       # per-fold training log summaries

    def to_dict(self) -> dict:
        return {"schema": REPORT_SCHEMA, **asdict(self)}


def validate_report(report: dict) -> None:
    """Check a serialized report: the schema tag, then every MetricsReport
    field, present and of its declared type."""
    if not isinstance(report, dict):
        raise FormatError(f"a report is a JSON object, not a {type(report).__name__}")
    if report.get("schema") != REPORT_SCHEMA:
        raise FormatError(f"unknown report schema {report.get('schema')!r}")
    for key, expected in get_type_hints(MetricsReport).items():
        if key not in report:
            raise FormatError(f"report missing key {key!r}")
        if not isinstance(report[key], expected):
            raise FormatError(f"report key {key!r} should be "
                              f"{getattr(expected, '__name__', expected)}")
    for label, value in report["snr_means"].items():
        if not isinstance(value, (int, float)):
            raise FormatError(f"snr mean for {label!r} is not numeric")
