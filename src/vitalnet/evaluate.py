"""Metrics and the day-sweep experiment: accuracy, trapezoidal ROC AUC,
window-level prediction, truncated-series sweeps, and penultimate-feature
extraction for the t-SNE projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import timedelta

import numpy as np

from .data import (
    ChannelStats,
    Cohort,
    RegularSeries,
    WindowedDataset,
    make_windows,
    resample,
)
from .errors import ValidationError
from .nn.model import ModelParams, forward

DEFAULT_DAYS = tuple(range(2, 29, 2))

_PREDICT_CHUNK = 256


@dataclass(frozen=True)
class MetricsRow:
    days: int
    n_windows: int
    accuracy: float
    auc: float

    def __post_init__(self):
        if not (0.0 <= self.accuracy <= 1.0 and 0.0 <= self.auc <= 1.0):
            raise ValidationError(f"metrics out of range: {self}")


def accuracy(probs, labels, threshold: float = 0.5) -> float:
    """Share of correct predictions; scores exactly at threshold predict 1."""
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    if probs.shape != labels.shape or probs.ndim != 1 or probs.size == 0:
        raise ValidationError("accuracy: probs and labels must be equal-length 1-D")
    preds = (probs >= threshold).astype(int)
    return float((preds == labels).mean())


def roc_auc(probs, labels) -> float:
    """Trapezoidal area under the ROC curve over distinct-score thresholds.

    Equals the Mann-Whitney pair statistic with ties counted 0.5.
    """
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    if probs.shape != labels.shape or probs.ndim != 1:
        raise ValidationError("roc_auc: probs and labels must be equal-length 1-D")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("roc_auc: both classes must be present")
    # sweep thresholds at distinct scores, descending
    order = np.argsort(-probs, kind="stable")
    sorted_probs = probs[order]
    sorted_labels = labels[order]
    tp = np.cumsum(sorted_labels == 1)
    fp = np.cumsum(sorted_labels == 0)
    # keep only the last index of each tied-score run
    distinct = np.r_[sorted_probs[1:] != sorted_probs[:-1], True]
    tpr = np.r_[0.0, tp[distinct] / n_pos]
    fpr = np.r_[0.0, fp[distinct] / n_neg]
    return float(np.trapezoid(tpr, fpr))


def predict(params: ModelParams, dataset: WindowedDataset) -> np.ndarray:
    """Per-window probabilities, order preserved, evaluated in chunks."""
    if len(dataset) == 0:
        return np.zeros(0)
    out = np.empty(len(dataset))
    for lo in range(0, len(dataset), _PREDICT_CHUNK):
        probs, _, _ = forward(params, dataset.X[lo : lo + _PREDICT_CHUNK])
        out[lo : lo + probs.size] = probs
    return out


def extract_features(params: ModelParams, dataset: WindowedDataset) -> np.ndarray:
    """Penultimate-layer activations per window: an (n, 100) matrix."""
    if len(dataset) == 0:
        return np.zeros((0, params.config.dense1_units))
    rows = []
    for lo in range(0, len(dataset), _PREDICT_CHUNK):
        _, feats, _ = forward(params, dataset.X[lo : lo + _PREDICT_CHUNK])
        rows.append(feats)
    return np.concatenate(rows, axis=0)


def window_metrics(
    probs: np.ndarray,
    dataset: WindowedDataset,
    threshold: float = 0.5,
    per_patient: bool = False,
) -> tuple[float, float]:
    """(accuracy, auc), per window by default.

    With per_patient=True, windows are aggregated per patient: the score is
    the mean window probability and the prediction is the majority vote of
    thresholded windows (ties predict positive).
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValidationError(f"threshold must be in [0, 1], got {threshold}")
    if not per_patient:
        return accuracy(probs, dataset.y, threshold), roc_auc(probs, dataset.y)
    scores, votes, labels = [], [], []
    by_pid: dict[str, list[int]] = {}
    for i, pid in enumerate(dataset.patient_ids):
        by_pid.setdefault(pid, []).append(i)
    for pid, idx in by_pid.items():
        p = probs[idx]
        scores.append(float(p.mean()))
        votes.append(1 if (p >= threshold).mean() >= 0.5 else 0)
        labels.append(int(dataset.y[idx[0]]))
    labels_arr = np.asarray(labels)
    acc = float((np.asarray(votes) == labels_arr).mean())
    return acc, roc_auc(np.asarray(scores), labels_arr)


def windows_from_cohort(
    cohort: Cohort,
    stats: ChannelStats,
    window_len: int,
    stride: int,
    max_days: int | None = None,
) -> WindowedDataset:
    """Resample each patient hourly, optionally truncate to the first
    max_days days (anchored at the first observation), and window.
    """
    if max_days is not None and max_days < 1:
        raise ValidationError(f"number of days must be >= 1, got {max_days}")
    series = []
    for p in cohort.patients:
        reg = resample(p, timedelta(hours=1))
        if max_days is not None and len(reg) > max_days * 24:
            reg = RegularSeries(
                start=reg.start, step=reg.step, values=reg.values[: max_days * 24]
            )
        series.append((p.patient_id, reg, p.label))
    return make_windows(series, window_len, stride, stats)


def day_sweep(
    params: ModelParams,
    test_cohort: Cohort,
    stats: ChannelStats,
    window_len: int,
    stride: int,
    days: tuple[int, ...] = DEFAULT_DAYS,
    threshold: float = 0.5,
    per_patient: bool = False,
) -> list[MetricsRow]:
    """Accuracy and AUC as a function of the number of included days.

    For each N, every test patient's series is truncated to its first N days,
    re-windowed, and scored; patients shorter than N contribute their full
    (padded) length. Rows are emitted in ascending N.
    """
    if len(test_cohort) == 0:
        raise ValidationError("day_sweep: empty test cohort")
    rows = []
    for n_days in sorted(days):
        dataset = windows_from_cohort(
            test_cohort, stats, window_len, stride, max_days=n_days
        )
        probs = predict(params, dataset)
        acc, auc = window_metrics(probs, dataset, threshold, per_patient)
        rows.append(
            MetricsRow(
                days=n_days, n_windows=len(dataset), accuracy=acc, auc=auc
            )
        )
    return rows
