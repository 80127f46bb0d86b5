"""Metrics and the day-sweep experiment: accuracy, trapezoidal ROC AUC,
window-level prediction, truncated-series sweeps, and penultimate-feature
extraction for the t-SNE projection.

`windows_from_cohort` is the one place a cohort becomes windows: training,
eval, the sweep and embed all call it. Prediction and feature extraction
share one chunked forward loop; the sweep scores its table of distinct
windows once and selects each row's windows from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (
    ChannelStats,
    Cohort,
    WindowedDataset,
    check_window_args,
    make_windows,
    resample,
)
from .errors import ValidationError
from .nn.model import FEATURE_UNITS, ModelParams, forward

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


def _score(params: ModelParams, dataset: WindowedDataset) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities (n,) and penultimate features (n, FEATURE_UNITS), one
    forward pass per chunk of `_PREDICT_CHUNK` windows, order preserved."""
    probs = np.empty(len(dataset))
    feats = np.empty((len(dataset), FEATURE_UNITS))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for lo in range(0, len(dataset), _PREDICT_CHUNK):
            hi = lo + _PREDICT_CHUNK
            probs[lo:hi], feats[lo:hi], _ = forward(params, dataset.X[lo:hi])
    if not (np.isfinite(probs).all() and np.isfinite(feats).all()):
        raise ValidationError("the model gives non-finite outputs on these windows")
    return probs, feats


def predict(params: ModelParams, dataset: WindowedDataset) -> np.ndarray:
    """Per-window probabilities, order preserved, evaluated in chunks."""
    return _score(params, dataset)[0]


def extract_features(params: ModelParams, dataset: WindowedDataset) -> np.ndarray:
    """Penultimate-layer activations per window: an (n, 100) matrix."""
    return _score(params, dataset)[1]


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
    return _metrics(probs, dataset.y, dataset.patient_ids, threshold, per_patient)


def _metrics(probs, labels, patient_ids, threshold, per_patient) -> tuple[float, float]:
    if not 0.0 <= threshold <= 1.0:
        raise ValidationError(f"threshold must be in [0, 1], got {threshold}")
    if len(labels) == 0:
        raise ValidationError("no windows to score")
    if not per_patient:
        return accuracy(probs, labels, threshold), roc_auc(probs, labels)
    scores, votes, patient_labels = [], [], []
    by_pid: dict[str, list[int]] = {}
    for i, pid in enumerate(patient_ids):
        by_pid.setdefault(pid, []).append(i)
    for pid, idx in by_pid.items():
        p = probs[idx]
        scores.append(float(p.mean()))
        votes.append(1 if (p >= threshold).mean() >= 0.5 else 0)
        patient_labels.append(int(labels[idx[0]]))
    labels_arr = np.asarray(patient_labels)
    acc = float((np.asarray(votes) == labels_arr).mean())
    return acc, roc_auc(np.asarray(scores), labels_arr)


def windows_from_cohort(
    cohort: Cohort,
    stats: ChannelStats,
    window_len: int,
    stride: int,
    days: tuple[int, ...] | None = None,
) -> WindowedDataset:
    """Every distinct window that some cut of the cohort's hourly grids
    reads: a grid of len slots is cut to b = min(len, 24*N) slots for each N
    in `days`, or not cut when `days` is None.

    A cut reads the grid's windows that end at or before b, or, if
    b < window_len, one front-padded window of the first b slots. So each
    patient, resampled once and in cohort order, gives one padded window per
    distinct cut shorter than window_len, then the windows that end at or
    before its longest cut.
    """
    if days is not None and min(days, default=1) < 1:
        raise ValidationError(f"number of days must be >= 1, got {min(days)}")
    check_window_args(window_len, stride)
    entries = []
    for p in cohort.patients:
        reg = resample(p)
        cuts = [len(reg)] if days is None else sorted({min(len(reg), 24 * n) for n in days})
        entries += [(p.patient_id, reg, p.label, b) for b in cuts
                    if b < window_len or b == cuts[-1]]
    return make_windows(entries, window_len, stride, stats)


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
    windowed, and scored; patients shorter than N contribute their full
    (padded) length. Rows are emitted in ascending N.

    The windows of `windows_from_cohort(..., days)` are scored in one
    `predict` call. The row for N selects, per patient, the windows that end
    at or before b = min(len, 24*N), or the padded window that ends at b, in
    the order that windowing the cut series gives.
    """
    if len(test_cohort) == 0:
        raise ValidationError("day_sweep: empty test cohort")
    days = sorted(days)
    table = windows_from_cohort(test_cohort, stats, window_len, stride, days)
    probs = predict(params, table)
    rows = []
    for n_days in days:
        # 24*N can exceed int64; no cut is longer than the longest grid
        b = np.minimum(table.lengths, min(24 * n_days, int(table.lengths.max())))
        idx = np.flatnonzero(np.where(table.padded, table.ends == b, table.ends <= b))
        acc, auc = _metrics(probs[idx], table.y[idx], [table.patient_ids[i] for i in idx],
                            threshold, per_patient)
        rows.append(MetricsRow(days=n_days, n_windows=idx.size, accuracy=acc, auc=auc))
    return rows
