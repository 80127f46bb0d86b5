"""Shared fixtures: the default synthetic cohort and a fully trained
pipeline (split, channel stats, model, sweep), built once per session.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import pytest

from vitalnet.data import compute_channel_stats, resample, split_by_patient
from vitalnet.evaluate import predict, window_metrics, windows_from_cohort
from vitalnet.nn import ModelConfig, TrainConfig, train
from vitalnet.synth import default_config, generate_cohort

WINDOW_LEN = 48
STRIDE = 24


@pytest.fixture(scope="session")
def default_cohort():
    return generate_cohort(default_config())


@dataclass
class TrainedPipeline:
    cohort: object
    train_cohort: object
    test_cohort: object
    stats: object
    params: object
    history: list
    test_accuracy: float
    test_auc: float
    train_seconds: float
    total_seconds: float


@pytest.fixture(scope="session")
def pipeline(default_cohort) -> TrainedPipeline:
    """Default end-to-end run: 80/20 patient split, default configs."""
    t_start = time.time()
    train_cohort, test_cohort = split_by_patient(default_cohort, 0.8, seed=11)
    stats = compute_channel_stats([resample(p) for p in train_cohort.patients])
    dataset = windows_from_cohort(train_cohort, stats, WINDOW_LEN, STRIDE)
    t_train = time.time()
    params, history = train(dataset, ModelConfig(seed=7), TrainConfig(seed=7))
    train_seconds = time.time() - t_train
    test_ds = windows_from_cohort(test_cohort, stats, WINDOW_LEN, STRIDE)
    probs = predict(params, test_ds)
    acc, auc = window_metrics(probs, test_ds)
    return TrainedPipeline(
        cohort=default_cohort,
        train_cohort=train_cohort,
        test_cohort=test_cohort,
        stats=stats,
        params=params,
        history=history,
        test_accuracy=acc,
        test_auc=auc,
        train_seconds=train_seconds,
        total_seconds=time.time() - t_start,
    )
