"""Tests for the experiment harness: caching, tables, drivers."""

import numpy as np
import pytest

from repro.circuits import random_aig
from repro.harness import (
    cached_classifier,
    cached_dataset,
    format_table,
    suite_statistics,
)
from repro.harness.experiments import feature_matrix, suite_datasets
from repro.ml import CutDataset


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


def small_suite():
    return {
        f"g{i}": random_aig(7, 120, 4, seed=i, name=f"g{i}") for i in (1, 2)
    }


def test_format_table():
    text = format_table(["a", "bb"], [[1, 2.5], ["x", 10000]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[2] and "bb" in lines[2]
    assert "2.50" in text
    assert "10,000" in text


def test_cached_dataset_roundtrip():
    calls = []

    def build():
        calls.append(1)
        return CutDataset(np.zeros((4, 6)), np.zeros(4), "x")

    d1 = cached_dataset("unit_test_key", build)
    d2 = cached_dataset("unit_test_key", build)
    assert len(calls) == 1  # second call served from disk
    assert len(d1) == len(d2) == 4


def test_cached_classifier_roundtrip():
    from repro.elf import ElfClassifier
    from repro.ml import MLP

    calls = []

    def build():
        calls.append(1)
        return ElfClassifier(MLP(seed=3), threshold=0.7)

    c1 = cached_classifier("unit_clf", build)
    c2 = cached_classifier("unit_clf", build)
    assert len(calls) == 1
    assert c2.threshold == c1.threshold == 0.7


def test_suite_statistics_and_datasets():
    suite = small_suite()
    rows = suite_statistics(suite)
    assert len(rows) == 2
    for row in rows:
        assert row.n_ands > 0
        assert 0 <= row.refactored_pct <= 100
    datasets = suite_datasets(suite, "unit")
    assert set(datasets) == set(suite)
    for name, ds in datasets.items():
        assert len(ds) > 0


def test_feature_matrix_keeps_positives():
    datasets = {
        "a": CutDataset(
            np.arange(60).reshape(10, 6).astype(float),
            np.array([1, 1, 0, 0, 0, 0, 0, 0, 0, 0], dtype=float),
            "a",
        )
    }
    x, y = feature_matrix(datasets, max_per_design=5)
    assert (y > 0.5).sum() == 2  # all positives retained
    assert len(x) >= 5


def test_classifier_cache_keys_on_training_settings(monkeypatch):
    from repro.harness import experiments
    from repro.ml.train import TrainConfig

    calls = []
    real_loo, real_pooled = experiments.train_leave_one_out, experiments.train_pooled

    def counting_loo(*args):
        calls.append("loo")
        return real_loo(*args)

    def counting_pooled(*args):
        calls.append("global")
        return real_pooled(*args)

    monkeypatch.setattr(experiments, "train_leave_one_out", counting_loo)
    monkeypatch.setattr(experiments, "train_pooled", counting_pooled)
    from repro.circuits import arith

    suite = {"mul4": arith.multiplier(4), "add8": arith.adder(8), "alu6": arith.alu(6)}
    datasets = suite_datasets(suite, "unit")
    assert all(d.y.sum() > 0 for d in datasets.values())  # thresholds can move
    loose = (TrainConfig(epochs=3), 0.5)
    strict = (TrainConfig(epochs=3, seed=9), 0.99)

    first = experiments.loo_classifiers(datasets, "probe", *loose)
    second = experiments.loo_classifiers(datasets, "probe", *strict)
    assert len(calls) == 2 * len(datasets)  # the second settings trained anew
    for name in datasets:
        assert first[name].threshold != second[name].threshold
    again = experiments.loo_classifiers(datasets, "probe", *loose)
    assert len(calls) == 2 * len(datasets)  # same settings: served from disk
    assert [c.threshold for c in again.values()] == [
        c.threshold for c in first.values()
    ]

    g_loose = experiments.global_classifier(datasets, "probe", *loose)
    g_strict = experiments.global_classifier(datasets, "probe", *strict)
    assert calls.count("global") == 2
    assert g_loose.threshold != g_strict.threshold
    experiments.global_classifier(datasets, "probe", *loose)
    assert calls.count("global") == 2
