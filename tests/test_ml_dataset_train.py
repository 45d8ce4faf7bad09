"""Tests for dataset handling and the training loop."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.ml import CutDataset, DatasetCollector, TrainConfig, train_classifier
from repro.opt import refactor

from .util import random_aig


def synthetic_dataset(n=600, seed=0, separation=3.0):
    """Linearly separable-ish 6-d dataset with ~15% positives."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.15).astype(float)
    x = rng.normal(size=(n, 6))
    x[y > 0.5, 0] += separation  # feature 0 carries the signal
    x[y > 0.5, 4] -= separation
    return CutDataset(x, y, "synthetic")


class TestDataset:
    def test_shapes_and_validation(self):
        with pytest.raises(TrainingError):
            CutDataset(np.zeros((3, 5)), np.zeros(3))
        with pytest.raises(TrainingError):
            CutDataset(np.zeros((3, 6)), np.zeros(2))
        ds = CutDataset(np.zeros((3, 6)), np.array([1.0, 0, 0]))
        assert len(ds) == 3
        assert ds.n_positive == 1
        assert ds.imbalance == pytest.approx(1 / 3)

    def test_concatenate(self):
        a = CutDataset(np.zeros((2, 6)), np.zeros(2), "a")
        b = CutDataset(np.ones((3, 6)), np.ones(3), "b")
        merged = CutDataset.concatenate([a, b])
        assert len(merged) == 5
        assert merged.n_positive == 3
        with pytest.raises(TrainingError):
            CutDataset.concatenate([])

    def test_standardization(self):
        ds = synthetic_dataset()
        std_ds, mean, std = ds.standardized()
        assert np.allclose(std_ds.x.mean(axis=0), 0, atol=1e-9)
        assert np.allclose(std_ds.x.std(axis=0), 1, atol=1e-9)
        assert mean.shape == (6,) and std.shape == (6,)

    def test_standardization_constant_feature(self):
        x = np.zeros((10, 6))
        ds = CutDataset(x, np.zeros(10))
        _, _mean, std = ds.standardized()
        assert np.all(std == 1.0)  # floored, no division by zero

    def test_split(self):
        ds = synthetic_dataset(100)
        train, val = ds.split(0.8, seed=1)
        assert len(train) == 80 and len(val) == 20

    def test_save_load_roundtrip(self, tmp_path):
        ds = synthetic_dataset(50)
        path = tmp_path / "ds.npz"
        ds.save(path)
        loaded = CutDataset.load(path)
        assert np.array_equal(loaded.x, ds.x)
        assert np.array_equal(loaded.y, ds.y)
        assert loaded.name == ds.name

    def test_collector_integration(self):
        g = random_aig(7, 120, 4, seed=3)
        collector = DatasetCollector()
        stats = refactor(g, collector=collector)
        ds = collector.dataset("rand")
        assert len(ds) == stats.nodes_visited
        assert ds.n_positive == stats.commits
        assert ds.x.min() >= 0  # all features are counts/levels

    def test_collector_requires_features(self):
        collector = DatasetCollector()
        with pytest.raises(TrainingError):
            collector(None, True)

    def test_empty_collector(self):
        ds = DatasetCollector().dataset()
        assert len(ds) == 0


class TestTraining:
    def test_learns_separable_data(self):
        ds = synthetic_dataset(800, seed=1)
        result = train_classifier(ds, TrainConfig(epochs=15, seed=0))
        fused = result.fused_model()
        probs = 1 / (1 + np.exp(-fused.forward_logits(ds.x)))
        preds = probs >= 0.5
        labels = ds.y > 0.5
        recall = (preds & labels).sum() / max(1, labels.sum())
        accuracy = (preds == labels).mean()
        assert recall > 0.85
        assert accuracy > 0.8

    def test_history_and_early_stopping(self):
        ds = synthetic_dataset(400)
        config = TrainConfig(epochs=30, patience=3, seed=2)
        result = train_classifier(ds, config)
        assert 1 <= len(result.history) <= 30
        assert result.best_epoch >= 0
        assert all("val_loss" in h for h in result.history)

    def test_rejects_tiny_dataset(self):
        with pytest.raises(TrainingError):
            train_classifier(CutDataset(np.zeros((2, 6)), np.zeros(2)))

    def test_alternative_losses_run(self):
        ds = synthetic_dataset(300)
        for loss in ("focal", "class_balanced"):
            result = train_classifier(ds, TrainConfig(epochs=3, loss=loss))
            assert len(result.history) >= 1

    def test_deterministic_given_seed(self):
        ds = synthetic_dataset(300)
        r1 = train_classifier(ds, TrainConfig(epochs=3, seed=5))
        r2 = train_classifier(ds, TrainConfig(epochs=3, seed=5))
        assert np.allclose(
            r1.model.weights[0], r2.model.weights[0]
        )
