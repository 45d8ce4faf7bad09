"""Tests for losses, optimizers, schedule, mixup, sampler, metrics."""

import math

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.ml import (
    Adam,
    SGD,
    CosineAnnealingWarmRestarts,
    WeightedRandomSampler,
    bce_with_logits,
    class_balanced_weights,
    confusion,
    focal_loss_with_logits,
    mixup_batch,
    threshold_for_recall,
)


class TestLosses:
    def test_bce_known_values(self):
        logits = np.array([0.0, 0.0])
        targets = np.array([1.0, 0.0])
        loss, grad = bce_with_logits(logits, targets)
        assert abs(loss - math.log(2)) < 1e-12
        assert np.allclose(grad, [(0.5 - 1) / 2, 0.5 / 2])

    def test_bce_gradient_direction(self):
        logits = np.array([2.0])
        _, grad_pos = bce_with_logits(logits, np.array([1.0]))
        _, grad_neg = bce_with_logits(logits, np.array([0.0]))
        assert grad_pos[0] < 0  # push logit up for positives
        assert grad_neg[0] > 0

    def test_bce_weights(self):
        logits = np.array([1.0, 1.0])
        targets = np.array([1.0, 1.0])
        loss_u, _ = bce_with_logits(logits, targets)
        loss_w, _ = bce_with_logits(logits, targets, np.array([2.0, 2.0]))
        assert abs(loss_w - 2 * loss_u) < 1e-12

    def test_bce_validation(self):
        with pytest.raises(TrainingError):
            bce_with_logits(np.zeros(3), np.zeros(2))
        with pytest.raises(TrainingError):
            bce_with_logits(np.zeros(0), np.zeros(0))

    def test_bce_extreme_logits_stable(self):
        loss, grad = bce_with_logits(
            np.array([1000.0, -1000.0]), np.array([1.0, 0.0])
        )
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
        assert loss < 1e-6

    def test_focal_reduces_easy_example_weight(self):
        easy = focal_loss_with_logits(np.array([5.0]), np.array([1.0]))[0]
        hard = focal_loss_with_logits(np.array([-5.0]), np.array([1.0]))[0]
        assert hard > 100 * easy

    def test_focal_gradient_finite_difference(self):
        logits = np.array([0.3, -0.7, 1.2])
        targets = np.array([1.0, 0.0, 1.0])
        _, grad = focal_loss_with_logits(logits, targets)
        eps = 1e-6
        for i in range(3):
            up = logits.copy()
            up[i] += eps
            down = logits.copy()
            down[i] -= eps
            numeric = (
                focal_loss_with_logits(up, targets)[0]
                - focal_loss_with_logits(down, targets)[0]
            ) / (2 * eps)
            assert abs(numeric - grad[i]) < 1e-5

    def test_class_balanced_weights_shape(self):
        labels = np.array([1.0] + [0.0] * 99)
        weights = class_balanced_weights(labels)
        assert weights.shape == labels.shape
        assert weights[0] > weights[1]  # minority upweighted


class TestOptimizers:
    def test_adam_minimizes_quadratic(self):
        param = np.array([5.0])
        opt = Adam([param], lr=0.1)
        for _ in range(500):
            opt.step([2 * param])  # d/dx x^2
        assert abs(param[0]) < 1e-2

    def test_sgd_with_momentum(self):
        param = np.array([5.0])
        opt = SGD([param], lr=0.05, momentum=0.9)
        for _ in range(300):
            opt.step([2 * param])
        assert abs(param[0]) < 1e-2

    def test_length_mismatch(self):
        opt = Adam([np.zeros(2)])
        with pytest.raises(TrainingError):
            opt.step([np.zeros(2), np.zeros(2)])


class TestSchedule:
    def test_peak_and_trough(self):
        s = CosineAnnealingWarmRestarts(lr_max=0.1, t0=10)
        assert abs(s.lr_at(0) - 0.1) < 1e-12
        assert s.lr_at(9.999) < 0.002
        # Warm restart: back to max at the cycle boundary.
        assert abs(s.lr_at(10) - 0.1) < 1e-12

    def test_t_mult_stretches_cycles(self):
        s = CosineAnnealingWarmRestarts(lr_max=1.0, t0=4, t_mult=2)
        # cycles: [0,4), [4,12), [12,28)
        assert abs(s.lr_at(4) - 1.0) < 1e-12
        assert abs(s.lr_at(12) - 1.0) < 1e-12
        assert s.lr_at(8) == pytest.approx(0.5, abs=1e-9)

    def test_monotone_within_cycle(self):
        s = CosineAnnealingWarmRestarts(lr_max=0.1, t0=10)
        values = [s.lr_at(e) for e in np.linspace(0, 9.99, 50)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(TrainingError):
            CosineAnnealingWarmRestarts(0.1, t0=0)
        s = CosineAnnealingWarmRestarts(0.1)
        with pytest.raises(TrainingError):
            s.lr_at(-1)


class TestMixup:
    def test_convex_combination(self):
        rng = np.random.default_rng(0)
        x = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        xm, ym = mixup_batch(x, y, alpha=1.0, rng=rng)
        assert np.all((xm >= 0) & (xm <= 1))
        assert np.all((ym >= 0) & (ym <= 1))

    def test_disabled_alpha(self):
        x = np.arange(6, dtype=float).reshape(3, 2)
        y = np.array([0.0, 1.0, 0.0])
        xm, ym = mixup_batch(x, y, alpha=0.0)
        assert np.array_equal(xm, x) and np.array_equal(ym, y)

    def test_major_share_stays_original(self):
        rng = np.random.default_rng(3)
        x = np.eye(4)
        y = np.array([1.0, 0.0, 0.0, 0.0])
        xm, _ = mixup_batch(x, y, alpha=0.4, rng=rng)
        # lam >= 0.5 guaranteed: diagonal dominates.
        assert np.all(np.diag(xm) >= 0.5 - 1e-12)

    def test_validation(self):
        with pytest.raises(TrainingError):
            mixup_batch(np.zeros((3, 2)), np.zeros(2))


class TestSampler:
    def test_balances_classes(self):
        labels = np.array([1.0] * 10 + [0.0] * 990)
        sampler = WeightedRandomSampler(labels, batch_size=64, seed=0)
        positives = 0
        total = 0
        for batch in sampler.epoch():
            positives += int((labels[batch] > 0.5).sum())
            total += len(batch)
        fraction = positives / total
        assert 0.35 < fraction < 0.65  # ~balanced despite 1% base rate

    def test_epoch_batch_count(self):
        sampler = WeightedRandomSampler(np.zeros(130) + 1, batch_size=64)
        batches = list(sampler.epoch())
        assert len(batches) == 2
        assert all(len(b) == 64 for b in batches)

    @staticmethod
    def _probs(labels):
        positives = labels > 0.5
        weights = np.where(positives, 1.0 / positives.sum(), 1.0 / (~positives).sum())
        return weights / weights.sum()

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_stream_is_generator_choice(self, seed):
        """Each epoch yields exactly the batches of consecutive
        ``Generator.choice(n, size, p=probs)`` calls on the same seed."""
        labels = (np.arange(1000) % 37 == 0).astype(float)
        sampler = WeightedRandomSampler(labels, batch_size=64, seed=seed)
        rng = np.random.default_rng(seed)
        probs = self._probs(labels)
        for max_batches in (None, 4, None, 1):
            batches = sampler.epoch(max_batches)
            expected_k = 1000 // 64 if max_batches is None else max_batches
            assert batches.shape == (expected_k, 64)
            for batch in batches:
                assert np.array_equal(batch, rng.choice(1000, size=64, p=probs))

    def test_stream_without_replacement(self):
        labels = (np.arange(300) % 10 == 0).astype(float)
        sampler = WeightedRandomSampler(labels, batch_size=50, seed=3, replacement=False)
        rng = np.random.default_rng(3)
        probs = self._probs(labels)
        for _ in range(2):
            batches = sampler.epoch()
            assert batches.shape == (6, 50)
            for batch in batches:
                assert len(set(batch.tolist())) == 50
                expected = rng.choice(300, size=50, replace=False, p=probs)
                assert np.array_equal(batch, expected)

    def test_validation(self):
        with pytest.raises(TrainingError):
            WeightedRandomSampler(np.zeros(0))
        with pytest.raises(TrainingError):
            WeightedRandomSampler(np.ones(5), batch_size=0)


class TestMetrics:
    def test_confusion_counts(self):
        y_true = np.array([1, 1, 0, 0, 1, 0])
        y_pred = np.array([1, 0, 0, 1, 1, 0])
        c = confusion(y_true, y_pred)
        assert (c.tp, c.fn, c.fp, c.tn) == (2, 1, 1, 2)
        assert c.recall == pytest.approx(2 / 3)
        assert c.accuracy == pytest.approx(4 / 6)
        assert c.prune_fraction == pytest.approx(3 / 6)

    def test_degenerate_cases(self):
        c = confusion(np.zeros(4), np.zeros(4))
        assert c.recall == 1.0  # no positives to miss
        assert c.accuracy == 1.0

    def test_threshold_for_recall_exact(self):
        probs = np.array([0.9, 0.8, 0.7, 0.2, 0.1, 0.05])
        labels = np.array([1, 1, 1, 0, 0, 0])
        t = threshold_for_recall(probs, labels, target_recall=1.0)
        assert ((probs >= t) == labels.astype(bool)).all()

    def test_threshold_allows_missing_some(self):
        probs = np.array([0.9, 0.5, 0.1, 0.3])
        labels = np.array([1, 1, 1, 0])
        t = threshold_for_recall(probs, labels, target_recall=0.66)
        kept = probs >= t
        recall = (kept & labels.astype(bool)).sum() / 3
        assert recall >= 0.66

    def test_threshold_no_positives(self):
        assert threshold_for_recall(np.array([0.3]), np.array([0.0])) == 0.5
