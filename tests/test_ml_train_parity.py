"""Byte-identity gate for the stacked training step.

``repro.ml.train.train_classifiers`` trains K models in lockstep: their
parameters are the rows of one ``(K, P)`` buffer, forward and backprop
are batched matmuls, one Adam update covers the models that still have
a batch, each epoch's batches come from one draw, and the sigmoid is
mask-free.  ``train_classifier`` is its K=1 case.  Each of those is
claimed to give every model the bits of the per-array loop that trained
one model at a time.  That loop is embedded below as the oracle —
per-array Xavier init and backprop, Adam stepping every array on its
own, one ``Generator.choice(p=...)`` call per batch drawn lazily, a loop
that breaks only after drawing the batch past the cap, the allocating
mixup and the boolean-mask sigmoid — and every model's trained arrays,
stats, history and chosen epoch, and every leave-one-out threshold, must
match it exactly.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.elf import collect_dataset, train_leave_one_out, train_pooled
from repro.elf import pipeline
from repro.ml import (
    MLP,
    CutDataset,
    TrainConfig,
    TrainResult,
    train_classifier,
    train_classifiers,
)
from repro.ml import train as train_module
from repro.ml.losses import class_balanced_weights
from repro.ml.mlp import sigmoid
from repro.ml.optim import Adam
from repro.ml.sampler import WeightedRandomSampler
from repro.ml.schedule import CosineAnnealingWarmRestarts

# ----------------------------------------------------------------------
# The oracle: the per-array training loop
# ----------------------------------------------------------------------


def _masked_sigmoid(z):
    out = np.empty_like(z, dtype=np.float64)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    ez = np.exp(z[~positive])
    out[~positive] = ez / (1.0 + ez)
    return out


def _bce(logits, targets, weights=None):
    per_sample = np.logaddexp(0.0, logits) - targets * logits
    grad = _masked_sigmoid(logits) - targets
    if weights is not None:
        per_sample = per_sample * weights
        grad = grad * weights
    return float(per_sample.mean()), grad / logits.size


def _focal(logits, targets, gamma=2.0, alpha=0.75):
    p = _masked_sigmoid(logits)
    eps = 1e-12
    pt = targets * p + (1 - targets) * (1 - p)
    at = targets * alpha + (1 - targets) * (1 - alpha)
    log_pt = np.log(np.clip(pt, eps, 1.0))
    per_sample = -at * (1 - pt) ** gamma * log_pt
    dpt_dz = (2 * targets - 1) * p * (1 - p)
    dloss_dpt = -at * (
        -gamma * (1 - pt) ** (gamma - 1) * log_pt + (1 - pt) ** gamma / np.clip(pt, eps, 1.0)
    )
    return float(per_sample.mean()), dloss_dpt * dpt_dz / logits.size


def _mixup(x, y, alpha, rng):
    if alpha <= 0 or x.shape[0] < 2:
        return x, y
    lam = float(rng.beta(alpha, alpha))
    lam = max(lam, 1.0 - lam)
    perm = rng.permutation(x.shape[0])
    return lam * x + (1 - lam) * x[perm], lam * y + (1 - lam) * y[perm]


def _adam_step(state, params, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    state["t"] += 1
    bc1 = 1 - b1 ** state["t"]
    bc2 = 1 - b2 ** state["t"]
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def _choice_batches(rng, labels, batch_size):
    """The sampler's epoch: one ``Generator.choice`` per batch, lazily."""
    positives = labels > 0.5
    n_pos = int(positives.sum())
    weights = np.empty(labels.size)
    weights[positives] = 1.0 / max(1, n_pos)
    weights[~positives] = 1.0 / max(1, labels.size - n_pos)
    probs = weights / weights.sum()
    for _ in range(max(1, labels.size // batch_size)):
        yield rng.choice(labels.size, size=min(batch_size, labels.size), p=probs)


def _balanced(labels):
    positives = labels > 0.5
    n_pos = max(1, int(positives.sum()))
    n_neg = max(1, int((~positives).sum()))
    return np.where(positives, labels.size / (2.0 * n_pos), labels.size / (2.0 * n_neg))


def _forward(weights, biases, x):
    h, inputs = x, []
    for i, (w, b) in enumerate(zip(weights, biases)):
        inputs.append(h)
        h = h @ w + b
        if i != len(weights) - 1:
            h = np.maximum(h, 0.0)
    return inputs, h[:, 0]


def _backprop(weights, inputs, dlogits):
    grad_w, grad_b = [None] * len(weights), [None] * len(weights)
    delta = dlogits[:, None]
    for i in range(len(weights) - 1, -1, -1):
        grad_w[i] = inputs[i].T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ weights[i].T
            delta = delta * (inputs[i] > 0.0)
    return grad_w, grad_b


def reference_train(dataset: CutDataset, config: TrainConfig) -> TrainResult:
    mean, std = dataset.standardization()
    x_all = (dataset.x - mean) / std
    y_all = dataset.y
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(len(dataset))
    n_val = max(1, int(len(dataset) * config.validation_fraction))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    x_train, y_train = x_all[train_idx], y_all[train_idx]
    x_val, y_val = x_all[val_idx], y_all[val_idx]

    init_rng = np.random.default_rng(config.seed)
    sizes = config.layer_sizes
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        bound = float(np.sqrt(6.0 / (n_in + n_out)))
        weights.append(init_rng.uniform(-bound, bound, size=(n_in, n_out)))
        biases.append(np.zeros(n_out))
    params = [a for pair in zip(weights, biases) for a in pair]
    adam = {"t": 0, "m": [np.zeros_like(p) for p in params], "v": [np.zeros_like(p) for p in params]}
    schedule = CosineAnnealingWarmRestarts(config.lr, t0=config.restart_period)
    sampler_rng = np.random.default_rng(config.seed)
    cb_weights = class_balanced_weights(y_train) if config.loss == "class_balanced" else None

    best_val, best_params, best_epoch, bad_epochs = float("inf"), [p.copy() for p in params], -1, 0
    history = []
    for epoch in range(config.epochs):
        lr = schedule.lr_at(epoch)
        epoch_loss, n_batches = 0.0, 0
        for batch_idx in _choice_batches(sampler_rng, y_train, config.batch_size):
            if n_batches >= config.max_batches_per_epoch:
                break
            xb, yb = _mixup(x_train[batch_idx], y_train[batch_idx], config.mixup_alpha, rng)
            inputs, logits = _forward(weights, biases, xb)
            if config.loss == "focal":
                loss, dlogits = _focal(logits, yb)
            elif config.loss == "class_balanced":
                loss, dlogits = _bce(logits, yb, cb_weights[batch_idx])
            else:
                loss, dlogits = _bce(logits, yb)
            grad_w, grad_b = _backprop(weights, inputs, dlogits)
            _adam_step(adam, params, [a for pair in zip(grad_w, grad_b) for a in pair], lr)
            epoch_loss += loss
            n_batches += 1
        _, val_logits = _forward(weights, biases, x_val)
        val_loss, _ = _bce(val_logits, y_val, _balanced(y_val))
        history.append(
            {
                "epoch": epoch,
                "lr": lr,
                "train_loss": epoch_loss / max(1, n_batches),
                "val_loss": val_loss,
            }
        )
        if val_loss < best_val - 1e-6:
            best_val, best_params, best_epoch, bad_epochs = val_loss, [p.copy() for p in params], epoch, 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break
    model = MLP(sizes)
    model.set_parameters(best_params)
    return TrainResult(model=model, mean=mean, std=std, history=history, best_epoch=best_epoch)


# ----------------------------------------------------------------------
# The gate
# ----------------------------------------------------------------------


def _dataset(n=700, seed=3, positive_rate=0.06) -> CutDataset:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 6)) * [1.0, 3.0, 0.5, 2.0, 1.0, 4.0] + [0, 5, 1, 0, 2, 10]
    score = x[:, 0] + 0.5 * x[:, 3] + rng.normal(scale=0.8, size=n)
    y = (score > np.quantile(score, 1 - positive_rate)).astype(np.float64)
    return CutDataset(x, y, name="synthetic")


def _mismatches(got: TrainResult, want: TrainResult) -> list[str]:
    bad = []
    for i, (a, b) in enumerate(zip(got.model.weights, want.model.weights)):
        if not np.array_equal(a, b):
            bad.append(f"w{i}")
    for i, (a, b) in enumerate(zip(got.model.biases, want.model.biases)):
        if not np.array_equal(a, b):
            bad.append(f"b{i}")
    for name in ("mean", "std"):
        if not np.array_equal(getattr(got, name), getattr(want, name)):
            bad.append(name)
    if got.history != want.history:
        bad.append("history")
    if got.best_epoch != want.best_epoch:
        bad.append("best_epoch")
    return bad


CONFIGS = {
    f"{loss}-mixup{alpha}": TrainConfig(epochs=6, loss=loss, mixup_alpha=alpha, seed=5)
    for loss in ("bce", "focal", "class_balanced")
    for alpha in (0.0, 0.2)
}
# Stops after 3 non-improving epochs, well short of 40.
CONFIGS["early-stop"] = TrainConfig(epochs=40, patience=3, lr=0.3, seed=1)
# 630 training rows / 64 = 9 batches per epoch, capped at 3.
CONFIGS["cap-binds"] = TrainConfig(epochs=5, max_batches_per_epoch=3, seed=2)


class TestTrainingParity:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_matches_per_array_loop(self, name):
        config = CONFIGS[name]
        data = _dataset()
        got = train_classifier(data, config)
        want = reference_train(data, config)
        assert _mismatches(got, want) == []
        if name == "early-stop":
            assert len(got.history) < config.epochs
        if name == "cap-binds":
            assert len(data) * 0.9 // config.batch_size > config.max_batches_per_epoch

    def test_default_config_matches(self):
        data = _dataset(n=900, seed=8)
        assert _mismatches(train_classifier(data), reference_train(data, TrainConfig())) == []

    def test_model_is_views_of_one_buffer(self):
        model = train_classifier(_dataset(), CONFIGS["bce-mixup0.2"]).model
        for array in model.get_parameters():
            assert np.shares_memory(array, model.flat)
        assert model.n_parameters == model.flat.size == 325
        # Classifiers cross process boundaries pickled; the views survive.
        clone = pickle.loads(pickle.dumps(model))
        for a, b in zip(clone.get_parameters(), model.get_parameters()):
            assert np.shares_memory(a, clone.flat) and np.array_equal(a, b)


class TestGateHasTeeth:
    """Each mutant reintroduces a plausible slip; the gate must see it."""

    @staticmethod
    def _no_extra_draw(monkeypatch):
        epoch = WeightedRandomSampler.epoch
        monkeypatch.setattr(
            WeightedRandomSampler,
            "epoch",
            lambda self, max_batches=None: epoch(
                self, None if max_batches is None else max_batches - 1
            ),
        )

    @staticmethod
    def _no_bias_correction(monkeypatch):
        def step(self, grads, rows=None):
            for p, g, m, v in zip(self.params, grads, self._m, self._v):
                p, g, m, v = p[:rows], g[:rows], m[:rows], v[:rows]
                m *= self.beta1
                m += (1 - self.beta1) * g
                v *= self.beta2
                v += (1 - self.beta2) * g * g
                p -= self.lr * m / (np.sqrt(v) + self.eps)

        monkeypatch.setattr(Adam, "step", step)

    @staticmethod
    def _shared_rng(monkeypatch):
        # One generator for the whole family instead of one per model.
        init, shared = train_module._Run.__init__, []

        def one_generator(self, dataset, config, rng):
            shared.append(rng)
            init(self, dataset, config, shared[0])

        monkeypatch.setattr(train_module._Run, "__init__", one_generator)

    @staticmethod
    def _steps_inactive_rows(monkeypatch):
        # Adam steps every live row, also those with no batch this step.
        step = Adam.step
        monkeypatch.setattr(Adam, "step", lambda self, grads, rows=None: step(self, grads))

    @pytest.mark.parametrize("mutant", ["_no_extra_draw", "_no_bias_correction"])
    def test_mutant_fails_the_gate(self, monkeypatch, mutant):
        config = CONFIGS["cap-binds"]
        data = _dataset()
        want = reference_train(data, config)
        getattr(self, mutant)(monkeypatch)
        assert _mismatches(train_classifier(data, config), want) != []

    @pytest.mark.parametrize("mutant", ["_shared_rng", "_steps_inactive_rows"])
    def test_family_mutant_fails_the_gate(self, monkeypatch, mutant):
        config = CONFIGS["bce-mixup0.2"]
        family = _ragged_family()
        want = [reference_train(d, config) for d in family]
        assert [_mismatches(g, w) for g, w in zip(train_classifiers(family, config), want)] == [
            []
        ] * len(family)
        getattr(self, mutant)(monkeypatch)
        got = train_classifiers(family, config)
        assert any(_mismatches(g, w) for g, w in zip(got, want))


def _ragged_family() -> list[CutDataset]:
    """Training rows 270 / 630 / 990: 4, 9 and 15 batches per epoch."""
    return [_dataset(n=300, seed=11), _dataset(n=700, seed=3), _dataset(n=1100, seed=12)]


class TestFamilyParity:
    """K models in one lockstep loop, each against its own oracle run."""

    # 9 and 15 batches per epoch meet a cap of 10: it binds for one model.
    FAMILY_CONFIGS = dict(CONFIGS, **{"cap-binds": TrainConfig(epochs=5, max_batches_per_epoch=10, seed=2)})

    @pytest.mark.parametrize("name", sorted(FAMILY_CONFIGS))
    def test_ragged_family_matches_per_model_loop(self, name):
        config = self.FAMILY_CONFIGS[name]
        family = _ragged_family()
        got = train_classifiers(family, config)
        assert [_mismatches(g, reference_train(d, config)) for g, d in zip(got, family)] == [
            []
        ] * len(family)
        batches = [
            min(int(len(d) * 0.9) // config.batch_size, config.max_batches_per_epoch)
            for d in family
        ]
        assert len(set(batches)) == len(family)  # ragged: the prefix shrinks mid-epoch
        if name == "early-stop":
            stopped = [len(r.history) for r in got]
            assert max(stopped) < config.epochs and len(set(stopped)) > 1
        if name == "cap-binds":
            assert any(len(d) * 0.9 // config.batch_size > config.max_batches_per_epoch for d in family)

    def test_small_dataset_trains_in_its_own_group(self):
        # 36 training rows make 36-row batches, which cannot stack with
        # 64-row ones; the family still returns results in input order.
        family = [_dataset(n=700, seed=3), _dataset(n=40, seed=5, positive_rate=0.2)]
        config = CONFIGS["class_balanced-mixup0.2"]
        got = train_classifiers(family, config)
        assert [_mismatches(g, reference_train(d, config)) for g, d in zip(got, family)] == [[], []]


class TestLeaveOneOutParity:
    @pytest.fixture(scope="class")
    def datasets(self, screen_circuits):
        return {name: collect_dataset(g, name=name) for name, g in screen_circuits.items()}

    def test_thresholds_and_networks_identical(self, datasets, monkeypatch):
        config = TrainConfig(epochs=8, seed=0)
        got = {name: train_leave_one_out(datasets, name, config) for name in datasets}
        # The per-circuit path: standardize and train one pool at a time.
        pooled = {
            name: train_pooled([d for n, d in datasets.items() if n != name], config)
            for name in datasets
        }
        monkeypatch.setattr(
            pipeline,
            "train_classifiers",
            lambda pools, config: [reference_train(d, config) for d in pools],
        )
        monkeypatch.setattr(pipeline, "_FAMILY_MEMO", None)
        want = {name: train_leave_one_out(datasets, name, config) for name in datasets}
        for name in datasets:
            for other in (want[name], pooled[name]):
                assert got[name].threshold == other.threshold, name
                for a, b in zip(got[name].model.get_parameters(), other.model.get_parameters()):
                    assert np.array_equal(a, b), name
                assert np.array_equal(got[name].fallback_mean, other.fallback_mean)
                assert np.array_equal(got[name].fallback_std, other.fallback_std)

    def test_memo_retrains_on_any_change(self, datasets, monkeypatch):
        calls = []
        family = pipeline.train_leave_one_out_family

        def counting(*args):
            calls.append(args)
            return family(*args)

        monkeypatch.setattr(pipeline, "train_leave_one_out_family", counting)
        monkeypatch.setattr(pipeline, "_FAMILY_MEMO", None)
        config = TrainConfig(epochs=2, seed=0)

        def round_(data, cfg=config, recall=0.95):
            return {name: train_leave_one_out(data, name, cfg, recall) for name in data}

        first = round_(datasets)
        assert len(calls) == 1  # one family serves every held-out circuit
        assert len(round_(datasets)) and len(calls) == 1
        changed = dict(datasets)
        x = datasets["hyp"].x.copy()
        x[0, 0] += 1.0
        changed["hyp"] = CutDataset(x, datasets["hyp"].y, "hyp")
        round_(changed)
        assert len(calls) == 2
        renamed = {("hyp2" if n == "hyp" else n): d for n, d in datasets.items()}
        round_(renamed)
        assert len(calls) == 3
        round_(datasets, TrainConfig(epochs=2, seed=1))
        assert len(calls) == 4
        round_(datasets, config, 0.9)
        assert len(calls) == 5
        again = round_(datasets)
        assert len(calls) == 6  # one slot: the previous round evicted it
        for name in datasets:
            assert again[name].threshold == first[name].threshold
            assert np.array_equal(again[name].model.flat, first[name].model.flat)

    def test_served_classifiers_are_copies(self, datasets, monkeypatch):
        monkeypatch.setattr(pipeline, "_FAMILY_MEMO", None)
        config = TrainConfig(epochs=2, seed=0)
        a = train_leave_one_out(datasets, "div", config)
        a.threshold = -1.0
        a.model.flat[:] = 0.0
        b = train_leave_one_out(datasets, "div", config)
        assert b.threshold != -1.0 and b.model.flat.any()
        assert all(np.shares_memory(w, b.model.flat) for w in b.model.get_parameters())


class TestSigmoid:
    SPECIALS = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0, np.inf, -np.inf]

    def test_bitwise_equal_to_masked_form(self):
        z = np.array(self.SPECIALS + [np.nan, -np.nan])
        assert np.array_equal(sigmoid(z).view(np.uint64), _masked_sigmoid(z).view(np.uint64))

    def test_bitwise_equal_on_random_logits(self):
        z = np.random.default_rng(4).normal(scale=30.0, size=10_001)
        assert np.array_equal(sigmoid(z).view(np.uint64), _masked_sigmoid(z).view(np.uint64))

    def test_is_the_only_copy(self):
        from repro.elf import classifier
        from repro.ml import losses

        assert losses.sigmoid is sigmoid and classifier.sigmoid is sigmoid
        assert not hasattr(losses, "_sigmoid") and not hasattr(classifier, "_sigmoid")
