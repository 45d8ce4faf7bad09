"""The training loop, mirroring the paper's recipe (SS IV-A).

Batch size 64, up to 30 epochs with early stopping (patience 10), Adam at
lr 0.1 under cosine annealing with warm restarts, BCE loss, MixUp
augmentation, and a weighted random sampler against the ~1%-positive
class imbalance.

ELF trains a family of models at once — one per held-out circuit — so
:func:`train_classifiers` steps K models in lockstep and
:func:`train_classifier` is its K=1 case.  Each model comes out bit for
bit as it would if trained alone, because the stack shares arithmetic
and never decisions:

* the K models' parameters are the rows of one ``(K, P)`` buffer in
  ``MLP.flat``'s layout, and so are the gradients and Adam's moments.
  Forward and backprop are batched ``np.matmul`` calls, which run the
  same BLAS routine on each model's slice that the 2-D product runs on
  the model alone; every other step is elementwise, or a per-model
  reduction over the same batch length (:mod:`repro.ml.mlp`,
  :mod:`repro.ml.losses`);
* everything random or decided stays per model: its own generator (the
  split, then the mixup draws in the single-model order), its own
  sampler, validation, best snapshot and early stopping;
* rows are ordered by batches per epoch, most first, so the models with
  a batch left at any step are a prefix of the live rows, and one Adam
  update covers that prefix (:class:`repro.ml.optim.Adam` keeps a step
  count per row).  A model with no batch left in the epoch, or that has
  stopped, is left untouched; a stopped model's row leaves the stack at
  the end of its last epoch;
* models whose batches differ in row count (a training set smaller than
  ``batch_size``) cannot share a stacked product, so they train in
  separate lockstep groups.

The single-model step is itself bit-for-bit the per-array loop that
``tests/test_ml_train_parity.py`` embeds as its oracle: the sampler
draws an epoch's uniforms in one call and maps them through a CDF it
normalized once — the body of ``Generator.choice`` (see
:mod:`repro.ml.sampler`) — and the forward pass adds biases and applies
ReLU in place with a mask-free sigmoid, which give the same bits as
their allocating, masked forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import TrainingError
from .dataset import CutDataset
from .losses import bce_with_logits, class_balanced_weights, focal_loss_with_logits
from .mixup import mixup_draws, mixup_stacked
from .mlp import PAPER_LAYERS, MLP, backprop_layers, forward_layers
from .optim import Adam
from .sampler import WeightedRandomSampler
from .schedule import CosineAnnealingWarmRestarts


@dataclass
class TrainConfig:
    """Hyperparameters; defaults are the paper's."""

    layer_sizes: tuple[int, ...] = PAPER_LAYERS
    batch_size: int = 64
    epochs: int = 30
    patience: int = 10
    lr: float = 0.1
    restart_period: int = 10
    mixup_alpha: float = 0.2
    loss: str = "bce"  # "bce" | "focal" | "class_balanced"
    seed: int = 0
    max_batches_per_epoch: int = 400  # caps epoch cost on huge datasets
    validation_fraction: float = 0.1


@dataclass
class TrainResult:
    """Trained network plus its normalization stats and history."""

    model: MLP
    mean: np.ndarray
    std: np.ndarray
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1

    def fused_model(self) -> MLP:
        """Model with normalization folded in (runs on raw features)."""
        return self.model.fuse_normalization(self.mean, self.std)


def train_classifier(dataset: CutDataset, config: TrainConfig | None = None) -> TrainResult:
    """Train the ELF classifier on a (raw-feature) dataset."""
    return train_classifiers([dataset], config)[0]


def train_classifiers(
    datasets: list[CutDataset], config: TrainConfig | None = None
) -> list[TrainResult]:
    """Train one classifier per dataset, all in one lockstep loop.

    Result ``k`` is bit for bit what training ``datasets[k]`` alone
    gives; see the module docstring for why.
    """
    config = config or TrainConfig()
    runs = [_Run(dataset, config, np.random.default_rng(config.seed)) for dataset in datasets]
    groups: dict[int, list[_Run]] = {}
    for run in runs:
        groups.setdefault(run.batch_rows, []).append(run)
    for group in groups.values():
        _train_lockstep(group, config)
    results = []
    for run in runs:
        model = MLP(config.layer_sizes)
        model.flat[...] = run.best_flat
        results.append(
            TrainResult(model, run.mean, run.std, run.history, run.best_epoch)
        )
    return results


class _Run:
    """One model's data, random streams and early-stopping state."""

    def __init__(
        self, dataset: CutDataset, config: TrainConfig, rng: np.random.Generator
    ) -> None:
        if len(dataset) < 4:
            raise TrainingError("dataset too small to train on")
        self.mean, self.std = dataset.standardization()
        x_all = (dataset.x - self.mean) / self.std
        y_all = dataset.y
        # The split, then every mixup draw, in the single-model order.
        self.rng = rng
        perm = self.rng.permutation(len(dataset))
        n_val = max(1, int(len(dataset) * config.validation_fraction))
        val_idx, train_idx = perm[:n_val], perm[n_val:]
        self.x_train, self.y_train = x_all[train_idx], y_all[train_idx]
        self.x_val, self.y_val = x_all[val_idx], y_all[val_idx]
        self.sampler = WeightedRandomSampler(self.y_train, config.batch_size, seed=config.seed)
        self.cb_weights = (
            class_balanced_weights(self.y_train) if config.loss == "class_balanced" else None
        )
        # Validation uses balanced BCE so the 99%-negative majority cannot
        # mask the recall-critical positive loss.
        self.val_weights = _balanced_weights(self.y_val)
        n_train = len(train_idx)
        self.batch_rows = min(config.batch_size, n_train)
        self.batches = min(max(1, n_train // config.batch_size), config.max_batches_per_epoch)
        self.history: list[dict] = []
        self.best_val = float("inf")
        self.best_flat: np.ndarray | None = None
        self.best_epoch = -1
        self.bad_epochs = 0
        self.offset = 0  # where its training rows start in its group's stack


def _train_lockstep(runs: list[_Run], config: TrainConfig) -> None:
    """Train ``runs`` (equal ``batch_rows``) as one ``(K, P)`` stack."""
    live = sorted(runs, key=lambda run: -run.batches)
    template = MLP(config.layer_sizes, seed=config.seed)
    for run in live:
        run.best_flat = template.flat.copy()
    optimizer = Adam([np.tile(template.flat, (len(live), 1))], lr=config.lr)
    schedule = CosineAnnealingWarmRestarts(config.lr, t0=config.restart_period)
    # Every model's training rows in one array, so a step gathers all
    # K batches with one index.
    x_cat = np.concatenate([run.x_train for run in live])
    y_cat = np.concatenate([run.y_train for run in live])
    cb_cat = (
        np.concatenate([run.cb_weights for run in live])
        if config.loss == "class_balanced"
        else None
    )
    for run, start in zip(live, np.cumsum([0] + [len(run.y_train) for run in live])):
        run.offset = int(start)
    cap = config.max_batches_per_epoch
    mixing = config.mixup_alpha > 0 and live[0].batch_rows >= 2

    for epoch in range(config.epochs):
        if not live:
            break
        optimizer.lr = schedule.lr_at(epoch)
        flat = optimizer.params[0]
        grad = np.empty_like(flat)
        weights, biases = template.parameter_views(flat)
        grad_w, grad_b = template.parameter_views(grad)
        shape = (live[0].batches, len(live), live[0].batch_rows)
        index = np.zeros(shape, dtype=np.int64)
        if mixing:
            lam, partners = np.zeros(shape[:2]), np.zeros(shape, dtype=np.int64)
        for j, run in enumerate(live):
            # A binding cap draws one batch past it that is never trained
            # on.  The extra draw is part of the pinned sampler stream:
            # dropping it changes every later batch and so every trained
            # bit (tests/test_ml_train_parity.py).
            index[: run.batches, j] = run.sampler.epoch(cap + 1)[:cap] + run.offset
            if mixing:
                # The model's generator serves nothing else this epoch,
                # so its mixup draws can all be taken now.
                lam[: run.batches, j], partners[: run.batches, j] = mixup_draws(
                    run.rng, config.mixup_alpha, run.batches, run.batch_rows
                )
                partners[:, j] += j * run.batch_rows
        epoch_loss = np.zeros(len(live))
        active = 0
        for step, rows in enumerate(index):
            if active == 0 or live[active - 1].batches <= step:
                # The prefix of models with a batch left shrank (or the
                # epoch began): re-cut the views once, not every step.
                # A lone model steps on plain 2-D views, whose calls cost
                # less than a stack of one.
                active = sum(run.batches > step for run in live)
                lead = slice(0, active) if active > 1 else 0
                w_a, b_a = [w[lead] for w in weights], [b[lead] for b in biases]
                gw_a, gb_a = [w[lead] for w in grad_w], [b[lead] for b in grad_b]
            rows = rows[lead]
            xb, yb = x_cat.take(rows, axis=0), y_cat.take(rows)
            if mixing:
                xb, yb = mixup_stacked(xb, yb, lam[step, lead], partners[step, lead])
            inputs, logits = forward_layers(w_a, b_a, xb)
            if config.loss == "focal":
                loss, dlogits = focal_loss_with_logits(logits, yb)
            elif config.loss == "class_balanced":
                loss, dlogits = bce_with_logits(logits, yb, cb_cat.take(rows))
            else:
                loss, dlogits = bce_with_logits(logits, yb)
            backprop_layers(w_a, inputs, dlogits, gw_a, gb_a)
            optimizer.step([grad], rows=active)
            epoch_loss[lead] += loss

        keep = []
        for j, run in enumerate(live):
            val_logits = forward_layers(
                [w[j] for w in weights], [b[j] for b in biases], run.x_val
            )[1]
            val_loss, _ = bce_with_logits(val_logits, run.y_val, run.val_weights)
            run.history.append(
                {
                    "epoch": epoch,
                    "lr": optimizer.lr,
                    "train_loss": float(epoch_loss[j]) / max(1, run.batches),
                    "val_loss": val_loss,
                }
            )
            if val_loss < run.best_val - 1e-6:
                run.best_val = val_loss
                run.best_flat = flat[j].copy()
                run.best_epoch = epoch
                run.bad_epochs = 0
                keep.append(j)
            else:
                run.bad_epochs += 1
                if run.bad_epochs < config.patience:
                    keep.append(j)
        if len(keep) < len(live):
            optimizer.select(np.array(keep, dtype=np.int64))
            live = [live[j] for j in keep]


def _balanced_weights(labels: np.ndarray) -> np.ndarray:
    positives = labels > 0.5
    n_pos = max(1, int(positives.sum()))
    n_neg = max(1, int((~positives).sum()))
    n = labels.size
    w_pos, w_neg = n / (2.0 * n_pos), n / (2.0 * n_neg)
    return np.where(positives, w_pos, w_neg)
