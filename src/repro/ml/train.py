"""The training loop, mirroring the paper's recipe (SS IV-A).

Batch size 64, up to 30 epochs with early stopping (patience 10), Adam at
lr 0.1 under cosine annealing with warm restarts, BCE loss, MixUp
augmentation, and a weighted random sampler against the ~1%-positive
class imbalance.

The step costs a few dozen NumPy calls, and the classifier it trains is
bit-for-bit the one a per-array loop trains:

* the MLP's parameters are views into one flat buffer (``MLP.flat``);
  backprop writes into matching views of one gradient buffer, Adam
  steps once over the pair, and the best-epoch snapshot is one copy.
  Adam's update is elementwise, so per element it is the same arithmetic
  whatever arrays the elements sit in;
* the sampler draws an epoch's uniforms in one call and maps them
  through a CDF it normalized once — the body of ``Generator.choice``,
  so the batches are the same (see :mod:`repro.ml.sampler`);
* the forward pass adds biases and applies ReLU in place, and the
  sigmoid is mask-free; both give the same bits as their allocating,
  masked forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import TrainingError
from .dataset import CutDataset
from .losses import bce_with_logits, class_balanced_weights, focal_loss_with_logits
from .mixup import mixup_batch
from .mlp import PAPER_LAYERS, MLP
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
    config = config or TrainConfig()
    if len(dataset) < 4:
        raise TrainingError("dataset too small to train on")
    mean, std = dataset.standardization()
    x_all = (dataset.x - mean) / std
    y_all = dataset.y

    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(len(dataset))
    n_val = max(1, int(len(dataset) * config.validation_fraction))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    x_train, y_train = x_all[train_idx], y_all[train_idx]
    x_val, y_val = x_all[val_idx], y_all[val_idx]

    model = MLP(config.layer_sizes, seed=config.seed)
    grad = np.empty_like(model.flat)
    grad_w, grad_b = model.parameter_views(grad)
    optimizer = Adam([model.flat], lr=config.lr)
    schedule = CosineAnnealingWarmRestarts(config.lr, t0=config.restart_period)
    sampler = WeightedRandomSampler(y_train, config.batch_size, seed=config.seed)
    cb_weights = (
        class_balanced_weights(y_train) if config.loss == "class_balanced" else None
    )
    # Validation uses balanced BCE so the 99%-negative majority cannot
    # mask the recall-critical positive loss.
    val_weights = _balanced_weights(y_val)
    cap = config.max_batches_per_epoch

    best_val = float("inf")
    best_flat = model.flat.copy()
    best_epoch = -1
    bad_epochs = 0
    history: list[dict] = []
    for epoch in range(config.epochs):
        optimizer.lr = schedule.lr_at(epoch)
        epoch_loss = 0.0
        # A binding cap draws one batch past it that is never trained
        # on.  The extra draw is part of the pinned sampler stream:
        # dropping it changes every later batch and so every trained bit
        # (tests/test_ml_train_parity.py).
        batches = sampler.epoch(cap + 1)[:cap]
        for batch_idx in batches:
            xb, yb = x_train[batch_idx], y_train[batch_idx]
            xb, yb = mixup_batch(xb, yb, config.mixup_alpha, rng)
            inputs, logits = model.forward_cached(xb)
            if config.loss == "focal":
                loss, dlogits = focal_loss_with_logits(logits, yb)
            elif config.loss == "class_balanced":
                loss, dlogits = bce_with_logits(logits, yb, cb_weights[batch_idx])
            else:
                loss, dlogits = bce_with_logits(logits, yb)
            model.backprop_into(inputs, dlogits, grad_w, grad_b)
            optimizer.step([grad])
            epoch_loss += loss
        val_logits = model.forward_logits(x_val)
        val_loss, _ = bce_with_logits(val_logits, y_val, val_weights)
        history.append(
            {
                "epoch": epoch,
                "lr": optimizer.lr,
                "train_loss": epoch_loss / max(1, len(batches)),
                "val_loss": val_loss,
            }
        )
        if val_loss < best_val - 1e-6:
            best_val = val_loss
            best_flat = model.flat.copy()
            best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break
    model.flat[...] = best_flat
    return TrainResult(model=model, mean=mean, std=std, history=history, best_epoch=best_epoch)


def _balanced_weights(labels: np.ndarray) -> np.ndarray:
    positives = labels > 0.5
    n_pos = max(1, int(positives.sum()))
    n_neg = max(1, int((~positives).sum()))
    n = labels.size
    w_pos, w_neg = n / (2.0 * n_pos), n / (2.0 * n_neg)
    return np.where(positives, w_pos, w_neg)
