"""Classification losses (logit-space, numerically stable).

Binary cross entropy is the paper's production loss; focal and
class-balanced variants are included because the paper reports trying
them (SS IV-A) — the ablation bench reproduces that comparison.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError
from .mlp import sigmoid


def bce_with_logits(
    logits: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Mean binary cross entropy and its gradient w.r.t. the logits.

    ``targets`` may be soft (MixUp produces values in [0, 1]).
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if logits.shape != targets.shape:
        raise TrainingError("logits/targets shape mismatch")
    n = logits.size
    if n == 0:
        raise TrainingError("empty batch")
    # log(1 + exp(z)) computed stably.
    softplus = np.logaddexp(0.0, logits)
    per_sample = softplus - targets * logits
    probs = sigmoid(logits)
    grad = probs - targets
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        per_sample = per_sample * weights
        grad = grad * weights
    return float(per_sample.mean()), grad / n


def focal_loss_with_logits(
    logits: np.ndarray,
    targets: np.ndarray,
    gamma: float = 2.0,
    alpha: float = 0.75,
) -> tuple[float, np.ndarray]:
    """Focal loss (Lin et al.) with its gradient — hard-example weighting."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    p = sigmoid(logits)
    eps = 1e-12
    pt = targets * p + (1 - targets) * (1 - p)
    at = targets * alpha + (1 - targets) * (1 - alpha)
    log_pt = np.log(np.clip(pt, eps, 1.0))
    per_sample = -at * (1 - pt) ** gamma * log_pt
    # d/dz: chain through pt = t*p + (1-t)(1-p), dpt/dz = (2t-1) p(1-p)
    dpt_dz = (2 * targets - 1) * p * (1 - p)
    dloss_dpt = -at * (
        -gamma * (1 - pt) ** (gamma - 1) * log_pt + (1 - pt) ** gamma / np.clip(pt, eps, 1.0)
    )
    grad = dloss_dpt * dpt_dz
    return float(per_sample.mean()), grad / logits.size


def class_balanced_weights(labels: np.ndarray, beta: float = 0.999) -> np.ndarray:
    """Per-sample weights from the class-balanced loss (Cui et al.)."""
    labels = np.asarray(labels)
    n_pos = max(1, int((labels > 0.5).sum()))
    n_neg = max(1, int((labels <= 0.5).sum()))
    eff_pos = (1 - beta**n_pos) / (1 - beta)
    eff_neg = (1 - beta**n_neg) / (1 - beta)
    w_pos, w_neg = 1.0 / eff_pos, 1.0 / eff_neg
    scale = 2.0 / (w_pos + w_neg)
    return np.where(labels > 0.5, w_pos * scale, w_neg * scale)
