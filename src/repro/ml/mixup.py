"""MixUp data augmentation (Zhang et al., the paper's augmentation)."""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError


def mixup_batch(
    x: np.ndarray,
    y: np.ndarray,
    alpha: float = 0.2,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Convex-combine a batch with a shuffled copy of itself.

    ``lam ~ Beta(alpha, alpha)`` per batch; labels become soft targets.
    ``alpha <= 0`` disables mixing (identity).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[0] != y.shape[0]:
        raise TrainingError("x/y batch size mismatch")
    if alpha <= 0 or x.shape[0] < 2:
        return x, y
    lam, perms = mixup_draws(rng or np.random.default_rng(), alpha, 1, x.shape[0])
    x_mixed, y_mixed = mixup_stacked(x[None], y[None], lam, perms)
    return x_mixed[0], y_mixed[0]


def mixup_draws(
    rng: np.random.Generator, alpha: float, batches: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The draws of ``batches`` consecutive :func:`mixup_batch` calls on
    ``n``-row batches: ``lam (batches,)`` and ``perms (batches, n)``.

    Drawn in :func:`mixup_batch`'s order (``beta``, then the
    permutation), so a trainer may take an epoch's draws up front as
    long as nothing else draws from ``rng`` in between.
    """
    lam = np.empty(batches)
    # ``permutation(n)`` is ``shuffle(arange(n))``: same draws, no copies.
    perms = np.empty((batches, n), dtype=np.int64)
    perms[:] = np.arange(n)
    for batch in range(batches):
        draw = float(rng.beta(alpha, alpha))
        # Symmetry: keep the larger share on the original sample.
        lam[batch] = max(draw, 1.0 - draw)
        rng.shuffle(perms[batch])
    return lam, perms


def mixup_stacked(
    x: np.ndarray, y: np.ndarray, lam: np.ndarray, partners: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mix a stack of K batches ``x (K, n, d)``, ``y (K, n)`` — or one
    batch ``x (n, d)``, ``y (n,)`` with a scalar ``lam`` — batch ``k``
    with ``lam[k]`` and the rows ``partners[k]``, which index the stack's
    K * n rows (row ``i`` of batch ``k`` is ``k * n + i``; for batch
    ``k``'s draws from :func:`mixup_draws`, add ``k * n``).  Mixing is
    elementwise, so each batch comes out as :func:`mixup_batch` mixes
    it alone."""
    lam = np.asarray(lam)[..., None]
    # (K, n * d) rows: one long inner loop per batch, not n short ones.
    x_rows = x.reshape(lam.shape[:-1] + (-1,))
    x_partners = x.reshape(partners.size, -1).take(partners, axis=0).reshape(x_rows.shape)
    x_mixed = lam * x_rows + (1 - lam) * x_partners
    y_mixed = lam * y + (1 - lam) * y.take(partners)
    return x_mixed.reshape(x.shape), y_mixed
