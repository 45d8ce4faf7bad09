"""Weighted random batch sampling for imbalanced datasets.

The refactoring datasets are extremely imbalanced (~1% positives, paper
Tables I/II); the paper found a weighted random sampler beat SMOTE and
one-sided selection.  Each sample is drawn with probability inversely
proportional to its class frequency, so batches are roughly class
balanced in expectation.

With replacement, an epoch is one ``rng.random((k, batch))`` draw mapped
through the normalized CDF with ``searchsorted(side="right")``.  That is
the body of ``Generator.choice(n, batch, p=probs)``, minus the
validation and cumulative sum it repeats on every call, so the batches
are exactly the ones ``k`` consecutive ``choice`` calls would return.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError


class WeightedRandomSampler:
    """Yields index batches with inverse-class-frequency sampling."""

    def __init__(
        self,
        labels: np.ndarray,
        batch_size: int = 64,
        seed: int = 0,
        replacement: bool = True,
    ) -> None:
        labels = np.asarray(labels)
        if labels.ndim != 1 or labels.size == 0:
            raise TrainingError("labels must be a non-empty 1-d array")
        if batch_size < 1:
            raise TrainingError("batch_size must be positive")
        self.n = labels.size
        self.batch_size = batch_size
        self.replacement = replacement
        self._rng = np.random.default_rng(seed)
        positives = labels > 0.5
        n_pos = int(positives.sum())
        n_neg = self.n - n_pos
        weights = np.empty(self.n, dtype=np.float64)
        weights[positives] = 1.0 / max(1, n_pos)
        weights[~positives] = 1.0 / max(1, n_neg)
        self._probs = weights / weights.sum()
        self._cdf = self._probs.cumsum()
        self._cdf /= self._cdf[-1]

    def epoch(self, max_batches: int | None = None) -> np.ndarray:
        """One epoch's batches as a ``(k, size)`` index array.

        ``k`` is ``n // batch_size`` (at least 1), or ``max_batches`` if
        that is smaller; the sampler's stream advances by exactly ``k``
        batches.
        """
        k = max(1, self.n // self.batch_size)
        if max_batches is not None:
            k = min(k, max_batches)
        size = min(self.batch_size, self.n)
        if not self.replacement:
            return np.array(
                [
                    self._rng.choice(self.n, size=size, replace=False, p=self._probs)
                    for _ in range(k)
                ],
                dtype=np.int64,
            ).reshape(k, size)
        return self._cdf.searchsorted(self._rng.random((k, size)), side="right")
