"""The deployed ELF classifier.

Deployment mirrors the paper's ONNX graph: a Mean-Variance-Normalization
node merged in front of the network, run over *all cut data in one
batch*.  MVN normalizes by the statistics of the batch itself — which is
exactly the paper's "each dataset is standardized individually": at
inference the batch is the test circuit's whole cut population, so the
model sees the same per-circuit standardization it was trained under,
and generalizes across circuit sizes it never saw.

For small batches (the streaming ablation) batch statistics are
meaningless, so a fallback normalization captured from the training
corpus is used instead.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..cuts.features import N_FEATURES
from ..errors import TrainingError
from ..ml.metrics import threshold_for_recall
from ..ml.mlp import MLP, sigmoid
from ..ml.train import TrainResult

MIN_BATCH_FOR_MVN = 16


class ElfClassifier:
    """Batch-MVN + MLP classifier with a recall-driven threshold."""

    def __init__(
        self,
        model: MLP,
        threshold: float = 0.5,
        fallback_mean: np.ndarray | None = None,
        fallback_std: np.ndarray | None = None,
        batch_normalize: bool = True,
    ) -> None:
        if model.layer_sizes[0] != N_FEATURES:
            raise TrainingError(f"classifier input must be {N_FEATURES}-d")
        self.model = model
        self.threshold = float(threshold)
        self.batch_normalize = batch_normalize
        self.fallback_mean = (
            np.zeros(N_FEATURES) if fallback_mean is None else np.asarray(fallback_mean)
        )
        self.fallback_std = (
            np.ones(N_FEATURES) if fallback_std is None else np.asarray(fallback_std)
        )

    @staticmethod
    def from_training(
        result: TrainResult,
        target_recall: float = 0.95,
        calibration: list[np.ndarray] | tuple | None = None,
        calibration_labels: list[np.ndarray] | None = None,
    ) -> "ElfClassifier":
        """Build the deployable classifier from a training run.

        ``result`` must come from training on *per-circuit standardized*
        features.  ``calibration`` is a list of per-circuit raw feature
        arrays with matching ``calibration_labels``; the threshold is the
        recall-driven operating point over their pooled predictions.
        Passing a single ``(x, y)`` tuple is also accepted.
        """
        clf = ElfClassifier(result.fused_model())
        if calibration is None:
            return clf
        if isinstance(calibration, tuple):
            feature_sets = [np.asarray(calibration[0])]
            label_sets = [np.asarray(calibration[1])]
        else:
            feature_sets = [np.asarray(x) for x in calibration]
            label_sets = [np.asarray(y) for y in (calibration_labels or [])]
        if len(feature_sets) != len(label_sets):
            raise TrainingError("calibration features/labels mismatch")
        raw = np.concatenate(feature_sets)
        clf.fallback_mean = raw.mean(axis=0)
        std = raw.std(axis=0)
        std[std < 1e-9] = 1.0
        clf.fallback_std = std
        # Per-circuit operating points, aggregated by median: a pooled
        # threshold is dominated by whichever training circuit has the
        # hardest positives, which wrecks recall/pruning balance on the
        # others.  The median threshold hits the recall target on the
        # typical circuit while staying robust to one outlier.
        thresholds = []
        for x, y in zip(feature_sets, label_sets):
            if (y > 0.5).sum() >= 5:
                probs = clf.predict_proba(x)
                thresholds.append(threshold_for_recall(probs, y, target_recall))
        if thresholds:
            clf.threshold = float(np.median(thresholds))
        return clf

    @property
    def n_parameters(self) -> int:
        return self.model.n_parameters

    def _normalize(self, features: np.ndarray) -> np.ndarray:
        """The MVN node: z-score a batch by its own statistics when it is
        large enough to have meaningful ones, else by the fallback stats.

        The single normalization path shared by plain and fused
        inference — per-batch semantics must stay identical between the
        two for the serving layer's fusion guarantee to hold.
        """
        if self.batch_normalize and features.shape[0] >= MIN_BATCH_FOR_MVN:
            mean = features.mean(axis=0)
            std = features.std(axis=0)
            std[std < 1e-9] = 1.0
        else:
            mean, std = self.fallback_mean, self.fallback_std
        return (features - mean) / std

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Probabilities for a raw-feature batch ``(n, 6)``."""
        features = np.asarray(features, dtype=np.float64)
        if features.shape[0] == 0:
            return np.zeros(0)
        return sigmoid(self.model.forward_logits(self._normalize(features)))

    def keep_mask(self, features: np.ndarray) -> np.ndarray:
        """Boolean mask: True = attempt resynthesis, False = prune."""
        return self.predict_proba(features) >= self.threshold

    # -- cross-circuit batch fusion ------------------------------------------

    def fused_predict_proba(self, batches: list[np.ndarray]) -> list[np.ndarray]:
        """Classify several independent batches with one fused forward pass.

        This is the serving layer's amortization hook: each batch keeps
        *its own* MVN statistics (so per-batch semantics — and therefore
        per-circuit standardization — are preserved exactly), but the
        normalized rows are stacked into a single matrix and pushed
        through the network once.  The returned probabilities match what
        per-batch :meth:`predict_proba` calls would produce to within
        the last ulp (BLAS may pick a different kernel for the stacked
        shape); keep/prune decisions are unchanged unless a probability
        sits within float rounding of the threshold.
        """
        z_blocks: list[np.ndarray] = []
        lengths: list[int] = []
        for features in batches:
            features = np.asarray(features, dtype=np.float64)
            lengths.append(features.shape[0])
            if features.shape[0] == 0:
                continue
            z_blocks.append(self._normalize(features))
        if not z_blocks:
            return [np.zeros(0) for _ in lengths]
        fused = sigmoid(self.model.forward_logits(np.concatenate(z_blocks)))
        out: list[np.ndarray] = []
        offset = 0
        for n in lengths:
            out.append(fused[offset : offset + n])
            offset += n
        return out

    def fused_keep_masks(self, batches: list[np.ndarray]) -> list[np.ndarray]:
        """Per-batch keep masks from one fused inference (see above)."""
        return [p >= self.threshold for p in self.fused_predict_proba(batches)]

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        arrays = {
            "threshold": np.array(self.threshold),
            "batch_normalize": np.array(int(self.batch_normalize)),
            "fallback_mean": self.fallback_mean,
            "fallback_std": self.fallback_std,
            "layer_sizes": np.array(self.model.layer_sizes),
        }
        for i, (w, b) in enumerate(zip(self.model.weights, self.model.biases)):
            arrays[f"w{i}"] = w
            arrays[f"b{i}"] = b
        np.savez_compressed(path, **arrays)

    @staticmethod
    def load(path: str | Path) -> "ElfClassifier":
        data = np.load(path, allow_pickle=False)
        layer_sizes = tuple(int(s) for s in data["layer_sizes"])
        model = MLP(layer_sizes)
        model.set_parameters(
            [data[f"{kind}{i}"] for i in range(len(layer_sizes) - 1) for kind in "wb"]
        )
        return ElfClassifier(
            model,
            float(data["threshold"]),
            fallback_mean=data["fallback_mean"],
            fallback_std=data["fallback_std"],
            batch_normalize=bool(int(data["batch_normalize"])),
        )
