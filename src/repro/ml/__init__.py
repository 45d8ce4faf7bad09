"""Pure-NumPy ML stack: the paper's 325-parameter MLP, its training
recipe, metrics, datasets and the GCN cost comparison."""

from .dataset import CutDataset, DatasetCollector
from .gcn import CutGCN, cut_graph_tensors
from .losses import bce_with_logits, class_balanced_weights, focal_loss_with_logits
from .metrics import Confusion, confusion, threshold_for_recall
from .mixup import mixup_batch
from .mlp import PAPER_LAYERS, MLP
from .optim import Adam, SGD
from .sampler import WeightedRandomSampler
from .schedule import CosineAnnealingWarmRestarts
from .train import TrainConfig, TrainResult, train_classifier, train_classifiers

__all__ = [
    "Adam",
    "Confusion",
    "CosineAnnealingWarmRestarts",
    "CutDataset",
    "CutGCN",
    "DatasetCollector",
    "MLP",
    "PAPER_LAYERS",
    "SGD",
    "TrainConfig",
    "TrainResult",
    "WeightedRandomSampler",
    "bce_with_logits",
    "class_balanced_weights",
    "confusion",
    "cut_graph_tensors",
    "focal_loss_with_logits",
    "mixup_batch",
    "threshold_for_recall",
    "train_classifier",
    "train_classifiers",
]
