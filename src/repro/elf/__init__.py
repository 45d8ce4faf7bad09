"""ELF: the paper's contribution — classifier-pruned refactoring."""

from .classifier import ElfClassifier
from .operator import ElfParams, elf_refactor
from .pipeline import (
    ComparisonRow,
    collect_dataset,
    compare,
    evaluate_classifier,
    train_leave_one_out,
    train_pooled,
)

__all__ = [
    "ComparisonRow",
    "ElfClassifier",
    "ElfParams",
    "collect_dataset",
    "compare",
    "elf_refactor",
    "evaluate_classifier",
    "train_leave_one_out",
    "train_pooled",
]
