"""Leave-one-out training and ABC-vs-ELF comparison pipelines.

This is the experiment machinery behind Tables III-VIII: harvest
datasets by running the baseline operator, train on every circuit except
the one under test (the paper's generalization protocol), deploy the
fused classifier, and measure runtime/quality of baseline refactor vs
ELF on fresh clones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..aig.graph import AIG
from ..errors import TrainingError
from ..ml.dataset import CutDataset, DatasetCollector
from ..ml.metrics import Confusion, confusion
from ..ml.train import TrainConfig, train_classifier
from ..opt.refactor import RefactorParams, RefactorStats, refactor
from .classifier import ElfClassifier
from .operator import ElfParams, elf_refactor


def collect_dataset(
    g: AIG,
    params: RefactorParams | None = None,
    name: str | None = None,
) -> CutDataset:
    """Run baseline refactor on a clone of ``g``; harvest features/labels."""
    collector = DatasetCollector()
    refactor(g.clone(), params, collector=collector)
    return collector.dataset(name if name is not None else g.name)


def train_leave_one_out(
    datasets: dict[str, CutDataset],
    test_name: str,
    config: TrainConfig | None = None,
    target_recall: float = 0.95,
) -> ElfClassifier:
    """Train on every dataset except ``test_name`` (paper SS IV-A).

    The decision threshold is calibrated on the *training* data only, so
    the test circuit stays fully unseen.
    """
    if test_name not in datasets:
        raise TrainingError(f"unknown test design {test_name!r}")
    training = [d for name, d in datasets.items() if name != test_name]
    if not training:
        raise TrainingError("leave-one-out needs at least two datasets")
    return train_pooled(training, config, target_recall)


def train_pooled(
    training: list[CutDataset],
    config: TrainConfig | None = None,
    target_recall: float = 0.95,
) -> ElfClassifier:
    """Train one classifier on the union of ``training`` and calibrate
    its threshold on the same circuits' raw features.

    The paper standardizes each dataset *individually* before training
    (its deployed MVN node normalizes per batch = per circuit); mirror
    that here so the network always sees per-circuit z-scores.
    """
    nonempty = [d for d in training if len(d) > 0]
    standardized = [d.standardized()[0] for d in nonempty]
    merged = CutDataset.concatenate(standardized, name="pooled")
    result = train_classifier(merged, config)
    return ElfClassifier.from_training(
        result,
        target_recall,
        calibration=[d.x for d in nonempty],
        calibration_labels=[d.y for d in nonempty],
    )


def evaluate_classifier(dataset: CutDataset, classifier: ElfClassifier) -> Confusion:
    """Confusion counts of the classifier on a (test) dataset."""
    predictions = classifier.keep_mask(dataset.x)
    return confusion(dataset.y > 0.5, predictions)


@dataclass
class ComparisonRow:
    """One row of the paper's Table III/IV/V layout."""

    design: str
    nodes_before: int
    baseline_runtime: float
    baseline_ands: int
    baseline_level: int
    elf_runtime: float
    elf_ands: int
    elf_level: int
    baseline_stats: RefactorStats
    elf_stats: RefactorStats

    @property
    def speedup(self) -> float:
        return self.baseline_runtime / self.elf_runtime if self.elf_runtime > 0 else float("inf")

    @property
    def and_diff_pct(self) -> float:
        if self.baseline_ands == 0:
            return 0.0
        return 100.0 * (self.elf_ands - self.baseline_ands) / self.baseline_ands

    @property
    def level_diff_pct(self) -> float:
        if self.baseline_level == 0:
            return 0.0
        return 100.0 * (self.elf_level - self.baseline_level) / self.baseline_level

    @property
    def prune_fraction(self) -> float:
        visited = self.elf_stats.nodes_visited
        return self.elf_stats.pruned / visited if visited else 0.0


def compare(
    g: AIG,
    classifier: ElfClassifier,
    params: ElfParams | None = None,
    elf_applications: int = 1,
) -> ComparisonRow:
    """Baseline refactor vs ELF (applied ``elf_applications`` times).

    Both run on fresh clones of ``g``; the baseline always runs once
    (Table IV compares one baseline pass against ELF x 2).
    """
    params = params or ElfParams()
    baseline_g = g.clone()
    t0 = time.perf_counter()
    baseline_stats = refactor(baseline_g, params.refactor)
    baseline_runtime = time.perf_counter() - t0

    elf_g = g.clone()
    elf_stats_total = RefactorStats()
    t0 = time.perf_counter()
    for _ in range(elf_applications):
        pass_stats = elf_refactor(elf_g, classifier, params)
        _accumulate(elf_stats_total, pass_stats)
    elf_runtime = time.perf_counter() - t0

    return ComparisonRow(
        design=g.name,
        nodes_before=g.n_ands,
        baseline_runtime=baseline_runtime,
        baseline_ands=baseline_g.n_ands,
        baseline_level=baseline_g.max_level(),
        elf_runtime=elf_runtime,
        elf_ands=elf_g.n_ands,
        elf_level=elf_g.max_level(),
        baseline_stats=baseline_stats,
        elf_stats=elf_stats_total,
    )


def _accumulate(total: RefactorStats, part: RefactorStats) -> None:
    total.nodes_visited += part.nodes_visited
    total.cuts_formed += part.cuts_formed
    total.commits += part.commits
    total.gain_total += part.gain_total
    total.fail_gain += part.fail_gain
    total.fail_screened += part.fail_screened
    total.fail_level += part.fail_level
    total.fail_poison += part.fail_poison
    total.fail_trivial += part.fail_trivial
    total.pruned += part.pruned
    total.time_total += part.time_total
    total.time_cut += part.time_cut
    total.time_truth += part.time_truth
    total.time_resynth += part.time_resynth
    total.time_commit += part.time_commit
    total.time_inference += part.time_inference
