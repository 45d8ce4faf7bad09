"""Leave-one-out training and ABC-vs-ELF comparison pipelines.

This is the experiment machinery behind Tables III-VIII: harvest
datasets by running the baseline operator, train on every circuit except
the one under test (the paper's generalization protocol), deploy the
fused classifier, and measure runtime/quality of baseline refactor vs
ELF on fresh clones.

:func:`train_leave_one_out_family` trains all K held-out classifiers of
a suite in one :func:`repro.ml.train.train_classifiers` call, which
steps the K models in lockstep; each comes out bit for bit as a model
trained alone on its pool would.  :func:`train_leave_one_out`, the
one-circuit entry point, serves from a one-slot memo of the last family.
The memo's key is a digest of every dataset's name and bytes,
``repr(config)`` and ``target_recall``, so it never serves a classifier
trained on other data or settings: changing any of them retrains the
family.  Each call returns its own copy, so a caller may change what it
gets without touching what the next call gets.
"""

from __future__ import annotations

import copy
import hashlib
import time
from dataclasses import dataclass

import numpy as np

from ..aig.graph import AIG
from ..errors import TrainingError
from ..ml.dataset import CutDataset, DatasetCollector
from ..ml.metrics import Confusion, confusion
from ..ml.train import TrainConfig, TrainResult, train_classifier, train_classifiers
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


# (key, family) of the last leave-one-out family trained.
_FAMILY_MEMO: tuple[bytes, dict[str, ElfClassifier]] | None = None


def train_leave_one_out(
    datasets: dict[str, CutDataset],
    test_name: str,
    config: TrainConfig | None = None,
    target_recall: float = 0.95,
) -> ElfClassifier:
    """Train on every dataset except ``test_name`` (paper SS IV-A).

    The decision threshold is calibrated on the *training* data only, so
    the test circuit stays fully unseen.  The whole family is trained on
    the first call and the other circuits' calls are served from the
    memo (module docstring).
    """
    global _FAMILY_MEMO
    if test_name not in datasets:
        raise TrainingError(f"unknown test design {test_name!r}")
    config = config or TrainConfig()
    key = _family_key(datasets, config, target_recall)
    if _FAMILY_MEMO is None or _FAMILY_MEMO[0] != key:
        _FAMILY_MEMO = (key, train_leave_one_out_family(datasets, config, target_recall))
    return copy.deepcopy(_FAMILY_MEMO[1][test_name])


def _family_key(
    datasets: dict[str, CutDataset], config: TrainConfig, target_recall: float
) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for name, dataset in datasets.items():
        h.update(repr((name, dataset.x.shape)).encode())
        h.update(np.ascontiguousarray(dataset.x).data)
        h.update(np.ascontiguousarray(dataset.y).data)
    h.update(repr((config, float(target_recall))).encode())
    return h.digest()


def train_leave_one_out_family(
    datasets: dict[str, CutDataset],
    config: TrainConfig | None = None,
    target_recall: float = 0.95,
) -> dict[str, ElfClassifier]:
    """Every leave-one-out classifier of ``datasets`` in one training
    call: classifier ``name`` trains on, and is calibrated on, every
    dataset except ``name``, exactly as :func:`train_pooled` would.
    The family trains as a whole: if one circuit's pool is too small to
    train on, no classifier is returned.

    Each dataset is standardized once, not once per pool it joins.
    """
    if len(datasets) < 2:
        raise TrainingError("leave-one-out needs at least two datasets")
    nonempty = {name: d for name, d in datasets.items() if len(d) > 0}
    standardized = {name: d.standardized()[0] for name, d in nonempty.items()}
    pools = {
        held_out: [name for name in nonempty if name != held_out] for held_out in datasets
    }
    results = train_classifiers(
        [
            CutDataset.concatenate([standardized[name] for name in pool], name="pooled")
            for pool in pools.values()
        ],
        config,
    )
    return {
        held_out: _calibrated(result, [nonempty[name] for name in pool], target_recall)
        for (held_out, pool), result in zip(pools.items(), results)
    }


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
    return _calibrated(train_classifier(merged, config), nonempty, target_recall)


def _calibrated(
    result: TrainResult, training: list[CutDataset], target_recall: float
) -> ElfClassifier:
    return ElfClassifier.from_training(
        result,
        target_recall,
        calibration=[d.x for d in training],
        calibration_labels=[d.y for d in training],
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
