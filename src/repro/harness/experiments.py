"""Experiment drivers for every table and figure in the paper.

Each function produces the data behind one artifact of the evaluation
(SS IV); the files under ``benchmarks/`` call these, time the interesting
part, and render paper-vs-measured tables.  Heavy shared artifacts
(datasets, leave-one-out classifiers) go through the on-disk cache.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..aig.graph import AIG
from ..elf.classifier import ElfClassifier
from ..elf.pipeline import (
    ComparisonRow,
    collect_dataset,
    compare,
    evaluate_classifier,
    train_leave_one_out_family,
    train_pooled,
)
from ..elf.operator import ElfParams
from ..ml.dataset import CutDataset
from ..ml.metrics import Confusion
from ..ml.train import TrainConfig
from ..opt.refactor import refactor
from .cache import cached_classifier, cached_dataset

DEFAULT_TRAIN_CONFIG = TrainConfig(epochs=30, patience=10, seed=0)
TARGET_RECALL = 0.98


@dataclass
class StatsRow:
    """One row of Table I/II: design statistics + refactorability."""

    design: str
    n_ands: int
    level: int
    n_pis: int
    n_pos: int
    refactored: int
    refactored_pct: float


def suite_statistics(suite: dict[str, AIG]) -> list[StatsRow]:
    """Tables I/II: run baseline refactor to count refactorable nodes."""
    rows = []
    for name, g in suite.items():
        stats = refactor(g.clone())
        rows.append(
            StatsRow(
                design=name,
                n_ands=g.n_ands,
                level=g.max_level(),
                n_pis=g.n_pis,
                n_pos=g.n_pos,
                refactored=stats.commits,
                refactored_pct=100.0 * stats.commits / max(1, stats.nodes_visited),
            )
        )
    return rows


def suite_datasets(suite: dict[str, AIG], tag: str) -> dict[str, CutDataset]:
    """Collect (cached) per-circuit feature/label datasets."""
    return {
        name: cached_dataset(f"{tag}_{name}", lambda g=g, n=name: collect_dataset(g, name=n))
        for name, g in suite.items()
    }


def _training_tag(config: TrainConfig, target_recall: float) -> str:
    """Short digest of the training settings, part of every classifier
    cache key: a call with another config or recall target must train
    its own classifiers, not load the first call's."""
    settings = repr((config, float(target_recall))).encode()
    return hashlib.blake2b(settings, digest_size=6).hexdigest()


def loo_classifiers(
    datasets: dict[str, CutDataset],
    tag: str,
    config: TrainConfig | None = None,
    target_recall: float = TARGET_RECALL,
) -> dict[str, ElfClassifier]:
    """One leave-one-out classifier per test design (cached per design
    and training settings).  A cache miss trains the whole family once."""
    config = config or DEFAULT_TRAIN_CONFIG
    settings = _training_tag(config, target_recall)
    family: dict[str, ElfClassifier] = {}

    def train(name: str) -> ElfClassifier:
        if not family:
            family.update(train_leave_one_out_family(datasets, config, target_recall))
        return family[name]

    return {
        name: cached_classifier(
            f"{tag}_loo_{name}_{settings}", lambda n=name: train(n)
        )
        for name in datasets
    }


def global_classifier(
    datasets: dict[str, CutDataset],
    tag: str,
    config: TrainConfig | None = None,
    target_recall: float = TARGET_RECALL,
) -> ElfClassifier:
    """Classifier trained on *all* given datasets (used for Table VI,
    where the test circuits contribute no training data at all)."""
    config = config or DEFAULT_TRAIN_CONFIG
    return cached_classifier(
        f"{tag}_global_{_training_tag(config, target_recall)}",
        lambda: train_pooled(list(datasets.values()), config, target_recall),
    )


def comparison_rows(
    suite: dict[str, AIG],
    classifiers: dict[str, ElfClassifier],
    elf_applications: int = 1,
    params: ElfParams | None = None,
) -> list[ComparisonRow]:
    """Tables III/IV/V: baseline refactor vs ELF per design."""
    rows = []
    for name, g in suite.items():
        rows.append(
            compare(
                g,
                classifiers[name],
                params,
                elf_applications=elf_applications,
            )
        )
    return rows


@dataclass
class ServeThroughputRow:
    """One circuit's outcome in a sharded serving run.

    ``order`` is the streamed completion index; ``identical`` records
    whether the streamed BENCH text matched a blocking per-circuit
    ``run_flow`` byte for byte (``None`` when the check was skipped —
    it is only a guarantee at ``workers=1``).
    """

    design: str
    shard: int
    order: int
    runtime: float
    n_ands_before: int
    n_ands: int
    level: int
    identical: bool | None = None
    error: str | None = None
    cached: bool = False  # answered by the content-addressed store


def serve_throughput(
    suite: dict[str, AIG],
    flow: str = "rf",
    n_shards: int = 2,
    workers: int = 1,
    classifier: ElfClassifier | None = None,
    check_identity: bool = True,
    store=None,
):
    """Sharded serving of ``suite`` + optional byte-identity audit.

    Returns ``(rows, report)``: one :class:`ServeThroughputRow` per
    circuit in completion order, plus the underlying
    :class:`repro.serve.ServeReport` (shard plan, per-shard classifier
    fusion stats, wall time / circuits-per-second).  With
    ``check_identity`` every streamed result is re-derived by a blocking
    sequential ``run_flow`` and compared byte for byte — the serving
    layer's correctness contract at ``workers=1``.  ``store`` (a
    :class:`repro.serve.ResultStore`) fronts the run with the
    content-addressed cache; the audit then also certifies that cache
    *hits* are byte-identical to a fresh blocking derivation.
    """
    from ..aig.io_bench import to_text
    from ..opt.session import OptSession
    from ..serve import ServeParams, serve_suite

    params = ServeParams(flow=flow, n_shards=n_shards, workers=workers)
    report = serve_suite(suite, params, classifier=classifier, store=store)
    rows = []
    # One blocking session re-derives every circuit, with per-run caches
    # mirroring the serving layer's: nothing warm can leak between
    # circuits and mask (or cause) a mismatch.
    with OptSession(
        classifier=classifier, engine_workers=workers, per_run_cache=True
    ) as audit:
        for result in report.results:
            identical = None
            if check_identity and result.ok:
                blocking, _ = audit.run(suite[result.name].clone(), flow)
                identical = to_text(blocking) == result.bench_text
            rows.append(
                ServeThroughputRow(
                    design=result.name,
                    shard=result.shard,
                    order=result.order,
                    runtime=result.runtime,
                    n_ands_before=result.n_ands_before,
                    n_ands=result.n_ands,
                    level=result.level,
                    identical=identical,
                    error=result.error,
                    cached=result.cached,
                )
            )
    return rows, report


def model_quality(
    datasets: dict[str, CutDataset],
    classifiers: dict[str, ElfClassifier],
) -> dict[str, Confusion]:
    """Tables VII/VIII: per-design confusion counts on unseen circuits."""
    return {
        name: evaluate_classifier(datasets[name], classifiers[name])
        for name in datasets
    }


@dataclass
class RedundancyRow:
    """Figure 1's quantities for one design."""

    design: str
    fail_pct: float  # cuts that fail resynthesis (original refactor)
    elf_prune_pct: float  # nodes ELF omits
    commit_pct: float


def redundancy_rows(
    suite: dict[str, AIG],
    classifiers: dict[str, ElfClassifier],
) -> list[RedundancyRow]:
    """Figure 1: how much work the original flow wastes, how much ELF prunes."""
    from ..elf.operator import elf_refactor

    rows = []
    for name, g in suite.items():
        base = refactor(g.clone())
        elf_stats = elf_refactor(g.clone(), classifiers[name])
        visited = max(1, elf_stats.nodes_visited)
        rows.append(
            RedundancyRow(
                design=name,
                fail_pct=100.0 * base.failure_rate,
                elf_prune_pct=100.0 * elf_stats.pruned / visited,
                commit_pct=100.0 * base.commits / max(1, base.cuts_formed),
            )
        )
    return rows


def feature_matrix(
    datasets: dict[str, CutDataset],
    max_per_design: int = 400,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced-ish sample of features/labels across designs (Fig. 3)."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for ds in datasets.values():
        n = len(ds)
        if n == 0:
            continue
        take = min(n, max_per_design)
        # Keep all positives (they are rare), sample the negatives.
        positives = np.flatnonzero(ds.y > 0.5)
        negatives = np.flatnonzero(ds.y <= 0.5)
        n_neg = max(0, take - positives.size)
        chosen_neg = rng.choice(negatives, size=min(n_neg, negatives.size), replace=False)
        index = np.concatenate([positives, chosen_neg])
        xs.append(ds.x[index])
        ys.append(ds.y[index])
    return np.concatenate(xs), np.concatenate(ys)
