"""Tests for the ELF classifier wrapper, operator and pipeline."""

import numpy as np
import pytest

from repro.aig import check
from repro.circuits.arith import adder, multiplier
from repro.elf import (
    ElfClassifier,
    ElfParams,
    collect_dataset,
    compare,
    elf_refactor,
    evaluate_classifier,
    train_leave_one_out,
)
from repro.errors import TrainingError
from repro.ml import MLP, CutDataset, TrainConfig
from repro.verify import equivalent

from .util import random_aig


def constant_classifier(keep_everything=True):
    """A classifier whose output is effectively constant."""
    model = MLP((6, 2, 1), seed=0)
    for w in model.weights:
        w[:] = 0.0
    model.biases[-1][:] = 10.0 if keep_everything else -10.0
    return ElfClassifier(model, threshold=0.5)


def trained_classifier(seed=0):
    graphs = [random_aig(7, 150, 4, seed=s, name=f"g{s}") for s in (1, 2, 3)]
    datasets = {g.name: collect_dataset(g) for g in graphs}
    return train_leave_one_out(
        datasets, "g1", TrainConfig(epochs=5, seed=seed), target_recall=0.95
    )


class TestClassifier:
    def test_parameter_count_paper(self):
        clf = trained_classifier()
        assert clf.n_parameters == 325

    def test_keep_mask_shapes(self):
        clf = constant_classifier(True)
        x = np.random.default_rng(0).uniform(0, 10, size=(7, 6))
        mask = clf.keep_mask(x)
        assert mask.shape == (7,)
        assert mask.all()
        assert not constant_classifier(False).keep_mask(x).any()
        assert clf.keep_mask(np.zeros((0, 6))).shape == (0,)

    def test_input_dimension_enforced(self):
        with pytest.raises(TrainingError):
            ElfClassifier(MLP((5, 2, 1)))

    def test_save_load_roundtrip(self, tmp_path):
        clf = trained_classifier()
        path = tmp_path / "clf.npz"
        clf.save(path)
        loaded = ElfClassifier.load(path)
        x = np.random.default_rng(1).uniform(0, 20, size=(9, 6))
        assert np.allclose(clf.predict_proba(x), loaded.predict_proba(x))
        assert loaded.threshold == clf.threshold


class TestOperator:
    def test_keep_all_equals_baseline_quality(self):
        g = random_aig(7, 150, 4, seed=10)
        reference = g.clone()
        baseline = g.clone()
        from repro.opt import refactor

        base_stats = refactor(baseline)
        elf_stats = elf_refactor(g, constant_classifier(True))
        check(g)
        assert equivalent(reference, g)
        assert g.n_ands == baseline.n_ands
        assert elf_stats.pruned == 0
        assert elf_stats.commits == base_stats.commits

    def test_keep_all_collects_what_refactor_collects(self):
        # Every elfbench circuit: with nothing pruned, ELF must record each
        # survivor with the cut formed before resynthesis, as refactor()
        # does, not with the cut of a node a commit has just deleted.
        from elfbench import workloads

        from repro.opt import refactor

        suite = {**workloads.flow_suite("arith"), **workloads.flow_suite("industrial")}
        assert len(suite) == 16
        committed = 0
        for name, g in suite.items():
            baseline, pruned = g.clone(), g.clone()
            want, got = [], []
            refactor(baseline, collector=lambda f, c: want.append((f.as_tuple(), c)))
            elf_refactor(
                pruned,
                constant_classifier(True),
                collector=lambda f, c: got.append((f.as_tuple(), c)),
            )
            assert pruned.structural_digest() == baseline.structural_digest(), name
            assert got == want, name
            committed += sum(c for _, c in got)
        assert committed > 0

    def test_prune_all_does_nothing_fast(self):
        g = random_aig(7, 150, 4, seed=11)
        before = g.n_ands
        stats = elf_refactor(g, constant_classifier(False))
        assert g.n_ands == before
        assert stats.commits == 0
        assert stats.pruned == stats.nodes_visited

    def test_function_preserved_with_trained_classifier(self):
        clf = trained_classifier()
        for seed in (20, 21):
            g = random_aig(7, 150, 4, seed=seed)
            reference = g.clone()
            before = g.n_ands
            elf_refactor(g, clf)
            check(g)
            assert equivalent(reference, g)
            assert g.n_ands <= before

    def test_streaming_mode_works(self):
        # Batched mode classifies on the *initial* graph's features and can
        # go stale after commits (paper SS III-B: costs runtime, not area);
        # streaming sees fresh features, so decisions may differ slightly.
        clf = trained_classifier()
        g1 = random_aig(7, 120, 4, seed=30)
        g2 = g1.clone()
        reference = g1.clone()
        s_batched = elf_refactor(g1, clf, ElfParams(batched=True))
        s_stream = elf_refactor(g2, clf, ElfParams(batched=False))
        check(g1)
        check(g2)
        assert equivalent(reference, g1)
        assert equivalent(reference, g2)
        assert s_batched.pruned > 0
        assert s_stream.pruned > 0
        assert s_stream.time_inference > 0

    def test_collector_sees_survivors_only(self):
        clf = trained_classifier()
        g = random_aig(7, 120, 4, seed=31)
        records = []
        stats = elf_refactor(g, clf, collector=lambda f, c: records.append((f, c)))
        assert len(records) == stats.nodes_visited - stats.pruned


class TestPipeline:
    def test_collect_dataset_leaves_graph_untouched(self):
        g = random_aig(7, 120, 4, seed=40)
        before = g.n_ands
        ds = collect_dataset(g)
        assert g.n_ands == before
        assert len(ds) > 0
        assert ds.name == g.name

    def test_leave_one_out_excludes_test(self):
        datasets = {
            "a": CutDataset(np.random.rand(50, 6), np.random.rand(50) < 0.2, "a"),
            "b": CutDataset(np.random.rand(50, 6), np.random.rand(50) < 0.2, "b"),
        }
        clf = train_leave_one_out(datasets, "a", TrainConfig(epochs=2))
        assert clf.n_parameters == 325
        with pytest.raises(TrainingError):
            train_leave_one_out(datasets, "zzz")
        with pytest.raises(TrainingError):
            train_leave_one_out({"only": datasets["a"]}, "only")

    def test_evaluate_classifier_counts(self):
        ds = CutDataset(np.random.rand(40, 6) * 5, np.zeros(40))
        c = evaluate_classifier(ds, constant_classifier(False))
        assert c.tn == 40 and c.tp == 0
        assert c.accuracy == 1.0

    def test_compare_row(self):
        clf = trained_classifier()
        g = adder(8)
        g.name = "adder8"
        row = compare(g, clf)
        assert row.design == "adder8"
        assert row.baseline_runtime > 0 and row.elf_runtime > 0
        assert row.speedup > 0
        assert row.elf_ands >= row.baseline_ands  # pruning can only miss gains
        assert abs(row.and_diff_pct) < 50
        assert 0 <= row.prune_fraction <= 1

    def test_compare_elf_twice(self):
        clf = trained_classifier()
        g = multiplier(5)
        row1 = compare(g, clf, elf_applications=1)
        row2 = compare(g, clf, elf_applications=2)
        assert row2.elf_ands <= row1.elf_ands  # second pass can only help
        assert row2.elf_runtime >= row1.elf_runtime * 0.5
