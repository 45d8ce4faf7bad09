"""Refactor's zero-budget screen (``repro.aig.simulate.realizable_by_reuse``).

The screen lets a cut whose MFFC is the root alone fail without ISOP,
factoring or counting.  It must be exact: wherever it rejects a cut, the
full resynthesis would have found nothing either, so every output —
``rf``, ``resyn2``, ``elf`` and the harvested ELF labels — is the same
with the screen and without it.  The circuits are arithmetic and
industrial generators whose outputs are not constant, so a wrong screen
shows up in the digests.
"""

import importlib

import pytest

from repro.aig.literal import make_lit
from repro.aig.mffc import mffc_nodes
from repro.aig.simulate import cone_truth, realizable_by_reuse
from repro.circuits.arith import divider, hypotenuse, isqrt, log2_approx
from repro.circuits.industrial import industrial_design
from repro.elf import collect_dataset, train_leave_one_out
from repro.factor.to_aig import count_tree
from repro.ml import TrainConfig
from repro.opt import RESYN2, RefactorParams, RefactorStats, run_flow

refactor_mod = importlib.import_module("repro.opt.refactor")


@pytest.fixture(scope="module")
def circuits():
    return {
        "div": divider(5),
        "sqrt": isqrt(6),
        "hyp": hypotenuse(4),
        "log2": log2_approx(8),
        "ind1": industrial_design(1, 0.03),
        "ind5": industrial_design(5, 0.03),
    }


@pytest.fixture(scope="module")
def classifier(circuits):
    datasets = {name: collect_dataset(g, name=name) for name, g in circuits.items()}
    return train_leave_one_out(datasets, "div", TrainConfig(epochs=3, seed=0))


def _outputs(circuits, classifier) -> dict:
    """Digest of every screened path's output, per circuit."""
    out = {}
    for name, g in circuits.items():
        for script in ("rf", RESYN2, "elf"):
            result, _ = run_flow(g.clone(), script, classifier=classifier)
            out[name, script] = result.structural_digest()
        out[name, "labels"] = collect_dataset(g).y.tobytes()
    return out


class _CheckedScreen:
    """The real screen, plus a full-resynthesis check of every rejection."""

    def __init__(self):
        self.rejected = 0
        self.params = RefactorParams()

    def __call__(self, g, root, leaves, tt):
        assert mffc_nodes(g, root, boundary=set(leaves)) == [root]
        assert tt == cone_truth(g, root, leaves)
        reusable = realizable_by_reuse(g, root, leaves, tt)
        if not reusable:
            self.rejected += 1
            tree, _inverted = refactor_mod._resynthesize(
                tt, len(leaves), self.params, None
            )
            leaf_lits = [make_lit(leaf) for leaf in leaves]
            assert count_tree(g, tree, leaf_lits, {root}, max_added=0) is None
        return reusable


def test_every_rejection_is_confirmed_by_full_resynthesis(circuits, monkeypatch):
    screen = _CheckedScreen()
    monkeypatch.setattr(refactor_mod, "realizable_by_reuse", screen)
    screened = 0
    for g in circuits.values():
        for script in ("rf", RESYN2):
            _result, report = run_flow(g.clone(), script)
            for step in report.steps:
                stats = step.detail
                if isinstance(stats, RefactorStats):
                    screened += stats.fail_screened
                    assert stats.commits + stats.fails == stats.cuts_formed
    assert screen.rejected > 0
    assert screened == screen.rejected


def test_some_cuts_pass_the_screen_and_commit(circuits, monkeypatch):
    state = {"passed": False, "committed_after_pass": 0}

    def spy_screen(*args):
        state["passed"] = realizable_by_reuse(*args)
        return state["passed"]

    real_commit = refactor_mod.commit_tree

    def spy_commit(*args, **kwargs):
        state["passed"] = False
        committed = real_commit(*args, **kwargs)
        if committed and state["passed"]:
            state["committed_after_pass"] += 1
        return committed

    monkeypatch.setattr(refactor_mod, "realizable_by_reuse", spy_screen)
    monkeypatch.setattr(refactor_mod, "commit_tree", spy_commit)
    for g in circuits.values():
        run_flow(g.clone(), "rf")
    assert state["committed_after_pass"] > 0


def test_outputs_identical_without_the_screen(circuits, classifier, monkeypatch):
    screened = _outputs(circuits, classifier)
    monkeypatch.setattr(refactor_mod, "realizable_by_reuse", lambda *args: True)
    assert _outputs(circuits, classifier) == screened


def test_identity_check_catches_a_wrong_screen(circuits, classifier, monkeypatch):
    screened = _outputs(circuits, classifier)
    monkeypatch.setattr(refactor_mod, "realizable_by_reuse", lambda *args: False)
    wrong = _outputs(circuits, classifier)
    for kind in ("rf", RESYN2, "elf", "labels"):
        assert any(wrong[name, kind] != screened[name, kind] for name in circuits)
