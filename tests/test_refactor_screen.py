"""Refactor's zero-budget screens: the twin test and the closure sweep.

Both let a cut whose MFFC is the root alone fail without ISOP, factoring
or counting: the twin test (``repro.opt.refactor.twin_screened``) before
``cone_truth``, the sweep (``repro.aig.simulate.realizable_by_reuse``)
behind it.  They must be exact: wherever one rejects a cut, the full
resynthesis would have found nothing either, so every output — ``rf``,
``resyn2``, ``elf`` and the harvested ELF labels — is the same with the
screens and without them.  The circuits (``tests/conftest.py``) are
arithmetic and industrial generators whose outputs are not constant, so
a wrong screen shows up in the digests.
"""

import importlib

from repro.aig.literal import make_lit
from repro.aig.mffc import mffc_is_root_alone, mffc_nodes
from repro.aig.simulate import cone_truth, realizable_by_reuse
from repro.elf import collect_dataset
from repro.factor.to_aig import count_tree
from repro.opt import RESYN2, RefactorParams, RefactorStats, run_flow

refactor_mod = importlib.import_module("repro.opt.refactor")


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
    """The real screens, plus a full-resynthesis check of every rejection."""

    def __init__(self):
        self.rejected = {"twin": 0, "sweep": 0}
        self.params = RefactorParams()
        self.real_twin = refactor_mod.twin_screened

    def twin(self, g, root, leaves, twins):
        alone = mffc_nodes(g, root, boundary=set(leaves)) == [root]
        assert mffc_is_root_alone(g, root, leaves) == alone
        screened = self.real_twin(g, root, leaves, twins)
        if screened:
            self._confirm("twin", g, root, leaves)
        return screened

    def sweep(self, g, root, leaves, tt):
        assert mffc_nodes(g, root, boundary=set(leaves)) == [root]
        assert tt == cone_truth(g, root, leaves)
        reusable = realizable_by_reuse(g, root, leaves, tt)
        if not reusable:
            self._confirm("sweep", g, root, leaves)
        return reusable

    def _confirm(self, kind, g, root, leaves):
        self.rejected[kind] += 1
        assert mffc_nodes(g, root, boundary=set(leaves)) == [root]
        tt = cone_truth(g, root, leaves)
        tree, _inverted = refactor_mod._resynthesize(tt, len(leaves), self.params, None)
        leaf_lits = [make_lit(leaf) for leaf in leaves]
        assert count_tree(g, tree, leaf_lits, {root}, max_added=0) is None


def test_every_rejection_is_confirmed_by_full_resynthesis(
    screen_circuits, monkeypatch
):
    screen = _CheckedScreen()
    monkeypatch.setattr(refactor_mod, "twin_screened", screen.twin)
    monkeypatch.setattr(refactor_mod, "realizable_by_reuse", screen.sweep)
    screened = 0
    for g in screen_circuits.values():
        for script in ("rf", RESYN2):
            _result, report = run_flow(g.clone(), script)
            for step in report.steps:
                stats = step.detail
                if isinstance(stats, RefactorStats):
                    screened += stats.fail_screened
                    assert stats.commits + stats.fails == stats.cuts_formed
    assert screen.rejected["twin"] > 0 and screen.rejected["sweep"] > 0
    assert screened == sum(screen.rejected.values())


def test_some_cuts_pass_the_screen_and_commit(screen_circuits, monkeypatch):
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
    for g in screen_circuits.values():
        run_flow(g.clone(), "rf")
    assert state["committed_after_pass"] > 0


def test_outputs_identical_without_the_screen(
    screen_circuits, screen_classifier, monkeypatch
):
    screened = _outputs(screen_circuits, screen_classifier)
    monkeypatch.setattr(refactor_mod, "twin_screened", lambda *args: False)
    monkeypatch.setattr(refactor_mod, "realizable_by_reuse", lambda *args: True)
    assert _outputs(screen_circuits, screen_classifier) == screened


def test_identity_check_catches_a_wrong_screen(
    screen_circuits, screen_classifier, monkeypatch
):
    screened = _outputs(screen_circuits, screen_classifier)
    monkeypatch.setattr(refactor_mod, "realizable_by_reuse", lambda *args: False)
    wrong = _outputs(screen_circuits, screen_classifier)
    for kind in ("rf", RESYN2, "elf", "labels"):
        assert any(wrong[name, kind] != screened[name, kind] for name in screen_circuits)
