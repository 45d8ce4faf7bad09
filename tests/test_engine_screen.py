"""The wave engine's refactor screens: skip at evaluate time, re-check at commit.

``RefactorWaveOp.evaluate`` drops a survivor whose one-node MFFC fails
the twin test or the closure sweep on the graph as it is before the
wave's commits: it gets no cache lookup and no pool task.  ``commit``
re-runs both tests on the graph the commit sees, and resynthesizes
in-process when a screen no longer holds.  So every commit decision is
the one the unscreened engine makes, and every output is the same.

Names the tests patch: ``twin_screened`` / ``realizable_by_reuse`` in
``repro.engine.operators`` are the evaluate-time screens; the same
names in ``repro.opt.refactor`` are the commit-time ones
(``screen_and_commit`` / ``commit_tree``).  The circuits
(``tests/conftest.py``) are arithmetic and industrial generators whose
outputs are not constant, so a wrong decision shows in the digests.
"""

import importlib

import pytest

from repro import obs
from repro.aig.literal import make_lit
from repro.aig.mffc import mffc_is_root_alone, mffc_nodes
from repro.aig.simulate import cone_truth
from repro.engine import EngineStats, ResynthCache, ResynthExecutor, run_wave_pass
from repro.engine.operators import RefactorWaveOp
from repro.factor.to_aig import count_tree
from repro.opt import OptSession, RefactorParams, run_flow

refactor_mod = importlib.import_module("repro.opt.refactor")
operators_mod = importlib.import_module("repro.engine.operators")

PARAMS = {"pf": RefactorParams(), "pf-l": RefactorParams(preserve_levels=True)}
SCRIPTS = ("pf -w 2", "pelf -w 2", "pf -w 2 -l")


def _confirm(g, root, leaves):
    """Full resynthesis finds no zero-cost replacement for this cut."""
    assert mffc_nodes(g, root, boundary=set(leaves)) == [root]
    tt = cone_truth(g, root, leaves)
    tree, _inverted = refactor_mod._resynthesize(tt, len(leaves), RefactorParams(), None)
    leaf_lits = [make_lit(leaf) for leaf in leaves]
    assert count_tree(g, tree, leaf_lits, {root}, max_added=0) is None


def _checked(op_class):
    """``op_class`` with every commit-time rejection confirmed."""

    class Checked(op_class):
        def commit(self, g, candidate, result, stats, dirty):
            rejected = stats.fail_screened
            super().commit(g, candidate, result, stats, dirty)
            if stats.fail_screened > rejected:  # a rejection leaves g as it was
                _confirm(g, candidate.node, list(candidate.leaves))

    return Checked


class _TrustsEvaluate(RefactorWaveOp):
    """Mutant: an evaluate-time skip is final, with no commit re-check."""

    def commit(self, g, candidate, result, stats, dirty):
        entry, _tt = result
        if entry is not None:
            super().commit(g, candidate, result, stats, dirty)
            return
        stats.nodes_visited += 1
        stats.cuts_formed += 1
        stats.fail_screened += 1


CHECKED = _checked(RefactorWaveOp)


def _run_ops(circuits, classifier=None, op_class=CHECKED):
    """Drive the operator in-process (no pool) over every circuit and mode.

    Returns ``(outputs, totals)``: per ``(circuit, mode)`` the output
    digest, commit count and gain, and the summed engine counters.
    """
    outputs = {}
    totals = EngineStats()
    for name, g in circuits.items():
        for mode, params in PARAMS.items():
            for clf in [None] if classifier is None else [None, classifier]:
                out = g.clone()
                op = op_class(
                    params,
                    ResynthCache().npn_view(),
                    ResynthExecutor(1, params),
                    want_features=clf is not None,
                )
                stats = EngineStats(workers=2)
                run_wave_pass(out, op, stats, classifier=clf)
                assert stats.commits + stats.fails == stats.cuts_formed
                key = (name, mode, "elf" if clf is not None else "rf")
                outputs[key] = (out.structural_digest(), stats.commits, stats.gain_total)
                for field in ("commits", "screened", "screen_fallbacks", "fail_screened"):
                    setattr(totals, field, getattr(totals, field) + getattr(stats, field))
    return outputs, totals


def _session_digests(circuits, classifier):
    out = {}
    with OptSession(classifier=classifier, per_run_cache=True) as session:
        for name, g in circuits.items():
            for script in SCRIPTS:
                result, _report = session.run(g.clone(), script)
                out[name, script] = result.structural_digest()
    return out


def _no_screens(monkeypatch):
    for module in (refactor_mod, operators_mod):
        monkeypatch.setattr(module, "twin_screened", lambda *args: False)
        monkeypatch.setattr(module, "realizable_by_reuse", lambda *args: True)


def _eager_evaluate_screen(monkeypatch):
    """Skip every one-node-MFFC survivor at evaluate time, rightly or not."""
    monkeypatch.setattr(
        operators_mod,
        "twin_screened",
        lambda g, root, leaves, twins: mffc_is_root_alone(g, root, leaves),
    )
    monkeypatch.setattr(operators_mod, "realizable_by_reuse", lambda *args: False)


def test_outputs_identical_without_the_screen(
    screen_circuits, screen_classifier, monkeypatch
):
    screened, totals = _run_ops(screen_circuits, screen_classifier)
    sessions = _session_digests(screen_circuits, screen_classifier)
    assert totals.screened > 0 and totals.commits > 0
    _no_screens(monkeypatch)
    unscreened, plain = _run_ops(screen_circuits, screen_classifier)
    assert plain.screened == plain.fail_screened == 0
    assert unscreened == screened
    assert _session_digests(screen_circuits, screen_classifier) == sessions


def test_every_commit_time_rejection_is_confirmed(screen_circuits):
    """``CHECKED`` confirms each rejection by full resynthesis."""
    _outputs, totals = _run_ops(screen_circuits)
    assert totals.fail_screened > 0


def test_fallback_when_commit_does_not_screen(screen_circuits, monkeypatch):
    """Screen at evaluate, not at commit: every skipped survivor that
    reaches the gain check is resynthesized at commit, and decided there."""
    reference, _totals = _run_ops(screen_circuits)
    monkeypatch.setattr(refactor_mod, "twin_screened", lambda *args: False)
    monkeypatch.setattr(refactor_mod, "realizable_by_reuse", lambda *args: True)
    outputs, totals = _run_ops(screen_circuits, op_class=RefactorWaveOp)
    assert outputs == reference
    assert totals.screen_fallbacks > 0 and totals.fail_screened == 0


def test_commit_recheck_repairs_a_wrong_evaluate_skip(screen_circuits, monkeypatch):
    reference, _totals = _run_ops(screen_circuits)
    _eager_evaluate_screen(monkeypatch)
    outputs, totals = _run_ops(screen_circuits)
    assert outputs == reference
    assert totals.screen_fallbacks > 0


def test_trusting_the_evaluate_skip_is_caught(screen_circuits, monkeypatch):
    """Without the commit re-check the wrong skips stand: outputs change,
    and the confirmation of commit-time rejections fails."""
    reference, _totals = _run_ops(screen_circuits)
    _eager_evaluate_screen(monkeypatch)
    outputs, _totals = _run_ops(screen_circuits, op_class=_TrustsEvaluate)
    assert outputs != reference
    with pytest.raises(AssertionError):
        _run_ops(screen_circuits, op_class=_checked(_TrustsEvaluate))


def test_skips_reach_the_pass_span_and_the_registry(screen_circuits):
    obs.configure(enabled=True)
    obs.reset()
    try:
        stats = {}
        for script in ("pf -w 2", "prw -w 2"):
            _out, report = run_flow(screen_circuits["div"].clone(), script)
            stats[report.steps[0].detail.operator] = report.steps[0].detail
        spans = {
            s.attrs["operator"]: s.attrs
            for s in obs.tracer().spans()
            if s.name == "engine.pass"
        }
        registry = obs.metrics()
        for operator, detail in stats.items():
            assert detail.screened > 0
            for field in ("screened", "bounded", "screen_fallbacks"):
                assert spans[operator][field] == getattr(detail, field)
            screened = registry.value("engine_screened_total", operator=operator)
            assert screened == detail.screened + detail.bounded
            fallbacks = registry.value("engine_screen_fallbacks_total", operator=operator)
            assert fallbacks == detail.screen_fallbacks
        assert stats["rewrite"].bounded > 0
    finally:
        obs.configure(enabled=False)
        obs.reset()
