"""The per-pass twin table and rewrite's branch-and-bound.

``repro.aig.simulate.TwinScreen`` tells whether any node other than a
root may compute the root's function; ``repro.opt.rewrite.commit_scored``
uses it to bound every cut's key and skips cuts that cannot win, and
refactor uses it to fail one-node-MFFC cuts before their truth table.
Both must be exact.  These tests confirm each rewrite skip against a
full-budget score, pin every pruned output to the unpruned one (twin
test forced off, a different signature seed), show that a wrong twin
answer does change the outputs, and check the table's on-demand
signatures against a fresh table after passes that commit.  The
circuits (``tests/conftest.py``) have non-constant outputs.
"""

import importlib

import numpy as np

from repro.aig.graph import AIG
from repro.aig.literal import make_lit
from repro.aig.mffc import mffc_is_root_alone, mffc_nodes
from repro.aig.simulate import TwinScreen, cone_truth, node_values
from repro.elf import collect_dataset
from repro.errors import TruthTableError
from repro.factor.to_aig import count_tree
from repro.opt import RESYN2, RewriteStats, run_flow
from repro.opt.rewrite import N_LIBRARY_VARS, evaluate_cut

simulate_mod = importlib.import_module("repro.aig.simulate")
rewrite_mod = importlib.import_module("repro.opt.rewrite")
refactor_mod = importlib.import_module("repro.opt.refactor")

IDENTITY_SCRIPTS = ("rw", "rwz", RESYN2, "rf", "elf", "b; rw -l; rf -l", "prw -w 2")
SENSITIVE_SCRIPTS = ("rw", "rf", "b; rw -l; rf -l")


def _digests(circuits, classifier, scripts) -> dict:
    out = {}
    for name, g in circuits.items():
        for script in scripts:
            result, _ = run_flow(g.clone(), script, classifier=classifier)
            out[name, script] = result.structural_digest()
    return out


def _outputs(circuits, classifier) -> dict:
    out = _digests(circuits, classifier, IDENTITY_SCRIPTS)
    for name, g in circuits.items():
        out[name, "labels"] = collect_dataset(g).y.tobytes()
    return out


class TestTwinScreen:
    def test_twins_are_functional_duplicates_in_either_phase(self):
        g = AIG()
        a, b, c = (g.add_pi() for _ in range(3))
        x = g.add_and(a, b)
        y = g.add_and(x, c)
        z = g.add_and(x, c ^ 1)
        nand = g.add_and(y ^ 1, z ^ 1)  # ~(a & b & c) & ~(a & b & ~c) == ~x
        g.add_po(nand)
        twins = TwinScreen(g)
        assert twins.has_twin(x >> 1) and twins.has_twin(nand >> 1)
        assert not twins.has_twin(y >> 1)
        assert not twins.has_twin(z >> 1)
        dup = g.add_and(a, g.add_and(b, c))  # a & b & c, like y
        assert twins.has_twin(y >> 1)  # the new nodes are signed on demand
        assert twins.signature(dup >> 1) == twins.signature(y >> 1)

    def test_constant_and_inputs_are_counted(self):
        g = AIG()
        a, b = g.add_pi(), g.add_pi()
        x = g.add_and(a, b)
        g.add_po(x)
        twins = TwinScreen(g)
        assert twins.signature(0) == 0
        assert twins.signature(a >> 1) != twins.signature(b >> 1)
        assert not twins.has_twin(a >> 1)

    def test_root_alone_matches_the_mffc_sweep(self, screen_circuits):
        checked = 0
        for g in screen_circuits.values():
            for node in g.and_ids():
                f0, f1 = g.fanin_lits(node)
                for boundary in (set(), {f0 >> 1}, {f0 >> 1, f1 >> 1}):
                    alone = mffc_nodes(g, node, boundary=boundary) == [node]
                    assert mffc_is_root_alone(g, node, boundary) == alone
                    checked += alone
        assert checked > 0


class _CheckedBound:
    """The real ``commit_scored``, with every skip scored in full.

    Before each call, every cut is scored the unpruned way: truth table,
    library lookup, full-budget ``count_tree`` and the level check.  A
    cut the bound skips, or whose tightened ``count_tree`` returns None,
    must then have no key or one that cannot strictly beat the best key
    of the cuts before it (an earlier cut keeps its place on a tie), and
    the cut that gets built must be the first one with the best key.

    A node skipped outright must have a one-node MFFC, so every cut's
    budget is zero, and fresh random simulation must tell it apart from
    every other live node in both phases, so no cut has a cost-0
    replacement.
    """

    def __init__(self, monkeypatch):
        self.real = rewrite_mod.commit_scored
        self.skipped_with_key = 0
        self.tightened = 0
        self.node_skips = 0
        self._values = (None, None)
        real_node_screened = rewrite_mod.node_screened
        self.calls: list = []
        self.built: list = []
        real_count = rewrite_mod.count_tree
        real_build = rewrite_mod.build_tree

        def spy_count(g, tree, leaf_lits, forbidden, max_added):
            result = real_count(g, tree, leaf_lits, forbidden, max_added)
            self.calls.append((max_added, result))
            return result

        def spy_build(g, tree, leaf_lits, avoid_root):
            self.built.append((tree, leaf_lits))
            return real_build(g, tree, leaf_lits, avoid_root)

        def checked_node_screened(g, node, params, twins):
            skip = real_node_screened(g, node, params, twins)
            if skip:
                self._confirm_node_skip(g, node, params)
            return skip

        monkeypatch.setattr(rewrite_mod, "count_tree", spy_count)
        monkeypatch.setattr(rewrite_mod, "build_tree", spy_build)
        monkeypatch.setattr(rewrite_mod, "node_screened", checked_node_screened)

    def _confirm_node_skip(self, g, node, params):
        assert not params.zero_cost
        assert mffc_nodes(g, node) == [node]
        version = (id(g), g.edit_stamp, g.n_nodes)
        if self._values[0] != version:
            rng = np.random.default_rng(1)
            patterns = rng.integers(0, 2**64, size=(g.n_pis, 8), dtype=np.uint64)
            self._values = (version, node_values(g, patterns, 8))
        values = self._values[1]
        root = values[node]
        same = (values == root).all(axis=1) | (values == ~root).all(axis=1)
        twins = [n for n in np.flatnonzero(same) if n != node and not g.is_dead(n)]
        assert twins == [], (node, twins)
        self.node_skips += 1

    def __call__(self, g, node, cuts, resolve, library, params, required, *args):
        full = [
            _full_score(g, node, leaves, library, params, required) for leaves in cuts
        ]
        resolved: dict[int, list] = {}
        self.built = []

        def spy_resolve(i):
            self.calls = resolved[i] = []
            return resolve(i)

        gain = self.real(g, node, cuts, spy_resolve, library, params, required, *args)
        best = best_form = None
        for i, (key, max_added, form) in enumerate(full):
            beaten = key is None or (best is not None and key <= best)
            if i not in resolved:
                assert beaten, (node, i, key, best)
                self.skipped_with_key += key is not None
            for budget, result in resolved.get(i, ()):
                if result is None and budget < max_added:
                    assert beaten, (node, i, key, best, budget)
                    self.tightened += 1
            if key is not None and (best is None or key > best):
                best, best_form = key, form
        assert self.built == ([] if best is None else [best_form]), node
        return gain


def _full_score(g, node, leaves, library, params, required):
    """``(key, max_added, (tree, leaf literals))`` of one cut, unpruned."""
    mffc = mffc_nodes(g, node, boundary=set(leaves))
    saved = len(mffc)
    max_added = saved if params.zero_cost else saved - 1
    try:
        tt = cone_truth(g, node, leaves)
    except TruthTableError:
        return None, max_added, None
    entry, transform = evaluate_cut(tt, len(leaves), library)
    padded = list(leaves) + [0] * (N_LIBRARY_VARS - len(leaves))
    arranged, _flip = library.leaf_literals([make_lit(l) for l in padded], transform)
    result = count_tree(g, entry.tree, arranged, set(mffc), max_added)
    if result is None or (
        required is not None
        and result.cost > 0
        and result.root_level > required.required(node)
    ):
        return None, max_added, None
    return (saved - result.cost, -result.cost), max_added, (entry.tree, arranged)


def test_every_rewrite_skip_is_confirmed_by_a_full_score(screen_circuits, monkeypatch):
    checked = _CheckedBound(monkeypatch)
    monkeypatch.setattr(rewrite_mod, "commit_scored", checked)
    totals = RewriteStats()
    for g in screen_circuits.values():
        for script in ("rw", "rwz", "rw -l", "rwz -l"):
            _result, report = run_flow(g.clone(), script)
            stats = report.steps[0].detail
            totals.screened += stats.screened
            totals.bounded += stats.bounded
    assert totals.screened > 0 and totals.bounded > 0
    assert checked.skipped_with_key > 0  # the bound drops cuts that had a result
    assert checked.tightened > 0
    assert checked.node_skips > 0


def test_outputs_identical_with_twins_forced_or_reseeded(
    screen_circuits, screen_classifier, monkeypatch
):
    pruned = _outputs(screen_circuits, screen_classifier)
    with monkeypatch.context() as patch:
        patch.setattr(TwinScreen, "has_twin", lambda self, node: True)
        assert _outputs(screen_circuits, screen_classifier) == pruned
    with monkeypatch.context() as patch:
        patch.setattr(simulate_mod, "TWIN_SEED", simulate_mod.TWIN_SEED + 1)
        assert _outputs(screen_circuits, screen_classifier) == pruned


def test_identity_check_catches_a_wrong_twin_answer(screen_circuits, monkeypatch):
    pruned = _digests(screen_circuits, None, SENSITIVE_SCRIPTS)
    monkeypatch.setattr(TwinScreen, "has_twin", lambda self, node: False)
    wrong = _digests(screen_circuits, None, SENSITIVE_SCRIPTS)
    for key, digest in pruned.items():
        assert wrong[key] != digest, key


def test_maintained_signatures_match_a_fresh_table(screen_circuits, monkeypatch):
    tables: list[TwinScreen] = []

    class Recorded(TwinScreen):
        def __init__(self, g):
            super().__init__(g)
            tables.append(self)

    monkeypatch.setattr(rewrite_mod, "TwinScreen", Recorded)
    monkeypatch.setattr(refactor_mod, "TwinScreen", Recorded)
    commits = 0
    for g in screen_circuits.values():
        for script in ("rw", "rf", RESYN2):
            _result, report = run_flow(g.clone(), script)
            commits += sum(getattr(step.detail, "commits", 0) for step in report.steps)
    assert commits > 0 and len(tables) > 0
    for table in tables:
        g = table._g
        fresh = TwinScreen(g)
        for node in range(g.n_nodes):
            if not g.is_dead(node):
                assert table.signature(node) == fresh.signature(node), node
