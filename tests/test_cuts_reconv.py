"""Tests for reconvergence-driven cut computation and ELF features."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import AIG, cone_truth, lit_node, lit_not
from repro.cuts import CutFeatures, reconv_cut, stack_features
from repro.cuts import reconv as reconv_module
from repro.cuts.reconv import reconv_features, sweep_rows, sweep_state_bytes

from .util import po_truth_tables, random_aig


def test_cut_of_simple_and():
    g = AIG()
    a, b = g.add_pi(), g.add_pi()
    x = g.add_and(a, b)
    g.add_po(x)
    cut = reconv_cut(g, lit_node(x))
    assert sorted(cut.leaves) == sorted([lit_node(a), lit_node(b)])
    assert cut.interior == {lit_node(x)}
    assert cut.size == 1


def test_cut_respects_leaf_limit():
    g = random_aig(8, 80, 4, seed=3)
    for node in g.and_ids():
        cut = reconv_cut(g, node, max_leaves=6)
        assert 2 <= cut.n_leaves <= 6


def test_cut_covers_root():
    """Every path from the root downward must terminate at a leaf."""
    g = random_aig(8, 80, 4, seed=5)
    for node in g.and_ids()[:30]:
        cut = reconv_cut(g, node, max_leaves=8)
        leaves = set(cut.leaves)
        stack = [node]
        seen = set()
        while stack:
            top = stack.pop()
            if top in leaves or top in seen:
                continue
            seen.add(top)
            assert g.is_and(top), "hit a PI that is not a leaf"
            assert top in cut.interior
            f0, f1 = g.fanin_lits(top)
            stack.extend([lit_node(f0), lit_node(f1)])
        assert seen == cut.interior


def test_cut_truth_table_computable():
    g = random_aig(8, 60, 4, seed=7)
    for node in g.and_ids()[:20]:
        cut = reconv_cut(g, node, max_leaves=10)
        tt = cone_truth(g, node, cut.leaves)
        assert 0 <= tt < (1 << (1 << cut.n_leaves))


def test_features_paper_figure2_style():
    """Hand-built cone checking each feature against manual counts."""
    g = AIG()
    a, b, c, d = (g.add_pi() for _ in range(4))
    n1 = g.add_and(a, b)
    n2 = g.add_and(b, c)
    n3 = g.add_and(n1, n2)
    n4 = g.add_and(n2, d)
    root = g.add_and(n3, n4)
    g.add_po(root)
    g.add_po(n1)  # n1 has an external edge
    cut = reconv_cut(g, lit_node(root), max_leaves=4)
    f = cut.features
    assert f is not None
    assert sorted(cut.leaves) == [lit_node(x) for x in (a, b, c, d)]
    assert cut.interior == {lit_node(x) for x in (n1, n2, n3, n4, root)}
    assert f.n_leaves == 4
    assert f.cut_size == 5
    assert f.root_fanout == 1  # one PO use
    assert f.root_level == 3
    # Outgoing edges: root->PO, n1->PO. All other edges are internal.
    assert f.cut_fanout == 2
    # b feeds n1 and n2; n2 feeds n3 and n4: two reconvergent nodes.
    assert f.n_reconvergent == 2


def test_root_fanout_counts_all_edges():
    g = AIG()
    a, b, c = g.add_pi(), g.add_pi(), g.add_pi()
    x = g.add_and(a, b)
    y = g.add_and(x, c)
    z = g.add_and(x, lit_not(c))
    g.add_po(y)
    g.add_po(z)
    g.add_po(x)
    cut = reconv_cut(g, lit_node(x))
    assert cut.features.root_fanout == 3  # two AND fanouts + one PO


def test_features_cut_fanout_no_double_count():
    """Every cut's fanout equals the brute-force recount."""
    g = random_aig(8, 100, 5, seed=11)
    for node in g.and_ids():
        cut = reconv_cut(g, node, max_leaves=8)
        expected = 0
        for inner in cut.interior:
            expected += len([f for f in g.fanouts(inner) if f not in cut.interior])
            expected += len(g.po_uses(inner))
        assert cut.features.cut_fanout == expected, f"node {node}"


def test_features_reconvergence_brute_force():
    g = random_aig(6, 60, 3, seed=13)
    for node in g.and_ids():
        cut = reconv_cut(g, node, max_leaves=8)
        expected = 0
        for candidate in set(cut.leaves) | cut.interior:
            edges = sum(
                1
                for fanout in g.fanouts(candidate)
                if fanout in cut.interior
            )
            if edges >= 2:
                expected += 1
        assert cut.features.n_reconvergent == expected, f"node {node}"


def test_stack_features_shape():
    g = random_aig(6, 40, 3, seed=1)
    feats = [reconv_cut(g, n).features for n in g.and_ids()]
    matrix = stack_features(feats)
    assert matrix.shape == (len(feats), 6)
    assert stack_features([]).shape == (0, 6)


def test_features_skippable():
    g = random_aig(5, 20, 2, seed=2)
    cut = reconv_cut(g, g.and_ids()[-1], collect_features=False)
    assert cut.features is None


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 10))
def test_cut_properties_random(seed, max_leaves):
    g = random_aig(7, 50, 3, seed=seed)
    ids = g.and_ids()
    if not ids:
        return
    node = ids[seed % len(ids)]
    cut = reconv_cut(g, node, max_leaves=max_leaves)
    assert node in cut.interior
    assert cut.n_leaves <= max_leaves
    assert not (set(cut.leaves) & cut.interior)
    # Leaves must not be above the root.
    assert all(g.level(leaf) <= g.level(node) for leaf in cut.leaves)


def _incremental_cut(g, root, max_leaves):
    """Oracle: the cut grown with its features accumulated per expansion
    (every expansion scans the new interior node's fanouts and counts
    edges into the cone in a dict).  Returns ``(leaves, features,
    most edges any one node sends into the interior)``."""
    leaves, visited, interior = [root], {root}, set()
    cut_fanout = n_reconv = 0
    edges_into_cone = {}
    fanin0, fanin1, refs = g._fanin0, g._fanin1, g._refs
    while True:
        best_leaf, best_cost = -1, 1 << 30
        for leaf in leaves:
            f0 = fanin0[leaf]
            if f0 < 0:
                continue
            cost = -1 + ((f0 >> 1) not in visited) + ((fanin1[leaf] >> 1) not in visited)
            if cost < best_cost:
                best_cost, best_leaf = cost, leaf
                if cost <= 0:
                    break
        if best_leaf < 0 or len(leaves) + best_cost > max_leaves:
            break
        leaves.remove(best_leaf)
        interior.add(best_leaf)
        inside = sum(1 for f in g.iter_fanouts(best_leaf) if f in interior)
        cut_fanout += refs[best_leaf] - inside
        for fanin_lit in (fanin0[best_leaf], fanin1[best_leaf]):
            fanin = fanin_lit >> 1
            edges_into_cone[fanin] = edges_into_cone.get(fanin, 0) + 1
            if edges_into_cone[fanin] == 2:
                n_reconv += 1
            if fanin in interior:
                cut_fanout -= 1
        for fanin_lit in (fanin0[best_leaf], fanin1[best_leaf]):
            fanin = fanin_lit >> 1
            if fanin not in visited:
                visited.add(fanin)
                leaves.append(fanin)
    features = CutFeatures(
        root_fanout=refs[root],
        root_level=g._level[root],
        cut_fanout=cut_fanout,
        cut_size=len(interior),
        n_reconvergent=n_reconv,
        n_leaves=len(leaves),
    )
    return leaves, features, max(edges_into_cone.values(), default=0)


def test_features_match_incremental_oracle():
    """Counting on the finished cone gives the per-expansion counters'
    exact features and leaves, on cuts where some node sends three or
    more edges into the cone (so counting edges instead of distinct
    nodes would show)."""
    from repro.circuits import arith

    circuits = [
        arith.multiplier(6),
        arith.alu(8),
        arith.divider(5),
        random_aig(8, 200, 4, seed=31),
    ]
    n_cuts = n_triple = 0
    for g in circuits:
        for max_leaves in (6, 10):
            for node in g.and_ids():
                cut = reconv_cut(g, node, max_leaves=max_leaves)
                leaves, features, most = _incremental_cut(g, node, max_leaves)
                assert cut.leaves == leaves
                assert cut.features == features, (g.name, node, max_leaves)
                n_cuts += 1
                n_triple += most >= 3
    assert n_cuts > 1000 and n_triple > 10


# -- the lockstep feature sweep ------------------------------------------------


def _stacked(g, roots, max_leaves):
    """The per-node reference: one ``reconv_cut`` per root, stacked."""
    return stack_features([reconv_cut(g, r, max_leaves).features for r in roots])


def _assert_sweep_matches(g, max_leaves, roots=None):
    roots = g.and_ids() if roots is None else roots
    got = reconv_features(g, roots, max_leaves)
    want = _stacked(g, roots, max_leaves)
    assert got.dtype == np.float64 and got.shape == want.shape
    bad = np.flatnonzero((got != want).any(axis=1))
    assert bad.size == 0, (
        f"{g.name} max_leaves={max_leaves}: root {roots[bad[0]]} "
        f"sweep {got[bad[0]]} != reconv_cut {want[bad[0]]}"
    )


def _flow_suites():
    """The circuits of both elfbench flow suites: the six arith
    generators (2,575 ANDs) and the ten industrial designs at size
    factor 0.05 (2,464 ANDs)."""
    from repro.circuits import arith
    from repro.circuits.industrial import industrial_suite

    arith_suite = [
        arith.divider(5),
        arith.hypotenuse(5),
        arith.log2_approx(10),
        arith.multiplier(6),
        arith.isqrt(6),
        arith.square(8),
    ]
    return arith_suite, list(industrial_suite(0.05).values())


@pytest.mark.parametrize("max_leaves", [4, 10])
def test_sweep_matches_reconv_cut_on_flow_suites(max_leaves):
    arith_suite, industrial = _flow_suites()
    assert sum(g.n_ands for g in arith_suite) == 2575
    assert sum(g.n_ands for g in industrial) == 2464
    for g in arith_suite + industrial:
        _assert_sweep_matches(g, max_leaves)


def test_sweep_matches_on_random_graphs_at_every_leaf_limit():
    n_graphs = 0
    for seed in range(12):
        g = random_aig(6 + seed % 6, 120 + 10 * seed, 4, seed=100 + seed)
        ones = (1 << (1 << g.n_pis)) - 1
        if all(tt in (0, ones) for tt in po_truth_tables(g)):
            continue  # constant outputs: nothing for a cut to find
        n_graphs += 1
        for max_leaves in range(2, 13):
            _assert_sweep_matches(g, max_leaves)
    assert n_graphs >= 10


def test_sweep_matches_after_rf_edits():
    """``rf`` commits leave node ids out of topological order (a fanin
    can have a larger id than its fanout); the sweep must not care."""
    from repro.circuits import arith
    from repro.circuits.random_aig import layered_random_aig
    from repro.opt import refactor

    circuits = [
        arith.multiplier(6),
        arith.divider(5),
        arith.hypotenuse(5),
        layered_random_aig(12, 500, seed=3),
    ]
    n_out_of_order = 0
    for g in circuits:
        assert refactor(g).commits > 0
        n_out_of_order += sum(
            max(lit_node(lit) for lit in g.fanin_lits(node)) > node
            for node in g.and_ids()
        )
        for max_leaves in (4, 10):
            _assert_sweep_matches(g, max_leaves)
    assert n_out_of_order > 0


def test_sweep_takes_the_first_of_tied_leaves():
    """After the root, leaves ``x`` and ``y`` both cost one new leaf; the
    first in list order (``x``) must be expanded, and that choice shows
    in ``cut_fanout`` because only ``x`` also drives a PO."""
    g = AIG()
    a, b, c, d = (g.add_pi() for _ in range(4))
    x = g.add_and(a, b)
    y = g.add_and(c, d)
    root = g.add_and(x, y)
    g.add_po(root)
    g.add_po(x)
    root_node = lit_node(root)
    cut = reconv_cut(g, root_node, max_leaves=3)
    assert cut.interior == {root_node, lit_node(x)}
    assert cut.features.cut_fanout == 2  # root -> PO, x -> PO
    got = reconv_features(g, [root_node], max_leaves=3)
    assert got.tolist() == [list(cut.features.as_tuple())]


def test_sweep_takes_a_free_expansion_behind_a_costly_leaf():
    """After the root, the leaves are ``[x, y]``: ``x`` costs a new leaf,
    ``y = x & d`` is free (its fanin ``x`` is visited).  ``y`` must be
    expanded first although ``x`` comes first in list order; at a limit
    of two leaves, a rule that ranked ``y`` with the costly leaves would
    stop at the root."""
    g = AIG()
    a, b, d = (g.add_pi() for _ in range(3))
    x = g.add_and(a, b)
    y = g.add_and(x, d)
    root = g.add_and(x, y)
    g.add_po(root)
    root_node = lit_node(root)
    cut = reconv_cut(g, root_node, max_leaves=2)
    assert cut.interior == {root_node, lit_node(y)}
    assert cut.leaves == [lit_node(x), lit_node(d)]
    for max_leaves in range(2, 6):
        _assert_sweep_matches(g, max_leaves)


def test_sweep_chunks_with_bounded_state(monkeypatch):
    """Chunked state: a tiny budget forces many chunks (and the per-row
    floor) without changing a single feature, on any root order with
    repeats; the state is never roots x graph size."""
    g = random_aig(8, 300, 5, seed=7)
    roots = g.and_ids()[::-1] + g.and_ids()[:9]
    want = _stacked(g, roots, 8)
    monkeypatch.setattr(reconv_module, "STATE_BUDGET_BYTES", 1)
    monkeypatch.setattr(reconv_module, "_MIN_ROWS", 7)
    assert sweep_rows(g.n_nodes, len(roots)) == 7
    assert np.array_equal(reconv_features(g, roots, 8), want)
    monkeypatch.undo()
    # Default budget: a 6,836-slot graph sweeps its 6,386 roots in chunks
    # whose state stays within the budget.
    n_nodes, n_roots = 6836, 6386
    assert sweep_rows(n_nodes, n_roots) < n_roots
    assert sweep_state_bytes(n_nodes, n_roots) <= reconv_module.STATE_BUDGET_BYTES
    assert reconv_features(g, [], 8).shape == (0, 6)
