"""Tests for reconvergence-driven cut computation and ELF features."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import AIG, cone_truth, lit_node, lit_not
from repro.cuts import CutFeatures, reconv_cut, stack_features

from .util import random_aig


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
