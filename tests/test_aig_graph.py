"""Tests for the core AIG data structure."""

import pytest

from repro.aig import AIG, CONST0, CONST1, check, lit_node, lit_not
from repro.errors import AigError

from .util import po_truth_tables, random_aig


def test_empty_graph():
    g = AIG("empty")
    assert g.n_pis == 0
    assert g.n_pos == 0
    assert g.n_ands == 0
    assert g.max_level() == 0
    check(g)


def test_add_pi_and_po():
    g = AIG()
    a = g.add_pi("x")
    assert lit_node(a) == 1
    assert g.is_pi(lit_node(a))
    index = g.add_po(a, "y")
    assert g.pos[index] == a
    assert g.po_name(index) == "y"
    assert g.n_refs(lit_node(a)) == 1
    check(g)


def test_and_simplifications():
    g = AIG()
    a = g.add_pi()
    b = g.add_pi()
    assert g.add_and(a, a) == a
    assert g.add_and(a, lit_not(a)) == CONST0
    assert g.add_and(a, CONST0) == CONST0
    assert g.add_and(CONST0, b) == CONST0
    assert g.add_and(a, CONST1) == a
    assert g.add_and(CONST1, b) == b
    assert g.n_ands == 0


def test_structural_hashing():
    g = AIG()
    a = g.add_pi()
    b = g.add_pi()
    x = g.add_and(a, b)
    y = g.add_and(b, a)  # commuted
    assert x == y
    assert g.n_ands == 1
    z = g.add_and(a, lit_not(b))
    assert z != x
    assert g.n_ands == 2
    check(g)


def test_levels_on_creation():
    g = AIG()
    a, b, c = g.add_pi(), g.add_pi(), g.add_pi()
    x = g.add_and(a, b)
    y = g.add_and(x, c)
    assert g.level(lit_node(x)) == 1
    assert g.level(lit_node(y)) == 2
    g.add_po(y)
    assert g.max_level() == 2


def test_or_xor_mux_semantics():
    g = AIG()
    a, b, s = g.add_pi(), g.add_pi(), g.add_pi()
    g.add_po(g.add_or(a, b))
    g.add_po(g.add_xor(a, b))
    g.add_po(g.add_mux(s, a, b))
    tts = po_truth_tables(g)
    # variable order: a=var0, b=var1, s=var2 over 3 vars (8 bits)
    va, vb, vs = 0xAA, 0xCC, 0xF0
    assert tts[0] == (va | vb)
    assert tts[1] == (va ^ vb)
    assert tts[2] == ((vs & va) | (~vs & vb) & 0xFF)


def test_lookup_and_probe():
    g = AIG()
    a, b = g.add_pi(), g.add_pi()
    assert g.lookup_and(a, b) is None
    x = g.add_and(a, b)
    assert g.lookup_and(a, b) == x
    assert g.lookup_and(b, a) == x
    assert g.lookup_and(a, a) == a
    assert g.lookup_and(a, CONST0) == CONST0


def test_fanout_tracking():
    g = AIG()
    a, b, c = g.add_pi(), g.add_pi(), g.add_pi()
    x = g.add_and(a, b)
    y = g.add_and(x, c)
    z = g.add_and(x, lit_not(c))
    g.add_po(y)
    g.add_po(z)
    nx = lit_node(x)
    assert g.n_fanouts(nx) == 2
    assert sorted(g.fanouts(nx)) == sorted([lit_node(y), lit_node(z)])
    assert g.n_fanouts(lit_node(y)) == 1  # one PO use
    assert g.po_uses(lit_node(y)) == [0]
    check(g)


def test_set_po():
    g = AIG()
    a, b = g.add_pi(), g.add_pi()
    x = g.add_and(a, b)
    idx = g.add_po(x)
    g.set_po(idx, lit_not(a))
    assert g.pos[idx] == lit_not(a)
    assert g.n_refs(lit_node(x)) == 0
    assert g.po_uses(lit_node(a)) == [idx]
    check(g)


def test_fanin_accessors_reject_non_and():
    g = AIG()
    a = g.add_pi()
    with pytest.raises(AigError):
        g.fanin0(lit_node(a))
    with pytest.raises(AigError):
        g.fanin_lits(0)


def test_dead_literal_rejected():
    g = AIG()
    a, b = g.add_pi(), g.add_pi()
    x = g.add_and(a, b)
    g.add_po(x)
    g.replace(lit_node(x), a)  # x dies
    with pytest.raises(AigError):
        g.add_and(x, b)


def test_clone_preserves_function_and_compacts():
    g = random_aig(5, 30, 4, seed=7)
    before = po_truth_tables(g)
    h = g.clone("copy")
    assert po_truth_tables(h) == before
    assert h.n_ands <= g.n_ands
    assert h.n_pis == g.n_pis
    assert h.n_pos == g.n_pos
    check(h)


def test_and_ids_topological_when_freshly_built():
    g = random_aig(4, 25, 3, seed=3)
    seen = set(g.pis) | {0}
    for node in g.and_ids():
        f0, f1 = g.fanin_lits(node)
        assert lit_node(f0) in seen
        assert lit_node(f1) in seen
        seen.add(node)


class TestReplace:
    def test_replace_by_pi(self):
        g = AIG()
        a, b, c = g.add_pi(), g.add_pi(), g.add_pi()
        x = g.add_and(a, b)
        y = g.add_and(x, c)
        g.add_po(y)
        g.replace(lit_node(x), a)  # x := a, so y becomes AND(a, c)
        assert g.n_ands == 1
        tts = po_truth_tables(g)
        assert tts[0] == (0xAA & 0xF0)  # a & c over (a,b,c)
        check(g)

    def test_replace_with_complement(self):
        g = AIG()
        a, b, c = g.add_pi(), g.add_pi(), g.add_pi()
        x = g.add_and(a, b)
        y = g.add_and(lit_not(x), c)
        g.add_po(y)
        g.replace(lit_node(x), lit_not(a))  # x := ~a, so y = AND(a, c)
        assert po_truth_tables(g)[0] == (0xAA & 0xF0)
        check(g)

    def test_replace_patches_pos(self):
        g = AIG()
        a, b = g.add_pi(), g.add_pi()
        x = g.add_and(a, b)
        g.add_po(x, "f")
        g.add_po(lit_not(x), "g")
        g.replace(lit_node(x), lit_not(b))
        assert g.pos[0] == lit_not(b)
        assert g.pos[1] == b
        assert g.n_ands == 0
        check(g)

    def test_replace_triggers_merge_cascade(self):
        g = AIG()
        a, b, c, d, e = (g.add_pi() for _ in range(5))
        u = g.add_and(a, b)
        v = g.add_and(c, d)
        w1 = g.add_and(u, e)
        w2 = g.add_and(v, e)
        g.add_po(w1)
        g.add_po(w2)
        # Make v structurally equal to u in two steps.
        g.replace(lit_node(c), a)
        g.replace(lit_node(d), b)
        # v merged into u, then w2 merged into w1.
        assert g.n_ands == 2
        assert g.pos[0] == g.pos[1]
        check(g)

    def test_replace_creating_constant(self):
        g = AIG()
        a, b, c = g.add_pi(), g.add_pi(), g.add_pi()
        v = g.add_and(c, b)
        top = g.add_and(v, a)
        g.add_po(top)
        # c := ~b makes v = AND(~b, b) = 0, which kills top too.
        g.replace(lit_node(c), lit_not(b))
        assert g.pos[0] == CONST0
        assert g.n_ands == 0
        check(g)

    def test_replace_garbage_collects_cone(self):
        g = AIG()
        a, b, c = g.add_pi(), g.add_pi(), g.add_pi()
        x = g.add_and(a, b)
        y = g.add_and(x, c)
        g.add_po(y)
        assert g.n_ands == 2
        g.replace(lit_node(y), a)
        assert g.n_ands == 0  # both x and y die
        check(g)

    def test_replace_keeps_shared_nodes(self):
        g = AIG()
        a, b, c = g.add_pi(), g.add_pi(), g.add_pi()
        x = g.add_and(a, b)
        y = g.add_and(x, c)
        g.add_po(y)
        g.add_po(x)  # x is shared: must survive y's death
        g.replace(lit_node(y), lit_not(c))
        assert g.n_ands == 1
        assert g.pos[1] == x
        check(g)

    def test_replace_functionally_equivalent_rebuild(self):
        # Replace a node by a freshly built equivalent cone and verify the
        # network function is unchanged.
        g = AIG()
        a, b, c = g.add_pi(), g.add_pi(), g.add_pi()
        x = g.add_and(g.add_and(a, b), c)  # a & b & c
        g.add_po(x)
        before = po_truth_tables(g)
        rebuilt = g.add_and(a, g.add_and(b, c))  # same function, new shape
        g.replace(lit_node(x), rebuilt)
        assert po_truth_tables(g) == before
        check(g)

    def test_replace_self_is_noop(self):
        g = AIG()
        a, b = g.add_pi(), g.add_pi()
        x = g.add_and(a, b)
        g.add_po(x)
        g.replace(lit_node(x), x)
        assert g.pos[0] == x
        assert g.n_ands == 1
        check(g)


class TestDirtyJournal:
    """The per-epoch structural-damage journal (``AIG.drain_dirty``)."""

    def test_fresh_graph_journal_is_empty_after_drain(self):
        g = random_aig(6, 40, 3, seed=1)
        journal = g.drain_dirty()
        # Construction dirt (allocations are not damage) may or may not be
        # journaled, but a second drain must be empty: epochs are disjoint.
        assert g.drain_dirty().empty
        assert isinstance(journal.killed, frozenset)

    def test_replace_records_killed_and_rewired(self):
        g = AIG()
        a, b, c = g.add_pi(), g.add_pi(), g.add_pi()
        x = g.add_and(a, b)
        y = g.add_and(x, c)
        g.add_po(y)
        g.drain_dirty()
        g.replace(lit_node(x), a)  # y survives, rewired to AND(a, c)
        journal = g.drain_dirty()
        assert lit_node(x) in journal.killed
        assert lit_node(y) in journal.rewired
        assert lit_node(y) not in journal.killed
        check(g)

    def test_cascading_gc_is_journaled(self):
        g = AIG()
        a, b, c, d = (g.add_pi() for _ in range(4))
        n1 = g.add_and(a, b)
        n2 = g.add_and(n1, c)
        n3 = g.add_and(n2, d)
        g.add_po(n3)
        g.drain_dirty()
        g.replace(lit_node(n3), a)  # frees the whole chain below
        journal = g.drain_dirty()
        assert {lit_node(n1), lit_node(n2), lit_node(n3)} <= journal.killed
        assert g.n_ands == 0
        check(g)

    def test_po_rewire_journals_the_replaced_driver(self):
        g = AIG()
        a, b = g.add_pi(), g.add_pi()
        x = g.add_and(a, b)
        g.add_po(x, "out")
        g.drain_dirty()
        g.replace(lit_node(x), lit_not(b))
        journal = g.drain_dirty()
        assert lit_node(x) in journal.killed
        assert g.pos[0] == lit_not(b)  # PO rewired, phase preserved
        check(g)

    def test_strash_merge_victims_are_killed(self):
        g = AIG()
        a, b, c = g.add_pi(), g.add_pi(), g.add_pi()
        x = g.add_and(a, b)
        merged = g.add_and(x, c)  # AND(x, c): the merge target
        y = g.add_and(a, lit_not(b))
        victim = g.add_and(y, c)  # after y -> x, collides with ``merged``
        g.add_po(merged)
        g.add_po(victim)
        g.drain_dirty()
        g.replace(lit_node(y), x)
        journal = g.drain_dirty()
        assert lit_node(victim) in journal.killed
        assert g.pos[1] == merged
        check(g)

    def test_new_nodes_are_not_damage(self):
        g = AIG()
        a, b = g.add_pi(), g.add_pi()
        g.drain_dirty()
        g.add_and(a, b)
        journal = g.drain_dirty()
        assert journal.empty

    def test_replaced_pi_is_journaled_killed(self):
        g = AIG()
        a, b = g.add_pi(), g.add_pi()
        x = g.add_and(a, b)
        g.add_po(x)
        g.drain_dirty()
        g.replace(lit_node(a), b)  # PI slot survives but is disconnected
        journal = g.drain_dirty()
        assert lit_node(a) in journal.killed


def test_iter_fanouts_zero_copy_view():
    g = AIG()
    a, b, c = g.add_pi(), g.add_pi(), g.add_pi()
    x = g.add_and(a, b)
    y = g.add_and(x, c)
    z = g.add_and(x, lit_not(c))
    g.add_po(y)
    g.add_po(z)
    assert sorted(g.iter_fanouts(lit_node(x))) == sorted(g.fanouts(lit_node(x)))
    assert list(g.iter_fanouts(lit_node(y))) == []
