"""Tests for the invariant checker and strash/cleanup utilities."""

from repro.aig import AIG, check, cleanup, is_valid, strash

from .util import po_truth_tables, random_aig


def test_valid_graph_passes():
    g = random_aig(5, 30, 3, seed=6)
    check(g)
    assert is_valid(g)


def test_corruption_detected_refs():
    g = random_aig(4, 10, 2, seed=6)
    g._refs[g.and_ids()[0]] += 1
    assert not is_valid(g)


def test_corruption_detected_level():
    g = random_aig(4, 10, 2, seed=6)
    g._level[g.and_ids()[-1]] += 5
    assert not is_valid(g)


def test_corruption_detected_strash():
    g = random_aig(4, 10, 2, seed=6)
    node = g.and_ids()[0]
    key = g.fanin_lits(node)
    del g._strash[key]
    assert not is_valid(g)


def test_strash_drops_unreachable_logic():
    g = AIG()
    a, b, c = g.add_pi(), g.add_pi(), g.add_pi()
    x = g.add_and(a, b)
    g.add_and(a, c)  # dangling
    g.add_po(x)
    h = strash(g)
    assert h.n_ands == 1
    assert po_truth_tables(h)[0] == po_truth_tables(g)[0]
    check(h)


def test_cleanup_in_place():
    g = AIG()
    a, b, c = g.add_pi(), g.add_pi(), g.add_pi()
    x = g.add_and(a, b)
    g.add_and(g.add_and(a, c), b)  # dangling chain of 2
    g.add_po(x)
    removed = cleanup(g)
    assert removed == 2
    assert g.n_ands == 1
    check(g)


def test_cleanup_noop_on_clean_graph():
    g = random_aig(5, 30, 3, seed=13)
    assert cleanup(g) == 0
