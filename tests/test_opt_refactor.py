"""Tests for the baseline refactor operator.

The load-bearing property: refactor must preserve the network function
(checked exhaustively / by SAT) while never increasing the AND count.
"""

import pytest

from repro.aig import AIG, check
from repro.circuits.arith import adder, divider, multiplier
from repro.opt import RefactorParams, RefactorStats, refactor
from repro.verify import equivalent

from .util import random_aig


def run_and_verify(g, params=None):
    reference = g.clone()
    before = g.n_ands
    stats = refactor(g, params)
    check(g)
    assert equivalent(reference, g), "refactor changed the function"
    assert g.n_ands <= before, "refactor increased the node count"
    return stats, before


def test_redundant_sop_is_compacted():
    # f = ab + ac + ad: 7 ANDs naively; factoring gives a(b+c+d): 3 ANDs.
    g = AIG()
    a, b, c, d = (g.add_pi() for _ in range(4))
    ab = g.add_and(a, b)
    ac = g.add_and(a, c)
    ad = g.add_and(a, d)
    f = g.add_or(g.add_or(ab, ac), ad)
    g.add_po(f)
    stats, before = run_and_verify(g)
    assert stats.commits >= 1
    assert g.n_ands < before


def test_duplicate_logic_collapses():
    # Same function built twice with different structure, then combined.
    g = AIG()
    a, b, c = (g.add_pi() for _ in range(3))
    left = g.add_and(g.add_and(a, b), c)
    right = g.add_and(a, g.add_and(b, c))
    g.add_po(g.add_or(left, right))  # = abc
    run_and_verify(g)
    assert g.n_ands <= 3


@pytest.mark.parametrize("seed", range(12))
def test_random_graphs_preserved(seed):
    g = random_aig(6, 60, 4, seed=seed)
    stats, _ = run_and_verify(g)
    assert stats.nodes_visited > 0
    assert stats.commits + stats.fails == stats.cuts_formed


@pytest.mark.parametrize("seed", [100, 200, 300])
def test_larger_random_graphs_preserved(seed):
    g = random_aig(10, 300, 6, seed=seed)
    run_and_verify(g)


def test_adder_preserved():
    g = adder(6)
    run_and_verify(g)


def test_multiplier_preserved():
    g = multiplier(4)
    run_and_verify(g)


def test_divider_preserved():
    g = divider(4)
    run_and_verify(g)


def test_gain_total_matches_node_delta():
    g = random_aig(8, 150, 5, seed=42)
    before = g.n_ands
    stats = refactor(g)
    # Commits shrink; cascades may shrink more than predicted, never less.
    assert before - g.n_ands >= stats.commits * 0  # sanity
    assert before - g.n_ands == stats.gain_total


def test_second_pass_finds_less():
    g = random_aig(8, 200, 5, seed=7)
    s1 = refactor(g)
    s2 = refactor(g)
    assert s2.commits <= s1.commits


def test_zero_cost_mode_does_not_grow():
    g = random_aig(7, 100, 4, seed=3)
    reference = g.clone()
    before = g.n_ands
    refactor(g, RefactorParams(zero_cost=True))
    check(g)
    assert g.n_ands <= before
    assert equivalent(reference, g)


def test_preserve_levels_never_deepens():
    for seed in range(5):
        g = random_aig(7, 120, 5, seed=seed)
        depth_before = g.max_level()
        reference = g.clone()
        refactor(g, RefactorParams(preserve_levels=True))
        check(g)
        assert g.max_level() <= depth_before
        assert equivalent(reference, g)


def test_collector_sees_every_visited_node():
    g = random_aig(7, 120, 4, seed=9)
    records = []
    stats = refactor(g, collector=lambda feats, label: records.append((feats, label)))
    assert len(records) == stats.nodes_visited
    labels = [label for _f, label in records]
    assert sum(labels) == stats.commits
    for feats, _label in records:
        assert feats is not None
        assert feats.n_leaves >= 2
        assert feats.cut_size >= 1


def test_failure_rate_is_high_on_arithmetic():
    """The paper's core observation: most cuts fail resynthesis."""
    g = multiplier(6)
    stats = refactor(g)
    assert stats.failure_rate > 0.8


def test_timing_buckets_populated():
    g = random_aig(7, 100, 4, seed=5)
    stats = refactor(g)
    assert stats.time_total > 0
    assert stats.time_cut > 0
    assert stats.time_resynth > 0
    parts = stats.time_cut + stats.time_truth + stats.time_resynth + stats.time_commit
    assert parts <= stats.time_total * 1.05


def test_max_leaves_parameter():
    g = random_aig(8, 150, 4, seed=11)
    reference = g.clone()
    refactor(g, RefactorParams(max_leaves=6))
    assert equivalent(reference, g)


def test_method_good_factor():
    g = random_aig(7, 100, 4, seed=13)
    reference = g.clone()
    refactor(g, RefactorParams(method="good"))
    check(g)
    assert equivalent(reference, g)


def test_stats_dataclass_defaults():
    s = RefactorStats()
    assert s.fails == 0
    assert s.failure_rate == 0.0
