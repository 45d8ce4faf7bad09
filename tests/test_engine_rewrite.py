"""Tests for the wave-rewrite operator on the generic conflict scheduler."""

import pytest

from repro.aig.graph import AIG
from repro.aig.io_bench import to_text
from repro.circuits import layered_random_aig
from repro.engine import (
    EngineStats,
    ResynthCache,
    RewriteEngineParams,
    RewriteWaveOp,
    engine_rewrite,
)
from repro.engine.operators import _cut_interior
from repro.errors import ReproError
from repro.opt import RewriteParams, default_library, rewrite, run_flow
from repro.verify import equivalent


def crafted_overlap_circuit():
    """Two conflict-free candidates whose commits nonetheless collide.

    ``r`` is redundant (``r == a & b``): rewriting it replaces it with the
    existing ``x``, and the strash cascade then merges ``f = r & w`` into
    the pre-existing duplicate ``f2 = x & w`` — a kill *outside* ``r``'s
    MFFC.  ``c``'s 4-feasible cuts stop at ``f`` (expanding it would need
    five leaves), so ``c`` shares no footprint with ``r`` and the greedy
    coloring puts both in one wave; the cascade kill of ``f`` lands in
    ``c``'s cone mid-wave, forcing the deferral + repair-wave split.
    """
    g = AIG("crafted-rw-repair")
    a = g.add_pi("a")
    b = g.add_pi("b")
    w = g.add_pi("w")
    e1 = g.add_pi("e1")
    e2 = g.add_pi("e2")
    e3 = g.add_pi("e3")
    x = g.add_and(a, b)
    r = g.add_and(x, a)  # candidate A: rewrites to x (gain 1)
    f2 = g.add_and(x, w)  # pre-existing duplicate target
    f = g.add_and(r, w)  # strash-merges into f2 when A commits
    c1 = g.add_and(f, e1)
    c2 = g.add_and(c1, e2)
    c = g.add_and(c2, e3)  # candidate B: same wave as A, cone sees f
    g.add_po(c, "out")
    g.add_po(f2, "keep")
    return g


class TestWorkersOneParity:
    @pytest.mark.parametrize("seed", [3, 13, 21])
    def test_bit_identical_to_sequential_rewrite(self, seed):
        g = layered_random_aig(12, 700, seed=seed)
        sequential, engine = g.clone(), g.clone()
        seq_stats = rewrite(sequential)
        eng_stats = engine_rewrite(engine, RewriteEngineParams(workers=1))
        assert eng_stats.delegated
        assert eng_stats.operator == "rewrite"
        assert to_text(engine) == to_text(sequential)
        assert eng_stats.commits == seq_stats.commits
        assert eng_stats.gain_total == seq_stats.gain_total
        assert eng_stats.cuts_formed == seq_stats.cuts_tried
        assert eng_stats.n_stale_cuts == seq_stats.stale_cuts

    def test_flow_prw_w1_matches_rw(self):
        g = layered_random_aig(12, 600, seed=7)
        via_flow, report = run_flow(g.clone(), "prw -w 1")
        sequential = g.clone()
        rewrite(sequential)
        assert to_text(via_flow) == to_text(sequential)
        assert isinstance(report.steps[0].detail, EngineStats)

    def test_zero_cost_delegates_too(self):
        g = layered_random_aig(10, 400, seed=9)
        params = RewriteParams(zero_cost=True)
        sequential, engine = g.clone(), g.clone()
        rewrite(sequential, params)
        engine_rewrite(engine, RewriteEngineParams(rewrite=params, workers=1))
        assert to_text(engine) == to_text(sequential)


def _replay_node_by_node(g, params):
    """Drive ``RewriteWaveOp`` one node at a time in the sequential order.

    Each node is snapshot, evaluated and committed before the next one
    is visited, so every commit decision sees the graph the sequential
    sweep would, and the outputs must match byte for byte.  (``prw -w 1``
    would not test this: it delegates to the sequential ``rewrite``.)
    """
    op = RewriteWaveOp(params, ResynthCache(), default_library())
    stats = EngineStats(operator="rewrite")
    op.prepare(g, stats)
    for node in g.and_ids():
        if g.is_dead(node):
            continue
        candidate = op.snapshot(g, node, stats)
        if candidate is not None:
            [result] = op.evaluate(g, [(0, candidate)], stats)
            op.commit(g, candidate, result, stats, set())
    return stats


class TestParityOnNonConstantCircuits:
    """The layered random circuits above compute constant 1, so they
    cannot see a wrong shared commit decision; these circuits can."""

    @pytest.mark.parametrize(
        "params",
        [
            RewriteParams(),
            RewriteParams(zero_cost=True),
            RewriteParams(preserve_levels=True),
            RewriteParams(zero_cost=True, preserve_levels=True),
        ],
        ids=["rw", "rwz", "rw-l", "rwz-l"],
    )
    def test_wave_op_commits_match_sequential(self, screen_circuits, params):
        commits = bounded = 0
        for g in screen_circuits.values():
            sequential, via_op = g.clone(), g.clone()
            seq_stats = rewrite(sequential, params)
            op_stats = _replay_node_by_node(via_op, params)
            assert to_text(via_op) == to_text(sequential)
            assert op_stats.commits == seq_stats.commits
            assert op_stats.gain_total == seq_stats.gain_total
            assert op_stats.nodes_visited == seq_stats.nodes_visited
            commits += seq_stats.commits
            bounded += op_stats.bounded
        assert commits > 0 and bounded > 0

    def test_w2_is_equivalent(self, screen_circuits):
        """Exhaustive CEC on the arithmetic circuits (<= 12 PIs); the
        industrial ones (22 and 90 PIs) get a random-simulation screen,
        because pure-Python SAT does not finish on them."""
        commits = 0
        for g in screen_circuits.values():
            out, report = run_flow(g.clone(), "prw -w 2")
            assert not report.steps[0].detail.delegated
            commits += report.steps[0].detail.commits
            method = "exhaustive" if g.n_pis <= 12 else "sim"
            assert equivalent(g, out, method=method, n_random_words=64)
        assert commits > 0


class TestWaveRewrite:
    @pytest.mark.parametrize("seed,n_ands", [(21, 1200), (13, 800)])
    def test_cec_and_close_to_sequential(self, seed, n_ands):
        g = layered_random_aig(12, n_ands, seed=seed)
        sequential, engine = g.clone(), g.clone()
        seq_stats = rewrite(sequential)
        eng_stats = engine_rewrite(engine, RewriteEngineParams(workers=2))
        assert not eng_stats.delegated
        assert eng_stats.n_waves > 1
        assert eng_stats.commits > 0 and seq_stats.commits > 0
        assert equivalent(g, engine, method="exhaustive")
        diff = abs(engine.n_ands - sequential.n_ands) / max(1, sequential.n_ands)
        assert diff <= 0.015, (engine.n_ands, sequential.n_ands)

    def test_deterministic_bench_identical(self):
        g = layered_random_aig(12, 800, seed=13)
        first, second = g.clone(), g.clone()
        s1 = engine_rewrite(first, RewriteEngineParams(workers=2))
        s2 = engine_rewrite(second, RewriteEngineParams(workers=2))
        assert to_text(first) == to_text(second)
        assert s1.commits == s2.commits
        assert s1.n_resnapshotted == s2.n_resnapshotted

    def test_zero_cost_and_levels_variant(self):
        g = layered_random_aig(12, 500, seed=3)
        level_before = g.max_level()
        out, _report = run_flow(g.clone(), "prwz -l -w 2")
        assert equivalent(g, out, method="exhaustive")
        assert out.max_level() <= level_before

    def test_stats_consistency(self):
        g = layered_random_aig(12, 800, seed=13)
        stats = engine_rewrite(g, RewriteEngineParams(workers=2))
        assert isinstance(stats, EngineStats)
        assert stats.operator == "rewrite"
        assert stats.n_stale == 0  # no sequential fallback path exists
        assert stats.commits + stats.fail_gain <= stats.nodes_visited
        assert stats.n_unique_tasks <= stats.n_tasks
        assert stats.n_library_hits > 0  # wave dedup must hit the layer
        assert 0.0 <= stats.dedup_rate <= 1.0
        assert stats.time_total > 0

    def test_bad_workers_flag(self):
        g = layered_random_aig(8, 60, seed=1)
        with pytest.raises(ReproError):
            run_flow(g, "prw -w")

    @pytest.mark.slow
    def test_acceptance_layered_5k_workers_2(self):
        """Acceptance: on layered-5k, ``prw`` at w=2 is CEC-clean and its
        AND count lands within ±1.5% of the sequential ``rw`` sweep."""
        g = layered_random_aig(14, 5500, seed=11, name="layered-5k")
        assert g.n_ands >= 5000
        sequential, engine = g.clone(), g.clone()
        rewrite(sequential)
        stats = engine_rewrite(engine, RewriteEngineParams(workers=2))
        assert stats.workers == 2
        assert stats.n_waves > 1
        assert stats.n_stale == 0
        assert equivalent(g, engine)  # auto -> exact exhaustive simulation
        diff = abs(engine.n_ands - sequential.n_ands) / sequential.n_ands
        assert diff <= 0.015, (engine.n_ands, sequential.n_ands)


class TestRepairWaveSplitting:
    def test_crafted_overlap_forces_repair_wave(self):
        g = crafted_overlap_circuit()
        eng = g.clone()
        stats = engine_rewrite(eng, RewriteEngineParams(workers=2))
        assert stats.commits >= 1  # the redundant root really rewrites
        assert stats.n_repair_waves >= 1  # the wave split at the conflict
        assert stats.n_invalidated > 0
        assert stats.n_stale_cuts > 0  # the merged node's cut went stale
        assert stats.n_stale == 0
        assert equivalent(g, eng, method="exhaustive")

    def test_crafted_overlap_is_deterministic(self):
        first, second = crafted_overlap_circuit(), crafted_overlap_circuit()
        s1 = engine_rewrite(first, RewriteEngineParams(workers=2))
        s2 = engine_rewrite(second, RewriteEngineParams(workers=2))
        assert s1.n_repair_waves == s2.n_repair_waves >= 1
        assert to_text(first) == to_text(second)


class TestRewriteWaveOpSnapshots:
    def test_snapshot_unions_cuts_into_footprint(self):
        g = crafted_overlap_circuit()
        op = RewriteWaveOp(RewriteParams(), ResynthCache(), default_library())
        stats = EngineStats(operator="rewrite")
        op.prepare(g, stats)
        top = max(g.and_ids())  # node c: cuts reach c1/c2/f but never r
        candidate = op.snapshot(g, top, stats)
        assert candidate is not None
        assert len(candidate.payload) >= 2  # multi-cut payload
        leaves_union = set(candidate.leaves)
        for cut_leaves, interior in candidate.payload:
            assert set(cut_leaves) <= leaves_union
            assert interior <= candidate.interior
        assert candidate.node in candidate.interior
        assert candidate.mffc <= candidate.footprint

    def test_resnapshot_drops_dead_leaf_cuts(self):
        g = crafted_overlap_circuit()
        op = RewriteWaveOp(RewriteParams(), ResynthCache(), default_library())
        stats = EngineStats(operator="rewrite")
        op.prepare(g, stats)
        top = max(g.and_ids())
        candidate = op.snapshot(g, top, stats)
        n_cuts = len(candidate.payload)
        # Kill one cut leaf (an AND feeding the top): replace it with const0.
        and_leaves = [l for l in candidate.leaves if g.is_and(l)]
        g.replace(and_leaves[0], 0)
        stale_before = stats.n_stale_cuts
        fresh = op.resnapshot(g, candidate, stats)
        assert stats.n_stale_cuts > stale_before
        if fresh is not None:
            for cut_leaves, _interior in fresh.payload:
                assert all(not g.is_dead(l) for l in cut_leaves)

    def test_cut_interior_detects_uncovered_cone(self):
        g = AIG()
        a, b, c = (g.add_pi() for _ in range(3))
        x = g.add_and(a, b)
        y = g.add_and(x, c)
        g.add_po(y)
        xn, yn = x >> 1, y >> 1
        assert _cut_interior(g, yn, {a >> 1, b >> 1, c >> 1}) == {xn, yn}
        assert _cut_interior(g, yn, {xn, c >> 1}) == {yn}
        # A cut that does not cover the cone walks out to an alien PI.
        assert _cut_interior(g, yn, {a >> 1, c >> 1}) is None


class TestLibraryCacheLayer:
    def test_library_lookup_caches_and_counts(self):
        cache = ResynthCache()
        library = default_library()
        first = cache.library_lookup(0x8888, library)
        assert cache.misses_library == 1 and cache.hits_library == 0
        again = cache.library_lookup(0x8888, library)
        assert again is first  # the stored pair itself, not a re-lookup
        assert cache.hits_library == 1
        assert first == library.lookup(0x8888)

    def test_layer_is_shared_with_views(self):
        cache = ResynthCache()
        library = default_library()
        cache.library_lookup(0x6666, library)
        view = cache.npn_view()
        view.library_lookup(0x6666, library)
        assert cache.hits_library == 1  # view hit counted on the owner

    def test_flow_shares_library_layer_across_steps(self):
        g = layered_random_aig(12, 800, seed=19)
        _out, report = run_flow(g, "prw -w 2; prwz -w 2")
        first, second = (step.detail for step in report.steps)
        assert first.n_library_hits > 0
        assert second.n_library_hits > 0
        # The second pass starts warm: almost nothing is a first-time
        # canonization, so its unique-task share must not exceed the cold
        # pass's.
        assert second.n_unique_tasks <= first.n_unique_tasks


class TestServeCompatibility:
    def test_served_prw_flow_is_byte_identical_at_w1(self):
        from repro.harness import serve_throughput

        suite = {
            f"rw-{seed}": layered_random_aig(10, 300, seed=seed, name=f"rw-{seed}")
            for seed in (1, 2, 3)
        }
        rows, report = serve_throughput(
            suite, flow="b; prw; b", n_shards=2, workers=1, check_identity=True
        )
        assert len(rows) == 3
        assert all(row.error is None for row in rows)
        assert all(row.identical for row in rows)
