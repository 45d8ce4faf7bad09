"""Tests for the engine commands.

``pf`` / ``pelf`` (:func:`repro.engine.engine_refactor`) run the
sequential operators at every width; ``prw``
(:func:`repro.engine.engine_rewrite`) runs the conflict-wave scheduler,
whose conflict planning and incremental re-snapshot are tested here on
arithmetic circuits whose outputs are not constant.  The resynthesis
pool (:class:`repro.engine.ResynthExecutor`) is unused and slated for
deletion; its tests stay until it goes.
"""

import pytest

from repro.aig.io_bench import to_text
from repro.aig.mffc import mffc_nodes
from repro.circuits.arith import divider, hypotenuse, isqrt
from repro.cuts.reconv import reconv_cut
from repro.elf import ElfClassifier
from repro.engine import (
    Candidate,
    EngineParams,
    EngineStats,
    ResynthExecutor,
    RewriteEngineParams,
    build_conflict_graph,
    color_waves,
    engine_refactor,
    engine_rewrite,
    resynthesize_batch,
)
from repro.errors import ReproError
from repro.ml import MLP
from repro.opt import RefactorParams, refactor, run_flow
from repro.opt.rewrite import rewrite
from repro.verify import equivalent
from repro.verify.cec import exhaustive_pi_patterns

from .util import po_truth_tables, random_aig


def constant_classifier(keep_everything=True):
    model = MLP((6, 2, 1), seed=0)
    for w in model.weights:
        w[:] = 0.0
    model.biases[-1][:] = 10.0 if keep_everything else -10.0
    return ElfClassifier(model, threshold=0.5)


def snapshot_candidates(g, max_leaves=10):
    """The engine's phase-1 snapshot, reproduced for white-box tests."""
    candidates = []
    for node in g.and_ids():
        cut = reconv_cut(g, node, max_leaves, collect_features=False)
        if cut.n_leaves < 2:
            continue
        candidates.append(
            Candidate(
                node=node,
                leaves=tuple(cut.leaves),
                interior=frozenset(cut.interior),
                mffc=frozenset(mffc_nodes(g, node, boundary=set(cut.leaves))),
            )
        )
    return candidates


def cut_tasks(g, limit=None):
    """``(truth table, leaf count)`` of every snapshot candidate's cut."""
    from repro.aig.simulate import cone_truth

    return [
        (cone_truth(g, c.node, list(c.leaves)), len(c.leaves))
        for c in snapshot_candidates(g)[:limit]
    ]


def rewrite_waves(g, workers=2):
    """One ``prw`` pass over ``g`` in place; returns its stats."""
    return engine_rewrite(g, RewriteEngineParams(workers=workers))


class TestConflictGraph:
    def test_waves_are_mffc_disjoint(self):
        g = divider(5)
        candidates = snapshot_candidates(g)
        adjacency, n_edges = build_conflict_graph(candidates)
        waves = color_waves(adjacency)
        assert n_edges > 0  # a dense circuit must have real conflicts
        for wave in waves:
            for pos, i in enumerate(wave):
                for j in wave[pos + 1 :]:
                    assert not (candidates[i].mffc & candidates[j].mffc), (
                        candidates[i].node,
                        candidates[j].node,
                    )

    def test_waves_partition_candidates(self):
        g = random_aig(8, 200, 6, seed=2)
        candidates = snapshot_candidates(g)
        adjacency, _ = build_conflict_graph(candidates)
        waves = color_waves(adjacency)
        flat = sorted(i for wave in waves for i in wave)
        assert flat == list(range(len(candidates)))

    def test_conflicting_pair_separated(self):
        g = random_aig(8, 200, 6, seed=3)
        candidates = snapshot_candidates(g)
        adjacency, _ = build_conflict_graph(candidates)
        waves = color_waves(adjacency)
        color_of = {}
        for color, wave in enumerate(waves):
            for i in wave:
                color_of[i] = color
        for i, neighbors in enumerate(adjacency):
            for j in neighbors:
                assert color_of[i] != color_of[j]

    def test_footprint_covers_cone_and_mffc(self):
        c = Candidate(
            node=9,
            leaves=(2, 3),
            interior=frozenset({9, 7}),
            mffc=frozenset({9, 8}),
        )
        assert c.footprint == {2, 3, 7, 8, 9}


class TestWorkersOneParity:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_identical_to_sequential_refactor(self, seed):
        g = random_aig(10, 500, 10, seed=seed)
        sequential, engine = g.clone(), g.clone()
        seq_stats = refactor(sequential)
        eng_stats = engine_refactor(engine, EngineParams(workers=1))
        assert eng_stats.delegated
        assert engine.n_ands == sequential.n_ands
        assert engine.max_level() == sequential.max_level()
        assert eng_stats.commits == seq_stats.commits
        assert eng_stats.fails == seq_stats.fails

    def test_zero_cost_and_levels_delegate_too(self):
        g = isqrt(6)
        params = RefactorParams(zero_cost=True, preserve_levels=True)
        sequential, engine = g.clone(), g.clone()
        refactor(sequential, params)
        engine_refactor(engine, EngineParams(refactor=params, workers=1))
        assert engine.n_ands == sequential.n_ands

    def test_classifier_delegates_to_elf(self):
        from repro.elf import ElfParams, elf_refactor

        g = hypotenuse(4)
        clf = constant_classifier(True)
        sequential, engine = g.clone(), g.clone()
        elf_refactor(sequential, clf, ElfParams())
        stats = engine_refactor(engine, EngineParams(workers=1), classifier=clf)
        assert stats.delegated
        assert engine.n_ands == sequential.n_ands


class TestWaveEngine:
    """``pf`` at two or more workers is the sequential sweep, not waves."""

    def test_equivalent_and_close_to_sequential(self):
        g = divider(5)
        sequential, engine = g.clone(), g.clone()
        seq_stats = refactor(sequential)
        eng_stats = engine_refactor(engine, EngineParams(workers=2))
        assert eng_stats.delegated and eng_stats.workers == 2
        assert to_text(engine) == to_text(sequential)
        assert eng_stats.commits == seq_stats.commits > 0
        assert equivalent(g, engine, method="exhaustive")

    def test_stats_are_consistent(self):
        g = isqrt(6)
        stats = engine_refactor(g, EngineParams(workers=2))
        assert isinstance(stats, EngineStats)
        assert stats.nodes_visited == stats.commits + stats.fails + stats.pruned
        assert stats.screened == stats.fail_screened
        assert stats.time_total > 0

    def test_classifier_prunes_in_waves(self):
        g = hypotenuse(4)
        stats = engine_refactor(
            g.clone(), EngineParams(workers=2), classifier=constant_classifier(False)
        )
        assert stats.commits == 0
        assert stats.pruned == stats.nodes_visited > 0

        keep = g.clone()
        stats_keep = engine_refactor(
            keep, EngineParams(workers=2), classifier=constant_classifier(True)
        )
        assert stats_keep.pruned == 0
        assert stats_keep.commits > 0
        assert equivalent(g, keep, method="exhaustive")

    def test_preserve_levels_respected(self):
        g = divider(5)
        level_before = g.max_level()
        engine_refactor(
            g, EngineParams(refactor=RefactorParams(preserve_levels=True), workers=2)
        )
        assert g.max_level() <= level_before

    @pytest.mark.slow
    def test_acceptance_5k_nodes_workers_4(self):
        """A 5k-node circuit at 4 workers: byte-identical to sequential
        refactor and CEC-equivalent to its input."""
        from repro.circuits import layered_random_aig

        g = layered_random_aig(14, 5500, seed=11)
        assert g.n_ands >= 5000
        sequential, engine = g.clone(), g.clone()
        refactor(sequential)
        stats = engine_refactor(engine, EngineParams(workers=4))
        assert stats.workers == 4
        assert to_text(engine) == to_text(sequential)
        assert equivalent(g, engine)


class TestParallelExecutor:
    def test_pool_matches_in_process(self):
        tasks = cut_tasks(divider(5), limit=40)
        params = RefactorParams()
        inline = resynthesize_batch(tasks, params)
        with ResynthExecutor(2, params) as executor:
            pooled = executor.run(tasks)
        assert pooled == inline

    def test_empty_and_single_worker(self):
        params = RefactorParams()
        with ResynthExecutor(1, params) as executor:
            assert executor.in_process
            assert executor.run([]) == []
            assert executor.run([(0b1000, 2)]) == resynthesize_batch(
                [(0b1000, 2)], params
            )

    def test_unknown_transport_rejected(self):
        with pytest.raises(ReproError, match="transport"):
            ResynthExecutor(2, RefactorParams(), transport="carrier-pigeon")


@pytest.fixture
def two_cores(monkeypatch):
    """Force ``will_pool`` past the executor's single-core guard."""
    import repro.engine.parallel as parallel

    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)


class TestSharedMemoryTransport:
    """The packed-wave shm transport: bit-identical, leak-free, crash-safe."""

    def test_transports_are_bench_identical_and_leak_free(self, two_cores):
        from repro import obs
        from repro.engine.pack import leaked_segments

        obs.reset()
        before = leaked_segments()
        tasks = cut_tasks(divider(5))
        params = RefactorParams()
        results = {}
        for transport in ("shm", "pickle"):
            with ResynthExecutor(2, params, transport=transport) as executor:
                assert executor.will_pool(len(tasks))
                results[transport] = executor.run(tasks)
        assert results["shm"] == results["pickle"] == resynthesize_batch(tasks, params)
        reg = obs.metrics()
        created = reg.value("engine_shm_segments_created_total")
        assert created > 0
        assert created == reg.value("engine_shm_segments_unlinked_total")
        # Descriptor messages are a fraction of the pickled task lists
        # even on this small circuit (a full 10-leaf wave reduces
        # further; test_single_wave_bytes_reduction pins that).
        shm_bytes = reg.value("engine_task_bytes_total", transport="shm")
        pickle_bytes = reg.value("engine_task_bytes_total", transport="pickle")
        assert shm_bytes < 0.5 * pickle_bytes
        assert leaked_segments() == before

    def test_single_wave_bytes_reduction(self, two_cores):
        """One realistic wave ships >= 80% fewer serialized bytes on shm."""
        import random

        from repro import obs
        from repro.aig.simulate import full_mask

        obs.reset()
        rng = random.Random(13)
        tasks = [(rng.getrandbits(1 << 10) & full_mask(10), 10) for _ in range(200)]
        params = RefactorParams()
        results = {}
        for transport in ("shm", "pickle"):
            with ResynthExecutor(2, params, transport=transport) as executor:
                assert executor.will_pool(len(tasks))
                results[transport] = executor.run(tasks)
        assert results["shm"] == results["pickle"]
        reg = obs.metrics()
        shm_bytes = reg.value("engine_task_bytes_total", transport="shm")
        pickle_bytes = reg.value("engine_task_bytes_total", transport="pickle")
        assert shm_bytes <= 0.2 * pickle_bytes, (shm_bytes, pickle_bytes)

    def test_worker_crash_leaves_no_segments(self, two_cores, monkeypatch):
        import os as _os

        from repro import obs
        import repro.engine.parallel as parallel
        from repro.engine.pack import leaked_segments

        obs.reset()
        obs.configure(enabled=True)
        try:
            before = leaked_segments()
            parent_pid = _os.getpid()
            real = parallel.resynthesize_batch
            g = divider(5)
            tasks = cut_tasks(g)
            params = RefactorParams()
            inline = real(tasks, params)

            def flaky(batch, batch_params):
                # Dies only inside worker processes; the parent's
                # chunk-level recompute (same body) succeeds.
                if _os.getpid() != parent_pid:
                    raise RuntimeError("injected worker crash")
                return real(batch, batch_params)

            # Patch before the pool forks so workers inherit the crash.
            monkeypatch.setattr(parallel, "resynthesize_batch", flaky)
            with ResynthExecutor(2, params, transport="shm") as executor:
                assert executor.run(tasks) == inline
            reg = obs.metrics()
            assert reg.value("engine_worker_chunks_failed_total") > 0
            created = reg.value("engine_shm_segments_created_total")
            assert created > 0
            assert created == reg.value("engine_shm_segments_unlinked_total")
            assert leaked_segments() == before
        finally:
            obs.configure(enabled=False)


class TestFlowCommands:
    def test_pf_command(self):
        g = divider(5)
        out, report = run_flow(g.clone(), "pf -w 2")
        assert equivalent(g, out, method="exhaustive")
        assert out.n_ands <= g.n_ands
        assert isinstance(report.steps[0].detail, EngineStats)

    def test_pelf_command_requires_classifier(self):
        g = random_aig(6, 60, 3, seed=1)
        with pytest.raises(ReproError):
            run_flow(g, "pelf")

    def test_pelf_command(self):
        g = isqrt(6)
        out, report = run_flow(
            g.clone(), "pelf -w 2", classifier=constant_classifier(True)
        )
        assert equivalent(g, out, method="exhaustive")
        assert isinstance(report.steps[0].detail, EngineStats)

    def test_pfz_preserve_levels_variant(self):
        g = hypotenuse(4)
        out, _ = run_flow(g.clone(), "pfz -l -w 2")
        assert equivalent(g, out, method="exhaustive")

    def test_bad_workers_flag(self):
        g = random_aig(6, 60, 3, seed=1)
        with pytest.raises(ReproError):
            run_flow(g, "pf -w")
        with pytest.raises(ReproError):
            run_flow(g, "pf -w x")


class TestExhaustiveSimCec:
    def test_patterns_match_truth_table_order(self):
        from repro.aig.simulate import var_mask

        n = 8
        patterns = exhaustive_pi_patterns(n)
        for var in range(n):
            packed = 0
            for w in range(patterns.shape[1]):
                packed |= int(patterns[var, w]) << (64 * w)
            assert packed == var_mask(var, n)

    def test_exhaustive_sim_agrees_with_tables(self):
        g = random_aig(13, 250, 8, seed=5)  # 13 PIs: beyond the table path
        h = g.clone()
        refactor(h)
        assert equivalent(g, h, method="exhaustive-sim")
        assert po_truth_tables(g) == po_truth_tables(h)

    def test_exhaustive_sim_catches_difference(self):
        g = random_aig(13, 250, 8, seed=6)
        h = g.clone()
        # Flip one PO's phase: a guaranteed functional difference.
        h.set_po(0, h.pos[0] ^ 1)
        assert not equivalent(g, h, method="exhaustive-sim")


class TestPipelineIntegration:
    def test_engine_scaling_rows(self):
        from repro.harness import engine_scaling

        g = divider(5)
        rows = engine_scaling(g, workers_list=(1, 2))
        assert [r.workers for r in rows] == [0, 1, 2]
        assert rows[0].speedup == 1.0
        assert rows[1].n_ands == rows[0].n_ands  # workers=1 delegates
        for row in rows[1:]:
            assert row.runtime > 0 and row.speedup > 0


def crafted_stale_circuit(n=10):
    """Interleaved xor/majority towers sharing leaves: early-wave commits
    restructure shared cones, forcing cross-wave snapshot invalidation."""
    from repro.aig.graph import AIG

    g = AIG("crafted-stale")
    xs = [g.add_pi(f"x{i}") for i in range(n)]
    carry = xs[0]
    for i in range(1, n):
        s = g.add_xor(carry, xs[i])
        maj = g.add_or(g.add_and(carry, xs[i]), g.add_and(s, xs[(i + 1) % n]))
        t = g.add_xor(s, maj)
        carry = g.add_or(g.add_and(t, s), g.add_and(maj, xs[i - 1]))
        g.add_po(t, f"t{i}")
    g.add_po(carry, "carry")
    return g


class TestIncrementalResnapshot:
    """Cross-wave invalidation on ``prw``: the re-snapshot pipeline that
    replaced the sequential fallback."""

    def test_crafted_staleness_is_resnapshotted_not_replayed(self):
        g = crafted_stale_circuit(10)
        eng = g.clone()
        stats = rewrite_waves(eng)
        assert stats.n_stale == 0  # the fallback path no longer exists
        assert stats.n_resnapshotted > 0  # staleness really occurred
        assert stats.n_invalidated >= stats.n_resnapshotted
        assert equivalent(g, eng, method="exhaustive")

    def test_incremental_path_is_deterministic_bench_identical(self):
        g = crafted_stale_circuit(10)
        first, second = g.clone(), g.clone()
        s1 = rewrite_waves(first)
        s2 = rewrite_waves(second)
        assert s1.n_resnapshotted == s2.n_resnapshotted > 0
        assert to_text(first) == to_text(second)

    def test_quality_tracks_sequential_on_stale_heavy_circuit(self):
        g = divider(5)
        sequential, eng = g.clone(), g.clone()
        rewrite(sequential)
        stats = rewrite_waves(eng)
        assert stats.n_stale == 0
        assert stats.n_resnapshotted > 0
        assert equivalent(g, eng, method="exhaustive")
        diff = abs(eng.n_ands - sequential.n_ands) / max(1, sequential.n_ands)
        assert diff <= 0.02, (eng.n_ands, sequential.n_ands)

    def test_stats_invariants_with_repair_waves(self):
        g = isqrt(6)
        stats = rewrite_waves(g)
        # Roots whose cuts all went stale are visited but try nothing.
        assert stats.commits + stats.fail_gain <= stats.nodes_visited
        assert stats.n_waves >= stats.n_repair_waves > 0
        assert 0.0 < stats.resnapshot_rate <= 1.0
        assert stats.n_unique_tasks <= stats.n_tasks

    def test_candidate_index_invalidation_lookup(self):
        from repro.engine import CandidateIndex

        c0 = Candidate(node=9, leaves=(2, 3), interior=frozenset({9, 7}), mffc=frozenset({9}))
        c1 = Candidate(node=12, leaves=(4, 5), interior=frozenset({12}), mffc=frozenset({12}))
        index = CandidateIndex()
        index.add(0, c0)
        index.add(1, c1)
        pending = {0, 1}
        assert index.invalidated({7}, pending) == {0}
        assert index.invalidated({4}, pending) == {1}  # leaf death counts
        assert index.invalidated({99}, pending) == set()
        assert index.invalidated({7, 4}, {1}) == {1}  # pending-filtered


class TestResynthCache:
    def test_exact_entries_are_bit_identical(self):
        from repro.engine import ResynthCache
        from repro.opt.refactor import _resynthesize

        params = RefactorParams()
        cache = ResynthCache()
        entry = _resynthesize(0b1000_0110_0110_1000, 4, params, cache)
        again = _resynthesize(0b1000_0110_0110_1000, 4, params, cache)
        assert entry == again
        assert cache.hits_exact >= 1

    def test_npn_view_remaps_class_hits_functionally(self):
        import random

        from repro.aig.simulate import full_mask
        from repro.engine import ResynthCache
        from repro.opt.refactor import _resynthesize

        params = RefactorParams()
        full = full_mask(4)
        cache = ResynthCache()
        view = cache.npn_view()
        rng = random.Random(7)
        for _ in range(120):
            tt = rng.randrange(1 << 16)
            entry = view.get((tt, 4))
            if entry is None:
                entry = _resynthesize(tt, 4, params, None)
                view[(tt, 4)] = entry
            tree, inverted = entry
            assert tree.eval_tt(4) ^ (full if inverted else 0) == tt
        assert cache.hits_npn > 0
        assert cache.hits_exact + cache.hits_npn + cache.misses == 120

    def test_exact_handle_never_serves_npn(self):
        from repro.engine import ResynthCache
        from repro.opt.refactor import _resynthesize

        cache = ResynthCache()
        view = cache.npn_view()
        # Stored through the NPN view, so the canonical table is
        # populated; a base-handle store skips canonization.
        view[(0x6666, 4)] = _resynthesize(0x6666, 4, RefactorParams(), None)
        assert cache.get((0x9999, 4)) is None  # NPN-equivalent, exact miss
        assert view.get((0x9999, 4)) is not None
        # The remap lives in the view's overlay only: the exact handle
        # must still miss, or sequential sharers would observe
        # NPN-derived trees and lose their bit-identity guarantee.
        assert cache.get((0x9999, 4)) is None
        assert (0x9999, 4) not in cache
        # A second view does not inherit the first view's overlay but can
        # re-derive the remap from the shared canonical table.
        assert cache.npn_view().get((0x9999, 4)) is not None

    def test_flow_level_cache_keeps_sequential_flows_bit_identical(self):
        g = divider(5)
        flowed, _report = run_flow(g.clone(), "rf; rfz")
        manual = g.clone()
        refactor(manual)
        refactor(manual, RefactorParams(zero_cost=True))
        assert to_text(flowed) == to_text(manual)

    def test_engine_shares_cache_across_passes(self):
        from repro.engine import ResynthCache

        g = isqrt(6)
        cache = ResynthCache()
        eng = g.clone()
        engine_refactor(eng, EngineParams(workers=2, resynth_cache=cache))
        warm = len(cache)
        assert warm > 0
        stats2 = engine_refactor(eng, EngineParams(workers=2, resynth_cache=cache))
        assert stats2.n_cache_hits > 0  # second pass starts warm
