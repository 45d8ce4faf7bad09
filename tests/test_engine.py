"""Tests for the engine commands.

``pf`` / ``pelf`` (:func:`repro.engine.engine_refactor`) run the
sequential operators at every width; they are tested here on arithmetic
circuits whose outputs are not constant.  ``prw`` / ``prwz`` are
registry aliases of ``rw`` / ``rwz``, tested with the rewrite operator.
"""

import pytest

from repro.aig.io_bench import to_text
from repro.circuits.arith import divider, hypotenuse, isqrt
from repro.elf import ElfClassifier
from repro.engine import EngineParams, EngineStats, engine_refactor
from repro.errors import ReproError
from repro.ml import MLP
from repro.opt import RefactorParams, refactor, run_flow
from repro.verify import equivalent
from repro.verify.cec import exhaustive_pi_patterns

from .util import po_truth_tables, random_aig, shared_input_arith


def constant_classifier(keep_everything=True):
    model = MLP((6, 2, 1), seed=0)
    for w in model.weights:
        w[:] = 0.0
    model.biases[-1][:] = 10.0 if keep_everything else -10.0
    return ElfClassifier(model, threshold=0.5)


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
        g = shared_input_arith()
        assert g.n_ands >= 5000
        sequential, engine = g.clone(), g.clone()
        refactor(sequential)
        stats = engine_refactor(engine, EngineParams(workers=4))
        assert stats.workers == 4
        assert to_text(engine) == to_text(sequential)
        assert equivalent(g, engine)


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
