"""Tests for ``prw`` / ``prwz``: aliases of ``rw`` / ``rwz`` that accept ``-w``.

Both run the registry's rewrite executor, so ``prw -w N`` must equal
``rw`` byte for byte at every ``N``, and the step's detail is the
sequential :class:`repro.opt.RewriteStats`.  The circuits are
arithmetic and random generators whose outputs are not constant.
"""

import pytest

from repro.aig.io_bench import to_text
from repro.circuits.arith import divider, hypotenuse, isqrt
from repro.engine import ResynthCache
from repro.errors import ReproError
from repro.opt import (
    OptSession,
    RewriteParams,
    RewriteStats,
    default_library,
    rewrite,
    run_flow,
)
from repro.verify import equivalent

from .util import random_aig, shared_input_arith


class TestWorkersOneParity:
    @pytest.mark.parametrize("seed", [3, 13, 21])
    def test_bit_identical_to_sequential_rewrite(self, seed):
        g = random_aig(10, 500, 10, seed=seed)
        sequential = g.clone()
        seq_stats = rewrite(sequential)
        via_flow, report = run_flow(g.clone(), "prw -w 1")
        stats = report.steps[0].detail
        assert to_text(via_flow) == to_text(sequential)
        assert stats.commits == seq_stats.commits > 0
        assert stats.gain_total == seq_stats.gain_total
        assert stats.cuts_tried == seq_stats.cuts_tried
        assert stats.stale_cuts == seq_stats.stale_cuts

    def test_flow_prw_w1_matches_rw(self):
        g = divider(5)
        via_flow, report = run_flow(g.clone(), "prw -w 1")
        sequential = g.clone()
        rewrite(sequential)
        assert to_text(via_flow) == to_text(sequential)
        assert isinstance(report.steps[0].detail, RewriteStats)

    def test_zero_cost_delegates_too(self):
        g = isqrt(6)
        sequential = g.clone()
        rewrite(sequential, RewriteParams(zero_cost=True))
        via_flow, _report = run_flow(g.clone(), "prwz -w 1")
        assert to_text(via_flow) == to_text(sequential)


class TestParityOnNonConstantCircuits:
    def test_w2_is_equivalent(self, screen_circuits):
        """``prw -w 2`` equals ``rw`` byte for byte, and both are
        CEC-clean: exhaustive on the arithmetic circuits (<= 12 PIs), a
        random-simulation screen on the industrial ones (22 and 90 PIs),
        because pure-Python SAT does not finish on them."""
        commits = 0
        for g in screen_circuits.values():
            out, report = run_flow(g.clone(), "prw -w 2")
            sequential, _ = run_flow(g.clone(), "rw")
            assert to_text(out) == to_text(sequential)
            commits += report.steps[0].detail.commits
            method = "exhaustive" if g.n_pis <= 12 else "sim"
            assert equivalent(g, out, method=method, n_random_words=64)
        assert commits > 0


class TestWaveRewrite:
    """``prw`` at two or more workers is the sequential sweep, not waves."""

    @pytest.mark.parametrize("seed,n_ands", [(21, 1200), (13, 800)])
    def test_cec_and_close_to_sequential(self, seed, n_ands):
        g = random_aig(12, n_ands, 12, seed=seed)
        sequential = g.clone()
        seq_stats = rewrite(sequential)
        out, report = run_flow(g.clone(), "prw -w 2")
        assert to_text(out) == to_text(sequential)
        assert report.steps[0].detail.commits == seq_stats.commits > 0
        assert equivalent(g, out, method="exhaustive")

    def test_deterministic_bench_identical(self):
        g = hypotenuse(4)
        first, r1 = run_flow(g.clone(), "prw -w 2")
        second, r2 = run_flow(g.clone(), "prw -w 4")
        assert to_text(first) == to_text(second)
        assert r1.steps[0].detail.commits == r2.steps[0].detail.commits

    def test_zero_cost_and_levels_variant(self):
        g = isqrt(6)
        level_before = g.max_level()
        out, _report = run_flow(g.clone(), "prwz -l -w 2")
        sequential, _ = run_flow(g.clone(), "rwz -l")
        assert to_text(out) == to_text(sequential)
        assert equivalent(g, out, method="exhaustive")
        assert out.max_level() <= level_before

    def test_stats_consistency(self):
        g = divider(5)
        _out, report = run_flow(g.clone(), "prw -w 2")
        stats = report.steps[0].detail
        seq_stats = rewrite(g.clone())
        assert isinstance(stats, RewriteStats)
        assert stats.commits <= stats.nodes_visited
        assert (stats.screened, stats.bounded) == (
            seq_stats.screened,
            seq_stats.bounded,
        )
        assert stats.bounded > 0
        assert stats.time_total > 0

    def test_bad_workers_flag(self):
        g = random_aig(8, 60, 3, seed=1)
        with pytest.raises(ReproError):
            run_flow(g, "prw -w")

    @pytest.mark.slow
    def test_acceptance_layered_5k_workers_2(self):
        """Acceptance: on a 5k-node circuit with non-constant outputs,
        ``prw -w 2`` is CEC-clean and byte-identical to ``rw``."""
        g = shared_input_arith()
        assert g.n_ands >= 5000
        sequential = g.clone()
        rewrite(sequential)
        out, _report = run_flow(g.clone(), "prw -w 2")
        assert to_text(out) == to_text(sequential)
        assert out.n_ands < g.n_ands
        assert equivalent(g, out)  # auto -> exact exhaustive simulation


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

    def test_flow_shares_library_layer_across_steps(self):
        """Both rewrite steps use the session's one NPN library; neither
        touches the resynthesis cache."""
        g = divider(5)
        with OptSession() as session:
            out, report = session.run(g.clone(), "prw -w 2; prwz -w 2")
            assert session.stats.library_created
            assert not session.cache_materialized
        sequential, _ = run_flow(g.clone(), "rw; rwz")
        assert to_text(out) == to_text(sequential)
        assert all(isinstance(s.detail, RewriteStats) for s in report.steps)


class TestServeCompatibility:
    def test_served_prw_flow_is_byte_identical_at_w1(self):
        from repro.harness import serve_throughput

        suite = {"div": divider(5), "sqrt": isqrt(6), "hyp": hypotenuse(4)}
        rows, report = serve_throughput(
            suite, flow="b; prw; b", n_shards=2, workers=1, check_identity=True
        )
        assert len(rows) == 3
        assert all(row.error is None for row in rows)
        assert all(row.identical for row in rows)
