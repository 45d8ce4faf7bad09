"""Tests for the sharded multi-circuit serving layer (`repro.serve`)."""

import threading

import numpy as np
import pytest

from repro.aig.io_bench import from_text, to_text
from repro.elf import ElfClassifier
from repro.errors import ReproError
from repro.harness import serve_throughput
from repro.ml import MLP
from repro.opt import run_flow
from repro.serve import (
    ServeParams,
    SharedClassifierService,
    assign_shards,
    needs_classifier,
    serve_stream,
    serve_suite,
)
from repro.verify import equivalent

from .util import random_aig


def small_suite(n=4, seed0=40):
    return {
        f"c{i}": random_aig(7, 120 + 30 * i, 4, seed=seed0 + i, name=f"c{i}")
        for i in range(n)
    }


def nontrivial_classifier(seed=2):
    """Untrained but decision-varied classifier (no training cost)."""
    return ElfClassifier(MLP((6, 8, 1), seed=seed), threshold=0.5)


class TestShardPlan:
    def test_deterministic_and_partitioned(self):
        suite = small_suite(6)
        plan_a = assign_shards(suite, 3)
        plan_b = assign_shards(dict(reversed(list(suite.items()))), 3)
        assert plan_a.shards == plan_b.shards  # insertion order is irrelevant
        names = [n for members in plan_a.shards for n in members]
        assert sorted(names) == sorted(suite)
        assert len(names) == len(set(names))

    def test_lpt_balances_loads(self):
        suite = small_suite(8)
        cost = {name: (i + 1) * 10 for i, name in enumerate(sorted(suite))}
        plan = assign_shards(suite, 2, cost)
        loads = [plan.load(0), plan.load(1)]
        assert abs(loads[0] - loads[1]) <= max(cost.values())
        assert plan.imbalance < 1.5

    def test_shard_count_capped_at_suite_size(self):
        suite = small_suite(3)
        plan = assign_shards(suite, 10)
        assert plan.n_shards == 3
        assert all(len(members) == 1 for members in plan.shards)

    def test_shard_of_and_errors(self):
        suite = small_suite(4)
        plan = assign_shards(suite, 2)
        for name in suite:
            assert name in plan.shards[plan.shard_of(name)]
        with pytest.raises(ReproError):
            plan.shard_of("nope")
        with pytest.raises(ReproError):
            assign_shards(suite, 0)
        with pytest.raises(ReproError):
            assign_shards(suite, 2, cost={"c0": 1})  # incomplete cost map

    def test_empty_suite(self):
        plan = assign_shards({}, 4)
        assert plan.shards == ()
        assert plan.names == ()


class TestFusedClassification:
    def test_fused_equals_per_batch_bitwise(self):
        clf = nontrivial_classifier()
        rng = np.random.default_rng(0)
        # Mix of MVN-sized, small (fallback-normalized) and empty batches.
        batches = [rng.uniform(0, 12, size=(n, 6)) for n in (50, 3, 0, 17, 16)]
        masks = clf.fused_keep_masks(batches)
        probs = clf.fused_predict_proba(batches)
        assert len(masks) == len(batches)
        for batch, mask, prob in zip(batches, masks, probs):
            # Masks must agree exactly; probabilities to machine epsilon
            # (BLAS picks shape-dependent kernels, so the stacked matmul
            # can differ from the per-batch one in the last ulp).
            assert np.array_equal(clf.keep_mask(batch), mask)
            assert np.allclose(clf.predict_proba(batch), prob, rtol=0, atol=1e-12)

    def test_fused_all_empty(self):
        clf = nontrivial_classifier()
        masks = clf.fused_keep_masks([np.zeros((0, 6)), np.zeros((0, 6))])
        assert all(m.shape == (0,) for m in masks)

    def test_service_rounds_are_lockstep(self):
        clf = nontrivial_classifier()
        service = SharedClassifierService(clf, ["a", "b", "c"])
        rng = np.random.default_rng(1)
        requests = {"a": 3, "b": 1, "c": 2}  # requests per client
        received = {}

        def client_body(name):
            with service.client(name) as client:
                out = []
                for r in range(requests[name]):
                    out.append(client.keep_mask(rng.uniform(0, 5, size=(4 + r, 6))))
                received[name] = out

        threads = [
            threading.Thread(target=client_body, args=(n,)) for n in requests
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        # Round r serves the r-th request of every client still running:
        # round 1 = {a,b,c}, round 2 = {a,c}, round 3 = {a}.
        assert [r[0] for r in service.stats.rounds] == [3, 2, 1]
        assert service.stats.n_subbatches == 6
        assert service.stats.mean_occupancy == pytest.approx(2.0)
        assert service.stats.amortization == pytest.approx(0.5)
        assert all(len(received[n]) == requests[n] for n in requests)

    def test_service_propagates_classifier_errors(self):
        class Exploding:
            def fused_keep_masks(self, batches):
                raise ValueError("boom")

        service = SharedClassifierService(Exploding(), ["a", "b"])
        errors = []

        def client_body(name):
            try:
                with service.client(name) as client:
                    client.keep_mask(np.zeros((2, 6)))
            except ValueError as error:
                errors.append((name, str(error)))

        threads = [threading.Thread(target=client_body, args=(n,)) for n in "ab"]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert sorted(n for n, _ in errors) == ["a", "b"]

    def test_script_predicates(self):
        assert needs_classifier("b; elf; b")
        assert needs_classifier("pelfz -w 2")
        assert not needs_classifier("b; rw; rf")
        assert not needs_classifier("pf -w 4; prw -w 2")


class TestServeStream:
    def test_streamed_matches_blocking_runs(self):
        suite = small_suite(4)
        report = serve_suite(suite, ServeParams(flow="b; rf; b", n_shards=2))
        assert report.ok
        assert sorted(r.order for r in report.results) == [0, 1, 2, 3]
        for name, g in suite.items():
            blocking, _ = run_flow(g.clone(), "b; rf; b")
            result = report.result_of(name)
            assert result.bench_text == to_text(blocking)
            assert result.n_ands == blocking.n_ands
            assert g.n_ands == suite[name].n_ands  # inputs untouched

    def test_elf_flow_fused_serving_is_byte_identical(self):
        suite = small_suite(5)
        clf = nontrivial_classifier()
        report = serve_suite(
            suite, ServeParams(flow="b; elf; b", n_shards=2, workers=1), classifier=clf
        )
        assert report.ok
        for name, g in suite.items():
            blocking, _ = run_flow(g.clone(), "b; elf; b", classifier=clf)
            assert report.result_of(name).bench_text == to_text(blocking), name
        # Both shards hold >= 2 circuits, so fusion must actually batch.
        assert report.fusion
        for stats in report.fusion.values():
            assert stats.mean_occupancy > 1.0
            assert stats.amortization > 0.0

    def test_pelf_workers1_delegation_identical(self):
        suite = small_suite(3)
        clf = nontrivial_classifier()
        report = serve_suite(
            suite, ServeParams(flow="pelf", n_shards=2, workers=1), classifier=clf
        )
        assert report.ok
        for name, g in suite.items():
            blocking, _ = run_flow(g.clone(), "pelf", classifier=clf, engine_workers=1)
            assert report.result_of(name).bench_text == to_text(blocking), name

    def test_stream_yields_incrementally(self):
        suite = small_suite(3)
        seen = []
        for result in serve_stream(suite, ServeParams(flow="rf", n_shards=3)):
            seen.append((result.order, result.name))
        assert [order for order, _ in seen] == [0, 1, 2]
        assert sorted(name for _, name in seen) == sorted(suite)

    def test_errors_are_isolated_not_fatal(self):
        suite = small_suite(3)
        # elf without a classifier fails inside each circuit's flow; the
        # stream must still deliver one (error) result per circuit.
        report = serve_suite(suite, ServeParams(flow="b; elf", n_shards=2))
        assert not report.ok
        assert len(report.results) == 3
        for result in report.results:
            assert result.error is not None and "classifier" in result.error

    def test_classifier_failure_unblocks_whole_shard(self):
        class Exploding:
            threshold = 0.5

            def fused_keep_masks(self, batches):
                raise RuntimeError("inference backend down")

            def keep_mask(self, features):
                raise RuntimeError("inference backend down")

        suite = small_suite(3)
        report = serve_suite(
            suite, ServeParams(flow="elf", n_shards=1), classifier=Exploding()
        )
        assert len(report.results) == 3
        assert all(not r.ok for r in report.results)

    def test_engine_flow_with_shared_pool(self):
        suite = small_suite(3)
        report = serve_suite(suite, ServeParams(flow="pf", n_shards=2, workers=2))
        assert report.ok
        for name, g in suite.items():
            assert equivalent(g, from_text(report.result_of(name).bench_text)), name


class TestFlowServerHooks:
    def test_f_fz_aliases(self):
        g = random_aig(7, 150, 4, seed=3)
        via_alias, _ = run_flow(g.clone(), "f; fz")
        via_canonical, _ = run_flow(g.clone(), "rf; rfz")
        assert to_text(via_alias) == to_text(via_canonical)

    def test_engine_workers_default_applies(self):
        g = random_aig(7, 150, 4, seed=4)
        _, report = run_flow(g.clone(), "pf", engine_workers=1)
        assert report.steps[0].detail.workers == 1
        assert report.steps[0].detail.delegated
        # explicit -w beats the default
        _, report = run_flow(g.clone(), "pf -w 2", engine_workers=1)
        assert report.steps[0].detail.workers == 2

    def test_serve_sizes_pool_for_script_pins(self):
        # A script-level "-w 2" under ServeParams(workers=1) is served,
        # byte-identical to a blocking rf (pf runs rf at every width).
        suite = small_suite(2)
        report = serve_suite(suite, ServeParams(flow="pf -w 2", n_shards=2, workers=1))
        assert report.ok
        for name, g in suite.items():
            assert equivalent(g, from_text(report.result_of(name).bench_text)), name
            blocking, _ = run_flow(g.clone(), "rf")
            assert report.result_of(name).bench_text == to_text(blocking), name


class TestServeThroughputHarness:
    def test_rows_and_identity_audit(self):
        suite = small_suite(4)
        rows, report = serve_throughput(suite, flow="rf", n_shards=2, workers=1)
        assert len(rows) == 4
        assert sorted(row.order for row in rows) == [0, 1, 2, 3]
        assert all(row.identical is True for row in rows)
        assert all(row.error is None for row in rows)
        assert report.wall_time > 0
        assert report.circuits_per_second > 0
