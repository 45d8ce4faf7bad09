"""Tests for the production serve front: shard processes + service.

Covers the contracts the service is built on: `serve_suite_procs`
results are byte-identical to blocking derivation at ``workers=1``
(cold, warm-through-cache, and across an injected shard-process kill
with only that shard's circuits re-run), and the asyncio service
applies admission control and typed validation before any shard sees a
request.
"""

import asyncio
import multiprocessing
import os
import time

import pytest

from repro import obs
from repro.aig.io_bench import from_text, to_text
from repro.harness import serve_throughput
from repro.opt import OptSession, run_flow
from repro.resilience import faults
from repro.serve import (
    CachedResult,
    ResultStore,
    ServeParams,
    serve_suite,
    serve_suite_procs,
)
from repro.serve import store as store_module
from repro.serve.shard import run_circuit
from repro.serve.service import (
    OptimizeService,
    ServiceConfig,
    request,
    run_service,
)

from .util import random_aig

FLOW = "b; rf"


def small_suite(n=4, seed0=70):
    return {
        f"c{i}": random_aig(6, 80 + 20 * i, 3, seed=seed0 + i, name=f"c{i}")
        for i in range(n)
    }


def blocking_texts(suite, flow=FLOW):
    out = {}
    for name, g in suite.items():
        result, _ = run_flow(g.clone(), flow)
        out[name] = to_text(result)
    return out


class TestServeSuiteProcs:
    def test_byte_identical_to_blocking(self):
        suite = small_suite()
        report = serve_suite_procs(suite, ServeParams(flow=FLOW, n_shards=2, workers=1))
        expected = blocking_texts(suite)
        assert sorted(r.name for r in report.results) == sorted(suite)
        for r in report.results:
            assert r.ok and not r.cached
            assert r.bench_text == expected[r.name], r.name

    def test_warm_pass_serves_every_circuit_from_cache(self):
        suite = small_suite()
        store = ResultStore()
        params = ServeParams(flow=FLOW, n_shards=2, workers=1)
        cold = serve_suite_procs(suite, params, store=store)
        warm = serve_suite_procs(suite, params, store=store)
        cold_text = {r.name: r.bench_text for r in cold.results}
        assert all(not r.cached for r in cold.results)
        for r in warm.results:
            assert r.cached and r.shard == -1
            assert r.bench_text == cold_text[r.name]
        assert store.hits == len(suite) and store.misses == len(suite)

    def test_shard_kill_recovers_byte_identical(self):
        suite = small_suite()
        params = ServeParams(flow=FLOW, n_shards=2, workers=1)
        clean = {r.name: r.bench_text for r in serve_suite_procs(suite, params).results}

        metrics = obs.metrics()
        deaths0 = metrics.total("serve_shard_deaths_total")
        respawns0 = metrics.total("serve_shard_respawns_total")
        degraded0 = metrics.total("engine_degradations_total")
        # A *persistent* kill: the shard process dies on every arrival of
        # c2, respawn included, so the retry budget must exhaust and the
        # supervisor must degrade that shard's leftovers in-process (the
        # fault site fires in shard children only — that is what
        # guarantees termination).
        with faults.injected("shard.circuit=kill#circuit=c2"):
            report = serve_suite_procs(suite, params)

        assert sorted(r.name for r in report.results) == sorted(suite)
        for r in report.results:
            assert r.ok, (r.name, r.error)
            assert r.bench_text == clean[r.name], r.name
        assert metrics.total("serve_shard_deaths_total") - deaths0 >= 2
        assert metrics.total("serve_shard_respawns_total") - respawns0 >= 1
        assert metrics.total("engine_degradations_total") - degraded0 >= 1

    def test_concurrent_shards_audit_through_cache(self):
        suite = small_suite()
        store = ResultStore()
        cold_rows, _ = serve_throughput(
            suite, flow=FLOW, n_shards=2, workers=1, store=store
        )
        warm_rows, _ = serve_throughput(
            suite, flow=FLOW, n_shards=2, workers=1, store=store
        )
        assert all(row.identical for row in cold_rows)
        assert all(row.identical and row.cached for row in warm_rows)


class TestCrossTierParity:
    """The thread tier and the process tier run one shard body, so they
    must agree field for field on every circuit, cold and warm."""

    FIELDS = ("bench_text", "n_ands_before", "level_before", "n_ands", "level", "error")

    @classmethod
    def _by_name(cls, report):
        return {
            r.name: tuple(getattr(r, field) for field in cls.FIELDS)
            for r in report.results
        }

    @staticmethod
    def _suite(screen_circuits):
        # A shard parses each circuit under its suite key, and the key is
        # the BENCH header's name; name the thread tier's clones the same.
        return {name: g.clone(name=name) for name, g in screen_circuits.items()}

    def test_tiers_agree_cold_and_warm(self, screen_circuits):
        suite = self._suite(screen_circuits)
        params = ServeParams(flow=FLOW, n_shards=2, workers=1)
        thread_store, proc_store = ResultStore(), ResultStore()
        thread = serve_suite(suite, params, store=thread_store)
        procs = serve_suite_procs(suite, params, store=proc_store)
        assert thread.ok and procs.ok
        assert not any(r.cached for r in thread.results + procs.results)
        expected = self._by_name(thread)
        assert sorted(expected) == sorted(suite)
        assert self._by_name(procs) == expected
        warm = (
            serve_suite(suite, params, store=thread_store),
            serve_suite_procs(suite, params, store=proc_store),
        )
        for report in warm:
            assert all(r.cached and r.shard == -1 for r in report.results)
            assert self._by_name(report) == expected

    def test_a_failing_flow_fails_alike(self, screen_circuits):
        # elf without a classifier fails inside every circuit's flow.
        suite = self._suite(screen_circuits)
        params = ServeParams(flow="b; elf", n_shards=2)
        errors = [
            {r.name: r.error for r in serve(suite, params).results}
            for serve in (serve_suite, serve_suite_procs)
        ]
        assert sorted(errors[0]) == sorted(suite)
        assert all(error and "classifier" in error for error in errors[0].values())
        assert errors[1] == errors[0]


class TestServiceResponseShape:
    """Every ok optimize response carries one field set, however it was
    answered: a miss run on a shard, a store hit, or a tuned search."""

    FIELDS = {
        "name", "cached", "bench", "n_ands", "level", "n_ands_before",
        "level_before", "deadline_exceeded", "runtime",
    }

    def test_hit_miss_and_tuned_responses_share_fields(self, monkeypatch):
        service = OptimizeService(ServiceConfig(script=FLOW))
        session = OptSession()

        async def shard(name, bench, script, quality_budget_s=None):
            return run_circuit(
                session, service.params, name, bench, script, quality_budget_s
            )

        monkeypatch.setattr(service, "_run_sharded", shard)
        message = {
            "op": "optimize",
            "name": "shape",
            "bench": to_text(random_aig(6, 90, 3, seed=8, name="shape")),
        }
        miss, hit, tuned = (
            asyncio.run(service._optimize_inner(m))
            for m in (message, message, dict(message, quality_budget_s=0.05))
        )
        assert (miss["cached"], hit["cached"], tuned["cached"]) == (False, True, False)
        assert "tuned_script" in tuned
        for response in (miss, hit, tuned):
            assert response["ok"], response
            assert self.FIELDS <= set(response), sorted(self.FIELDS - set(response))
        assert hit["bench"] == miss["bench"]


class TestServiceValidation:
    """Protocol-level checks that never need a running shard."""

    def _optimize(self, service, message):
        return asyncio.run(service._optimize_inner(message))

    def test_overload_rejection_is_typed(self):
        service = OptimizeService(ServiceConfig(max_pending=0))
        before = obs.metrics().total("serve_rejected_total")
        bench = to_text(random_aig(5, 30, 2, seed=1))
        response = self._optimize(service, {"op": "optimize", "bench": bench})
        assert not response["ok"]
        assert response["error"]["type"] == "overloaded"
        assert response["error"]["limit"] == 0
        assert obs.metrics().total("serve_rejected_total") - before == 1

    def test_missing_bench_is_bad_request(self):
        service = OptimizeService(ServiceConfig())
        response = self._optimize(service, {"op": "optimize"})
        assert not response["ok"] and response["error"]["type"] == "bad_request"

    def test_unknown_command_is_bad_script(self):
        service = OptimizeService(ServiceConfig())
        bench = to_text(random_aig(5, 30, 2, seed=2))
        response = self._optimize(
            service, {"op": "optimize", "bench": bench, "script": "frobnicate"}
        )
        assert not response["ok"] and response["error"]["type"] == "bad_script"

    def test_classifier_script_is_unsupported(self):
        service = OptimizeService(ServiceConfig())
        bench = to_text(random_aig(5, 30, 2, seed=3))
        response = self._optimize(
            service, {"op": "optimize", "bench": bench, "script": "elf"}
        )
        assert not response["ok"] and response["error"]["type"] == "unsupported"

    def test_unknown_op(self):
        service = OptimizeService(ServiceConfig())
        response = asyncio.run(service._dispatch({"op": "nope"}))
        assert not response["ok"] and response["error"]["type"] == "unknown_op"


class TestServiceTextMemo:
    """The front keys a renamed repeat without parsing it."""

    def test_renamed_copy_is_cached_without_a_parse(self, monkeypatch):
        calls = []

        def counting(text, name="aig"):
            calls.append(name)
            return from_text(text, name)

        monkeypatch.setattr(store_module, "from_text", counting)
        service = OptimizeService(ServiceConfig(script=FLOW))
        g = random_aig(6, 90, 3, seed=6, name="memo")
        out, _ = run_flow(g.clone(), FLOW)
        service.store.insert(
            service.store.key(g, FLOW),
            CachedResult(to_text(out), out.n_ands, out.max_level(), g.n_ands, 0),
        )
        bench = to_text(g)
        first = asyncio.run(
            service._optimize_inner({"op": "optimize", "name": "memo", "bench": bench})
        )
        assert first["cached"] is True and len(calls) == 1
        renamed = bench.replace("# memo\n", "# memo~1\n", 1)
        assert renamed != bench
        second = asyncio.run(
            service._optimize_inner(
                {"op": "optimize", "name": "memo~1", "bench": renamed}
            )
        )
        assert second["ok"] and second["cached"] is True
        assert len(calls) == 1  # no parse for the repeat
        assert second["bench"] == first["bench"] == to_text(out)
        fresh = from_text(renamed, name="memo~1")
        assert second["n_ands_before"] == fresh.n_ands
        assert second["level_before"] == fresh.max_level()
        stats = service._stats()["cache"]
        assert stats["text_memo_hits"] == 1 and stats["text_memo_misses"] == 1
        assert stats["hits"] == 2


@pytest.mark.slow
class TestServiceEndToEnd:
    def test_miss_then_byte_identical_hit_over_socket(self, tmp_path):
        socket_path = str(tmp_path / "serve.sock")
        config = ServiceConfig(
            socket_path=socket_path, script=FLOW, n_shards=1, workers=1
        )
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=run_service, args=(config,))
        proc.start()
        g = random_aig(6, 90, 3, seed=5, name="e2e")
        bench = to_text(g)
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                assert proc.is_alive(), "service process exited early"
                if os.path.exists(socket_path):
                    try:
                        if request(socket_path, {"op": "ping"}, timeout=2.0).get("ok"):
                            break
                    except OSError:
                        pass
                time.sleep(0.05)
            else:
                pytest.fail("service did not become ready")

            first = request(socket_path, {"op": "optimize", "name": "e2e", "bench": bench})
            assert first["ok"] and first["cached"] is False
            expected, _ = run_flow(g.clone(), FLOW)
            assert first["bench"] == to_text(expected)

            second = request(socket_path, {"op": "optimize", "name": "e2e", "bench": bench})
            assert second["ok"] and second["cached"] is True
            assert second["bench"] == first["bench"]

            stats = request(socket_path, {"op": "stats"})
            assert stats["cache"]["hits"] == 1 and stats["cache"]["misses"] == 1
            assert stats["cache"]["text_memo_hits"] == 1
            assert stats["cache"]["text_memo_misses"] == 1

            metrics = request(socket_path, {"op": "metrics"})
            assert "serve_cache_hits_total" in metrics["text"]

            request(socket_path, {"op": "shutdown"})
            proc.join(timeout=15)
            assert proc.exitcode == 0
        finally:
            if proc.is_alive():
                proc.kill()
                proc.join()
