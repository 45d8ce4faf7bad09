"""Tests for the budgeted flow tuner (`repro.tune`).

Pins the subsystem's contracts: deterministic fingerprints and feature
buckets; the arm portfolio excludes resource-dependent commands; the
recipe book normalizes, keeps best-only, persists atomically and fences
on the registry version; `OptSession.probe` never mutates its input;
the search matches or beats fixed resyn2 given the budget, degrades to
best-so-far (never an error) on expiry, and — the headline determinism
contract — two **fresh processes** with the same seed, circuit and
probe budget under `cost_model="nodes"` produce a byte-identical script
and an identical arm-pull sequence.  Also pins the
`FlowReport.fraction_of` zero-runtime guard (0.0, not a division error)
and the serve-tier rule that quality-budget results bypass the
content-addressed store entirely.
"""

import asyncio
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.aig import AIG
from repro.aig.io_bench import from_text, to_text
from repro.circuits.random_aig import layered_random_aig
from repro.errors import ReproError
from repro.opt import RESYN2, OptSession, run_flow
from repro.opt.flow import FlowReport, FlowStep
from repro.opt.registry import CommandSpec, default_registry
from repro.serve import ResultStore, ServeParams, serve_suite
from repro.serve.service import OptimizeService, ServiceConfig
from repro.tune import (
    Recipe,
    RecipeBook,
    TuneParams,
    TuneResult,
    default_arms,
    feature_bucket,
    fingerprint,
    seed_priors,
    tune,
)
from repro.verify import equivalent

from .util import random_aig

REPO_ROOT = Path(__file__).resolve().parent.parent


def layered(seed=7):
    return layered_random_aig(n_pis=10, n_ands=300, seed=seed)


class TestFingerprint:
    def test_deterministic_and_clone_invariant(self):
        g = layered()
        a, b = fingerprint(g), fingerprint(g.clone(name="other"))
        assert a == b
        assert feature_bucket(a) == feature_bucket(b)
        assert fingerprint(g) == a  # same graph, same answer, every time

    def test_level_histogram_normalized(self):
        f = fingerprint(layered())
        assert len(f.level_histogram) == 8
        assert abs(sum(f.level_histogram) - 1.0) < 1e-9
        assert f.n_sampled > 0

    def test_empty_logic_fingerprints_cleanly(self):
        g = AIG("wire")
        g.add_po(g.add_pi())
        f = fingerprint(g)
        assert f.n_ands == 0 and f.depth_ratio == 1.0
        assert feature_bucket(f) == "s0-d0-r0"


class TestDefaultArms:
    def test_portfolio_is_resource_free(self):
        arms = default_arms(default_registry())
        for core in ("b", "rw", "rwz", "rf", "rfz", "rs", "rsz"):
            assert core in arms
        assert "b; rw" in arms and "rw; rf" in arms
        # Classifier/pool/worker commands must never become arms: probe
        # content would then depend on attached resources.
        heads = {part.strip() for arm in arms for part in arm.split(";")}
        assert heads.isdisjoint({"elf", "elfz", "pf", "pelf", "prw", "prwz"})

    def test_priors_cover_every_arm(self):
        arms = default_arms(default_registry())
        priors = seed_priors(arms, fingerprint(layered()))
        assert set(priors) == set(arms)
        assert all(p > 0.0 for p in priors.values())


class TestRecipeBook:
    def _recipe(self, script="b; rf", gain=10.0):
        return Recipe(script=script, gain_pct=gain, n_ands=100, probes=8)

    def test_record_keeps_best_only(self):
        book = RecipeBook()
        assert book.record("s8-d1-r1", self._recipe(gain=10.0))
        assert not book.record("s8-d1-r1", self._recipe(gain=5.0))
        assert book.lookup("s8-d1-r1").gain_pct == 10.0
        assert book.record("s8-d1-r1", self._recipe(gain=20.0))
        assert book.lookup("s8-d1-r1").gain_pct == 20.0
        assert len(book) == 1 and book.buckets() == ["s8-d1-r1"]

    def test_scripts_normalized_on_record(self):
        book = RecipeBook()
        book.record("s8-d1-r1", self._recipe(script="f; fz"))
        expected = default_registry().normalize_script("f; fz")
        assert book.lookup("s8-d1-r1").script == expected

    def test_unresolvable_recipe_rejected(self):
        with pytest.raises(ReproError):
            RecipeBook().record("s8-d1-r1", self._recipe(script="frobnicate"))

    def test_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "recipes.json"
        book = RecipeBook(path=path)
        book.record("s8-d1-r1", self._recipe())
        reloaded = RecipeBook(path=path)
        assert reloaded.lookup("s8-d1-r1") == book.lookup("s8-d1-r1")

    def test_registry_version_fences_the_file(self, tmp_path):
        path = tmp_path / "recipes.json"
        RecipeBook(path=path).record("s8-d1-r1", self._recipe())
        patched = default_registry().copy()
        patched.register(
            CommandSpec(name="zzz", execute=lambda g, ctx, flags: (g, None))
        )
        assert len(RecipeBook(path=path, registry=patched)) == 0
        assert len(RecipeBook(path=path)) == 1  # same surface still loads

    def test_corrupt_file_starts_empty(self, tmp_path):
        path = tmp_path / "recipes.json"
        path.write_text("{not json", encoding="utf-8")
        book = RecipeBook(path=path)
        assert len(book) == 0
        book.record("s8-d1-r1", self._recipe())  # and the next save heals it
        assert len(RecipeBook(path=path)) == 1


class TestProbeAndReport:
    def test_probe_never_mutates_the_input(self):
        g = random_aig(7, 120, 3, seed=21)
        before = to_text(g)
        with OptSession() as session:
            out, report = session.probe(g, "b; rf")
        assert to_text(g) == before
        assert out is not g and len(report.steps) == 2

    def test_empty_report_fractions_are_zero(self):
        # The fraction_of zero-runtime guard: an empty (or all-zero)
        # report answers 0.0, it does not divide by zero.
        report = FlowReport(script="rf")
        assert report.total_runtime == 0.0
        assert report.runtime_of("rf") == 0.0
        assert report.fraction_of("rf") == 0.0

    def test_zero_runtime_steps_fraction_is_zero(self):
        report = FlowReport(script="rf")
        report.steps.append(FlowStep(command="rf", runtime=0.0, n_ands=5, level=2))
        assert report.fraction_of("rf") == 0.0


class TestTuneSearch:
    PARAMS = dict(budget_s=None, max_probes=24, cost_model="nodes")

    def test_matches_or_beats_fixed_resyn2_cec_clean(self):
        g = layered()
        before = to_text(g)
        baseline, _ = run_flow(g.clone(), RESYN2)
        result = tune(g, TuneParams(seed=0, **self.PARAMS))
        assert to_text(g) == before  # input untouched
        assert result.n_ands <= baseline.n_ands
        assert equivalent(g, result.graph)
        assert result.n_ands_before == g.n_ands and result.gain_pct >= 0.0
        if result.script:
            default_registry().normalize_script(result.script)  # servable

    def test_expiry_returns_best_so_far_never_raises(self):
        g = layered(seed=9)
        result = tune(g, TuneParams(seed=0, budget_s=0.0001))
        assert result.n_ands <= g.n_ands
        assert equivalent(g, result.graph)

    def test_same_seed_same_search(self):
        g = layered(seed=13)
        a = tune(g, TuneParams(seed=5, **self.PARAMS))
        b = tune(g, TuneParams(seed=5, **self.PARAMS))
        assert a.script == b.script
        assert a.pulls == b.pulls
        assert a.n_ands == b.n_ands

    def test_recipe_warm_start_hits_the_bucket(self):
        g = layered(seed=17)
        book = RecipeBook()
        first = tune(g, TuneParams(seed=0, budget_s=None, max_probes=40,
                                   cost_model="nodes", recipes=book))
        assert not first.recipe_hit
        assert first.gain_pct > 0.0 and len(book) == 1
        again = tune(g, TuneParams(seed=1, budget_s=None, max_probes=40,
                                   cost_model="nodes", recipes=book))
        assert again.recipe_hit and again.bucket == first.bucket
        assert again.n_ands <= first.n_ands
        assert equivalent(g, again.graph)

    def test_gain_pct_guards_empty_circuits(self):
        g = AIG("wire")
        g.add_po(g.add_pi())
        empty = TuneResult(script="", graph=g, n_ands=0, level=0,
                           n_ands_before=0, level_before=0, probes=0, pulls=())
        assert empty.gain_pct == 0.0

    def test_unknown_cost_model_is_typed(self):
        with pytest.raises(ReproError):
            tune(layered(), TuneParams(budget_s=None, max_probes=4,
                                       cost_model="bogus"))


CHILD_SCRIPT = """\
import sys

from repro.circuits.random_aig import layered_random_aig
from repro.tune import TuneParams, tune

g = layered_random_aig(n_pis=10, n_ands=300, seed=7)
result = tune(
    g, TuneParams(seed=11, budget_s=None, max_probes=24, cost_model="nodes")
)
sys.stdout.write(result.script + "\\n")
sys.stdout.write("|".join(result.pulls) + "\\n")
sys.stdout.write(str(result.n_ands) + "\\n")
"""


class TestCrossProcessDeterminism:
    def test_two_fresh_processes_agree_byte_for_byte(self, tmp_path):
        """Same seed + circuit + probe budget => byte-identical script and
        identical arm-pull sequence across two fresh interpreters."""
        child = tmp_path / "tune_child.py"
        child.write_text(CHILD_SCRIPT, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        runs = [
            subprocess.run(
                [sys.executable, str(child)],
                capture_output=True,
                env=env,
                cwd=str(tmp_path),
                timeout=120,
                check=True,
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        script, pulls, n_ands = runs[0].stdout.decode().splitlines()
        assert script  # the search committed something
        assert int(n_ands) >= 0
        default_registry().normalize_script(script)


class TestServeQualityBudget:
    def _suite(self, n=3, seed0=90):
        return {
            f"t{i}": random_aig(6, 80 + 20 * i, 3, seed=seed0 + i, name=f"t{i}")
            for i in range(n)
        }

    def test_tuned_serving_bypasses_the_store(self):
        suite = self._suite()
        store = ResultStore()
        report = serve_suite(
            suite, ServeParams(quality_budget_s=0.5, n_shards=2), store=store
        )
        assert report.ok
        for r in report.results:
            assert r.ok and not r.cached
            assert r.tuned_script is not None
            assert equivalent(suite[r.name], from_text(r.bench_text)), r.name
        # Tuned content depends on the wall clock: the store must neither
        # answer nor learn from a quality-budget run.
        assert len(store) == 0
        assert store.hits == 0 and store.misses == 0

    def test_tiny_budget_still_serves_every_circuit(self):
        suite = self._suite(seed0=95)
        report = serve_suite(suite, ServeParams(quality_budget_s=0.001, n_shards=1))
        for r in report.results:
            assert r.ok, (r.name, r.error)  # expiry degrades, never errors
            assert equivalent(suite[r.name], from_text(r.bench_text)), r.name

    def test_malformed_tuned_request_is_the_shards_flow_error(self, monkeypatch):
        # The front hands the text to a shard unparsed; the shard's parse
        # failure comes back typed, like any other flow failure.
        from repro.serve import service as service_module
        from repro.serve.shard import run_circuit

        service = OptimizeService(ServiceConfig())
        seen = []

        async def shard(name, bench, script, quality_budget_s=None):
            seen.append(bench)
            return run_circuit(
                OptSession(), ServeParams(), name, bench, script, quality_budget_s
            )

        monkeypatch.setattr(service, "_run_sharded", shard)
        assert not hasattr(service_module, "from_text")
        g = random_aig(5, 30, 2, seed=1)
        good = to_text(g)
        for bench, ok in ((good, True), ("OUTPUT(z)\nz = AND(a\n", False)):
            response = asyncio.run(
                service._optimize_inner(
                    {"op": "optimize", "name": "t", "bench": bench, "quality_budget_s": 0.05}
                )
            )
            assert response["ok"] is ok, response
            if ok:
                assert response["n_ands_before"] == g.n_ands and response["tuned_script"]
            else:
                assert response["error"]["type"] == "flow_error"
        assert len(seen) == 2

    def test_service_validates_quality_budget(self):
        service = OptimizeService(ServiceConfig())
        bench = to_text(random_aig(5, 30, 2, seed=1))
        for bad in (-1, 0, True, "2.0"):
            response = asyncio.run(
                service._optimize_inner(
                    {"op": "optimize", "bench": bench, "quality_budget_s": bad}
                )
            )
            assert not response["ok"], bad
            assert response["error"]["type"] == "bad_request"
            assert "quality_budget_s" in response["error"]["detail"]
