"""Fault-tolerance battery: worker death, hangs, deadlines, degradation.

Every recovery path the resilience layer promises is driven here
deterministically through the fault-injection registry
(:mod:`repro.resilience.faults`) — no real flakiness is required to test
flakiness handling.  The invariants pinned throughout:

* recovery is **transparent**: the resynthesis pool's results are
  bit-identical to a clean run on every path (retry, transport
  degradation, sequential floor);
* recovery is **clean**: zero ``/dev/shm`` segments survive any failure;
* recovery is **counted**: the obs registry carries exact death / retry /
  degradation / deadline counters, asserted to the integer.

Pooled tests monkeypatch ``cpu_count`` (the ``two_cores`` fixture) so
the pool runs on single-core hosts too.  Shard-process death and
respawn are covered in ``tests/test_serve_service.py``.
"""

import random
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.engine.parallel as parallel
from repro import obs
from repro.circuits.random_aig import layered_random_aig
from repro.engine import EngineParams, RewriteEngineParams, engine_refactor, engine_rewrite
from repro.engine.pack import PackedTasks, WaveSegment, leaked_segments, unlink_by_name
from repro.engine.parallel import ResynthExecutor, resynthesize_batch
from repro.errors import DeadlineExceeded, FatalError, ReproError, RetryableError
from repro.opt.refactor import RefactorParams
from repro.opt.session import OptSession
from repro.resilience import (
    DEGRADATION_LADDER,
    Deadline,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
    next_rung,
)
from repro.resilience import faults
from repro.serve.pool import SharedClassifierService
from repro.serve.stream import ServeParams, serve_suite
from repro.verify.cec import equivalent


@pytest.fixture(autouse=True)
def clean_slate():
    """Fresh fault registry + metrics registry around every test."""
    faults.clear()
    obs.reset()
    yield
    faults.clear()
    obs.configure(enabled=False)


@pytest.fixture
def two_cores(monkeypatch):
    """Pretend the host has two cores so ``will_pool`` admits the pool."""
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)


def _resynth_tasks(n=200, leaves=10, seed=13):
    from repro.aig.simulate import full_mask

    rng = random.Random(seed)
    return [(rng.getrandbits(1 << leaves) & full_mask(leaves), leaves) for _ in range(n)]


class FakeClock:
    """Deterministic monotonic clock: +1.0 "second" per read."""

    def __init__(self, start=0.0, step=1.0):
        self.t = start
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


# --------------------------------------------------------------------------
# Error taxonomy
# --------------------------------------------------------------------------


class TestErrorTaxonomy:
    def test_hierarchy(self):
        assert issubclass(RetryableError, ReproError)
        assert issubclass(FatalError, ReproError)
        assert issubclass(InjectedFault, RetryableError)
        assert not issubclass(FatalError, RetryableError)

    def test_deadline_exceeded_payload(self):
        error = DeadlineExceeded("late", site="engine.wave")
        assert error.site == "engine.wave"
        assert error.partial is None
        assert error.report is None
        assert isinstance(error, ReproError)


# --------------------------------------------------------------------------
# Deadline unit behavior
# --------------------------------------------------------------------------


class TestDeadline:
    def test_unlimited(self):
        deadline = Deadline()
        assert deadline.unlimited
        assert not deadline.expired
        assert deadline.remaining() == float("inf")
        assert deadline.bound(7.5) == 7.5
        deadline.check("anywhere")  # never raises

    def test_fake_clock_expiry_by_call_count(self):
        deadline = Deadline(3.0, clock=FakeClock())  # expires at t=4.0
        assert not deadline.expired  # t=2
        assert not deadline.expired  # t=3
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check("unit.site")  # t=4 -> expired
        assert excinfo.value.site == "unit.site"
        assert "unit.site" in str(excinfo.value)

    def test_bound_clips_to_remaining(self):
        deadline = Deadline(10.0, clock=FakeClock())  # expires at t=11
        # Second read at t=2: 9 seconds remain, so 30 clips to 9.
        assert deadline.bound(30.0) == pytest.approx(9.0)
        assert deadline.bound(0.5) == pytest.approx(0.5)

    def test_remaining_clamps_at_zero(self):
        deadline = Deadline(0.5, clock=FakeClock())
        assert deadline.remaining() == 0.0
        assert deadline.bound(10.0) == 0.0


# --------------------------------------------------------------------------
# Retry policy
# --------------------------------------------------------------------------


class TestRetryPolicy:
    def test_budget_is_zero_based(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.allows(0)
        assert policy.allows(1)
        assert not policy.allows(2)

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(backoff_s=0.05, backoff_factor=2.0, max_backoff_s=0.15)
        assert policy.backoff(0) == pytest.approx(0.05)
        assert policy.backoff(1) == pytest.approx(0.10)
        assert policy.backoff(2) == pytest.approx(0.15)  # capped
        assert policy.backoff(10) == pytest.approx(0.15)

    def test_ladder_moves_right_only(self):
        assert DEGRADATION_LADDER == ("shm", "pickle", "sequential")
        assert next_rung("shm") == "pickle"
        assert next_rung("pickle") == "sequential"
        assert next_rung("sequential") == "sequential"  # the floor holds
        assert next_rung("auto") == "pickle"  # unknowns sit at the top


# --------------------------------------------------------------------------
# Fault spec grammar + registry
# --------------------------------------------------------------------------


class TestFaultSpecs:
    def test_parse_full_grammar(self):
        spec = FaultSpec.parse("shard.circuit=delay(0.25)@2,4#circuit=7")
        assert spec.site == "shard.circuit"
        assert spec.action == "delay"
        assert spec.value == pytest.approx(0.25)
        assert spec.hits == frozenset({2, 4})
        assert spec.match == ("circuit", "7")

    def test_parse_minimal(self):
        spec = FaultSpec.parse("classifier.fire=raise")
        assert spec.hits == frozenset()
        assert spec.match is None

    @pytest.mark.parametrize(
        "text", ["", "nosite", "a=explode", "a=raise@x", "a=kill#=3"]
    )
    def test_malformed_specs_raise(self, text):
        with pytest.raises(ReproError):
            FaultSpec.parse(text)

    def test_hits_and_match_filtering(self):
        spec = FaultSpec.parse("s=raise@2#k=1")
        assert not spec.triggers(1, {"k": 1})  # wrong hit
        assert not spec.triggers(2, {"k": 9})  # wrong match
        assert not spec.triggers(2, {})  # match key absent
        assert spec.triggers(2, {"k": 1})  # string-compared

    def test_plan_fires_raise_and_counts(self):
        plan = faults.install("unit.site=raise@2")
        plan.fire("unit.site")  # hit 1: no trigger
        with pytest.raises(InjectedFault):
            plan.fire("unit.site")  # hit 2
        plan.fire("unit.site")  # hit 3: no trigger
        assert plan.arrivals("unit.site") == 3
        assert (
            obs.metrics().value(
                "faults_injected_total", site="unit.site", action="raise"
            )
            == 1
        )

    def test_inactive_fire_is_noop(self):
        faults.fire("anywhere")  # no plan installed: must not raise

    def test_env_adoption_once(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "env.site=raise")
        faults.clear()  # forget the explicit-install override
        with pytest.raises(InjectedFault):
            faults.fire("env.site")
        monkeypatch.setenv(faults.ENV_VAR, "env.site=raise;other=raise")
        faults.fire("other")  # env was adopted once; changes are ignored

    def test_injected_contextmanager_restores(self):
        outer = faults.install("outer=raise")
        with faults.injected("inner=raise"):
            faults.fire("outer")  # inner plan replaced the outer one
            with pytest.raises(InjectedFault):
                faults.fire("inner")
        assert faults.active() is outer
        faults.clear()

    def test_kill_without_pid_context_raises(self):
        spec = FaultSpec.parse("s=kill")
        plan = FaultPlan(specs=(spec,))
        with pytest.raises(ReproError):
            plan.fire("s")


class TestFaultSiteLint:
    """``make lint-faults`` rejects a fired site missing from ``SITES``."""

    REPO = Path(__file__).resolve().parents[1]

    def _lint(self):
        import importlib.util

        path = self.REPO / "tools" / "lint_faults.py"
        spec = importlib.util.spec_from_file_location("lint_faults", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_registry_matches_the_runtime_sites(self):
        lint = self._lint()
        assert lint.registered_sites(self.REPO / lint.FAULTS_MODULE) == faults.SITES

    def test_unregistered_site_fails(self, tmp_path):
        lint = self._lint()
        (tmp_path / "mod.py").write_text(
            "from repro.resilience.faults import fire, fire as fault_fire\n"
            "def f():\n"
            "    fire('shard.circuit', pid=1)\n"
            "    fire('worker.respawn', chunk=0)\n"
            "    fault_fire('worker.chunk', chunk=0)\n"
            "    fault_fire('shm.resize', nbytes=8)\n",
            encoding="utf-8",
        )
        failures = lint.check_tree(tmp_path, faults.SITES)
        assert len(failures) == 2
        assert "'worker.respawn'" in failures[0] and "mod.py:4" in failures[0]
        assert "'shm.resize'" in failures[1] and "mod.py:6" in failures[1]

    def test_repo_tree_is_clean(self):
        proc = subprocess.run(
            [sys.executable, str(self.REPO / "tools" / "lint_faults.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


# --------------------------------------------------------------------------
# Resynthesis-pool worker-death recovery, driven through injection
# --------------------------------------------------------------------------


class TestWorkerDeathRecovery:
    def test_kill_ladder_exact_counters_and_bit_identity(self, two_cores):
        """A worker SIGKILLed on every attempt walks the whole ladder.

        Round 1 (shm) loses chunk 0 to a death -> retry 1 degrades the
        transport to pickle; rounds 2 and 3 die the same way; the retry
        budget (2) exhausts and the lost chunk lands on the sequential
        floor.  Results stay bit-identical throughout and every decision
        is counted exactly.
        """
        tasks = _resynth_tasks()
        params = RefactorParams()
        expected = resynthesize_batch(tasks, params)
        before = leaked_segments()
        with faults.injected("worker.chunk=kill#chunk=0"):
            with ResynthExecutor(
                2, params, transport="shm", chunk_timeout_s=1.0
            ) as executor:
                assert executor.will_pool(len(tasks))
                out = executor.run(tasks)
                assert executor.in_process  # budget exhausted: floor is sticky
        assert out == expected
        reg = obs.metrics()
        assert reg.value("engine_worker_deaths_total") == 3
        assert reg.value("engine_retries_total") == 2
        assert reg.value("engine_degradations_total", to="pickle") == 1
        assert reg.value("engine_degradations_total", to="sequential") == 1
        assert reg.value("engine_worker_hangs_total") == 0
        assert leaked_segments() == before

    def test_lost_result_retries_only_lost_chunks(self, two_cores):
        """A single lost chunk result recovers in one retry round.

        ``chunk.result=raise@1`` drops exactly the first chunk wait in
        the parent; the worker was healthy, so the retry round re-ships
        only that chunk and succeeds — one retry, zero deaths.
        """
        tasks = _resynth_tasks()
        params = RefactorParams()
        expected = resynthesize_batch(tasks, params)
        with faults.injected("chunk.result=raise@1"):
            with ResynthExecutor(
                2, params, transport="shm", chunk_timeout_s=5.0
            ) as executor:
                out = executor.run(tasks)
                assert not executor.in_process  # pool survived
        assert out == expected
        reg = obs.metrics()
        assert reg.value("engine_retries_total") == 1
        assert reg.value("engine_worker_deaths_total") == 0
        # The failed round rode shm, so the retry stepped to pickle.
        assert reg.value("engine_degradations_total", to="pickle") == 1
        assert reg.value("engine_degradations_total", to="sequential") == 0
        assert (
            reg.value("engine_chunk_failures_total", reason="InjectedFault") == 1
        )

    def test_hung_worker_detected_and_floored(self, two_cores):
        """A hung (alive but stalled) worker is a hang, not a death."""
        tasks = _resynth_tasks()
        params = RefactorParams()
        expected = resynthesize_batch(tasks, params)
        with faults.injected("worker.chunk=delay(30)#chunk=1"):
            with ResynthExecutor(
                2,
                params,
                transport="pickle",
                chunk_timeout_s=0.4,
                retry_policy=RetryPolicy(max_retries=1, backoff_s=0.01),
            ) as executor:
                out = executor.run(tasks)
        assert out == expected
        reg = obs.metrics()
        # At least the stalled chunk per round; on a time-sliced single
        # CPU a healthy-but-slow chunk may blow the tight timeout too,
        # so the hang count is a floor, not an exact figure.
        assert reg.value("engine_worker_hangs_total") >= 2
        assert reg.value("engine_worker_deaths_total") == 0
        assert reg.value("engine_retries_total") == 1
        assert reg.value("engine_degradations_total", to="sequential") == 1

    def test_pool_creation_fault_degrades_in_process(self, two_cores):
        """Pool creation failure is a counted, logged, in-process fallback."""
        tasks = _resynth_tasks(n=64)
        params = RefactorParams()
        expected = resynthesize_batch(tasks, params)
        with faults.injected("worker.start=raise"):
            with ResynthExecutor(2, params) as executor:
                out = executor.run(tasks)
                assert executor.in_process
        assert out == expected
        reg = obs.metrics()
        assert (
            reg.value("engine_pool_fallbacks_total", reason="InjectedFault") == 1
        )
        assert reg.value("engine_worker_deaths_total") == 0
        assert reg.value("engine_retries_total") == 0

    def test_shm_create_fault_falls_back_to_pickle(self, two_cores):
        """Segment-creation failure reroutes the round over pickle."""
        tasks = _resynth_tasks()
        params = RefactorParams()
        expected = resynthesize_batch(tasks, params)
        before = leaked_segments()
        with faults.injected("shm.create=raise"):
            with ResynthExecutor(2, params, transport="shm") as executor:
                out = executor.run(tasks)
        assert out == expected
        reg = obs.metrics()
        assert reg.value("engine_shm_fallbacks_total") == 1
        assert reg.value("engine_shm_segments_created_total") == 0
        assert reg.value("engine_task_bytes_total", transport="pickle") > 0
        assert reg.value("engine_retries_total") == 0
        assert leaked_segments() == before

    def test_close_sweeps_segments_the_unlink_missed(self):
        """A segment name still registered at close() is swept."""
        packed = PackedTasks.pack(_resynth_tasks(n=8))
        segment = WaveSegment.create(packed)
        name = segment.descriptor()[0]
        segment.close()  # mapping dropped, /dev/shm entry still live
        executor = ResynthExecutor(2, RefactorParams())
        executor._live_segments.add(name)
        executor.close()
        assert not unlink_by_name(name)  # already gone: the sweep got it
        reg = obs.metrics()
        assert reg.value("engine_shm_segments_swept_total") == 1

    def test_unlink_by_name_missing_segment(self):
        assert not unlink_by_name("psm_no_such_segment_xyz")


# --------------------------------------------------------------------------
# Deadlines through the stack
# --------------------------------------------------------------------------


class TestDeadlinePropagation:
    def test_flow_deadline_yields_consistent_prefix(self):
        g = layered_random_aig(12, 700, seed=7)
        deadline = Deadline(5.0, clock=FakeClock())
        with OptSession(engine_workers=1) as session:
            with pytest.raises(DeadlineExceeded) as excinfo:
                session.run(g.clone(), "b; rw; rf; rw; rf", deadline=deadline)
        error = excinfo.value
        assert error.partial is not None
        assert error.report is not None
        # The completed steps are a strict prefix of the script.
        done = [step.command for step in error.report.steps]
        assert 0 < len(done) < 5
        assert done == ["b", "rw", "rf", "rw", "rf"][: len(done)]
        # The partial is a valid network, CEC-clean against the input.
        assert equivalent(g, error.partial)

    def test_engine_wave_deadline_mid_pass(self, screen_circuits):
        g = screen_circuits["div"]
        out = g.clone()
        # Generous fake budget: survives the first waves, expires
        # across the wave loop's checks.
        deadline = Deadline(6.0, clock=FakeClock())
        with pytest.raises(DeadlineExceeded) as excinfo:
            engine_rewrite(out, RewriteEngineParams(workers=2, deadline=deadline))
        assert excinfo.value.site == "engine.wave"
        # Commits are serial: whatever prefix landed is consistent.
        assert equivalent(g, out)
        assert obs.metrics().value("engine_deadline_exceeded_total") == 1

    def test_expired_deadline_refuses_sequential_delegation(self):
        g = layered_random_aig(10, 120, seed=4)
        deadline = Deadline(0.0, clock=FakeClock())
        with pytest.raises(DeadlineExceeded):
            engine_refactor(g, EngineParams(workers=1, deadline=deadline))

    def test_executor_sequential_floor_checks_deadline(self):
        tasks = _resynth_tasks(n=32)
        deadline = Deadline(2.0, clock=FakeClock())
        with ResynthExecutor(1, RefactorParams()) as executor:
            with pytest.raises(DeadlineExceeded) as excinfo:
                executor.run(tasks, deadline=deadline)
        assert excinfo.value.site == "executor.sequential"

    def test_serve_circuit_timeout_keeps_valid_prefix(self):
        suite = {
            "a": layered_random_aig(10, 150, seed=1),
            "b": layered_random_aig(10, 150, seed=2),
        }
        from repro.aig.io_bench import to_text

        # A zero budget expires before the first step: every circuit
        # comes back valid-but-unoptimized, flagged, and counted.
        report = serve_suite(
            suite,
            ServeParams(flow="b; rf", n_shards=1, circuit_timeout_s=0.0),
        )
        assert report.ok  # a blown budget is degradation, not an error
        for result in report.results:
            assert result.deadline_exceeded
            assert result.bench_text == to_text(suite[result.name])
        assert obs.metrics().value("serve_deadline_exceeded_total") == 2

        # Without a budget the same serve completes normally.
        report = serve_suite(suite, ServeParams(flow="b; rf", n_shards=1))
        assert report.ok
        assert not any(r.deadline_exceeded for r in report.results)


# --------------------------------------------------------------------------
# Shared classifier service: failed rounds are survivable
# --------------------------------------------------------------------------


class _FlakyClassifier:
    """fused_keep_masks raises on scripted call numbers, succeeds after."""

    threshold = 0.5

    def __init__(self, fail_calls=(1,)):
        self.fail_calls = set(fail_calls)
        self.calls = 0

    def fused_keep_masks(self, batches):
        self.calls += 1
        if self.calls in self.fail_calls:
            raise RuntimeError("model backend unavailable")
        return [np.ones(b.shape[0], dtype=bool) for b in batches]


class TestClassifierRoundFailure:
    def test_failed_round_delivers_error_and_recovers(self):
        service = SharedClassifierService(_FlakyClassifier(), ["c0"])
        client = service.client("c0")
        features = np.zeros((3, 6))
        with pytest.raises(RuntimeError):
            client.keep_mask(features)  # round 1: backend down
        # Round 2 fuses normally: pending state was reset, not poisoned.
        mask = client.keep_mask(features)
        assert mask.tolist() == [True, True, True]
        client.finish()
        assert service.stats.n_calls == 1  # only the good round recorded
        assert (
            obs.metrics().value("serve_classifier_round_failures_total") == 1
        )

    def test_failed_round_releases_every_waiter(self):
        """Both circuits of a fused round get the error; neither hangs."""
        service = SharedClassifierService(_FlakyClassifier(), ["c0", "c1"])
        outcomes = {}

        def circuit(name):
            client = service.client(name)
            features = np.zeros((2, 6))
            try:
                client.keep_mask(features)
                outcomes[name] = "ok"
            except RuntimeError:
                outcomes[name] = "error"
            finally:
                client.finish()

        threads = [
            threading.Thread(target=circuit, args=(n,)) for n in ("c0", "c1")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)  # barrier released
        assert outcomes == {"c0": "error", "c1": "error"}

    def test_injected_classifier_fault_site(self):
        service = SharedClassifierService(_FlakyClassifier(fail_calls=()), ["c0"])
        client = service.client("c0")
        features = np.zeros((2, 6))
        with faults.injected("classifier.fire=raise@1"):
            with pytest.raises(InjectedFault):
                client.keep_mask(features)
            mask = client.keep_mask(features)  # round 2 unaffected
        assert mask.shape == (2,)
        client.finish()
        assert (
            obs.metrics().value("serve_classifier_round_failures_total") == 1
        )
