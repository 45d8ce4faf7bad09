"""Fault-tolerance battery: error taxonomy, deadlines, retry policy, faults.

Every recovery path the resilience layer promises is driven here
deterministically through the fault-injection registry
(:mod:`repro.resilience.faults`) — no real flakiness is required to test
flakiness handling.  Deadlines must leave a consistent, CEC-clean
prefix; failed classifier rounds must release every waiter; every
decision is counted on the obs registry, asserted to the integer.
Flows run on the ``screen_circuits`` fixtures, whose outputs are not
constant.  Shard-process death and respawn are covered in
``tests/test_serve_service.py``.
"""

import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.engine import EngineParams, engine_refactor
from repro.errors import DeadlineExceeded, FatalError, ReproError, RetryableError
from repro.opt.session import OptSession
from repro.resilience import (
    Deadline,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
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
        error = DeadlineExceeded("late", site="engine.pass")
        assert error.site == "engine.pass"
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
            "    fire('worker.chunk', chunk=0)\n"
            "    fault_fire('classifier.fire', round=1)\n"
            "    fault_fire('shm.resize', nbytes=8)\n",
            encoding="utf-8",
        )
        failures = lint.check_tree(tmp_path, faults.SITES)
        # ``worker.chunk`` was a registered site until the resynthesis
        # pool that consulted it was deleted: a site dropped from SITES
        # must fail as surely as one that was never there.
        assert len(failures) == 2
        assert "'worker.chunk'" in failures[0] and "mod.py:4" in failures[0]
        assert "'shm.resize'" in failures[1] and "mod.py:6" in failures[1]

    def test_repo_tree_is_clean(self):
        proc = subprocess.run(
            [sys.executable, str(self.REPO / "tools" / "lint_faults.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


# --------------------------------------------------------------------------
# Deadlines through the stack
# --------------------------------------------------------------------------


class TestDeadlinePropagation:
    def test_flow_deadline_yields_consistent_prefix(self, screen_circuits):
        g = screen_circuits["hyp"]
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

    def test_expired_deadline_refuses_sequential_delegation(self, screen_circuits):
        g = screen_circuits["div"].clone()
        deadline = Deadline(0.0, clock=FakeClock())
        with pytest.raises(DeadlineExceeded):
            engine_refactor(g, EngineParams(workers=1, deadline=deadline))

    def test_serve_circuit_timeout_keeps_valid_prefix(self, screen_circuits):
        suite = {name: screen_circuits[name].clone() for name in ("sqrt", "ind1")}
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
