"""Process-sharded serving: one warm worker process per shard.

:func:`repro.serve.serve_stream` runs every circuit in a thread of the
calling process — right for a library call, wrong for a long-lived
service, where one interpreter would serialize every Python-level sweep
on the GIL and one crashed circuit could take the whole server down.
This module moves each shard into its **own process**:

* :class:`ShardHost` owns one forked shard worker: a private inbox
  queue, the worker process, and the ``inflight`` ledger of submitted
  but unfinished circuits — exactly what a respawn must re-run.
* :func:`_shard_worker_main` is the child body: it builds one warm
  :class:`repro.opt.OptSession` (per-run caches) and serves circuits
  off its inbox until told to stop.
  Circuits cross the boundary as BENCH text — the serving wire format —
  never as pickled AIG objects.
* :func:`serve_suite_procs` is the orchestrator: it shards the suite
  (same deterministic LPT plan as the thread path), checks each circuit
  against an optional content-addressed :class:`~repro.serve.store.ResultStore`,
  dispatches the misses, and supervises the shard processes.

Failure model (the thread path has nothing to recover; this path does):
a shard process that dies — SIGKILL, OOM, a segfaulting extension —
is detected by the supervisor (``inflight`` non-empty, process dead),
counted (``serve_shard_deaths_total``), and respawned with **only its
unfinished circuits** resubmitted; completed results were already
streamed and are never recomputed.  Respawns follow a
:class:`repro.resilience.RetryPolicy` budget; a shard that keeps dying
degrades to in-process sequential execution in the supervisor
(``record_degradation``), which also breaks deterministic kill loops
injected at the ``shard.circuit`` fault site — the site fires in shard
children only, never in the supervisor.  At ``workers=1`` every
recovery path re-derives byte-identical results, so a suite served
through kills matches a clean run exactly.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import time
from typing import Iterable

from .. import obs
from ..aig.io_bench import from_text, to_text
from ..errors import DeadlineExceeded
from ..opt.session import OptSession
from ..resilience import DEFAULT_RETRY_POLICY, Deadline, RetryPolicy, policy
from ..resilience.faults import active as faults_active
from ..resilience.faults import fire, install
from ..tune import RecipeBook, TuneParams, tune
from .shard import ShardPlan, assign_shards
from .store import CachedResult, ResultStore
from .stream import ServeParams, ServeReport, ServeResult

_POLL_S = 0.2  # supervisor wakeup to scan for dead shard processes


def _shard_worker_main(
    shard_index: int,
    params: ServeParams,
    classifier,
    fault_plan,
    inbox,
    outbox,
) -> None:
    """Child process body: serve circuits off ``inbox`` until ``None``.

    Work items are ``(req_id, name, bench_text, script, quality_budget_s)``
    — ``script`` of ``None`` means the configured default flow, and a
    non-``None`` ``quality_budget_s`` routes the circuit through the
    tuner instead (the shard keeps one in-memory recipe book, so tuned
    circuits warm-start from their shard siblings' winning scripts).
    Each reply is ``(req_id, payload_dict)`` on ``outbox``.  Errors
    never escape a circuit: they come back as the payload's ``error``
    field, so the process survives anything short of a crash — and a
    crash is exactly what the supervisor's respawn path is for.
    """
    install(fault_plan)  # forked children inherit, spawned ones would not
    session = OptSession(
        classifier=classifier,
        engine_workers=params.workers if params.workers > 0 else None,
        per_run_cache=True,
        cache_entries=params.engine_cache_entries,
    )
    recipes = RecipeBook()
    with session:
        while True:
            item = inbox.get()
            if item is None:
                return
            req_id, name, bench_text, script, quality_budget_s = item
            fire("shard.circuit", pid=os.getpid(), shard=shard_index, circuit=name)
            payload = _run_one(
                session,
                params,
                name,
                bench_text,
                script,
                quality_budget_s=quality_budget_s,
                recipes=recipes,
            )
            outbox.put((req_id, payload))


def _run_one(
    session: OptSession,
    params: ServeParams,
    name: str,
    bench_text: str,
    script: str | None = None,
    quality_budget_s: float | None = None,
    recipes: RecipeBook | None = None,
) -> dict:
    """Run one circuit through ``session``; always return a payload dict.

    A quality budget (per-request ``quality_budget_s``, falling back to
    ``params.quality_budget_s``) replaces the fixed script with a tuner
    search: the payload then carries the chosen flow as
    ``tuned_script``, and budget expiry produces the best committed
    result instead of a ``deadline_exceeded`` marker — the tuner's
    whole contract is best-so-far, not all-or-nothing.
    """
    started = time.perf_counter()
    payload: dict = {"name": name, "error": None, "deadline_exceeded": False}
    if quality_budget_s is None:
        quality_budget_s = params.quality_budget_s
    try:
        g = from_text(bench_text, name=name)
        payload["n_ands_before"] = g.n_ands
        payload["level_before"] = g.max_level()
        if quality_budget_s is not None:
            tuned = tune(
                g,
                TuneParams(budget_s=quality_budget_s, recipes=recipes),
                session=session,
            )
            payload["tuned_script"] = tuned.script
            payload["n_ands"] = tuned.n_ands
            payload["level"] = tuned.level
            payload["bench_text"] = to_text(tuned.graph)
            payload["runtime"] = time.perf_counter() - started
            return payload
        deadline = None
        if params.circuit_timeout_s is not None:
            deadline = Deadline.after(params.circuit_timeout_s)
        out, _report = session.run(g, script or params.flow, deadline=deadline)
    except DeadlineExceeded as error:
        policy.record_deadline("serve")
        payload["deadline_exceeded"] = True
        out = error.partial
    except Exception as error:
        obs.counter("serve_circuit_errors_total", type=type(error).__name__).add(1)
        payload["error"] = f"{type(error).__name__}: {error}"
        out = None
    if out is not None:
        payload["n_ands"] = out.n_ands
        payload["level"] = out.max_level()
        payload["bench_text"] = to_text(out)
    payload["runtime"] = time.perf_counter() - started
    return payload


class ShardHost:
    """Supervisor-side handle of one shard process.

    Owns the spawn/respawn lifecycle and the ``inflight`` ledger
    (req_id -> (name, bench_text, script, quality_budget_s)) that makes
    recovery exact: a respawn
    resubmits precisely the submitted-but-unfinished circuits, nothing
    more.  Each (re)spawn gets a **fresh** inbox queue — a queue whose
    feeder thread died with a SIGKILLed reader is not trustworthy — while
    the shared ``outbox`` stays, so results the dead process already
    delivered remain delivered.
    """

    def __init__(self, ctx, shard_index: int, params: ServeParams, classifier, outbox) -> None:
        self.ctx = ctx
        self.shard = shard_index
        self.params = params
        self.classifier = classifier
        self.outbox = outbox
        self.inflight: dict[int, tuple[str, str, str | None, float | None]] = {}
        self.attempts = 0  # respawns consumed against the retry budget
        self.process = None
        self.inbox = None
        self._occupancy = obs.metrics().gauge(
            "serve_shard_occupancy", shard=str(shard_index)
        )

    def spawn(self) -> None:
        """Fork the shard worker (fresh inbox; inflight is resubmitted)."""
        self.inbox = self.ctx.Queue()
        self.process = self.ctx.Process(
            target=_shard_worker_main,
            name=f"repro-shard-{self.shard}",
            args=(
                self.shard,
                self.params,
                self.classifier,
                faults_active(),
                self.inbox,
                self.outbox,
            ),
            daemon=True,
        )
        self.process.start()
        for req_id, (name, bench_text, script, budget) in self.inflight.items():
            self.inbox.put((req_id, name, bench_text, script, budget))

    def submit(
        self,
        req_id: int,
        name: str,
        bench_text: str,
        script: str | None = None,
        quality_budget_s: float | None = None,
    ) -> None:
        self.inflight[req_id] = (name, bench_text, script, quality_budget_s)
        self._occupancy.set(len(self.inflight))
        self.inbox.put((req_id, name, bench_text, script, quality_budget_s))

    def complete(self, req_id: int) -> None:
        self.inflight.pop(req_id, None)
        self._occupancy.set(len(self.inflight))

    @property
    def dead(self) -> bool:
        """True when circuits are owed but the process is gone."""
        return bool(self.inflight) and (
            self.process is None or not self.process.is_alive()
        )

    def respawn(self) -> None:
        """Replace a dead worker; only the inflight ledger is re-run."""
        if self.process is not None and self.process.is_alive():
            self.process.kill()
        if self.process is not None:
            self.process.join()
        obs.counter("serve_shard_respawns_total", shard=str(self.shard)).add(1)
        self.spawn()

    def stop(self) -> None:
        """Graceful shutdown: sentinel, join, then force if needed."""
        if self.process is None:
            return
        if self.process.is_alive():
            try:
                self.inbox.put(None)
            except Exception:  # lint-faults: queue already torn down — force-kill below
                pass
            self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.process = None


class ShardSupervisor:
    """Death detection + recovery shared by the suite path and the service.

    Watches a set of :class:`ShardHost` instances; :meth:`check` scans
    for dead hosts and either respawns them (within the
    :class:`~repro.resilience.RetryPolicy` budget, with backoff) or
    degrades their unfinished circuits to in-process sequential
    execution — emitting the results on the shared outbox exactly as the
    worker would have, so the drain loop cannot tell recovery happened.
    """

    def __init__(
        self,
        hosts: Iterable[ShardHost],
        params: ServeParams,
        classifier=None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.hosts = list(hosts)
        self.params = params
        self.classifier = classifier
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        self._fallback_session: OptSession | None = None

    def check(self) -> None:
        """Scan every host; recover the dead ones (see class docstring)."""
        for host in self.hosts:
            if not host.dead:
                continue
            policy.record_worker_death()
            obs.counter("serve_shard_deaths_total", shard=str(host.shard)).add(1)
            host.attempts += 1
            if self.retry.allows(host.attempts):
                time.sleep(self.retry.backoff(host.attempts))
                policy.record_retry()
                host.respawn()
            else:
                self._degrade(host)

    def _degrade(self, host: ShardHost) -> None:
        """Run a hopeless shard's unfinished circuits in this process.

        Sequential, no fault sites consulted (``shard.circuit`` fires in
        shard children only) — so a scripted kill that murders every
        respawn still terminates here, with byte-identical results at
        ``workers=1``.
        """
        policy.record_degradation("in-process")
        if self._fallback_session is None:
            self._fallback_session = OptSession(
                classifier=self.classifier,
                engine_workers=self.params.workers if self.params.workers > 0 else None,
                per_run_cache=True,
                cache_entries=self.params.engine_cache_entries,
            )
        for req_id, (name, bench_text, script, budget) in list(host.inflight.items()):
            payload = _run_one(
                self._fallback_session,
                self.params,
                name,
                bench_text,
                script,
                quality_budget_s=budget,
            )
            host.outbox.put((req_id, payload))
            # Settle the ledger here (the drain loop's complete() is a
            # no-op then): a host with an empty ledger is not "dead", so
            # the next check() pass cannot degrade it twice.
            host.complete(req_id)

    def close(self) -> None:
        for host in self.hosts:
            host.stop()
        if self._fallback_session is not None:
            self._fallback_session.close()
            self._fallback_session = None


def serve_suite_procs(
    suite: dict,
    params: ServeParams | None = None,
    classifier=None,
    store: ResultStore | None = None,
    cost: dict[str, int] | None = None,
) -> ServeReport:
    """Serve ``suite`` across shard *processes*; return a :class:`ServeReport`.

    The process analogue of :func:`repro.serve.serve_suite`: the same
    deterministic shard plan, the same per-circuit result records, but
    each shard executes in its own forked worker and survives that
    worker's death (see the module docstring for the recovery model).

    With a ``store``, every circuit is first checked against the
    content-addressed cache: hits are answered immediately (``cached``
    set, ``shard`` = -1, bench text byte-identical to the original
    miss), and every clean miss result is inserted on completion.
    Deadline-expired and errored circuits are never cached — their
    content is timing-dependent or absent.  Fused cross-circuit
    classification is a thread-path feature; here each shard's session
    calls ``classifier`` directly.
    """
    params = params or ServeParams()
    if params.quality_budget_s is not None:
        store = None  # tuned content is wall-clock-dependent: never cached
    plan = assign_shards(suite, params.n_shards, cost)
    ctx = multiprocessing.get_context("fork")
    metrics = obs.metrics()
    with obs.span(
        "serve.suite_procs", circuits=len(suite), shards=len(plan.shards), flow=params.flow
    ) as suite_span:
        results: list[ServeResult] = []
        keys: dict[str, tuple] = {}
        misses_by_shard: list[list[str]] = []
        for shard_index, names in enumerate(plan.shards):
            misses: list[str] = []
            for name in names:
                hit = None
                if store is not None:
                    keys[name] = store.key(suite[name], params.flow)
                    hit = store.lookup(keys[name])
                if hit is not None:
                    results.append(
                        ServeResult(
                            name=name,
                            shard=-1,
                            order=len(results),
                            n_ands_before=suite[name].n_ands,
                            level_before=suite[name].max_level(),
                            n_ands=hit.n_ands,
                            level=hit.level,
                            bench_text=hit.bench_text,
                            cached=True,
                        )
                    )
                    metrics.counter("serve_circuits_total", outcome="ok").add(1)
                else:
                    misses.append(name)
            misses_by_shard.append(misses)
        outbox = ctx.Queue()
        hosts = []
        req_of: dict[int, str] = {}
        shard_of_req: dict[int, ShardHost] = {}
        supervisor = None
        try:
            req_id = 0
            for shard_index, misses in enumerate(misses_by_shard):
                if not misses:
                    continue
                host = ShardHost(ctx, shard_index, params, classifier, outbox)
                host.spawn()
                hosts.append(host)
                for name in misses:
                    req_of[req_id] = name
                    shard_of_req[req_id] = host
                    host.submit(req_id, name, to_text(suite[name]))
                    req_id += 1
            supervisor = ShardSupervisor(hosts, params, classifier)
            remaining = req_id
            while remaining > 0:
                try:
                    rid, payload = outbox.get(timeout=_POLL_S)
                except queue.Empty:
                    supervisor.check()
                    continue
                host = shard_of_req[rid]
                host.complete(rid)
                result = ServeResult(
                    name=payload["name"],
                    shard=host.shard,
                    order=len(results),
                    runtime=payload.get("runtime", 0.0),
                    n_ands_before=payload.get("n_ands_before", 0),
                    level_before=payload.get("level_before", 0),
                    n_ands=payload.get("n_ands", 0),
                    level=payload.get("level", 0),
                    bench_text=payload.get("bench_text"),
                    error=payload["error"],
                    deadline_exceeded=payload["deadline_exceeded"],
                    tuned_script=payload.get("tuned_script"),
                )
                metrics.histogram(
                    "serve_circuit_seconds", shard=str(host.shard)
                ).observe(result.runtime)
                metrics.counter(
                    "serve_circuits_total", outcome="ok" if result.ok else "error"
                ).add(1)
                if (
                    store is not None
                    and result.ok
                    and not result.deadline_exceeded
                    and result.bench_text is not None
                ):
                    store.insert(
                        keys[result.name],
                        CachedResult(
                            bench_text=result.bench_text,
                            n_ands=result.n_ands,
                            level=result.level,
                            n_ands_before=result.n_ands_before,
                            level_before=result.level_before,
                        ),
                    )
                results.append(result)
                remaining -= 1
        finally:
            if supervisor is not None:
                supervisor.close()
            else:
                for host in hosts:
                    host.stop()
        suite_span.set(ok=all(r.ok for r in results))
    return ServeReport(
        plan=plan,
        results=results,
        fusion={},
        wall_time=suite_span.duration,
    )
