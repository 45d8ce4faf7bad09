"""The process tier: the shard body in one warm worker process per shard.

:func:`repro.serve.serve_stream` runs every circuit in a thread of the
calling process — right for a library call, wrong for a long-lived
service, where one interpreter would serialize every Python-level sweep
on the GIL and one crashed circuit could take the whole server down.
This module moves each shard into its **own process**:

* :class:`ShardHost` owns one forked shard worker: a private inbox
  queue, the worker process, and the ``inflight`` ledger of submitted
  but unfinished circuits — exactly what a respawn must re-run.
* :func:`_shard_worker_main` is the child body: it builds one warm
  shard session (:meth:`~repro.serve.shard.ServeParams.session`) and
  runs each circuit off its inbox through the shared per-circuit body
  (:func:`repro.serve.shard.run_circuit`) until told to stop.
  Circuits cross the boundary as BENCH text — the serving wire format —
  never as pickled AIG objects; results come back as the body's payload.
* :func:`serve_suite_procs` is the orchestrator: the same plan, store
  front (:func:`~repro.serve.shard.split_suite`) and settle step
  (:func:`~repro.serve.shard.settle`) as the thread tier, with the
  misses dispatched to supervised shard processes.

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

import gc
import multiprocessing
import os
import queue
import time
from typing import Iterable

from .. import obs
from ..aig.io_bench import to_text
from ..opt.session import OptSession
from ..resilience import DEFAULT_RETRY_POLICY, RetryPolicy, policy
from ..resilience.faults import active as faults_active
from ..resilience.faults import fire, install
from ..tune import RecipeBook
from .shard import ServeParams, ServeReport, assign_shards, run_circuit, settle, split_suite
from .store import ResultStore

_POLL_S = 0.2  # supervisor / drain wakeup to scan for dead shard processes


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

    After each reply the worker freezes the collector's view of its heap
    (:func:`gc.freeze`).  What survives a circuit is the process-wide
    ISOP/factor memos, hundreds of thousands of tuples, lists and
    ``FactorTree`` nodes that hold no reference cycles, so a full
    collection over them frees nothing yet took up to 0.1 s of whichever
    circuit it landed on, and when it landed moved with the number of
    objects the process happened to hold.  Frozen objects are still
    freed by reference counting when a memo is cleared; collections
    after the freeze only scan what the next circuit allocates.
    """
    install(fault_plan)  # forked children inherit, spawned ones would not
    recipes = RecipeBook()
    with params.session(classifier) as session:
        while True:
            item = inbox.get()
            if item is None:
                return
            req_id, name, bench_text, script, quality_budget_s = item
            fire("shard.circuit", pid=os.getpid(), shard=shard_index, circuit=name)
            payload = run_circuit(
                session, params, name, bench_text, script, quality_budget_s, recipes
            )
            outbox.put((req_id, payload))
            gc.freeze()


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
            self._fallback_session = self.params.session(self.classifier)
        for req_id, (name, bench_text, script, budget) in list(host.inflight.items()):
            payload = run_circuit(
                self._fallback_session, self.params, name, bench_text, script, budget
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
    deterministic shard plan, store front, per-circuit body and result
    records, but each shard executes in its own forked worker and
    survives that worker's death (see the module docstring for the
    recovery model).  Fused cross-circuit classification is a
    thread-tier feature; here each shard's session calls ``classifier``
    directly.
    """
    params = params or ServeParams()
    plan = assign_shards(suite, params.n_shards, cost)
    ctx = multiprocessing.get_context("fork")
    with obs.span(
        "serve.suite_procs", circuits=len(suite), shards=len(plan.shards), flow=params.flow
    ) as suite_span:
        hits, misses, keys = split_suite(suite, plan, params, store)
        results = [settle(payload, -1, order) for order, payload in enumerate(hits)]
        outbox = ctx.Queue()
        hosts = []
        owner: dict[int, tuple[str, ShardHost]] = {}  # req_id -> (name, host)
        supervisor = None
        try:
            for shard_index, names in enumerate(misses):
                if not names:
                    continue
                host = ShardHost(ctx, shard_index, params, classifier, outbox)
                host.spawn()
                hosts.append(host)
                for name in names:
                    req_id = len(owner)
                    owner[req_id] = (name, host)
                    host.submit(req_id, name, to_text(suite[name]))
            supervisor = ShardSupervisor(hosts, params, classifier)
            while len(results) < len(suite):
                try:
                    req_id, payload = outbox.get(timeout=_POLL_S)
                except queue.Empty:
                    supervisor.check()
                    continue
                name, host = owner[req_id]
                host.complete(req_id)
                results.append(
                    settle(payload, host.shard, len(results), store, keys.get(name))
                )
        finally:
            if supervisor is not None:
                supervisor.close()
            else:
                for host in hosts:
                    host.stop()
        suite_span.set(ok=all(r.ok for r in results))
    return ServeReport(plan=plan, results=results, wall_time=suite_span.duration)
