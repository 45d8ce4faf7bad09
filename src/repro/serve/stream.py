"""The thread tier: the shard body run in threads of the caller.

:func:`serve_stream` is the in-process serving entry point: it shards
the suite (:func:`repro.serve.shard.assign_shards`), answers what an
optional store already holds, and runs every miss through the shared
per-circuit body (:func:`repro.serve.shard.run_circuit`), one thread per
circuit, yielding a :class:`~repro.serve.shard.ServeResult` per circuit
**in completion order** — a fast circuit on shard 0 is delivered while
a slow circuit on shard 1 is still refactoring, so consumers never
block on the slowest shard.  What only this tier has is the fused
classifier (:class:`repro.serve.pool.SharedClassifierService`): the
circuits of one shard share one stacked ELF inference per round.

Two properties the tests pin down:

* **Content determinism.**  Completion *order* depends on timing, but
  each circuit's *result* does not: flows run on private clones, fused
  classification preserves per-circuit semantics exactly, and ``pf`` /
  ``pelf`` run the sequential operators at every width (``prw`` does at
  ``workers=1``) — so a served circuit's BENCH text is byte-identical to
  a blocking ``run_flow`` of the same script on that circuit alone.
* **Isolation.**  A circuit whose flow raises reports the error in its
  result; the other circuits of the shard still complete (the failed
  circuit deregisters from the classifier barrier on the way out).

:func:`serve_suite` is the blocking wrapper: it drains the stream and
returns a :class:`~repro.serve.shard.ServeReport` with the plan,
per-shard fusion statistics and aggregate throughput.
"""

from __future__ import annotations

import queue
import threading
from contextlib import nullcontext
from typing import Iterator

from .. import obs
from ..aig.graph import AIG
from ..tune import RecipeBook
from .pool import FusionStats, SharedClassifierService, script_requirements
from .shard import (
    ServeParams,
    ServeReport,
    ServeResult,
    ShardPlan,
    assign_shards,
    run_circuit,
    settle,
    split_suite,
)


def serve_stream(
    suite: dict[str, AIG],
    params: ServeParams | None = None,
    classifier=None,
    cost: dict[str, int] | None = None,
    fusion_out: dict[int, FusionStats] | None = None,
    plan: ShardPlan | None = None,
    store=None,
) -> Iterator[ServeResult]:
    """Serve ``suite`` through ``params.flow``; yield results as they land.

    Input graphs are never mutated (each circuit runs on a clone).
    ``fusion_out`` (shard index -> :class:`FusionStats`) is populated as
    shards spin up, letting callers read occupancy after the stream is
    drained; :func:`serve_suite` does exactly that, and also passes the
    ``plan`` it reports so the two never diverge.

    ``store`` (a :class:`repro.serve.store.ResultStore`) puts the
    content-addressed cache in front: hits are yielded first (``cached``
    set, ``shard`` -1, bench text byte-identical to the original miss)
    and never reach their shard; misses run normally and their clean
    results are inserted as they are yielded.
    """
    params = params or ServeParams()
    if plan is None:
        plan = assign_shards(suite, params.n_shards, cost)
    hits, misses, keys = split_suite(suite, plan, params, store)
    fuse = classifier is not None and script_requirements(params.flow).classifier
    payloads: queue.Queue[tuple[int, dict]] = queue.Queue()
    threads: list[threading.Thread] = []
    sessions = []
    for shard_index, names in enumerate(misses):
        if not names:
            continue
        service = None
        if fuse:
            service = SharedClassifierService(classifier, names)
            if fusion_out is not None:
                fusion_out[shard_index] = service.stats
        session = params.session(classifier)
        sessions.append(session)
        # Quality-budget mode: the shard shares one in-memory recipe
        # book, so a tuned circuit warm-starts from scripts its shard
        # siblings already discovered (thread-safe; never persisted).
        recipes = RecipeBook() if params.quality_budget_s is not None else None
        for name in names:
            threads.append(
                threading.Thread(
                    target=_circuit_thread,
                    name=f"serve-{name}",
                    args=(session, params, name, suite[name], shard_index,
                          service, recipes, payloads),
                    daemon=True,
                )
            )
    started: list[threading.Thread] = []
    try:
        for order, payload in enumerate(hits):
            yield settle(payload, -1, order)
        for thread in threads:
            thread.start()
            started.append(thread)
        for order in range(len(hits), len(hits) + len(started)):
            shard, payload = payloads.get()
            yield settle(payload, shard, order, store, keys.get(payload["name"]))
    finally:
        # Join only what actually started (joining an unstarted thread
        # raises, which would mask the original error and skip closing
        # the sessions).
        for thread in started:
            thread.join()
        for session in sessions:
            session.close()


def serve_suite(
    suite: dict[str, AIG],
    params: ServeParams | None = None,
    classifier=None,
    cost: dict[str, int] | None = None,
    store=None,
) -> ServeReport:
    """Blocking serve: drain :func:`serve_stream`, return the full report.

    ``store`` forwards to :func:`serve_stream`'s content-addressed cache
    front; the reported ``plan`` covers the whole suite (cache hits
    simply never reach their shard).
    """
    params = params or ServeParams()
    plan = assign_shards(suite, params.n_shards, cost)
    fusion: dict[int, FusionStats] = {}
    with obs.span(
        "serve.suite", circuits=len(suite), shards=len(plan.shards), flow=params.flow
    ) as suite_span:
        results = list(
            serve_stream(
                suite, params, classifier, cost, fusion_out=fusion, plan=plan, store=store
            )
        )
        suite_span.set(ok=all(r.ok for r in results))
    return ServeReport(
        plan=plan,
        results=results,
        fusion=fusion,
        wall_time=suite_span.duration,
    )


def _circuit_thread(
    session, params, name, g, shard, service, recipes, payloads
) -> None:
    """Thread body: the shard body on a clone of ``g`` (the caller owns
    ``g``), through this circuit's fused classifier client when the
    shard fuses; the client deregisters from the barrier however the
    run ends."""
    with service.client(name) if service is not None else nullcontext() as client:
        payload = run_circuit(
            session, params, name, g.clone(), recipes=recipes, classifier=client
        )
    payloads.put((shard, payload))
