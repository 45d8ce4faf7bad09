"""Sharded multi-circuit serving.

The engine (:mod:`repro.engine`) runs one pass over one network; this
subsystem serves a whole *suite* of circuits in flight:

* :mod:`repro.serve.shard` — deterministic LPT partition of the suite
  across shards (:func:`assign_shards` / :class:`ShardPlan`).
* :mod:`repro.serve.pool` — shard-shared resources: one classifier
  service per shard fusing ELF inference batches *across* circuits
  (:class:`SharedClassifierService`, exact per-circuit semantics).
* :mod:`repro.serve.stream` — the orchestrator: :func:`serve_stream`
  yields per-circuit results in completion order instead of blocking on
  the slowest shard; :func:`serve_suite` drains it into a
  :class:`ServeReport` with throughput and batch-occupancy statistics.
* :mod:`repro.serve.store` — the content-addressed result cache
  (:class:`ResultStore`): finished results keyed by ``(structural
  digest, normalized script, registry version)``, fronting both serve
  paths so repeat structures cost a hash instead of a flow.
* :mod:`repro.serve.proc` — process-sharded execution
  (:func:`serve_suite_procs`): one warm session per shard *process*,
  with dead-shard respawn and in-process degradation.
* :mod:`repro.serve.service` — the long-lived entrypoint
  (``python -m repro serve``): an asyncio JSON-lines service over a
  unix socket with admission control in front of the shard processes.

Quick use::

    from repro.circuits import epfl_suite
    from repro.serve import ServeParams, serve_suite

    report = serve_suite(epfl_suite("tiny"), ServeParams(flow="rf", n_shards=2))
    for r in report.results:          # completion order
        print(r.order, r.name, r.n_ands_before, "->", r.n_ands)

At ``workers=1`` every served result is byte-identical (BENCH text) to a
blocking ``run_flow`` on that circuit alone (``pf`` / ``pelf`` steps at
any width); see ``docs/serving.md``.
"""

from .pool import (
    FusedClassifierClient,
    FusionStats,
    SharedClassifierService,
    needs_classifier,
    script_requirements,
)
from .proc import ShardHost, ShardSupervisor, serve_suite_procs
from .shard import ShardPlan, assign_shards
from .store import CachedResult, ResultStore
from .stream import ServeParams, ServeReport, ServeResult, serve_stream, serve_suite

__all__ = [
    "CachedResult",
    "FusedClassifierClient",
    "FusionStats",
    "ResultStore",
    "ServeParams",
    "ServeReport",
    "ServeResult",
    "SharedClassifierService",
    "ShardHost",
    "ShardPlan",
    "ShardSupervisor",
    "assign_shards",
    "needs_classifier",
    "script_requirements",
    "serve_stream",
    "serve_suite",
    "serve_suite_procs",
]
