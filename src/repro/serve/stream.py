"""Streamed execution of a flow over a sharded circuit suite.

:func:`serve_stream` is the serving entry point: it shards the suite
(:mod:`repro.serve.shard`), provisions each shard's shared resources
(:mod:`repro.serve.pool`), runs the requested flow on every circuit, and
yields a :class:`ServeResult` per circuit **in completion order** — a
fast circuit on shard 0 is delivered while a slow circuit on shard 1 is
still refactoring, so consumers (dashboards, downstream tooling, the
throughput benchmark) never block on the slowest shard.

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
returns a :class:`ServeReport` with the plan, per-shard fusion
statistics and aggregate throughput.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Iterator

from .. import obs
from ..aig.graph import AIG
from ..aig.io_bench import to_text
from ..errors import DeadlineExceeded
from ..opt.flow import FlowReport
from ..opt.session import OptSession
from ..resilience import Deadline, policy
from ..tune import RecipeBook, TuneParams, tune
from .pool import FusionStats, SharedClassifierService, script_requirements
from .shard import ShardPlan, assign_shards


@dataclass
class ServeParams:
    """Serving-run configuration.

    ``flow`` is any :func:`repro.opt.flow.run_flow` script.  ``workers``
    is applied to engine commands without an explicit ``-w``; at
    ``workers=1`` every engine command is bit-identical to its
    sequential operator (``pf`` / ``pelf`` are at any width).
    ``fuse_classifier=False`` gives every circuit a private classifier
    call (the ablation the occupancy stats are compared against).
    ``keep_graphs=False`` drops result graphs to bound memory on large
    suites (the BENCH text, enough for verification, is always kept).

    ``circuit_timeout_s`` is the per-circuit latency budget: a
    :class:`repro.resilience.Deadline` checked between flow steps and at
    every ``prw`` wave boundary, so one pathological circuit cannot stall
    its shard for long.  A circuit that blows the
    budget still yields a *valid* result — engine commits are serial, so
    the best committed prefix is CEC-equivalent to the input — marked
    ``deadline_exceeded`` and counted ``serve_deadline_exceeded_total``.
    ``None`` (the default) serves without a budget.

    ``engine_cache_entries`` bounds every per-run resynthesis cache a
    serving session creates (LRU entries per layer, see
    :class:`repro.engine.ResynthCache`); ``None`` is unbounded — fine
    for one suite, set it on long-lived services.

    ``quality_budget_s`` switches the run into **tuned** mode: instead
    of executing ``flow``, each circuit gets a per-circuit script search
    (:func:`repro.tune.tune`) under that wall-clock budget and yields
    the best committed result when it expires — never an error, never a
    torn network (see ``docs/tuning.md``).  Tuned results carry the
    chosen script on ``ServeResult.tuned_script`` and are **never**
    entered into a content-addressed store: their content depends on the
    wall clock, so caching one would freeze a timing accident.
    """

    flow: str = "rf"
    n_shards: int = 2
    workers: int = 1
    fuse_classifier: bool = True
    keep_graphs: bool = True
    circuit_timeout_s: float | None = None
    engine_cache_entries: int | None = None
    quality_budget_s: float | None = None


@dataclass
class ServeResult:
    """Outcome of serving one circuit."""

    name: str
    shard: int
    order: int = -1  # completion index over the whole run, set on yield
    runtime: float = 0.0
    n_ands_before: int = 0
    level_before: int = 0
    n_ands: int = 0
    level: int = 0
    report: FlowReport | None = None
    graph: AIG | None = None
    bench_text: str | None = None
    error: str | None = None
    # True when the circuit's budget expired: the result then holds the
    # best committed prefix (valid and CEC-clean), not the full flow.
    deadline_exceeded: bool = False
    # True when the result came out of a content-addressed ResultStore
    # (shard is -1 then: no shard ever saw the request).
    cached: bool = False
    # The script the tuner chose (quality-budget mode only, else None).
    tuned_script: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class ServeReport:
    """Aggregate view of a completed serving run."""

    plan: ShardPlan
    results: list[ServeResult] = field(default_factory=list)
    fusion: dict[int, FusionStats] = field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def circuits_per_second(self) -> float:
        return len(self.results) / self.wall_time if self.wall_time > 0 else 0.0

    def result_of(self, name: str) -> ServeResult:
        for result in self.results:
            if result.name == name:
                return result
        raise KeyError(name)


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
    set, ``shard`` -1, bench text byte-identical to the original miss),
    misses run normally and their clean results are inserted on
    completion.  Deadline-expired and errored results never enter the
    store.
    """
    params = params or ServeParams()
    if params.quality_budget_s is not None:
        # Tuned content depends on the wall clock: the store can neither
        # answer nor learn from a quality-budget run.
        store = None
    if plan is None:
        plan = assign_shards(suite, params.n_shards, cost)
    cache_keys: dict[str, tuple] = {}
    cache_hits: list[ServeResult] = []
    if store is not None:
        for name, g in suite.items():
            cache_keys[name] = store.key(g, params.flow)
            hit = store.lookup(cache_keys[name])
            if hit is not None:
                cache_hits.append(
                    ServeResult(
                        name=name,
                        shard=-1,
                        n_ands_before=g.n_ands,
                        level_before=g.max_level(),
                        n_ands=hit.n_ands,
                        level=hit.level,
                        bench_text=hit.bench_text,
                        cached=True,
                    )
                )
        if cache_hits:
            suite = {
                name: g
                for name, g in suite.items()
                if name not in {r.name for r in cache_hits}
            }
            plan = assign_shards(suite, params.n_shards, cost)
    needs = script_requirements(params.flow)
    fuse = classifier is not None and params.fuse_classifier and needs.classifier
    results: queue.Queue[ServeResult] = queue.Queue()
    threads: list[threading.Thread] = []
    sessions: list[OptSession] = []
    for shard_index, names in enumerate(plan.shards):
        service = None
        if fuse and len(names) > 0:
            service = SharedClassifierService(classifier, list(names))
            if fusion_out is not None:
                fusion_out[shard_index] = service.stats
        # One session per shard: every circuit of the shard shares its
        # NPN library.  Caches are per run (= per circuit), so a served
        # result never depends on what the shard's other circuits
        # seeded, and cache memory stays bounded per request.
        session = OptSession(
            classifier=classifier,
            engine_workers=params.workers if params.workers > 0 else None,
            per_run_cache=True,
            cache_entries=params.engine_cache_entries,
        )
        sessions.append(session)
        # Quality-budget mode: the shard shares one in-memory recipe
        # book, so a tuned circuit warm-starts from scripts its shard
        # siblings already discovered (thread-safe; never persisted).
        recipes = RecipeBook() if params.quality_budget_s is not None else None
        for name in names:
            threads.append(
                threading.Thread(
                    target=_serve_one,
                    name=f"serve-{name}",
                    args=(
                        name,
                        suite[name],
                        shard_index,
                        params,
                        session,
                        service,
                        results,
                        store,
                        cache_keys.get(name),
                        recipes,
                    ),
                    daemon=True,
                )
            )
    started: list[threading.Thread] = []
    try:
        order = 0
        for hit in cache_hits:
            hit.order = order
            order += 1
            obs.counter("serve_circuits_total", outcome="ok").add(1)
            yield hit
        for thread in threads:
            thread.start()
            started.append(thread)
        for _ in range(len(started)):
            result = results.get()
            result.order = order
            order += 1
            yield result
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
    front; the reported ``plan`` still covers the whole suite (it is the
    logical assignment — cache hits simply never reach their shard).
    """
    params = params or ServeParams()
    plan = assign_shards(suite, params.n_shards, cost)
    fusion: dict[int, FusionStats] = {}
    with obs.span(
        "serve.suite", circuits=len(suite), shards=len(plan.shards), flow=params.flow
    ) as suite_span:
        results = list(
            serve_stream(
                suite,
                params,
                classifier,
                cost,
                fusion_out=fusion,
                plan=None if store is not None else plan,
                store=store,
            )
        )
        suite_span.set(ok=all(r.ok for r in results))
    return ServeReport(
        plan=plan,
        results=results,
        fusion=fusion,
        wall_time=suite_span.duration,
    )


def _serve_one(
    name: str,
    g: AIG,
    shard: int,
    params: ServeParams,
    session: OptSession,
    service: SharedClassifierService | None,
    results: "queue.Queue[ServeResult]",
    store=None,
    cache_key: tuple | None = None,
    recipes: RecipeBook | None = None,
) -> None:
    """Thread body: run the flow on a clone, push one result, always.

    ``session`` is the *shard's* shared session (cache, library, pool);
    the per-circuit fused classifier client — when the shard fuses —
    rides in as this run's classifier override.  A clean (non-error,
    non-deadline) result is inserted into ``store`` under ``cache_key``
    when a content-addressed cache fronts this run.  With
    ``params.quality_budget_s`` set the fixed flow is replaced by a
    per-circuit tuner search sharing the shard's ``recipes`` book;
    budget expiry yields the best committed result, never an error.
    """
    result = ServeResult(
        name=name,
        shard=shard,
        n_ands_before=g.n_ands,
        level_before=g.max_level(),
    )
    client = service.client(name) if service is not None else None
    deadline = None
    if params.circuit_timeout_s is not None:
        deadline = Deadline.after(params.circuit_timeout_s)
    # The span doubles as the latency clock: ``result.runtime`` is its
    # duration, and the registry histogram below is what the throughput
    # benchmark and a Prometheus scrape read.
    span = obs.span("serve.circuit", circuit=name, shard=shard)
    try:
        with span:
            if params.quality_budget_s is not None:
                tuned = tune(
                    g,
                    TuneParams(budget_s=params.quality_budget_s, recipes=recipes),
                    session=session,
                )
                out = tuned.graph
                result.tuned_script = tuned.script
            else:
                out, report = session.run(
                    g.clone(), params.flow, classifier=client, deadline=deadline
                )
                result.report = report
            result.n_ands = out.n_ands
            result.level = out.max_level()
            result.bench_text = to_text(out)
            if params.keep_graphs:
                result.graph = out
            span.set(n_ands=out.n_ands)
    except DeadlineExceeded as error:
        # The budget expired mid-flow.  The session attached the best
        # committed prefix — a valid, CEC-clean network — so the circuit
        # still yields a usable (if less optimized) result.
        policy.record_deadline("serve")
        result.deadline_exceeded = True
        result.report = error.report
        out = error.partial
        if out is not None:
            result.n_ands = out.n_ands
            result.level = out.max_level()
            result.bench_text = to_text(out)
            if params.keep_graphs:
                result.graph = out
    except Exception as error:
        obs.counter(
            "serve_circuit_errors_total", type=type(error).__name__
        ).add(1)
        result.error = f"{type(error).__name__}: {error}"
    finally:
        if client is not None:
            client.finish()
        if (
            store is not None
            and cache_key is not None
            and result.ok
            and not result.deadline_exceeded
            and result.bench_text is not None
        ):
            from .store import CachedResult

            store.insert(
                cache_key,
                CachedResult(
                    bench_text=result.bench_text,
                    n_ands=result.n_ands,
                    level=result.level,
                    n_ands_before=result.n_ands_before,
                    level_before=result.level_before,
                ),
            )
        result.runtime = span.duration
        metrics = obs.metrics()
        metrics.histogram("serve_circuit_seconds", shard=str(shard)).observe(
            result.runtime
        )
        metrics.counter(
            "serve_circuits_total", outcome="ok" if result.ok else "error"
        ).add(1)
        results.put(result)
