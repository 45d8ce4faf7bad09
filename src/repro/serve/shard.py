"""The shard: which circuits it owns, and the one body that runs them.

**Plan.**  A serving run partitions a suite of circuits across a fixed
number of shards with the classic LPT (longest-processing-time-first)
greedy: circuits are ordered by descending cost estimate and each is
placed on the currently lightest shard.  Every tie — equal costs, equal
loads — is broken by name / lowest shard index, so the plan is a pure
function of the suite: the same suite always produces byte-for-byte the
same plan, which makes serving runs reproducible and lets tests pin
shard-local behaviour.  The default cost estimate is the AND count:
refactor-family passes sweep every AND node, so node count is
proportional to pass runtime to first order.  Callers with better
priors (e.g. measured runtimes from an earlier serving run) can pass an
explicit cost map.

**Body.**  Both serving tiers run a circuit the same way; they differ
only in where the body runs — a thread of the caller
(:mod:`repro.serve.stream`) or a forked shard process
(:mod:`repro.serve.proc`):

* :meth:`ServeParams.session` builds a shard's warm session;
* :func:`split_suite` answers what a :class:`~repro.serve.store.ResultStore`
  already holds and leaves each shard its misses;
* :func:`run_circuit` runs one circuit and returns its *payload*, a
  plain dict whose keys are :class:`ServeResult` field names (it
  crosses the process boundary as is);
* :func:`settle` accounts a finished payload, caches it when clean and
  wraps it as the :class:`ServeResult` both orchestrators yield.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs
from ..aig.io_bench import from_text, to_text
from ..errors import DeadlineExceeded, ReproError
from ..opt.session import OptSession
from ..resilience import Deadline, policy
from ..tune import TuneParams, tune
from .pool import FusionStats


@dataclass(frozen=True)
class ShardPlan:
    """An immutable circuit -> shard partition.

    ``shards[i]`` lists the circuit names owned by shard ``i`` in
    assignment order; ``cost`` records the estimate each placement used.
    """

    n_shards: int
    shards: tuple[tuple[str, ...], ...]
    cost: dict[str, int] = field(default_factory=dict)

    def shard_of(self, name: str) -> int:
        """Index of the shard serving ``name``."""
        for index, members in enumerate(self.shards):
            if name in members:
                return index
        raise ReproError(f"circuit {name!r} is not in this plan")

    @property
    def names(self) -> tuple[str, ...]:
        """All circuit names in shard order."""
        return tuple(name for members in self.shards for name in members)

    def load(self, index: int) -> int:
        """Total estimated cost assigned to shard ``index``."""
        return sum(self.cost.get(name, 0) for name in self.shards[index])

    @property
    def imbalance(self) -> float:
        """Heaviest shard load over mean load (1.0 = perfectly balanced)."""
        loads = [self.load(i) for i in range(self.n_shards)]
        mean = sum(loads) / max(1, len(loads))
        return max(loads) / mean if mean > 0 else 1.0


def assign_shards(
    suite: dict[str, object],
    n_shards: int,
    cost: dict[str, int] | None = None,
) -> ShardPlan:
    """LPT-partition ``suite`` (name -> AIG) into at most ``n_shards``.

    Shard count is capped at the suite size so no shard is empty.  The
    result is deterministic: descending cost with names as tie-break,
    each circuit placed on the least-loaded (then lowest-index) shard.
    """
    if n_shards < 1:
        raise ReproError(f"n_shards must be >= 1, got {n_shards}")
    if not suite:
        return ShardPlan(n_shards=0, shards=())
    if cost is None:
        cost = {name: max(1, g.n_ands) for name, g in suite.items()}
    else:
        missing = [name for name in suite if name not in cost]
        if missing:
            raise ReproError(f"cost map is missing circuits: {missing[:5]}")
        cost = {name: max(1, int(cost[name])) for name in suite}
    n_shards = min(n_shards, len(suite))
    order = sorted(suite, key=lambda name: (-cost[name], name))
    members: list[list[str]] = [[] for _ in range(n_shards)]
    loads = [0] * n_shards
    for name in order:
        index = min(range(n_shards), key=lambda i: (loads[i], i))
        members[index].append(name)
        loads[index] += cost[name]
    return ShardPlan(
        n_shards=n_shards,
        shards=tuple(tuple(m) for m in members),
        cost=cost,
    )


@dataclass
class ServeParams:
    """Serving-run configuration.

    ``flow`` is any :func:`repro.opt.flow.run_flow` script.  ``workers``
    is applied to engine commands without an explicit ``-w``; at
    ``workers=1`` every engine command is bit-identical to its
    sequential operator (``pf`` / ``pelf`` are at any width).

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
    circuit_timeout_s: float | None = None
    engine_cache_entries: int | None = None
    quality_budget_s: float | None = None

    def session(self, classifier=None) -> OptSession:
        """One shard's warm session.

        Every circuit of the shard shares its NPN library; resynthesis
        caches are per run (= per circuit), so a served result never
        depends on what the shard's other circuits seeded, and their
        memory is bounded per request (``engine_cache_entries``).  The
        kernels' own memos are not: the ISOP and factoring memos
        (``repro.tt.isop``, ``repro.factor.factoring``) are
        process-wide, live across the shard's requests, and are bounded
        only by their entry caps (see ``docs/engine.md``).
        """
        return OptSession(
            classifier=classifier,
            engine_workers=self.workers if self.workers > 0 else None,
            per_run_cache=True,
            cache_entries=self.engine_cache_entries,
        )


@dataclass
class ServeResult:
    """Outcome of serving one circuit."""

    name: str
    shard: int
    order: int = -1  # completion index over the whole run
    runtime: float = 0.0
    n_ands_before: int = 0
    level_before: int = 0
    n_ands: int = 0
    level: int = 0
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


def split_suite(
    suite: dict, plan: ShardPlan, params: ServeParams, store=None
) -> tuple[list[dict], list[list[str]], dict[str, tuple]]:
    """Split ``suite`` into store hits and each shard's misses.

    Returns ``(hits, misses, keys)``: the hit payloads in plan order
    (``cached`` set, bench text byte-identical to the original miss),
    ``misses[i]`` the circuits shard ``i`` still has to run, and the
    store key of every miss — empty without a store and in tuned mode,
    whose wall-clock-dependent content the store can neither answer nor
    learn from.
    """
    if store is None or params.quality_budget_s is not None:
        return [], [list(names) for names in plan.shards], {}
    hits: list[dict] = []
    misses: list[list[str]] = []
    keys: dict[str, tuple] = {}
    for names in plan.shards:
        misses.append([])
        for name in names:
            g = suite[name]
            key = store.key(g, params.flow)
            hit = store.lookup(key)
            if hit is None:
                keys[name] = key
                misses[-1].append(name)
            else:
                hits.append(hit.payload(name, g.n_ands, g.max_level()))
    return hits, misses, keys


def run_circuit(
    session: OptSession,
    params: ServeParams,
    name: str,
    graph,
    script: str | None = None,
    quality_budget_s: float | None = None,
    recipes=None,
    classifier=None,
) -> dict:
    """Run one circuit through ``session``; always return its payload.

    ``graph`` is consumed: the thread tier passes a clone of the
    caller's AIG, a shard process the BENCH text off its inbox, parsed
    here inside the error guard so a malformed netlist becomes this
    circuit's ``error`` like any other failure.  ``script`` of ``None``
    means ``params.flow``; ``classifier`` overrides the session's for
    this run (a shard's fused client).

    A quality budget (``quality_budget_s``, falling back to
    ``params.quality_budget_s``) replaces the script with a tuner search
    sharing ``recipes``: the payload then carries the chosen flow as
    ``tuned_script``, and budget expiry yields the best committed result
    — the tuner's contract is best-so-far, not all-or-nothing.  A fixed
    script that blows ``params.circuit_timeout_s`` yields the best
    committed prefix, marked ``deadline_exceeded``.
    """
    payload: dict = {"name": name, "error": None, "deadline_exceeded": False}
    if quality_budget_s is None:
        quality_budget_s = params.quality_budget_s
    # The span doubles as the latency clock: the payload's ``runtime``.
    with obs.span("serve.circuit", circuit=name) as span:
        out = None
        try:
            if isinstance(graph, str):
                graph = from_text(graph, name=name)
            payload["n_ands_before"] = graph.n_ands
            payload["level_before"] = graph.max_level()
            if quality_budget_s is not None:
                tuned = tune(
                    graph,
                    TuneParams(budget_s=quality_budget_s, recipes=recipes),
                    session=session,
                )
                payload["tuned_script"] = tuned.script
                out = tuned.graph
            else:
                deadline = None
                if params.circuit_timeout_s is not None:
                    deadline = Deadline.after(params.circuit_timeout_s)
                out, _report = session.run(
                    graph, script or params.flow, classifier=classifier, deadline=deadline
                )
        except DeadlineExceeded as error:
            # The session attached the best committed prefix — a valid,
            # CEC-clean network — so the circuit still yields a result.
            policy.record_deadline("serve")
            payload["deadline_exceeded"] = True
            out = error.partial
        except Exception as error:
            obs.counter("serve_circuit_errors_total", type=type(error).__name__).add(1)
            payload["error"] = f"{type(error).__name__}: {error}"
            span.set(error=type(error).__name__)
        if out is not None:
            payload["n_ands"] = out.n_ands
            payload["level"] = out.max_level()
            payload["bench_text"] = to_text(out)
            span.set(n_ands=out.n_ands)
    payload["runtime"] = span.duration
    return payload


def settle(
    payload: dict, shard: int, order: int, store=None, key: tuple | None = None
) -> ServeResult:
    """Account one finished payload and wrap it as a :class:`ServeResult`.

    Every payload counts on ``serve_circuits_total{outcome}``.  A payload
    a shard ran (not ``cached``) is also timed on
    ``serve_circuit_seconds{shard}`` and, given its store ``key``, offered
    to ``store`` (:meth:`~repro.serve.store.ResultStore.insert_payload`
    keeps only clean results).
    """
    metrics = obs.metrics()
    if not payload.get("cached"):
        metrics.histogram("serve_circuit_seconds", shard=str(shard)).observe(
            payload["runtime"]
        )
        if key is not None:
            store.insert_payload(key, payload)
    metrics.counter(
        "serve_circuits_total", outcome="ok" if payload["error"] is None else "error"
    ).add(1)
    return ServeResult(shard=shard, order=order, **payload)
