"""The conflict-aware wave scheduler (the engine's operator-agnostic core).

One engine pass over a network runs in four phases, none of which knows
which operator it is running — everything operator-specific sits behind
the :class:`repro.engine.operators.WaveOperator` protocol (``snapshot`` /
``evaluate`` / ``commit`` plus lifecycle glue).  The one operator on it
today is wave rewriting (``prw`` / ``prwz``):

1. **Snapshot sweep** — every live AND is offered to the operator's
   ``snapshot`` hook exactly once, on the unmodified graph; rewrite
   returns its 4-feasible cut set with a union footprint.
2. **Conflict planning** — candidates whose commits could interfere are
   linked in a conflict graph (:mod:`repro.engine.conflict`) and greedily
   colored into conflict-free commit waves; the same sweep builds the
   inverted candidate index the incremental machinery runs on.
3. **Per wave** — the wave's members are handed to the operator's
   ``evaluate`` hook as one batch (multi-root truth kernel + cached
   NPN-library lookups); results are gain-checked and committed serially
   in ascending node order through the operator's ``commit`` hook — the
   same commit code the sequential operator uses.
4. **Incremental re-snapshot** — each commit drains the graph's dirty
   journal; the killed set, pushed through the candidate index, yields
   the exact set of candidates whose snapshots the commit invalidated
   (O(damage), no per-candidate liveness probing).  An invalidated
   candidate scheduled in a later wave keeps its slot and is refreshed
   lazily (operator ``resnapshot`` hook) when that wave starts; an
   invalidated member of the *running* wave is deferred at replay and
   lands in a **repair wave** that runs immediately after — the wave
   effectively splits at the first realized conflict, keeping the
   global commit order close to the sequential sweep's node order.
   There is no sequential fallback: ``n_stale`` is structurally zero.

``workers <= 1`` bypasses all of the above and *delegates* to the
sequential :func:`repro.opt.rewrite.rewrite`, bit for bit.

The refactor family (``pf`` / ``pelf``) runs the sequential
``refactor()`` / ``elf_refactor()`` at **every** width
(:func:`engine_refactor`).  After the exact screens a resynthesis task
costs less than a pipe round trip, and two measured alternatives lost
to the sequential sweep (``docs/engine.md``): speculative pooled
prefetch was no faster, and node-range workers that return only
winners lost QoR beyond the 1% bound until re-evaluation made them
serial again.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field

from .. import obs
from ..aig.graph import AIG
from ..errors import DeadlineExceeded
from ..opt.refactor import (
    RefactorParams,
    RefactorStats,
    refactor,
)
from ..opt.rewrite import RewriteParams, RewriteStats, rewrite
from ..resilience import Deadline, policy
from .cache import ResynthCache
from .conflict import Candidate, CandidateIndex, build_conflict_graph, color_waves
from .operators import RewriteWaveOp, WaveOperator


@dataclass
class EngineParams:
    """Parameters of one ``pf`` / ``pelf`` pass.

    ``workers`` is the requested width (``0`` = auto, one per core).  It
    is recorded on the stats and accepted for compatibility, but every
    width runs the sequential operator (see :func:`engine_refactor`).

    ``resynth_cache`` plugs in an externally owned
    :class:`repro.engine.cache.ResynthCache` so factored forms survive
    across passes — ``run_flow`` hands every refactor-family step of one
    script the same cache, which is what makes the second ``elf`` of an
    ``elf; elf`` flow start warm.  Its entries are exact, so a warm start
    is bit-identical to a cold one.
    """

    refactor: RefactorParams = field(default_factory=RefactorParams)
    workers: int = 0
    resynth_cache: "ResynthCache | None" = None
    # Latency budget: an already-expired budget refuses to start the pass
    # (the sequential sweep has no wave boundaries to check at).
    deadline: "Deadline | None" = None

    def resolved_workers(self) -> int:
        if self.workers > 0:
            return self.workers
        return os.cpu_count() or 1


@dataclass
class RewriteEngineParams:
    """Engine knobs for the wave-rewrite pass (``prw`` / ``prwz``).

    ``workers`` selects the mode: ``<= 1`` delegates to the sequential
    :func:`repro.opt.rewrite.rewrite` (bit-identical by construction),
    ``>= 2`` runs the wave pipeline, and ``0`` means auto.  The waves run
    in-process: NPN-library lookups are memoized dict probes, far below
    process-dispatch cost.

    ``resynth_cache`` shares the flow-level cache's *library layer*
    (:meth:`repro.engine.cache.ResynthCache.library_lookup`), so every
    rewrite step of one script canonizes each distinct cut function
    once.  ``library`` pins the NPN library (default: the process-wide
    shared instance).
    """

    rewrite: RewriteParams = field(default_factory=RewriteParams)
    workers: int = 0
    resynth_cache: "ResynthCache | None" = None
    library: object | None = None
    # Latency budget for this pass: checked at wave boundaries; expiry
    # raises DeadlineExceeded with the graph left at a consistent
    # committed prefix (commits are serial, so there is no torn state).
    deadline: "Deadline | None" = None

    def resolved_workers(self) -> int:
        if self.workers > 0:
            return self.workers
        return os.cpu_count() or 1


@dataclass
class EngineStats(RefactorStats):
    """`RefactorStats` plus the engine's scheduling counters.

    One stats type serves both engine commands; ``operator`` records
    which one ran.  Refactor passes always delegate: they report one
    wave per pass and no conflict or re-snapshot counters.  For rewrite
    runs the inherited counters are mapped from
    :class:`repro.opt.rewrite.RewriteStats`: ``cuts_formed`` counts
    evaluated cuts (sequential ``cuts_tried``), ``fail_gain`` counts
    nodes where no cut committed, and ``n_stale_cuts`` /
    ``n_library_hits`` are rewrite-specific.
    """

    operator: str = "refactor"
    workers: int = 1
    delegated: bool = False  # ran the plain sequential operator
    n_candidates: int = 0
    n_conflict_edges: int = 0
    n_waves: int = 0  # waves actually executed (incl. re-snapshot waves)
    # Retained for report compatibility; structurally zero since the
    # sequential fallback was replaced by incremental re-snapshot.
    n_stale: int = 0
    # Candidates newly marked stale; re-hits while already stale are not
    # double-counted (one refresh repairs them all the same).
    n_invalidated: int = 0
    n_resnapshotted: int = 0  # lazy cut/feature refreshes performed
    n_repair_waves: int = 0  # wave splits: repair rounds after deferrals
    n_tasks: int = 0  # cut evaluations requested
    n_unique_tasks: int = 0  # after library-layer cache hits
    n_cache_hits: int = 0  # exact resynthesis cache hits this pass
    n_library_hits: int = 0  # rewrite-library layer hits this pass
    n_stale_cuts: int = 0  # rewrite cuts dropped as stale (dead/uncovered)
    # Exact skips (docs/flows.md, "Lossless pruning").  Refactor: cuts the
    # sequential screens rejected (``fail_screened``).  Rewrite: nodes and
    # cuts skipped because the root has no twin, and cuts whose key bound
    # cannot beat the best.  The names match RewriteStats, so
    # ``commit_scored`` counts straight into them.
    screened: int = 0
    bounded: int = 0
    time_snapshot: float = 0.0
    time_conflict: float = 0.0
    time_replay: float = 0.0
    time_resnapshot: float = 0.0  # cross-wave re-snapshot + requeue time

    @property
    def dedup_rate(self) -> float:
        """Fraction of evaluation tasks eliminated by dedup + caching."""
        if self.n_tasks == 0:
            return 0.0
        return 1.0 - self.n_unique_tasks / self.n_tasks

    @property
    def resnapshot_rate(self) -> float:
        """Fraction of candidates that needed a cross-wave re-snapshot."""
        if self.n_candidates == 0:
            return 0.0
        return self.n_resnapshotted / self.n_candidates


def engine_refactor(
    g: AIG,
    params: EngineParams | None = None,
    classifier=None,
) -> EngineStats:
    """One ``pf`` pass over ``g`` in place (``pelf`` with ``classifier``).

    Runs the sequential :func:`repro.opt.refactor.refactor` (or
    :func:`repro.elf.operator.elf_refactor`) at every worker count, so
    the output is byte-identical to ``rf`` / ``elf`` at any ``-w``.  The
    result is an :class:`EngineStats` with ``delegated`` set and the
    requested width in ``workers``.
    """
    params = params or EngineParams()
    if params.deadline is not None:
        params.deadline.check("engine.pass")
    workers = params.resolved_workers()
    with obs.span(
        "engine.pass", operator="refactor", workers=workers, delegated=True
    ) as pass_span:
        stats = _delegate_sequential(g, params, classifier, workers)
        pass_span.set(screened=stats.screened, commits=stats.commits)
    _record_pass_metrics(stats)
    return stats


def engine_rewrite(
    g: AIG,
    params: RewriteEngineParams | None = None,
) -> EngineStats:
    """One conflict-wave rewrite pass over ``g`` in place.

    :func:`run_wave_pass` driving the
    :class:`repro.engine.operators.RewriteWaveOp` adapter; ``workers <= 1``
    delegates to the sequential :func:`repro.opt.rewrite.rewrite`
    bit-identically.
    """
    from ..opt.npn_library import default_library

    params = params or RewriteEngineParams()
    workers = params.resolved_workers()
    if workers <= 1:
        if params.deadline is not None:
            params.deadline.check("engine.pass")
        with obs.span("engine.pass", operator="rewrite", workers=1, delegated=True):
            stats = _delegate_sequential_rewrite(g, params)
        _record_pass_metrics(stats)
        return stats

    stats = EngineStats(workers=workers, operator="rewrite")
    base_cache = params.resynth_cache
    if base_cache is None:
        base_cache = ResynthCache()
    library = params.library
    if library is None:  # NB: a fresh library is empty and therefore falsy
        library = default_library()
    op = RewriteWaveOp(params.rewrite, base_cache, library)
    run_wave_pass(g, op, stats, deadline=params.deadline)
    return stats


def _delegate_sequential(
    g: AIG, params: EngineParams, classifier, workers: int
) -> EngineStats:
    """Run the sequential operator as-is and map its counters.

    A shared ``resynth_cache`` is passed through: entries are pure
    functions of ``(tt, n_leaves)``, so warm starts stay bit-identical
    to a cold sequential run.
    """
    cache = params.resynth_cache
    hits0 = cache.hits_exact if cache is not None else 0
    if classifier is None:
        base = refactor(g, params.refactor, cache=cache)
    else:
        from ..elf.operator import ElfParams, elf_refactor

        base = elf_refactor(
            g, classifier, ElfParams(refactor=params.refactor), cache=cache
        )
    stats = EngineStats(workers=workers, delegated=True)
    for f in dataclasses.fields(RefactorStats):
        setattr(stats, f.name, getattr(base, f.name))
    stats.screened = base.fail_screened
    if cache is not None:
        stats.n_cache_hits = cache.hits_exact - hits0
    stats.n_candidates = base.nodes_visited
    stats.n_waves = 1 if base.nodes_visited else 0
    return stats


def _delegate_sequential_rewrite(g: AIG, params: RewriteEngineParams) -> EngineStats:
    """``workers <= 1`` rewrite mode: run ``rewrite()`` itself, bit for bit,
    then map its counters onto the engine's stats shape."""
    base: RewriteStats = rewrite(g, params.rewrite, library=params.library)
    stats = EngineStats(workers=1, delegated=True, operator="rewrite")
    stats.nodes_visited = base.nodes_visited
    stats.cuts_formed = base.cuts_tried
    stats.commits = base.commits
    stats.gain_total = base.gain_total
    stats.n_stale_cuts = base.stale_cuts
    stats.screened = base.screened
    stats.bounded = base.bounded
    stats.time_total = base.time_total
    stats.n_candidates = base.nodes_visited
    stats.n_waves = 1 if base.nodes_visited else 0
    return stats


def run_wave_pass(
    g: AIG,
    op: WaveOperator,
    stats: EngineStats,
    deadline: "Deadline | None" = None,
) -> EngineStats:
    """Run one generic wave pass of ``op`` over ``g`` in place.

    The scheduler owns everything operator-agnostic — candidate
    bookkeeping, conflict planning, wave coloring, invalidation and
    repair waves — and calls the operator's hooks for the rest.
    ``stats`` is the caller-constructed :class:`EngineStats` (mutated in
    place and returned).

    ``deadline`` bounds the pass: it is checked before every wave (and
    repair round), and expiry raises
    :class:`repro.errors.DeadlineExceeded` **after** the operator's
    ``finish`` hook and the pass metrics run — commits are serial, so
    the graph is always a consistent, CEC-verifiable prefix of the full
    pass at that point (counted ``engine_deadline_exceeded_total``).

    Every phase is bracketed by a :mod:`repro.obs` span (one pass span,
    ``engine.snapshot`` / ``engine.conflict`` children, one
    ``engine.wave`` child per executed wave with per-phase grandchildren)
    and the stats timing fields read the span durations — with tracing
    enabled, a Chrome-trace timeline and the stats report can never
    disagree, because they are the same measurements.
    """
    exceeded: DeadlineExceeded | None = None
    with obs.span(
        "engine.pass", operator=stats.operator, workers=stats.workers
    ) as pass_span:
        # Phase 1: pass-level prep + snapshot sweep on the intact graph.
        with obs.span("engine.snapshot") as snap_span:
            op.prepare(g, stats)
            candidates: list[Candidate] = []
            for node in g.iter_ands():
                candidate = op.snapshot(g, node, stats)
                if candidate is not None:
                    candidates.append(candidate)
            snap_span.set(n_candidates=len(candidates))
        stats.time_snapshot = snap_span.duration
        stats.time_cut += stats.time_snapshot
        stats.n_candidates = len(candidates)

        # Phase 2: conflict planning over the shared inverted index.
        with obs.span("engine.conflict") as conflict_span:
            index = CandidateIndex()
            for i, candidate in enumerate(candidates):
                index.add(i, candidate)
            adjacency, n_edges = build_conflict_graph(candidates, index)
            wave_queue = color_waves(adjacency)
            conflict_span.set(n_edges=n_edges, n_waves=len(wave_queue))
        stats.n_conflict_edges = n_edges
        stats.time_conflict = conflict_span.duration

        # Phases 3+4, wave by wave.  Snapshots describe the graph as of
        # now; discard older damage.
        g.drain_dirty()
        pending = set(range(len(candidates)))
        stale: set[int] = set()  # invalidated, not yet re-snapshotted
        try:
            for wave in wave_queue:
                members = [i for i in wave if i in pending]
                repair = False
                while members:
                    if deadline is not None:
                        deadline.check("engine.wave")
                    stats.n_waves += 1
                    if repair:
                        stats.n_repair_waves += 1
                    with obs.span(
                        "engine.wave",
                        wave=stats.n_waves - 1,
                        repair=repair,
                        members=len(members),
                    ) as wave_span:
                        deferred = _run_wave(
                            g,
                            op,
                            members,
                            candidates,
                            index,
                            stats,
                            pending,
                            stale,
                        )
                        wave_span.set(deferred=len(deferred))
                    # Members invalidated mid-wave split off into a repair
                    # wave that runs immediately, preserving the sequential
                    # sweep's node-order locality.
                    members = sorted(i for i in deferred if i in pending)
                    repair = True
        except DeadlineExceeded as error:
            # Wave-boundary expiry.  Commits are serial, so the graph
            # holds exactly the waves committed so far — finish the pass
            # bookkeeping, then re-raise below (outside the spans).
            exceeded = error
        op.finish(stats)
        pass_span.set(
            n_candidates=stats.n_candidates,
            n_waves=stats.n_waves,
            n_invalidated=stats.n_invalidated,
            n_resnapshotted=stats.n_resnapshotted,
            n_repair_waves=stats.n_repair_waves,
            n_library_hits=stats.n_library_hits,
            screened=stats.screened,
            bounded=stats.bounded,
            dedup_rate=round(stats.dedup_rate, 6),
            commits=stats.commits,
        )
    stats.time_total = pass_span.duration
    _record_pass_metrics(stats)
    if exceeded is not None:
        policy.record_deadline("engine")
        raise exceeded
    return stats


def _record_pass_metrics(stats: EngineStats) -> None:
    """Fold one finished pass into the process metrics registry.

    The registry is always on (cheap, per-pass granularity); tracing
    spans are the opt-in part.  These counters are what the Prometheus
    and JSONL exports surface, and what benchmarks read instead of
    hand-rolled timers.
    """
    m = obs.metrics()
    op = stats.operator
    m.counter("engine_passes_total", operator=op).add(1)
    m.counter("engine_waves_total", operator=op).add(stats.n_waves)
    m.counter("engine_commits_total", operator=op).add(stats.commits)
    m.counter("engine_tasks_total", operator=op).add(stats.n_tasks)
    m.counter("engine_unique_tasks_total", operator=op).add(stats.n_unique_tasks)
    m.counter("engine_invalidated_total", operator=op).add(stats.n_invalidated)
    m.counter("engine_resnapshotted_total", operator=op).add(stats.n_resnapshotted)
    m.counter("engine_repair_waves_total", operator=op).add(stats.n_repair_waves)
    m.counter("engine_screened_total", operator=op).add(stats.screened + stats.bounded)
    m.counter("engine_cache_hits_total", operator=op, layer="exact").add(stats.n_cache_hits)
    m.counter("engine_cache_hits_total", operator=op, layer="library").add(
        stats.n_library_hits
    )
    m.histogram(
        "engine_pass_seconds", operator=op, workers=str(stats.workers)
    ).observe(stats.time_total)


def _refresh_members(
    g: AIG,
    op: WaveOperator,
    member_indices: list[int],
    candidates: list[Candidate],
    index: CandidateIndex,
    stats: EngineStats,
    pending: set[int],
    stale: set[int],
) -> list[tuple[int, Candidate]]:
    """Lazily re-snapshot the stale members of a wave about to run.

    Invalidated candidates keep their wave slot; the refresh — the
    operator's ``resnapshot`` hook, on the graph every earlier commit
    already shaped — happens exactly once per wave arrival.  Dead roots
    are dropped (the commit cascade consumed them; the sequential sweep
    skips those too), and roots the operator declines to re-snapshot
    (collapsed cuts, all-stale cut sets) are accounted by the hook and
    dropped as well.
    """
    refreshed: list[tuple[int, Candidate]] = []
    with obs.span("engine.resnapshot") as sp:
        n_refreshed = 0
        for i in member_indices:
            if i not in stale:
                refreshed.append((i, candidates[i]))
                continue
            stale.discard(i)
            if g.is_dead(candidates[i].node):
                pending.discard(i)
                continue
            fresh = op.resnapshot(g, candidates[i], stats)
            if fresh is None:
                pending.discard(i)
                continue
            candidates[i] = fresh
            index.add(i, fresh)
            stats.n_resnapshotted += 1
            n_refreshed += 1
            refreshed.append((i, fresh))
        sp.set(refreshed=n_refreshed)
    stats.time_resnapshot += sp.duration
    return refreshed


def _run_wave(
    g: AIG,
    op: WaveOperator,
    member_indices: list[int],
    candidates: list[Candidate],
    index: CandidateIndex,
    stats: EngineStats,
    pending: set[int],
    stale: set[int],
) -> set[int]:
    """Batch-evaluate and commit one wave through the operator.

    Stale members are re-snapshotted up front, so the operator's batch
    evaluation only ever sees snapshots that describe the current graph.
    Returns the indices deferred mid-wave (an earlier commit of this
    same wave dirtied their cone); the caller runs them as a repair wave
    next.
    """
    members = _refresh_members(
        g, op, member_indices, candidates, index, stats, pending, stale
    )

    # The operator's batchable middle: truth kernels and cache lookups.
    with obs.span("engine.evaluate", survivors=len(members)):
        results = op.evaluate(g, members, stats)

    # Serial replay in ascending node order.  Each commit drains the
    # dirty journal and pushes the killed set through the candidate
    # index: invalidated candidates anywhere in the schedule are marked
    # stale (their wave refreshes them lazily on arrival), and
    # invalidated members of *this* wave are additionally deferred so
    # the caller can split them off into an immediate repair wave.
    with obs.span("engine.commit") as commit_span:
        replay = sorted(zip(members, results), key=lambda item: item[0][1].node)
        unprocessed = {i for i, _ in members}
        deferred: set[int] = set()
        for (i, candidate), result in replay:
            unprocessed.discard(i)
            if i in deferred:
                continue  # stays pending; the repair wave re-snapshots it
            if g.is_dead(candidate.node):  # pragma: no cover - journal catches this first
                deferred.add(i)
                stale.add(i)
                continue
            commit_dirty: set[int] = set()
            op.commit(g, candidate, result, stats, commit_dirty)
            pending.discard(i)
            if commit_dirty:
                invalidated = index.invalidated(commit_dirty, pending)
                stats.n_invalidated += len(invalidated - stale)
                stale |= invalidated
                deferred |= invalidated & unprocessed
        commit_span.set(replayed=len(replay), deferred=len(deferred))
    stats.time_replay += commit_span.duration
    return deferred
