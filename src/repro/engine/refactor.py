"""The ``pf`` / ``pelf`` pass: ``rf`` / ``elf`` behind a ``-w`` flag.

:func:`engine_refactor` runs the sequential
:func:`repro.opt.refactor.refactor` (or
:func:`repro.elf.operator.elf_refactor` with a classifier) at **every**
width, so its output is byte-identical to ``rf`` / ``elf`` at any
``-w``.  After the exact screens a resynthesis task costs less than a
pipe round trip, and every measured concurrent design lost to the
sequential sweep (``docs/engine.md``).  What the pass adds on top of
the operator is its reporting: an :class:`EngineStats` record, one
``engine.pass`` span and the ``engine_*`` metric series.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field

from .. import obs
from ..aig.graph import AIG
from ..opt.refactor import RefactorParams, RefactorStats, refactor
from ..resilience import Deadline
from .cache import ResynthCache


@dataclass
class EngineParams:
    """Parameters of one ``pf`` / ``pelf`` pass.

    ``workers`` is the requested width (``0`` = auto, one per core).  It
    is recorded on the stats and accepted for compatibility, but every
    width runs the sequential operator.

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
    # (the sequential sweep has no internal checkpoints).
    deadline: "Deadline | None" = None

    def resolved_workers(self) -> int:
        if self.workers > 0:
            return self.workers
        return os.cpu_count() or 1


@dataclass
class EngineStats(RefactorStats):
    """`RefactorStats` plus what the pass reports about itself.

    ``operator`` names the command family (``"refactor"`` for both
    ``pf`` and ``pelf``), ``workers`` the requested width and
    ``delegated`` that the sequential operator ran.  A pass visits every
    node once, so it reports its visited nodes as ``n_candidates`` and
    one wave whenever it visited any.
    """

    operator: str = "refactor"
    workers: int = 1
    delegated: bool = False  # ran the plain sequential operator
    n_candidates: int = 0
    n_waves: int = 0
    n_cache_hits: int = 0  # exact resynthesis cache hits this pass
    # Exact skips (docs/flows.md, "Lossless pruning"): cuts the sequential
    # screens rejected (``fail_screened``).
    screened: int = 0


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
    m.counter("engine_screened_total", operator=op).add(stats.screened)
    m.counter("engine_cache_hits_total", operator=op, layer="exact").add(stats.n_cache_hits)
    m.histogram(
        "engine_pass_seconds", operator=op, workers=str(stats.workers)
    ).observe(stats.time_total)
