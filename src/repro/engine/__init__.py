"""Conflict-aware wave engine: the ``pf`` / ``pelf`` / ``prw`` commands.

The sequential operator sweeps visit nodes one at a time; the only speed
lever ELF adds on top is classifier pruning, and the exact screens of
:mod:`repro.opt.refactor` are the lossless one.  This subsystem holds
the engine commands:

* :func:`engine_refactor` (``pf`` / ``pelf``) runs the sequential
  refactor or ELF sweep at every worker count, so its output is
  byte-identical to ``rf`` / ``elf`` at any ``-w``.  After the screens a
  resynthesis task costs less than a process round trip, and the
  measured pooled designs lost to the sequential sweep
  (``docs/engine.md``).
* :func:`engine_rewrite` (``prw``) groups footprint-disjoint candidates
  into conflict-free commit waves (:mod:`repro.engine.conflict`),
  batch-evaluates each wave off the main graph and replays winning
  commits serially (:mod:`repro.engine.scheduler`).  The scheduler is
  operator-agnostic: everything operator-specific sits behind the
  :class:`repro.engine.operators.WaveOperator` protocol, implemented by
  :class:`repro.engine.operators.RewriteWaveOp` (DAC'06 rewriting:
  batched truth kernels + cached NPN-library lookups through
  :mod:`repro.engine.cache`).  Snapshots an earlier wave invalidates
  are incrementally re-cut and re-waved via the graph's dirty journal
  and the candidate inverted index.  ``workers=1`` delegates to the
  sequential operator, bit for bit.
"""

from .cache import ResynthCache
from .conflict import Candidate, CandidateIndex, build_conflict_graph, color_waves
from .operators import RewriteWaveOp, WaveOperator
from .scheduler import (
    EngineParams,
    EngineStats,
    RewriteEngineParams,
    engine_refactor,
    engine_rewrite,
    run_wave_pass,
)

__all__ = [
    "Candidate",
    "CandidateIndex",
    "EngineParams",
    "EngineStats",
    "ResynthCache",
    "RewriteEngineParams",
    "RewriteWaveOp",
    "WaveOperator",
    "build_conflict_graph",
    "color_waves",
    "engine_refactor",
    "engine_rewrite",
    "run_wave_pass",
]
