"""ELF: the pruned refactor operator (Algorithm 2 of the paper).

Batched mode (the paper's deployment):

1. one sweep forms every node's cut and stacks the six features into a
   single matrix;
2. one fused matmul classifies all nodes at once;
3. the refactor sweep then skips every node classified as
   will-not-improve, resynthesizing only the survivors.

Features from step 1 can go stale as commits mutate the graph; the paper
notes (and we preserve) that this only costs runtime, never quality —
stale survivors just fail resynthesis like they would have anyway.

Streaming mode classifies each node on its own (batch of one) right
before resynthesis; it exists for the batching-ablation benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..aig.graph import AIG
from ..aig.levels import RequiredLevels
from ..cuts.features import stack_features
from ..cuts.reconv import reconv_cut
from ..opt.refactor import RefactorParams, RefactorStats, refactor_node
from .classifier import ElfClassifier


@dataclass
class ElfParams:
    """ELF knobs on top of the base refactor parameters."""

    refactor: RefactorParams = field(default_factory=RefactorParams)
    batched: bool = True


def elf_refactor(
    g: AIG,
    classifier: ElfClassifier,
    params: ElfParams | None = None,
    collector=None,
    cache: dict | None = None,
) -> RefactorStats:
    """One ELF pass over ``g`` in place; returns stats incl. prune counts.

    ``collector(features, committed)`` sees only non-pruned nodes (the
    pruned ones never reach resynthesis, exactly as in Algorithm 2).

    ``cache`` plugs in an externally owned resynthesis cache (e.g. a
    flow-level :class:`repro.engine.ResynthCache`): entries are pure
    functions of ``(tt, n_leaves)`` under fixed factoring knobs, so the
    second ``elf`` of an ``elf; elf`` flow reuses the first pass's
    factored forms with bit-identical results (all sharers must use the
    same ``try_complement``/``method`` settings, as flows do).
    """
    params = params or ElfParams()
    stats = RefactorStats()
    g.drain_dirty()  # sequential pass: retire the previous journal epoch
    with obs.span("elf.refactor", batched=params.batched) as pass_span:
        required = RequiredLevels(g) if params.refactor.preserve_levels else None

        nodes = g.and_ids()
        if cache is None:
            cache = {}
        if params.batched:
            keep = _batch_classify(g, nodes, classifier, params, stats)
        else:
            keep = None

        for position, node in enumerate(nodes):
            if g.is_dead(node):
                continue
            stats.nodes_visited += 1
            if params.batched:
                if not keep[position]:
                    stats.pruned += 1
                    continue
                t0 = time.perf_counter()
                cut = reconv_cut(
                    g, node, params.refactor.max_leaves, collect_features=False
                )
                stats.time_cut += time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                cut = reconv_cut(
                    g, node, params.refactor.max_leaves, collect_features=True
                )
                stats.time_cut += time.perf_counter() - t0
                t0 = time.perf_counter()
                keep_one = classifier.keep_mask(
                    cut.features.as_array()[None, :]
                )[0]
                stats.time_inference += time.perf_counter() - t0
                if not keep_one:
                    stats.pruned += 1
                    continue
            stats.cuts_formed += 1
            committed = refactor_node(
                g, node, cut, params.refactor, required, stats, cache
            )
            if collector is not None:
                committed_features = cut.features
                if committed_features is None:
                    cut_feats = reconv_cut(
                        g, node, params.refactor.max_leaves, collect_features=True
                    )
                    committed_features = cut_feats.features
                collector(committed_features, committed)
        pass_span.set(
            nodes=stats.nodes_visited,
            pruned=stats.pruned,
            commits=stats.commits,
            screened=stats.fail_screened,
        )
    stats.time_total = pass_span.duration
    return stats


def elf_refactor_parallel(
    g: AIG,
    classifier: ElfClassifier,
    params: ElfParams | None = None,
    workers: int = 0,
):
    """ELF deployed on the conflict-wave engine (``repro.engine``).

    Candidates are partitioned into conflict-free commit waves, each wave
    is classified with one fused inference, and surviving cuts are
    resynthesized by a worker pool.  ``workers=0`` uses one worker per
    core; ``workers=1`` is the deterministic in-process mode, identical
    to :func:`elf_refactor`.  Returns :class:`repro.engine.EngineStats`.
    """
    from ..engine import EngineParams, engine_refactor

    params = params or ElfParams()
    return engine_refactor(
        g,
        EngineParams(
            refactor=params.refactor,
            workers=workers,
            elf_batched=params.batched,
        ),
        classifier=classifier,
    )


def _batch_classify(
    g: AIG,
    nodes: list[int],
    classifier: ElfClassifier,
    params: ElfParams,
    stats: RefactorStats,
) -> np.ndarray:
    """Pass 1 of Algorithm 2: collect every cut's features, classify once."""
    t0 = time.perf_counter()
    features = []
    for node in nodes:
        cut = reconv_cut(g, node, params.refactor.max_leaves, collect_features=True)
        features.append(cut.features)
    stats.time_cut += time.perf_counter() - t0
    t0 = time.perf_counter()
    matrix = stack_features(features)
    keep = classifier.keep_mask(matrix)
    stats.time_inference += time.perf_counter() - t0
    return keep
