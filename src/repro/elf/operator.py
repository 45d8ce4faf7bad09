"""ELF: the pruned refactor operator (Algorithm 2 of the paper).

Batched mode (the paper's deployment):

1. one lockstep sweep (:func:`repro.cuts.reconv.reconv_features`) grows
   every node's reconvergence-driven cut at once and reads the six
   features off per-node counts, building no cut object: ``cut_fanout``
   is the interior's reference total minus the fanin edges that stay
   inside, ``n_reconvergent`` the nodes two or more interior edges
   reach.  Its state is one int32 per (root, node) pair of a chunk of
   roots, chunked to a fixed byte budget (never roots x graph size);
2. one fused matmul classifies all nodes at once;
3. the refactor sweep then skips every node classified as
   will-not-improve, resynthesizing only the survivors, each of which
   forms its cut with :func:`repro.cuts.reconv.reconv_cut` as ``rf``
   does.

Pass 1's seconds are booked to ``time_cut`` (the sweep) and
``time_inference`` (the matmul), and reported as the ``classify_s``
attribute of the ``elf.refactor`` span, next to ``survivors`` and
``survived_no_gain`` (survivors whose resynthesis committed nothing).

Features from step 1 can go stale as commits mutate the graph; the paper
notes (and we preserve) that this only costs runtime, never quality —
stale survivors just fail resynthesis like they would have anyway.

Survivors then meet sequential refactor's exact screens, with one
signature table per pass (:func:`repro.opt.refactor.pass_twins`): the
twin test before ``cone_truth`` and the closure sweep behind it (the
exactness argument is in :mod:`repro.opt.refactor`).  A screened
survivor fails as ``fail_screened`` exactly where full resynthesis would
have failed, so ELF's outputs, and the outcomes its collector sees, are
those of an unscreened run; the classifier alone decides what is lost.

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
from ..cuts.reconv import reconv_cut, reconv_features
from ..opt.refactor import RefactorParams, RefactorStats, pass_twins, refactor_node
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
            classify_s = stats.time_cut + stats.time_inference  # pass 1 alone
        else:
            keep = None
        twins = pass_twins(g, params.refactor, stats)

        for position, node in enumerate(nodes):
            if g.is_dead(node):
                continue
            stats.nodes_visited += 1
            if params.batched:
                if not keep[position]:
                    stats.pruned += 1
                    continue
                t0 = time.perf_counter()
                # Form the cut the collector records before resynthesis
                # can delete the node, as refactor() does.
                cut = reconv_cut(
                    g,
                    node,
                    params.refactor.max_leaves,
                    collect_features=collector is not None,
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
                g, node, cut, params.refactor, required, stats, cache, twins
            )
            if collector is not None:
                collector(cut.features, committed)
        if not params.batched:
            classify_s = stats.time_inference  # per-node classifier calls
        pass_span.set(
            nodes=stats.nodes_visited,
            pruned=stats.pruned,
            commits=stats.commits,
            screened=stats.fail_screened,
            survivors=stats.nodes_visited - stats.pruned,
            survived_no_gain=stats.cuts_formed - stats.commits,
            classify_s=classify_s,
        )
    stats.time_total = pass_span.duration
    return stats


def _batch_classify(
    g: AIG,
    nodes: list[int],
    classifier: ElfClassifier,
    params: ElfParams,
    stats: RefactorStats,
) -> np.ndarray:
    """Pass 1 of Algorithm 2: one lockstep sweep collects every cut's
    features, one call classifies them all."""
    t0 = time.perf_counter()
    matrix = reconv_features(g, nodes, params.refactor.max_leaves)
    stats.time_cut += time.perf_counter() - t0
    t0 = time.perf_counter()
    keep = classifier.keep_mask(matrix)
    stats.time_inference += time.perf_counter() - t0
    return keep
