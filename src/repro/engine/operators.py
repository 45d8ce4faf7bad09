"""Wave operators: the per-operator hooks the generic scheduler drives.

The conflict-wave pipeline (:mod:`repro.engine.scheduler`) is
operator-agnostic: snapshotting, conflict planning, wave coloring,
incremental re-snapshot and the repair-wave protocol all work on
:class:`repro.engine.conflict.Candidate` alone.
Everything operator-specific lives behind the :class:`WaveOperator`
protocol — three graph-facing hooks plus lifecycle glue:

* ``snapshot(g, node, stats)`` — build one candidate (cut(s), footprint)
  on the intact graph, or account the node and return ``None``;
* ``evaluate(g, items, stats)`` — the batchable middle: given the wave's
  ``(index, candidate)`` pairs, produce one result per pair (rewrite:
  batched truth tables + cached NPN-library lookups).  Runs *before* any
  of the wave's commits, so a graph-dependent decision taken here must
  be re-checked by ``commit``;
* ``commit(g, candidate, result, stats, dirty)`` — gain-check and commit
  one candidate against the current graph, accumulating journaled kills
  into ``dirty``; runs serially at replay, in ascending node order.

One adapter implements the protocol: :class:`RewriteWaveOp` (DAC'06
cut rewriting, built from the snapshot/evaluate/commit phase split of
:mod:`repro.opt.rewrite`).  The refactor family has no wave adapter: it
runs the sequential sweep at every width (``docs/engine.md`` gives the
measurements).
"""

from __future__ import annotations

import time

from ..aig.graph import AIG
from ..aig.levels import RequiredLevels
from ..aig.mffc import mffc_nodes
from ..aig.simulate import TwinScreen, batch_cone_truths
from ..opt.rewrite import (
    RewriteParams,
    commit_scored,
    evaluate_cut,
    node_screened,
    usable_node_cuts,
)
from .cache import ResynthCache
from .conflict import Candidate


class WaveOperator:
    """Protocol (and default lifecycle) of a wave-pipeline operator.

    Subclasses must implement :meth:`snapshot`, :meth:`evaluate` and
    :meth:`commit`; :meth:`resnapshot` must be provided whenever
    snapshots can be invalidated (always, in practice).  ``prepare`` /
    ``finish`` bracket one pass and default to no-ops.
    """

    name = "wave"

    def prepare(self, g: AIG, stats) -> None:
        """Pass-level setup on the intact graph (cut enumeration, levels)."""

    def snapshot(self, g: AIG, node: int, stats) -> Candidate | None:
        """Snapshot one live AND node, or account it and return None."""
        raise NotImplementedError

    def resnapshot(self, g: AIG, candidate: Candidate, stats) -> Candidate | None:
        """Refresh an invalidated snapshot on the current graph.

        Returns the fresh candidate, or ``None`` when the node no longer
        yields one (degenerate cut, all cuts stale) — after accounting it
        the way the sequential sweep would.
        """
        raise NotImplementedError

    def evaluate(self, g: AIG, items: list, stats) -> list:
        """Batch-evaluate ``items`` (``(index, candidate)`` pairs).

        Returns one opaque result per item, aligned with the input; the
        scheduler hands each back to :meth:`commit` at replay.
        """
        raise NotImplementedError

    def commit(self, g: AIG, candidate: Candidate, result, stats, dirty: set) -> None:
        """Gain-check + commit one candidate; journaled kills go to ``dirty``."""
        raise NotImplementedError

    def finish(self, stats) -> None:
        """Pass-level teardown / stats finalization."""


class RewriteWaveOp(WaveOperator):
    """DAC'06 cut rewriting on the wave pipeline.

    Snapshot: the node's 4-feasible cuts from the pass-level enumeration
    (:func:`repro.cuts.enumerate.enumerate_cuts`, run once in
    ``prepare``), each with its cone interior, unioned into one
    candidate whose footprint covers every cut — death anywhere in any
    cut's cone invalidates the snapshot, exactly the staleness the
    sequential sweep detects per cut.  Re-snapshot filters the original
    cut list against the current graph (dead leaves / uncovered cones
    are dropped and counted), mirroring the sequential "skip stale cuts"
    rule rather than re-enumerating.

    Evaluate: all member cuts' truth tables come from one
    :func:`repro.aig.simulate.batch_cone_truths` call; each padded
    function resolves through the cache's library layer
    (:meth:`repro.engine.cache.ResynthCache.library_lookup`), so one NPN
    canonization per distinct function per flow.  No worker pool: a
    library lookup is a dict probe (at worst one 222-class synthesis per
    process), far below process-dispatch cost — the batching *is* the
    speedup.

    Commit: :func:`repro.opt.rewrite.node_screened`, then
    :func:`repro.opt.rewrite.commit_scored` — the exact MFFC/strash-aware
    branch-and-bound and build the sequential operator runs, with the
    same per-pass signature table, applied serially at replay.
    """

    name = "rewrite"

    def __init__(
        self,
        params: RewriteParams,
        cache: ResynthCache,
        library,
    ) -> None:
        self.params = params
        self.cache = cache
        self.library = library
        self.required: RequiredLevels | None = None
        self._all_cuts = None
        self._twins: TwinScreen | None = None
        self._hits_library0 = 0

    def prepare(self, g: AIG, stats) -> None:
        from ..cuts.enumerate import enumerate_cuts

        if self.params.preserve_levels:
            self.required = RequiredLevels(g)
        self._all_cuts = enumerate_cuts(g, self.params.k, self.params.max_cuts)
        self._twins = TwinScreen(g)
        self._hits_library0 = self.cache.hits_library

    def _build_candidate(
        self, node: int, cuts: list[tuple[tuple[int, ...], frozenset]], mffc: frozenset
    ) -> Candidate:
        leaves = sorted({leaf for cut_leaves, _ in cuts for leaf in cut_leaves})
        interior = frozenset().union(*(interior for _, interior in cuts))
        return Candidate(
            node=node,
            leaves=tuple(leaves),
            interior=interior,
            mffc=mffc,
            payload=tuple(cuts),
        )

    def snapshot(self, g: AIG, node: int, stats) -> Candidate | None:
        usable, n_stale = usable_node_cuts(g, node, self._all_cuts)
        stats.n_stale_cuts += n_stale
        cuts = []
        mffc: set[int] = set()
        for leaves in usable:
            interior = _cut_interior(g, node, set(leaves))
            if interior is None:  # pragma: no cover - intact graph covers all
                stats.n_stale_cuts += 1
                continue
            cuts.append((tuple(leaves), interior))
            # The commit kills the MFFC bounded by whichever cut wins, so
            # the conflict footprint takes the union over all cuts.  (A
            # single unbounded-MFFC sweep would be a valid superset, but
            # on deep circuits it links far more candidates than the cut
            # cones ever touch — measured: ~20% more conflict edges and
            # 50% more waves on layered-5k — so per-cut precision wins.)
            mffc.update(mffc_nodes(g, node, boundary=set(leaves)))
        if not cuts:
            stats.nodes_visited += 1
            return None
        return self._build_candidate(node, cuts, frozenset(mffc))

    def resnapshot(self, g: AIG, candidate: Candidate, stats) -> Candidate | None:
        cuts = []
        for cut_leaves, _old_interior in candidate.payload:
            if any(g.is_dead(leaf) for leaf in cut_leaves):
                stats.n_stale_cuts += 1
                continue
            interior = _cut_interior(g, candidate.node, set(cut_leaves))
            if interior is None:
                stats.n_stale_cuts += 1
                continue
            cuts.append((cut_leaves, interior))
        if not cuts:
            # Every cut went stale: the node is visited but nothing is
            # tried, exactly like the sequential sweep's all-stale case.
            stats.nodes_visited += 1
            return None
        interior_union = frozenset().union(*(interior for _, interior in cuts))
        # Conservative mffc = interior bound: any cut-bounded MFFC is a
        # subset of its cut's interior, and the commit-time gain check
        # recomputes the exact set anyway.
        return self._build_candidate(candidate.node, cuts, interior_union)

    def evaluate(self, g: AIG, items: list, stats) -> list:
        cones = []
        spans = []
        for _i, candidate in items:
            cuts = candidate.payload
            spans.append(len(cuts))
            for cut_leaves, interior in cuts:
                cones.append((candidate.node, cut_leaves, interior))
        t0 = time.perf_counter()
        tts = batch_cone_truths(g, cones)
        stats.time_truth += time.perf_counter() - t0

        misses0 = self.cache.misses_library
        t0 = time.perf_counter()
        results = []
        pos = 0
        for (_i, candidate), span in zip(items, spans):
            scored = []
            for (cut_leaves, _interior), tt in zip(
                candidate.payload, tts[pos : pos + span]
            ):
                stats.cuts_formed += 1  # sequential ``cuts_tried``
                entry, transform = evaluate_cut(
                    tt, len(cut_leaves), self.library, cache=self.cache
                )
                scored.append((list(cut_leaves), entry, transform))
            pos += span
            results.append(scored)
        stats.time_resynth += time.perf_counter() - t0
        stats.n_tasks += len(cones)
        stats.n_unique_tasks += self.cache.misses_library - misses0
        return results

    def commit(self, g: AIG, candidate: Candidate, result, stats, dirty: set) -> None:
        stats.nodes_visited += 1
        if node_screened(g, candidate.node, self.params, self._twins):
            stats.screened += 1
            stats.fail_gain += 1
            return
        gain = commit_scored(
            g,
            candidate.node,
            [leaves for leaves, _entry, _transform in result],
            lambda i: result[i][1:],
            self.library,
            self.params,
            self.required,
            self._twins,
            stats,
            dirty=dirty,
        )
        if gain is None:
            stats.fail_gain += 1
            return
        stats.commits += 1
        stats.gain_total += gain

    def finish(self, stats) -> None:
        stats.n_library_hits = self.cache.hits_library - self._hits_library0


def _cut_interior(g: AIG, root: int, cut: set[int]) -> frozenset | None:
    """Cone interior of ``root`` over ``cut`` (root included), or ``None``.

    ``None`` means the cut no longer covers the cone on the current
    graph: the walk escaped to a PI/constant/dead node outside the cut —
    the "uncovered cone" staleness the sequential sweep detects via
    :class:`repro.errors.TruthTableError` and skips.
    """
    interior: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node in cut or node in interior:
            continue
        if not g.is_and(node):  # PI, constant, or dead: the cut is stale
            return None
        f0, f1 = g.fanin_lits(node)
        interior.add(node)
        stack.append(f0 >> 1)
        stack.append(f1 >> 1)
    return frozenset(interior)
