"""Conflict graph, wave coloring and the candidate inverted index.

Two wave candidates can be evaluated concurrently and committed in the
same wave only when their commits cannot interfere.  The reasoning is
operator-agnostic — it holds for any operator whose commit replaces one
root with a gain-checked cone over snapshot leaves (refactor, rewrite):
a commit of candidate A deletes exactly A's MFFC (plus, rarely,
strash-merge victims) and rewires fanouts of A's root; both effects are
confined to nodes that see A's MFFC.  Candidate B is therefore
endangered exactly when A's MFFC intersects B's *footprint* — B's root,
cut cone, leaves or MFFC — and vice versa.  Following "Parallel AIG
Refactoring via Conflict Breaking", candidates are vertices,
interference pairs are edges, and a greedy coloring partitions the
candidates into conflict-free commit waves.

The :class:`CandidateIndex` inverts the candidate set: it maps every
cone node to the candidates whose snapshot it certifies and every
footprint node to the candidates whose scheduling it constrains.  The
scheduler intersects each commit's dirty set (the nodes it killed) with
the cone map to find the exact set of invalidated candidates in
O(damage) — the incremental alternative to the per-candidate liveness
probing and sequential fallback the engine used to replay stale
candidates through.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable


@dataclass(frozen=True)
class Candidate:
    """Snapshot of one wave candidate taken at pass start.

    The conflict/invalidation machinery is operator-agnostic: it only
    reads ``node``, ``leaves``, ``interior`` and ``mffc``.  A
    single-cut operator stores its one cut directly; a multi-cut
    operator (rewrite) stores the *unions* here — death of any node in
    any cut's cone must invalidate the snapshot — and keeps the per-cut
    detail in ``payload``, which the scheduler never inspects.

    Re-snapshotted candidates (built between waves after their cone was
    dirtied) may carry the conservative ``mffc == interior`` bound: the
    cut-bounded MFFC is always a subset of the interior, the gain check
    recomputes the exact MFFC at commit time anyway, and the superset
    only makes conflict planning more cautious.
    """

    node: int
    leaves: tuple[int, ...]
    interior: frozenset[int]  # cut cone, root included, leaves excluded
    mffc: frozenset[int]  # nodes freed if ``node`` is replaced
    payload: object = None  # operator-private snapshot data

    @cached_property
    def footprint(self) -> set[int]:
        """Every node whose deletion or rewiring can invalidate this
        candidate's snapshot data or commit."""
        return {self.node} | set(self.leaves) | set(self.interior) | set(self.mffc)

    @cached_property
    def cone(self) -> frozenset[int]:
        """Root, interior and leaves — the nodes whose *death* invalidates
        the snapshot's truth table and factored form (MFFC drift does not:
        the gain check recomputes it at commit time)."""
        return frozenset((self.node, *self.leaves)) | self.interior


class CandidateIndex:
    """Inverted node → candidate maps over a pass's snapshots.

    ``add`` registers (or re-registers, after a re-snapshot) a candidate
    under its current cone and footprint.  Entries from superseded
    snapshots are not eagerly removed — a stale entry can only cause a
    spurious invalidation probe or a conservative conflict, never a missed
    one — which keeps updates O(snapshot size).
    """

    def __init__(self) -> None:
        self._by_cone: dict[int, set[int]] = {}
        self._by_footprint: dict[int, set[int]] = {}

    def add(self, index: int, candidate: Candidate) -> None:
        by_cone = self._by_cone
        for node in candidate.cone:
            members = by_cone.get(node)
            if members is None:
                by_cone[node] = {index}
            else:
                members.add(index)
        by_footprint = self._by_footprint
        for node in candidate.footprint:
            members = by_footprint.get(node)
            if members is None:
                by_footprint[node] = {index}
            else:
                members.add(index)

    def invalidated(self, dirty: Iterable[int], pending: set[int]) -> set[int]:
        """Pending candidates whose snapshot cone intersects ``dirty``.

        O(|dirty|) map probes — never a per-candidate liveness scan.
        """
        hit: set[int] = set()
        by_cone = self._by_cone
        for node in dirty:
            members = by_cone.get(node)
            if members:
                hit.update(members & pending)
        return hit


def build_conflict_graph(
    candidates: list[Candidate],
    index: CandidateIndex | None = None,
) -> tuple[list[set[int]], int]:
    """Adjacency sets over candidate *indices*, plus the edge count.

    Built through an inverted node -> candidates map so the cost is
    linear in total footprint size (footprints are small — a cut has at
    most ``max_leaves`` leaves and a comparable interior), never the
    quadratic all-pairs scan.  Passing the pass's :class:`CandidateIndex`
    reuses its footprint map instead of building a throwaway one.
    """
    if index is None:
        index = CandidateIndex()
        for i, candidate in enumerate(candidates):
            index.add(i, candidate)
    touched_by = index._by_footprint
    adjacency: list[set[int]] = [set() for _ in candidates]
    for i, candidate in enumerate(candidates):
        for node in candidate.mffc:
            for other in touched_by.get(node, ()):
                if other != i:
                    adjacency[i].add(other)
                    adjacency[other].add(i)
    n_edges = sum(len(neighbors) for neighbors in adjacency) // 2
    return adjacency, n_edges


def color_waves(adjacency: list[set[int]]) -> list[list[int]]:
    """Greedy coloring in candidate (= ascending node id) order.

    Returns the color classes as waves of candidate indices; every wave
    is an independent set of the conflict graph, and the first waves are
    the largest (greedy packs early colors first), which gives the
    batched evaluation its biggest batches.
    """
    colors = [-1] * len(adjacency)
    waves: list[list[int]] = []
    for index in range(len(adjacency)):
        used = {colors[other] for other in adjacency[index] if colors[other] >= 0}
        color = 0
        while color in used:
            color += 1
        colors[index] = color
        if color == len(waves):
            waves.append([])
        waves[color].append(index)
    return waves
