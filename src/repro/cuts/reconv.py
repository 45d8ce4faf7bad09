"""Reconvergence-driven cut computation (ABC's ``abcReconv.c`` scheme).

Starting from ``leaves = {root}``, repeatedly expand the leaf whose
replacement by its fanins grows the leaf set the least
(``cost = fanins not yet visited - 1``), until no expansion fits within
the leaf limit.  This is the cut construction the refactor operator uses
(default limit 10, ABC's ``nNodeSizeMax``).

The paper's six features are counted in one pass over the finished
cone's interior fanin edges, so feature extraction costs about as much
as forming the cut (SS III-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..aig.graph import AIG
from .features import CutFeatures

DEFAULT_MAX_LEAVES = 10


@dataclass
class ReconvCut:
    """A reconvergence-driven cut rooted at ``root``.

    ``leaves`` are in discovery order (this fixes the truth-table variable
    order); ``interior`` is the cone between leaves and root, root
    included, leaves excluded.
    """

    root: int
    leaves: list[int]
    interior: set[int]
    features: CutFeatures | None = field(default=None)

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    @property
    def size(self) -> int:
        return len(self.interior)


def reconv_cut(
    g: AIG,
    root: int,
    max_leaves: int = DEFAULT_MAX_LEAVES,
    collect_features: bool = True,
) -> ReconvCut:
    """Grow a reconvergence-driven cut for ``root``.

    ``root`` must be a live AND node.
    """
    leaves: list[int] = [root]
    visited: set[int] = {root}
    interior: set[int] = set()
    fanin0, fanin1 = g._fanin0, g._fanin1
    refs = g._refs

    while True:
        best_leaf = -1
        best_cost = 1 << 30
        for leaf in leaves:
            f0 = fanin0[leaf]
            if f0 < 0:  # PI or constant: not expandable
                continue
            f1 = fanin1[leaf]
            cost = -1
            if (f0 >> 1) not in visited:
                cost += 1
            if (f1 >> 1) not in visited:
                cost += 1
            if cost < best_cost:
                best_cost = cost
                best_leaf = leaf
                if cost <= 0:
                    break  # free expansion: take it immediately
        if best_leaf < 0 or len(leaves) + best_cost > max_leaves:
            break
        # Expand: move best_leaf into the interior, add unseen fanins.
        leaves.remove(best_leaf)
        interior.add(best_leaf)
        for fanin_lit in (fanin0[best_leaf], fanin1[best_leaf]):
            fanin = fanin_lit >> 1
            if fanin not in visited:
                visited.add(fanin)
                leaves.append(fanin)

    features = None
    if collect_features:
        # Every edge into the interior is the fanin edge of an interior
        # node.  ``cut_fanout`` = all edges out of interior nodes minus
        # those that end inside; ``n_reconvergent`` counts the distinct
        # nodes seen on two or more of these edges (``once``/``twice``:
        # a node with three edges still counts once).
        cut_fanout = 0
        once: set[int] = set()
        twice: set[int] = set()
        for node in interior:
            cut_fanout += refs[node]
            for fanin in (fanin0[node] >> 1, fanin1[node] >> 1):
                if fanin in interior:
                    cut_fanout -= 1
                if fanin in once:
                    twice.add(fanin)
                else:
                    once.add(fanin)
        features = CutFeatures(
            root_fanout=refs[root],
            root_level=g._level[root],
            cut_fanout=cut_fanout,
            cut_size=len(interior),
            n_reconvergent=len(twice),
            n_leaves=len(leaves),
        )
    return ReconvCut(root=root, leaves=leaves, interior=interior, features=features)
