"""The six structural cut features of the ELF classifier (paper SS III-C).

The features are counted by :mod:`repro.cuts.reconv` in one pass over
the finished cone's interior fanin edges, so feature collection adds
little runtime on top of forming the cut — the property the paper
relies on to keep inference cheaper than resynthesis.

Feature semantics, following Fig. 2 of the paper:

``root_fanout``
    Outgoing edges of the cut's root node.
``root_level``
    Level of the root within the AIG.
``cut_fanout``
    Total outgoing edges from cone-interior nodes (root included) to
    nodes outside the cone.  The root's own fanout is part of this.
``cut_size``
    Number of nodes inside the cone (root included, leaves excluded) —
    the triangle's interior in Fig. 2.
``n_reconvergent``
    Nodes with two or more edges into the cone interior: any such node
    starts two distinct paths that reconverge at (or before) the root,
    which is exactly the paper's local reconvergence.
``n_leaves``
    Number of cut leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEATURE_NAMES = (
    "root_fanout",
    "root_level",
    "cut_fanout",
    "cut_size",
    "n_reconvergent",
    "n_leaves",
)

N_FEATURES = len(FEATURE_NAMES)


@dataclass(frozen=True)
class CutFeatures:
    """The 6-dimensional feature vector of one cut."""

    root_fanout: int
    root_level: int
    cut_fanout: int
    cut_size: int
    n_reconvergent: int
    n_leaves: int

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (
            self.root_fanout,
            self.root_level,
            self.cut_fanout,
            self.cut_size,
            self.n_reconvergent,
            self.n_leaves,
        )

    def as_array(self) -> np.ndarray:
        return np.array(self.as_tuple(), dtype=np.float64)


def stack_features(features: list[CutFeatures]) -> np.ndarray:
    """Batch feature vectors into one ``(n, 6)`` matrix.

    This is the paper's batching trick: all cut data is packed into a
    single tensor before inference so the classifier runs as one
    vectorized matmul instead of n tiny ones.
    """
    if not features:
        return np.zeros((0, N_FEATURES), dtype=np.float64)
    return np.array([f.as_tuple() for f in features], dtype=np.float64)
