"""Reconvergence-driven cut computation (ABC's ``abcReconv.c`` scheme).

Starting from ``leaves = {root}``, repeatedly expand the leaf whose
replacement by its fanins grows the leaf set the least
(``cost = fanins not yet visited - 1``), until no expansion fits within
the leaf limit.  This is the cut construction the refactor operator uses
(default limit 10, ABC's ``nNodeSizeMax``).

Two entry points share that greedy rule:

* :func:`reconv_cut` grows one root's cut and returns its leaves and
  interior (what resynthesis needs); with ``collect_features`` it also
  counts the paper's six features in one pass over the finished cone's
  interior fanin edges.
* :func:`reconv_features` returns only the features, for a whole list
  of roots at once: ELF's pass 1, which must cost little next to the
  resynthesis it saves (SS III-C).  It grows the cuts of a chunk of
  roots in lockstep, one NumPy step per expansion, and keeps no sets:
  with ``cnt(v)`` the number of interior fanin edges ending at ``v``,
  ``cut_fanout = sum(refs) - sum(cnt)`` over the interior and
  ``n_reconvergent`` is the number of nodes whose ``cnt`` reaches 2.
  Its state is one int32 per (root, node) pair of the current chunk;
  chunks are sized to ``STATE_BUDGET_BYTES`` (with a floor of
  ``_MIN_ROWS`` roots), so the state never grows as roots x graph size.
  Its matrix equals the stacked :func:`reconv_cut` features element for
  element; ``tests/test_cuts_reconv.py`` holds it to that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..aig.graph import AIG
from .features import N_FEATURES, CutFeatures

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


# Byte budget of the sweep's state, one int32 per (root, node) pair of a
# chunk of roots.  A chunk never holds fewer than ``_MIN_ROWS`` roots, so
# on a graph too large for the budget the state is ``4 * _MIN_ROWS``
# bytes per node: a fixed multiple of the graph's own per-node lists,
# never roots x graph size.
STATE_BUDGET_BYTES = 4 << 20
_MIN_ROWS = 64


def sweep_rows(n_nodes: int, n_roots: int) -> int:
    """Roots per chunk of :func:`reconv_features` on a graph with
    ``n_nodes`` node slots (each row also holds a sentinel node, and the
    state one more, trash, row)."""
    rows = max(_MIN_ROWS, STATE_BUDGET_BYTES // (4 * (n_nodes + 1)) - 1)
    return max(1, min(rows, n_roots))


def sweep_state_bytes(n_nodes: int, n_roots: int) -> int:
    """Bytes of the state :func:`reconv_features` allocates."""
    return 4 * (sweep_rows(n_nodes, n_roots) + 1) * (n_nodes + 1)


def reconv_features(
    g: AIG, roots: list[int], max_leaves: int = DEFAULT_MAX_LEAVES
) -> np.ndarray:
    """The ``(len(roots), 6)`` float64 feature matrix of every root's cut.

    Equals ``stack_features([reconv_cut(g, r, max_leaves).features for r
    in roots])`` element for element, but grows the cuts of a chunk of
    roots in lockstep, one NumPy step per expansion, and builds no
    :class:`ReconvCut`.  ``roots`` must be live AND nodes.
    """
    n = len(roots)
    out = np.zeros((n, N_FEATURES), dtype=np.float64)
    if n == 0:
        return out
    n_nodes = g.n_nodes
    # Fanin node ids per node; PIs, node 0, dead slots and the sentinel
    # (node id ``n_nodes``) point at the sentinel.
    fanin0 = np.array(g._fanin0 + [-1], dtype=np.int64)
    is_and = fanin0 >= 0
    fan0 = np.where(is_and, fanin0 >> 1, n_nodes)
    fan1 = np.where(is_and, np.array(g._fanin1 + [-1], dtype=np.int64) >> 1, n_nodes)
    refs = np.array(g._refs, dtype=np.int64)
    roots_arr = np.asarray(roots, dtype=np.int64)
    out[:, 0] = refs[roots_arr]
    out[:, 1] = np.array(g._level, dtype=np.int64)[roots_arr]

    rows = sweep_rows(n_nodes, n)
    sweep = _Sweep(rows, n_nodes, fan0, fan1, refs, max_leaves)
    for lo in range(0, n, rows):
        sweep.run(roots_arr[lo : lo + rows], out[lo : lo + rows])
    return out


class _Sweep:
    """One graph's lockstep cut growth, run one chunk of roots at a time.

    Row ``r`` of a chunk grows one root's cut.  Its leaves sit in
    ``max_leaves + 2`` fixed slots (empty slots hold node 0, which is
    never expandable); a live row never holds more than ``max_leaves``
    leaves, so its last two slots stay empty.  Its node states sit at the
    flat offset ``r * stride`` of ``state``, one int32 per node:
    ``cnt(v)``, the number of fanin edges of the row's interior nodes
    that end at ``v``, plus 1 for the root.  A node is visited exactly
    when its state is positive (every visited node but the root is the
    fanin of an interior node), and a sentinel node with state -1 is the
    fanin of every PI and empty slot.

    A step applies :func:`reconv_cut`'s greedy rule to every row at
    once.  A leaf's rank is the larger state of its two fanins, clipped
    to 1: 1 for a free expansion (a fanin is visited), 0 for one that
    adds a leaf, -1 for a leaf that cannot expand.  The argmax of the
    rank is the argmin of ``max(cost, 0)`` over the expandable slots:
    the first free expansion in list order, else the first least-cost
    leaf.  The expanded leaf's slot is shifted out and its unvisited
    fanins are appended f0 then f1.

    The features come from counts, not sets: ``cut_fanout`` is
    ``sum(refs) - sum(cnt)`` over the interior (an edge from an interior
    node leaves the cone unless it ends at an interior node) and
    ``n_reconvergent`` is the number of interior nodes and leaves whose
    ``cnt`` is 2 or more.  Both are read off the state when the chunk is
    done, from the logged expansions and final leaves.  Counting edges
    as fanin nodes relies on the strash invariant that an AND's two
    fanins are distinct nodes.

    A row whose cut is finished freezes: it no longer shifts, it appends
    to its last two slots and it writes to the trash row, so its leaves
    and state stay final.  Frozen rows are recorded and dropped from the
    step arrays only once they are half of them; compacting on every
    finish costs more than it saves.
    """

    def __init__(self, rows, n_nodes, fan0, fan1, refs, max_leaves):
        self.stride = stride = n_nodes + 1
        self.state = np.zeros((rows + 1) * stride, dtype=np.int32)
        self.state[n_nodes::stride] = -1  # every row's sentinel
        self.trash = rows * stride
        self.fan0, self.fan1, self.refs = fan0, fan1, refs
        self.max_leaves = max_leaves

    def run(self, chunk: np.ndarray, out: np.ndarray) -> None:
        """Write the features of ``chunk``'s cuts to ``out``'s columns
        2-5, then clear every state entry the chunk touched."""
        state, fan0, fan1, trash = self.state, self.fan0, self.fan1, self.trash
        width = self.max_leaves + 2
        columns = np.arange(width - 1)
        base = np.arange(len(chunk)) * self.stride
        starts = np.arange(len(chunk)) * width
        leaves = np.zeros((len(chunk), width), dtype=np.int64)
        leaves[:, 0] = chunk
        n_leaves = np.ones(len(chunk), dtype=np.int64)
        state[base + chunk] = 1
        alive = np.ones(len(chunk), dtype=bool)
        n_alive = len(chunk)
        interior = [np.empty(0, dtype=np.int64)]  # state index of each expansion
        final = []  # state index of each frozen row's leaf slots
        while True:
            if 2 * n_alive < len(base):
                final.append(self._freeze(out, base[~alive], leaves[~alive]))
                base, leaves, n_leaves = base[alive], leaves[alive], n_leaves[alive]
                alive = alive[alive]
                starts = np.arange(n_alive) * width
            offset = base[:, None]
            s0 = state[fan0[leaves] + offset]
            s1 = state[fan1[leaves] + offset]
            rank = np.maximum(s0, s1)
            np.minimum(rank, 1, out=rank)
            slot = rank.argmax(axis=1)
            take = starts + slot
            alive &= rank.ravel()[take] >= (n_leaves >= self.max_leaves)
            best = leaves.ravel()[take]
            v0 = s0.ravel()[take]
            v1 = s1.ravel()[take]
            tail = n_leaves - 1
            write = base
            if not alive.all():
                n_alive = int(np.count_nonzero(alive))
                if n_alive == 0:
                    break
                write = np.where(alive, base, trash)
                slot = np.where(alive, slot, width)
                tail = np.where(alive, tail, width - 2)
            # Expand: the chosen leaf turns interior, its fanins gain an edge.
            interior.append(write + best)
            b0 = fan0[best]
            b1 = fan1[best]
            state[b0 + write] = v0 + 1
            state[b1 + write] = v1 + 1
            # Shift the expanded slot out, append the unvisited fanins.
            np.copyto(leaves[:, :-1], leaves[:, 1:], where=columns >= slot[:, None])
            new0 = v0 == 0
            new1 = v1 == 0
            flat = leaves.ravel()
            flat[starts + tail] = b0 * new0
            flat[starts + tail + new0] = b1 * new1
            n_leaves = tail + new0 + new1
        final.append(self._freeze(out, base, leaves))
        self._collect(out, np.concatenate(interior), np.concatenate(final))

    def _freeze(self, out, base, leaves) -> np.ndarray:
        """Write the leaf counts of frozen rows (state offsets ``base``)
        to ``out``'s column 5; returns the state index of their leaves."""
        leaves = leaves[:, : self.max_leaves]
        out[base // self.stride, 5] = np.count_nonzero(leaves, axis=1)
        return (base[:, None] + leaves).ravel()

    def _collect(self, out, interior, final) -> None:
        """Read columns 2-4 of ``out`` off the state, then clear it."""
        state, stride, n = self.state, self.stride, len(out)
        interior = interior[interior < self.trash]
        row = interior // stride
        counts = state[interior]
        size = np.bincount(row, minlength=n)
        refs_sum = np.bincount(row, self.refs[interior - row * stride], n)
        # ``counts`` includes the root's marker 1 wherever the root expanded.
        out[:, 2] = refs_sum - np.bincount(row, counts, n) + (size > 0)
        out[:, 3] = size
        out[:, 4] = np.bincount(row, counts >= 2, n) + np.bincount(
            final // stride, state[final] >= 2, n
        )
        state[interior] = 0
        state[final] = 0
        state[self.trash :] = 0
        state[-1] = -1
