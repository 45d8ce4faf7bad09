"""Bit-parallel simulation of AIGs.

Five engines:

* :func:`simulate` — whole-network random/explicit simulation on NumPy
  ``uint64`` words (64 patterns per word), used by the CEC checker and the
  resubstitution divisor filter;
* :func:`cone_truth` — exact truth table of a cut root as a Python integer
  (arbitrary precision), used by refactor/rewrite/resub resynthesis;
* :func:`realizable_by_reuse` — the same arithmetic swept *upwards*
  from a cut's leaves, to decide whether any existing literal already
  computes a cut function (refactor's exact zero-budget screen);
* :class:`TwinScreen` — a per-pass table of 64-bit random-simulation
  signatures of every node, which tells whether any other node may
  compute a root's function (the exact cost-0 bound of rewrite and
  refactor);
* :func:`batch_cone_truths` — the multi-root batch kernel: one shared
  topological pass ranks the union of many cut cones, then each cone is
  evaluated by a flat loop over its pre-ranked interior, bit-identical
  to one :func:`cone_truth` per cone.  No operator calls it;
  ``tests/test_kernel_parity.py`` pins it against :func:`cone_truth`.
"""

from __future__ import annotations

import random

import numpy as np

from ..errors import TruthTableError
from .graph import AIG
from .literal import lit_node

MAX_TT_VARS = 16
"""Upper bound on cut truth-table support (2^16 bits = 8 KiB per table)."""

TWIN_SEED = 0x7E1F
"""Seed of :class:`TwinScreen`'s primary-input patterns."""

_SIG_ONES = (1 << 64) - 1


def simulate(
    g: AIG,
    pi_values: np.ndarray | None = None,
    n_words: int = 4,
    seed: int | None = 0,
) -> np.ndarray:
    """Simulate the whole network on 64-bit pattern words.

    ``pi_values`` has shape ``(n_pis, n_words)`` of dtype uint64; when
    omitted, random patterns are drawn from ``seed``.  Returns an array of
    shape ``(n_pos, n_words)`` with the PO values.
    """
    if pi_values is None:
        rng = np.random.default_rng(seed)
        pi_values = rng.integers(0, 2**64, size=(g.n_pis, n_words), dtype=np.uint64)
    else:
        pi_values = np.asarray(pi_values, dtype=np.uint64)
        if pi_values.shape[0] != g.n_pis:
            raise TruthTableError(
                f"expected {g.n_pis} PI rows, got {pi_values.shape[0]}"
            )
        n_words = pi_values.shape[1]
    values = node_values(g, pi_values, n_words)
    ones = np.uint64(0xFFFFFFFFFFFFFFFF)
    out = np.empty((g.n_pos, n_words), dtype=np.uint64)
    for i, lit in enumerate(g.pos):
        v = values[lit_node(lit)]
        out[i] = v ^ ones if (lit & 1) else v
    return out


def node_values(g: AIG, pi_values: np.ndarray, n_words: int) -> np.ndarray:
    """Per-node simulation values, indexed by node id (dead rows are junk)."""
    from .traversal import topological_order

    ones = np.uint64(0xFFFFFFFFFFFFFFFF)
    values = np.zeros((g.n_nodes, n_words), dtype=np.uint64)
    for i, pi in enumerate(g.pis):
        values[pi] = pi_values[i]
    fanin0, fanin1 = g._fanin0, g._fanin1
    for node in topological_order(g):
        f0, f1 = fanin0[node], fanin1[node]
        a = values[f0 >> 1]
        if f0 & 1:
            a = a ^ ones
        b = values[f1 >> 1]
        if f1 & 1:
            b = b ^ ones
        values[node] = a & b
    return values


def _var_mask(var: int, n_vars: int) -> int:
    """Truth table (as int) of input variable ``var`` over ``n_vars`` inputs."""
    bits = 1 << n_vars
    if var >= n_vars:
        raise TruthTableError(f"variable {var} out of range for {n_vars} inputs")
    block = (1 << (1 << var)) - 1  # 2^(2^var) - 1: run of zeros then ones
    pattern = 0
    period = 1 << (var + 1)
    for offset in range(0, bits, period):
        pattern |= (block << (1 << var)) << offset
    return pattern


# Cache of variable masks: (var, n_vars) -> int.
_VAR_MASKS: dict[tuple[int, int], int] = {}


def var_mask(var: int, n_vars: int) -> int:
    """Cached truth table of variable ``var`` over ``n_vars`` variables."""
    key = (var, n_vars)
    mask = _VAR_MASKS.get(key)
    if mask is None:
        mask = _var_mask(var, n_vars)
        _VAR_MASKS[key] = mask
    return mask


def full_mask(n_vars: int) -> int:
    """All-ones truth table over ``n_vars`` variables."""
    return (1 << (1 << n_vars)) - 1


def cone_truth(g: AIG, root: int, leaves: list[int]) -> int:
    """Exact truth table of ``root`` as a function of ``leaves``.

    ``leaves`` are node ids forming a cut of ``root``; the table is a
    Python int with bit ``i`` = value of the root under the assignment
    encoded by ``i`` (leaf 0 is the least significant variable).  The root
    literal is taken in regular (non-complemented) phase.
    """
    n = len(leaves)
    if n > MAX_TT_VARS:
        raise TruthTableError(f"cut has {n} leaves; max is {MAX_TT_VARS}")
    ones = full_mask(n)
    values: dict[int, int] = {0: 0}
    for i, leaf in enumerate(leaves):
        values[leaf] = var_mask(i, n)
    if root in values:
        return values[root]

    fanin0, fanin1 = g._fanin0, g._fanin1
    order: list[int] = []
    stack: list[int] = [root]
    visited = set(values)
    while stack:  # iterative post-order over the cone
        node = stack[-1]
        if node in visited:
            stack.pop()
            continue
        f0, f1 = fanin0[node], fanin1[node]
        if f0 < 0:
            raise TruthTableError(f"cut of {root} does not cover node {node}")
        pending = [f for f in (f0 >> 1, f1 >> 1) if f not in visited]
        if pending:
            stack.extend(pending)
        else:
            visited.add(node)
            order.append(node)
            stack.pop()

    for node in order:
        f0, f1 = fanin0[node], fanin1[node]
        a = values[f0 >> 1]
        if f0 & 1:
            a ^= ones
        b = values[f1 >> 1]
        if f1 & 1:
            b ^= ones
        values[node] = a & b
    return values[root]


def realizable_by_reuse(g: AIG, root: int, leaves: list[int], tt: int) -> bool:
    """Could a literal other than ``root`` compute ``tt`` over ``leaves``?

    ``tt`` is ``root``'s table over ``leaves`` (:func:`cone_truth`).
    Returns False only when no constant, no leaf literal and no node of
    the leaves' *fanout closure* — the AND nodes whose two fanins both
    lie in {const, leaves, closure}, grown from the leaves' fanout lists
    without passing through ``root`` — computes ``tt`` or its complement.
    A refactor replacement that adds no node is built from such literals
    only, so a False answer proves that none exists
    (:mod:`repro.opt.refactor` spells out the argument).  The sweep
    stops at the first match.
    """
    n = len(leaves)
    ones = full_mask(n)
    inv = tt ^ ones
    if tt == 0 or inv == 0:
        return True
    values: dict[int, int] = {0: 0}
    for i, leaf in enumerate(leaves):
        mask = var_mask(i, n)
        if mask == tt or mask == inv:
            return True
        values[leaf] = mask

    fanin0, fanin1, fanouts = g._fanin0, g._fanin1, g._fanouts
    stack = list(leaves)
    while stack:
        for fanout in fanouts[stack.pop()]:
            if fanout == root or fanout in values:
                continue
            f0, f1 = fanin0[fanout], fanin1[fanout]
            a = values.get(f0 >> 1)
            if a is None:
                continue
            b = values.get(f1 >> 1)
            if b is None:  # revisited once its other fanin gets a value
                continue
            if f0 & 1:
                a ^= ones
            if f1 & 1:
                b ^= ones
            value = a & b
            if value == tt or value == inv:
                return True
            values[fanout] = value
            stack.append(fanout)
    return False


class TwinScreen:
    """Per-pass signature table: may another node compute a root's function?

    Every live node (the constant, the primary inputs, the ANDs) gets a
    signature: 64 seeded random patterns simulated through the graph.
    The table counts signatures by a key that equates a word with its
    complement.  Replacement keeps the function of every surviving
    node, so a signature never goes stale.  Nodes created during the
    pass are signed on demand, through their fanins, the next time the
    table is queried; fanins first, not in id order, because a later
    commit may rewire an older new node onto a newer one.

    :meth:`has_twin` is False only when the root is the one node with
    its key: then no other node computes the root's function or its
    complement.  The counts keep nodes that died during the pass, and a
    shared signature need not mean a shared function; both only make the
    answer True more often, which is the safe side for every caller.
    """

    def __init__(self, g: AIG) -> None:
        rng = random.Random(TWIN_SEED)
        self._g = g
        self._sigs: list[int | None] = [None] * g.n_nodes
        self._sigs[0] = 0
        for pi in g.pis:
            self._sigs[pi] = rng.getrandbits(64)
        self._counts: dict[int, int] = {}
        self._synced = 0
        self._sync()

    def has_twin(self, node: int) -> bool:
        """Could a node other than ``node`` compute its function or complement?"""
        sig = self.signature(node)
        return self._counts[min(sig, sig ^ _SIG_ONES)] > 1

    def signature(self, node: int) -> int:
        """The 64-bit simulation word of live ``node``."""
        self._sync()
        return self._sigs[node]

    def _sync(self) -> None:
        """Sign and count the nodes created since the last query."""
        g = self._g
        n_nodes = g.n_nodes
        if self._synced == n_nodes:
            return
        sigs, counts = self._sigs, self._counts
        sigs.extend([None] * (n_nodes - len(sigs)))
        for node in range(self._synced, n_nodes):
            if g.is_dead(node):
                continue
            sig = sigs[node]
            if sig is None:
                sig = self._sign(node)
            key = min(sig, sig ^ _SIG_ONES)
            counts[key] = counts.get(key, 0) + 1
        self._synced = n_nodes

    def _sign(self, node: int) -> int:
        """Sign AND ``node`` and its unsigned transitive fanins."""
        sigs = self._sigs
        fanin0, fanin1 = self._g._fanin0, self._g._fanin1
        stack = [node]
        while stack:
            top = stack[-1]
            if sigs[top] is not None:  # reached twice through reconvergence
                stack.pop()
                continue
            f0, f1 = fanin0[top], fanin1[top]
            a, b = sigs[f0 >> 1], sigs[f1 >> 1]
            if a is None or b is None:
                if a is None:
                    stack.append(f0 >> 1)
                if b is None:
                    stack.append(f1 >> 1)
                continue
            stack.pop()
            if f0 & 1:
                a ^= _SIG_ONES
            if f1 & 1:
                b ^= _SIG_ONES
            sigs[top] = a & b
        return sigs[node]


def batch_cone_truths(
    g: AIG,
    cones: list[tuple[int, tuple[int, ...] | list[int], frozenset[int] | set[int]]],
) -> list[int]:
    """Exact truth tables of many cut cones in one batch.

    Each element of ``cones`` is ``(root, leaves, interior)`` — exactly
    the data a snapshot of a reconvergence-driven cut carries: ``leaves``
    fix the variable order, ``interior`` is the cone between leaves and
    root with the root included.  Results align with the input order and
    are bit-identical to calling :func:`cone_truth` per cone.

    The win over per-cone calls is structural: cut interiors need a
    fanins-first evaluation order, and :func:`cone_truth` derives it with
    a fresh recursive DFS per root.  Here a single pass assigns a
    topological rank to every node in the *union* of the interiors
    (overlapping cones are visited once), after which each cone is just a
    sort of its pre-known interior by rank plus a flat AND/XOR loop.
    CPython big-int bitwise ops are a fused C loop, which measured faster
    than a level-grouped numpy gather program at every cut width.
    """
    fanin0, fanin1 = g._fanin0, g._fanin1
    union: set[int] = set()
    for _root, _leaves, interior in cones:
        union.update(interior)

    # One shared post-order pass over the union-induced subgraph: for any
    # interior node, its in-union fanins are ranked first.  Seeding from
    # the roots covers every interior (a cone's interior is reachable from
    # its own root without leaving the union).
    rank: dict[int, int] = {}
    next_rank = 0
    stack: list[int] = []
    for root, _leaves, _interior in cones:
        if root in rank or root not in union:
            continue
        stack.append(root)
        while stack:
            node = stack[-1]
            if node in rank:
                stack.pop()
                continue
            pending = [
                f
                for f in (fanin0[node] >> 1, fanin1[node] >> 1)
                if f in union and f not in rank
            ]
            if pending:
                stack.extend(pending)
            else:
                rank[node] = next_rank
                next_rank += 1
                stack.pop()

    out: list[int] = []
    rank_of = rank.__getitem__
    for root, leaves, interior in cones:
        n = len(leaves)
        if n > MAX_TT_VARS:
            raise TruthTableError(f"cut has {n} leaves; max is {MAX_TT_VARS}")
        ones = full_mask(n)
        values: dict[int, int] = {0: 0}
        for i, leaf in enumerate(leaves):
            values[leaf] = var_mask(i, n)
        if root in values:
            out.append(values[root])
            continue
        try:
            for node in sorted(interior, key=rank_of):
                f0, f1 = fanin0[node], fanin1[node]
                a = values[f0 >> 1]
                if f0 & 1:
                    a ^= ones
                b = values[f1 >> 1]
                if f1 & 1:
                    b ^= ones
                values[node] = a & b
            out.append(values[root])
        except KeyError as exc:  # pragma: no cover - structural corruption
            raise TruthTableError(
                f"cone of {root} is not closed over its leaves/interior"
            ) from exc
    return out
