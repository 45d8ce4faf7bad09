"""Bit-parallel simulation of AIGs.

Four engines:

* :func:`simulate` — whole-network random/explicit simulation on NumPy
  ``uint64`` words (64 patterns per word), used by the CEC checker and the
  resubstitution divisor filter;
* :func:`cone_truth` — exact truth table of a cut root as a Python integer
  (arbitrary precision), used by refactor/rewrite/resub resynthesis;
* :func:`realizable_by_reuse` — the same arithmetic swept *upwards*
  from a cut's leaves, to decide whether any existing literal already
  computes a cut function (refactor's exact zero-budget screen);
* :func:`batch_cone_truths` — the multi-root batch kernel: one shared
  topological pass ranks the union of many cut cones, then each cone is
  evaluated by a flat loop over its pre-ranked interior.  This replaces
  the per-candidate recursive DFS of :func:`cone_truth` on the parallel
  engine's hot path, where a whole commit wave's survivor cones are
  evaluated back to back against the same graph.
"""

from __future__ import annotations

import numpy as np

from ..errors import TruthTableError
from .graph import AIG
from .literal import lit_node

MAX_TT_VARS = 16
"""Upper bound on cut truth-table support (2^16 bits = 8 KiB per table)."""


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


def batch_cone_truths(
    g: AIG,
    cones: list[tuple[int, tuple[int, ...] | list[int], frozenset[int] | set[int]]],
    *,
    packed: bool | None = None,
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

    ``packed=True`` selects the vectorized route: every cone's interior
    is compiled into one level-grouped gather program over a packed
    uint64 word matrix (all tables padded to the widest cut — the
    periodic leaf patterns agree on the low bits, so truncating each
    root row back to ``2**n`` bits recovers the exact per-cone table),
    and each level is a single numpy xor/and sweep across all cones at
    once.  Both routes are bit-identical (``tests/test_kernel_parity``
    pins them against each other and against :func:`cone_truth`); the
    default (``packed=None``) picks the scalar loop, which measures
    faster at every cut width on this kernel — CPython big-int bitwise
    ops are a fused C loop, while the numpy program pays two gather
    copies per level — so the packed route exists for consumers that
    already hold packed word views (the shared-memory wave transport)
    and as the reference implementation the parity battery exercises.
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

    if packed:
        return _batch_cone_truths_packed(g, cones, rank)

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


_WORD_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _batch_cone_truths_packed(
    g: AIG,
    cones: list[tuple[int, tuple[int, ...] | list[int], frozenset[int] | set[int]]],
    rank: dict[int, int],
) -> list[int]:
    """Vectorized route of :func:`batch_cone_truths`.

    Compiles every cone's interior into one gather program over a value
    matrix of packed uint64 words (row = one node's table in one cone),
    grouped by AND-depth level so each level is a single
    ``(V[a] ^ neg_a) & (V[b] ^ neg_b)`` numpy sweep across all cones.
    All rows are padded to the widest cut's width; truncating a root row
    to its own cone's ``2**n`` bits recovers the exact table because the
    periodic leaf patterns agree on low bits.  Bit-identical to the
    scalar loop above.
    """
    fanin0, fanin1 = g._fanin0, g._fanin1
    n_max = 0
    for _root, leaves, _interior in cones:
        n = len(leaves)
        if n > MAX_TT_VARS:
            raise TruthTableError(f"cut has {n} leaves; max is {MAX_TT_VARS}")
        if n > n_max:
            n_max = n
    n_eval = max(n_max, 6)
    n_words = max(1, (1 << n_eval) >> 6)
    rank_of = rank.__getitem__

    # Fixed rows: 0 = const0, 1 + i = leaf variable i (shared by every
    # cone; each cone reads the same periodic pattern and truncates).
    n_fixed = 1 + n_max
    a_rows: list[int] = []
    b_rows: list[int] = []
    a_neg: list[int] = []
    b_neg: list[int] = []
    level_groups: dict[int, list[int]] = {}
    root_rows: list[int] = []  # per cone; -1 marks a leaf/const root
    shortcuts: dict[int, int] = {}
    next_row = n_fixed

    for ci, (root, leaves, interior) in enumerate(cones):
        n = len(leaves)
        row_of: dict[int, int] = {0: 0}
        level_of: dict[int, int] = {0: 0}
        for i, leaf in enumerate(leaves):
            row_of[leaf] = 1 + i
            level_of[leaf] = 0
        if root in row_of:
            # Same dict-assignment semantics as the scalar loop: the last
            # duplicate leaf position wins, a leaf overrides const0.
            value = 0
            for i in range(len(leaves) - 1, -1, -1):
                if leaves[i] == root:
                    value = var_mask(i, n)
                    break
            shortcuts[ci] = value
            root_rows.append(-1)
            continue
        try:
            for node in sorted(interior, key=rank_of):
                f0, f1 = fanin0[node], fanin1[node]
                la = level_of[f0 >> 1]
                lb = level_of[f1 >> 1]
                a_rows.append(row_of[f0 >> 1])
                b_rows.append(row_of[f1 >> 1])
                a_neg.append(f0 & 1)
                b_neg.append(f1 & 1)
                level = (la if la >= lb else lb) + 1
                level_groups.setdefault(level, []).append(next_row - n_fixed)
                level_of[node] = level
                row_of[node] = next_row
                next_row += 1
            root_rows.append(row_of[root])
        except KeyError as exc:  # pragma: no cover - structural corruption
            raise TruthTableError(
                f"cone of {root} is not closed over its leaves/interior"
            ) from exc

    values = np.zeros((next_row, n_words), dtype=np.uint64)
    for i in range(n_max):
        pattern = var_mask(i, n_eval)
        values[1 + i] = np.frombuffer(
            pattern.to_bytes(n_words * 8, "little"), dtype="<u8"
        )
    if a_rows:
        a_arr = np.array(a_rows, dtype=np.int64)
        b_arr = np.array(b_rows, dtype=np.int64)
        a_mask = np.where(np.array(a_neg, dtype=bool), _WORD_ONES, np.uint64(0))
        b_mask = np.where(np.array(b_neg, dtype=bool), _WORD_ONES, np.uint64(0))
        for level in sorted(level_groups):
            idx = np.array(level_groups[level], dtype=np.int64)
            values[idx + n_fixed] = (values[a_arr[idx]] ^ a_mask[idx, None]) & (
                values[b_arr[idx]] ^ b_mask[idx, None]
            )

    out: list[int] = []
    for ci, (_root, leaves, _interior) in enumerate(cones):
        row = root_rows[ci]
        if row < 0:
            out.append(shortcuts[ci])
        else:
            out.append(
                int.from_bytes(values[row].tobytes(), "little")
                & full_mask(len(leaves))
            )
    return out
