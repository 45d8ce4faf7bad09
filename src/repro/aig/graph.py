"""The And-Inverter Graph (AIG) data structure.

This mirrors the core of ABC's strashed AIG network:

* nodes are two-input AND gates, primary inputs, or the constant node;
  inverters live on edges as literal complement bits
  (see :mod:`repro.aig.literal`);
* every AND is *structurally hashed*: at most one live node exists for a
  given ordered fanin literal pair, and the trivial cases
  (``AND(x, 0)``, ``AND(x, 1)``, ``AND(x, x)``, ``AND(x, ~x)``) are never
  materialized;
* fanout lists and reference counts are maintained eagerly, which is what
  makes MFFC computation, cut features (fanout counts) and in-place node
  replacement possible;
* :meth:`AIG.replace` substitutes a node by an arbitrary literal, patching
  fanouts, merging structural duplicates that the patch creates (ABC's
  ``Abc_AigReplace`` cascade), propagating level updates and garbage
  collecting the dead cone;
* every kill and in-place fanin rewire is journaled per epoch
  (:meth:`AIG.drain_dirty`), which is how the parallel engine maps a wave
  of commits to the exact set of candidate snapshots it invalidated.

The class is deliberately index-based (parallel lists) rather than
object-based: Python object graphs are several times slower and this
structure is the hot path of every operator in the library.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from ..errors import AigError
from .literal import (
    CONST0,
    lit_node,
    lit_not,
    make_lit,
)

_PI_MARK = -1
_CONST_MARK = -2
_DEAD_MARK = -3


class DirtyJournal(NamedTuple):
    """One epoch of structural damage, drained via :meth:`AIG.drain_dirty`.

    ``killed`` are nodes that died (GC, strash merges, the replaced node
    itself); ``rewired`` are surviving AND nodes whose fanin literals were
    patched in place.  A snapshot of a cut cone taken before the epoch is
    certainly still valid when the cone avoids ``killed``: an in-place
    rewire only ever happens where the rewired node's old fanin died, so
    any rewire inside a cone is always accompanied by a kill inside it
    (cut closure), and rewired *leaves* keep their function (replacement
    preserves the functionality of every survivor).
    """

    killed: frozenset[int]
    rewired: frozenset[int]

    @property
    def empty(self) -> bool:
        return not self.killed and not self.rewired


class AIG:
    """A structurally hashed And-Inverter Graph.

    Node 0 is the constant-false node.  Primary inputs and AND nodes share
    the same index space; and AND node indices are assigned in creation
    order, so iterating ids ascending is a topological order.
    """

    def __init__(self, name: str = "aig") -> None:
        self.name = name
        # Parallel node arrays. Index 0 is the constant node.
        self._fanin0: list[int] = [_CONST_MARK]
        self._fanin1: list[int] = [_CONST_MARK]
        self._level: list[int] = [0]
        self._refs: list[int] = [0]
        self._fanouts: list[list[int]] = [[]]
        self._pis: list[int] = []
        self._pi_names: list[str] = []
        self._pos: list[int] = []  # driver literals
        self._po_names: list[str] = []
        self._po_uses: dict[int, list[int]] = {}  # node -> PO indices
        self._strash: dict[tuple[int, int], int] = {}
        self._n_live_ands = 0
        # Monotone counter bumped by every structural change; used by
        # consumers (cuts, required levels) to detect staleness.
        self.edit_stamp = 0
        # Dirty journal of the current epoch: nodes killed and fanouts
        # rewired by replace()/GC since the last drain_dirty().  This is
        # what lets the engine invalidate exactly the snapshots an epoch
        # of commits touched instead of liveness-probing every candidate.
        self._dirty_killed: set[int] = set()
        self._dirty_rewired: set[int] = set()

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Total allocated node slots, including dead nodes and node 0."""
        return len(self._fanin0)

    @property
    def n_pis(self) -> int:
        return len(self._pis)

    @property
    def n_pos(self) -> int:
        return len(self._pos)

    @property
    def n_ands(self) -> int:
        """Number of live AND nodes."""
        return self._n_live_ands

    @property
    def pis(self) -> list[int]:
        """Node indices of the primary inputs, in creation order."""
        return list(self._pis)

    @property
    def pos(self) -> list[int]:
        """Driver literals of the primary outputs, in creation order."""
        return list(self._pos)

    def pi_name(self, index: int) -> str:
        return self._pi_names[index]

    def po_name(self, index: int) -> str:
        return self._po_names[index]

    def is_const(self, node: int) -> bool:
        return node == 0

    def is_pi(self, node: int) -> bool:
        return self._fanin0[node] == _PI_MARK

    def is_and(self, node: int) -> bool:
        return self._fanin0[node] >= 0

    def is_dead(self, node: int) -> bool:
        return self._fanin0[node] == _DEAD_MARK

    def fanin0(self, node: int) -> int:
        """First fanin literal of an AND node."""
        lit = self._fanin0[node]
        if lit < 0:
            raise AigError(f"node {node} is not an AND node")
        return lit

    def fanin1(self, node: int) -> int:
        """Second fanin literal of an AND node."""
        lit = self._fanin1[node]
        if lit < 0:
            raise AigError(f"node {node} is not an AND node")
        return lit

    def fanin_lits(self, node: int) -> tuple[int, int]:
        """Both fanin literals of an AND node."""
        f0 = self._fanin0[node]
        if f0 < 0:
            raise AigError(f"node {node} is not an AND node")
        return f0, self._fanin1[node]

    def level(self, node: int) -> int:
        return self._level[node]

    def n_refs(self, node: int) -> int:
        """Fanout references (AND fanouts plus PO uses)."""
        return self._refs[node]

    def fanouts(self, node: int) -> list[int]:
        """Live AND nodes that use ``node`` as a fanin (copy)."""
        return list(self._fanouts[node])

    def iter_fanouts(self, node: int) -> Iterator[int]:
        """Zero-copy iteration over ``node``'s AND fanouts.

        Unlike :meth:`fanouts` this does not copy the fanout list, so the
        graph must not be mutated while the iterator is live — the read
        paths (traversals, cut growth, divisor filtering) qualify.
        """
        return iter(self._fanouts[node])

    def n_fanouts(self, node: int) -> int:
        """Total fanout count: AND fanouts plus PO uses.

        This is the quantity the paper calls the *fanout* of a node (its
        number of outgoing edges).
        """
        return self._refs[node]

    def po_uses(self, node: int) -> list[int]:
        """Indices of POs driven by ``node`` (either phase)."""
        return list(self._po_uses.get(node, ()))

    def and_ids(self) -> list[int]:
        """Snapshot of live AND node ids in ascending (creation) order.

        Creation order is topological for freshly built graphs; after
        node replacements it may not be — use
        :func:`repro.aig.traversal.topological_order` when fanins must
        come first.
        """
        return [i for i in range(1, len(self._fanin0)) if self._fanin0[i] >= 0]

    def iter_ands(self) -> Iterator[int]:
        """Iterate live AND ids lazily (ascending creation order)."""
        fanin0 = self._fanin0
        for i in range(1, len(fanin0)):
            if fanin0[i] >= 0:
                yield i

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_pi(self, name: str | None = None) -> int:
        """Create a primary input; returns its (regular) literal."""
        node = self._alloc(_PI_MARK, _PI_MARK, 0)
        self._pis.append(node)
        self._pi_names.append(name if name is not None else f"pi{len(self._pis) - 1}")
        return make_lit(node)

    def add_po(self, lit: int, name: str | None = None) -> int:
        """Register ``lit`` as a primary output; returns the PO index."""
        self._check_lit(lit)
        index = len(self._pos)
        self._pos.append(lit)
        self._po_names.append(name if name is not None else f"po{index}")
        node = lit_node(lit)
        self._refs[node] += 1
        self._po_uses.setdefault(node, []).append(index)
        self.edit_stamp += 1
        return index

    def set_po(self, index: int, lit: int) -> None:
        """Re-drive PO ``index`` with ``lit``."""
        self._check_lit(lit)
        old = self._pos[index]
        old_node = lit_node(old)
        self._refs[old_node] -= 1
        uses = self._po_uses[old_node]
        uses.remove(index)
        if not uses:
            del self._po_uses[old_node]
        self._pos[index] = lit
        node = lit_node(lit)
        self._refs[node] += 1
        self._po_uses.setdefault(node, []).append(index)
        self.edit_stamp += 1

    def add_and(self, a: int, b: int) -> int:
        """Return the literal of ``AND(a, b)``, creating a node if needed.

        Applies the standard strashing simplifications, so the result may
        be a constant or one of the operands.
        """
        self._check_lit(a)
        self._check_lit(b)
        simplified = _simplify_and(a, b)
        if simplified is not None:
            return simplified
        if a > b:
            a, b = b, a
        hit = self._strash.get((a, b))
        if hit is not None:
            return make_lit(hit)
        node = self._alloc(a, b, 1 + max(self._level[lit_node(a)], self._level[lit_node(b)]))
        self._strash[(a, b)] = node
        self._connect(a, node)
        self._connect(b, node)
        self._n_live_ands += 1
        return make_lit(node)

    def add_or(self, a: int, b: int) -> int:
        """OR via De Morgan: ``a + b = ~(~a & ~b)``."""
        return lit_not(self.add_and(lit_not(a), lit_not(b)))

    def add_xor(self, a: int, b: int) -> int:
        """XOR built from three AND nodes."""
        return self.add_or(self.add_and(a, lit_not(b)), self.add_and(lit_not(a), b))

    def add_mux(self, sel: int, t: int, e: int) -> int:
        """``sel ? t : e`` built from three AND nodes."""
        return self.add_or(self.add_and(sel, t), self.add_and(lit_not(sel), e))

    def lookup_and(self, a: int, b: int) -> int | None:
        """Probe for ``AND(a, b)`` without creating it.

        Returns the literal of the existing (or trivially simplified)
        result, or None when the node does not exist.
        """
        simplified = _simplify_and(a, b)
        if simplified is not None:
            return simplified
        if a > b:
            a, b = b, a
        hit = self._strash.get((a, b))
        return None if hit is None else make_lit(hit)

    # ------------------------------------------------------------------
    # Replacement / deletion
    # ------------------------------------------------------------------

    def replace(self, old_node: int, new_lit: int) -> int:
        """Replace ``old_node`` by ``new_lit`` everywhere; GC the old cone.

        All fanouts and PO uses of ``old_node`` are patched to use
        ``new_lit`` (phase-adjusted).  Patches can make a fanout
        structurally identical to an existing node, in which case the two
        are merged and the merge cascades upward (ABC's ``Abc_AigReplace``
        semantics).  Nodes whose reference count drops to zero are
        recursively deleted.

        Returns the number of AND nodes deleted minus the number that were
        newly referenced (callers typically ignore it and inspect
        :attr:`n_ands` instead).
        """
        if not self.is_and(old_node) and not self.is_pi(old_node):
            raise AigError(f"cannot replace node {old_node}")
        ands_before = self._n_live_ands
        # The replaced node is functionally gone even when the slot
        # survives (a replaced PI is never GC'd): journal it as killed.
        self._dirty_killed.add(old_node)
        # Work stack of definitive replacement facts (node -> literal).
        # Targets are pinned (refs bumped) so cascading GC cannot free a
        # literal that a pending patch still needs.
        stack: list[tuple[int, int]] = [(old_node, new_lit)]
        self._refs[lit_node(new_lit)] += 1
        while stack:
            node, lit = stack.pop()
            self._refs[lit_node(lit)] -= 1
            if self.is_dead(node) or lit_node(lit) == node:
                self._reap(lit_node(lit))
                continue
            if self.is_dead(lit_node(lit)):
                raise AigError("replacement target died during cascade")
            self._patch_pos(node, lit)
            for fanout in list(self._fanouts[node]):
                if self.is_dead(fanout) or self.is_dead(node):
                    continue
                merge = self._patch_fanin(fanout, node, lit)
                if merge is not None:
                    self._refs[lit_node(merge)] += 1
                    stack.append((fanout, merge))
            self._reap(node)
            self._reap(lit_node(lit))
        self.edit_stamp += 1
        return ands_before - self._n_live_ands

    def _patch_pos(self, node: int, lit: int) -> None:
        for po_index in list(self._po_uses.get(node, ())):
            old = self._pos[po_index]
            self.set_po(po_index, lit ^ (old & 1))

    def _patch_fanin(self, fanout: int, node: int, lit: int) -> int | None:
        """Rewire ``fanout``'s fanin from ``node`` to ``lit``.

        Returns a literal ``fanout`` must itself be replaced by when the
        patch simplifies it away or collides with an existing node, else
        None (patched in place).
        """
        f0, f1 = self._fanin0[fanout], self._fanin1[fanout]
        if lit_node(f0) == node:
            old_fanin, other = f0, f1
        elif lit_node(f1) == node:
            old_fanin, other = f1, f0
        else:  # already rewired by an earlier cascade step
            return None
        new_fanin = lit ^ (old_fanin & 1)
        simplified = _simplify_and(new_fanin, other)
        if simplified is not None:
            return simplified
        a, b = (new_fanin, other) if new_fanin < other else (other, new_fanin)
        hit = self._strash.get((a, b))
        if hit is not None and hit != fanout:
            return make_lit(hit)
        # In-place rehash.
        key_old = (f0, f1) if f0 < f1 else (f1, f0)
        if self._strash.get(key_old) == fanout:
            del self._strash[key_old]
        self._disconnect(old_fanin, fanout)
        self._connect(new_fanin, fanout)
        self._fanin0[fanout], self._fanin1[fanout] = a, b
        self._strash[(a, b)] = fanout
        self._dirty_rewired.add(fanout)
        self._update_level(fanout)
        return None

    def _reap(self, node: int) -> None:
        """Delete ``node`` (and recursively its cone) if unreferenced."""
        if node == 0 or not self.is_and(node) or self._refs[node] > 0:
            return
        stack = [node]
        while stack:
            top = stack.pop()
            if self._refs[top] > 0 or not self.is_and(top):
                continue
            f0, f1 = self._fanin0[top], self._fanin1[top]
            key = (f0, f1) if f0 < f1 else (f1, f0)
            if self._strash.get(key) == top:
                del self._strash[key]
            self._fanin0[top] = _DEAD_MARK
            self._fanin1[top] = _DEAD_MARK
            self._fanouts[top].clear()
            self._dirty_killed.add(top)
            self._n_live_ands -= 1
            for fanin_lit in (f0, f1):
                fanin = lit_node(fanin_lit)
                self._disconnect(fanin_lit, top)
                if self.is_and(fanin) and self._refs[fanin] == 0:
                    stack.append(fanin)

    # ------------------------------------------------------------------
    # Dirty journal
    # ------------------------------------------------------------------

    def drain_dirty(self) -> DirtyJournal:
        """Return and clear the epoch's structural-damage journal.

        An epoch is everything since the previous drain (or construction).
        The wave engine drains once per committed replacement — reported
        up through ``commit_scored`` — and maps the killed set through its
        candidate index to find exactly the snapshots that went stale.
        Sequential operator passes drain once at entry, retiring the
        previous epoch; between drains the journal is bounded by the
        allocated slot count (ids live in sets), never by the number of
        edits.
        """
        journal = DirtyJournal(
            frozenset(self._dirty_killed), frozenset(self._dirty_rewired)
        )
        self._dirty_killed.clear()
        self._dirty_rewired.clear()
        return journal

    # ------------------------------------------------------------------
    # Level maintenance
    # ------------------------------------------------------------------

    def _update_level(self, node: int) -> None:
        """Recompute ``node``'s level and propagate changes to fanouts."""
        fanin0, fanin1 = self._fanin0, self._fanin1
        level, fanouts = self._level, self._fanouts
        worklist = [node]
        while worklist:
            top = worklist.pop()
            f0 = fanin0[top]
            if f0 < 0:  # not an AND node (is_and inlined)
                continue
            l0 = level[f0 >> 1]
            l1 = level[fanin1[top] >> 1]
            new_level = (l0 if l0 >= l1 else l1) + 1
            if new_level != level[top]:
                level[top] = new_level
                worklist.extend(fanouts[top])

    def max_level(self) -> int:
        """Depth of the network: maximum level over PO drivers."""
        if not self._pos:
            return 0
        return max(self._level[lit_node(lit)] for lit in self._pos)

    # ------------------------------------------------------------------
    # Cloning / compaction
    # ------------------------------------------------------------------

    def structural_digest(self) -> str:
        """Canonical 128-bit hex digest of the PO-reachable structure.

        Independent of node numbering, names and dangling logic: two
        strash-equivalent networks digest equal however they were
        built.  See :func:`repro.aig.digest.structural_digest` — this
        is the key the content-addressed serving cache hashes on.
        """
        from .digest import structural_digest

        return structural_digest(self)

    def clone(self, name: str | None = None) -> "AIG":
        """Deep copy with dead nodes compacted away and ids renumbered
        into topological order."""
        from .traversal import topological_order

        out = AIG(name if name is not None else self.name)
        old2new: dict[int, int] = {0: CONST0}
        for pi_node, pi_name in zip(self._pis, self._pi_names):
            old2new[pi_node] = out.add_pi(pi_name)
        for node in topological_order(self):
            f0, f1 = self._fanin0[node], self._fanin1[node]
            a = old2new[lit_node(f0)] ^ (f0 & 1)
            b = old2new[lit_node(f1)] ^ (f1 & 1)
            old2new[node] = out.add_and(a, b)
        for lit, po_name in zip(self._pos, self._po_names):
            out.add_po(old2new[lit_node(lit)] ^ (lit & 1), po_name)
        return out

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _alloc(self, f0: int, f1: int, level: int) -> int:
        node = len(self._fanin0)
        self._fanin0.append(f0)
        self._fanin1.append(f1)
        self._level.append(level)
        self._refs.append(0)
        self._fanouts.append([])
        self.edit_stamp += 1
        return node

    def _connect(self, fanin_lit: int, fanout: int) -> None:
        node = lit_node(fanin_lit)
        self._refs[node] += 1
        self._fanouts[node].append(fanout)

    def _disconnect(self, fanin_lit: int, fanout: int) -> None:
        node = lit_node(fanin_lit)
        self._refs[node] -= 1
        try:
            self._fanouts[node].remove(fanout)
        except ValueError as exc:  # pragma: no cover - structural corruption
            raise AigError(f"fanout list of {node} missing {fanout}") from exc

    def _check_lit(self, lit: int) -> None:
        node = lit_node(lit)
        if node < 0 or node >= len(self._fanin0) or self._fanin0[node] == _DEAD_MARK:
            raise AigError(f"literal {lit} references a dead or missing node")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AIG(name={self.name!r}, pis={self.n_pis}, pos={self.n_pos}, "
            f"ands={self.n_ands}, level={self.max_level()})"
        )


def _simplify_and(a: int, b: int) -> int | None:
    """Trivial AND simplifications; None when a real node is required."""
    if a == b:
        return a
    if (a ^ b) == 1:  # x & ~x
        return CONST0
    if a == CONST0 or b == CONST0:
        return CONST0
    if a == 1:  # const true
        return b
    if b == 1:
        return a
    return None


def from_functions(n_inputs: int, build: "callable", name: str = "aig") -> AIG:
    """Helper: build an AIG by calling ``build(g, input_lits) -> po_lits``."""
    g = AIG(name)
    inputs = [g.add_pi() for _ in range(n_inputs)]
    outputs = build(g, inputs)
    for lit in outputs:
        g.add_po(lit)
    return g


def iter_fanin_lits(g: AIG, node: int) -> Iterable[int]:
    """Fanin literals of ``node`` (empty for PIs and the constant)."""
    if g.is_and(node):
        return g.fanin_lits(node)
    return ()
