"""Maximum fanout-free cone (MFFC) computation via reference counting.

The MFFC of a node is the set of nodes that become unreferenced when the
node is removed — exactly the nodes the refactor operator gets to delete
for free when it replaces the node's function.  Following ABC, the size is
computed with a dereference/re-reference sweep over the live reference
counts, which is both fast and exact.

The refactor pipeline uses the *cut-bounded* variant: the sweep stops at
the cut leaves, because the replacement cone is rebuilt on top of those
leaves and therefore keeps them alive.
"""

from __future__ import annotations

from collections.abc import Container

from ..errors import AigError
from .graph import AIG


def mffc_deref(g: AIG, root: int, boundary: set[int] | None = None) -> list[int]:
    """Dereference ``root``'s cone; return the freed nodes (root first).

    Reference counts are left decremented — callers must either commit the
    deletion or call :func:`mffc_ref` with the same arguments to restore.
    ``boundary`` nodes are never dereferenced (cut leaves).
    """
    if not g.is_and(root):
        raise AigError(f"node {root} is not an AND node")
    freed = [root]
    stack = [root]
    refs = g._refs
    fanin0, fanin1 = g._fanin0, g._fanin1
    while stack:
        node = stack.pop()
        # Inner loop on the raw parallel arrays: this sweep runs twice per
        # gain check on every candidate, so accessor/tuple overhead counts.
        for fanin in (fanin0[node] >> 1, fanin1[node] >> 1):
            if fanin0[fanin] < 0 or (boundary is not None and fanin in boundary):
                continue
            refs[fanin] -= 1
            if refs[fanin] == 0:
                freed.append(fanin)
                stack.append(fanin)
    return freed


def mffc_ref(g: AIG, root: int, boundary: set[int] | None = None) -> int:
    """Re-reference ``root``'s cone (inverse of :func:`mffc_deref`)."""
    if not g.is_and(root):
        raise AigError(f"node {root} is not an AND node")
    count = 1
    stack = [root]
    refs = g._refs
    fanin0, fanin1 = g._fanin0, g._fanin1
    while stack:
        node = stack.pop()
        for fanin in (fanin0[node] >> 1, fanin1[node] >> 1):
            if fanin0[fanin] < 0 or (boundary is not None and fanin in boundary):
                continue
            if refs[fanin] == 0:
                count += 1
                stack.append(fanin)
            refs[fanin] += 1
    return count


def mffc_nodes(g: AIG, root: int, boundary: set[int] | None = None) -> list[int]:
    """The MFFC of ``root`` as a node list (root included), side-effect free."""
    freed = mffc_deref(g, root, boundary)
    restored = mffc_ref(g, root, boundary)
    if restored != len(freed):  # pragma: no cover - structural corruption
        raise AssertionError("mffc ref/deref mismatch")
    return freed


def mffc_is_root_alone(g: AIG, root: int, boundary: Container[int] = ()) -> bool:
    """Is ``root``'s MFFC the root alone, without sweeping it?

    True exactly when each fanin is a primary input, shared (referenced
    more than once) or in ``boundary``, i.e. when
    ``mffc_nodes(g, root, boundary) == [root]``.
    """
    fanin0, refs = g._fanin0, g._refs
    for lit in (fanin0[root], g._fanin1[root]):
        fanin = lit >> 1
        if fanin0[fanin] >= 0 and refs[fanin] == 1 and fanin not in boundary:
            return False
    return True


def mffc_size(g: AIG, root: int, boundary: set[int] | None = None) -> int:
    """Number of AND nodes freed if ``root`` were removed."""
    return len(mffc_nodes(g, root, boundary))
