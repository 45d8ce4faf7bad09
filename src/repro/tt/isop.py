"""Irredundant sum-of-products via the Minato-Morreale algorithm.

``isop(lower, upper, n_vars)`` computes a cube cover ``C`` with
``lower <= tt(C) <= upper`` (an *interval cover*, enabling don't-cares);
``isop_exact`` is the common ``lower == upper`` case used by refactor.
The recursion splits on the top variable in the support and produces an
irredundant cover, the same construction ABC uses (``Kit_TruthIsop``).

The core works at the width its bounds actually need.  On entry it
drops every top variable neither bound depends on (while both bounds'
halves are equal it keeps the low half, one variable narrower), then
splits on the top variable that remains, so the cofactors are the plain
low and high halves of the table.  Dropping top variables leaves the
indices of the others unchanged, so a cube list found at the reduced
width is the cube list at any wider one; only the cover table has to be
widened, which a caller does with one multiply by a replication
constant.

The core's child subproblems are memoized process-wide, keyed by
``(lower, upper, w)`` at the reduced width ``w``, packed into one int
``upper << 2**w | lower``.  The packing is unambiguous without ``w``:
a valid pair has ``upper != 0``, so the key's bit length lies in
``(2**w, 2**(w+1)]``.  A cofactor problem met by cut functions of
different widths is one entry, and every key and cover below the top is
a table of at most ``2**(n_vars-1)`` bits per bound.  The top-level
call of :func:`isop_exact` / :func:`isop` is looked up but never stored:
within a pass the caller's own ``(tt, n)`` resynthesis cache keeps its
result, and a top split over memoized halves is cheap to redo.  The
memo is cleared when it reaches :data:`ISOP_MEMO_LIMIT` entries; it
lives as long as the process, so a serving shard keeps it across
requests.

Output is bit-identical to the straightforward full-width composition
of :func:`repro.tt.truth.cofactor0` / ``cofactor1`` —
``tests/test_kernel_parity.py`` pins the cube lists of both
formulations against each other.
"""

from __future__ import annotations

from ..errors import TruthTableError
from ..aig.simulate import full_mask

ISOP_MEMO_LIMIT = 1 << 18
"""Entry cap of the process-wide Minato-Morreale memo (cleared, not LRU)."""

# upper << 2**w | lower, at the reduced width w -> (cubes, cover, w).
_MEMO: dict[int, tuple[list[int], int, int]] = {}
_MEMO_HITS = 0

# Per-width constants, grown on demand: _FULL[w] is the all-ones table
# over w variables, _REP[w][v] the multiplier that replicates a
# 2**v-bit table to 2**w bits (full(w) // full(v)).
_FULL: dict[int, int] = {}
_REP: dict[int, list[int]] = {}


def _grow(n_vars: int) -> None:
    # Safe under threads: concurrent callers store equal values, and
    # _REP[w] is stored last, so ``w in _REP`` means every width up to
    # w is ready.
    if n_vars in _REP:
        return
    for w in range(n_vars + 1):
        if w not in _REP:
            _FULL[w] = full_mask(w)
            _REP[w] = [_FULL[w] // full_mask(v) for v in range(w + 1)]


def clear_isop_memo() -> None:
    """Reset the process-wide memo (and its hit counter).

    Results never depend on memo state; this exists so benchmarks can
    time every mode from a cold start instead of letting earlier runs
    warm later ones.
    """
    global _MEMO_HITS
    _MEMO.clear()
    _MEMO_HITS = 0


def isop_memo_hits() -> int:
    """Cumulative memo hits of this process (snapshot around a region to
    report its hit count)."""
    return _MEMO_HITS


def isop_exact(tt: int, n_vars: int) -> list[int]:
    """Irredundant SOP of ``tt`` (no don't-cares)."""
    _grow(n_vars)
    if tt == 0:
        return []
    if not 0 < tt < _FULL[n_vars]:
        if tt == _FULL[n_vars]:
            return [0]
        raise TruthTableError(f"isop: table exceeds {n_vars} variables")
    cubes, cover, w = _isop(tt, tt, n_vars, False)
    if cover * _REP[n_vars][w] != tt:  # pragma: no cover - algorithmic invariant
        raise TruthTableError("isop cover mismatch")
    return list(cubes)


def isop(lower: int, upper: int, n_vars: int) -> list[int]:
    """Cover ``C`` with ``lower <= tt(C) <= upper`` (don't-care interval)."""
    _grow(n_vars)
    ones = _FULL[n_vars]
    lower &= ones
    upper &= ones
    if lower & ~upper:
        raise TruthTableError("isop: lower bound not contained in upper bound")
    if lower == 0:
        return []
    if upper == ones:
        return [0]
    return list(_isop(lower, upper, n_vars, False)[0])


def _isop(lower: int, upper: int, w: int, store: bool = True) -> tuple[list[int], int, int]:
    """Recursive core over ``2**w``-bit bounds, ``0 < lower <= upper <
    full(w)``; returns ``(cubes, cover, w')`` with the exact cover table
    at the reduced width ``w' <= w``.

    Callers must not mutate the returned cube list — it is shared with
    the memo (the public wrappers copy).  ``store=False`` (the top-level
    call) looks the memo up but adds no entry.
    """
    # Drop top variables neither bound depends on.  The loop ends with
    # w >= 1: at w == 1 equal halves would make lower == upper == 0b11,
    # which the preconditions exclude.
    while True:
        half = 1 << (w - 1)
        ones = _FULL[w - 1]
        l0 = lower & ones
        l1 = lower >> half
        u0 = upper & ones
        u1 = upper >> half
        if l0 != l1 or u0 != u1:
            break
        lower = l0
        upper = u0
        w -= 1
    key = upper << (half << 1) | lower
    hit = _MEMO.get(key)
    if hit is not None:
        global _MEMO_HITS
        _MEMO_HITS += 1
        return hit

    # Split on variable w - 1: l0/u0 are the var=0 halves, l1/u1 the
    # var=1 halves, each a table over w - 1 variables.  The two base
    # cases (empty lower bound, full upper bound) are inlined at each
    # recursion site: most child subproblems are trivial, and skipping
    # the call halves the recursion count.  A child cover comes back at
    # its own reduced width and is replicated back up to w - 1.
    w1 = w - 1
    rep = _REP[w1]
    # Minterms only realizable in the var=0 (resp. var=1) half.
    lo = l0 & ~u1
    if lo == 0:
        cubes0, cover0 = [], 0
    elif u0 == ones:
        cubes0, cover0 = [0], ones
    else:
        cubes0, cover0, wc = _isop(lo, u0, w1)
        if wc != w1:
            cover0 *= rep[wc]
    lo = l1 & ~u0
    if lo == 0:
        cubes1, cover1 = [], 0
    elif u1 == ones:
        cubes1, cover1 = [0], ones
    else:
        cubes1, cover1, wc = _isop(lo, u1, w1)
        if wc != w1:
            cover1 *= rep[wc]
    # What remains must be covered independently of var.
    lo = (l0 & ~cover0) | (l1 & ~cover1)
    if lo == 0:
        cubes_star, cover_star = [], 0
    else:
        u_star = u0 & u1
        if u_star == ones:
            cubes_star, cover_star = [0], ones
        else:
            cubes_star, cover_star, wc = _isop(lo, u_star, w1)
            if wc != w1:
                cover_star *= rep[wc]

    neg_bit = 1 << (2 * w1 + 1)  # lit_index(w1, True), inlined
    pos_bit = 1 << (2 * w1)
    cubes = (
        [c | neg_bit for c in cubes0]
        + [c | pos_bit for c in cubes1]
        + cubes_star
    )
    cover0 |= cover_star
    result = (cubes, cover0 | ((cover1 | cover_star) << half), w)
    if store:
        if len(_MEMO) >= ISOP_MEMO_LIMIT:
            _MEMO.clear()
        _MEMO[key] = result
    return result
