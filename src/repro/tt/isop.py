"""Irredundant sum-of-products via the Minato-Morreale algorithm.

``isop(lower, upper, n_vars)`` computes a cube cover ``C`` with
``lower <= tt(C) <= upper`` (an *interval cover*, enabling don't-cares);
``isop_exact`` is the common ``lower == upper`` case used by refactor.
The recursion splits on the top variable in the support and produces an
irredundant cover, the same construction ABC uses (``Kit_TruthIsop``).

The recursive core is memoized process-wide: it is a pure function of
``(lower, upper, n_vars)``, and the cofactor subproblems of related
cut functions overlap heavily (the reconvergent cones of one circuit
keep re-deriving the same half-covers), so on refactor-scale workloads
more than half the recursion tree is served from the memo.  The memo is
cleared when it reaches :data:`ISOP_MEMO_LIMIT` entries, bounding memory
without changing any result.

The recursion body is the sequential hot loop of refactor-family
operators (every resynthesis task starts with one or two ISOPs), so it
is written for big-int throughput: the four cofactors share one mask /
shift computation per split instead of going through the
:mod:`repro.tt.truth` helpers, and the split-variable scan
short-circuits bound by bound.  Output is bit-identical to the
straightforward composition of :func:`repro.tt.truth.cofactor0` /
``cofactor1`` — ``tests/test_kernel_parity.py`` pins the cube lists of
both formulations against each other.
"""

from __future__ import annotations

from ..errors import TruthTableError
from ..aig.simulate import full_mask, var_mask

ISOP_MEMO_LIMIT = 1 << 18
"""Entry cap of the process-wide Minato-Morreale memo (cleared, not LRU)."""

_MEMO: dict[tuple[int, int, int], tuple[list[int], int]] = {}
_MEMO_HITS = 0

# Per-width scan constants: n_vars -> (ones, (var_mask(0), var_mask(1), ...)).
# Tuple indexing in the recursion's split-variable scan replaces one
# dict-with-tuple-key lookup and one big-int full_mask allocation per call.
_SCAN: dict[int, tuple[int, tuple[int, ...]]] = {}


def _scan_constants(n_vars: int) -> tuple[int, tuple[int, ...]]:
    entry = _SCAN.get(n_vars)
    if entry is None:
        entry = (
            full_mask(n_vars),
            tuple(var_mask(v, n_vars) for v in range(n_vars)),
        )
        _SCAN[n_vars] = entry
    return entry


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
    cubes, cover = _isop(tt, tt, n_vars, n_vars)
    if cover != tt:  # pragma: no cover - algorithmic invariant
        raise TruthTableError("isop cover mismatch")
    return list(cubes)


def isop(lower: int, upper: int, n_vars: int) -> list[int]:
    """Cover ``C`` with ``lower <= tt(C) <= upper`` (don't-care interval)."""
    mask = full_mask(n_vars)
    lower &= mask
    upper &= mask
    if lower & ~upper:
        raise TruthTableError("isop: lower bound not contained in upper bound")
    cubes, _cover = _isop(lower, upper, n_vars, n_vars)
    return list(cubes)


def _isop(lower: int, upper: int, top: int, n_vars: int) -> tuple[list[int], int]:
    """Recursive core; returns (cubes, exact cover truth table).

    Callers must not mutate the returned cube list — it is shared with
    the memo (the public wrappers copy).

    The memo key omits ``top``: the split variable is the top-most
    variable either bound depends on, and every call site guarantees
    ``top`` exceeds it (the public wrappers pass ``n_vars``; recursive
    calls pass the parent's split variable, above which the cofactors
    are constant), so the result is independent of where the scan
    starts.  Dropping ``top`` folds the same subproblem reached at
    different recursion depths into one entry.
    """
    if lower == 0:
        return [], 0
    ones, masks = _scan_constants(n_vars)
    if upper == ones:
        return [0], ones
    key = (lower, upper, n_vars)
    hit = _MEMO.get(key)
    if hit is not None:
        global _MEMO_HITS
        _MEMO_HITS += 1
        return hit
    # Find the top-most variable either bound depends on.  A bound
    # depends on ``var`` exactly when its high half differs from its low
    # half under the periodic mask; checking ``lower`` first
    # short-circuits the (rarer) ``upper`` comparison.
    var = top - 1
    while var >= 0:
        mask = masks[var]
        shift = 1 << var
        if (lower & mask) != ((lower << shift) & mask) or (
            (upper & mask) != ((upper << shift) & mask)
        ):
            break
        var -= 1
    if var < 0:  # pragma: no cover - constants handled above
        raise TruthTableError("isop: no support variable found")

    # All four cofactors inline, sharing one mask / inverse-mask pair:
    # cofactor0 duplicates the low half up, cofactor1 the high half down
    # (bit-identical to repro.tt.truth.cofactor0/cofactor1).
    inv = ~mask & ones
    l_lo = lower & inv
    l_hi = lower & mask
    u_lo = upper & inv
    u_hi = upper & mask
    l0 = l_lo | (l_lo << shift)
    l1 = l_hi | (l_hi >> shift)
    u0 = u_lo | (u_lo << shift)
    u1 = u_hi | (u_hi >> shift)

    # Minterms only realizable in the var=0 (resp. var=1) half.  The two
    # base cases (empty lower bound, full upper bound) are inlined at
    # each recursion site: most child subproblems are trivial, and
    # skipping the call halves the recursion count.  (Base results are
    # never memoized, so this is state-identical to calling through.)
    lo = l0 & ~u1
    if lo == 0:
        cubes0, cover0 = [], 0
    elif u0 == ones:
        cubes0, cover0 = [0], ones
    else:
        cubes0, cover0 = _isop(lo, u0, var, n_vars)
    lo = l1 & ~u0
    if lo == 0:
        cubes1, cover1 = [], 0
    elif u1 == ones:
        cubes1, cover1 = [0], ones
    else:
        cubes1, cover1 = _isop(lo, u1, var, n_vars)
    # What remains must be covered independently of var.
    lo = (l0 & ~cover0) | (l1 & ~cover1)
    if lo == 0:
        cubes_star, cover_star = [], 0
    else:
        u_star = u0 & u1
        if u_star == ones:
            cubes_star, cover_star = [0], ones
        else:
            cubes_star, cover_star = _isop(lo, u_star, var, n_vars)

    neg_bit = 1 << (2 * var + 1)  # lit_index(var, True), inlined
    pos_bit = 1 << (2 * var)
    cubes = (
        [c | neg_bit for c in cubes0]
        + [c | pos_bit for c in cubes1]
        + cubes_star
    )
    cover = (cover0 & inv) | (cover1 & mask) | cover_star
    if len(_MEMO) >= ISOP_MEMO_LIMIT:
        _MEMO.clear()
    _MEMO[key] = (cubes, cover)
    return cubes, cover
