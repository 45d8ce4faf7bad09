"""Algebraic factoring of SOPs into factored-form trees.

``factor`` implements the classic GFACTOR scheme (SIS / De Micheli
Alg. 8.3.1) with the quick divisor: find a level-0 kernel D, divide
F = Q*D + R, recurse.  ``good_factor`` swaps in the best kernel by
literal savings.  The result is always checked cheaper-or-equal to the
flat SOP form, falling back to the flat form otherwise (ABC's
``Dec_Factor`` has the same guarantee).

The recursion is memoized process-wide: a subtree is a pure function of
its cube list and the divisor method, and refactor re-factors the same
sub-SOPs across the cut functions of one circuit.  Trees are immutable,
so sharing a memoized one is invisible except in time.  The memo is
cleared when it reaches :data:`FACTOR_MEMO_LIMIT` entries, as the ISOP
memo is, and lives as long as the process.

Unlike the ISOP memo, this one also stores the top-level tree of every
``factor`` call.  A served request runs with a fresh per-run
resynthesis cache, so across a shard's requests this memo is what
answers a repeated cut function, and a top-level factoring (a divisor
search before any memoized child) costs far more than a top-level ISOP
split over memoized halves: serving the elfbench arith pool through
``b; rf`` in one process spends about twice as long in ``factor``
without the top-level entries (``make bench-memo`` sizes the memo).
"""

from __future__ import annotations

from ..errors import FactoringError
from ..tt.sop import (
    check_sop,
    cube_lits,
    sop_make_cube_free,
    sop_tt,
)
from .divisor import (
    divide_by_literal,
    kernels,
    most_frequent_literal,
    quick_divisor,
    weak_div,
)
from .tree import _CUBE_CACHE, FactorTree

FACTOR_MEMO_LIMIT = 1 << 16
"""Entry cap of the process-wide factoring memo (cleared, not LRU)."""

_MEMO: dict[tuple[tuple[int, ...], object], FactorTree] = {}


def clear_factor_memo() -> None:
    """Reset the process-wide factoring memo and the factor-tree cube
    cache (:mod:`repro.factor.tree`).

    Results never depend on either; this exists so benchmarks can time
    every mode from a cold start.
    """
    _MEMO.clear()
    _CUBE_CACHE.clear()


def factor(cubes: list[int], n_vars: int | None = None, method: str = "quick") -> FactorTree:
    """Factor an SOP into a :class:`FactorTree`.

    ``method`` is ``"quick"`` (level-0 kernel divisor, the refactor
    default) or ``"good"`` (best kernel by literal savings).  ``n_vars``
    enables input validation when provided.
    """
    if n_vars is not None:
        check_sop(cubes, n_vars)
    if method == "quick":
        divisor_fn = quick_divisor
    elif method == "good":
        divisor_fn = _best_kernel
    else:
        raise FactoringError(f"unknown factoring method {method!r}")
    if not cubes:
        return FactorTree.const0()
    if cubes == [0]:
        return FactorTree.const1()
    tree = _gfactor(cubes, divisor_fn)
    # The flat SOP tree has exactly one literal per cube literal; only
    # materialize it when it actually wins (it rarely does).
    flat_cost = sum(c.bit_count() for c in cubes)
    return tree if tree.n_literals() <= flat_cost else FactorTree.from_sop(cubes)


def _gfactor(cubes: list[int], divisor_fn) -> FactorTree:
    if len(cubes) == 1:
        return FactorTree.from_cube(cubes[0])
    key = (tuple(cubes), divisor_fn)  # the divisor function is the method
    tree = _MEMO.get(key)
    if tree is None:
        tree = _gfactor_split(cubes, divisor_fn)
        if len(_MEMO) >= FACTOR_MEMO_LIMIT:
            _MEMO.clear()
        _MEMO[key] = tree
    return tree


def _gfactor_split(cubes: list[int], divisor_fn) -> FactorTree:
    # Pull out the largest common cube first: F = C * F'.
    common, cube_free = sop_make_cube_free(cubes)
    if common:
        inner = _gfactor(cube_free, divisor_fn) if cube_free else FactorTree.const1()
        return FactorTree.and_([FactorTree.from_cube(common), inner])
    divisor = divisor_fn(cubes)
    if divisor is None:
        return FactorTree.from_sop(cubes)
    quotient, _remainder = weak_div(cubes, divisor)
    if not quotient:
        return FactorTree.from_sop(cubes)
    if len(quotient) == 1:
        return _literal_factor(cubes, quotient[0], divisor_fn)
    _q_common, quotient_free = sop_make_cube_free(quotient)
    if not quotient_free:
        return FactorTree.from_sop(cubes)
    # Re-divide by the cube-free quotient.
    new_divisor, remainder = weak_div(cubes, quotient_free)
    if not new_divisor:
        return FactorTree.from_sop(cubes)
    d_common, _d_free = sop_make_cube_free(new_divisor)
    if d_common == 0:
        q_tree = _gfactor(quotient_free, divisor_fn)
        d_tree = _gfactor(new_divisor, divisor_fn)
        product = FactorTree.and_([d_tree, q_tree])
        if not remainder:
            return product
        r_tree = _gfactor(remainder, divisor_fn)
        return FactorTree.or_([product, r_tree])
    return _literal_factor(cubes, d_common, divisor_fn)


def _literal_factor(cubes: list[int], cube: int, divisor_fn) -> FactorTree:
    """LF: factor out the best single literal of ``cube``."""
    lit = most_frequent_literal(cubes, cube or -1)[0]
    if lit < 0:
        return FactorTree.from_sop(cubes)
    quotient, remainder = divide_by_literal(cubes, lit)
    lit_tree = FactorTree.lit(lit >> 1, bool(lit & 1))
    q_tree = (
        _gfactor(quotient, divisor_fn) if quotient else FactorTree.const1()
    )
    product = FactorTree.and_([lit_tree, q_tree])
    if not remainder:
        return product
    r_tree = _gfactor(remainder, divisor_fn)
    return FactorTree.or_([product, r_tree])


def _best_kernel(cubes: list[int]) -> list[int] | None:
    """Divisor choice for ``good_factor``: kernel maximizing literal savings."""
    if len(cubes) <= 1:
        return None
    _lit, count = most_frequent_literal(cubes)
    if count < 2:
        return None
    best, best_score = None, -1
    for kernel, _co in kernels(cubes):
        if len(kernel) < 2 or kernel == sorted(cubes):
            continue
        quotient, remainder = weak_div(cubes, kernel)
        if not quotient:
            continue
        original = sum(len(cube_lits(c)) for c in cubes)
        new_cost = (
            sum(len(cube_lits(c)) for c in kernel)
            + sum(len(cube_lits(c)) for c in quotient)
            + sum(len(cube_lits(c)) for c in remainder)
        )
        score = original - new_cost
        if score > best_score:
            best, best_score = kernel, score
    if best is None:
        return quick_divisor(cubes)
    return best


def good_factor(cubes: list[int], n_vars: int | None = None) -> FactorTree:
    """Convenience wrapper for the kernel-searching variant."""
    return factor(cubes, n_vars, method="good")


def factored_literal_count(cubes: list[int]) -> int:
    """Literal count of the quick-factored form (a common cost metric)."""
    return factor(cubes).n_literals()


def verify_factoring(cubes: list[int], tree: FactorTree, n_vars: int) -> bool:
    """True when ``tree`` computes exactly the SOP's function."""
    return tree.eval_tt(n_vars) == sop_tt(cubes, n_vars)
