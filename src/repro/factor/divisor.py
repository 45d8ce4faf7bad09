"""Algebraic division and divisor extraction for SOP factoring.

Implements the classic SIS machinery: weak (algebraic) division, the
quick divisor (one level-0 kernel), and full kernel enumeration.  Cubes
use the bitmask encoding of :mod:`repro.tt.sop`.
"""

from __future__ import annotations

from ..tt.sop import (
    sop_literal_frequencies,
    sop_make_cube_free,
)


def divide_by_literal(cubes: list[int], lit: int) -> tuple[list[int], list[int]]:
    """``(quotient, remainder)`` of division by a single literal index."""
    bit = 1 << lit
    quotient = [c & ~bit for c in cubes if c & bit]
    remainder = [c for c in cubes if not c & bit]
    return quotient, remainder


def divide_by_cube(cubes: list[int], cube: int) -> tuple[list[int], list[int]]:
    """``(quotient, remainder)`` of division by one cube."""
    quotient = [c & ~cube for c in cubes if c & cube == cube]
    remainder = [c for c in cubes if c & cube != cube]
    return quotient, remainder


def weak_div(cubes: list[int], divisor: list[int]) -> tuple[list[int], list[int]]:
    """Weak (algebraic) division ``F = Q * D + R``.

    ``Q`` is the largest cube set with ``Q x D`` contained in ``F`` (as an
    algebraic, non-redundant product); ``R`` collects the unused cubes.
    """
    if not divisor:
        return [], list(cubes)
    if len(divisor) == 1:
        return divide_by_cube(cubes, divisor[0])
    quotient_sets: list[set[int]] = []
    for d in divisor:
        quotient_sets.append({c & ~d for c in cubes if c & d == d})
    common = set.intersection(*quotient_sets)
    quotient = sorted(common)
    product = {q | d for q in quotient for d in divisor}
    remainder = [c for c in cubes if c not in product]
    return quotient, remainder


def most_frequent_literal(cubes: list[int], among: int = -1) -> tuple[int, int]:
    """``(literal index, count)`` of the literal occurring in the most
    cubes (ties: lowest index); ``(-1, 0)`` when no literal occurs.

    ``among`` restricts the choice to the literals of that cube (default:
    every literal).  The counts are bit-sliced: plane ``i`` holds bit
    ``i`` of every literal's count, one ripple-carry add per cube, and
    the maximum is read off the planes from the top down.
    """
    planes: list[int] = []
    for cube in cubes:
        carry = cube & among
        i = 0
        while carry:
            if i == len(planes):
                planes.append(carry)
                break
            plane = planes[i]
            planes[i] = plane ^ carry
            carry &= plane
            i += 1
    if not planes:
        return -1, 0
    # Every literal that occurs has some count bit set; keep, plane by
    # plane from the most significant, the candidates that have it.
    best = 0
    for plane in planes:
        best |= plane
    count = 0
    for i in range(len(planes) - 1, -1, -1):
        top = best & planes[i]
        if top:
            best = top
            count |= 1 << i
    return (best & -best).bit_length() - 1, count


def quick_divisor(cubes: list[int]) -> list[int] | None:
    """One level-0 kernel of the SOP, or None when none exists.

    Repeatedly divides by the most frequent literal (making the quotient
    cube-free) until no literal appears twice — the standard
    ``QUICK_DIVISOR`` of SIS.
    """
    if len(cubes) <= 1:
        return None
    # The first loop iteration sees ``kernel == cubes``, so the entry
    # check doubles as its frequency scan — one pass, not two.
    lit, count = most_frequent_literal(cubes)
    if count < 2:
        return None
    kernel = list(cubes)
    while count >= 2:
        kernel, _remainder = divide_by_literal(kernel, lit)
        _common, kernel = sop_make_cube_free(kernel)
        lit, count = most_frequent_literal(kernel)
    if not kernel or kernel == list(cubes):
        return None
    return kernel


def kernels(cubes: list[int], min_index: int = 0) -> list[tuple[list[int], int]]:
    """All kernels of the SOP with their co-kernels.

    Returns ``[(kernel, co_kernel_cube), ...]``; the SOP itself is included
    (with co-kernel 1) when it is cube-free.  Standard recursive KERNELS
    procedure; exponential in the worst case, so reserved for analysis and
    the good-factor variant on small SOPs.
    """
    _common, cube_free = sop_make_cube_free(list(cubes))
    results: list[tuple[list[int], int]] = []
    seen: set[tuple[int, ...]] = set()

    def recurse(sop: list[int], start_lit: int, co_kernel: int) -> None:
        key = tuple(sorted(sop))
        if key in seen:
            return
        seen.add(key)
        results.append((sop, co_kernel))
        freq = sop_literal_frequencies(sop)
        for lit in sorted(freq):
            if lit < start_lit or freq[lit] < 2:
                continue
            quotient, _r = divide_by_literal(sop, lit)
            common, quotient_free = sop_make_cube_free(quotient)
            new_co = co_kernel | (1 << lit) | common
            recurse(quotient_free, lit + 1, new_co)

    if cube_free:
        recurse(cube_free, 0, 0)
    return results
