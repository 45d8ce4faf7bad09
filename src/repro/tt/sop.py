"""Sum-of-products (SOP) representation over cube bitmasks.

A *cube* over ``n`` variables is an int bitmask with two bits per
variable: bit ``2v`` set means the positive literal of variable ``v`` is
in the cube, bit ``2v + 1`` the negative literal.  The empty cube (0) is
the constant-true cube.  An SOP is a list of cubes (empty list = constant
false).

This encoding makes the algebraic operations used by factoring —
containment, common cube, weak division — single bitwise instructions.
"""

from __future__ import annotations

from functools import reduce

from ..errors import FactoringError
from ..aig.simulate import full_mask, var_mask


def lit_index(var: int, negative: bool) -> int:
    """Cube-bit index of a literal."""
    return 2 * var + int(negative)


def lit_var(index: int) -> int:
    return index >> 1


def lit_negative(index: int) -> bool:
    return bool(index & 1)


def cube_from_lits(lits: list[int]) -> int:
    """Cube containing exactly the given literal indices."""
    cube = 0
    for lit in lits:
        cube |= 1 << lit
    return cube


def cube_lits(cube: int) -> list[int]:
    """Literal indices present in ``cube`` (ascending)."""
    lits = []
    while cube:
        low = cube & -cube
        lits.append(low.bit_length() - 1)
        cube ^= low
    return lits


def cube_size(cube: int) -> int:
    """Number of literals in the cube."""
    return cube.bit_count()


def cube_is_contradictory(cube: int) -> bool:
    """True when some variable appears in both phases (empty intersection)."""
    positives = cube & 0x5555555555555555555555555555555555555555
    return bool((positives << 1) & cube)


def cube_tt(cube: int, n_vars: int) -> int:
    """Truth table of a cube."""
    tt = full_mask(n_vars)
    for lit in cube_lits(cube):
        mask = var_mask(lit_var(lit), n_vars)
        tt &= ~mask & full_mask(n_vars) if lit_negative(lit) else mask
    return tt


def sop_tt(cubes: list[int], n_vars: int) -> int:
    """Truth table of an SOP."""
    return reduce(lambda acc, cube: acc | cube_tt(cube, n_vars), cubes, 0)


def sop_literal_count(cubes: list[int]) -> int:
    """Total number of literals across all cubes."""
    return sum(cube_size(c) for c in cubes)


def sop_literal_frequencies(cubes: list[int]) -> dict[int, int]:
    """Occurrence count of every literal index present in the SOP."""
    freq: dict[int, int] = {}
    for cube in cubes:
        for lit in cube_lits(cube):
            freq[lit] = freq.get(lit, 0) + 1
    return freq


def sop_common_cube(cubes: list[int]) -> int:
    """Largest cube dividing every cube of the SOP (its common literals)."""
    if not cubes:
        return 0
    common = cubes[0]
    for cube in cubes:
        common &= cube
        if not common:
            break
    return common


def sop_is_cube_free(cubes: list[int]) -> bool:
    """True when no single literal appears in every cube."""
    return sop_common_cube(cubes) == 0


def sop_make_cube_free(cubes: list[int]) -> tuple[int, list[int]]:
    """Split the SOP into (common cube, cube-free remainder)."""
    common = sop_common_cube(cubes)
    if common == 0:
        return 0, list(cubes)
    return common, [c & ~common for c in cubes]


def sop_sort(cubes: list[int]) -> list[int]:
    """Canonical cube order (by size then value) for stable output."""
    return sorted(cubes, key=lambda c: (cube_size(c), c))


def sop_to_string(cubes: list[int], n_vars: int, names: list[str] | None = None) -> str:
    """Human-readable form, e.g. ``a!b + c``."""
    if names is None:
        names = [chr(ord("a") + v) if v < 26 else f"x{v}" for v in range(n_vars)]
    if not cubes:
        return "0"
    terms = []
    for cube in sop_sort(cubes):
        if cube == 0:
            terms.append("1")
            continue
        parts = []
        for lit in cube_lits(cube):
            prefix = "!" if lit_negative(lit) else ""
            parts.append(prefix + names[lit_var(lit)])
        terms.append("".join(parts))
    return " + ".join(terms)


def check_sop(cubes: list[int], n_vars: int) -> None:
    """Validate that cubes only mention declared variables, no contradictions."""
    limit = 1 << (2 * n_vars)
    for cube in cubes:
        if cube >= limit:
            raise FactoringError(f"cube {cube:#x} exceeds {n_vars} variables")
        if cube_is_contradictory(cube):
            raise FactoringError(f"cube {cube:#x} contains x & !x")
