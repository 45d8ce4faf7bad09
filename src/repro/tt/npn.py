"""NPN canonicalization of 4-variable functions.

Two functions are NPN-equivalent when one can be obtained from the other
by Negating inputs, Permuting inputs and/or Negating the output.  The
16-bit truth tables of 4-variable functions fall into 222 NPN classes —
the library the rewrite operator substitutes cuts from (Mishchenko et
al., DAC'06).

Canonical form: the minimum 16-bit table over all 2 x 24 x 16 = 768
transforms.  ``npn_canonize`` returns the canonical table plus the
transform that maps the canonical function back onto the input, so a
precomputed implementation of the class can be instantiated on concrete
cut leaves.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from ..errors import TruthTableError

N_VARS = 4
N_MINTERMS = 16
_FULL = (1 << N_MINTERMS) - 1

Transform = tuple[tuple[int, ...], int, bool]
"""(perm, input_flips, output_flip): see :func:`apply_transform`."""


def _permute_minterm(minterm: int, perm: tuple[int, ...]) -> int:
    out = 0
    for j, source in enumerate(perm):
        if minterm >> source & 1:
            out |= 1 << j
    return out


def _build_index_tables() -> dict[tuple[tuple[int, ...], int], list[int]]:
    tables = {}
    for perm in permutations(range(N_VARS)):
        for flips in range(N_MINTERMS):
            tables[(perm, flips)] = [
                _permute_minterm(m, perm) ^ flips for m in range(N_MINTERMS)
            ]
    return tables


_INDEX: dict[tuple[tuple[int, ...], int], list[int]] = _build_index_tables()
_ALL_PERMS: list[tuple[int, ...]] = list(permutations(range(N_VARS)))

# The same 384 index tables as one (384, 16) matrix, rows in the exact
# (perm-major, flips-minor) order the scalar loops iterate — the
# vectorized canonizer's argmin therefore lands on the same transform
# the scalar first-strict-minimum scan would pick.
_INDEX_MATRIX: np.ndarray = np.array(
    [_INDEX[(perm, flips)] for perm in _ALL_PERMS for flips in range(N_MINTERMS)],
    dtype=np.uint32,
)
_POW2: np.ndarray = (np.uint32(1) << np.arange(N_MINTERMS, dtype=np.uint32)).astype(
    np.uint32
)


def _transform_values(tt: int) -> np.ndarray:
    """All 384 permute+input-flip images of ``tt`` as a uint32 vector."""
    bits = (np.uint32(tt) >> _INDEX_MATRIX) & np.uint32(1)
    return bits @ _POW2


def apply_transform(tt: int, transform: Transform) -> int:
    """Transform ``tt``: ``G(v) = F(perm(v) ^ input_flips) ^ output_flip``.

    ``perm(v)`` places bit ``perm[j]`` of ``v`` at position ``j``.
    """
    perm, input_flips, output_flip = transform
    index = _INDEX[(perm, input_flips)]
    out = 0
    for v in range(N_MINTERMS):
        if tt >> index[v] & 1:
            out |= 1 << v
    return out ^ (_FULL if output_flip else 0)


def invert_transform(transform: Transform) -> Transform:
    """The transform undoing ``transform`` under :func:`apply_transform`."""
    perm, input_flips, output_flip = transform
    inverse_perm = [0] * N_VARS
    for j, source in enumerate(perm):
        inverse_perm[source] = j
    # G(v) = F(P(v)^flips)^o  =>  F(w) = G(P_inv(w))^o with the flip mask
    # carried through the inverse permutation (xor-before-permute equals
    # permute-then-xor with the permuted mask).
    inverse_flips = 0
    for j in range(N_VARS):
        if input_flips >> inverse_perm[j] & 1:
            inverse_flips |= 1 << j
    return (tuple(inverse_perm), inverse_flips, output_flip)


def npn_canonize(tt: int) -> tuple[int, Transform]:
    """Canonical table of ``tt`` and the transform with
    ``apply_transform(canonical, transform) == tt``.

    One numpy sweep over all 768 transforms: the 384 permute+flip images
    come from a gather against the precomputed index matrix, both output
    phases are laid out in the scalar scan's iteration order, and the
    first minimum (``argmin``) is the canonical pick.  Bit-identical to
    the scalar loop nest over the same transforms, which
    ``tests/test_kernel_parity.py`` keeps as its oracle.
    """
    if not 0 <= tt <= _FULL:
        raise TruthTableError("npn_canonize expects a 16-bit truth table")
    values = _transform_values(tt)
    # Interleave output_flip False/True per (perm, flips) row so the flat
    # index order matches the scalar loop nest exactly.
    both = np.empty((values.size, 2), dtype=np.uint32)
    both[:, 0] = values
    both[:, 1] = values ^ np.uint32(_FULL)
    flat = both.reshape(-1)
    pick = int(np.argmin(flat))  # first occurrence of the minimum
    best = int(flat[pick])
    row, output_flip = divmod(pick, 2)
    perm = _ALL_PERMS[row // N_MINTERMS]
    flips = row % N_MINTERMS
    return best, invert_transform((perm, flips, bool(output_flip)))


def npn_orbit(tt: int) -> set[int]:
    """All 16-bit tables NPN-equivalent to ``tt``."""
    values = _transform_values(tt)
    return set(values.tolist()) | set((values ^ np.uint32(_FULL)).tolist())


def enumerate_npn_classes() -> list[int]:
    """Canonical representatives of all 4-variable NPN classes (222 of them).

    Sweep all 65536 tables, expanding each unseen orbit once.
    """
    seen = bytearray(1 << N_MINTERMS)
    classes: list[int] = []
    for tt in range(1 << N_MINTERMS):
        if seen[tt]:
            continue
        orbit = npn_orbit(tt)
        representative = min(orbit)
        classes.append(representative)
        for member in orbit:
            seen[member] = 1
    return classes
