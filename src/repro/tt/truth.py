"""Truth-table operations on arbitrary-precision Python integers.

A truth table over ``n`` variables is an int whose bit ``i`` holds the
function value under the assignment encoded by ``i`` (variable 0 is the
least significant position).  This matches
:func:`repro.aig.simulate.cone_truth` and scales to the 10-16 leaf cuts
the refactor operator works on.

Every per-table operation keeps the scalar form: CPython big-int
bitwise ops beat numpy on single tables up to ~13 variables.  The one
numpy form is :func:`tt_to_bits` / :func:`bits_to_tt` (one uint8 per
minterm), which the vectorized :func:`expand_tt` gathers through.
"""

from __future__ import annotations

import numpy as np

from ..errors import TruthTableError
from ..aig.simulate import full_mask, var_mask


def cofactor0(tt: int, var: int, n_vars: int) -> int:
    """Negative cofactor: the function with ``var`` forced to 0."""
    mask = var_mask(var, n_vars)
    lo = tt & ~mask & full_mask(n_vars)
    return lo | (lo << (1 << var))


def cofactor1(tt: int, var: int, n_vars: int) -> int:
    """Positive cofactor: the function with ``var`` forced to 1."""
    mask = var_mask(var, n_vars)
    hi = tt & mask
    return hi | (hi >> (1 << var))


def depends_on(tt: int, var: int, n_vars: int) -> bool:
    """True when the function actually depends on ``var``."""
    return cofactor0(tt, var, n_vars) != cofactor1(tt, var, n_vars)


def tt_support(tt: int, n_vars: int) -> list[int]:
    """Variables the function depends on."""
    return [v for v in range(n_vars) if depends_on(tt, v, n_vars)]


def ones_count(tt: int, n_vars: int) -> int:
    """Number of satisfying assignments."""
    return (tt & full_mask(n_vars)).bit_count()


def is_const0(tt: int, n_vars: int) -> bool:
    return (tt & full_mask(n_vars)) == 0


def is_const1(tt: int, n_vars: int) -> bool:
    return (tt & full_mask(n_vars)) == full_mask(n_vars)


def tt_not(tt: int, n_vars: int) -> int:
    return ~tt & full_mask(n_vars)


def tt_to_hex(tt: int, n_vars: int) -> str:
    """Hex string of the table, most significant nibble first."""
    digits = max(1, (1 << n_vars) // 4)
    return format(tt & full_mask(n_vars), f"0{digits}x")


def tt_from_hex(text: str, n_vars: int) -> int:
    value = int(text, 16)
    if value > full_mask(n_vars):
        raise TruthTableError(f"hex table {text!r} too wide for {n_vars} vars")
    return value


def expand_tt(tt: int, var_map: list[int], n_from: int, n_to: int) -> int:
    """Re-express ``tt`` (over ``n_from`` vars) over ``n_to`` variables.

    ``var_map[i]`` names the variable in the target space that input ``i``
    of the source function maps to.  Used when stitching cut functions into
    larger windows (resubstitution).

    Large targets dispatch to a vectorized gather (one numpy pass over
    all ``2**n_to`` minterms); small ones keep the scalar loop, which
    wins under the numpy call overhead.  Both produce identical bits —
    see :func:`expand_tt_scalar` and the parity battery.
    """
    if n_to >= 7:
        if len(var_map) != n_from:
            raise TruthTableError("var_map length mismatch")
        minterms = np.arange(1 << n_to, dtype=np.uint32)
        src_index = np.zeros(1 << n_to, dtype=np.uint32)
        for i, target in enumerate(var_map):
            src_index |= ((minterms >> np.uint32(target)) & np.uint32(1)) << np.uint32(
                i
            )
        out_bits = tt_to_bits(tt, n_from)[src_index]
        return bits_to_tt(out_bits)
    return expand_tt_scalar(tt, var_map, n_from, n_to)


def expand_tt_scalar(tt: int, var_map: list[int], n_from: int, n_to: int) -> int:
    """Reference scalar implementation of :func:`expand_tt` (the parity
    oracle for the vectorized path)."""
    if len(var_map) != n_from:
        raise TruthTableError("var_map length mismatch")
    out = 0
    for minterm in range(1 << n_to):
        src_index = 0
        for i, target in enumerate(var_map):
            if minterm >> target & 1:
                src_index |= 1 << i
        if tt >> src_index & 1:
            out |= 1 << minterm
    return out


def tt_to_bits(tt: int, n_vars: int) -> np.ndarray:
    """One uint8 per minterm (bit ``i`` of the table at index ``i``)."""
    n_bits = 1 << n_vars
    raw = (tt & full_mask(n_vars)).to_bytes((n_bits + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[
        :n_bits
    ]


def bits_to_tt(bits: np.ndarray) -> int:
    """Inverse of :func:`tt_to_bits`."""
    return int.from_bytes(
        np.packbits(bits, bitorder="little").tobytes(), "little"
    )
