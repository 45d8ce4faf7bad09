"""Tests for Minato-Morreale ISOP extraction."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TruthTableError
from repro.tt import cube_tt, isop, isop_exact, sop_tt
from repro.tt.isop import _MEMO, clear_isop_memo, isop_memo_hits
from repro.aig import full_mask


def test_constants():
    assert isop_exact(0, 3) == []
    assert isop_exact(full_mask(3), 3) == [0]


def test_single_variable():
    n = 2
    cubes = isop_exact(0b1010, n)  # f = a
    assert len(cubes) == 1
    assert sop_tt(cubes, n) == 0b1010


def test_and_or_xor():
    n = 2
    assert len(isop_exact(0b1000, n)) == 1  # a & b: one cube
    assert len(isop_exact(0b1110, n)) == 2  # a + b: two single-literal cubes
    xor_cubes = isop_exact(0b0110, n)
    assert len(xor_cubes) == 2
    assert sop_tt(xor_cubes, n) == 0b0110


def test_majority():
    n = 3
    maj = 0b11101000  # maj(a,b,c)
    cubes = isop_exact(maj, n)
    assert sop_tt(cubes, n) == maj
    assert len(cubes) == 3  # ab + ac + bc


def test_dont_cares_shrink_cover():
    n = 2
    # onset {ab}, dc {a!b}: cover may pick the single-literal cube "a".
    cubes = isop(0b1000, 0b1010, n)
    tt = sop_tt(cubes, n)
    assert tt & 0b1000 == 0b1000  # covers onset
    assert tt & ~0b1010 == 0  # stays within upper bound
    assert len(cubes) == 1


def test_bad_interval_rejected():
    with pytest.raises(TruthTableError):
        isop(0b1111, 0b0111, 2)


@settings(max_examples=300)
@given(st.integers(0, 2**16 - 1))
def test_isop_exact_covers_exactly(tt):
    n = 4
    cubes = isop_exact(tt, n)
    assert sop_tt(cubes, n) == tt


@settings(max_examples=150)
@given(st.integers(0, 2**8 - 1), st.integers(0, 2**8 - 1))
def test_isop_interval_contract(onset, extra):
    n = 3
    upper = onset | extra
    cubes = isop(onset, upper, n)
    tt = sop_tt(cubes, n)
    assert tt & onset == onset
    assert tt & ~upper & full_mask(n) == 0


@settings(max_examples=100)
@given(st.integers(0, 2**16 - 1))
def test_isop_irredundant(tt):
    # Dropping any single cube must uncover part of the onset.
    n = 4
    cubes = isop_exact(tt, n)
    for i in range(len(cubes)):
        rest = cubes[:i] + cubes[i + 1 :]
        assert sop_tt(rest, n) != tt or cube_tt(cubes[i], n) & tt == 0


def _key_width(key: int) -> int:
    """Width ``w`` of a packed memo key ``upper << 2**w | lower`` (its bit
    length lies in ``(2**w, 2**(w+1)]``)."""
    return (key.bit_length() - 1).bit_length() - 1


def test_memo_is_shared_across_widths():
    # f depends on all four of its variables; g is f over eight
    # variables that ignores the top four.  The reduced core meets g's
    # subproblems at f's widths, so the second call only adds hits.
    f = 0x6996 ^ 0x0180
    g = f * (full_mask(8) // full_mask(4))
    clear_isop_memo()
    cubes = isop_exact(f, 4)
    entries = len(_MEMO)
    hits = isop_memo_hits()
    assert entries > 0
    assert isop_exact(g, 8) == cubes
    assert isop_memo_hits() > hits
    assert len(_MEMO) == entries
    assert sop_tt(cubes, 8) == g


def test_top_level_calls_store_no_entry():
    rng = random.Random(5)
    for n_vars in (3, 5, 7, 9):
        clear_isop_memo()
        ones = full_mask(n_vars)
        for _ in range(20):
            lower = rng.getrandbits(1 << n_vars) & ones
            isop_exact(lower, n_vars)
            isop(lower, lower | (rng.getrandbits(1 << n_vars) & ones), n_vars)
        assert _MEMO
        assert max(_key_width(key) for key in _MEMO) < n_vars


def test_memo_keys_are_reduced():
    # Every stored subproblem depends on its top variable: a key whose
    # bounds ignore it would have been stored one variable narrower.
    rng = random.Random(6)
    clear_isop_memo()
    for n_vars in (4, 6, 8):
        for _ in range(30):
            isop_exact(rng.getrandbits(1 << n_vars), n_vars)
    assert _MEMO
    for key in _MEMO:
        w = _key_width(key)
        size = 1 << w
        lower, upper = key & full_mask(w), key >> size
        half = size >> 1
        low = full_mask(w - 1)
        assert (lower & low, upper & low) != (lower >> half, upper >> half)


def test_table_wider_than_n_vars_rejected():
    with pytest.raises(TruthTableError):
        isop_exact(1 << 16, 4)
