"""Tests for GFACTOR (quick and good variants)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FactoringError
from repro.factor import factor, good_factor, verify_factoring
from repro.tt import cube_from_lits, isop_exact, lit_index, sop_literal_count, sop_tt


def cube(*pairs):
    return cube_from_lits([lit_index(v, neg) for v, neg in pairs])


def test_constants():
    assert factor([]).kind == "const0"
    assert factor([0]).kind == "const1"


def test_single_cube():
    t = factor([cube((0, False), (1, True))])
    assert t.n_literals() == 2
    assert verify_factoring([cube((0, False), (1, True))], t, 2)


def test_classic_common_literal():
    # ab + ac + ad -> a(b + c + d): 6 literals down to 4.
    F = [
        cube((0, False), (1, False)),
        cube((0, False), (2, False)),
        cube((0, False), (3, False)),
    ]
    t = factor(F)
    assert verify_factoring(F, t, 4)
    assert t.n_literals() == 4


def test_textbook_double_factor():
    # ac + ad + bc + bd -> (a + b)(c + d): 8 literals down to 4.
    F = [
        cube((0, False), (2, False)),
        cube((0, False), (3, False)),
        cube((1, False), (2, False)),
        cube((1, False), (3, False)),
    ]
    t = factor(F)
    assert verify_factoring(F, t, 4)
    assert t.n_literals() == 4


def test_factoring_with_remainder():
    # ac + ad + e -> a(c + d) + e
    F = [
        cube((0, False), (2, False)),
        cube((0, False), (3, False)),
        cube((4, False)),
    ]
    t = factor(F)
    assert verify_factoring(F, t, 5)
    assert t.n_literals() == 4


def test_mixed_phases():
    # a!b + ac -> a(!b + c)
    F = [cube((0, False), (1, True)), cube((0, False), (2, False))]
    t = factor(F)
    assert verify_factoring(F, t, 3)
    assert t.n_literals() == 3


def test_good_factor_never_worse():
    F = [
        cube((0, False), (2, False), (4, False)),
        cube((1, False), (2, False), (4, False)),
        cube((3, False), (4, False)),
        cube((5, False)),
    ]
    quick_tree = factor(F)
    good_tree = good_factor(F)
    assert verify_factoring(F, good_tree, 6)
    assert good_tree.n_literals() <= quick_tree.n_literals()


def test_validation():
    with pytest.raises(FactoringError):
        factor([cube((9, False))], n_vars=3)
    with pytest.raises(FactoringError):
        factor(F_OK, method="bogus")


F_OK = [cube((0, False))]


@settings(max_examples=250, deadline=None)
@given(st.integers(0, 2**16 - 1))
def test_factor_preserves_function_4vars(tt):
    cubes = isop_exact(tt, 4)
    tree = factor(cubes, n_vars=4)
    assert tree.eval_tt(4) == tt


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_factor_preserves_function_5vars(tt):
    cubes = isop_exact(tt, 5)
    tree = factor(cubes, n_vars=5)
    assert tree.eval_tt(5) == tt


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**16 - 1))
def test_factor_never_more_literals_than_flat(tt):
    cubes = isop_exact(tt, 4)
    tree = factor(cubes)
    assert tree.n_literals() <= sop_literal_count(cubes)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16 - 1))
def test_good_factor_preserves_function(tt):
    cubes = isop_exact(tt, 4)
    tree = good_factor(cubes, n_vars=4)
    assert tree.eval_tt(4) == sop_tt(cubes, 4)
