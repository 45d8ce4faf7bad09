"""Tests for algebraic division and kernel extraction."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.factor import (
    divide_by_cube,
    divide_by_literal,
    kernels,
    most_frequent_literal,
    quick_divisor,
    weak_div,
)
from repro.tt import (
    cube_from_lits,
    isop_exact,
    lit_index,
    sop_is_cube_free,
    sop_tt,
)


def cube(*pairs):
    return cube_from_lits([lit_index(v, neg) for v, neg in pairs])


# F = ab + ac + ad  (classic example)
F_CLASSIC = [
    cube((0, False), (1, False)),
    cube((0, False), (2, False)),
    cube((0, False), (3, False)),
]


def test_divide_by_literal():
    q, r = divide_by_literal(F_CLASSIC, lit_index(0, False))
    assert len(q) == 3 and not r
    assert q == [cube((1, False)), cube((2, False)), cube((3, False))]


def test_divide_by_cube():
    q, r = divide_by_cube(F_CLASSIC, cube((0, False), (1, False)))
    assert q == [0]  # quotient is the constant-one cube
    assert len(r) == 2


def test_weak_div_textbook():
    # F = ac + ad + bc + bd + e; D = a + b -> Q = c + d, R = e.
    F = [
        cube((0, False), (2, False)),
        cube((0, False), (3, False)),
        cube((1, False), (2, False)),
        cube((1, False), (3, False)),
        cube((4, False)),
    ]
    D = [cube((0, False)), cube((1, False))]
    Q, R = weak_div(F, D)
    assert sorted(Q) == sorted([cube((2, False)), cube((3, False))])
    assert R == [cube((4, False))]


def test_weak_div_algebraic_identity():
    """F == Q*D + R as truth tables (containment holds for weak division)."""
    n = 5
    F = [
        cube((0, False), (2, False)),
        cube((0, False), (3, False)),
        cube((1, False), (2, False)),
        cube((4, False)),
    ]
    D = [cube((0, False)), cube((1, False))]
    Q, R = weak_div(F, D)
    product = [q | d for q in Q for d in D]
    assert sop_tt(product + R, n) == sop_tt(F, n)


def test_weak_div_empty_divisor():
    Q, R = weak_div(F_CLASSIC, [])
    assert Q == [] and R == F_CLASSIC


def test_most_frequent_literal():
    lit, count = most_frequent_literal(F_CLASSIC)
    assert lit == lit_index(0, False)
    assert count == 3
    assert most_frequent_literal([]) == (-1, 0)


def _count_oracle(cubes, among=-1):
    """Dict-count reference: the literal of ``among`` occurring in the
    most cubes, ties to the lowest index; ``(-1, 0)`` when none occurs."""
    freq = {}
    for c in cubes:
        for lit in range(c.bit_length()):
            if c >> lit & 1 and among >> lit & 1:
                freq[lit] = freq.get(lit, 0) + 1
    best_lit, best_count = -1, 0
    for lit in sorted(freq):
        if freq[lit] > best_count:
            best_lit, best_count = lit, freq[lit]
    return best_lit, best_count


def test_literal_counts_match_dict_oracle_on_corners():
    a, na, b, c = (lit_index(0, False), lit_index(0, True),
                   lit_index(1, False), lit_index(2, False))
    ties = [cube((0, False)), cube((1, False)), cube((2, False), (0, True))]
    cases = [
        [],  # empty SOP
        [0],  # the constant-one cube
        [0, 0, 0],  # literal-free cubes only
        ties,  # a, b, c, !a once each: the lowest index wins
        [cube((2, False)), cube((1, False)), cube((2, False)), cube((1, False))],
        [1 << b, 1 << c] * 3 + [1 << a],  # equal counts above 1
        [1 << na, 0, 1 << na, 1 << a],
    ]
    for cubes in cases:
        assert most_frequent_literal(cubes) == _count_oracle(cubes)
        for among in (1 << a, 1 << c | 1 << b, 1 << na):
            assert most_frequent_literal(cubes, among) == _count_oracle(cubes, among)
    assert most_frequent_literal(ties) == (a, 1)
    assert most_frequent_literal(cases[4]) == (b, 2)
    # A cube none of whose literals occur selects nothing.
    assert most_frequent_literal(ties, cube((5, False), (6, True))) == (-1, 0)
    assert most_frequent_literal([0, 0], 1 << a) == (-1, 0)


def test_literal_counts_match_dict_oracle_on_random_sops():
    rng = random.Random(9)
    for _ in range(3000):
        n_lits = rng.randint(1, 20)
        cubes = [rng.getrandbits(n_lits) & rng.getrandbits(n_lits)
                 for _ in range(rng.randint(0, 40))]
        assert most_frequent_literal(cubes) == _count_oracle(cubes)
        among = rng.getrandbits(n_lits)
        assert most_frequent_literal(cubes, among) == _count_oracle(cubes, among)


def test_quick_divisor_classic():
    d = quick_divisor(F_CLASSIC)
    assert d is not None
    assert sop_is_cube_free(d)
    assert sorted(d) == sorted(
        [cube((1, False)), cube((2, False)), cube((3, False))]
    )


def test_quick_divisor_none_cases():
    assert quick_divisor([cube((0, False))]) is None  # single cube
    # No literal appears twice.
    assert quick_divisor([cube((0, False)), cube((1, False))]) is None


def test_kernels_textbook():
    # F = ace + bce + de + g  (De Micheli's running example)
    F = [
        cube((0, False), (2, False), (4, False)),
        cube((1, False), (2, False), (4, False)),
        cube((3, False), (4, False)),
        cube((6, False)),
    ]
    ks = kernels(F)
    kernel_sets = [tuple(sorted(k)) for k, _ in ks]
    # a + b is a kernel (co-kernel ce)
    ab = tuple(sorted([cube((0, False)), cube((1, False))]))
    assert ab in kernel_sets
    # ac + bc + d is a kernel (co-kernel e)
    acbcd = tuple(
        sorted(
            [
                cube((0, False), (2, False)),
                cube((1, False), (2, False)),
                cube((3, False)),
            ]
        )
    )
    assert acbcd in kernel_sets
    # every kernel is cube-free
    for k, _co in ks:
        assert sop_is_cube_free(k)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2**16 - 1))
def test_quick_divisor_on_isop_covers(tt):
    """quick_divisor output is always cube-free and divides the SOP."""
    cubes = isop_exact(tt, 4)
    d = quick_divisor(cubes)
    if d is None:
        return
    assert sop_is_cube_free(d)
    Q, R = weak_div(cubes, d)
    assert Q, "divisor must divide the SOP non-trivially"
    product = [q | dd for q in Q for dd in d]
    assert sop_tt(product + R, 4) == sop_tt(cubes, 4)
