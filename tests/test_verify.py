"""Tests for the SAT solver, CNF encoding and CEC."""

import pytest

from repro.aig import AIG, lit_not
from repro.errors import SatError
from repro.verify import Solver, counterexample, encode, equivalent

from .util import random_aig


class TestSolver:
    def test_trivial_sat(self):
        s = Solver()
        s.add_clause([1])
        assert s.solve()
        assert s.model()[1] is True

    def test_trivial_unsat(self):
        s = Solver()
        s.add_clause([1])
        s.add_clause([-1])
        assert not s.solve()

    def test_empty_clause_unsat(self):
        s = Solver()
        s.add_clause([])
        assert not s.solve()

    def test_tautology_ignored(self):
        s = Solver()
        s.add_clause([1, -1])
        s.add_clause([2])
        assert s.solve()

    def test_unit_propagation_chain(self):
        s = Solver()
        s.add_clause([1])
        s.add_clause([-1, 2])
        s.add_clause([-2, 3])
        s.add_clause([-3, -1, 4])
        assert s.solve()
        m = s.model()
        assert m[1] and m[2] and m[3] and m[4]

    def test_requires_search(self):
        # XOR chain: x1 ^ x2 ^ x3 = 1 (encoded clausally).
        s = Solver()
        s.add_clause([1, 2, 3])
        s.add_clause([1, -2, -3])
        s.add_clause([-1, 2, -3])
        s.add_clause([-1, -2, 3])
        assert s.solve()
        m = s.model()
        assert (m[1] ^ m[2] ^ m[3]) is True or (int(m[1]) + int(m[2]) + int(m[3])) % 2 == 1

    def test_pigeonhole_2_in_1_unsat(self):
        # Two pigeons, one hole.
        s = Solver()
        s.add_clause([1])  # pigeon 1 in hole
        s.add_clause([2])  # pigeon 2 in hole
        s.add_clause([-1, -2])  # not both
        assert not s.solve()

    def test_php_3_pigeons_2_holes(self):
        # var p_ij = pigeon i in hole j; i in 0..2, j in 0..1.
        def v(i, j):
            return 1 + i * 2 + j

        s = Solver()
        for i in range(3):
            s.add_clause([v(i, 0), v(i, 1)])
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    s.add_clause([-v(i1, j), -v(i2, j)])
        assert not s.solve()

    def test_assumptions(self):
        s = Solver()
        s.add_clause([-1, 2])
        assert s.solve(assumptions=[1])
        assert s.model()[2]
        s2 = Solver()
        s2.add_clause([-1, 2])
        s2.add_clause([-2])
        assert not s2.solve(assumptions=[1])

    def test_model_before_solve_raises(self):
        s = Solver()
        s.add_clause([1, 2])
        with pytest.raises(SatError):
            s.model()

    def test_zero_literal_rejected(self):
        s = Solver()
        with pytest.raises(SatError):
            s.add_clause([0])

    def test_random_instances_against_bruteforce(self):
        import itertools
        import random

        rng = random.Random(0)
        for _trial in range(25):
            n_vars = rng.randint(2, 6)
            clauses = []
            for _ in range(rng.randint(1, 12)):
                size = rng.randint(1, 3)
                clause = [
                    rng.choice([-1, 1]) * rng.randint(1, n_vars)
                    for _ in range(size)
                ]
                clauses.append(clause)
            brute_sat = any(
                all(
                    any(
                        (lit > 0) == bool(bits >> (abs(lit) - 1) & 1)
                        for lit in clause
                    )
                    for clause in clauses
                )
                for bits in range(1 << n_vars)
            )
            s = Solver()
            for clause in clauses:
                s.add_clause(clause)
            assert s.solve() == brute_sat, clauses


class TestCnfAndCec:
    def test_encode_and_gate(self):
        g = AIG()
        a, b = g.add_pi(), g.add_pi()
        x = g.add_and(a, b)
        g.add_po(x)
        s = Solver()
        m = encode(g, s)
        # Force output true: inputs must both be true.
        s.add_clause([m.dimacs(x)])
        assert s.solve()
        model = s.model()
        assert model[m.dimacs(a)] and model[m.dimacs(b)]

    def test_equivalent_identical(self):
        g = random_aig(6, 40, 4, seed=1)
        assert equivalent(g, g.clone())

    def test_equivalent_detects_difference(self):
        g = random_aig(6, 40, 4, seed=2)
        h = g.clone()
        h.set_po(0, lit_not(h.pos[0]))
        assert not equivalent(g, h)

    def test_equivalent_structurally_different(self):
        # (a & b) & c  vs  a & (b & c)
        g1 = AIG()
        a, b, c = g1.add_pi(), g1.add_pi(), g1.add_pi()
        g1.add_po(g1.add_and(g1.add_and(a, b), c))
        g2 = AIG()
        a, b, c = g2.add_pi(), g2.add_pi(), g2.add_pi()
        g2.add_po(g2.add_and(a, g2.add_and(b, c)))
        assert equivalent(g1, g2)
        assert equivalent(g1, g2, method="sat")

    def test_sat_method_on_larger(self):
        g = random_aig(14, 120, 5, seed=3)  # too many PIs for exhaustive
        assert equivalent(g, g.clone(), method="sat")
        h = g.clone()
        h.set_po(2, lit_not(h.pos[2]))
        assert not equivalent(g, h, method="sat")

    def test_counterexample(self):
        g1 = AIG()
        a, b = g1.add_pi(), g1.add_pi()
        g1.add_po(g1.add_and(a, b))
        g2 = AIG()
        a, b = g2.add_pi(), g2.add_pi()
        g2.add_po(g2.add_or(a, b))
        cex = counterexample(g1, g2)
        assert cex is not None
        # AND != OR exactly when inputs differ.
        assert cex[0] != cex[1]

    def test_counterexample_none_for_equivalent(self):
        g = random_aig(5, 25, 3, seed=4)
        assert counterexample(g, g.clone()) is None

    def test_mismatched_interfaces(self):
        g1 = random_aig(4, 10, 2, seed=0)
        g2 = random_aig(5, 10, 2, seed=0)
        assert not equivalent(g1, g2)
