"""Combinational equivalence checking (CEC).

Strategy ladder:

1. exhaustive truth tables when the support is small (exact);
2. random bit-parallel simulation (fast falsification);
3. SAT on the miter (exact, via the built-in DPLL solver).

The test suite leans on this to prove that every optimization operator
preserves network functionality.
"""

from __future__ import annotations

import numpy as np

from ..aig.graph import AIG
from ..aig.literal import lit_node
from ..aig.simulate import cone_truth, full_mask, simulate
from ..errors import ReproError
from .cnf import CnfMapping, encode
from .sat import Solver

EXHAUSTIVE_PI_LIMIT = 12
EXHAUSTIVE_SIM_PI_LIMIT = 20
"""Up to here, *all* input patterns fit in a bit-parallel simulation
(2^20 patterns = 16 K uint64 words per signal), which is exact like the
truth-table path but runs as two vectorized network sweeps — the miter
SAT fallback is only needed beyond this."""


def po_truth_tables(g: AIG) -> list[int]:
    """Exhaustive truth table of every PO (requires few PIs)."""
    if g.n_pis > 16:
        raise ReproError(f"{g.n_pis} PIs is too many for exhaustive tables")
    pis = g.pis
    ones = full_mask(len(pis))
    tables = []
    for lit in g.pos:
        tt = cone_truth(g, lit_node(lit), pis)
        tables.append(tt ^ ones if lit & 1 else tt)
    return tables


def equivalent(
    g1: AIG,
    g2: AIG,
    method: str = "auto",
    n_random_words: int = 16,
    seed: int = 0,
) -> bool:
    """Decide whether the two networks compute the same functions.

    ``method``: ``"auto"`` (exhaustive tables if small, exhaustive
    simulation up to ``EXHAUSTIVE_SIM_PI_LIMIT`` PIs, else simulation
    screen + SAT), ``"exhaustive"``, ``"exhaustive-sim"``, ``"sim"``
    (probabilistic!), or ``"sat"``.
    """
    if g1.n_pis != g2.n_pis or g1.n_pos != g2.n_pos:
        return False
    if method == "exhaustive" or (method == "auto" and g1.n_pis <= EXHAUSTIVE_PI_LIMIT):
        return po_truth_tables(g1) == po_truth_tables(g2)
    if method == "exhaustive-sim" or (
        method == "auto"
        and g1.n_pis <= EXHAUSTIVE_SIM_PI_LIMIT
        and _exhaustive_sim_words(g1, g2) <= _EXHAUSTIVE_SIM_WORD_BUDGET
    ):
        if g1.n_pis > EXHAUSTIVE_SIM_PI_LIMIT:
            raise ReproError(
                f"{g1.n_pis} PIs is too many for exhaustive simulation"
            )
        patterns = exhaustive_pi_patterns(g1.n_pis)
        return np.array_equal(simulate(g1, patterns), simulate(g2, patterns))
    if not _sim_equal(g1, g2, n_random_words, seed):
        return False
    if method == "sim":
        return True
    return _sat_equal(g1, g2)


_EXHAUSTIVE_SIM_WORD_BUDGET = 1 << 25
"""Auto mode only picks exhaustive simulation when the per-node value
matrix stays within this many uint64 words (256 MiB), falling back to
the simulation screen + SAT ladder for bigger cases."""


def _exhaustive_sim_words(g1: AIG, g2: AIG) -> int:
    n_words = max(1, (1 << g1.n_pis) >> 6)
    return max(g1.n_nodes, g2.n_nodes) * n_words


def exhaustive_pi_patterns(n_pis: int) -> np.ndarray:
    """All ``2^n_pis`` input assignments as ``(n_pis, words)`` uint64 rows.

    Bit ``b`` of word ``w`` of row ``v`` is the value of PI ``v`` under
    assignment ``64 * w + b`` — the same variable order truth tables use.
    For fewer than 7 PIs the single word repeats the 2^n patterns, which
    is harmless for equivalence checks (both networks see duplicates).
    """
    if n_pis > EXHAUSTIVE_SIM_PI_LIMIT:
        raise ReproError(f"{n_pis} PIs is too many for exhaustive patterns")
    n_words = max(1, (1 << n_pis) >> 6)
    ones = np.uint64(0xFFFFFFFFFFFFFFFF)
    patterns = np.empty((n_pis, n_words), dtype=np.uint64)
    word_index = np.arange(n_words, dtype=np.uint64)
    for var in range(n_pis):
        if var < 6:
            # Alternating runs of 2^var zeros and ones inside each word.
            word = 0
            run = 1 << var
            for offset in range(0, 64, 2 * run):
                word |= ((1 << run) - 1) << (offset + run)
            patterns[var, :] = np.uint64(word)
        else:
            # Assignment index bit ``var`` selects whole words.
            bit = np.uint64(1) << np.uint64(var - 6)
            patterns[var] = np.where(word_index & bit != 0, ones, np.uint64(0))
    return patterns


def counterexample(g1: AIG, g2: AIG) -> dict[int, bool] | None:
    """PI assignment distinguishing the two networks, or None if equivalent.

    Keys are PI indices (position in ``g.pis``).
    """
    solver, m1, _m2, outputs = _build_miter_cnf(g1, g2)
    solver.add_clause(outputs)
    if not solver.solve():
        return None
    model = solver.model()
    return {
        i: model.get(m1.var_of[pi], False) for i, pi in enumerate(g1.pis)
    }


def _sim_equal(g1: AIG, g2: AIG, n_words: int, seed: int) -> bool:
    rng = np.random.default_rng(seed)
    pi_values = rng.integers(0, 2**64, size=(g1.n_pis, n_words), dtype=np.uint64)
    return np.array_equal(simulate(g1, pi_values), simulate(g2, pi_values))


def _sat_equal(g1: AIG, g2: AIG) -> bool:
    solver, _m1, _m2, outputs = _build_miter_cnf(g1, g2)
    # Any PO pair differing -> SAT. One clause over all XOR outputs.
    solver.add_clause(outputs)
    return not solver.solve()


def _build_miter_cnf(
    g1: AIG, g2: AIG
) -> tuple[Solver, CnfMapping, CnfMapping, list[int]]:
    solver = Solver()
    m1 = encode(g1, solver)
    m2 = encode(g2, solver, CnfMapping(g2, offset=m1.n_vars))
    # Tie the PIs together.
    for pi1, pi2 in zip(g1.pis, g2.pis):
        v1, v2 = m1.var_of[pi1], m2.var_of[pi2]
        solver.add_clause([-v1, v2])
        solver.add_clause([v1, -v2])
    # XOR variable per PO pair.
    outputs = []
    next_var = m1.n_vars + m2.n_vars
    for lit1, lit2 in zip(g1.pos, g2.pos):
        a, b = m1.dimacs(lit1), m2.dimacs(lit2)
        next_var += 1
        x = next_var
        solver.add_clause([-x, a, b])
        solver.add_clause([-x, -a, -b])
        solver.add_clause([x, -a, b])
        solver.add_clause([x, a, -b])
        outputs.append(x)
    return solver, m1, m2, outputs
