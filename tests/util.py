"""Shared helpers for the test suite."""

from __future__ import annotations

import random

from repro.aig import AIG, cone_truth, full_mask, lit_node


def po_truth_tables(g: AIG) -> list[int]:
    """Exhaustive truth table (Python int) of every PO over the PIs.

    Only usable for small networks (#PIs <= 16).
    """
    pis = g.pis
    ones = full_mask(len(pis))
    tables = []
    for lit in g.pos:
        tt = cone_truth(g, lit_node(lit), pis)
        if lit & 1:
            tt ^= ones
        tables.append(tt)
    return tables


def random_aig(
    n_pis: int,
    n_ands: int,
    n_pos: int,
    seed: int = 0,
    name: str = "rand",
) -> AIG:
    """Random strashed AIG for tests (connected, no dangling logic)."""
    rng = random.Random(seed)
    g = AIG(name)
    lits = [g.add_pi() for _ in range(n_pis)]
    guard = 0
    while g.n_ands < n_ands and guard < 50 * n_ands:
        guard += 1
        a = rng.choice(lits) ^ rng.randint(0, 1)
        b = rng.choice(lits) ^ rng.randint(0, 1)
        lit = g.add_and(a, b)
        if lit > 1:
            lits.append(lit)
    # Drive POs with the least-referenced signals first so little is dangling.
    candidates = sorted(
        (lit for lit in lits if lit > 2 * n_pis),
        key=lambda lit: g.n_refs(lit_node(lit)),
    )
    chosen = candidates[:n_pos] if candidates else lits[:n_pos]
    while len(chosen) < n_pos:
        chosen.append(rng.choice(lits))
    for lit in chosen:
        g.add_po(lit ^ rng.randint(0, 1))
    from repro.aig import cleanup

    cleanup(g)
    return g


def shared_input_arith(width: int = 8, name: str = "arith-5k") -> AIG:
    """Four arithmetic datapaths side by side on one set of ``2 * width`` PIs.

    Hypotenuse, log2, divider and multiplier read the same inputs, so
    the result has over 5,000 ANDs at ``width=8`` while keeping 16 PIs
    (exact CEC by exhaustive simulation), and its outputs are not
    constant.
    """
    from repro.circuits.arith import divider, hypotenuse, log2_approx, multiplier

    parts = (
        hypotenuse(width),
        log2_approx(2 * width, 2 * width),
        divider(width),
        multiplier(width),
    )
    g = AIG(name)
    pis = [g.add_pi(f"x{i}") for i in range(2 * width)]
    for part in parts:
        lit_of = {0: 0}
        for pi, lit in zip(part.pis, pis):
            lit_of[pi] = lit

        def mapped(lit: int) -> int:
            return lit_of[lit_node(lit)] ^ (lit & 1)

        for node in part.and_ids():
            lit_of[node] = g.add_and(mapped(part.fanin0(node)), mapped(part.fanin1(node)))
        for index, lit in enumerate(part.pos):
            g.add_po(mapped(lit), f"{part.name}_{part.po_name(index)}")
    return g
