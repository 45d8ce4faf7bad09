"""The benchmark's inputs: one flow suite and one serve pool per workload.

Every workload runs the same measurements — set-up, the four timed
commands, and a closed-loop stream against ``python -m repro serve`` —
over one circuit family, so that every end-to-end metric is measured
on every workload:

* ``arith``: deep, XOR-rich datapaths whose cut functions repeat, so the
  resynthesis kernels dominate ``rf`` and rewriting dominates
  ``resyn2``.  At <=16 PIs every output gets exhaustive CEC.
* ``industrial``: shallow, wide, control-dominated logic where refactor
  rarely commits, so a kernel change that helps datapaths but hurts
  control logic shows here.

The inputs do not depend on the seed: the ``*_ands`` counts must repeat
exactly.  The seed orders the timed commands and the served requests,
and seeds the industrial simulation screen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.aig.io_bench import to_text
from repro.circuits import arith
from repro.circuits.industrial import industrial_design, industrial_suite

COMMANDS = ("rf", "elf", "resyn2", "pf")

INDUSTRIAL_SIZE_FACTOR = 0.05
HIT_COPIES = 2  # resubmissions per pool circuit


def arith_suite() -> dict:
    """The six EPFL-like generators at widths with <=16 PIs (2,575 ANDs)."""
    circuits = [
        arith.divider(5),
        arith.hypotenuse(5),
        arith.log2_approx(10),
        arith.multiplier(6),
        arith.isqrt(6),
        arith.square(8),
    ]
    return {g.name: g for g in circuits}


def _arith_pool() -> list:
    gens = [
        (arith.adder, range(2, 33)),
        (arith.alu, range(2, 17)),
        (arith.mac, range(2, 9)),
        (arith.multiplier, range(2, 9)),
        (arith.divider, range(2, 9)),
        (arith.hypotenuse, range(2, 9)),
        (arith.isqrt, range(2, 17)),
        (arith.square, range(2, 17)),
        (arith.log2_approx, range(6, 17)),
    ]
    return [(f"{fn.__name__}{w}", fn(w)) for fn, widths in gens for w in widths]


def _industrial_pool() -> list:
    factors = (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.1, 0.11)
    # Two designs whose request lines exceed the service's 64 KiB line
    # limit, so the pool measures dropped requests as arith's does.
    oversize = ((3, 0.3), (6, 0.3))
    return [
        (f"design_{i}@{sf}", industrial_design(i, sf))
        for sf in factors
        for i in range(1, 11)
    ] + [(f"design_{i}@{sf}", industrial_design(i, sf)) for i, sf in oversize]


def _warmup_circuits() -> list:
    """Served before the timed stream; none is structurally in either pool."""
    return [("warm_adder40", arith.adder(40)), ("warm_alu28", arith.alu(28))]


@dataclass(frozen=True)
class Request:
    """One served request: ``circuit`` indexes the pool; ``copy`` > 0
    marks a structurally equal copy sent under a new name (a store hit)."""

    circuit: int
    copy: int
    name: str
    bench: str


@dataclass
class Workload:
    name: str
    suite: dict
    pool: list  # (name, AIG), structurally distinct
    warmup: list  # (name, bench text)
    check: str  # "exact" (exhaustive CEC) or "sim" (random-simulation screen)


def flow_suite(name: str) -> dict:
    """The circuits the four timed commands run over."""
    if name == "arith":
        suite = arith_suite()
        if max(g.n_pis for g in suite.values()) > 16:
            raise ValueError("arith suite must stay within exhaustive-CEC reach")
        return suite
    if name == "industrial":
        return industrial_suite(INDUSTRIAL_SIZE_FACTOR)
    raise ValueError(f"unknown workload {name!r}")


def build(name: str) -> Workload:
    """Generate one workload's inputs (independent of the seed)."""
    suite = flow_suite(name)
    if name == "arith":
        raw_pool, check = _arith_pool(), "exact"
    else:
        raw_pool, check = _industrial_pool(), "sim"
    seen: set[str] = set()
    pool = []
    for pool_name, g in raw_pool:
        digest = g.structural_digest()
        if digest not in seen and g.n_ands > 0:
            seen.add(digest)
            pool.append((pool_name, g))
    warmup = [(n, to_text(g)) for n, g in _warmup_circuits()]
    return Workload(name, suite, pool, warmup, check)


def request_stream(pool: list, seed: int) -> list[Request]:
    """Seeded closed-loop request order over ``pool``.

    Every circuit is sent cold once (a store miss) and ``HIT_COPIES``
    more times, renamed — the text differs but the structure does not —
    at seeded positions at least two places after the original (store
    hits).
    """
    rng = random.Random(seed)
    order = list(range(len(pool)))
    rng.shuffle(order)
    stream: list[tuple[int, int]] = [(i, 0) for i in order]
    for index in order:
        for copy in range(1, HIT_COPIES + 1):
            lo = min(stream.index((index, 0)) + 2, len(stream))
            stream.insert(rng.randint(lo, len(stream)), (index, copy))
    texts = [to_text(g) for _name, g in pool]
    requests = []
    for index, copy in stream:
        name, g = pool[index]
        request_name = f"{name}~{copy}" if copy else name
        text = texts[index]
        if copy:
            text = text.replace(f"# {g.name}\n", f"# {request_name}\n", 1)
        requests.append(Request(index, copy, request_name, text))
    return requests
