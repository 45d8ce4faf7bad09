"""BENCH netlist format support (ISCAS-style).

Writes an AIG as a BENCH netlist of ``AND``/``NOT`` gates and reads the
common combinational gate vocabulary (AND/OR/NAND/NOR/NOT/BUF/XOR/XNOR,
with arbitrary arity), converting to AIG on the fly.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import reduce
from pathlib import Path

from ..errors import BenchFormatError
from .graph import AIG
from .literal import lit_not


def to_text(g: AIG) -> str:
    """Render ``g`` as BENCH netlist text.

    The rendering is a pure function of the graph structure (node ids,
    fanin literals, PO order), so two structurally identical networks
    produce byte-identical text — the serving layer relies on this to
    certify that streamed results match blocking per-circuit runs.
    """
    g = g.clone()
    lines = [f"# {g.name}"]
    for i in range(g.n_pis):
        lines.append(f"INPUT(n{g.pis[i] * 2})")
    for i in range(g.n_pos):
        lines.append(f"OUTPUT(po{i})")
    lines.append("n0 = gnd")
    emitted_inverters: set[int] = set()

    def lit_name(lit: int) -> str:
        if lit & 1:
            inv = f"n{lit}"
            if lit not in emitted_inverters:
                emitted_inverters.add(lit)
                lines.append(f"{inv} = NOT(n{lit & ~1})")
            return inv
        return f"n{lit}"

    for node in g.iter_ands():
        f0, f1 = g.fanin_lits(node)
        a, b = lit_name(f0), lit_name(f1)
        lines.append(f"n{node * 2} = AND({a}, {b})")
    for i, lit in enumerate(g.pos):
        lines.append(f"po{i} = BUF({lit_name(lit)})")
    return "\n".join(lines) + "\n"


def write(g: AIG, path: str | Path) -> None:
    """Write ``g`` as a BENCH netlist."""
    Path(path).write_text(to_text(g), encoding="ascii")


_GATES = {
    "AND": lambda g, lits: reduce(g.add_and, lits),
    "NAND": lambda g, lits: lit_not(reduce(g.add_and, lits)),
    "OR": lambda g, lits: reduce(g.add_or, lits),
    "NOR": lambda g, lits: lit_not(reduce(g.add_or, lits)),
    "XOR": lambda g, lits: reduce(g.add_xor, lits),
    "XNOR": lambda g, lits: lit_not(reduce(g.add_xor, lits)),
    "NOT": lambda g, lits: lit_not(lits[0]),
    "BUF": lambda g, lits: lits[0],
    "BUFF": lambda g, lits: lits[0],
}


def read(path: str | Path) -> AIG:
    """Read a BENCH netlist file into an AIG (named after the file stem)."""
    return from_text(Path(path).read_text(encoding="ascii"), name=Path(path).stem)


def code_lines(text: str) -> Iterator[tuple[str, str]]:
    """``(raw line, code)`` for every line of ``text`` that carries code.

    The parser's one rule for what it ignores: lines are split by
    :meth:`str.splitlines` (so ``\r`` ends a line, as ``\n`` does),
    everything from a line's first ``#`` is a comment, and surrounding
    whitespace and blank lines are dropped.  :func:`from_text` reads
    only the ``code`` strings, so two texts with equal code sequences
    parse to identical AIGs — the serving front's text memo
    (:func:`repro.serve.store.text_key`) keys on exactly this sequence.
    """
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield raw, line


def from_text(text: str, name: str = "aig") -> AIG:
    """Parse BENCH netlist text into an AIG.

    The inverse of :func:`to_text` (round trips are structurally
    identical), and the wire format the serving tier uses: requests
    ship circuits as BENCH text, shard worker processes parse them
    here, so no AIG object ever crosses a process boundary.
    """
    g = AIG(name)
    signals: dict[str, int] = {"gnd": 0, "vdd": 1}
    pending: list[tuple[str, str, list[str]]] = []
    outputs: list[str] = []
    for raw, line in code_lines(text):
        upper = line.upper()
        if upper.startswith("INPUT("):
            name = line[line.index("(") + 1 : line.rindex(")")].strip()
            signals[name] = g.add_pi(name)
        elif upper.startswith("OUTPUT("):
            outputs.append(line[line.index("(") + 1 : line.rindex(")")].strip())
        elif "=" in line:
            lhs, rhs = (part.strip() for part in line.split("=", 1))
            if "(" not in rhs:
                alias = rhs.strip()
                pending.append((lhs, "BUF", [alias]))
                continue
            gate = rhs[: rhs.index("(")].strip().upper()
            args = [
                a.strip()
                for a in rhs[rhs.index("(") + 1 : rhs.rindex(")")].split(",")
                if a.strip()
            ]
            if gate not in _GATES:
                raise BenchFormatError(f"unsupported gate {gate!r} in {raw!r}")
            pending.append((lhs, gate, args))
        else:
            raise BenchFormatError(f"cannot parse line: {raw!r}")
    # Gates may be listed out of order; iterate until fixpoint.
    remaining = pending
    while remaining:
        progressed = False
        deferred = []
        for lhs, gate, args in remaining:
            if all(a in signals for a in args):
                signals[lhs] = _GATES[gate](g, [signals[a] for a in args])
                progressed = True
            else:
                deferred.append((lhs, gate, args))
        if not progressed:
            missing = {a for _, _, args in deferred for a in args if a not in signals}
            raise BenchFormatError(f"undefined signals: {sorted(missing)[:5]}")
        remaining = deferred
    for name in outputs:
        if name not in signals:
            raise BenchFormatError(f"undefined output {name!r}")
        g.add_po(signals[name], name)
    return g
