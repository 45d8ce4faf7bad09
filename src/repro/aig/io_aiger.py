"""AIGER format reader/writer (ASCII ``aag`` and binary ``aig``).

Implements the AIGER 1.9 combinational subset: header, inputs, outputs,
AND gates, symbol table and comments.  Latches are rejected (the library
is combinational-only, as is the paper's setting).
"""

from __future__ import annotations

import io
from pathlib import Path

from ..errors import AigerFormatError
from .graph import AIG


def write_ascii(g: AIG, path: str | Path) -> None:
    """Write ``g`` as ASCII AIGER (``aag``)."""
    g = g.clone()  # compact ids so the header M equals I + A
    with open(path, "w", encoding="ascii") as f:
        n_ands = g.n_ands
        max_var = g.n_pis + n_ands
        f.write(f"aag {max_var} {g.n_pis} 0 {g.n_pos} {n_ands}\n")
        for pi in g.pis:
            f.write(f"{pi * 2}\n")
        for lit in g.pos:
            f.write(f"{lit}\n")
        for node in g.iter_ands():
            f0, f1 = g.fanin_lits(node)
            f.write(f"{node * 2} {max(f0, f1)} {min(f0, f1)}\n")
        for i in range(g.n_pis):
            f.write(f"i{i} {g.pi_name(i)}\n")
        for i in range(g.n_pos):
            f.write(f"o{i} {g.po_name(i)}\n")
        f.write(f"c\n{g.name}\n")


def _encode_delta(out: io.BytesIO, delta: int) -> None:
    while delta >= 0x80:
        out.write(bytes([(delta & 0x7F) | 0x80]))
        delta >>= 7
    out.write(bytes([delta]))


def _decode_delta(buf: bytes, pos: int) -> tuple[int, int]:
    value, shift = 0, 0
    while True:
        if pos >= len(buf):
            raise AigerFormatError("truncated delta encoding")
        byte = buf[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def write_binary(g: AIG, path: str | Path) -> None:
    """Write ``g`` as binary AIGER (``aig``)."""
    g = g.clone()
    n_ands = g.n_ands
    max_var = g.n_pis + n_ands
    body = io.BytesIO()
    body.write(f"aig {max_var} {g.n_pis} 0 {g.n_pos} {n_ands}\n".encode("ascii"))
    for lit in g.pos:
        body.write(f"{lit}\n".encode("ascii"))
    for node in g.iter_ands():
        f0, f1 = g.fanin_lits(node)
        lhs = node * 2
        rhs0, rhs1 = max(f0, f1), min(f0, f1)
        if not lhs > rhs0 >= rhs1:
            raise AigerFormatError(f"node {node} violates binary AIGER ordering")
        _encode_delta(body, lhs - rhs0)
        _encode_delta(body, rhs0 - rhs1)
    for i in range(g.n_pos):
        body.write(f"o{i} {g.po_name(i)}\n".encode("ascii"))
    body.write(f"c\n{g.name}\n".encode("ascii"))
    Path(path).write_bytes(body.getvalue())


def read(path: str | Path) -> AIG:
    """Read an AIGER file, auto-detecting ASCII vs binary."""
    data = Path(path).read_bytes()
    if data.startswith(b"aag "):
        return _read_ascii(data.decode("ascii"), str(path))
    if data.startswith(b"aig "):
        return _read_binary(data, str(path))
    raise AigerFormatError(f"{path}: not an AIGER file")


def _parse_header(line: str) -> tuple[int, int, int, int, int]:
    parts = line.split()
    if len(parts) < 6:
        raise AigerFormatError(f"bad header: {line!r}")
    m, i, l, o, a = (int(x) for x in parts[1:6])
    if l != 0:
        raise AigerFormatError("latches are not supported (combinational only)")
    if m < i + a:
        raise AigerFormatError(f"header M={m} < I+A={i + a}")
    return m, i, l, o, a


def _read_ascii(text: str, name: str) -> AIG:
    lines = text.splitlines()
    if not lines:
        raise AigerFormatError("empty file")
    _m, n_in, _l, n_out, n_and = _parse_header(lines[0])
    g = AIG(name)
    lit_map: dict[int, int] = {0: 0}
    cursor = 1
    for _ in range(n_in):
        lit = int(lines[cursor].split()[0])
        lit_map[lit] = g.add_pi()
        cursor += 1
    po_lits = [int(lines[cursor + k].split()[0]) for k in range(n_out)]
    cursor += n_out
    for _ in range(n_and):
        lhs, rhs0, rhs1 = (int(x) for x in lines[cursor].split()[:3])
        lit_map[lhs] = g.add_and(_map_lit(lit_map, rhs0), _map_lit(lit_map, rhs1))
        cursor += 1
    for k, lit in enumerate(po_lits):
        g.add_po(_map_lit(lit_map, lit), f"po{k}")
    _read_symbols(g, lines[cursor:])
    return g


def _read_binary(data: bytes, name: str) -> AIG:
    newline = data.index(b"\n")
    header = data[:newline].decode("ascii")
    _m, n_in, _l, n_out, n_and = _parse_header(header)
    g = AIG(name)
    lit_map: dict[int, int] = {0: 0}
    for k in range(n_in):
        lit_map[2 * (k + 1)] = g.add_pi()
    pos = newline + 1
    po_lits = []
    for _ in range(n_out):
        end = data.index(b"\n", pos)
        po_lits.append(int(data[pos:end]))
        pos = end + 1
    for k in range(n_and):
        lhs = 2 * (n_in + k + 1)
        delta0, pos = _decode_delta(data, pos)
        delta1, pos = _decode_delta(data, pos)
        rhs0 = lhs - delta0
        rhs1 = rhs0 - delta1
        if rhs0 < 0 or rhs1 < 0:
            raise AigerFormatError(f"gate {lhs}: negative fanin literal")
        lit_map[lhs] = g.add_and(_map_lit(lit_map, rhs0), _map_lit(lit_map, rhs1))
    for k, lit in enumerate(po_lits):
        g.add_po(_map_lit(lit_map, lit), f"po{k}")
    _read_symbols(g, data[pos:].decode("ascii", errors="replace").splitlines())
    return g


def _map_lit(lit_map: dict[int, int], file_lit: int) -> int:
    mapped = lit_map.get(file_lit & ~1)
    if mapped is None:
        raise AigerFormatError(f"literal {file_lit} used before definition")
    return mapped ^ (file_lit & 1)


def _read_symbols(g: AIG, lines: list[str]) -> None:
    for line in lines:
        if line.startswith("c"):
            break
        if not line or line[0] not in "io":
            continue
        head, _, sym = line.partition(" ")
        if not sym:
            continue
        try:
            index = int(head[1:])
        except ValueError:
            continue
        if head[0] == "i" and index < g.n_pis:
            g._pi_names[index] = sym
        elif head[0] == "o" and index < g.n_pos:
            g._po_names[index] = sym
