"""Factored-form trees (the analogue of ABC's ``Dec_Graph``).

A factored form is an AND/OR tree over literals, e.g.
``(a + !b)(c + d) + e``.  The refactor operator derives one from the
cut's ISOP, counts how many fresh AIG nodes it would need, and commits it
when that beats the size of the cone it replaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from ..errors import FactoringError
from ..tt.sop import cube_lits, lit_negative, lit_var
from ..aig.simulate import full_mask, var_mask

KIND_LIT = "lit"
KIND_AND = "and"
KIND_OR = "or"
KIND_CONST0 = "const0"
KIND_CONST1 = "const1"

# Shared immutable instances: literal nodes by (var, negative), and the
# AND tree of each cube bitmask (cubes repeat heavily across the SOPs of
# one circuit).  Both caches only ever hold frozen trees, so sharing is
# invisible except in construction cost; the cube cache is capped like
# the ISOP memo (cleared, not LRU).
_LIT_CACHE: dict[tuple[int, bool], "FactorTree"] = {}
_CUBE_CACHE: dict[int, "FactorTree"] = {}
_CUBE_CACHE_LIMIT = 1 << 16


@dataclass(frozen=True, slots=True)
class FactorTree:
    """Immutable factored-form node.

    Slotted: the factoring memo holds tens of thousands of nodes for the
    life of a process, and a per-instance ``__dict__`` would cost several
    times the node itself.
    """

    kind: str
    var: int = -1
    negative: bool = False
    children: tuple["FactorTree", ...] = field(default_factory=tuple)
    # Lazily-computed literal count (-1 = not yet computed); excluded
    # from equality/hash/repr so the dataclass semantics are unchanged.
    _n_lits: int = field(default=-1, compare=False, repr=False)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def lit(var: int, negative: bool = False) -> "FactorTree":
        # Literal nodes are immutable and drawn from a tiny domain
        # (cut variables x two phases), so the instances are shared:
        # factoring builds tens of thousands per pass.
        key = (var, negative)
        node = _LIT_CACHE.get(key)
        if node is None:
            node = FactorTree(KIND_LIT, var=var, negative=negative)
            _LIT_CACHE[key] = node
        return node

    @staticmethod
    def const0() -> "FactorTree":
        return FactorTree(KIND_CONST0)

    @staticmethod
    def const1() -> "FactorTree":
        return FactorTree(KIND_CONST1)

    @staticmethod
    def and_(children: list["FactorTree"]) -> "FactorTree":
        flat = _flatten(KIND_AND, children)
        if not flat:
            return FactorTree.const1()
        if len(flat) == 1:
            return flat[0]
        return FactorTree(KIND_AND, children=tuple(flat))

    @staticmethod
    def or_(children: list["FactorTree"]) -> "FactorTree":
        flat = _flatten(KIND_OR, children)
        if not flat:
            return FactorTree.const0()
        if len(flat) == 1:
            return flat[0]
        return FactorTree(KIND_OR, children=tuple(flat))

    @staticmethod
    def from_cube(cube: int) -> "FactorTree":
        """AND of the cube's literals (empty cube = const 1)."""
        tree = _CUBE_CACHE.get(cube)
        if tree is None:
            lits = [
                FactorTree.lit(lit_var(i), lit_negative(i)) for i in cube_lits(cube)
            ]
            tree = FactorTree.and_(lits)
            if len(_CUBE_CACHE) >= _CUBE_CACHE_LIMIT:  # pragma: no cover - cap
                _CUBE_CACHE.clear()
            _CUBE_CACHE[cube] = tree
        return tree

    @staticmethod
    def from_sop(cubes: list[int]) -> "FactorTree":
        """OR of cube trees (the unfactored flat form)."""
        return FactorTree.or_([FactorTree.from_cube(c) for c in cubes])

    # -- queries ---------------------------------------------------------

    def n_literals(self) -> int:
        """Number of literal leaves in the tree (the factoring cost metric).

        Cached on first call: trees are immutable and heavily shared (see
        the literal/cube caches above), and factoring compares literal
        counts after every division step.
        """
        n = self._n_lits
        if n < 0:
            if self.kind == KIND_LIT:
                n = 1
            elif self.kind in (KIND_CONST0, KIND_CONST1):
                n = 0
            else:
                n = sum(child.n_literals() for child in self.children)
            object.__setattr__(self, "_n_lits", n)
        return n

    def support(self) -> set[int]:
        if self.kind == KIND_LIT:
            return {self.var}
        return set().union(*(c.support() for c in self.children)) if self.children else set()

    def eval_tt(self, n_vars: int) -> int:
        """Truth table of the tree over ``n_vars`` variables."""
        ones = full_mask(n_vars)
        if self.kind == KIND_CONST0:
            return 0
        if self.kind == KIND_CONST1:
            return ones
        if self.kind == KIND_LIT:
            mask = var_mask(self.var, n_vars)
            return (~mask & ones) if self.negative else mask
        child_tts = [c.eval_tt(n_vars) for c in self.children]
        if self.kind == KIND_AND:
            return reduce(lambda a, b: a & b, child_tts, ones)
        if self.kind == KIND_OR:
            return reduce(lambda a, b: a | b, child_tts, 0)
        raise FactoringError(f"unknown tree kind {self.kind!r}")  # pragma: no cover

    def to_string(self, names: list[str] | None = None) -> str:
        if self.kind == KIND_CONST0:
            return "0"
        if self.kind == KIND_CONST1:
            return "1"
        if self.kind == KIND_LIT:
            name = (
                names[self.var]
                if names is not None
                else (chr(ord("a") + self.var) if self.var < 26 else f"x{self.var}")
            )
            return ("!" + name) if self.negative else name
        parts = [c.to_string(names) for c in self.children]
        if self.kind == KIND_AND:
            return "".join(
                p if c.kind in (KIND_LIT, KIND_AND) else f"({p})"
                for p, c in zip(parts, self.children)
            )
        return " + ".join(parts)

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.to_string()


def _flatten(kind: str, children: list[FactorTree]) -> list[FactorTree]:
    """Merge nested same-kind nodes and drop neutral constants."""
    neutral = KIND_CONST1 if kind == KIND_AND else KIND_CONST0
    absorbing = KIND_CONST0 if kind == KIND_AND else KIND_CONST1
    flat: list[FactorTree] = []
    for child in children:
        if child.kind == absorbing:
            return [FactorTree.const0() if kind == KIND_AND else FactorTree.const1()]
        if child.kind == neutral:
            continue
        if child.kind == kind:
            flat.extend(child.children)
        else:
            flat.append(child)
    return flat
