"""Timing-discipline lint (``make lint-timing``).

Instrumented code must never read the wall clock: ``time.time()`` is
subject to NTP steps and DST jumps, so a span or stats field computed
from it can go negative or jump by hours.  Every duration in the
instrumented trees must come from the :mod:`repro.obs` span API or
directly from the monotonic clocks it is built on
(``time.perf_counter`` / ``time.monotonic``).

This lint walks the ASTs of ``src/repro/engine``, ``src/repro/opt``,
``src/repro/serve`` (the whole serving stack, the asyncio service
included), ``src/repro/resilience``, ``src/repro/tune`` and the trees
that hold refactor's timing buckets and kernels (``src/repro/elf``,
``aig``, ``factor``, ``tt`` and ``cuts``), and fails on any call of
``time.time`` (including ``from time import time`` aliases).
Wall-clock *timestamps* for log records or file names belong in the
exporters and harness, which are deliberately outside the linted trees.

Exit status 0 when clean; prints every offending ``file:line`` before
exiting non-zero.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LINTED_TREES = (
    "src/repro/engine",
    "src/repro/opt",
    "src/repro/serve",
    "src/repro/resilience",
    "src/repro/tune",
    "src/repro/elf",
    "src/repro/aig",
    "src/repro/factor",
    "src/repro/tt",
    "src/repro/cuts",
)


class _WallClockFinder(ast.NodeVisitor):
    """Collects calls that resolve to ``time.time`` in one module."""

    def __init__(self) -> None:
        self.offences: list[int] = []
        self._time_aliases: set[str] = set()  # `import time as t` names
        self._func_aliases: set[str] = set()  # `from time import time [as x]`

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "time":
                self._time_aliases.add(alias.asname or "time")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name == "time":
                    self._func_aliases.add(alias.asname or "time")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "time"
            and isinstance(func.value, ast.Name)
            and func.value.id in self._time_aliases
        ):
            self.offences.append(node.lineno)
        elif isinstance(func, ast.Name) and func.id in self._func_aliases:
            self.offences.append(node.lineno)
        self.generic_visit(node)


def check_tree(root: Path) -> list[str]:
    failures: list[str] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(REPO)
        try:
            module = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError as error:
            failures.append(f"{rel}:{error.lineno}: does not parse: {error.msg}")
            continue
        finder = _WallClockFinder()
        # Imports may come after uses in odd modules; collect them first.
        for node in ast.walk(module):
            if isinstance(node, ast.Import):
                finder.visit_Import(node)
            elif isinstance(node, ast.ImportFrom):
                finder.visit_ImportFrom(node)
        finder.visit(module)
        for line in finder.offences:
            failures.append(
                f"{rel}:{line}: time.time() in instrumented code — use "
                f"obs.span(...) or time.perf_counter()"
            )
    return failures


def main() -> int:
    failures: list[str] = []
    for tree in LINTED_TREES:
        root = REPO / tree
        if not root.is_dir():
            failures.append(f"{tree}: directory missing")
            continue
        failures.extend(check_tree(root))
    for failure in failures:
        print(f"lint-timing: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"lint-timing: no wall-clock timing under {', '.join(LINTED_TREES)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
