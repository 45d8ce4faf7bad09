"""Source hygiene: no dead imports, and no worker pool behind an import.

An import nothing references is a dependency the module claims but does
not have: it costs every import of the package and hides which modules
really depend on which.  The rule covers the package and the test,
benchmark, tool and example scripts alike.  The import guard keeps the
deleted resynthesis pool from coming back through a module-level import:
loading the optimizer and the engine must not load :mod:`multiprocessing`.
"""

import ast
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
# Script trees held to the same rule as the package.  ``elfbench/`` is
# left out: it changes only together with the benchmark it defines.
SCRIPT_TREES = ("tests", "benchmarks", "tools", "examples")


def _names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unreferenced_imports(path: Path, root: Path) -> list[str]:
    """``file:line: name`` for each module-level import ``path`` never uses.

    ``from __future__`` imports and names listed in ``__all__`` count as
    used; so does every name read anywhere in the module, inside
    functions, annotations and quoted annotations included.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation or type alias: "Deadline | None"
                used |= _names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [
        f"{path.relative_to(root)}:{line}: {name}"
        for name, line in sorted(bound.items(), key=lambda item: item[1])
        if name not in used
    ]


def test_no_unreferenced_module_level_imports():
    paths = sorted((SRC / "repro").rglob("*.py")) + [
        path for tree in SCRIPT_TREES for path in sorted((REPO / tree).rglob("*.py"))
    ]
    dead = [
        hit
        for path in paths
        if path.name != "__init__.py"  # package re-exports
        for hit in unreferenced_imports(path, REPO)
    ]
    assert dead == [], "unreferenced imports:\n" + "\n".join(dead)


def test_detector_flags_only_the_dead_import(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "from typing import Any, Optional\n"
        "def f() -> 'Optional[int]':\n"
        "    return osp.join(dumps(1))\n",
        encoding="utf-8",
    )
    assert unreferenced_imports(module, tmp_path) == [
        "probe.py:2: os",
        "probe.py:6: Any",
    ]


def test_optimizer_import_loads_no_process_pool():
    code = (
        "import sys\n"
        "import repro.opt, repro.engine\n"
        "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=str(SRC),
        check=True,
    )
    assert proc.stdout.strip() == "[]"
