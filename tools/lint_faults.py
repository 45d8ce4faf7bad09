"""Silent-swallow lint for failure paths (``make lint-faults``).

The fault-tolerance layer (``docs/robustness.md``) only works if every
failure is *counted or propagated*: a ``try/except Exception: pass`` in
the engine or serve trees would silently eat exactly the crashes the
recovery machinery and its metrics exist to surface.  This lint walks
the ASTs of ``src/repro/engine``, ``src/repro/serve`` (the whole
serving stack — store, shard processes, the asyncio service) and
``src/repro/resilience`` and fails on any handler for ``Exception`` /
``BaseException`` (or a bare ``except:``) whose body does none of:

* re-raise (any ``raise`` statement);
* increment a metric — an ``obs.counter(...).add(...)`` /
  ``histogram(...).observe(...)`` chain, or a
  ``repro.resilience.policy.record_*`` accounting call;
* carry an explicit ``# lint-faults: <justification>`` comment inside
  the handler, for the rare case where swallowing is the contract
  (e.g. a child process that *returns* the formatted error for the
  parent to count).

Narrow handlers (``except ValueError``, ``except (OSError, KeyError)``)
are out of scope: they express a decision about a specific failure, not
a dragnet.

It also fails on a fault-injection call — ``fire("<site>", ...)`` or its
``fault_fire`` import alias, with a literal site name — whose site is missing from
``repro.resilience.faults.SITES``, so the documented site table cannot
drift from the sites the code consults.  Exit status 0 when clean;
prints every offending ``file:line`` before exiting non-zero.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LINTED_TREES = (
    "src/repro/engine",
    "src/repro/serve",
    "src/repro/resilience",
    "src/repro/tune",
)
FAULTS_MODULE = "src/repro/resilience/faults.py"
PRAGMA = "# lint-faults:"
BROAD_NAMES = {"Exception", "BaseException"}
METRIC_METHODS = {"add", "observe", "inc", "set"}
METRIC_FACTORIES = {"counter", "histogram", "gauge"}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    """Does the handler catch Exception/BaseException (or everything)?"""
    spec = handler.type
    if spec is None:  # bare except:
        return True
    types = spec.elts if isinstance(spec, ast.Tuple) else [spec]
    for node in types:
        if isinstance(node, ast.Name) and node.id in BROAD_NAMES:
            return True
        if isinstance(node, ast.Attribute) and node.attr in BROAD_NAMES:
            return True
    return False


def _is_metric_call(node: ast.Call) -> bool:
    """``obs.counter(...).add(...)``-style chain or ``record_*`` call."""
    func = node.func
    if isinstance(func, ast.Attribute):
        if func.attr.startswith("record_"):
            return True  # policy.record_worker_death(...) etc.
        if func.attr in METRIC_METHODS:
            # Walk down the chain looking for a registry factory:
            # obs.counter(...).add / metrics.histogram(...).observe.
            inner = func.value
            while True:
                if isinstance(inner, ast.Call):
                    inner = inner.func
                elif isinstance(inner, ast.Attribute):
                    if inner.attr in METRIC_FACTORIES:
                        return True
                    inner = inner.value
                else:
                    return False
    elif isinstance(func, ast.Name) and func.id.startswith("record_"):
        return True
    return False


def _handler_accounts(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call) and _is_metric_call(node):
            return True
    return False


def _has_pragma(handler: ast.ExceptHandler, lines: list[str]) -> bool:
    end = handler.end_lineno or handler.lineno
    return any(PRAGMA in line for line in lines[handler.lineno - 1 : end])


def registered_sites(path: Path) -> frozenset[str]:
    """The ``SITES`` literal of the faults module, read by AST."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "SITES" for t in node.targets)
            and isinstance(node.value, ast.Call)
            and node.value.args
        ):
            return frozenset(ast.literal_eval(node.value.args[0]))
    raise SystemExit(f"lint-faults: no SITES literal in {path}")


def _fired_site(node: ast.Call) -> str | None:
    """The literal site of a ``fire("<site>", ...)`` call, else None."""
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name not in ("fire", "fault_fire") or not node.args:
        return None
    first = node.args[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value
    return None


def check_tree(root: Path, sites: frozenset[str]) -> list[str]:
    failures: list[str] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(REPO) if path.is_relative_to(REPO) else path
        source = path.read_text(encoding="utf-8")
        try:
            module = ast.parse(source)
        except SyntaxError as error:
            failures.append(f"{rel}:{error.lineno}: does not parse: {error.msg}")
            continue
        lines = source.splitlines()
        for node in ast.walk(module):
            if isinstance(node, ast.Call):
                site = _fired_site(node)
                if site is not None and site not in sites:
                    failures.append(
                        f"{rel}:{node.lineno}: fault site {site!r} is not in "
                        f"{FAULTS_MODULE}::SITES"
                    )
                continue
            if not isinstance(node, ast.ExceptHandler) or not _is_broad(node):
                continue
            if _handler_accounts(node) or _has_pragma(node, lines):
                continue
            failures.append(
                f"{rel}:{node.lineno}: broad except swallows the failure — "
                f"re-raise, count it (obs.counter(...).add / policy.record_*), "
                f"or justify with '{PRAGMA} <reason>'"
            )
    return failures


def main() -> int:
    sites = registered_sites(REPO / FAULTS_MODULE)
    failures: list[str] = []
    for tree in LINTED_TREES:
        root = REPO / tree
        if not root.is_dir():
            failures.append(f"{tree}: directory missing")
            continue
        failures.extend(check_tree(root, sites))
    for failure in failures:
        print(f"lint-faults: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(
        f"lint-faults: no silent broad excepts or unregistered fault sites "
        f"under {', '.join(LINTED_TREES)}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
