"""Documentation gate (``make docs-check``).

Two checks, both cheap enough to run inside the default test target:

1. **Module docstrings.**  Every ``.py`` file under ``src/repro/engine``,
   ``src/repro/serve``, ``src/repro/obs`` and ``src/repro/resilience``
   — plus the individually listed hot-path and API-surface modules
   (simulation kernels; the cut sweep behind ELF's pass 1, whose
   docstring carries its count identities and memory bound; the
   rewrite, refactor and ELF operators, whose docstrings carry their
   exactness arguments; the trainer and the
   leave-one-out pipeline, whose docstrings say why the stacked step
   keeps each model's bits and what the family memo guarantees; and the
   flow layer:
   ``opt/flow.py``, ``opt/registry.py``, ``opt/session.py``, the
   ``python -m repro`` entry point) — must carry a non-trivial module
   docstring, so ``pydoc repro.engine`` /
   ``pydoc repro.opt.session`` always render a usable API reference.
   Checked by AST parse — no imports, no side effects.
2. **README examples.**  Every fenced ```` ```python ```` block in
   ``README.md`` is executed (in one shared namespace, top to bottom, so
   later examples may build on earlier ones).  A README that drifts from
   the API fails the build instead of misleading the next reader.
3. **Doc cross-links.**  ``docs/observability.md`` and
   ``docs/robustness.md`` must exist, and ``docs/engine.md`` /
   ``docs/serving.md`` must link to both — those pages document *their*
   instrumentation and failure handling, so a missing link means one of
   the pages went stale.
4. **Serving coverage.**  The serving front is the one subsystem users
   reach without importing the package, so its docs must keep pace:
   ``docs/serving.md`` has to describe the ``python -m repro serve``
   entry point, ``docs/observability.md`` the ``serve_cache_hits_total``
   counter family, ``docs/robustness.md`` the shard respawn path, and
   the README quickstart has to mention ``repro serve``.
5. **Tuning coverage.**  ``docs/tuning.md`` must describe the
   ``python -m repro tune`` entry point, the serve ``quality_budget_s``
   knob and recipe persistence; ``docs/serving.md`` and
   ``docs/flows.md`` must link to it, and ``docs/observability.md``
   must cover the ``tune_*`` counter family.
6. **Engine coverage.**  ``docs/engine.md`` must explain why the
   refactor family has no worker pool, ``docs/flows.md`` must list
   ``pf`` as an alias of ``rf``, and ``docs/robustness.md`` must list
   the registered fault sites.

Exit status 0 on success; prints every failure before exiting non-zero.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOCSTRING_TREES = (
    "src/repro/engine",
    "src/repro/serve",
    "src/repro/obs",
    "src/repro/resilience",
    "src/repro/tune",
)
DOCSTRING_FILES = (
    "src/repro/aig/simulate.py",
    "src/repro/cuts/reconv.py",
    "src/repro/elf/operator.py",
    "src/repro/elf/pipeline.py",
    "src/repro/ml/train.py",
    "src/repro/opt/flow.py",
    "src/repro/opt/refactor.py",
    "src/repro/opt/registry.py",
    "src/repro/opt/rewrite.py",
    "src/repro/opt/session.py",
    "src/repro/__main__.py",
)
MIN_DOCSTRING_CHARS = 40  # a sentence, not a placeholder


def _check_one(path: Path, failures: list[str]) -> None:
    rel = path.relative_to(REPO)
    try:
        module = ast.parse(path.read_text(encoding="utf-8"))
    except SyntaxError as error:
        failures.append(f"{rel}: does not parse: {error}")
        return
    doc = ast.get_docstring(module)
    if not doc:
        failures.append(f"{rel}: missing module docstring")
    elif len(doc.strip()) < MIN_DOCSTRING_CHARS:
        failures.append(f"{rel}: module docstring is a stub ({doc.strip()!r})")


def check_module_docstrings() -> list[str]:
    failures: list[str] = []
    for tree in DOCSTRING_TREES:
        root = REPO / tree
        if not root.is_dir():
            failures.append(f"{tree}: directory missing")
            continue
        for path in sorted(root.rglob("*.py")):
            _check_one(path, failures)
    for name in DOCSTRING_FILES:
        path = REPO / name
        if not path.is_file():
            failures.append(f"{name}: file missing")
            continue
        _check_one(path, failures)
    return failures


def check_readme_examples() -> list[str]:
    readme = REPO / "README.md"
    if not readme.is_file():
        return ["README.md: missing"]
    blocks = re.findall(
        r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"), re.S | re.M
    )
    if not blocks:
        return ["README.md: no ```python blocks to verify"]
    sys.path.insert(0, str(REPO / "src"))
    namespace: dict = {"__name__": "__readme__"}
    failures = []
    for index, source in enumerate(blocks, 1):
        try:
            exec(compile(source, f"README.md#block{index}", "exec"), namespace)
        except Exception as error:
            failures.append(f"README.md: python block {index} failed: {error!r}")
            break  # later blocks may depend on this one; one failure is enough
    return failures


def check_doc_crosslinks() -> list[str]:
    failures: list[str] = []
    for target in ("observability.md", "robustness.md"):
        if not (REPO / "docs" / target).is_file():
            failures.append(f"docs/{target}: missing")
    for name in ("docs/engine.md", "docs/serving.md"):
        path = REPO / name
        if not path.is_file():
            failures.append(f"{name}: missing")
            continue
        text = path.read_text(encoding="utf-8")
        for target in ("observability.md", "robustness.md"):
            if target not in text:
                failures.append(f"{name}: no cross-link to docs/{target}")
    return failures


SERVING_COVERAGE = (
    # (file, required substring, what its absence means)
    ("docs/serving.md", "python -m repro serve", "service entry point undocumented"),
    ("docs/observability.md", "serve_cache_hits_total", "serve counter family undocumented"),
    ("docs/robustness.md", "respawn", "shard respawn path undocumented"),
    ("README.md", "repro serve", "quickstart does not mention the service"),
)


def check_coverage(table) -> list[str]:
    """Every ``(file, needle, meaning)`` row: ``needle`` is in ``file``."""
    failures: list[str] = []
    for name, needle, meaning in table:
        path = REPO / name
        if not path.is_file():
            failures.append(f"{name}: missing")
            continue
        if needle not in path.read_text(encoding="utf-8"):
            failures.append(f"{name}: {meaning} (expected {needle!r})")
    return failures


TUNING_COVERAGE = (
    # (file, required substring, what its absence means)
    ("docs/tuning.md", "python -m repro tune", "tuner entry point undocumented"),
    ("docs/tuning.md", "quality_budget_s", "serve quality-budget knob undocumented"),
    ("docs/tuning.md", "recipes", "recipe persistence undocumented"),
    ("docs/serving.md", "tuning.md", "serving docs do not link the tuner"),
    ("docs/flows.md", "tuning.md", "flow docs do not link the tuner"),
    ("docs/observability.md", "tune_probes_total", "tuner counter family undocumented"),
)


ENGINE_COVERAGE = (
    # (file, required substring, what its absence means)
    ("docs/engine.md", "no worker pool", "the pooled refactor path's removal is unexplained"),
    ("docs/flows.md", "Alias of `rf`", "pf is not documented as an rf alias"),
    ("docs/robustness.md", "`shard.circuit`", "fault-site table is missing"),
)


def main() -> int:
    failures = (
        check_module_docstrings()
        + check_readme_examples()
        + check_doc_crosslinks()
        + check_coverage(SERVING_COVERAGE)
        + check_coverage(TUNING_COVERAGE)
        + check_coverage(ENGINE_COVERAGE)
    )
    for failure in failures:
        print(f"docs-check: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("docs-check: module docstrings + README examples OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
