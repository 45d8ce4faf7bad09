"""Size and cold cost of the resynthesis kernels' process-wide memos.

Refactor pays one ISOP and one factoring per distinct cut function, and
both kernels keep process-wide memos (``repro.tt.isop``,
``repro.factor.factoring``, plus the factor-tree cube cache) that live
as long as the process — in a serving shard, across every request.
This bench sizes them on the elfbench workloads (``arith``,
``industrial``, from ``elfbench/workloads.py``, read-only):

* **Cold kernels.**  The distinct ISOP inputs ``(tt, n)`` and factoring
  inputs of ``rf`` and ``rfz`` over the workload's flow suite are
  captured once; then, from cleared memos, the median seconds to ISOP
  (resp. factor) all of them, and the memo entries and deep bytes that
  leaves behind.
* **One serving process.**  A fresh child serves the workload's serve
  pool through ``b; rf`` with the service's shard settings, one circuit
  after another in one session, and reports its VmHWM growth and the
  memos' entries and deep bytes at the end.

Merges one ``resynth_memo`` record per workload into
``BENCH_engine.json`` (``cpu_count`` stamped; records of other
operators are preserved).  Run with ``make bench-memo``.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from benchmarks.bench_records import merge_bench_records  # noqa: E402
from elfbench import workloads  # noqa: E402
from repro.factor import factoring, tree  # noqa: E402
from repro.opt.flow import run_flow  # noqa: E402

# The modules, not the functions of the same name that shadow them on
# their packages.
ISOP = importlib.import_module("repro.tt.isop")
REFACTOR = importlib.import_module("repro.opt.refactor")
WORKLOADS = ("arith", "industrial")
CAPTURE_SCRIPTS = ("rf", "rfz")
SERVE_SCRIPT = "b; rf"
ROUNDS = 3


def deep_bytes(root) -> int:
    """``sys.getsizeof`` summed over every object reachable from ``root``
    through containers, instance dicts and slots, each object counted
    once."""
    seen: set[int] = set()
    total = 0
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or callable(obj):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.append(vars(obj))
        else:
            for slot in getattr(type(obj), "__slots__", ()):
                if hasattr(obj, slot):
                    stack.append(getattr(obj, slot))
    return total


def memo_sizes() -> dict:
    """Entries and deep bytes of every process-wide resynthesis memo."""
    memos = {
        "isop": ISOP._MEMO,
        "factor": factoring._MEMO,
        "cube_tree": tree._CUBE_CACHE,
    }
    sizes = {}
    for name, memo in memos.items():
        sizes[f"{name}_entries"] = len(memo)
        sizes[f"{name}_bytes"] = deep_bytes(memo)
    return sizes


def capture(suite: dict) -> tuple[list, list]:
    """Distinct ``(tt, n)`` ISOP inputs and ``(cubes, method)`` factoring
    inputs of ``rf`` and ``rfz`` over ``suite``, in first-seen order."""
    tables: dict = {}
    sops: dict = {}
    isop_exact, factor = REFACTOR.isop_exact, REFACTOR.factor

    def record_isop(tt, n):
        tables.setdefault((tt, n), None)
        return isop_exact(tt, n)

    def record_factor(cubes, n_vars=None, method="quick"):
        sops.setdefault((tuple(cubes), method), None)
        return factor(cubes, n_vars, method)

    REFACTOR.isop_exact, REFACTOR.factor = record_isop, record_factor
    try:
        for g in suite.values():
            for script in CAPTURE_SCRIPTS:
                run_flow(g.clone(), script)
    finally:
        REFACTOR.isop_exact, REFACTOR.factor = isop_exact, factor
    return list(tables), list(sops)


def _cold(fn, jobs: list) -> tuple[float, dict]:
    """Median seconds of ``fn`` over all jobs from cleared memos, and the
    memo sizes the last round leaves."""
    times = []
    for _ in range(ROUNDS):
        ISOP.clear_isop_memo()
        factoring.clear_factor_memo()  # and the cube-tree cache
        t0 = time.perf_counter()
        for job in jobs:
            fn(*job)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), memo_sizes()


def _vm_hwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0  # pragma: no cover - non-Linux


def serve_child(name: str) -> dict:
    """Serve the pool through ``b; rf`` in this (fresh) process, as one
    shard does: one session, the service's per-run cache bound."""
    from repro.aig.io_bench import to_text
    from repro.serve.service import ServiceConfig
    from repro.serve.shard import run_circuit

    texts = [(pool_name, to_text(g)) for pool_name, g in workloads.build(name).pool]
    params = ServiceConfig(script=SERVE_SCRIPT).params()
    before = _vm_hwm_mb()
    errors = 0
    with params.session() as session:
        for pool_name, text in texts:
            payload = run_circuit(session, params, pool_name, text)
            errors += payload["error"] is not None
    return {
        "circuits": len(texts),
        "errors": errors,
        "vmhwm_growth_mb": round(_vm_hwm_mb() - before, 1),
        **memo_sizes(),
    }


def measure(name: str) -> dict:
    tables, sops = capture(workloads.flow_suite(name))
    isop_s, isop_sizes = _cold(ISOP.isop_exact, tables)
    factor_s, factor_sizes = _cold(factoring.factor, [(list(c), None, m) for c, m in sops])
    out = subprocess.run(
        [sys.executable, __file__, "--serve", name],
        check=True, capture_output=True, text=True,
    )
    served = json.loads(out.stdout.strip().splitlines()[-1])
    return {
        "operator": "resynth_memo",
        "workload": name,
        "cut_functions": len(tables),
        "sops": len(sops),
        "isop_cold_s": round(isop_s, 4),
        "isop_memo_entries": isop_sizes["isop_entries"],
        "isop_memo_bytes": isop_sizes["isop_bytes"],
        "factor_cold_s": round(factor_s, 4),
        "factor_memo_entries": factor_sizes["factor_entries"],
        "factor_memo_bytes": factor_sizes["factor_bytes"],
        "serve_script": SERVE_SCRIPT,
        **{f"serve_{key}": value for key, value in served.items()},
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["--serve"]:
        print(json.dumps(serve_child(argv[1])))
        return 0
    records = [measure(name) for name in WORKLOADS]
    for r in records:
        print(
            f"{r['workload']:>10}: {r['cut_functions']} cut functions, ISOP cold "
            f"{r['isop_cold_s']:.3f} s ({r['isop_memo_entries']} entries, "
            f"{r['isop_memo_bytes'] / 2**20:.1f} MiB); {r['sops']} SOPs, factor cold "
            f"{r['factor_cold_s']:.3f} s ({r['factor_memo_entries']} entries, "
            f"{r['factor_memo_bytes'] / 2**20:.1f} MiB)"
        )
        print(
            f"{'':>10}  serve {r['serve_circuits']} circuits through "
            f"'{SERVE_SCRIPT}': VmHWM +{r['serve_vmhwm_growth_mb']:.1f} MB; memos "
            f"isop {r['serve_isop_entries']} / {r['serve_isop_bytes'] / 2**20:.1f} MiB, "
            f"factor {r['serve_factor_entries']} / {r['serve_factor_bytes'] / 2**20:.1f} MiB, "
            f"cube trees {r['serve_cube_tree_entries']} / "
            f"{r['serve_cube_tree_bytes'] / 2**20:.1f} MiB"
        )
        if r["serve_errors"]:
            print("bench-memo: a served circuit failed", file=sys.stderr)
            return 1
    merge_bench_records(records, os.cpu_count() or 1)
    print(f"bench-memo: merged {len(records)} resynth_memo records into BENCH_engine.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
