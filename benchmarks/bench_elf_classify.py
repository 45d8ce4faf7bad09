"""ELF's pass 1: the per-node cut loop next to the lockstep feature sweep.

Pass 1 of ``elf`` forms every node's reconvergence-driven cut, reads the
six features and classifies them all in one call.  This bench times it
two ways on the same graphs:

* **loop** — one ``reconv_cut(..., collect_features=True)`` per AND,
  then ``stack_features`` (the per-node path);
* **sweep** — ``reconv_features`` (the lockstep NumPy sweep ``elf``
  runs), which builds no cut objects.

Both are followed by the same ``keep_mask`` call on an untrained
paper-shaped classifier (``6 -> 12 -> 12 -> 6 -> 1``), so each number is
pass 1's seconds.  Workloads: the two elfbench flow suites (``arith``,
``industrial``, from ``elfbench/workloads.py``, read-only) and
``industrial_design(3, 1.0)`` (6,386 ANDs), where the sweep's state must
be chunked.  Each of the ``RUNS`` cold runs is a fresh child process
that generates the graphs and times both paths, in alternating order;
the record keeps the medians and every run.  The two feature matrices
must be equal element for element, or the bench exits 1.

Merges one ``elf_classify`` record per workload into
``BENCH_engine.json`` (``cpu_count`` stamped; records of other
operators are preserved).  Run with ``make bench-classify``.
"""

from __future__ import annotations

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

import numpy as np  # noqa: E402

from benchmarks.bench_records import merge_bench_records  # noqa: E402
from elfbench import workloads  # noqa: E402
from repro.circuits.industrial import industrial_design  # noqa: E402
from repro.cuts import reconv_cut, stack_features  # noqa: E402
from repro.cuts.reconv import (  # noqa: E402
    DEFAULT_MAX_LEAVES,
    reconv_features,
    sweep_rows,
    sweep_state_bytes,
)
from repro.elf import ElfClassifier  # noqa: E402
from repro.ml import MLP  # noqa: E402

WORKLOADS = ("arith", "industrial", "design_3@1.0")
RUNS = 5


def graphs(name: str) -> list:
    if name == "design_3@1.0":
        return [industrial_design(3, 1.0)]
    return list(workloads.flow_suite(name).values())


def loop_features(g, roots: list[int]) -> np.ndarray:
    return stack_features([reconv_cut(g, r, DEFAULT_MAX_LEAVES).features for r in roots])


def sweep_features(g, roots: list[int]) -> np.ndarray:
    return reconv_features(g, roots, DEFAULT_MAX_LEAVES)


def child(name: str, run: int) -> dict:
    """One cold run: pass-1 seconds of both paths over ``name``'s graphs."""
    suite = [(g, g.and_ids()) for g in graphs(name)]
    classifier = ElfClassifier(MLP(seed=0))
    paths = {"loop": loop_features, "sweep": sweep_features}
    order = ("loop", "sweep") if run % 2 == 0 else ("sweep", "loop")
    seconds, matrices = {}, {}
    for path in order:
        features = paths[path]
        t0 = time.perf_counter()
        matrices[path] = [features(g, roots) for g, roots in suite]
        for matrix in matrices[path]:
            classifier.keep_mask(matrix)
        seconds[path] = time.perf_counter() - t0
    equal = all(
        np.array_equal(a, b) for a, b in zip(matrices["loop"], matrices["sweep"])
    )
    return {"loop_s": seconds["loop"], "sweep_s": seconds["sweep"], "equal": equal}


def measure(name: str) -> dict:
    suite = graphs(name)
    runs = []
    for run in range(RUNS):
        out = subprocess.run(
            [sys.executable, __file__, "--child", name, str(run)],
            check=True, capture_output=True, text=True,
        )
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    loop_s = statistics.median(r["loop_s"] for r in runs)
    sweep_s = statistics.median(r["sweep_s"] for r in runs)
    return {
        "operator": "elf_classify",
        "workload": name,
        "circuits": len(suite),
        "nodes": sum(g.n_ands for g in suite),
        "max_leaves": DEFAULT_MAX_LEAVES,
        "runs": RUNS,
        "loop_s": round(loop_s, 4),
        "sweep_s": round(sweep_s, 4),
        "speedup": round(loop_s / sweep_s, 2),
        "loop_runs_s": [round(r["loop_s"], 4) for r in runs],
        "sweep_runs_s": [round(r["sweep_s"], 4) for r in runs],
        "sweep_rows": max(sweep_rows(g.n_nodes, g.n_ands) for g in suite),
        "sweep_state_bytes": max(sweep_state_bytes(g.n_nodes, g.n_ands) for g in suite),
        "matrices_equal": all(r["equal"] for r in runs),
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        print(json.dumps(child(argv[1], int(argv[2]))))
        return 0
    records = [measure(name) for name in WORKLOADS]
    for r in records:
        print(
            f"{r['workload']:>13}: {r['nodes']:>5} ANDs in {r['circuits']:>2} graphs, "
            f"pass 1 loop {r['loop_s']:.4f} s, sweep {r['sweep_s']:.4f} s "
            f"({r['speedup']:.2f}x), sweep state {r['sweep_state_bytes'] / 2**20:.2f} MiB "
            f"({r['sweep_rows']} roots per chunk)"
        )
    if not all(r["matrices_equal"] for r in records):
        print("bench-classify: the sweep's features differ from reconv_cut's", file=sys.stderr)
        return 1
    merge_bench_records(records, os.cpu_count() or 1)
    print(f"bench-classify: merged {len(records)} elf_classify records into BENCH_engine.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
