"""Fixed ``resyn2`` vs the budgeted tuner at equal wall-budget.

The acceptance bar of the ``repro.tune`` subsystem (``make bench-tune``):
on three arithmetic circuits whose outputs are not constant, a tuned
run given the **same wall-clock budget** must match or beat the fixed
``resyn2`` AND count on at least 2 of the 3 circuits, CEC-clean, with
seeded runs.  The comparison is
honest about the budget: the fixed flow runs once (it finishes well
inside the budget and simply stops), while the tuner spends the whole
budget — first replaying the resyn2 trajectory as committed probes,
then searching past it.

Writes ``benchmarks/results/tune_search.json``, renders a table, and
merges the ``tune-search`` rows into the repo-level
``BENCH_engine.json`` perf trajectory via
:func:`benchmarks.bench_records.merge_bench_records` (cpu_count
stamped; records of other operators are preserved).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from benchmarks.bench_records import merge_bench_records  # noqa: E402
from repro.circuits.arith import divider, hypotenuse, multiplier  # noqa: E402
from repro.harness.tables import format_table  # noqa: E402
from repro.opt import RESYN2, run_flow  # noqa: E402
from repro.tune import TuneParams, tune  # noqa: E402
from repro.verify.cec import equivalent  # noqa: E402

BUDGET_S = 3.0
SEED = 0

# Few PIs on purpose: CEC below is the *exact* exhaustive-simulation
# method, so every tuned result is verified, not spot-checked.
SUITE = (
    ("hyp5", lambda: hypotenuse(5)),
    ("div6", lambda: divider(6)),
    ("mult7", lambda: multiplier(7)),
)


def main() -> int:
    records = []
    rows = []
    wins = 0
    for name, build in SUITE:
        g = build()
        started = time.perf_counter()
        fixed, _report = run_flow(g.clone(), RESYN2)
        fixed_s = time.perf_counter() - started
        result = tune(g, TuneParams(seed=SEED, budget_s=BUDGET_S))
        cec = equivalent(g, result.graph)
        beat = result.n_ands <= fixed.n_ands
        wins += int(beat)
        records.append(
            {
                "operator": "tune-search",
                "mode": "resyn2-fixed",
                "circuit": name,
                "seed": SEED,
                "budget_s": BUDGET_S,
                "n_ands_before": g.n_ands,
                "n_ands": fixed.n_ands,
                "runtime_s": round(fixed_s, 4),
            }
        )
        records.append(
            {
                "operator": "tune-search",
                "mode": "tuned",
                "circuit": name,
                "seed": SEED,
                "budget_s": BUDGET_S,
                "n_ands_before": g.n_ands,
                "n_ands": result.n_ands,
                "runtime_s": round(result.elapsed_s, 4),
                "probes": result.probes,
                "gain_pct": round(result.gain_pct, 2),
                "script": result.script,
                "cec_clean": bool(cec),
                "beats_fixed": bool(beat),
            }
        )
        rows.append(
            [
                name,
                g.n_ands,
                fixed.n_ands,
                result.n_ands,
                result.probes,
                "yes" if cec else "NO",
                "tuned" if result.n_ands < fixed.n_ands else
                ("tie" if beat else "FIXED"),
            ]
        )
        assert cec, f"{name}: tuned result not CEC-equivalent"
    print(
        format_table(
            ["Circuit", "And0", "resyn2", "Tuned", "Probes", "CEC", "Winner"],
            rows,
            title=f"tune-search vs fixed resyn2 (budget {BUDGET_S:.1f}s, seed {SEED})",
        )
    )
    out_dir = REPO_ROOT / "benchmarks" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "tune_search.json").write_text(
        json.dumps({"budget_s": BUDGET_S, "seed": SEED, "records": records}, indent=2)
        + "\n",
        encoding="utf-8",
    )
    cores = os.cpu_count() or 1
    merge_bench_records(records, cores)
    print(f"bench-tune: merged {len(records)} tune-search records into BENCH_engine.json")
    assert wins >= 2, f"tuned matched/beat fixed resyn2 on only {wins}/3 circuits"
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
