"""Wave-rewrite scaling: sequential ``rw`` vs the ``prw`` engine.

For each synthetic circuit the sequential sweep is timed once, then the
wave engine runs at 1/2/4 workers on fresh clones; every engine result
is verified equivalent to its input (exact exhaustive-simulation CEC —
the circuits keep <= 16 PIs for precisely this reason) and its AND
count is compared against the sequential sweep.  Results go to
``benchmarks/results/engine_scaling_rewrite.{json,txt}`` and a
standardized summary — runtime, speedup, re-snapshot rate and AND-diff
per (circuit, workers) — is merged into the repo-level
``BENCH_engine.json`` as its ``rewrite`` rows, keeping every other
operator's records.

The refactor family is not measured here: ``pf`` runs the sequential
``rf`` sweep at every width (see ``docs/engine.md`` for the pooled
designs that lost to it).  The rewrite engine never pools (library
lookups are memoized dict probes); its wave win is the batched truth
kernel + per-flow library cache.  The JSON records the core count.

Staleness is reported as ``stale -> resnap``: the sequential-fallback
replay counter (structurally zero since the incremental re-snapshot
pipeline landed) next to the number of cross-wave snapshot refreshes
that replaced it, plus the evaluation dedup rate (library cache).

Runs standalone too:
``PYTHONPATH=src python benchmarks/bench_engine_scaling.py``.
"""

import json
import os
from pathlib import Path

from repro import obs
from repro.circuits import layered_random_aig
from repro.harness import engine_scaling, format_table, write_report
from repro.factor.factoring import clear_factor_memo
from repro.tt.isop import clear_isop_memo
from repro.verify import equivalent

WORKER_COUNTS = (1, 2, 4)
CIRCUITS = (
    ("layered-5k", dict(n_pis=14, n_ands=5500, seed=11)),
    ("layered-8k", dict(n_pis=16, n_ands=8000, seed=23)),
)
REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT = "engine_scaling_rewrite"


def measure_circuit(name: str, spec: dict, workers=WORKER_COUNTS) -> dict:
    """`harness.engine_scaling` sweep + equivalence check per engine run."""
    # Cold-start discipline: the ISOP and factoring memos and the metrics
    # registry are process-wide, so without a reset an earlier circuit
    # warms the later ones.  Every circuit starts cold.
    clear_isop_memo()
    clear_factor_memo()
    obs.reset()
    g = layered_random_aig(name=name, **spec)
    baseline, *engine_rows = engine_scaling(g, workers_list=workers)
    return {
        "circuit": name,
        "operator": "rewrite",
        "n_ands": g.n_ands,
        "n_pis": g.n_pis,
        "level": g.max_level(),
        "sequential": {
            "runtime": baseline.runtime,
            "n_ands": baseline.n_ands,
            "commits": baseline.commits,
        },
        "engine": [
            {
                "workers": row.workers,
                "runtime": row.runtime,
                "speedup": row.speedup,
                "n_ands": row.n_ands,
                "and_diff_pct": 100.0
                * (row.n_ands - baseline.n_ands)
                / max(1, baseline.n_ands),
                "commits": row.commits,
                "n_waves": row.n_waves,
                "n_stale": row.n_stale,
                "n_resnapshotted": row.n_resnapshotted,
                "dedup_rate": row.dedup_rate,
                "equivalent": bool(equivalent(g, row.graph)),
            }
            for row in engine_rows
        ],
    }


def run_scaling(circuits=CIRCUITS, workers=WORKER_COUNTS) -> dict:
    payload = {
        "cores": os.cpu_count() or 1,
        "workers": list(workers),
        "operators": ["rewrite"],
        "results": [measure_circuit(name, spec, workers) for name, spec in circuits],
    }
    results_dir = Path(__file__).resolve().parent / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{REPORT}.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    write_bench_summary(payload)
    return payload


def write_bench_summary(payload: dict, path: Path | None = None) -> dict:
    """Standardized repo-level ``BENCH_engine.json`` perf trajectory.

    One flat record per (operator, circuit, workers) with the headline
    quantities — runtime, speedup, stale/re-snapshot counters, AND-diff —
    so future PRs can diff engine performance without parsing the full
    report.  Records of operators *not* in this payload are preserved
    from the existing file.
    """
    records = []
    for result in payload["results"]:
        operator = result["operator"]
        mode_prefix = f"{operator}-"
        records.append(
            {
                "operator": operator,
                "circuit": result["circuit"],
                "mode": f"{mode_prefix}sequential",
                "workers": 0,
                "runtime_s": round(result["sequential"]["runtime"], 4),
                "speedup": 1.0,
                "n_ands": result["sequential"]["n_ands"],
                "and_diff_pct": 0.0,
                "n_stale": 0,
                "n_resnapshotted": 0,
                "dedup_rate": 0.0,
            }
        )
        for point in result["engine"]:
            records.append(
                {
                    "operator": operator,
                    "circuit": result["circuit"],
                    "mode": f"{mode_prefix}engine-w{point['workers']}",
                    "workers": point["workers"],
                    "runtime_s": round(point["runtime"], 4),
                    "speedup": round(point["speedup"], 4),
                    "n_ands": point["n_ands"],
                    "and_diff_pct": round(point["and_diff_pct"], 4),
                    "n_stale": point["n_stale"],
                    "n_resnapshotted": point["n_resnapshotted"],
                    "dedup_rate": round(point["dedup_rate"], 4),
                }
            )
    return merge_bench_records(records, payload["cores"], path)


def merge_bench_records(records: list, cores: int, path: Path | None = None) -> dict:
    """Merge ``records`` into ``BENCH_engine.json``, preserving the
    records of every operator *not* measured this run — the mechanism
    that lets ``make bench-rw``, ``make bench-serve`` and
    ``make bench-tune`` maintain one perf trajectory without clobbering
    each other.

    Every record is stamped with the ``cpu_count`` it was measured on
    (kept records missing one are backfilled from their file's top-level
    ``cores``), so mixed-machine trajectories stay interpretable."""
    target = path or (REPO_ROOT / "BENCH_engine.json")
    measured = {record["operator"] for record in records}
    for record in records:
        record.setdefault("cpu_count", cores)
    if target.is_file():
        try:
            previous = json.loads(target.read_text(encoding="utf-8"))
        except (ValueError, OSError):  # pragma: no cover - corrupt file
            previous = {}
        kept = [
            record
            for record in previous.get("records", ())
            if record.get("operator", "refactor") not in measured
        ]
        for record in kept:
            record.setdefault("cpu_count", previous.get("cores", cores))
        records = kept + records
    summary = {
        "benchmark": "engine_scaling",
        "cores": cores,
        "records": records,
    }
    target.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return summary


def render(payload: dict) -> str:
    rows = []
    for result in payload["results"]:
        operator = result["operator"]
        rows.append(
            [
                result["circuit"],
                operator,
                "sequential",
                f"{result['sequential']['runtime']:.2f}s",
                "1.00x",
                result["sequential"]["n_ands"],
                "-",
                "-",
                "-",
                "-",
            ]
        )
        for point in result["engine"]:
            rows.append(
                [
                    result["circuit"],
                    operator,
                    f"engine w={point['workers']}",
                    f"{point['runtime']:.2f}s",
                    f"{point['speedup']:.2f}x",
                    point["n_ands"],
                    f"{point['and_diff_pct']:+.2f}%",
                    f"{point['n_stale']} -> {point['n_resnapshotted']}",
                    f"{100.0 * point['dedup_rate']:.1f}%",
                    "yes" if point["equivalent"] else "NO",
                ]
            )
    return format_table(
        [
            "Circuit",
            "Operator",
            "Mode",
            "Runtime",
            "Speedup",
            "ANDs",
            "And diff",
            "Stale->Resnap",
            "Dedup",
            "CEC",
        ],
        rows,
        title=f"Wave-rewrite engine scaling ({payload['cores']} core(s) available)",
    )


def test_engine_scaling(benchmark):
    from conftest import record_report

    payload = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    text = render(payload)
    write_report(REPORT, text)
    record_report(REPORT, text)

    for result in payload["results"]:
        for point in result["engine"]:
            # Every engine run must preserve functionality and land within
            # 1.5% of the sequential sweep's quality.
            assert point["equivalent"], (result["circuit"], point["workers"])
            assert abs(point["and_diff_pct"]) <= 1.5, point
            # The sequential fallback is gone: staleness is handled by the
            # incremental re-snapshot pipeline instead.
            assert point["n_stale"] == 0, point
            if point["workers"] > 1:
                assert point["n_resnapshotted"] > 0, point


if __name__ == "__main__":
    report = run_scaling()
    text = render(report)
    write_report(REPORT, text)
    print(text)
    print(f"\nwritten: benchmarks/results/{REPORT}.{{json,txt}} and BENCH_engine.json")
