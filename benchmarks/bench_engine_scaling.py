"""Engine scaling: sequential operators vs conflict-wave engine workers.

For each synthetic circuit the sequential sweep is timed once, then the
engine runs at 1/2/4 workers on fresh clones; every engine result is
verified equivalent to its input (exact exhaustive-simulation CEC — the
circuits keep <= 16 PIs for precisely this reason) and its AND count is
compared against the sequential sweep.  Both wave operators are
measured: ``refactor`` (the ELF engine) and ``rewrite`` (the DAC'06
operator on the same scheduler).  Results go to
``benchmarks/results/engine_scaling.{json,txt}`` (machine-readable,
alongside the rendered table; a rewrite-only run writes
``engine_scaling_rewrite.{json,txt}`` instead, so it never clobbers the
committed refactor reference artifacts) and a standardized summary —
runtime, speedup, re-snapshot rate and AND-diff per (operator, circuit,
workers) — is additionally merged into the repo-level
``BENCH_engine.json`` so successive PRs leave a diffable perf
trajectory.  The merge is per-operator: ``make bench`` refreshes the
refactor rows, ``make bench-rw`` appends/refreshes the rewrite rows,
and neither clobbers the other's records.

Staleness is reported as ``stale -> resnap``: the sequential-fallback
replay counter (structurally zero since the incremental re-snapshot
pipeline landed) next to the number of cross-wave snapshot refreshes
that replaced it, plus the evaluation dedup rate (wave-level dedup +
cross-pass/NPN/library cache).

Wall-clock speedup from worker parallelism requires actual cores: the
refactor engine's dominant phase (ISOP + factoring in the worker pool)
is pure CPU, so on a single-core container the pool only adds dispatch
overhead.  The rewrite engine never pools (library lookups are memoized
dict probes); its wave win is the batched truth kernel + per-flow
library cache.  The JSON records the core count; the pytest variant
asserts speedup only where the hardware can express it.

The ``faults`` mode measures the idle overhead of the fault-injection
sites (``docs/robustness.md``): a plan armed at every site but never
triggering must cost <1% on the layered-5k refactor run, recorded as
the ``faults-idle`` rows of ``BENCH_engine.json``.

Runs standalone too:
``PYTHONPATH=src python benchmarks/bench_engine_scaling.py
[refactor|rewrite|all|faults]``.
"""

import json
import os
import sys
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


def measure_circuit(
    name: str, spec: dict, workers=WORKER_COUNTS, operator: str = "refactor"
) -> dict:
    """`harness.engine_scaling` sweep + equivalence check per engine run."""
    # Cold-start discipline: the ISOP and factoring memos and the metrics
    # registry are process-wide, so without a reset an earlier operator row
    # warms the later ones (rewrite rows timed against a refactor-heated
    # memo, and counter deltas smeared across rows).  Every row starts cold.
    clear_isop_memo()
    clear_factor_memo()
    obs.reset()
    g = layered_random_aig(name=name, **spec)
    baseline, *engine_rows = engine_scaling(g, workers_list=workers, operator=operator)
    return {
        "circuit": name,
        "operator": operator,
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


def report_name(operators) -> str:
    """Artifact stem for a run: rewrite-only runs keep their own files so
    they never clobber the committed refactor reference artifacts."""
    return "engine_scaling" if "refactor" in operators else "engine_scaling_rewrite"


def run_scaling(
    circuits=CIRCUITS, workers=WORKER_COUNTS, operators=("refactor",)
) -> dict:
    payload = {
        "cores": os.cpu_count() or 1,
        "workers": list(workers),
        "operators": list(operators),
        "results": [
            measure_circuit(name, spec, workers, operator)
            for operator in operators
            for name, spec in circuits
        ],
    }
    results_dir = Path(__file__).resolve().parent / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{report_name(operators)}.json").write_text(
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
    from the existing file, which is what lets ``make bench`` (refactor)
    and ``make bench-rw`` (rewrite) maintain one trajectory together.
    """
    records = []
    for result in payload["results"]:
        operator = result.get("operator", "refactor")
        mode_prefix = "" if operator == "refactor" else f"{operator}-"
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
    that lets ``make bench`` / ``make bench-rw`` / ``make bench-faults``
    maintain one perf trajectory without clobbering each other.

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


FAULT_SITES = (
    "worker.start",
    "worker.chunk",
    "chunk.result",
    "shm.create",
    "classifier.fire",
)


def _fire_cost_ns(site: str, calls: int = 200_000, batches: int = 5) -> float:
    """Best-of-``batches`` per-call cost of one ``faults.fire`` consult."""
    from time import perf_counter

    from repro.resilience import faults

    best = float("inf")
    for _ in range(batches):
        start = perf_counter()
        for _ in range(calls):
            faults.fire(site, chunk=1)
        best = min(best, perf_counter() - start)
    return 1e9 * best / calls


def run_faults_overhead(
    circuit=("layered-5k", dict(n_pis=14, n_ands=5500, seed=11)),
    workers: int = 2,
) -> dict:
    """Idle fault-injection overhead on the layered-5k refactor run.

    The quantity of interest — the cost of a ``REPRO_FAULTS`` plan that
    is armed at every site but never triggers — is far below wall-clock
    noise on a shared container (an A/B of two multi-second runs swings
    ±10%, useless against a <1% contract), so it is measured where it
    is deterministic and composed:

    1. one instrumented engine pass with pooling forced on counts how
       many times each fault site is actually consulted (worker-side
       ``worker.chunk`` consults mirror the parent's per-chunk
       ``chunk.result`` waits, which the parent *can* count), and
       verifies the result is CEC-equivalent with the plan armed;
    2. a microbenchmark prices one ``faults.fire`` consult with the
       plan installed vs cleared (best-of-batches over 200k calls);
    3. overhead = consults x per-consult delta, relative to the pass
       runtime.

    The contract (``docs/robustness.md``) is <1%; the ``faults-idle``
    rows of ``BENCH_engine.json`` record the result.
    """
    from time import perf_counter

    import repro.engine.parallel as parallel_mod
    from repro.engine import EngineParams, engine_refactor
    from repro.resilience import faults

    name, spec = circuit
    idle_plan = ";".join(f"{site}=raise@1000000000" for site in FAULT_SITES)
    clear_isop_memo()
    clear_factor_memo()
    obs.reset()
    g = layered_random_aig(name=name, **spec)
    run = g.clone()
    site_calls: dict[str, int] = {}
    real_fire = parallel_mod.fault_fire

    def counting_fire(site, **ctx):
        site_calls[site] = site_calls.get(site, 0) + 1
        real_fire(site, **ctx)

    real_cpu_count = os.cpu_count
    try:
        # Force the pooled path even on a single-core host (same patch
        # the engine's own pool tests use) so every parent-side site is
        # genuinely on the measured code path, with the plan armed.
        parallel_mod.os.cpu_count = lambda: max(2, real_cpu_count() or 1)
        parallel_mod.fault_fire = counting_fire
        faults.install(idle_plan)
        start = perf_counter()
        engine_refactor(run, EngineParams(workers=workers))
        runtime_s = perf_counter() - start
        cec_ok = bool(equivalent(g, run))
        # Workers consult worker.chunk once per chunk; the counting
        # wrapper lives in the parent, so mirror the per-chunk count.
        site_calls["worker.chunk"] = site_calls.get("chunk.result", 0)
        n_consults = sum(site_calls.values())
        fire_idle_ns = _fire_cost_ns("worker.chunk")
    finally:
        faults.clear()
        parallel_mod.fault_fire = real_fire
        parallel_mod.os.cpu_count = real_cpu_count
    fire_off_ns = _fire_cost_ns("worker.chunk")
    overhead_s = n_consults * max(0.0, fire_idle_ns - fire_off_ns) * 1e-9
    payload = {
        "cores": real_cpu_count() or 1,
        "circuit": name,
        "workers": workers,
        "runtime_s": runtime_s,
        "site_calls": site_calls,
        "n_consults": n_consults,
        "fire_off_ns": round(fire_off_ns, 1),
        "fire_idle_ns": round(fire_idle_ns, 1),
        "overhead_s": overhead_s,
        "overhead_pct": 100.0 * overhead_s / runtime_s,
        "equivalent": cec_ok,
        "plan": idle_plan,
    }
    results_dir = Path(__file__).resolve().parent / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "engine_faults_overhead.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    merge_bench_records(
        [
            {
                "operator": "faults-idle",
                "circuit": name,
                "mode": "faults-idle",
                "workers": workers,
                "runtime_s": round(runtime_s, 4),
                "n_consults": n_consults,
                "fire_idle_ns": round(fire_idle_ns, 1),
                "overhead_pct": round(payload["overhead_pct"], 4),
            }
        ],
        payload["cores"],
    )
    return payload


def render_faults(payload: dict) -> str:
    rows = [
        [
            payload["circuit"],
            f"pooled w={payload['workers']}",
            f"{payload['runtime_s']:.3f}s",
            payload["n_consults"],
            f"{payload['fire_off_ns']:.0f}ns",
            f"{payload['fire_idle_ns']:.0f}ns",
            f"{payload['overhead_pct']:+.4f}%",
            "yes" if payload["equivalent"] else "NO",
        ]
    ]
    return format_table(
        [
            "Circuit",
            "Mode",
            "Runtime",
            "Consults",
            "fire() off",
            "fire() idle",
            "Overhead",
            "CEC",
        ],
        rows,
        title=(
            f"Idle fault-injection overhead: consults x per-consult cost "
            f"({payload['cores']} core(s))"
        ),
    )


def render(payload: dict) -> str:
    rows = []
    for result in payload["results"]:
        operator = result.get("operator", "refactor")
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
        title=f"Conflict-wave engine scaling ({payload['cores']} core(s) available)",
    )


def test_engine_scaling(benchmark):
    from conftest import record_report

    payload = benchmark.pedantic(
        run_scaling,
        kwargs={"operators": ("refactor", "rewrite")},
        rounds=1,
        iterations=1,
    )
    text = render(payload)
    write_report("engine_scaling", text)
    record_report("engine_scaling", text)

    for result in payload["results"]:
        operator = result.get("operator", "refactor")
        # Rewrite waves track sequential tighter than refactor waves: the
        # acceptance bound is +-1.5% vs +-2% (4-feasible cuts are more
        # disjoint, so wave order disturbs the greedy sweep less).
        bound = 1.5 if operator == "rewrite" else 2.0
        for point in result["engine"]:
            # Every engine run must preserve functionality and land within
            # the bound of the sequential sweep's quality.
            assert point["equivalent"], (operator, result["circuit"], point["workers"])
            assert abs(point["and_diff_pct"]) <= bound, (operator, point)
            # The sequential fallback is gone: staleness is handled by the
            # incremental re-snapshot pipeline instead.
            assert point["n_stale"] == 0, point
            if point["workers"] > 1:
                assert point["n_resnapshotted"] > 0, (operator, point)
    # Worker scaling is only observable with real cores behind the pool,
    # and only the refactor engine dispatches to the pool at all.
    if payload["cores"] >= 4:
        four = [
            point
            for result in payload["results"]
            if result.get("operator", "refactor") == "refactor"
            for point in result["engine"]
            if point["workers"] == 4
        ]
        assert all(point["speedup"] > 1.0 for point in four), four


if __name__ == "__main__":
    choice = sys.argv[1] if len(sys.argv) > 1 else "refactor"
    if choice == "faults":
        payload = run_faults_overhead()
        text = render_faults(payload)
        write_report("engine_faults_overhead", text)
        print(text)
        print(
            "\nwritten: benchmarks/results/engine_faults_overhead.{json,txt} "
            "and the faults-idle rows of BENCH_engine.json"
        )
        raise SystemExit(0)
    operators = {
        "refactor": ("refactor",),
        "rewrite": ("rewrite",),
        "all": ("refactor", "rewrite"),
    }.get(choice)
    if operators is None:
        raise SystemExit(f"usage: {sys.argv[0]} [refactor|rewrite|all|faults]")
    report = run_scaling(operators=operators)
    text = render(report)
    name = report_name(operators)
    write_report(name, text)
    print(text)
    print(f"\nwritten: benchmarks/results/{name}.{{json,txt}} and BENCH_engine.json")
