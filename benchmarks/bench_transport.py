"""Wave-transport benchmark: shared-memory segments vs pickled chunks.

Replays realistic resynthesis waves (unique cut functions harvested from
reconvergence-driven cuts of the layered-5k circuit) through a two-worker
:class:`repro.engine.parallel.ResynthExecutor` under both transports and
records, per transport: wall time, serialized bytes that actually crossed
the worker pipes (``engine_task_bytes_total``) and, for shm, the segment
volume written once and mapped zero-copy
(``engine_shm_segment_bytes_total``).  The headline number is the
serialized-bytes reduction of the shm transport — the acceptance bar is
>= 80% on production-size waves.

Results land in ``benchmarks/results/transport_bytes.{json,txt}`` and as
``operator: "transport"`` rows of the repo-level ``BENCH_engine.json``
perf trajectory (other operators' records are preserved); the summary
also records ``cpu_count`` so trajectory diffs are interpretable across
hosts.  On a single-core container the pool guard would refuse to
dispatch at all, so the benchmark forces pooling and flags the run with
``forced_pool`` (byte counts are exact either way; times are then
dispatch overhead, not speedup).

Runs standalone: ``PYTHONPATH=src python benchmarks/bench_transport.py``
(or ``make bench-mp``).
"""

import json
import os
import time
from pathlib import Path
from unittest import mock

import repro.engine.parallel as parallel
from repro import obs
from repro.aig.simulate import cone_truth
from repro.circuits import layered_random_aig
from repro.cuts.reconv import reconv_cut
from repro.engine import ResynthExecutor
from repro.harness import format_table, write_report
from repro.opt import RefactorParams
from repro.factor.factoring import clear_factor_memo
from repro.tt.isop import clear_isop_memo

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2
WAVE_SIZE = 256
CIRCUIT = ("layered-5k", dict(n_pis=14, n_ands=5500, seed=11))


def harvest_waves() -> list[list[tuple[int, int]]]:
    """Unique resynthesis tasks of the circuit, in wave-sized slices."""
    name, spec = CIRCUIT
    g = layered_random_aig(name=name, **spec)
    seen = set()
    tasks = []
    for node in g.and_ids():
        cut = reconv_cut(g, node, 10, collect_features=False)
        if cut.n_leaves < 2:
            continue
        task = (cone_truth(g, node, cut.leaves), cut.n_leaves)
        if task not in seen:
            seen.add(task)
            tasks.append(task)
    return [tasks[i : i + WAVE_SIZE] for i in range(0, len(tasks), WAVE_SIZE)]


def measure(transport: str, waves) -> dict:
    # Cold start per row: the memos and the counters are process-wide.
    clear_isop_memo()
    clear_factor_memo()
    obs.reset()
    params = RefactorParams()
    t0 = time.perf_counter()
    with ResynthExecutor(WORKERS, params, transport=transport) as executor:
        for wave in waves:
            executor.run(wave)
    runtime = time.perf_counter() - t0
    reg = obs.metrics()
    return {
        "transport": transport,
        "runtime_s": round(runtime, 4),
        "task_bytes": int(reg.value("engine_task_bytes_total", transport=transport)),
        "segment_bytes": int(reg.value("engine_shm_segment_bytes_total") or 0),
        "segments": int(reg.value("engine_shm_segments_created_total") or 0),
        "fallbacks": int(reg.value("engine_shm_fallbacks_total") or 0),
    }


def run_benchmark() -> dict:
    waves = harvest_waves()
    forced_pool = (os.cpu_count() or 1) < 2
    if forced_pool:
        # The pool guard refuses to dispatch on one core; the benchmark
        # exists to measure transport volume, so dispatch anyway.
        with mock.patch.object(parallel.os, "cpu_count", lambda: WORKERS):
            rows = [measure(t, waves) for t in ("shm", "pickle")]
    else:
        rows = [measure(t, waves) for t in ("shm", "pickle")]
    by_transport = {row["transport"]: row for row in rows}
    reduction = 1.0 - by_transport["shm"]["task_bytes"] / max(
        1, by_transport["pickle"]["task_bytes"]
    )
    return {
        "benchmark": "wave_transport",
        "circuit": CIRCUIT[0],
        "cpu_count": os.cpu_count() or 1,
        "forced_pool": forced_pool,
        "workers": WORKERS,
        "n_waves": len(waves),
        "n_tasks": sum(len(w) for w in waves),
        "serialized_reduction_pct": round(100.0 * reduction, 2),
        "transports": rows,
    }


def merge_bench_summary(payload: dict, path: Path | None = None) -> None:
    """Fold transport rows into ``BENCH_engine.json``, preserving the
    scaling records other bench targets maintain."""
    target = path or (REPO_ROOT / "BENCH_engine.json")
    summary = {}
    if target.is_file():
        try:
            summary = json.loads(target.read_text(encoding="utf-8"))
        except (ValueError, OSError):  # pragma: no cover - corrupt file
            summary = {}
    records = [
        record
        for record in summary.get("records", ())
        if record.get("operator", "refactor") != "transport"
    ]
    # Every record carries the cpu_count it was measured on; kept rows
    # predating the stamp inherit their file's machine-level count.
    fallback_count = summary.get("cpu_count", summary.get("cores", payload["cpu_count"]))
    for record in records:
        record.setdefault("cpu_count", fallback_count)
    for row in payload["transports"]:
        records.append(
            {
                "operator": "transport",
                "circuit": payload["circuit"],
                "mode": f"{row['transport']}-w{payload['workers']}",
                "workers": payload["workers"],
                "runtime_s": row["runtime_s"],
                "task_bytes": row["task_bytes"],
                "segment_bytes": row["segment_bytes"],
                "cpu_count": payload["cpu_count"],
            }
        )
    summary.update(
        {
            "benchmark": summary.get("benchmark", "engine_scaling"),
            "cpu_count": payload["cpu_count"],
            "records": records,
        }
    )
    target.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")


def render(payload: dict) -> str:
    rows = [
        [
            payload["circuit"],
            row["transport"],
            f"w={payload['workers']}",
            f"{row['runtime_s']:.2f}s",
            row["task_bytes"],
            row["segment_bytes"] or "-",
            row["fallbacks"],
        ]
        for row in payload["transports"]
    ]
    title = (
        f"Wave transport ({payload['n_tasks']} tasks / {payload['n_waves']} waves, "
        f"{payload['serialized_reduction_pct']:.1f}% serialized-byte reduction, "
        f"{payload['cpu_count']} core(s)"
        + (", forced pool)" if payload["forced_pool"] else ")")
    )
    return format_table(
        ["Circuit", "Transport", "Mode", "Runtime", "Pipe bytes", "Segment bytes", "Fallbacks"],
        rows,
        title=title,
    )


if __name__ == "__main__":
    payload = run_benchmark()
    results_dir = Path(__file__).resolve().parent / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "transport_bytes.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    text = render(payload)
    write_report("transport_bytes", text)
    merge_bench_summary(payload)
    print(text)
    print("\nwritten: benchmarks/results/transport_bytes.{json,txt} and BENCH_engine.json")
