"""Shared writer of the repo-level perf trajectory, ``BENCH_engine.json``.

Every ``make bench-*`` target that records rows calls
:func:`merge_bench_records` with its own records; the rows of every
other operator in the file are kept, so the targets maintain one
trajectory without clobbering each other.
"""

import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def merge_bench_records(records: list, cores: int, path: Path | None = None) -> dict:
    """Merge ``records`` into ``BENCH_engine.json``, preserving the
    records of every operator *not* measured this run.

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
