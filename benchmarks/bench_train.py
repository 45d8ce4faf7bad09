"""Leave-one-out training cost on the two elfbench suites.

ELF trains one classifier per held-out circuit before it prunes a
single cut, so ``train_leave_one_out`` over a suite is a fixed cost of
every run (``make bench-train``).  For each suite (``arith``,
``industrial``, from ``elfbench/workloads.py``) this harvests the
datasets once, then times a full leave-one-out round ``REPEATS`` times
and reports the median, the number of optimizer steps, ms per step and
a sha256 digest over every classifier's weights, biases and threshold.
The digest pins the trained bits: a speed change to the training step
must leave it unchanged.

Merges one ``train`` record per suite into ``BENCH_engine.json``
(``cpu_count`` stamped; records of other operators are preserved).
"""

from __future__ import annotations

import hashlib
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from benchmarks.bench_engine_scaling import merge_bench_records  # noqa: E402
from elfbench import workloads  # noqa: E402
from repro.elf import collect_dataset, pipeline, train_leave_one_out  # noqa: E402
from repro.ml.train import TrainConfig, train_classifier  # noqa: E402

SUITES = ("arith", "industrial")
REPEATS = 3


def _steps(n_rows: int, epochs_run: int, config: TrainConfig) -> int:
    """Optimizer steps of one training run (``train_classifier``'s split
    and per-epoch batch cap)."""
    n_train = n_rows - max(1, int(n_rows * config.validation_fraction))
    per_epoch = min(max(1, n_train // config.batch_size), config.max_batches_per_epoch)
    return epochs_run * per_epoch


def _digest(classifiers: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(classifiers):
        clf = classifiers[name]
        for array in clf.model.get_parameters():
            h.update(np.ascontiguousarray(array).tobytes())
        h.update(np.float64(clf.threshold).tobytes())
    return h.hexdigest()


def measure(suite_name: str) -> dict:
    suite = workloads.flow_suite(suite_name)
    datasets = {name: collect_dataset(g) for name, g in suite.items()}
    steps = 0

    def counting(dataset, config=None):
        nonlocal steps
        result = train_classifier(dataset, config)
        steps += _steps(len(dataset), len(result.history), config or TrainConfig())
        return result

    pipeline.train_classifier = counting
    try:
        times = []
        for _ in range(REPEATS):
            steps = 0
            started = time.perf_counter()
            classifiers = {name: train_leave_one_out(datasets, name) for name in suite}
            times.append(time.perf_counter() - started)
    finally:
        pipeline.train_classifier = train_classifier
    train_s = statistics.median(times)
    return {
        "operator": "train",
        "workload": suite_name,
        "circuits": len(suite),
        "train_s": round(train_s, 4),
        "train_s_runs": [round(t, 4) for t in times],
        "steps": steps,
        "ms_per_step": round(1000.0 * train_s / steps, 4),
        "digest": _digest(classifiers),
    }


def main() -> int:
    records = [measure(name) for name in SUITES]
    for r in records:
        print(
            f"{r['workload']:>10}: {r['circuits']} classifiers, {r['steps']} steps, "
            f"train {r['train_s']:.3f}s (median of {REPEATS}), "
            f"{r['ms_per_step']:.3f} ms/step, digest {r['digest'][:16]}"
        )
    merge_bench_records(records, os.cpu_count() or 1)
    print(f"bench-train: merged {len(records)} train records into BENCH_engine.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
