"""Leave-one-out training cost on the two elfbench suites.

ELF trains one classifier per held-out circuit before it prunes a
single cut, so a leave-one-out round over a suite is a fixed cost of
every run (``make bench-train``).  For each suite (``arith``,
``industrial``, from ``elfbench/workloads.py``) this harvests the
datasets once, then times ``REPEATS`` interleaved pairs of rounds:

* ``train`` — the family round, ``train_leave_one_out`` for every
  circuit as elfbench calls it: the first call trains all K held-out
  models in one stacked lockstep loop, the rest are served by the memo;
* ``train_per_model`` — the same K classifiers trained one at a time
  (``train_pooled`` on each circuit's pool, the K=1 path).

Each record holds the median time, the optimizer steps (one per model
per batch), ms per step and a sha256 digest over every classifier's
weights, biases and threshold.  The digest pins the trained bits: both
rounds must give the digest in ``PINNED``, or the script fails.

Merges one record per round and suite into ``BENCH_engine.json``
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

from benchmarks.bench_records import merge_bench_records  # noqa: E402
from elfbench import workloads  # noqa: E402
from repro.elf import collect_dataset, pipeline  # noqa: E402
from repro.ml.train import TrainConfig  # noqa: E402

SUITES = ("arith", "industrial")
REPEATS = 5
# The classifiers the per-array training loop produced (default config).
PINNED = {
    "arith": "79419ec35891ca02056c17202e1fb0993f6e6b2f020a5b774a12b0e78bcaa423",
    "industrial": "28159e6c7c229c756e874b61cbe93182ad5a394591bde825474f4dd8c356bfa0",
}


def _steps(n_rows: int, epochs_run: int, config: TrainConfig) -> int:
    """Optimizer steps of one model's training run (its split and
    per-epoch batch cap)."""
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


class _StepCounter:
    """Wraps the pipeline's training entry points to count steps."""

    def __init__(self) -> None:
        self.steps = 0
        self.family, self.single = pipeline.train_classifiers, pipeline.train_classifier

    def __enter__(self) -> "_StepCounter":
        def family(datasets, config=None):
            results = self.family(datasets, config)
            for dataset, result in zip(datasets, results):
                self.steps += _steps(len(dataset), len(result.history), config or TrainConfig())
            return results

        def single(dataset, config=None):
            return family([dataset], config)[0]

        pipeline.train_classifiers, pipeline.train_classifier = family, single
        return self

    def __exit__(self, *exc_info) -> None:
        pipeline.train_classifiers, pipeline.train_classifier = self.family, self.single


def _family_round(datasets: dict) -> dict:
    pipeline._FAMILY_MEMO = None  # time the training, not a memo hit
    return {name: pipeline.train_leave_one_out(datasets, name) for name in datasets}


def _per_model_round(datasets: dict) -> dict:
    return {
        name: pipeline.train_pooled([d for n, d in datasets.items() if n != name])
        for name in datasets
    }


def measure(suite_name: str) -> list[dict]:
    suite = workloads.flow_suite(suite_name)
    datasets = {name: collect_dataset(g) for name, g in suite.items()}
    rounds = {"train": _family_round, "train_per_model": _per_model_round}
    times = {operator: [] for operator in rounds}
    steps, digests = {}, {}
    for repeat in range(REPEATS):
        # Alternate which round goes first, so host drift hits both.
        order = list(rounds) if repeat % 2 == 0 else list(rounds)[::-1]
        for operator in order:
            with _StepCounter() as counter:
                started = time.perf_counter()
                classifiers = rounds[operator](datasets)
                times[operator].append(time.perf_counter() - started)
            steps[operator] = counter.steps
            digests[operator] = _digest(classifiers)
    records = []
    for operator in rounds:
        train_s = statistics.median(times[operator])
        records.append(
            {
                "operator": operator,
                "workload": suite_name,
                "circuits": len(suite),
                "train_s": round(train_s, 4),
                "train_s_runs": [round(t, 4) for t in times[operator]],
                "steps": steps[operator],
                "ms_per_step": round(1000.0 * train_s / steps[operator], 4),
                "digest": digests[operator],
            }
        )
    return records


def main() -> int:
    records = [r for name in SUITES for r in measure(name)]
    bad = []
    for r in records:
        print(
            f"{r['workload']:>10} {r['operator']:>15}: {r['circuits']} classifiers, "
            f"{r['steps']} steps, train {r['train_s']:.3f}s (median of {REPEATS}), "
            f"{r['ms_per_step']:.3f} ms/step, digest {r['digest'][:16]}"
        )
        if r["digest"] != PINNED[r["workload"]]:
            bad.append(f"{r['workload']} {r['operator']}")
    if bad:
        print(f"bench-train: classifier digest moved: {', '.join(bad)}")
        return 1
    merge_bench_records(records, os.cpu_count() or 1)
    print(f"bench-train: merged {len(records)} train records into BENCH_engine.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
