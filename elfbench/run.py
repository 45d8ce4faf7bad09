#!/usr/bin/env python3
"""Repository benchmark: ELF, refactor, resyn2, the parallel engine and the service.

Run from the repository root::

    python3 elfbench/run.py --workload arith --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (see ``elfbench/README.md``).  Human-readable report
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
program under test is built from ``src/`` of the same checkout; the
command exits with status 2, printing no result, when it is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("arith", "industrial")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="elfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12,
                        help="measured time shared by the four timed commands")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"elfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    tmp = ROOT / ".elfbench_tmp" / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    # A fresh cache directory per run: set-up never loads a cached result.
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "repro_cache")
    try:
        from elfbench import measure

        run = measure.per_layer if args.trace else measure.end_to_end
        metrics, ledger = run(args.workload, args.seed, args.seconds, str(tmp), str(ROOT))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            tmp.parent.rmdir()

    print(f"elfbench {args.workload} seed={args.seed} trace={args.trace}")
    for line in ledger.lines:
        print(line)
    print(f"  host: cpu {ledger.host.cpu_s:.2f} s, steal {100 * ledger.host.steal_frac:.2f}%")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
