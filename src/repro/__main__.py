"""Command-line flow runner: ``python -m repro SCRIPT INPUT.bench``.

Runs an ABC-style flow script on a BENCH netlist without writing any
Python — a thin wrapper over :class:`repro.opt.OptSession`::

    python -m repro "resyn2" input.bench -o out.bench
    python -m repro "b; rw; rf" input.bench          # BENCH to stdout
    python -m repro "pf -w 4; b" input.bench -o out.bench -w 2
    python -m repro "pf -w 2; b" input.bench --trace trace.json

``SCRIPT`` is either a literal ``;``-separated command script or a named
script (``resyn2``, ``compress2`` — case-insensitive).  ``-w N`` is the
session's ``engine_workers`` passthrough: the worker count applied to
engine commands that carry no explicit per-command ``-w``.  The
optimized network goes to ``-o`` (or stdout when omitted); the per-step
report table goes to stderr unless ``-q`` silences it.  Commands that
need a classifier (``elf``/``pelf``) are not servable from the CLI —
train and deploy those through the Python API.

``--trace FILE`` enables :mod:`repro.obs` span recording for the run and
writes the trace on exit — Chrome trace-event JSON (open in
``chrome://tracing`` / Perfetto) or JSONL when ``FILE`` ends in
``.jsonl``.  ``--metrics FILE`` writes the metrics registry (flow
command timings, engine pass counters) in Prometheus text format.

``python -m repro serve --socket PATH`` starts the long-lived
optimization service instead (:mod:`repro.serve.service`): shard worker
processes behind a unix-socket JSON-lines protocol, fronted by a
content-addressed result cache and admission control.  See
``docs/serving.md`` for the wire protocol and ``--help`` for knobs::

    python -m repro serve --socket /tmp/repro.sock --script "b; rf" \\
        --shards 4 --queue-limit 32 --metrics serve-metrics.prom

``python -m repro tune INPUT.bench --budget 5`` searches for a
per-circuit flow script instead of running a fixed one
(:mod:`repro.tune`): an anytime bandit over the registry commands that
always returns the best committed result when the budget expires.
``--recipes FILE`` persists winning scripts across invocations keyed by
circuit shape; see ``docs/tuning.md``::

    python -m repro tune input.bench --budget 5 -o out.bench \\
        --recipes recipes.json --seed 7

Exit status: 0 on success, 2 for usage/flow errors (unknown command,
unsupported flag, malformed input).
"""

from __future__ import annotations

import argparse
import sys

from . import obs
from .aig.io_bench import read, to_text, write
from .errors import ReproError
from .opt import NAMED_SCRIPTS
from .opt.session import OptSession


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run an ABC-style optimization flow on a BENCH netlist.",
    )
    parser.add_argument(
        "script",
        help="flow script ('b; rw; rf; ...') or a named script "
        f"({', '.join(sorted(NAMED_SCRIPTS))})",
    )
    parser.add_argument("input", help="input circuit (BENCH format)")
    parser.add_argument(
        "-o",
        "--output",
        help="write the optimized BENCH here (default: stdout)",
    )
    parser.add_argument(
        "-w",
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker count for engine commands without an explicit -w "
        "(default: one per core; 1 = bit-identical sequential mode)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress the per-step report table",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="record spans and write a trace file (Chrome trace JSON, "
        "or JSONL when FILE ends in .jsonl)",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="write the metrics registry in Prometheus text format",
    )
    return parser


def _render_report(report) -> str:
    from .harness.tables import format_table

    rows = [
        [step.command, f"{step.runtime:.3f}", step.n_ands, step.level]
        for step in report.steps
    ]
    rows.append(["total", f"{report.total_runtime:.3f}", "", ""])
    return format_table(
        ["Step", "Runtime s", "And", "Level"],
        rows,
        title=f"flow: {report.script}",
    )


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the long-lived optimization service on a unix socket.",
    )
    parser.add_argument(
        "--socket",
        required=True,
        metavar="PATH",
        help="unix domain socket path to listen on",
    )
    parser.add_argument(
        "--script",
        default="b; rf",
        help="default flow script served when a request names none "
        "(default: 'b; rf')",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=2,
        metavar="N",
        help="shard worker processes (default: 2)",
    )
    parser.add_argument(
        "-w",
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="engine workers per shard session (default: 1, the "
        "bit-identical sequential mode)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        metavar="N",
        help="admission bound: optimize requests in flight beyond N are "
        "rejected typed, not queued (default: 16)",
    )
    parser.add_argument(
        "--cache-entries",
        type=int,
        default=256,
        metavar="N",
        help="content-addressed result cache capacity (LRU, default: 256)",
    )
    parser.add_argument(
        "--engine-cache-entries",
        type=int,
        default=4096,
        metavar="N",
        help="per-layer LRU bound of each shard's resynthesis caches "
        "(default: 4096)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-circuit latency budget (default: none)",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="write the metrics registry (Prometheus text) on shutdown",
    )
    return parser


def build_tune_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro tune",
        description="Search for a per-circuit flow script under a time budget.",
    )
    parser.add_argument("input", help="input circuit (BENCH format)")
    parser.add_argument(
        "-o",
        "--output",
        help="write the tuned BENCH here (default: stdout)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock search budget; the best committed result so far "
        "is returned when it expires (default: no budget — the probe "
        "limit terminates the search)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="bandit RNG seed (default: 0)",
    )
    parser.add_argument(
        "--probes",
        type=int,
        default=64,
        metavar="N",
        help="maximum probe passes (default: 64)",
    )
    parser.add_argument(
        "--recipes",
        metavar="FILE",
        help="JSON recipe book: warm-start from (and record back) winning "
        "scripts keyed by circuit shape",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress the tuning summary",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="write the metrics registry in Prometheus text format",
    )
    return parser


def tune_main(argv: list[str]) -> int:
    from .tune import RecipeBook, TuneParams, tune

    args = build_tune_parser().parse_args(argv)
    try:
        g = read(args.input)
        recipes = RecipeBook(args.recipes) if args.recipes else None
        result = tune(
            g,
            TuneParams(
                seed=args.seed,
                budget_s=args.budget,
                max_probes=args.probes,
                recipes=recipes,
            ),
        )
        if args.output:
            write(result.graph, args.output)
        else:
            sys.stdout.write(to_text(result.graph))
        if args.metrics:
            obs.export_metrics(args.metrics)
    except (ReproError, OSError) as error:
        print(f"repro: {error}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(
            f"repro: tuned {g.name or args.input}: "
            f"{result.n_ands_before} -> {result.n_ands} ANDs "
            f"({result.gain_pct:.1f}%), level {result.level_before} -> "
            f"{result.level}, {result.probes} probes in {result.elapsed_s:.2f}s",
            file=sys.stderr,
        )
        print(f"repro: script: {result.script}", file=sys.stderr)
        if args.recipes:
            print(
                f"repro: recipes: {args.recipes} [bucket {result.bucket}, "
                f"{'hit' if result.recipe_hit else 'miss'}]",
                file=sys.stderr,
            )
    if args.output:
        print(f"repro: wrote {args.output}", file=sys.stderr)
    return 0


def serve_main(argv: list[str]) -> int:
    from .serve.service import ServiceConfig, run_service

    args = build_serve_parser().parse_args(argv)
    config = ServiceConfig(
        socket_path=args.socket,
        script=args.script,
        n_shards=args.shards,
        workers=args.workers,
        max_pending=args.queue_limit,
        cache_entries=args.cache_entries,
        engine_cache_entries=args.engine_cache_entries,
        circuit_timeout_s=args.timeout,
        metrics_path=args.metrics,
    )
    try:
        print(f"repro: serving on {args.socket}", file=sys.stderr)
        run_service(config)
    except (ReproError, OSError) as error:
        print(f"repro: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "tune":
        return tune_main(argv[1:])
    args = build_parser().parse_args(argv)
    script = NAMED_SCRIPTS.get(args.script.strip().lower(), args.script)
    if args.trace:
        obs.configure(enabled=True)
    try:
        g = read(args.input)
        with OptSession(engine_workers=args.workers) as session:
            out, report = session.run(g, script)
        if args.output:
            write(out, args.output)
        else:
            sys.stdout.write(to_text(out))
        if args.trace:
            obs.export_trace(args.trace)
        if args.metrics:
            obs.export_metrics(args.metrics)
    except (ReproError, OSError) as error:
        print(f"repro: {error}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(_render_report(report), file=sys.stderr)
    if args.trace:
        print(f"repro: trace written to {args.trace}", file=sys.stderr)
    if args.metrics:
        print(f"repro: metrics written to {args.metrics}", file=sys.stderr)
    if args.output:
        print(f"repro: wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
