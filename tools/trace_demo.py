"""Observability demo (``make trace-demo``).

Runs ``b; rw; b; pf`` on an arithmetic circuit whose outputs are not
constant (a 6-bit hypotenuse) with :mod:`repro.obs` tracing on, then
writes and summarizes every export format the subsystem ships:

* ``benchmarks/results/trace_demo.json`` — Chrome trace-event JSON.
  Open it in ``chrome://tracing`` or https://ui.perfetto.dev to read the
  flow as a timeline: one ``flow.command`` bar per command, with the
  operator sweep (and ``pf``'s ``engine.pass``) nested below it.
* ``benchmarks/results/trace_demo.jsonl`` — the same spans plus the
  metrics registry as line-delimited JSON (machine-diffable).
* ``benchmarks/results/trace_demo.prom`` — the metrics registry in
  Prometheus text exposition format.

The printed summary shows the span census and the headline counters, so
the demo is useful even without opening a trace viewer.
"""

from __future__ import annotations

import sys
from collections import Counter as TallyCounter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro import obs, run_flow  # noqa: E402
from repro.circuits.arith import hypotenuse  # noqa: E402

FLOW = "b; rw; b; pf"


def main() -> int:
    out_dir = REPO / "benchmarks" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)

    g = hypotenuse(6, name="trace-demo")
    obs.reset()
    obs.configure(enabled=True)
    n_before = g.n_ands
    out, report = run_flow(g, FLOW)
    obs.configure(enabled=False)

    chrome_path = out_dir / "trace_demo.json"
    jsonl_path = out_dir / "trace_demo.jsonl"
    prom_path = out_dir / "trace_demo.prom"
    obs.export_trace(str(chrome_path))
    obs.export_trace(str(jsonl_path))
    obs.export_metrics(str(prom_path))

    errors = obs.validate_chrome_trace(obs.chrome_trace(obs.tracer()))
    census = TallyCounter(span.name for span in obs.tracer().spans())

    print(f"flow {FLOW!r}: {n_before} -> {out.n_ands} ANDs "
          f"in {report.total_runtime:.2f}s")
    print(f"spans recorded: {len(obs.tracer())}")
    for name, count in sorted(census.items()):
        print(f"  {name:<20} x{count}")
    registry = obs.metrics()
    print("headline counters:")
    for metric in (
        "engine_waves_total",
        "engine_commits_total",
        "flow_commands_total",
    ):
        print(f"  {metric:<28} {registry.total(metric):.0f}")
    print(f"chrome trace:    {chrome_path.relative_to(REPO)} "
          f"(open in chrome://tracing or ui.perfetto.dev)")
    print(f"jsonl trace:     {jsonl_path.relative_to(REPO)}")
    print(f"prometheus text: {prom_path.relative_to(REPO)}")
    if errors:
        for error in errors:
            print(f"trace-demo: invalid chrome trace: {error}", file=sys.stderr)
        return 1
    print("chrome trace validates: spans well-formed and properly nested")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
