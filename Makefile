# Developer entry points. pytest.ini already puts src/ on sys.path for
# pytest runs; plain `python` invocations still need PYTHONPATH=src.

PYTHON ?= python

.PHONY: test test-fast test-faults docs-check lint-timing lint-faults trace-demo serve-demo tune-demo bench-rw bench-serve bench-tune bench-train bench-key bench-memo bench-all profile clean

test: docs-check lint-timing lint-faults serve-demo tune-demo
	$(PYTHON) -m pytest -x -q

test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

# Documentation gate: module docstrings in repro.engine / repro.serve /
# repro.obs and the individually listed hot-path modules (simulation
# kernels, the rewrite operator), plus executable README examples
# (tools/docs_check.py).
docs-check:
	$(PYTHON) tools/docs_check.py

# Timing discipline: no wall-clock (time.time) timing in instrumented
# code under src/repro/{engine,opt,serve,resilience} — durations must
# come from the obs span API or the monotonic clocks it is built on.
lint-timing:
	$(PYTHON) tools/lint_timing.py

# Failure-path discipline: a broad `except Exception` under
# src/repro/{engine,serve,resilience,tune} must re-raise, increment a
# metric, or carry an explicit `# lint-faults:` justification, and every
# fault site the code fires must be registered in faults.SITES
# (docs/robustness.md).
lint-faults:
	$(PYTHON) tools/lint_faults.py

# Resilience battery: error taxonomy, deadlines, retry policy,
# classifier-round failures, the deterministic fault-injection harness
# and its site lint (shard-death recovery is covered by
# tests/test_serve_service.py).  Individual faults can also be forced by
# hand, e.g.
#   REPRO_FAULTS="classifier.fire=raise@1" PYTHONPATH=src python ...
test-faults:
	$(PYTHON) -m pytest tests/test_resilience.py -x -q

# Observability demo: runs a parallel flow with tracing on and writes
# Chrome-trace / JSONL / Prometheus exports under benchmarks/results/.
trace-demo:
	$(PYTHON) tools/trace_demo.py

# Serving smoke test: boots `python -m repro serve` on a temp socket,
# optimizes one circuit twice (miss, then byte-identical cache hit),
# checks the hit counter via stats/metrics, and shuts down.
serve-demo:
	$(PYTHON) tools/serve_demo.py

# Tuner smoke test: tunes a small circuit under a 2 s budget and asserts
# the result matches/beats fixed resyn2, CEC-clean, with a recipe-book
# hit on the second run (tools/tune_demo.py).
tune-demo:
	$(PYTHON) tools/tune_demo.py

# Wave-rewrite scaling (no classifier training needed): writes
# benchmarks/results/engine_scaling_rewrite.{json,txt} and refreshes the
# rewrite rows of BENCH_engine.json without touching other records.
bench-rw:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_engine_scaling.py

# resyn2 runtime profile (refactor's share of the flow, paper SS II).
profile:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_flow_profile.py -q

# Sharded serving throughput + classifier batch occupancy (writes
# benchmarks/results/serve_throughput.json and a rendered table).
bench-serve:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_serve_throughput.py

# Fixed resyn2 vs the budgeted tuner at equal wall-budget on the layered
# suite; merges the tune-search rows into BENCH_engine.json (seeded,
# cpu_count stamped, every tuned result CEC-verified).
bench-tune:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_tune.py

# Leave-one-out training cost on the elfbench arith/industrial suites:
# median seconds, optimizer steps, ms/step and a digest of every trained
# classifier; merges the `train` rows into BENCH_engine.json.
bench-train:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_train.py

# Store-key cost of a repeat served request on the elfbench serve pools:
# median ms of parse+digest keying vs the text-memo hit, plus a sha256
# over the keys both paths produce (must be equal); merges the
# `serve_key` rows into BENCH_engine.json.
bench-key:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_serve_key.py

# The resynthesis kernels' process-wide memos on the elfbench workloads:
# cold ISOP / factoring seconds over the distinct rf/rfz cut functions,
# the memo entries and deep bytes they leave, and the VmHWM growth of
# one process serving the serve pool through `b; rf`; merges the
# `resynth_memo` rows into BENCH_engine.json.
bench-memo:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_resynth_memo.py

# Full paper benchmark suite (trains/caches classifiers on first run).
bench-all:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks -q

clean:
	rm -rf benchmarks/results .pytest_cache
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
