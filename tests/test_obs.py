"""Tests for the unified tracing + metrics subsystem (``repro.obs``).

Covers the registry (instruments, snapshot/merge), the span core
(nesting, disabled fast path), every exporter's format contract, and
the end-to-end trace of a ``pf -w 2`` flow (span hierarchy, phase
coverage, counter/stats agreement, CLI ``--trace``).  Flows run on the
``screen_circuits`` fixtures, whose outputs are not constant.
"""

import json
import math
import threading

import pytest

from repro import obs
from repro.aig import full_mask
from repro.circuits.arith import divider
from repro.obs.core import DisabledSpan, Span, Tracer
from repro.obs.metrics import MetricsRegistry, parse_series_key, _series_key
from repro.opt import run_flow

from .util import po_truth_tables


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts (and leaves) with tracing off and empty stores."""
    obs.configure(enabled=False)
    obs.reset()
    yield
    obs.configure(enabled=False)
    obs.reset()


class TestSeriesKeys:
    def test_round_trip(self):
        key = _series_key("m_total", {"b": "2", "a": "1"})
        assert key == "m_total{a=1,b=2}"
        assert parse_series_key(key) == ("m_total", {"a": "1", "b": "2"})

    def test_no_labels(self):
        assert _series_key("m", {}) == "m"
        assert parse_series_key("m") == ("m", {})


class TestMetricsRegistry:
    def test_counter_get_or_create_and_total(self):
        reg = MetricsRegistry()
        c1 = reg.counter("hits_total", op="rf")
        c1.add(2)
        assert reg.counter("hits_total", op="rf") is c1
        reg.counter("hits_total", op="rw").add(3)
        assert reg.value("hits_total", op="rf") == 2
        assert reg.total("hits_total") == 5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c_total").add(-1)

    def test_gauge_set_add(self):
        reg = MetricsRegistry()
        g = reg.gauge("occupancy")
        g.set(3)
        g.add(-1)
        assert g.value == 2.0

    def test_histogram_moments_and_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency_seconds")
        for v in (0.0004, 0.02, 0.02, 7.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(7.0404)
        assert h.min == pytest.approx(0.0004)
        assert h.max == pytest.approx(7.0)
        assert h.mean == pytest.approx(7.0404 / 4)
        cumulative = h.cumulative()
        assert cumulative[-1] == (math.inf, 4)
        # Cumulative counts never decrease and end at the total.
        counts = [n for _, n in cumulative]
        assert counts == sorted(counts)

    def test_snapshot_merge_round_trip(self):
        a = MetricsRegistry()
        a.counter("c_total", op="x").add(4)
        a.gauge("g").set(9)
        a.histogram("h_seconds").observe(0.3)
        b = MetricsRegistry()
        b.merge(a.snapshot())
        assert b.snapshot() == a.snapshot()

    def test_merge_accumulates_counters(self):
        a = MetricsRegistry()
        a.counter("c_total").add(2)
        snap = a.snapshot()
        b = MetricsRegistry()
        b.counter("c_total").add(1)
        b.merge(snap)
        b.merge(snap)
        assert b.value("c_total") == 5

    def test_merge_none_is_noop(self):
        reg = MetricsRegistry()
        reg.counter("c_total").add(1)
        reg.merge(None)
        reg.merge({})
        assert reg.value("c_total") == 1

    def test_merge_histograms_folds_moments(self):
        a = MetricsRegistry()
        a.histogram("h").observe(1.0)
        a.histogram("h").observe(3.0)
        b = MetricsRegistry()
        b.histogram("h").observe(2.0)
        b.merge(a.snapshot())
        h = b.histogram("h")
        assert h.count == 3
        assert h.sum == pytest.approx(6.0)
        assert h.min == pytest.approx(1.0)
        assert h.max == pytest.approx(3.0)

    def test_thread_safety_of_counter_adds(self):
        reg = MetricsRegistry()

        def work():
            for _ in range(1000):
                reg.counter("c_total").add(1)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.value("c_total") == 4000


class TestSpans:
    def test_disabled_by_default_times_but_records_nothing(self):
        assert not obs.enabled()
        with obs.span("x") as sp:
            pass
        assert isinstance(sp, DisabledSpan)
        assert sp.duration >= 0.0
        assert len(obs.tracer()) == 0

    def test_enabled_records_with_attrs(self):
        obs.configure(enabled=True)
        with obs.span("phase", items=3) as sp:
            sp.set(done=True)
        spans = obs.tracer().spans()
        assert [s.name for s in spans] == ["phase"]
        assert spans[0].attrs == {"items": 3, "done": True}
        assert spans[0].t1 >= spans[0].t0

    def test_nesting_parent_ids(self):
        obs.configure(enabled=True)
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id == 0

    def test_exception_records_error_attr_and_unwinds(self):
        obs.configure(enabled=True)
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("no")
        (span,) = obs.tracer().spans()
        assert span.attrs["error"] == "RuntimeError"
        # The stack unwound: a new span is a root again.
        with obs.span("after") as after:
            pass
        assert after.parent_id == 0

    def test_threads_get_independent_stacks(self):
        obs.configure(enabled=True)
        seen = {}

        def work():
            with obs.span("thread-root") as sp:
                seen["parent"] = sp.parent_id

        with obs.span("main-root"):
            t = threading.Thread(target=work)
            t.start()
            t.join()
        assert seen["parent"] == 0  # not parented under main-root

    def test_reset_clears_spans(self):
        obs.configure(enabled=True)
        with obs.span("x"):
            pass
        obs.reset()
        assert len(obs.tracer()) == 0


class TestChromeTrace:
    def _traced(self):
        tracer = Tracer()
        with Span(tracer, "pass", {"k": 1}):
            with Span(tracer, "wave", {}):
                pass
            with Span(tracer, "wave", {}):
                pass
        return tracer

    def test_schema_and_validation(self):
        tracer = self._traced()
        obj = obs.chrome_trace(tracer)
        assert obs.validate_chrome_trace(obj) == []
        events = obj["traceEvents"]
        assert events[0]["ph"] == "M"  # process_name metadata
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 3
        for event in complete:
            assert event["dur"] >= 0
            assert {"name", "cat", "ts", "pid", "tid", "args"} <= set(event)
        names = sorted(e["name"] for e in complete)
        assert names == ["pass", "wave", "wave"]

    def test_validator_flags_negative_dur(self):
        bad = {
            "traceEvents": [
                {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": -5}
            ]
        }
        assert any("dur" in e for e in obs.validate_chrome_trace(bad))

    def test_validator_flags_missing_fields(self):
        bad = {"traceEvents": [{"ph": "X", "dur": 1}]}
        errors = obs.validate_chrome_trace(bad)
        assert any("name" in e for e in errors)

    def test_validator_flags_partial_overlap(self):
        bad = {
            "traceEvents": [
                {"name": "a", "ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": 10},
                {"name": "b", "ph": "X", "pid": 1, "tid": 1, "ts": 5, "dur": 10},
            ]
        }
        assert obs.validate_chrome_trace(bad)

    def test_export_file_is_valid_json(self, tmp_path):
        tracer = self._traced()
        path = tmp_path / "trace.json"
        obs.export_chrome_trace(str(path), tracer)
        obj = json.loads(path.read_text())
        assert obs.validate_chrome_trace(obj) == []


class TestPrometheus:
    def test_text_round_trips_through_parser(self):
        reg = MetricsRegistry()
        reg.counter("c_total", op="rf").add(7)
        reg.gauge("g", shard="0").set(2.5)
        reg.histogram("h_seconds").observe(0.03)
        text = obs.prometheus_text(reg)
        samples = obs.parse_prometheus(text)
        assert samples["c_total"] == [({"op": "rf"}, 7.0)]
        assert samples["g"] == [({"shard": "0"}, 2.5)]
        # Histogram: +Inf bucket carries the total count; sum matches.
        buckets = samples["h_seconds_bucket"]
        assert ({"le": "+Inf"} in [lab for lab, _ in buckets])
        assert samples["h_seconds_count"] == [({}, 1.0)]
        assert samples["h_seconds_sum"][0][1] == pytest.approx(0.03)

    def test_type_lines_present(self):
        reg = MetricsRegistry()
        reg.counter("c_total").add(1)
        reg.histogram("h").observe(1)
        text = obs.prometheus_text(reg)
        assert "# TYPE c_total counter" in text
        assert "# TYPE h histogram" in text

    @pytest.mark.parametrize(
        "line",
        [
            "no_value_here",
            "metric{unterminated 3",
            "metric{k=noquotes} 3",
            "1starts_with_digit 3",
            "metric not_a_number",
        ],
    )
    def test_parser_rejects_malformed_lines(self, line):
        with pytest.raises(ValueError):
            obs.parse_prometheus(line)

    def test_empty_registry_empty_text(self):
        assert obs.prometheus_text(MetricsRegistry()) == ""


class TestJsonl:
    def test_round_trip(self, tmp_path):
        obs.configure(enabled=True)
        with obs.span("alpha", n=1):
            pass
        obs.counter("c_total", op="x").add(3)
        obs.histogram("h_seconds").observe(0.5)
        path = tmp_path / "out.jsonl"
        obs.export_trace(str(path))  # .jsonl suffix dispatches to JSONL
        records = obs.read_jsonl(str(path))
        by_type = {}
        for record in records:
            by_type.setdefault(record["type"], []).append(record)
        (span_rec,) = by_type["span"]
        assert span_rec["name"] == "alpha"
        assert span_rec["attrs"] == {"n": 1}
        assert span_rec["dur"] >= 0
        (counter_rec,) = by_type["counter"]
        assert counter_rec["series"] == "c_total{op=x}"
        assert counter_rec["value"] == 3
        (hist_rec,) = by_type["histogram"]
        assert hist_rec["count"] == 1
        assert hist_rec["sum"] == pytest.approx(0.5)

    def test_jsonl_metrics_rebuild_a_registry(self, tmp_path):
        obs.counter("c_total").add(2)
        path = tmp_path / "m.jsonl"
        obs.export_trace(str(path))
        rebuilt = MetricsRegistry()
        snapshot = {"counters": {}, "gauges": {}, "histograms": {}}
        for record in obs.read_jsonl(str(path)):
            if record["type"] == "counter":
                snapshot["counters"][record["series"]] = record["value"]
        rebuilt.merge(snapshot)
        assert rebuilt.value("c_total") == 2


class TestRegistryBackedStats:
    def test_session_stats_read_through(self, screen_circuits):
        g = screen_circuits["div"]
        from repro.opt.session import OptSession

        with OptSession() as session:
            session.run(g.clone(), "b; rf")
            session.run(g.clone(), "b")
            stats = session.stats
        assert stats.runs == 2
        assert stats.commands == 3
        assert stats.cache_created  # rf demanded the resynthesis cache
        reg = obs.metrics()
        assert reg.value("session_runs_total", session=stats.label) == 2
        assert reg.value("session_commands_total", session=stats.label) == 3

    def test_fusion_stats_read_through(self):
        from repro.serve.pool import FusionStats

        stats = FusionStats()
        stats.record_round(3, 120)
        stats.record_round(2, 40)
        assert stats.rounds == [(3, 120), (2, 40)]
        assert stats.n_calls == 2
        assert stats.n_subbatches == 5
        assert stats.n_rows == 160
        assert stats.mean_occupancy == pytest.approx(2.5)
        assert stats.amortization == pytest.approx(1 - 2 / 5)
        reg = obs.metrics()
        assert reg.value("serve_fusion_rounds_total", shard=stats.label) == 2
        assert reg.value("serve_fusion_rows_total", shard=stats.label) == 160

    def test_flow_commands_hit_registry(self, screen_circuits):
        run_flow(screen_circuits["sqrt"].clone(), "b; rf; b")
        reg = obs.metrics()
        assert reg.value("flow_commands_total", command="b") == 2
        assert reg.value("flow_commands_total", command="rf") == 1
        hist = reg.histogram("flow_command_seconds", command="rf")
        assert hist.count == 1
        assert hist.sum > 0


class TestFlowTraceIntegration:
    def _traced_parallel_flow(self):
        obs.configure(enabled=True)
        out, report = run_flow(divider(5), "pf -w 2")
        return out, report

    def test_span_hierarchy_and_census(self):
        _, report = self._traced_parallel_flow()
        stats = report.steps[0].detail
        spans = obs.tracer().spans()
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        (flow_run,) = by_name["flow.run"]
        (flow_cmd,) = by_name["flow.command"]
        (engine_pass,) = by_name["engine.pass"]
        assert flow_cmd.parent_id == flow_run.span_id
        assert engine_pass.parent_id == flow_cmd.span_id
        assert engine_pass.attrs["workers"] == stats.workers == 2
        assert engine_pass.attrs["commits"] == stats.commits > 0
        # The sequential sweep is the pass's one child.
        (sweep,) = by_name["opt.refactor"]
        assert sweep.parent_id == engine_pass.span_id

    def test_phase_durations_cover_the_pass(self):
        self._traced_parallel_flow()
        spans = obs.tracer().spans()
        (engine_pass,) = [s for s in spans if s.name == "engine.pass"]
        children = [s for s in spans if s.parent_id == engine_pass.span_id]
        covered = sum(s.duration for s in children)
        assert covered <= engine_pass.duration * 1.01
        assert covered >= engine_pass.duration * 0.6

    def test_counters_match_engine_stats_exactly(self):
        _, report = self._traced_parallel_flow()
        stats = report.steps[0].detail
        reg = obs.metrics()
        op = {"operator": stats.operator}
        assert reg.value("engine_passes_total", **op) == 1
        assert reg.value("engine_waves_total", **op) == stats.n_waves == 1
        assert reg.value("engine_commits_total", **op) == stats.commits
        assert reg.value("engine_screened_total", **op) == stats.screened
        assert (
            reg.value("engine_cache_hits_total", layer="exact", **op)
            == stats.n_cache_hits
        )
        assert reg.value("flow_commands_total", command="pf") == 1

    def test_stats_timing_fields_are_span_durations(self):
        _, report = self._traced_parallel_flow()
        stats = report.steps[0].detail
        spans = obs.tracer().spans()
        (sweep,) = [s for s in spans if s.name == "opt.refactor"]
        assert stats.time_total == pytest.approx(sweep.duration)
        (engine_pass,) = [s for s in spans if s.name == "engine.pass"]
        assert stats.time_total <= engine_pass.duration
        hist = obs.metrics().histogram(
            "engine_pass_seconds", operator=stats.operator, workers="2"
        )
        assert hist.count == 1
        assert hist.sum == pytest.approx(stats.time_total)

    def test_chrome_export_of_flow_is_valid(self, tmp_path):
        self._traced_parallel_flow()
        path = tmp_path / "flow.json"
        obs.export_trace(str(path))
        obj = json.loads(path.read_text())
        assert obs.validate_chrome_trace(obj) == []
        names = {e["name"] for e in obj["traceEvents"] if e.get("ph") == "X"}
        assert {"flow.run", "flow.command", "engine.pass", "opt.refactor"} <= names

    def test_disabled_tracing_keeps_flow_output_identical(self, screen_circuits):
        from repro.aig.io_bench import to_text

        g = screen_circuits["hyp"]
        baseline, _ = run_flow(g.clone(), "b; rf; b")
        obs.configure(enabled=True)
        traced, _ = run_flow(g.clone(), "b; rf; b")
        # Constant outputs would make the comparison vacuous.
        ones = full_mask(len(baseline.pis))
        assert all(tt not in (0, ones) for tt in po_truth_tables(baseline))
        assert to_text(baseline) == to_text(traced)


class TestCli:
    def test_trace_and_metrics_flags(self, tmp_path, screen_circuits):
        from repro.__main__ import main
        from repro.aig.io_bench import write

        g = screen_circuits["log2"]
        in_path = tmp_path / "in.bench"
        out_path = tmp_path / "out.bench"
        trace_path = tmp_path / "trace.json"
        prom_path = tmp_path / "metrics.prom"
        write(g, str(in_path))
        code = main(
            [
                "b; rf",
                str(in_path),
                "-o",
                str(out_path),
                "-q",
                "--trace",
                str(trace_path),
                "--metrics",
                str(prom_path),
            ]
        )
        assert code == 0
        obj = json.loads(trace_path.read_text())
        assert obs.validate_chrome_trace(obj) == []
        names = {e["name"] for e in obj["traceEvents"] if e.get("ph") == "X"}
        assert "flow.run" in names and "flow.command" in names
        samples = obs.parse_prometheus(prom_path.read_text())
        assert samples["flow_commands_total"]
        assert out_path.is_file()
