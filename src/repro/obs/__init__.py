"""``repro.obs`` — unified tracing + metrics for every layer of repro.

One lightweight, dependency-free observability spine shared by the
operators, the engine pass, the flow/session layer and the serve tier:

* **Spans** (:func:`span`) — hierarchical timed regions on
  ``time.perf_counter`` with structured attributes.  Operators emit one
  span per pass (``pf`` wraps it in an ``engine.pass`` span); sessions
  emit one span per flow command; the serve tier one per circuit.
  Tracing is *disabled by default*: the disabled span still measures
  its duration (the stats fields the code always filled keep
  their exact semantics) but records nothing.
* **Metrics** (:func:`metrics`) — an always-on registry of counters /
  gauges / histograms (:mod:`repro.obs.metrics`).  A registry
  serializes to a :meth:`MetricsRegistry.snapshot` that another
  registry folds in with :meth:`MetricsRegistry.merge`.
* **Exporters** (:mod:`repro.obs.export`) — Chrome trace-event JSON
  (load a flow in ``chrome://tracing`` / Perfetto and read passes off a
  timeline), Prometheus text format, and round-trippable JSONL; the
  ``python -m repro --trace out.json`` / ``--metrics out.prom`` flags
  drive them from the CLI.

Typical embedding::

    from repro import obs

    obs.configure(enabled=True)
    out, report = run_flow(g, "pf -w 2; b")
    obs.export_trace("flow.json")          # Chrome trace by suffix
    print(obs.prometheus_text(obs.metrics()))

:func:`configure`/:func:`reset` manage one process-wide state; tests and
benchmarks call ``obs.reset()`` to start from a clean tracer/registry.
"""

from __future__ import annotations

import itertools
import threading

from .core import DisabledSpan, Span, Tracer
from .export import (
    chrome_trace,
    export_chrome_trace,
    export_jsonl,
    export_prometheus,
    export_trace as _export_trace,
    jsonl_records,
    parse_prometheus,
    prometheus_text,
    read_jsonl,
    validate_chrome_trace,
)
from .metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry

_lock = threading.Lock()
_enabled = False
_tracer = Tracer()
_registry = MetricsRegistry()
_sequence = itertools.count(1)


def configure(enabled: bool | None = None) -> None:
    """Turn tracing on/off process-wide (metrics are always on)."""
    global _enabled
    with _lock:
        if enabled is not None:
            _enabled = bool(enabled)


def enabled() -> bool:
    """Whether span recording is currently on."""
    return _enabled


def span(name: str, **attrs):
    """A span context manager; a non-recording timer when tracing is off."""
    if not _enabled:
        return DisabledSpan()
    return Span(_tracer, name, attrs)


def tracer() -> Tracer:
    """The process-wide span store."""
    return _tracer


def metrics() -> MetricsRegistry:
    """The process-wide (always-on) metrics registry."""
    return _registry


def counter(name: str, **labels) -> Counter:
    """Shorthand for ``metrics().counter(...)``."""
    return _registry.counter(name, **labels)


def gauge(name: str, **labels) -> Gauge:
    return _registry.gauge(name, **labels)


def histogram(name: str, buckets: tuple = DEFAULT_BUCKETS, **labels) -> Histogram:
    return _registry.histogram(name, buckets, **labels)


def next_label(prefix: str) -> str:
    """Process-unique label value (``"s1"``, ``"s2"``, ...) for per-instance
    series — session and shard stats use these so their registry series
    never collide."""
    return f"{prefix}{next(_sequence)}"


def reset() -> None:
    """Clear recorded spans and every metric series (tests/benchmarks)."""
    _tracer.clear()
    _registry.clear()


def export_trace(path: str) -> None:
    """Write the current trace: ``.jsonl`` -> JSONL, else Chrome JSON."""
    _export_trace(path, _tracer, _registry)


def export_metrics(path: str) -> None:
    """Write the current registry in Prometheus text format."""
    export_prometheus(path, _registry)


__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "DisabledSpan",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "chrome_trace",
    "configure",
    "counter",
    "enabled",
    "export_chrome_trace",
    "export_jsonl",
    "export_metrics",
    "export_prometheus",
    "export_trace",
    "gauge",
    "histogram",
    "jsonl_records",
    "metrics",
    "next_label",
    "parse_prometheus",
    "prometheus_text",
    "read_jsonl",
    "reset",
    "span",
    "tracer",
    "validate_chrome_trace",
]
