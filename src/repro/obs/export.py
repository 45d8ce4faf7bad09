"""Exporters: Chrome trace-event JSON, Prometheus text, JSONL.

Three serializations of the same two stores (the span tracer and the
metrics registry), so one instrumented run can feed a timeline viewer,
a scraper, and offline tooling without re-running anything:

* **Chrome trace** (:func:`chrome_trace` / :func:`export_chrome_trace`)
  — the trace-event format ``chrome://tracing`` and Perfetto load; every
  span becomes a complete (``"ph": "X"``) event with microsecond
  ``ts``/``dur`` relative to the tracer epoch, span attributes in
  ``args``, and real pid/tid so operator sweeps nest visually under
  their flow command.
* **Prometheus** (:func:`prometheus_text` / :func:`export_prometheus`)
  — the text exposition format: counters/gauges as single samples,
  histograms as cumulative ``_bucket{le=...}`` series plus ``_sum`` /
  ``_count``.
* **JSONL** (:func:`export_jsonl` / :func:`read_jsonl`) — one JSON
  object per line (``{"type": "span" | "counter" | ...}``), the
  round-trippable archive format.

:func:`export_trace` dispatches on the path suffix (``.jsonl`` writes
JSONL, anything else Chrome JSON) — the ``python -m repro --trace``
backend.  :func:`validate_chrome_trace` and :func:`parse_prometheus`
are the minimal schema checkers the tests and ``make trace-demo`` gate
artifacts with.
"""

from __future__ import annotations

import json
import math

from .core import Tracer
from .metrics import MetricsRegistry, _series_key


def _events(tracer: Tracer) -> list[dict]:
    epoch = tracer.epoch
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": tracer.pid,
            "tid": 0,
            "ts": 0,
            "args": {"name": "repro"},
        }
    ]
    for span in tracer.spans():
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": round((span.t0 - epoch) * 1e6, 3),
                "dur": round((span.t1 - span.t0) * 1e6, 3),
                "pid": tracer.pid,
                "tid": span.tid,
                "args": dict(span.attrs, span_id=span.span_id, parent_id=span.parent_id),
            }
        )
    return events


def chrome_trace(tracer: Tracer) -> dict:
    """The tracer's spans as a Chrome trace-event JSON object."""
    return {"traceEvents": _events(tracer), "displayTimeUnit": "ms"}


def export_chrome_trace(path: str, tracer: Tracer) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(tracer), handle, indent=1)
        handle.write("\n")


def validate_chrome_trace(obj: dict) -> list[str]:
    """Schema errors of a Chrome trace object (empty list = valid).

    Checks the trace-event contract the viewers rely on: a
    ``traceEvents`` list whose events carry ``name``/``ph``/``pid``/
    ``tid``/``ts`` (plus ``dur >= 0`` for complete events), and — per
    thread — consistent nesting: any two complete events either nest
    strictly or do not overlap.
    """
    errors: list[str] = []
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents: missing or not a list"]
    complete: dict[tuple, list[tuple[float, float, str]]] = {}
    for i, event in enumerate(events):
        missing = [f for f in ("name", "ph", "pid", "tid", "ts") if f not in event]
        for field in missing:
            errors.append(f"event {i}: missing {field!r}")
        if event.get("ph") == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"event {i}: complete event needs dur >= 0")
            elif not missing:
                complete.setdefault((event["pid"], event["tid"]), []).append(
                    (float(event["ts"]), float(event["ts"]) + float(dur), event["name"])
                )
    for (pid, tid), spans in complete.items():
        # Parents first at equal start times (longest span outermost).
        spans.sort(key=lambda s: (s[0], -s[1]))
        open_stack: list[tuple[float, float, str]] = []
        for t0, t1, name in spans:
            while open_stack and open_stack[-1][1] <= t0 + 1e-9:
                open_stack.pop()
            if open_stack and t1 > open_stack[-1][1] + 1e-6:
                errors.append(
                    f"tid {tid}: {name!r} overlaps {open_stack[-1][2]!r} "
                    "without nesting"
                )
            open_stack.append((t0, t1, name))
    return errors


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _label_str(labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{k}="{merged[k]}"' for k in sorted(merged))
    return "{" + inner + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in the Prometheus text exposition format."""
    lines: list[str] = []
    seen_types: set[str] = set()

    def _type_line(name: str, kind: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for counter in sorted(registry.counters(), key=lambda c: _series_key(c.name, c.labels)):
        _type_line(counter.name, "counter")
        lines.append(f"{counter.name}{_label_str(counter.labels)} {_fmt(counter.value)}")
    for gauge in sorted(registry.gauges(), key=lambda g: _series_key(g.name, g.labels)):
        _type_line(gauge.name, "gauge")
        lines.append(f"{gauge.name}{_label_str(gauge.labels)} {_fmt(gauge.value)}")
    for hist in sorted(registry.histograms(), key=lambda h: _series_key(h.name, h.labels)):
        _type_line(hist.name, "histogram")
        for bound, count in hist.cumulative():
            le = _label_str(hist.labels, {"le": _fmt(bound)})
            lines.append(f"{hist.name}_bucket{le} {count}")
        lines.append(f"{hist.name}_sum{_label_str(hist.labels)} {_fmt(hist.sum)}")
        lines.append(f"{hist.name}_count{_label_str(hist.labels)} {hist.count}")
    return "\n".join(lines) + "\n" if lines else ""


def export_prometheus(path: str, registry: MetricsRegistry) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(prometheus_text(registry))


def parse_prometheus(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Minimal line-format parser: metric -> [(labels, value), ...].

    Raises ``ValueError`` on any line that is neither a comment nor a
    well-formed sample — the checker the exporter tests (and external
    scrape smoke tests) run over :func:`prometheus_text` output.
    """
    samples: dict[str, list[tuple[dict, float]]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ValueError(f"line {lineno}: no value: {line!r}")
        try:
            value = float(value_part.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError as error:
            raise ValueError(f"line {lineno}: bad value {value_part!r}") from error
        labels: dict = {}
        name = name_part
        if "{" in name_part:
            if not name_part.endswith("}"):
                raise ValueError(f"line {lineno}: unterminated labels: {line!r}")
            name, _, inner = name_part[:-1].partition("{")
            for item in filter(None, inner.split(",")):
                key, eq, raw = item.partition("=")
                if eq != "=" or not (raw.startswith('"') and raw.endswith('"')):
                    raise ValueError(f"line {lineno}: bad label {item!r}")
                labels[key] = raw[1:-1]
        if not name or not name[0].isalpha():
            raise ValueError(f"line {lineno}: bad metric name {name!r}")
        samples.setdefault(name, []).append((labels, value))
    return samples


def jsonl_records(tracer: Tracer, registry: MetricsRegistry) -> list[dict]:
    """Every span and instrument as one plain-dict record each."""
    records: list[dict] = []
    epoch = tracer.epoch
    for span in tracer.spans():
        records.append(
            {
                "type": "span",
                "name": span.name,
                "ts": round(span.t0 - epoch, 9),
                "dur": round(span.t1 - span.t0, 9),
                "pid": tracer.pid,
                "tid": span.tid,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "attrs": dict(span.attrs),
            }
        )
    snapshot = registry.snapshot()
    for kind in ("counters", "gauges"):
        for key, value in snapshot[kind].items():
            records.append({"type": kind[:-1], "series": key, "value": value})
    for key, data in snapshot["histograms"].items():
        records.append({"type": "histogram", "series": key, **data})
    return records


def export_jsonl(path: str, tracer: Tracer, registry: MetricsRegistry) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in jsonl_records(tracer, registry):
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_jsonl(path: str) -> list[dict]:
    """Parse a JSONL export back into its records (the round-trip read)."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def export_trace(path: str, tracer: Tracer, registry: MetricsRegistry) -> None:
    """Path-suffix dispatch: ``.jsonl`` -> JSONL, else Chrome trace JSON."""
    if str(path).endswith(".jsonl"):
        export_jsonl(path, tracer, registry)
    else:
        export_chrome_trace(path, tracer)
