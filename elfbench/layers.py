"""Per-layer attribution of a traced run.

Self time comes from exported Chrome traces: a span's self time is its
duration minus the durations of its direct children, credited to the
layer its name starts with.  Program spans outside the layer names map
onto the layer that owns them (``flow.*`` is the ``opt`` session).
``bench.*`` spans are the benchmark's own loop and count for no layer,
so time outside any layer span stays unattributed and lowers coverage.

The library has no spans below a whole pass, so the per-kernel split of
a sequential refactor pass is read from its public ``RefactorStats``
timing buckets; the ``time_resynth`` bucket is split by the shares the
kernel replay measured.
"""

from __future__ import annotations

import json
from collections import defaultdict

from repro.engine import EngineStats
from repro.opt.refactor import RefactorStats

LAYERS = (
    "circuits", "aig", "cuts", "tt", "factor", "opt",
    "elf", "ml", "engine", "serve", "verify", "obs",
)
_ALIASES = {"flow": "opt", "tune": "opt"}


def layer_of(span_name: str) -> str | None:
    head = span_name.split(".", 1)[0]
    head = _ALIASES.get(head, head)
    return head if head in LAYERS else None


def self_times(trace_file: str) -> tuple[dict, float]:
    """``(layer -> self seconds, unattributed self seconds)`` of one trace."""
    with open(trace_file, encoding="utf-8") as handle:
        events = [e for e in json.load(handle)["traceEvents"] if e.get("ph") == "X"]
    child_us: dict[int, float] = defaultdict(float)
    for e in events:
        child_us[e["args"]["parent_id"]] += e["dur"]
    layers: dict[str, float] = defaultdict(float)
    unattributed = 0.0
    for e in events:
        own = max(0.0, e["dur"] - child_us.get(e["args"]["span_id"], 0.0)) / 1e6
        layer = layer_of(e["name"])
        if layer is None:
            unattributed += own
        else:
            layers[layer] += own
    return dict(layers), unattributed


def split_refactor_buckets(layers: dict, steps: dict, shares: dict) -> None:
    """Move sequential refactor/ELF kernel time out of the pass's layer.

    ``steps`` is ``circuit -> [(command, runtime, detail)]``.  For each
    sequential pass (``RefactorStats`` detail, not the engine's
    subclass), cut time goes to ``cuts``, cone truth and commit to
    ``aig``, and resynthesis to ``aig``/``tt``/``factor`` by ``shares``.
    """
    for circuit_steps in steps.values():
        for command, _runtime, detail in circuit_steps:
            if not isinstance(detail, RefactorStats) or isinstance(detail, EngineStats):
                continue
            owner = "elf" if command.startswith("elf") else "opt"
            moved = {
                "cuts": detail.time_cut,
                "aig": detail.time_truth + detail.time_commit
                + detail.time_resynth * shares["aig"],
                "tt": detail.time_resynth * shares["tt"],
                "factor": detail.time_resynth * shares["factor"],
            }
            for layer, seconds in moved.items():
                layers[layer] = layers.get(layer, 0.0) + seconds
                layers[owner] = layers.get(owner, 0.0) - seconds


def add_into(total: dict, part: dict) -> None:
    for layer, seconds in part.items():
        total[layer] = total.get(layer, 0.0) + seconds
