"""One benchmark run: the untraced end-to-end run and the traced per-layer run.

The parent process only generates inputs and forks a child for every
set-up, timed command, replay and check (``isolate``), so each timing
starts from cold process-wide caches.  The closed-loop serve stream is
driven from the parent over one connection to a separate service process, in
segments between the timed commands; its reference outputs are computed
afterwards, in children.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import time
from dataclasses import dataclass, field

from repro import obs

from . import flows, isolate, layers, serving, workloads

SETUP_REPEATS = 3
MIN_SAMPLES = 3
# pf's two workers need both cores free, so its wall varies most between
# samples; it gets more of them.
MIN_SAMPLES_BY_COMMAND = {"pf": 5}
MAX_SAMPLES = 10

E2E_UNITS = {
    "setup_s": "s",
    "rf_s": "s",
    "elf_s": "s",
    "resyn2_s": "s",
    "pf_s": "s",
    "rf_ands": "count",
    "elf_ands": "count",
    "resyn2_ands": "count",
    "pf_ands": "count",
    "fail_frac": "frac",
    "peak_rss_mb": "MB",
    "req_per_s": "1/s",
    "miss_p50_s": "s",
    "miss_p90_s": "s",
    "hit_p50_s": "s",
}

PAPER_SPEEDUP = "2.5-7.7x"  # ELF over ABC rf, Table III


@dataclass
class Ledger:
    """Operations attempted/failed, output checks, memory and report lines."""

    verified: set = field(default_factory=set)  # (circuit, output digest) checked
    # One flow operation is one circuit through one command; every round
    # repeats the same operations, so they are counted once.
    flow_ops: set = field(default_factory=set)
    flow_failed: set = field(default_factory=set)
    requests: int = 0
    requests_failed: int = 0
    correct: bool = True
    peak_rss_mb: float = 0.0
    host: isolate.HostSample = field(default_factory=isolate.HostSample)
    lines: list = field(default_factory=list)

    def child(self, label: str, result: isolate.ChildResult, wall_s: float) -> None:
        self.peak_rss_mb = max(self.peak_rss_mb, result.peak_rss_mb)
        h = result.host
        self.lines.append(
            f"  {label:<16} wall {wall_s:8.3f} s  cpu {h.cpu_s:8.3f} s  "
            f"steal {100 * h.steal_frac:5.2f}%  peak {result.peak_rss_mb:7.1f} MB"
        )

    @property
    def attempted(self) -> int:
        return len(self.flow_ops) + self.requests

    @property
    def failed(self) -> int:
        return len(self.flow_failed) + self.requests_failed

    def wrong(self, message: str) -> None:
        self.correct = False
        self.lines.append(f"  CHECK FAILED: {message}")


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list) -> float:
    """The 90th percentile (``statistics.quantiles``, exclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


# -- shared phases ------------------------------------------------------------


def _setup(wl, ledger: Ledger, repeats: int, tmp: str | None) -> list:
    results = []
    for i in range(repeats):
        child = isolate.run(flows.setup, wl.name, tmp)
        ledger.child(f"setup#{i + 1}", child, child.value.wall_s)
        results.append(child.value)
    return results


def _command(wl, command: str, classifiers: dict, seed: int, ledger: Ledger,
             label: str, tmp: str | None = None) -> flows.CommandResult:
    child = isolate.run(flows.run_command, wl.suite, command, classifiers, wl.check, seed,
                        frozenset(ledger.verified), tmp)
    result = child.value
    ledger.verified |= result.verified
    ledger.child(label, child, result.wall_s)
    ledger.flow_ops.update((command, name) for name in wl.suite)
    ledger.flow_failed.update((command, name) for name in result.failures)
    for name in result.failures:
        ledger.wrong(f"{command} output of {name} is not equivalent to its input")
    return result


class ServeStream:
    """The service, booted once and driven in segments between timed commands.

    Spreading the stream over the run keeps one burst of host noise from
    landing on every latency sample.  Use as a context manager: entering
    boots the service (its first ping and the warm-up requests), exiting
    stops it.
    """

    def __init__(self, wl, requests: list, tmp: str, root: str, segments: int) -> None:
        self.wl = wl
        self.requests = requests
        self.socket_path = os.path.relpath(os.path.join(tmp, "serve.sock"), root)
        self.service = serving.Service(
            root, self.socket_path,
            serving.service_env(root, os.path.join(tmp, "repro_cache")),
            os.path.join(tmp, "serve.log"),
        )
        n = len(requests)
        self.bounds = [round(n * k / segments) for k in range(segments + 1)]
        self.segment = 0
        self.samples: list = []
        self.misses: list = []  # latency seconds of answered store misses
        self.hits: list = []
        self.runtimes: list = []  # shard runtime of each miss
        self.overheads: list = []  # miss latency minus shard runtime
        self.wall_s = 0.0
        self.boot_s = 0.0
        self.stats: dict = {}
        self.peak_rss_mb = 0.0

    def __enter__(self) -> "ServeStream":
        try:
            with obs.span("serve.boot") as boot:
                self.service.boot()
                for name, bench in self.wl.warmup:
                    reply = self.service.call({"op": "optimize", "name": name, "bench": bench})
                    if not reply.get("ok"):
                        raise RuntimeError(f"warm-up request {name} failed")
        except BaseException:
            self.service.stop()
            raise
        self.boot_s = boot.duration
        return self

    def drive_segment(self) -> None:
        lo, hi = self.bounds[self.segment], self.bounds[self.segment + 1]
        self.segment += 1
        samples, wall = serving.drive(self.socket_path, self.requests, range(lo, hi))
        self.samples += samples
        self.wall_s += wall

    def __exit__(self, *exc_info) -> None:
        try:
            if exc_info[0] is None:
                self.stats = self.service.call({"op": "stats"})
                self.peak_rss_mb = self.service.peak_rss_mb()
        finally:
            self.service.stop()

    def check(self, ledger: Ledger) -> None:
        """Check every answer, count failures, split latencies by outcome."""
        ledger.peak_rss_mb = max(ledger.peak_rss_mb, self.peak_rss_mb)
        ledger.lines.append(
            f"  {'serve boot':<16} wall {self.boot_s:8.3f} s  (stream {self.wall_s:.3f} s "
            f"in {self.segment} segments, service peak {self.peak_rss_mb:.1f} MB)"
        )
        _check_served(self.requests, self.samples, ledger)
        for sample in self.samples:
            ledger.requests += 1
            if not sample.ok:
                ledger.requests_failed += 1
            elif sample.cached:
                self.hits.append(sample.latency_s)
            else:
                self.misses.append(sample.latency_s)
                self.runtimes.append(sample.runtime_s)
                self.overheads.append(sample.latency_s - sample.runtime_s)


def _check_served(requests: list, samples: list, ledger: Ledger) -> None:
    """Every answer must be byte-identical to a blocking ``OptSession.run``.

    A hit returns the text the store kept from the circuit's first
    answered request, so it is compared with that request's reference.
    """
    computed = [(requests[s.index].name, requests[s.index].bench)
                for s in samples if s.ok and not s.cached]
    halves = [computed[0::2], computed[1::2]]
    handles = [isolate.start(serving.reference_texts, half) for half in halves]
    expected, failure = {}, None
    for handle in handles:  # wait for both children even if one failed
        try:
            expected.update(isolate.finish(handle).value)
        except isolate.ChildFailed as error:
            failure = failure or error
    if failure is not None:
        raise failure
    first_answer = {}
    for s in samples:
        if s.ok and not s.cached:
            first_answer.setdefault(requests[s.index].circuit, s.name)
    for s in samples:
        if not s.ok:
            continue
        key = first_answer.get(requests[s.index].circuit) if s.cached else s.name
        if key is None or s.bench != expected.get(key):
            s.ok = False
            ledger.wrong(f"served result for {s.name} differs from OptSession.run")


def _serve_summary(result: ServeStream) -> dict:
    n_ok = sum(1 for s in result.samples if s.ok)
    return {
        "req_per_s": n_ok / result.wall_s if result.wall_s > 0 else 0.0,
        "miss_p50_s": _median(result.misses),
        "miss_p90_s": _p90(result.misses),
        "hit_p50_s": _median(result.hits),
    }


def _serve_lines(result: ServeStream) -> list:
    dropped = sum(1 for s in result.samples if s.error == "dropped")
    return [
        f"  serve: {len(result.samples)} requests, {len(result.misses)} misses, "
        f"{len(result.hits)} hits, {dropped} dropped over the 64 KiB line limit",
        f"  miss p50 {_median(result.misses):.4f} s / p90 {_p90(result.misses):.4f} s "
        f"(n={len(result.misses)}, "
        f"{sum(1 for x in result.misses if x > _p90(result.misses))} beyond p90); "
        f"hit p50 {_median(result.hits):.4f} s (n={len(result.hits)})",
    ]


# -- the untraced end-to-end run ------------------------------------------------


def _plan(first_walls: dict, share: float) -> dict:
    """Samples per command: enough for ``share`` seconds, within the
    command's minimum and MAX_SAMPLES."""
    return {
        c: min(MAX_SAMPLES, max(MIN_SAMPLES_BY_COMMAND.get(c, MIN_SAMPLES),
                                math.ceil(share / max(wall, 1e-3))))
        for c, wall in first_walls.items()
    }


def end_to_end(name: str, seed: int, seconds: int, tmp: str, root: str) -> tuple:
    """Returns ``(metrics, ledger)`` for the untraced run.

    The first round times every command once; its walls size each
    command's sample count so that each gets an equal share of
    ``seconds``.  Later rounds spread every command's samples evenly over
    the run, and the serve stream runs in three segments: before, amid
    and after the rounds.
    """
    ledger = Ledger()
    with isolate.HostMeter() as run_meter:
        wl = workloads.build(name)
        requests = workloads.request_stream(wl.pool, seed)
        rng = random.Random(seed)

        setups = _setup(wl, ledger, SETUP_REPEATS, None)
        classifiers = setups[0].classifiers

        walls = {c: [] for c in workloads.COMMANDS}
        ands = {c: set() for c in workloads.COMMANDS}

        def sample(commands: list) -> None:
            rng.shuffle(commands)
            for command in commands:
                result = _command(wl, command, classifiers, seed, ledger,
                                  f"{command}#{len(walls[command]) + 1}")
                walls[command].append(result.wall_s)
                ands[command].add(result.ands)

        with ServeStream(wl, requests, tmp, root, segments=3) as stream:
            stream.drive_segment()
            sample(list(workloads.COMMANDS))
            plan = _plan({c: w[0] for c, w in walls.items()}, seconds / len(workloads.COMMANDS))
            rounds = max(plan.values())
            for r in range(1, rounds):
                if r == rounds // 2:
                    stream.drive_segment()
                sample([c for c in workloads.COMMANDS
                        if len(walls[c]) < math.ceil((r + 1) * plan[c] / rounds)])
            stream.drive_segment()
        stream.check(ledger)
        for command, seen in ands.items():
            if len(seen) != 1:
                ledger.wrong(f"{command} AND counts differ between samples: {sorted(seen)}")

    metrics = {
        "setup_s": _median([s.wall_s for s in setups]) + stream.boot_s,
        **{f"{c}_s": _median(walls[c]) for c in workloads.COMMANDS},
        **{f"{c}_ands": min(ands[c]) for c in workloads.COMMANDS},
        "fail_frac": ledger.failed / ledger.attempted,
        "peak_rss_mb": ledger.peak_rss_mb,
        **_serve_summary(stream),
    }
    ledger.host = run_meter.sample
    ledger.lines += _serve_lines(stream)
    ledger.lines.append(
        f"  elf vs rf: {metrics['rf_s'] / metrics['elf_s']:.2f}x at "
        f"{100 * (metrics['elf_ands'] - metrics['rf_ands']) / metrics['rf_ands']:+.2f}% ANDs "
        f"(paper: {PAPER_SPEEDUP}); samples "
        + ", ".join(f"{c} {len(w)}" for c, w in walls.items())
    )
    return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, ledger


# -- the traced per-layer run ---------------------------------------------------


def _sum_stats(result: flows.CommandResult, attr: str) -> float:
    return sum(
        getattr(detail, attr, 0) or 0
        for steps in result.steps.values()
        for _cmd, _rt, detail in steps
    )


def _step_seconds(result: flows.CommandResult, command: str) -> float:
    return sum(
        runtime
        for steps in result.steps.values()
        for cmd, runtime, _detail in steps
        if cmd == command
    )


def per_layer(name: str, seed: int, seconds: int, tmp: str, root: str) -> tuple:
    """Returns ``(metrics, ledger)`` for the traced run.

    Each command runs once untraced and once traced, in an order drawn
    from the seed; the pair gives ``obs.trace_overhead_pct``.
    """
    ledger = Ledger()
    m: dict = {}
    self_s: dict = {}
    cover: dict = {}
    export_s = 0.0
    with isolate.HostMeter() as run_meter:
        with obs.span("circuits.generate") as gen:
            wl = workloads.build(name)
        requests = workloads.request_stream(wl.pool, seed)
        rng = random.Random(seed)

        obs.configure(enabled=True)
        setup = _setup(wl, ledger, 1, tmp)[0]
        export_s += setup.export_s
        classifiers = setup.classifiers
        layers.add_into(self_s, layers.self_times(flows.trace_path(tmp, "setup"))[0])
        m["circuits.gen_s"] = (setup.gen_s, "s")
        m["elf.harvest_s"] = (setup.harvest_s, "s")
        m["ml.train_s"] = (setup.train_s, "s")

        obs.configure(enabled=False)
        child = isolate.run(flows.replay_kernels, wl.suite)
        replay = child.value
        ledger.child("kernel replay", child, replay.wall_s)
        shares = replay.resynth_shares()
        child = isolate.run(flows.warm_engine)
        ledger.child("engine warm", child, child.value)
        m["engine.warm_s"] = (child.value, "s")

        plain, traced = {}, {}
        order = list(workloads.COMMANDS)
        rng.shuffle(order)
        obs.configure(enabled=True)
        with ServeStream(wl, requests, tmp, root, segments=3) as stream:
            for i, command in enumerate(order):
                if i % 2 == 0:
                    obs.configure(enabled=True)
                    stream.drive_segment()
                for tracing in ((False, True) if i % 2 == 0 else (True, False)):
                    obs.configure(enabled=tracing)
                    result = _command(wl, command, classifiers, seed, ledger,
                                      f"{command}{' traced' if tracing else ''}",
                                      tmp if tracing else None)
                    (traced if tracing else plain)[command] = result
            obs.configure(enabled=True)
            stream.drive_segment()
        obs.configure(enabled=False)
        stream.check(ledger)
        for command, result in traced.items():
            export_s += result.export_s
            part, unattributed = layers.self_times(flows.trace_path(tmp, command))
            layers.split_refactor_buckets(part, result.steps, shares)
            layers.add_into(self_s, part)
            cover[command] = 1.0 - unattributed / result.wall_s

        child = isolate.run(serving.parse_digest_seconds, [r.bench for r in requests])
        parse_s = _median(child.value)
        t0 = time.perf_counter()
        obs.export_trace(flows.trace_path(tmp, "serve"))
        export_s += time.perf_counter() - t0
        layers.add_into(self_s, layers.self_times(flows.trace_path(tmp, "serve"))[0])
    self_s["obs"] = self_s.get("obs", 0.0) + export_s
    self_s["circuits"] = self_s.get("circuits", 0.0) + gen.duration

    m["cuts.reconv_cut_s"] = (replay.reconv_cut_s, "s")
    m["cuts.calls"] = (replay.calls, "count")
    m["aig.cone_truth_s"] = (replay.cone_truth_s, "s")
    m["tt.isop_s"] = (replay.isop_s, "s")
    m["tt.isop_memo_hits"] = (replay.isop_memo_hits, "count")
    m["factor.factor_s"] = (replay.factor_s, "s")
    m["factor.count_tree_s"] = (replay.count_tree_s, "s")

    rf, elf = traced["rf"], traced["elf"]
    cuts = _sum_stats(rf, "cuts_formed")
    m["rf.cuts_formed"] = (cuts, "count")
    m["rf.commits"] = (_sum_stats(rf, "commits"), "count")
    m["rf.success_ratio"] = (_sum_stats(rf, "commits") / cuts if cuts else 0.0, "frac")
    visited = _sum_stats(elf, "nodes_visited")
    survivors = _sum_stats(elf, "cuts_formed")
    elf_commits = _sum_stats(elf, "commits")
    m["elf.pruned_frac"] = (_sum_stats(elf, "pruned") / visited if visited else 0.0, "frac")
    m["elf.survivors"] = (survivors, "count")
    m["elf.survived_no_gain"] = (survivors - elf_commits, "count")
    m["elf.precision"] = (elf_commits / survivors if survivors else 0.0, "frac")
    m["elf.infer_s"] = (_sum_stats(elf, "time_inference"), "s")
    speedup = plain["rf"].wall_s / plain["elf"].wall_s
    delta = 100.0 * (plain["elf"].ands - plain["rf"].ands) / plain["rf"].ands
    m["elf.speedup"] = (speedup, "x")
    m["elf.and_delta_pct"] = (delta, "%")

    for step in ("b", "rw", "rf", "rwz", "rfz"):
        m[f"resyn2.{step}_s"] = (_step_seconds(traced["resyn2"], step), "s")

    pf = traced["pf"]
    m["engine.waves"] = (_sum_stats(pf, "n_waves"), "count")
    m["engine.conflict_edges"] = (_sum_stats(pf, "n_conflict_edges"), "count")
    m["engine.unique_tasks"] = (_sum_stats(pf, "n_unique_tasks"), "count")
    m["engine.cache_hits"] = (_sum_stats(pf, "n_cache_hits"), "count")
    m["engine.parallel_s"] = (_sum_stats(pf, "time_parallel"), "s")

    cache = stream.stats.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    shard_s = _median(stream.runtimes)
    miss_p50 = _median(stream.misses)
    m["serve.boot_s"] = (stream.boot_s, "s")
    m["serve.hit_frac"] = (cache.get("hits", 0) / lookups if lookups else 0.0, "frac")
    m["serve.shard_runtime_s"] = (shard_s, "s")
    m["serve.front_overhead_s"] = (_median(stream.overheads), "s")
    m["serve.parse_digest_s"] = (parse_s, "s")
    m["serve.request_bytes_max"] = (max(s.bytes_sent for s in stream.samples), "bytes")
    m["serve.miss_samples"] = (len(stream.misses), "count")
    m["serve.hit_samples"] = (len(stream.hits), "count")

    m["verify.check_s"] = (sum(r.verify_s for r in traced.values()), "s")
    untraced = sum(r.wall_s for r in plain.values())
    m["obs.trace_overhead_pct"] = (
        100.0 * (sum(r.wall_s for r in traced.values()) - untraced) / untraced, "%"
    )
    m["host.cpu_s"] = (run_meter.sample.cpu_s, "s")
    m["host.steal_frac"] = (run_meter.sample.steal_frac, "frac")
    for layer in layers.LAYERS:
        m[f"self.{layer}_s"] = (self_s.get(layer, 0.0), "s")
    for command in workloads.COMMANDS:
        m[f"cover.{command}_s"] = (cover[command], "frac")
    m["cover.miss_p50_s"] = ((shard_s + parse_s) / miss_p50 if miss_p50 else 0.0, "frac")

    ledger.host = run_meter.sample
    ledger.lines += _serve_lines(stream)
    ledger.lines.append(
        f"  elf.speedup {speedup:.2f}x at {delta:+.2f}% ANDs (paper: {PAPER_SPEEDUP}); "
        f"pruned {100 * m['elf.pruned_frac'][0]:.1f}% of nodes; "
        f"rf commits {100 * m['rf.success_ratio'][0]:.1f}% of cuts"
    )
    ledger.lines.append(
        "  self time: " + ", ".join(f"{k} {self_s.get(k, 0.0):.2f}s" for k in layers.LAYERS)
    )
    ledger.lines.append(
        "  coverage: " + ", ".join(f"{k} {100 * v:.1f}%" for k, v in cover.items())
        + f", miss_p50_s {100 * m['cover.miss_p50_s'][0]:.1f}%"
    )
    return m, ledger
