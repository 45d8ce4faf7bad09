"""Set-up, the four timed commands, the kernel replay and the pool warm-up.

Each function here is the body of one forked child (see ``isolate``):
it calls the library's public entry points, times them with
``repro.obs`` spans (which time themselves even when tracing is off),
checks every output outside the timed region, and returns plain data.
A span around a call into a layer is named ``<layer>.<call>`` and
carries a ``circuit`` attribute, so the trace credits its self time to
that layer; the benchmark's own loops are ``bench.*`` spans, which
count for no layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import obs
from repro.aig.literal import make_lit
from repro.aig.mffc import mffc_nodes
from repro.aig.simulate import cone_truth, full_mask
from repro.cuts.reconv import reconv_cut
from repro.elf import collect_dataset, train_leave_one_out
from repro.factor.factoring import factor
from repro.factor.to_aig import count_tree
from repro.opt import OptSession
from repro.opt.flow import RESYN2
from repro.opt.refactor import RefactorParams
from repro.tt.isop import isop_exact, isop_memo_hits
from repro.verify.cec import equivalent

from . import workloads

SCRIPTS = {"rf": "rf", "elf": "elf", "resyn2": RESYN2, "pf": "pf -w 2"}
ENGINE_WORKERS = 2
SIM_WORDS = 64  # 4,096 random patterns per industrial screen


def trace_path(tmp: str, label: str) -> str:
    return f"{tmp}/trace-{label}.json"


def _export(tmp: str | None, label: str) -> float:
    """Export this child's spans (when tracing); returns the export time."""
    if tmp is None or not obs.enabled():
        return 0.0
    t0 = time.perf_counter()
    obs.export_trace(trace_path(tmp, label))
    return time.perf_counter() - t0


# -- set-up -----------------------------------------------------------------


@dataclass
class SetupResult:
    wall_s: float
    gen_s: float
    harvest_s: float
    train_s: float
    classifiers: dict
    export_s: float = 0.0


def setup(workload: str, tmp: str | None = None) -> SetupResult:
    """Generate the suite, harvest datasets, train one leave-one-out
    classifier per circuit (the paper's protocol)."""
    with obs.span("bench.setup", workload=workload) as whole:
        with obs.span("circuits.generate", workload=workload) as gen:
            suite = workloads.flow_suite(workload)
        harvest_s = train_s = 0.0
        datasets = {}
        for name, g in suite.items():
            with obs.span("elf.collect_dataset", circuit=name) as span:
                datasets[name] = collect_dataset(g)
            harvest_s += span.duration
        classifiers = {}
        for name in suite:
            with obs.span("ml.train_leave_one_out", circuit=name) as span:
                classifiers[name] = train_leave_one_out(datasets, name)
            train_s += span.duration
    result = SetupResult(whole.duration, gen.duration, harvest_s, train_s, classifiers)
    result.export_s = _export(tmp, "setup")
    return result


# -- the timed commands -----------------------------------------------------


@dataclass
class CommandResult:
    command: str
    wall_s: float
    ands: int
    failures: list
    verify_s: float
    # circuit -> [(normalized command, runtime, detail)] from FlowReport.steps
    steps: dict = field(default_factory=dict)
    verified: set = field(default_factory=set)  # (circuit, output digest)
    export_s: float = 0.0


def check_output(before, after, check: str, seed: int) -> bool:
    """Exhaustive CEC (``exact``) or a seeded random-simulation screen (``sim``)."""
    if check == "exact":
        return equivalent(before, after)
    return equivalent(before, after, method="sim", n_random_words=SIM_WORDS, seed=seed)


def run_command(
    suite: dict,
    command: str,
    classifiers: dict,
    check: str,
    seed: int,
    verified: frozenset = frozenset(),
    tmp: str | None = None,
) -> CommandResult:
    """Run one command over the whole suite in one session, then check it.

    The timed region is the loop over the suite.  Cloning, the session's
    teardown and the checks are outside it, and so is the start of
    ``pf``'s worker pool: the session is warmed first, as a long-lived
    caller (the service) warms it, so every circuit reuses one pool
    rather than forking its own (``engine.warm_s`` times the start in
    the traced run).  An output whose structure
    is already in ``verified`` (``(circuit, structural digest)`` pairs
    that passed the check earlier in the run) is not checked again.
    """
    script = SCRIPTS[command]
    clones = {name: g.clone() for name, g in suite.items()}
    outputs, steps = {}, {}
    with OptSession(engine_workers=ENGINE_WORKERS, per_run_cache=True) as session:
        if command == "pf" and not session.warm_engine(ENGINE_WORKERS):
            raise RuntimeError("engine pool did not start")
        with obs.span(f"bench.{command}") as whole:
            for name, g in clones.items():
                with obs.span("bench.run", circuit=name, command=command):
                    out, report = session.run(
                        g, script, classifier=classifiers.get(name) if command == "elf" else None
                    )
                outputs[name] = out
                steps[name] = [(s.normalized, s.runtime, s.detail) for s in report.steps]
    failures, passed = [], set()
    with obs.span("verify.equivalent", command=command) as verify:
        for name, g in suite.items():
            key = (name, outputs[name].structural_digest())
            if key in verified:
                continue
            if check_output(g, outputs[name], check, seed):
                passed.add(key)
            else:
                failures.append(name)
    result = CommandResult(
        command=command,
        wall_s=whole.duration,
        ands=sum(out.n_ands for out in outputs.values()),
        failures=failures,
        verify_s=verify.duration,
        steps=steps,
        verified=passed,
    )
    result.export_s = _export(tmp, command)
    return result


# -- per-node kernel replay ---------------------------------------------------


@dataclass
class ReplayResult:
    """Aggregated kernel timers of refactor's per-node call chain."""

    wall_s: float = 0.0
    calls: int = 0
    reconv_cut_s: float = 0.0
    cone_truth_s: float = 0.0
    mffc_s: float = 0.0
    isop_s: float = 0.0
    isop_memo_hits: int = 0
    factor_s: float = 0.0
    count_tree_s: float = 0.0

    def resynth_shares(self) -> dict:
        """How refactor's ``time_resynth`` bucket splits over layers."""
        total = self.mffc_s + self.isop_s + self.factor_s + self.count_tree_s
        if total <= 0:
            return {"aig": 0.0, "tt": 0.0, "factor": 0.0}
        return {
            "aig": self.mffc_s / total,
            "tt": self.isop_s / total,
            "factor": (self.factor_s + self.count_tree_s) / total,
        }


def replay_kernels(suite: dict) -> ReplayResult:
    """Replay ``reconv_cut -> cone_truth -> isop_exact -> factor ->
    count_tree`` over every AND of every input circuit, committing
    nothing, with refactor's defaults and its per-pass cache."""
    params = RefactorParams()
    r = ReplayResult()
    hits0 = isop_memo_hits()
    clock = time.perf_counter
    started = clock()
    for name, g in suite.items():
        cache: dict = {}
        with obs.span("bench.replay", circuit=name):
            for node in g.and_ids():
                t0 = clock()
                cut = reconv_cut(g, node, params.max_leaves, collect_features=False)
                t1 = clock()
                r.reconv_cut_s += t1 - t0
                r.calls += 1
                leaves = cut.leaves
                n = len(leaves)
                if n < 2:
                    continue
                tt = cone_truth(g, node, leaves)
                t2 = clock()
                mffc = mffc_nodes(g, node, boundary=set(leaves))
                t3 = clock()
                r.cone_truth_s += t2 - t1
                r.mffc_s += t3 - t2
                max_added = len(mffc) - 1
                if max_added < 0:
                    continue
                tree = cache.get((tt, n))
                if tree is None:
                    cubes = isop_exact(tt, n)
                    complement = isop_exact(tt ^ full_mask(n), n)
                    if sum(c.bit_count() for c in complement) < sum(
                        c.bit_count() for c in cubes
                    ):
                        cubes = complement
                    t4 = clock()
                    tree = factor(cubes, method=params.method)
                    t5 = clock()
                    r.isop_s += t4 - t3
                    r.factor_s += t5 - t4
                    cache[(tt, n)] = tree
                t6 = clock()
                count_tree(g, tree, [make_lit(leaf) for leaf in leaves], set(mffc), max_added)
                r.count_tree_s += clock() - t6
    r.isop_memo_hits = isop_memo_hits() - hits0
    r.wall_s = clock() - started
    return r


def warm_engine() -> float:
    """Seconds for ``OptSession.warm_engine`` to fork a 2-worker pool."""
    with OptSession(engine_workers=ENGINE_WORKERS) as session:
        with obs.span("engine.warm") as span:
            if not session.warm_engine(ENGINE_WORKERS):
                raise RuntimeError("engine pool did not start")
    return span.duration
