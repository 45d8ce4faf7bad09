"""Flow sessions: explicit lifecycle for the resources a script shares.

:class:`OptSession` is one owner for the per-flow resources — the
cross-pass :class:`repro.engine.ResynthCache`, the NPN library and an
optional classifier handle — and executes scripts against a declarative
:class:`repro.opt.registry.CommandRegistry`.  Resources are created
**lazily on first demand** (``b; b`` allocates nothing); externally
provided ones (a shared classifier service client) are used but never
closed.

One session may run many scripts — and, as the serving layer does, many
circuits concurrently: per-run state lives in a thread-private
:class:`FlowContext`, while the shared cache and library are safe to
share because their entries are pure (cache hits are bit-identical to
recomputation).  :class:`SessionStats` records what the session
provisioned.

``repro.opt.run_flow`` is a thin wrapper: one throwaway session per
call, byte-identical to the historical behavior.
"""

from __future__ import annotations

import threading

from .. import obs
from ..aig.graph import AIG
from ..errors import DeadlineExceeded, ReproError
from .flow import FlowReport, FlowStep
from .registry import CommandFlags, CommandRegistry, ResolvedCommand, default_registry


class SessionStats:
    """What a session provisioned and ran.

    Backed by the :mod:`repro.obs` metrics registry: each session owns a
    process-unique ``session`` label and its counters/gauges live as
    registry series (``session_runs_total``, ``session_commands_total``,
    ``session_resource_created``), so provisioning flags appear in
    Prometheus/JSONL exports with no second bookkeeping path.  The
    public attributes (``runs``, ``commands``, ``cache_created``,
    ``library_created``) are read-through views over those series.
    """

    def __init__(self) -> None:
        self.label = obs.next_label("session")
        labels = {"session": self.label}
        metrics = obs.metrics()
        self._runs = metrics.counter("session_runs_total", **labels)
        self._commands = metrics.counter("session_commands_total", **labels)
        self._created = {
            kind: metrics.gauge("session_resource_created", resource=kind, **labels)
            for kind in ("cache", "library")
        }

    # -- recording (callers hold the session lock where concurrency applies)

    def record_run(self) -> None:
        self._runs.add(1)

    def record_command(self) -> None:
        self._commands.add(1)

    def mark_created(self, kind: str) -> None:
        self._created[kind].set(1)

    # -- read-through views -----------------------------------------------------

    @property
    def runs(self) -> int:
        return int(self._runs.value)

    @property
    def commands(self) -> int:
        return int(self._commands.value)

    @property
    def cache_created(self) -> bool:
        return bool(self._created["cache"].value)

    @property
    def library_created(self) -> bool:
        return bool(self._created["library"].value)


class FlowContext:
    """Per-run view of a session (the ``ctx`` of ``CommandSpec.execute``).

    Thread-private: it carries the run's active classifier (a serving
    layer runs one session per shard but a *different* fused classifier
    client per circuit) and the current command string for diagnostics,
    while delegating every shared resource to the owning session.
    """

    def __init__(self, session: "OptSession", classifier, deadline=None) -> None:
        self.session = session
        self.classifier = classifier
        self.deadline = deadline  # the run's latency budget (or None)
        self.command = ""  # raw spelling of the step being executed
        self._run_cache = None  # lazily created under per_run_cache

    @property
    def resynth_cache(self):
        if self.session.per_run_cache:
            if self._run_cache is None:
                from ..engine import ResynthCache

                self._run_cache = ResynthCache(self.session.cache_entries)
                self.session.stats.mark_created("cache")
            return self._run_cache
        return self.session.resynth_cache

    @property
    def npn_library(self):
        return self.session.npn_library

    def engine_workers(self, flags: CommandFlags) -> int:
        """Width of one engine command: an explicit ``-w N`` wins, then
        the session's ``engine_workers`` default, then 0 (auto)."""
        if flags.workers:
            return flags.workers
        return self.session.engine_workers or 0


class OptSession:
    """Owns one flow's shared resources; runs scripts via the registry.

    Parameters: ``classifier`` is the default classifier handle for
    commands that declare ``needs_classifier`` (a per-``run`` override
    exists for serving).  ``engine_workers`` is the worker count applied
    to engine commands with no explicit ``-w``.  ``library`` pins the NPN
    library (default: the process-wide shared instance, created lazily
    on first rewrite-family command).
    ``registry`` selects the command set (default: the process registry).

    ``per_run_cache=True`` gives each :meth:`run` a private resynthesis
    cache instead of the session-wide one.  Steps of one script still
    share it (the ``elf; elf`` warm start), but nothing leaks between
    runs: the serving layer uses this so a served circuit's *content*
    never depends on what the shard's other circuits seeded, and cache
    memory per request stays bounded by one request.  (Entries are
    bit-identical to recomputation, so sharing is safe too; the default
    stays session-wide.)

    ``cache_entries`` bounds every resynthesis cache this session
    creates (session-wide or per-run) to an LRU of that many entries per
    layer — see :class:`repro.engine.ResynthCache`.  Long-lived shard
    sessions in the serving tier set it so cache memory stays flat under
    unbounded circuit traffic; ``None`` (the default) is unbounded.

    Explicit lifecycle: use as a context manager, or call :meth:`close`.
    """

    def __init__(
        self,
        classifier=None,
        engine_workers: int | None = None,
        library=None,
        registry: CommandRegistry | None = None,
        per_run_cache: bool = False,
        cache_entries: int | None = None,
    ) -> None:
        self.classifier = classifier
        self.engine_workers = engine_workers
        self.per_run_cache = per_run_cache
        self.cache_entries = cache_entries
        self.registry = registry if registry is not None else default_registry()
        self.stats = SessionStats()
        self._cache = None
        self._library = library
        self._lock = threading.Lock()
        self._closed = False

    # -- shared resources, created lazily on first demand --------------------

    @property
    def resynth_cache(self):
        """The session's cross-pass resynthesis cache (created on demand)."""
        if self._cache is None:
            from ..engine import ResynthCache

            with self._lock:
                if self._cache is None:
                    self._cache = ResynthCache(self.cache_entries)
                    self.stats.mark_created("cache")
        return self._cache

    @property
    def cache_materialized(self) -> bool:
        """Whether any command has demanded the resynthesis cache yet."""
        return self._cache is not None

    @property
    def npn_library(self):
        """The session's NPN library handle (created on demand)."""
        if self._library is None:
            from .npn_library import default_library

            with self._lock:
                if self._library is None:
                    self._library = default_library()
                    self.stats.mark_created("library")
        return self._library

    def warm_engine(self, width: int) -> bool:
        """Whether ``width`` selects the parallel engine (``width >= 2``).

        Serving layers and benchmarks call this before the first circuit.
        The engine has no worker pool to start — ``pf`` / ``pelf`` /
        ``prw`` run the sequential sweep at every width — so nothing is
        allocated.
        """
        return width >= 2

    # -- execution ------------------------------------------------------------

    def run(
        self, g: AIG, script: str, classifier=None, deadline=None
    ) -> tuple[AIG, FlowReport]:
        """Execute a ``;``-separated script on ``g``; returns (g, report).

        Empty commands (``;;``, stray whitespace) are skipped.  Each
        step resolves through the registry — unknown commands and
        unsupported flags raise :class:`repro.errors.ReproError`, naming
        the raw spelling — then executes with this session's resources.
        ``classifier`` overrides the session default for this run only
        (the serving layer runs per-circuit fused clients through one
        shard session this way).

        ``deadline`` (a :class:`repro.resilience.Deadline`) bounds the
        whole run: it is checked between steps and threaded into every
        engine command, so expiry anywhere raises
        :class:`repro.errors.DeadlineExceeded` with ``partial`` set to
        the best network committed so far (steps complete serially and
        engine commits are serial, so the partial is always a
        consistent, CEC-verifiable prefix of the full flow) and
        ``report`` covering the completed steps.
        """
        if self._closed:
            raise ReproError("OptSession is closed")
        ctx = FlowContext(
            self,
            classifier if classifier is not None else self.classifier,
            deadline=deadline,
        )
        report = FlowReport(script=script)
        with self._lock:  # shard sessions run circuits concurrently
            self.stats.record_run()
        metrics = obs.metrics()
        with obs.span("flow.run", script=script, session=self.stats.label) as run_span:
            try:
                for raw in script.split(";"):
                    command = raw.strip()
                    if not command:
                        continue
                    if deadline is not None:
                        deadline.check("flow.command")
                    resolved = self.registry.resolve(command)
                    self._check_resources(resolved, ctx)
                    ctx.command = command
                    with self._lock:
                        self.stats.record_command()
                    ands_before = g.n_ands
                    # The per-command span both feeds the trace timeline and
                    # *is* the step timing (FlowStep.runtime and therefore
                    # FlowReport.runtime_of read its duration) — one clock
                    # for reports and telemetry.
                    with obs.span(
                        "flow.command", command=command, normalized=resolved.canonical
                    ) as step_span:
                        g, detail = resolved.spec.execute(g, ctx, resolved.flags)
                        step_span.set(n_ands=g.n_ands)
                    head = resolved.head
                    metrics.counter("flow_commands_total", command=head).add(1)
                    metrics.histogram("flow_command_seconds", command=head).observe(
                        step_span.duration
                    )
                    metrics.counter("flow_command_and_delta_total", command=head).add(
                        abs(g.n_ands - ands_before)
                    )
                    report.steps.append(
                        FlowStep(
                            command=command,
                            runtime=step_span.duration,
                            n_ands=g.n_ands,
                            level=g.max_level(),
                            detail=detail,
                            normalized=resolved.canonical,
                        )
                    )
            except DeadlineExceeded as error:
                # An interrupted engine pass left ``g`` at its committed
                # prefix; earlier completed steps are all on the report.
                error.partial = g
                error.report = report
                raise
            run_span.set(steps=len(report.steps), n_ands=g.n_ands)
        return g, report

    def probe(
        self, g: AIG, script: str, classifier=None, deadline=None
    ) -> tuple[AIG, FlowReport]:
        """Run ``script`` on a snapshot of ``g``: measure without committing.

        ``g`` itself is never mutated — the script executes on a clone,
        so rolling a probe back is just dropping the returned graph and
        keeping ``g``.  The tuner (:mod:`repro.tune`) uses this to score
        candidate commands against the same committed state repeatedly;
        callers that like the outcome adopt the returned graph as their
        new state.  Semantics (resources, deadline threading, the
        :class:`repro.errors.DeadlineExceeded` partial contract) are
        exactly those of :meth:`run` applied to the clone.
        """
        return self.run(g.clone(), script, classifier=classifier, deadline=deadline)

    def _check_resources(self, resolved: ResolvedCommand, ctx: FlowContext) -> None:
        if resolved.spec.needs_classifier and ctx.classifier is None:
            raise ReproError(
                f"flow step {resolved.head!r} requires a classifier"
            )

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Refuse further runs (idempotent); shared resources are kept."""
        self._closed = True

    def __enter__(self) -> "OptSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
