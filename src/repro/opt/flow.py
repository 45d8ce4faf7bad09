"""Optimization flow scripting (ABC-style command sequences).

``run_flow(g, "resyn2")`` executes the classic
``b; rw; rf; b; rw; rwz; b; rfz; rwz; b`` sequence, recording per-step
node counts, depths and runtimes — this powers the paper's claim that
refactor consumes 20-40% of a resyn2-style flow despite running only
twice (SS II).  ELF steps (``elf``/``elfz``) slot into the same scripts
when a classifier is supplied.  The engine spellings
(``pf``/``pelf``/``prw`` + zero-cost variants) accept ``-w N`` and
produce exactly ``rf``/``elf``/``rw``'s output at every width.

The execution machinery lives elsewhere: commands are *registered*
:class:`repro.opt.registry.CommandSpec` entries (not a switch), and the
resources a script shares — resynthesis cache, NPN library, classifier
— are owned by a :class:`repro.opt.session.OptSession`.
:func:`run_flow` is the one-shot convenience wrapper (one throwaway
session per call); long-lived callers, the serving layer, and anyone
registering new commands should hold a session directly.

Steps record both the raw command as spelled in the script and its
*normalized* form (aliases resolved: ``f`` -> ``rf``, ``fz`` -> ``rfz``);
:meth:`FlowReport.runtime_of` / :meth:`FlowReport.fraction_of` match on
the normalized form, so alias spellings count toward their operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..aig.graph import AIG
from .registry import CommandRegistry, default_registry

RESYN2 = "b; rw; rf; b; rw; rwz; b; rfz; rwz; b"
"""The classic ABC resyn2 script."""

COMPRESS2 = "b -l; rw -l; rf -l; b -l; rw -l; rwz -l; b -l; rfz -l; rwz -l; b -l"

NAMED_SCRIPTS = {"resyn2": RESYN2, "compress2": COMPRESS2}
"""Scripts addressable by name (the CLI accepts these spellings)."""


def canonical_command(command: str, registry: CommandRegistry | None = None) -> str:
    """``command`` with its operator alias resolved (flags preserved).

    Lenient: unknown commands come back unchanged — strictness lives in
    :meth:`repro.opt.registry.CommandRegistry.resolve`.
    """
    registry = registry if registry is not None else default_registry()
    return registry.canonical(command)


@dataclass
class FlowStep:
    """Outcome of one flow command.

    ``command`` keeps the raw spelling from the script; ``normalized``
    is the alias-resolved form the report's accounting matches on (it
    defaults from ``command`` when not given).
    """

    command: str
    runtime: float
    n_ands: int
    level: int
    detail: object = None
    normalized: str = ""

    def __post_init__(self) -> None:
        if not self.normalized:
            self.normalized = canonical_command(self.command)


@dataclass
class FlowReport:
    """Per-step trace of a flow execution."""

    script: str
    steps: list[FlowStep] = field(default_factory=list)

    @property
    def total_runtime(self) -> float:
        return sum(s.runtime for s in self.steps)

    def runtime_of(self, prefix: str) -> float:
        """Total runtime of steps whose *normalized* command starts with
        ``prefix`` — so ``runtime_of("rf")`` counts ``f``/``fz`` steps too."""
        return sum(s.runtime for s in self.steps if s.normalized.startswith(prefix))

    def fraction_of(self, prefix: str) -> float:
        total = self.total_runtime
        return 0.0 if total == 0 else self.runtime_of(prefix) / total


def run_flow(
    g: AIG,
    script: str = RESYN2,
    classifier=None,
    engine_workers: int | None = None,
    registry: CommandRegistry | None = None,
) -> tuple[AIG, FlowReport]:
    """Execute a ``;``-separated command script; returns (network, report).

    Commands: ``b`` (balance), ``rw``/``rwz`` (rewrite / zero-cost),
    ``rf``/``rfz`` (refactor / zero-cost; ``f``/``fz`` are aliases),
    ``rs``/``rsz`` (resub / zero-cost), ``elf``/``elfz`` (ELF-pruned
    refactor; needs ``classifier``), and ``pf``/``pfz``,
    ``pelf``/``pelfz`` and ``prw``/``prwz`` (aliases of ``rf``/``rfz``,
    ``elf``/``elfz`` and ``rw``/``rwz`` that accept ``-w``) — plus
    anything else registered on ``registry`` (default: the process-wide
    :func:`repro.opt.registry.default_registry`).
    ``-l`` preserves levels where the operator supports it; the engine
    commands accept ``-w N`` (0 = one per core) and record it on their
    stats, but it never changes the output.
    Unknown commands *and unsupported flags* raise
    :class:`repro.errors.ReproError`.

    This is the one-shot convenience wrapper over
    :class:`repro.opt.session.OptSession` — equivalent to running
    ``script`` inside ``OptSession(classifier=classifier, ...)``, so all
    session guarantees apply: every refactor-family step of the script
    shares one cross-pass
    :class:`repro.engine.ResynthCache` (created lazily on first demand;
    e.g. the second ``elf`` of ``elf; elf`` starts with every factored
    form the first derived), and ``engine_workers`` is the worker count
    for engine commands with no explicit ``-w``.  Callers running many
    scripts, or many circuits, should hold an :class:`~repro.opt.session.OptSession`
    directly and reuse its warm resources.
    """
    from .session import OptSession

    with OptSession(
        classifier=classifier,
        engine_workers=engine_workers,
        registry=registry,
    ) as session:
        return session.run(g, script)
