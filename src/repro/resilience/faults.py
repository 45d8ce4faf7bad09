"""Deterministic fault injection: named sites, scripted failures, no flakes.

Recovery code is only trustworthy if every path runs in CI, and process
crashes cannot be provoked reliably from the outside (a SIGKILL from the
parent races the victim's work pickup, especially on one core).  So the
serve tier consults this registry at **named sites**, and an installed
:class:`FaultPlan` decides — deterministically, by arrival count and
context match — whether that arrival raises, kills a process, or stalls:

========================  ====================================================
site                      consulted
========================  ====================================================
``classifier.fire``       before a fused classifier round dispatches
                          (context: ``round``)
``shard.circuit``         inside a serve shard process, before running one
                          circuit (context: ``pid``, ``shard``, ``circuit``)
========================  ====================================================

:data:`SITES` is that table in code; ``make lint-faults`` fails when a
``fire("...")`` call under ``src/repro`` names a site missing from it.

Actions: ``raise`` (an :class:`InjectedFault`, a
:class:`repro.errors.RetryableError`), ``kill`` (SIGKILL the context's
``pid``), ``delay`` (sleep ``value`` seconds, the hung-process
simulation).  Triggering is exact: ``hits`` selects 1-based
arrival numbers at the site, ``match`` pins a context key (so
``shard.circuit`` faults can target one circuit and *only* that
circuit, which is what makes killed-shard tests reproducible on any
scheduler).  Arrival counters are per process; forked children inherit
the installed plan and count their own arrivals.

Inactive injection is one ``None`` check per site — cheap enough to stay
compiled in.  Plans install programmatically (:func:`install`,
:func:`injected`) or from the ``REPRO_FAULTS`` environment variable,
e.g. ``REPRO_FAULTS="shard.circuit=kill#circuit=c2;classifier.fire=raise@1"``.
Every triggered fault is counted: ``faults_injected_total{site,action}``.
"""

from __future__ import annotations

import os
import re
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .. import obs
from ..errors import ReproError, RetryableError

ENV_VAR = "REPRO_FAULTS"

SITES = frozenset({
    "classifier.fire",
    "shard.circuit",
})
"""Every site the program consults (the docstring table, in code)."""

_SPEC_RE = re.compile(
    r"^(?P<site>[\w.]+)=(?P<action>raise|kill|delay)"
    r"(?:\((?P<value>[^)]*)\))?"
    r"(?:@(?P<hits>[\d,]+))?"
    r"(?:#(?P<key>\w+)=(?P<val>[\w.-]+))?$"
)


class InjectedFault(RetryableError):
    """The error a ``raise`` fault throws at its site (retryable)."""


@dataclass(frozen=True)
class FaultSpec:
    """One scripted failure: where, what, and exactly when.

    ``hits`` are 1-based arrival numbers at ``site`` that trigger (empty
    = every arrival); ``match`` further requires ``ctx[key] == value``
    (compared as strings, so specs stay env-encodable); ``value`` is the
    action parameter — the delay in seconds.
    """

    site: str
    action: str  # "raise" | "kill" | "delay"
    hits: frozenset[int] = frozenset()
    match: tuple[str, str] | None = None
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in ("raise", "kill", "delay"):
            raise ReproError(f"unknown fault action {self.action!r}")

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse one ``site=action[(value)][@hits][#key=val]`` spec."""
        m = _SPEC_RE.match(text.strip())
        if m is None:
            raise ReproError(f"malformed fault spec {text!r}")
        hits = m.group("hits")
        return cls(
            site=m.group("site"),
            action=m.group("action"),
            hits=frozenset(int(h) for h in hits.split(",")) if hits else frozenset(),
            match=(m.group("key"), m.group("val")) if m.group("key") else None,
            value=float(m.group("value")) if m.group("value") else 0.0,
        )

    def triggers(self, hit: int, ctx: dict) -> bool:
        if self.hits and hit not in self.hits:
            return False
        if self.match is not None:
            key, value = self.match
            if key not in ctx or str(ctx[key]) != value:
                return False
        return True


@dataclass
class FaultPlan:
    """An installed set of :class:`FaultSpec` with per-site arrival state."""

    specs: tuple[FaultSpec, ...] = ()
    _hits: dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Plan from a ``;``-separated spec string (the env encoding)."""
        specs = tuple(
            FaultSpec.parse(part) for part in text.split(";") if part.strip()
        )
        return cls(specs=specs)

    def arrivals(self, site: str) -> int:
        """How many times ``site`` has been consulted in this process."""
        with self._lock:
            return self._hits.get(site, 0)

    def fire(self, site: str, **ctx) -> None:
        """Account one arrival at ``site``; perform any triggered action."""
        with self._lock:
            hit = self._hits.get(site, 0) + 1
            self._hits[site] = hit
        for spec in self.specs:
            if spec.site != site or not spec.triggers(hit, ctx):
                continue
            obs.counter("faults_injected_total", site=site, action=spec.action).add(1)
            if spec.action == "delay":
                time.sleep(spec.value)
            elif spec.action == "kill":
                _kill(ctx, site)
            else:
                raise InjectedFault(f"injected fault at {site} (hit {hit})")


def _kill(ctx: dict, site: str) -> None:
    if "pid" not in ctx:
        raise ReproError(f"kill fault at {site} needs a pid context")
    os.kill(int(ctx["pid"]), signal.SIGKILL)


_active: FaultPlan | None = None
_env_checked = False


def install(plan: FaultPlan | str | None) -> FaultPlan | None:
    """Install ``plan`` (or a spec string) process-wide; ``None`` clears."""
    global _active, _env_checked
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    _active = plan
    _env_checked = True  # explicit installs override the env var
    return plan


def clear() -> None:
    """Remove any installed plan (and forget the env override)."""
    global _active, _env_checked
    _active = None
    _env_checked = False


def active() -> FaultPlan | None:
    """The installed plan, lazily adopting ``REPRO_FAULTS`` once."""
    global _active, _env_checked
    if _active is None and not _env_checked:
        _env_checked = True
        text = os.environ.get(ENV_VAR, "").strip()
        if text:
            _active = FaultPlan.parse(text)
    return _active


def fire(site: str, **ctx) -> None:
    """Consult the registry at ``site`` (no-op unless a plan is live)."""
    plan = active()
    if plan is not None:
        plan.fire(site, **ctx)


@contextmanager
def injected(plan: FaultPlan | str):
    """Install ``plan`` for a ``with`` block, restoring the prior plan."""
    previous = _active
    installed = install(plan)
    try:
        yield installed
    finally:
        install(previous)
        if previous is None:
            clear()
