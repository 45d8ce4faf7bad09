"""Tracing core: hierarchical spans on ``time.perf_counter``.

A span brackets one timed region — an engine pass, an operator sweep, a
flow command, a served circuit — and carries structured attributes.
Spans nest through a per-thread stack, so an operator span opened inside
a pass span records the pass as its parent without any plumbing through
the instrumented code.  All timestamps are monotonic
(:func:`time.perf_counter`), immune to wall-clock steps.

Tracing is **disabled by default** and the disabled path is engineered
to vanish: :func:`repro.obs.span` then returns a :class:`DisabledSpan`
that still measures its own duration (instrumented code reads
``span.duration`` into the stats fields it always filled) but records
nothing, allocates no attribute dict, and never touches a lock.  The
instrumentation sites sit at pass/command granularity, so the
residual cost — one small allocation plus the two ``perf_counter``
calls the hand-rolled timers already paid — is far below the 2%
budget the engine's timing-identity tests enforce.

Enable with ``repro.obs.configure(enabled=True)`` (or ``python -m repro
--trace out.json``); finished spans accumulate on the :class:`Tracer`
until exported (:mod:`repro.obs.export`) or cleared.
"""

from __future__ import annotations

import itertools
import os
import threading
import time


class DisabledSpan:
    """No-op span that still times itself (stats need the duration)."""

    __slots__ = ("t0", "t1")

    def __enter__(self) -> "DisabledSpan":
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.t1 = time.perf_counter()

    def set(self, **attrs) -> None:
        """Attribute writes are dropped on the disabled path."""

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Span:
    """One recorded timed region (use as a context manager)."""

    __slots__ = ("name", "attrs", "t0", "t1", "tid", "span_id", "parent_id", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.t0 = 0.0
        self.t1 = 0.0
        self.tid = 0
        self.span_id = 0
        self.parent_id = 0

    def set(self, **attrs) -> None:
        """Attach (or overwrite) structured attributes."""
        self.attrs.update(attrs)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def __enter__(self) -> "Span":
        self._tracer._open(self)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.t1 = time.perf_counter()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._close(self)


class Tracer:
    """Collects finished spans; owns the per-thread nesting stacks.

    ``epoch`` is the ``perf_counter`` origin all exported timestamps are
    relative to, so one trace's spans share a timeline across threads.
    """

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._finished: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- span lifecycle (called by Span) -------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _open(self, span: Span) -> None:
        stack = self._stack()
        span.tid = threading.get_ident()
        span.parent_id = stack[-1].span_id if stack else 0
        with self._lock:
            span.span_id = next(self._ids)
        stack.append(span)

    def _close(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - unbalanced exit
            stack.remove(span)
        with self._lock:
            self._finished.append(span)

    # -- reads ---------------------------------------------------------------

    def spans(self) -> list[Span]:
        """Finished spans, in completion order."""
        with self._lock:
            return list(self._finished)

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
        self.epoch = time.perf_counter()

    def __len__(self) -> int:
        return len(self._finished)
