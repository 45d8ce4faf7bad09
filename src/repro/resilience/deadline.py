"""Latency budgets: the ``Deadline`` object threaded through the stack.

A :class:`Deadline` is an absolute expiry instant on a monotonic clock,
created once at the outermost layer (``serve`` builds one per circuit
from ``ServeParams.circuit_timeout_s``) and handed *down* — session to
engine pass — so every tier shares one budget instead of composing
per-layer timeouts that can sum past the SLA.  Checkpoints call
:meth:`Deadline.check`, which raises :class:`repro.errors.DeadlineExceeded`
naming the site; a blocking wait bounds itself with
:meth:`Deadline.bound` so it can never sleep past the budget.

Expiry is graceful, never a hang and never a torn result: commits are
serial and checkpoints sit between flow steps and before engine passes,
so the layer that observes expiry abandons only *uncommitted* work — the
graph at that instant reflects a consistent prefix of commits
(CEC-verifiable), which the flow layer attaches to the exception as
``DeadlineExceeded.partial``.

The clock is injectable (``clock=time.monotonic`` by default) so tests
drive expiry deterministically by call count instead of real sleeping.
"""

from __future__ import annotations

import math
import time

from ..errors import DeadlineExceeded


class Deadline:
    """A monotonic latency budget; ``None`` seconds means unlimited.

    Instances are immutable in spirit (the expiry instant never moves)
    and safe to share across threads: every method is a pure read of the
    injected clock against the fixed expiry.
    """

    __slots__ = ("_expires_at", "_clock")

    def __init__(self, seconds: float | None = None, clock=time.monotonic) -> None:
        self._clock = clock
        self._expires_at = None if seconds is None else clock() + seconds

    @classmethod
    def after(cls, seconds: float | None, clock=time.monotonic) -> "Deadline":
        """Budget expiring ``seconds`` from now (``None`` = never)."""
        return cls(seconds, clock=clock)

    @property
    def unlimited(self) -> bool:
        return self._expires_at is None

    def remaining(self) -> float:
        """Seconds left (``inf`` when unlimited, clamped at 0.0)."""
        if self._expires_at is None:
            return math.inf
        return max(0.0, self._expires_at - self._clock())

    @property
    def expired(self) -> bool:
        return self._expires_at is not None and self._clock() >= self._expires_at

    def check(self, site: str = "") -> None:
        """Raise :class:`repro.errors.DeadlineExceeded` if expired."""
        if self.expired:
            raise DeadlineExceeded(
                f"deadline exceeded at {site or 'checkpoint'}", site=site
            )

    def bound(self, timeout: float) -> float:
        """``timeout`` clipped to the remaining budget (never negative).

        The bounding wait should treat a 0.0 return as "already expired"
        and fail fast rather than block.
        """
        return min(timeout, self.remaining())

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        if self._expires_at is None:
            return "Deadline(unlimited)"
        return f"Deadline(remaining={self.remaining():.3f}s)"
