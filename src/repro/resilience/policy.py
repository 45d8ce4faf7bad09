"""Recovery policy: retry budgets, backoff and the counted decisions.

One small, dependency-free decision module so every layer recovers the
same way.  Failures are classified by the :mod:`repro.errors` taxonomy
(``RetryableError`` vs ``FatalError``); *how many times* and *how hard*
to retry is a :class:`RetryPolicy`.  The serving tier's shard supervisor
(:mod:`repro.serve.proc`) consumes it: it respawns a dead shard within
the budget, then runs the shard's unfinished circuits in-process.

Every decision is counted on the :mod:`repro.obs` registry so recovery
is visible in any Prometheus/JSONL export:

* ``engine_worker_deaths_total`` — shard processes found dead
  (SIGKILL/OOM);
* ``engine_retries_total`` — shard respawn rounds;
* ``engine_degradations_total{to=...}`` — fallbacks taken
  (``to="in-process"`` for a shard given up on);
* ``serve_deadline_exceeded_total`` / ``engine_deadline_exceeded_total``
  — budgets that expired (recorded where they were observed).
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry budget with capped exponential backoff.

    ``allows(attempt)`` gates retry round ``attempt`` (0-based: the
    first *retry* is attempt 0); ``backoff(attempt)`` is how long to
    sleep before it.  The defaults keep recovery sub-second: two
    respawn attempts, 50 ms doubling to 100 ms.
    """

    max_retries: int = 2
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 1.0

    def allows(self, attempt: int) -> bool:
        """Whether retry round ``attempt`` (0-based) is inside budget."""
        return attempt < self.max_retries

    def backoff(self, attempt: int) -> float:
        """Pre-retry sleep for round ``attempt``, capped at the maximum."""
        return min(
            self.backoff_s * self.backoff_factor ** max(0, attempt),
            self.max_backoff_s,
        )


DEFAULT_RETRY_POLICY = RetryPolicy()


# -- counted decisions (the one bookkeeping path for every layer) ------------


def record_worker_death(n: int = 1) -> None:
    """Account ``n`` processes found dead during recovery."""
    if n > 0:
        obs.counter("engine_worker_deaths_total").add(n)


def record_retry() -> None:
    """Account one respawn + re-dispatch round."""
    obs.counter("engine_retries_total").add(1)


def record_degradation(to: str) -> None:
    """Account one fallback step (``to`` is the level landed on)."""
    obs.counter("engine_degradations_total", to=to).add(1)


def record_deadline(layer: str) -> None:
    """Account one expired budget, labeled by the observing layer."""
    obs.counter(f"{layer}_deadline_exceeded_total").add(1)
