"""``repro.resilience`` — the fault-tolerance spine of the engine/serve tiers.

Three small modules, shared by every layer that can fail:

* :mod:`repro.resilience.deadline` — :class:`Deadline` latency budgets,
  created at the serve tier and threaded down through
  :meth:`repro.opt.OptSession.run` and the wave scheduler, so one SLA
  bounds the whole stack and expiry surfaces as a typed
  :class:`repro.errors.DeadlineExceeded` carrying the best consistent
  prefix result instead of a hang.
* :mod:`repro.resilience.policy` — :class:`RetryPolicy` budgets/backoff
  for shard respawns, with every recovery decision counted on the
  :mod:`repro.obs` registry.
* :mod:`repro.resilience.faults` — the deterministic fault-injection
  registry (:func:`repro.resilience.faults.fire` at named sites) that
  makes every recovery path CI-testable without flakes.

See ``docs/robustness.md`` for the failure model and guarantees.
"""

from .deadline import Deadline
from .faults import FaultPlan, FaultSpec, InjectedFault
from .policy import (
    DEFAULT_RETRY_POLICY,
    RetryPolicy,
    record_deadline,
    record_degradation,
    record_retry,
    record_worker_death,
)

__all__ = [
    "DEFAULT_RETRY_POLICY",
    "Deadline",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "RetryPolicy",
    "record_deadline",
    "record_degradation",
    "record_retry",
    "record_worker_death",
]
