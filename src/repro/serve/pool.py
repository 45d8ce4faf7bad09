"""Shard-local resources: the shared classifier service.

Within one shard all circuits are served concurrently (one thread each),
and the expensive classifier is shared instead of replicated:

* **Classifier service** (:class:`SharedClassifierService`) — ELF's
  classifier is cheapest when inference is batched.  Per circuit the
  operator already fuses all cut features into one matrix (the paper's
  trick); the service goes one step further and fuses matrices *across
  the circuits of a shard*: every circuit's pending ``keep_mask``
  request is held until each still-running circuit of the shard has
  either submitted its own request or finished, then a single stacked
  forward pass (:meth:`repro.elf.ElfClassifier.fused_keep_masks`)
  answers all of them.  Each sub-batch keeps its own MVN statistics, so
  fusion preserves per-circuit decisions: probabilities match a private
  classifier call to the last ulp (BLAS may pick a different kernel for
  the stacked shape) and the resulting keep masks are bitwise-identical
  in every test — fusion changes dispatch count, not decisions.

Each shard runs its circuits through one :class:`repro.opt.OptSession`,
so every circuit of the shard shares the session's NPN library;
resynthesis caches stay per circuit (``per_run_cache=True``).

The script's resource needs (the classifier) are read off the command
registry's declared requirements, so a command
registered via :mod:`repro.opt.registry` is provisioned for without
touching this module.

The barrier protocol makes fusion rounds deterministic: round ``r``
always contains the ``r``-th request of every circuit that issues at
least ``r`` requests, independent of thread timing, because a circuit
blocks inside round ``r`` until the round fires and the round cannot
fire while any live circuit is still working.  Occupancy statistics
(:class:`FusionStats`) are therefore reproducible run to run.
"""

from __future__ import annotations

import threading

import numpy as np

from .. import obs
from ..resilience.faults import fire


class FusionStats:
    """Occupancy record of one shard's fused classifier.

    ``rounds[k] = (n_subbatches, n_rows)``: how many circuits and how
    many feature rows round ``k`` served with a single inference.  The
    totals live in the :mod:`repro.obs` metrics registry (series labeled
    with this instance's unique ``shard`` label); ``n_calls`` /
    ``n_subbatches`` / ``n_rows`` read through to it, so a Prometheus
    export of a serving run carries occupancy without extra plumbing.
    """

    def __init__(self) -> None:
        self.label = obs.next_label("shard")
        self.rounds: list[tuple[int, int]] = []
        registry = obs.metrics()
        self._calls = registry.counter("serve_fusion_rounds_total", shard=self.label)
        self._subbatches = registry.counter(
            "serve_fusion_subbatches_total", shard=self.label
        )
        self._rows = registry.counter("serve_fusion_rows_total", shard=self.label)

    def record_round(self, n_subbatches: int, n_rows: int) -> None:
        """Account one fused dispatch serving ``n_subbatches`` circuits."""
        self.rounds.append((n_subbatches, n_rows))
        self._calls.add(1)
        self._subbatches.add(n_subbatches)
        self._rows.add(n_rows)

    @property
    def n_calls(self) -> int:
        """Fused inference dispatches actually issued."""
        return int(self._calls.value)

    @property
    def n_subbatches(self) -> int:
        """Per-circuit requests served (what unfused serving would dispatch)."""
        return int(self._subbatches.value)

    @property
    def n_rows(self) -> int:
        """Total feature rows classified."""
        return int(self._rows.value)

    @property
    def mean_occupancy(self) -> float:
        """Average circuits per fused call (1.0 = no cross-circuit fusion)."""
        return self.n_subbatches / self.n_calls if self.rounds else 0.0

    @property
    def mean_rows(self) -> float:
        """Average feature rows per fused call."""
        return self.n_rows / self.n_calls if self.rounds else 0.0

    @property
    def amortization(self) -> float:
        """Fraction of inference dispatches eliminated by fusion."""
        if self.n_subbatches == 0:
            return 0.0
        return 1.0 - self.n_calls / self.n_subbatches


class SharedClassifierService:
    """Fuses concurrent ``keep_mask`` requests from one shard's circuits.

    Construct with the real classifier and the *complete* list of
    circuit names the shard will run, **before** any circuit thread
    starts; each thread then works through a :meth:`client` proxy and
    must deregister (the proxy is a context manager) when its flow ends,
    successfully or not — a vanished client would otherwise stall the
    barrier forever.

    A failed round is survivable: pending state is reset before the
    inference dispatches, every member of the round receives the error
    (counted ``serve_classifier_round_failures_total``), and the next
    complete set of requests fuses normally — one bad round never
    poisons the shard.  The ``classifier.fire`` fault site
    (:mod:`repro.resilience.faults`) makes that path testable.
    """

    def __init__(self, classifier, names: list[str]) -> None:
        self.classifier = classifier
        self.stats = FusionStats()
        self._cond = threading.Condition()
        self._live: set[str] = set(names)
        self._pending: dict[str, np.ndarray] = {}
        self._results: dict[str, object] = {}
        if len(self._live) != len(names):
            raise ValueError("duplicate circuit names in one shard")

    def client(self, name: str) -> "FusedClassifierClient":
        """The classifier proxy circuit ``name`` should use."""
        return FusedClassifierClient(self, name)

    # -- protocol used by the clients ---------------------------------------

    def submit(self, name: str, features: np.ndarray) -> np.ndarray:
        """Block until ``features`` is classified in a fused round."""
        with self._cond:
            if name not in self._live:
                raise RuntimeError(f"client {name!r} is not registered")
            self._pending[name] = features
            self._maybe_fire()
            while name not in self._results:
                self._cond.wait()
            result = self._results.pop(name)
        if isinstance(result, BaseException):
            raise result
        return result

    def finish(self, name: str) -> None:
        """Deregister ``name``; later rounds no longer wait for it."""
        with self._cond:
            self._live.discard(name)
            self._pending.pop(name, None)
            self._maybe_fire()
            self._cond.notify_all()

    def _maybe_fire(self) -> None:
        # A round fires only when every live circuit has a request on the
        # table; fired under the lock by whichever thread completed the set.
        if not self._pending or set(self._pending) != self._live:
            return
        names = sorted(self._pending)
        batches = [self._pending[n] for n in names]
        # Reset the round's pending state *before* dispatching: whatever
        # the inference does — raise, or trip a circuit thread into
        # finishing early — the barrier is already clean for the next
        # round and no stale request can fuse into it.
        self._pending.clear()
        try:
            fire("classifier.fire", round=self.stats.n_calls + 1)
            masks = self.classifier.fused_keep_masks(batches)
            self.stats.record_round(
                len(batches), sum(int(b.shape[0]) for b in batches)
            )
            self._results.update(zip(names, masks))
        except Exception as error:  # propagate to every waiter, not one
            # Every member of the failed round gets the error (its
            # circuit reports it and deregisters); circuits *outside*
            # the round are untouched and the next complete set of
            # requests fuses normally.
            obs.counter("serve_classifier_round_failures_total").add(1)
            self._results.update({n: error for n in names})
        self._cond.notify_all()


class FusedClassifierClient:
    """Per-circuit classifier facade routed through the shared service.

    Implements the only method the operators call on a classifier
    (``keep_mask``); everything else (threshold, probabilities) proxies
    the wrapped classifier directly.
    """

    def __init__(self, service: SharedClassifierService, name: str) -> None:
        self._service = service
        self.name = name

    @property
    def threshold(self) -> float:
        return self._service.classifier.threshold

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return self._service.classifier.predict_proba(features)

    def keep_mask(self, features: np.ndarray) -> np.ndarray:
        return self._service.submit(self.name, np.asarray(features, dtype=np.float64))

    def finish(self) -> None:
        self._service.finish(self.name)

    def __enter__(self) -> "FusedClassifierClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.finish()


def script_requirements(script: str, registry=None):
    """``script``'s aggregate resource needs, read off the registry.

    Returns a :class:`repro.opt.registry.ScriptNeeds` built from the
    declared ``CommandSpec`` requirements, so commands registered after
    the fact are provisioned for without touching the serving layer.
    Unresolvable commands contribute nothing (their error surfaces when
    the flow actually runs, isolated to the circuit that ran it).
    """
    from ..opt.registry import default_registry

    registry = registry if registry is not None else default_registry()
    return registry.script_requirements(script)


def needs_classifier(script: str, registry=None) -> bool:
    """Does any command of ``script`` consult the ELF classifier?"""
    return script_requirements(script, registry).classifier
