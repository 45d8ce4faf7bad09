"""Worker-pool execution of cut resynthesis, with worker-death recovery.

Resynthesis — ISOP extraction plus algebraic factoring — is a pure
function of ``(truth table, leaf count)`` and never touches the AIG, so
it is the one refactoring phase that parallelizes without sharing the
graph.  No command uses this pool any more (``pf`` / ``pelf`` run the
sequential sweep, ``docs/engine.md``); it is slated for deletion.

The executor keeps one ``multiprocessing`` pool alive across waves
(fork start method where available, so workers inherit the imported
library for free).  **Fault tolerance** is layered, and every layer is
bit-identical to the sequential operator because workers run the same
``_resynthesize`` body:

* a chunk whose worker body errors is *contained* — the worker returns
  the formatted error and the parent recomputes that chunk in-process
  (``engine_worker_chunks_failed_total``);
* a chunk whose result never arrives — the worker died (OOM/SIGKILL) or
  hung — is detected by the per-chunk deadline on ``AsyncResult.get``
  (``chunk_timeout_s``); the executor counts the event
  (``engine_worker_deaths_total`` by pool-pid liveness,
  ``engine_worker_hangs_total`` otherwise), tears the pool down,
  respawns it after a :class:`repro.resilience.RetryPolicy` backoff
  (``engine_retries_total``) and **re-runs only the lost chunks**;
* a failed round that rode the shared-memory transport steps down the
  degradation ladder to pickled chunks
  (``engine_degradations_total{to="pickle"}``), and an exhausted retry
  budget degrades to in-process sequential execution
  (``engine_degradations_total{to="sequential"}``) — the floor that
  PR 1 proved bit-identical;
* pool *creation* failure (sandboxed hosts) falls back in-process,
  counted per cause (``engine_pool_fallbacks_total{reason=...}``) and
  logged once, so a sandbox stops looking like a 1-worker perf
  regression.

Named fault-injection sites (``worker.start``, ``worker.chunk``,
``chunk.result``, ``shm.create`` — see :mod:`repro.resilience.faults`)
make each recovery path deterministically testable in CI.

**Transport** (:mod:`repro.engine.pack`): by default each dispatch packs
the round's tasks into one shared-memory segment and ships workers
``(descriptor, start, stop)`` ranges instead of pickled big-int lists —
the per-wave serialized volume drops to one flat copy plus a few dozen
bytes per chunk.  The ``transport`` parameter pins ``"shm"`` or
``"pickle"`` explicitly (the tests compare the two); ``"auto"`` uses
shared memory whenever the platform forks and the payload is worth a
segment, and falls back to pickle otherwise — or on any segment-creation
error, counted by ``engine_shm_fallbacks_total``.  Segment lifecycle is
one dispatch: created, mapped by workers, unlinked in a ``finally`` on
**every** path, crash paths included (the
``engine_shm_segments_created/unlinked_total`` counters must match after
every pass); any name that somehow survives — e.g. an unlink that itself
raised — is swept at :meth:`ResynthExecutor.close`
(``engine_shm_segments_swept_total``).

**Observability** (:mod:`repro.obs`): when tracing is enabled each
worker measures its chunk — tasks evaluated, evaluate seconds, ISOP-memo
hits — and piggybacks the serialized delta on the task result; the
parent merges deltas into the metrics registry at collect time, so
worker-side counters cost zero extra IPC round-trips.  A failed chunk
returns no snapshot and therefore loses only its own delta.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import pickle
import time

from .. import obs
from ..errors import ReproError
from ..opt.refactor import RefactorParams, _resynthesize
from ..resilience import RetryPolicy, policy
from ..resilience.faults import InjectedFault, fire as fault_fire
from ..tt.isop import isop_memo_hits
from .pack import PackedTasks, WaveSegment, share_resource_tracker, unlink_by_name

ResynthTask = "tuple[int, int]"  # (truth table, number of leaves)

SHM_MIN_BYTES = 1 << 14
"""Packed payloads below this ride the pickle path in ``auto`` mode —
segment setup costs more than pickling a few tables."""

DEFAULT_CHUNK_TIMEOUT_S = 30.0
"""Per-chunk deadline on ``AsyncResult.get``: generous against skewed
task costs (a production chunk runs milliseconds), tight enough that a
dead worker is detected the same wave it died in."""

_log = logging.getLogger(__name__)
_logged_once: set[str] = set()


def _log_once(key: str, message: str, *args) -> None:
    """Warn exactly once per process per condition (recovery is counted
    on the metrics registry; the log line is for humans tailing serve)."""
    if key not in _logged_once:
        _logged_once.add(key)
        _log.warning(message, *args)


def resynthesize_batch(
    tasks: list[tuple[int, int]],
    params: RefactorParams,
) -> list[tuple]:
    """In-process resynthesis of a task chunk (also the worker body)."""
    return [_resynthesize(tt, n_leaves, params, None) for tt, n_leaves in tasks]


def _worker(payload: tuple) -> tuple:
    """Worker body: ``(entries, error, snapshot)`` for one chunk.

    Two payload shapes, discriminated by the leading tag (the trailing
    ``index`` is the absolute chunk index, the handle fault plans match
    on):

    * ``("pickle", params, chunk, want_obs, index)`` — the chunk's tasks
      travel pickled inside the message;
    * ``("shm", params, descriptor, start, stop, want_obs, index)`` —
      the tasks live in a shared-memory wave segment; the worker attaches
      it, rebuilds exactly its ``[start, stop)`` slice, and closes the
      mapping before resynthesizing.

    Errors are contained per chunk (``entries is None`` + the formatted
    error; the parent recomputes that chunk in-process), and the metrics
    snapshot rides along only when the parent asked for one and the
    chunk succeeded.  The ``worker.chunk`` fault site fires here — a
    ``kill`` fault SIGKILLs this very worker mid-chunk, which is what
    makes worker-death recovery reproducible in CI.
    """
    if payload[0] == "shm":
        _tag, params, descriptor, start, stop, want_obs, index = payload
        try:
            segment = WaveSegment.attach(descriptor)
            try:
                chunk = segment.packed().tasks(start, stop)
            finally:
                segment.close()
        except Exception as error:  # lint-faults: contained (parent recomputes + counts)
            return (None, f"{type(error).__name__}: {error}", None)
    else:
        _tag, params, chunk, want_obs, index = payload
    t0 = time.perf_counter()
    memo0 = isop_memo_hits()
    try:
        fault_fire("worker.chunk", chunk=index, pid=os.getpid())
        entries = resynthesize_batch(chunk, params)
    except Exception as error:  # lint-faults: contained (parent recomputes + counts)
        return (None, f"{type(error).__name__}: {error}", None)
    snapshot = None
    if want_obs:
        snapshot = {
            "counters": {
                "engine_worker_tasks_total": len(chunk),
                "engine_worker_evaluate_seconds_total": time.perf_counter() - t0,
                "engine_worker_isop_memo_hits_total": isop_memo_hits() - memo0,
                "engine_worker_chunks_total": 1,
            }
        }
    return (entries, None, snapshot)


def _chunked(tasks: list, n_chunks: int) -> list[list]:
    size = max(1, -(-len(tasks) // n_chunks))
    return [tasks[i : i + size] for i in range(0, len(tasks), size)]


class ResynthExecutor:
    """Chunked resynthesis executor over a persistent, self-healing pool.

    ``transport`` selects how task payloads reach workers: ``"shm"``
    (shared-memory wave segments), ``"pickle"`` (tasks inside the chunk
    messages), or ``"auto"`` (shm when the pool forks and the wave is
    big enough, pickle otherwise).  ``chunk_timeout_s`` is the per-chunk
    result deadline that turns a dead or hung worker into a recoverable
    event; ``retry_policy`` bounds pool respawns (see the module
    docstring for the full recovery ladder).
    """

    def __init__(
        self,
        workers: int,
        params: RefactorParams,
        transport: str = "auto",
        chunk_timeout_s: float = DEFAULT_CHUNK_TIMEOUT_S,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if transport not in ("auto", "shm", "pickle"):
            raise ReproError(f"unknown transport {transport!r}")
        self.workers = max(1, workers)
        self.params = params
        self.transport = transport
        self.chunk_timeout_s = chunk_timeout_s
        self.retry_policy = retry_policy or policy.DEFAULT_RETRY_POLICY
        self._pool = None
        self._pool_broken = False
        self._pool_is_fork = False
        self._forced_transport: str | None = None  # ladder state, sticky
        self._live_segments: set[str] = set()  # created, not yet unlinked

    @property
    def in_process(self) -> bool:
        """True when tasks run on the calling process (no pool)."""
        return self.workers <= 1 or self._pool_broken

    @property
    def effective_transport(self) -> str:
        """The configured transport, after any ladder degradation."""
        return self._forced_transport or self.transport

    def will_pool(self, n_tasks: int) -> bool:
        """Whether ``run`` would dispatch this many tasks to the pool.

        Tail waves shrink geometrically, so small dispatches are common.
        The ~4-tasks-per-worker floor is not a measured break-even, and
        two workers on a 2-vCPU host showed none: on each benchmark
        suite the pooled dispatches (up to 38 tasks each) took 1.3-2.5x
        the in-process time of the same tasks, and the few dispatches
        that ran faster pooled followed no dispatch size.
        A single-core host never pools: the workers would time-slice the
        one CPU the parent already occupies, so every dispatch and every
        pickled factored form is pure overhead there.
        """
        if (os.cpu_count() or 1) < 2:
            return False
        return n_tasks >= self.workers * 4 and not self.in_process

    def warm(self) -> bool:
        """Fork the worker pool now (if pooling applies); True when live.

        Long-lived owners (the serving layer) call this from the main
        thread before spawning circuit threads: forking a process pool
        while sibling threads run is undefined-behaviour territory on
        POSIX, so the fork is front-loaded to a single-threaded moment.
        """
        return self._ensure_pool() is not None

    def run(self, tasks: list[tuple[int, int]]) -> list[tuple]:
        """Resynthesize every task; results align with the input order.

        Bit-identical on every path — pooled, retried, transport-degraded
        or sequential — because all of them run the same worker body.
        """
        if not tasks:
            return []
        pool = self._ensure_pool() if self.will_pool(len(tasks)) else None
        if pool is None:
            return resynthesize_batch(tasks, self.params)
        # ~4 chunks per worker amortizes dispatch while keeping the pool
        # load-balanced when task costs are skewed.
        chunks = _chunked(tasks, self.workers * 4)
        results: list[list | None] = [None] * len(chunks)
        pending = list(range(len(chunks)))
        attempt = 0
        while pending and pool is not None:
            failed = self._dispatch(pool, chunks, pending, results)
            if not failed:
                pending = []
                break
            if not self.retry_policy.allows(attempt):
                # Retry budget exhausted: degrade to the sequential
                # floor for the still-lost chunks and stay there — a
                # pool this unhealthy would burn every future wave's
                # budget rediscovering the same failure.
                policy.record_degradation("sequential")
                _log_once(
                    "degraded-sequential",
                    "engine pool degraded to in-process sequential execution "
                    "after %d failed recovery attempts",
                    attempt,
                )
                self._teardown()
                self._pool_broken = True
                pool = None
                pending = failed
                break
            policy.record_retry()
            attempt += 1
            pool = self._respawn(attempt)
            pending = failed
        for i in pending:
            results[i] = resynthesize_batch(chunks[i], self.params)
        out: list[tuple] = []
        for entries in results:
            out.extend(entries)
        return out

    # -- one dispatch + collect round ----------------------------------------

    def _dispatch(
        self,
        pool,
        chunks: list[list[tuple[int, int]]],
        pending: list[int],
        results: list,
    ) -> list[int]:
        """Ship the pending chunks; collect with per-chunk timeouts.

        Fills ``results`` in place for every chunk that lands (including
        the contained-error recompute path) and returns the indices
        whose results never arrived — dead or hung workers — for the
        caller's retry machinery.  The round's shm segment, if any, is
        unlinked on every exit path.
        """
        want_obs = obs.enabled()
        payloads, segment = self._build_payloads(chunks, pending, want_obs)
        # Worker process objects at dispatch time (CPython pool internals;
        # the liveness probe is what separates a death from a hang).
        procs = list(getattr(pool, "_pool", ()))
        pids = [p.pid for p in procs]
        failed: list[int] = []
        hung = 0
        try:
            handles = [pool.apply_async(_worker, (payload,)) for payload in payloads]
            for i, handle in zip(pending, handles):
                try:
                    fault_fire("chunk.result", chunk=i, pids=pids)
                    raw = handle.get(timeout=self.chunk_timeout_s)
                except mp.TimeoutError:
                    obs.counter(
                        "engine_chunk_failures_total", reason="timeout"
                    ).add(1)
                    failed.append(i)
                    hung += 1
                    continue
                except Exception as error:
                    # Pool-level breakage (or an injected lost chunk):
                    # the chunk is retried, the cause is counted.
                    obs.counter(
                        "engine_chunk_failures_total",
                        reason=type(error).__name__,
                    ).add(1)
                    failed.append(i)
                    continue
                entries, _error, snapshot = raw
                if entries is None:
                    # Chunk-level containment: recompute just this chunk
                    # in process (bit-identical worker body); its
                    # worker-side metrics delta is the only thing lost.
                    if want_obs:
                        obs.counter("engine_worker_chunks_failed_total").add(1)
                    entries = resynthesize_batch(chunks[i], self.params)
                elif snapshot is not None:
                    obs.merge_worker_snapshot(snapshot)
                results[i] = entries
        finally:
            if segment is not None:
                # One-dispatch lifecycle: the round's segment never
                # outlives its collection, crash paths included.
                name = segment.descriptor()[0]
                segment.close()
                segment.unlink()
                self._live_segments.discard(name)
                obs.counter("engine_shm_segments_unlinked_total").add(1)
        if failed:
            deaths = sum(1 for p in procs if not p.is_alive())
            if deaths:
                policy.record_worker_death(deaths)
            else:
                policy.record_worker_hang(hung)
            self._last_round_shm = segment is not None
        return failed

    _last_round_shm = False  # whether the most recent failed round rode shm

    def _respawn(self, attempt: int):
        """Tear down and re-fork the pool for retry round ``attempt``.

        A failed round that used the shared-memory transport first steps
        the ladder down to pickled chunks — if the segment mapping was
        implicated (``/dev/shm`` pressure, a SIGBUS on access), retrying
        over it would fail the same way.  The downgrade is sticky for
        this executor and counted once.
        """
        self._teardown()
        if self._last_round_shm and self.effective_transport != "pickle":
            self._forced_transport = "pickle"
            policy.record_degradation("pickle")
            _log_once(
                "degraded-pickle",
                "engine transport degraded shm -> pickle after a failed round",
            )
        delay = self.retry_policy.backoff(attempt - 1)
        if delay > 0:
            time.sleep(delay)
        return self._ensure_pool()

    def _build_payloads(
        self,
        chunks: list[list[tuple[int, int]]],
        pending: list[int],
        want_obs: bool,
    ):
        """Payloads for the pending chunks plus the owning segment
        (``None`` on the pickle path)."""
        transport = self.effective_transport
        if transport != "pickle" and self._pool_is_fork:
            tasks = [task for i in pending for task in chunks[i]]
            packed = PackedTasks.pack(tasks)
            if transport == "shm" or packed.nbytes >= SHM_MIN_BYTES:
                try:
                    fault_fire("shm.create", nbytes=packed.nbytes)
                    segment = WaveSegment.create(packed)
                except Exception:  # /dev/shm exhaustion, injected faults
                    obs.counter("engine_shm_fallbacks_total").add(1)
                else:
                    obs.counter("engine_shm_segments_created_total").add(1)
                    obs.counter("engine_shm_segment_bytes_total").add(segment.nbytes)
                    self._live_segments.add(segment.descriptor()[0])
                    descriptor = segment.descriptor()
                    payloads = []
                    start = 0
                    for i in pending:
                        stop = start + len(chunks[i])
                        payloads.append(
                            ("shm", self.params, descriptor, start, stop, want_obs, i)
                        )
                        start = stop
                    # Serialized volume = what actually crosses the pipe:
                    # descriptor-range messages, not the segment (which is
                    # written once and mapped zero-copy by workers).
                    obs.counter("engine_task_bytes_total", transport="shm").add(
                        sum(len(pickle.dumps(p)) for p in payloads)
                    )
                    return payloads, segment
        elif transport == "shm":
            # Pinned shm on a non-forking pool: honor the pin as a
            # counted fallback rather than undefined tracker behaviour.
            obs.counter("engine_shm_fallbacks_total").add(1)
        payloads = [
            ("pickle", self.params, chunks[i], want_obs, i) for i in pending
        ]
        obs.counter("engine_task_bytes_total", transport="pickle").add(
            sum(len(pickle.dumps(p)) for p in payloads)
        )
        return payloads, None

    def close(self) -> None:
        """Terminate the pool and sweep any segment the normal unlink
        missed (``engine_shm_segments_swept_total`` counts real sweeps;
        the created/unlinked invariant is preserved either way)."""
        self._teardown()
        for name in sorted(self._live_segments):
            if unlink_by_name(name):
                obs.counter("engine_shm_segments_swept_total").add(1)
                obs.counter("engine_shm_segments_unlinked_total").add(1)
        self._live_segments.clear()

    def __enter__(self) -> "ResynthExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_pool(self):
        if self._pool is None and not self._pool_broken:
            try:
                fault_fire("worker.start", workers=self.workers)
                if "fork" in mp.get_all_start_methods():
                    context = mp.get_context("fork")
                    self._pool_is_fork = True
                    # Workers must inherit the parent's resource tracker
                    # for shm segment accounting to collapse cleanly.
                    share_resource_tracker()
                else:  # pragma: no cover - non-POSIX platforms
                    context = mp.get_context()
                    self._pool_is_fork = False
                self._pool = context.Pool(self.workers)
            except (OSError, ValueError, InjectedFault) as error:
                # Sandboxed hosts (no fork permitted) land here: degrade
                # to in-process execution, counted per cause and logged
                # once so it never masquerades as a perf regression.
                self._pool_broken = True
                self._pool_is_fork = False
                obs.counter(
                    "engine_pool_fallbacks_total", reason=type(error).__name__
                ).add(1)
                _log_once(
                    "pool-fallback",
                    "worker pool unavailable (%s: %s); resynthesis runs "
                    "in-process",
                    type(error).__name__,
                    error,
                )
        return self._pool

    def _teardown(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
