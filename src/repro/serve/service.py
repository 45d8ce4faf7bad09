"""The long-lived optimization service behind ``python -m repro serve``.

An asyncio JSON-lines server on a unix domain socket: each request line
is a JSON object with an ``op``, each response is one JSON line.  The
service composes the serving stack end to end —

* **admission control** in front: at most ``max_pending`` optimize
  requests are admitted at once; excess traffic gets an immediate typed
  rejection (``{"ok": false, "error": {"type": "overloaded", ...}}``,
  counted on ``serve_rejected_total``) instead of an unbounded queue —
  under overload the service stays responsive and callers learn to back
  off *now*, not at timeout.
* a **content-addressed result cache** (:class:`repro.serve.store.ResultStore`)
  keyed ``(structural digest, normalized script, registry version)``:
  repeat structures — whatever their node numbering or names — are
  answered from memory, byte-identical to the original miss.  A repeat
  *text* (the same netlist renamed in its header comment) skips even
  the parse: the store's text memo maps its comment-free code lines to
  the structural key.
* **shard worker processes** (:class:`repro.serve.proc.ShardHost`): each
  shard owns a warm :class:`repro.opt.OptSession` in its own process;
  misses are dispatched to the least-loaded shard.  A dead shard is
  respawned with only its unfinished requests re-run
  (:class:`repro.serve.proc.ShardSupervisor`), degrading to in-process
  execution when the retry budget runs out — a request admitted is a
  request answered.

Wire protocol (one JSON object per line)::

    {"op": "ping"}
    {"op": "optimize", "name": "adder", "bench": "<BENCH text>",
     "script": "b; rf"}                     # script optional
    {"op": "optimize", "name": "adder", "bench": "<BENCH text>",
     "quality_budget_s": 2.0}                # tuned: best result in 2 s
    {"op": "stats"}                          # cache + shard occupancy
    {"op": "metrics"}                        # Prometheus text exposition
    {"op": "shutdown"}

Responses carry ``ok`` plus op-specific fields; an optimize response
has ``bench``, ``n_ands``, ``level``, ``cached`` and ``runtime``.
``quality_budget_s`` routes the request through the per-circuit tuner
(:mod:`repro.tune`) instead of a fixed script: the shard searches for
the best flow it can find within the budget and the response carries
the chosen script as ``tuned_script``.  Budget expiry is *not* an error
— the response is the best committed result so far — and tuned results
bypass the content-addressed cache entirely (their content depends on
the wall clock, so caching one would freeze a timing accident).
Request latency lands on the ``serve_request_seconds`` histogram
(labeled by outcome: ``hit`` / ``miss`` / ``tuned`` / ``rejected`` /
``error``);
``--metrics FILE`` exports the full registry in Prometheus text format
on shutdown.  :func:`request` is the matching blocking client used by
the demo tool and the tests.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import queue
import socket
import threading
import time
from dataclasses import dataclass

from .. import obs
from ..errors import ReproError
from ..opt.registry import default_registry
from .pool import script_requirements
from .proc import ShardHost, ShardSupervisor, _run_one
from .store import CachedResult, ResultStore
from .stream import ServeParams

_POLL_S = 0.2  # drain-thread wakeup to scan for dead shard processes


@dataclass
class ServiceConfig:
    """Startup configuration of one service instance.

    ``script`` is the default flow (requests may override per call);
    ``max_pending`` is the admission bound — optimize requests in flight
    beyond it are rejected, not queued.  ``cache_entries`` sizes the
    content-addressed result store; ``engine_cache_entries`` bounds each
    shard session's resynthesis caches (both LRU).  ``metrics_path``
    exports Prometheus text on shutdown.
    """

    socket_path: str = "repro-serve.sock"
    script: str = "b; rf"
    n_shards: int = 2
    workers: int = 1
    max_pending: int = 16
    cache_entries: int = 256
    engine_cache_entries: int | None = 4096
    circuit_timeout_s: float | None = None
    metrics_path: str | None = None

    def params(self) -> ServeParams:
        return ServeParams(
            flow=self.script,
            n_shards=self.n_shards,
            workers=self.workers,
            circuit_timeout_s=self.circuit_timeout_s,
            engine_cache_entries=self.engine_cache_entries,
        )


class OptimizeService:
    """The running service: shard processes, cache, admission, protocol.

    Lifecycle: :meth:`start` forks the shard processes (while the
    process is still single-threaded: forking while sibling threads run
    is undefined behaviour on POSIX), then starts the drain thread and the
    unix-socket server; :meth:`serve_forever` blocks until a
    ``shutdown`` op arrives; :meth:`stop` tears everything down
    idempotently.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.params = config.params()
        self.registry = default_registry()
        self.store = ResultStore(config.cache_entries, registry=self.registry)
        self.hosts: list[ShardHost] = []
        self.supervisor: ShardSupervisor | None = None
        self._outbox = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._drain: threading.Thread | None = None
        self._stopping = threading.Event()
        self._shutdown_requested: asyncio.Event | None = None
        self._futures: dict[int, asyncio.Future] = {}
        self._next_req = 0
        self._pending = 0
        self._fallback = None  # in-process session for shard-less configs

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Fork shards, start the drain thread and the socket server."""
        self._loop = asyncio.get_running_loop()
        self._shutdown_requested = asyncio.Event()
        ctx = multiprocessing.get_context("fork")
        self._outbox = ctx.Queue()
        for shard_index in range(max(1, self.config.n_shards)):
            host = ShardHost(
                ctx, shard_index, self.params, None, self._outbox
            )
            host.spawn()
            self.hosts.append(host)
        self.supervisor = ShardSupervisor(self.hosts, self.params)
        self._drain = threading.Thread(
            target=self._drain_loop, name="serve-drain", daemon=True
        )
        self._drain.start()
        self._server = await asyncio.start_unix_server(
            self._handle_client, path=self.config.socket_path
        )

    async def serve_forever(self) -> None:
        """Run until a ``shutdown`` op (or cancellation), then stop."""
        await self.start()
        try:
            await self._shutdown_requested.wait()
        finally:
            await self.stop()

    async def stop(self) -> None:
        """Tear down server, drain thread and shard processes (idempotent)."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._drain is not None:
            self._drain.join(timeout=5.0)
        if self.supervisor is not None:
            self.supervisor.close()
        for future in self._futures.values():
            if not future.done():
                future.cancel()
        self._futures.clear()
        if self.config.metrics_path is not None:
            obs.export_metrics(self.config.metrics_path)

    # -- shard plumbing -------------------------------------------------------

    def _drain_loop(self) -> None:
        """Bridge shard results back into the event loop; watch for deaths."""
        while not self._stopping.is_set():
            try:
                req_id, payload = self._outbox.get(timeout=_POLL_S)
            except queue.Empty:
                self.supervisor.check()
                continue
            for host in self.hosts:
                host.complete(req_id)
            loop = self._loop
            if loop is not None and not loop.is_closed():
                loop.call_soon_threadsafe(self._resolve, req_id, payload)

    def _resolve(self, req_id: int, payload: dict) -> None:
        future = self._futures.pop(req_id, None)
        if future is not None and not future.done():
            future.set_result(payload)

    def _least_loaded(self) -> ShardHost:
        return min(self.hosts, key=lambda host: (len(host.inflight), host.shard))

    # -- protocol -------------------------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        """One connection: serve JSON-lines requests until EOF."""
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    message = json.loads(line)
                    response = await self._dispatch(message)
                except Exception as error:
                    obs.counter(
                        "serve_request_errors_total", type=type(error).__name__
                    ).add(1)
                    response = {
                        "ok": False,
                        "error": {"type": "bad_request", "detail": str(error)},
                    }
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            obs.counter("serve_client_disconnects_total").add(1)
        finally:
            writer.close()

    async def _dispatch(self, message: dict) -> dict:
        op = message.get("op")
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "optimize":
            return await self._optimize(message)
        if op == "stats":
            return self._stats()
        if op == "metrics":
            return {"ok": True, "text": obs.prometheus_text(obs.metrics())}
        if op == "shutdown":
            self._shutdown_requested.set()
            return {"ok": True, "op": "shutdown"}
        return {"ok": False, "error": {"type": "unknown_op", "op": op}}

    async def _optimize(self, message: dict) -> dict:
        started = time.perf_counter()
        outcome = "error"
        try:
            response = await self._optimize_inner(message)
            if response["ok"]:
                if response.get("tuned_script") is not None:
                    outcome = "tuned"
                else:
                    outcome = "hit" if response["cached"] else "miss"
            elif response["error"]["type"] == "overloaded":
                outcome = "rejected"
            return response
        finally:
            obs.histogram("serve_request_seconds", outcome=outcome).observe(
                time.perf_counter() - started
            )

    async def _optimize_inner(self, message: dict) -> dict:
        script = message.get("script") or self.config.script
        name = message.get("name") or "circuit"
        bench = message.get("bench")
        if not isinstance(bench, str) or not bench.strip():
            return {
                "ok": False,
                "error": {"type": "bad_request", "detail": "missing bench text"},
            }
        quality_budget_s = message.get("quality_budget_s")
        if quality_budget_s is not None:
            if (
                isinstance(quality_budget_s, bool)
                or not isinstance(quality_budget_s, (int, float))
                or quality_budget_s <= 0
            ):
                return {
                    "ok": False,
                    "error": {
                        "type": "bad_request",
                        "detail": "quality_budget_s must be a positive number",
                    },
                }
            quality_budget_s = float(quality_budget_s)
            return await self._optimize_tuned(name, bench, quality_budget_s)
        try:
            # normalize_script is the *strict* resolver — an unknown
            # command or flag must become a typed rejection here, not a
            # generic failure when the cache key is built downstream
            # (script_requirements alone skips unresolvable commands).
            self.registry.normalize_script(script)
            needs = script_requirements(script, self.registry)
        except ReproError as error:
            return {"ok": False, "error": {"type": "bad_script", "detail": str(error)}}
        if needs.classifier:
            # Shard sessions run classifier-less; a script that requires
            # one can never be served here — reject it typed, up front.
            return {
                "ok": False,
                "error": {"type": "unsupported", "detail": "script needs a classifier"},
            }
        # Admission control: bound what is in flight, reject the rest.
        if self._pending >= self.config.max_pending:
            obs.counter("serve_rejected_total").add(1)
            return {
                "ok": False,
                "error": {
                    "type": "overloaded",
                    "pending": self._pending,
                    "limit": self.config.max_pending,
                },
            }
        self._pending += 1
        try:
            key, n_ands_before, level_before = self.store.request_key(bench, script)
            hit = self.store.lookup(key)
            if hit is not None:
                return {
                    "ok": True,
                    "name": name,
                    "cached": True,
                    "bench": hit.bench_text,
                    "n_ands": hit.n_ands,
                    "level": hit.level,
                    "n_ands_before": n_ands_before,
                    "level_before": level_before,
                    "runtime": 0.0,
                }
            payload = await self._run_sharded(name, bench, script)
            if payload.get("error") is not None:
                return {
                    "ok": False,
                    "name": name,
                    "error": {"type": "flow_error", "detail": payload["error"]},
                }
            response = {
                "ok": True,
                "name": name,
                "cached": False,
                "bench": payload.get("bench_text"),
                "n_ands": payload.get("n_ands", 0),
                "level": payload.get("level", 0),
                "n_ands_before": payload.get("n_ands_before", n_ands_before),
                "level_before": payload.get("level_before", level_before),
                "deadline_exceeded": payload["deadline_exceeded"],
                "runtime": payload.get("runtime", 0.0),
            }
            if (
                payload.get("bench_text") is not None
                and not payload["deadline_exceeded"]
            ):
                self.store.insert(
                    key,
                    CachedResult(
                        bench_text=payload["bench_text"],
                        n_ands=payload.get("n_ands", 0),
                        level=payload.get("level", 0),
                        n_ands_before=payload.get("n_ands_before", n_ands_before),
                        level_before=payload.get("level_before", level_before),
                    ),
                )
            return response
        finally:
            self._pending -= 1

    async def _optimize_tuned(self, name: str, bench: str, budget_s: float) -> dict:
        """Quality-budget request: tuner search on a shard, never cached.

        The store is bypassed in both directions — a cached fixed-flow
        result could be worse than what the budget buys, and a tuned
        result's content depends on the wall clock.  Budget expiry comes
        back as a normal ``ok`` response holding the best committed
        result; only a real flow failure is a typed error.  The front
        never parses the text: the shard does, so a malformed netlist
        comes back as the shard's ``flow_error``.
        """
        if self._pending >= self.config.max_pending:
            obs.counter("serve_rejected_total").add(1)
            return {
                "ok": False,
                "error": {
                    "type": "overloaded",
                    "pending": self._pending,
                    "limit": self.config.max_pending,
                },
            }
        self._pending += 1
        try:
            payload = await self._run_sharded(
                name, bench, None, quality_budget_s=budget_s
            )
            if payload.get("error") is not None:
                return {
                    "ok": False,
                    "name": name,
                    "error": {"type": "flow_error", "detail": payload["error"]},
                }
            return {
                "ok": True,
                "name": name,
                "cached": False,
                "bench": payload.get("bench_text"),
                "n_ands": payload.get("n_ands", 0),
                "level": payload.get("level", 0),
                "n_ands_before": payload["n_ands_before"],
                "level_before": payload["level_before"],
                "deadline_exceeded": payload["deadline_exceeded"],
                "tuned_script": payload.get("tuned_script", ""),
                "quality_budget_s": budget_s,
                "runtime": payload.get("runtime", 0.0),
            }
        finally:
            self._pending -= 1

    async def _run_sharded(
        self,
        name: str,
        bench: str,
        script: str | None,
        quality_budget_s: float | None = None,
    ) -> dict:
        req_id = self._next_req
        self._next_req += 1
        future: asyncio.Future = self._loop.create_future()
        self._futures[req_id] = future
        host = self._least_loaded()
        host.submit(req_id, name, bench, script, quality_budget_s)
        return await future

    def _stats(self) -> dict:
        return {
            "ok": True,
            "pending": self._pending,
            "shards": {
                str(host.shard): {
                    "inflight": len(host.inflight),
                    "alive": host.process is not None and host.process.is_alive(),
                    "respawns": host.attempts,
                }
                for host in self.hosts
            },
            "cache": {
                "hits": self.store.hits,
                "misses": self.store.misses,
                "evictions": self.store.evictions,
                "entries": len(self.store),
                "hit_rate": self.store.hit_rate,
                "text_memo_hits": self.store.text_memo_hits,
                "text_memo_misses": self.store.text_memo_misses,
            },
        }


def run_service(config: ServiceConfig) -> None:
    """Blocking entrypoint: run one service until shutdown (the CLI body)."""
    asyncio.run(OptimizeService(config).serve_forever())


def request(socket_path: str, payload: dict, timeout: float = 60.0) -> dict:
    """Blocking client: send one op, return the decoded response.

    The counterpart of the wire protocol above, used by
    ``tools/serve_demo.py`` and the service tests; one connection per
    call keeps it trivially correct (batch users should hold their own
    connection and stream lines).
    """
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(socket_path)
        sock.sendall(json.dumps(payload).encode() + b"\n")
        buffer = b""
        while not buffer.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            buffer += chunk
    return json.loads(buffer)
