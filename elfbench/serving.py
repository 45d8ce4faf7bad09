"""Closed-loop load against ``python -m repro serve``.

The service runs as its own process (``--shards 2``, default ``b; rf``
script).  One load generator — this process — drives it over one
connection, sending the next request only after the previous reply
arrived, the way a caller that waits for results behaves.  One
connection keeps at most one process (front or shard) busy at a time, so
on a host with few cores the latencies measure the service rather than
the scheduler.

A request line longer than the service's 64 KiB stream limit is dropped
by the service: the connection closes with no reply.  The generator
records each such drop as a failed request and reconnects.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from dataclasses import dataclass

from repro import obs
from repro.aig.io_bench import from_text, to_text
from repro.opt import OptSession
from repro.serve.service import request as service_request

SCRIPT = "b; rf"
SHARDS = 2
ENGINE_CACHE_ENTRIES = 4096  # the service's --engine-cache-entries default
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0


@dataclass
class Sample:
    """Outcome of one served request."""

    index: int
    name: str
    bytes_sent: int
    ok: bool
    cached: bool = False
    latency_s: float = 0.0
    runtime_s: float = 0.0
    bench: str | None = None
    error: str = ""


class Service:
    """One ``python -m repro serve`` process and its lifecycle."""

    def __init__(self, root: str, socket_path: str, env: dict, log_path: str) -> None:
        self.root = root
        self.socket_path = socket_path
        self.env = env
        self.log_path = log_path
        self.process: subprocess.Popen | None = None

    def boot(self) -> None:
        """Start the service and wait for its first ping."""
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--socket", self.socket_path,
                 "--shards", str(SHARDS), "--script", SCRIPT],
                cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"service exited with {self.process.returncode} at boot")
            try:
                if self.call({"op": "ping"}).get("ok"):
                    return
            except (OSError, ValueError):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("service did not answer ping")
            time.sleep(0.02)

    def call(self, payload: dict) -> dict:
        return service_request(self.socket_path, payload, timeout=REQUEST_TIMEOUT_S)

    def peak_rss_mb(self) -> float:
        """Summed peak resident memory (VmHWM) of the front and its shards."""
        pids = [self.process.pid] + _children(self.process.pid)
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        """Shut the service down and wait for it; kill it if it hangs."""
        if self.process is None or self.process.poll() is not None:
            return
        try:
            self.call({"op": "shutdown"})
            self.process.wait(timeout=30)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()


def _children(pid: int) -> list[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as handle:
            return [int(x) for x in handle.read().split()]
    except OSError:
        return []


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class _Connection:
    """One persistent JSON-lines connection; reconnects after a drop."""

    def __init__(self, socket_path: str) -> None:
        self.socket_path = socket_path
        self.sock: socket.socket | None = None

    def _open(self) -> socket.socket:
        if self.sock is None:
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self.sock.settimeout(REQUEST_TIMEOUT_S)
            self.sock.connect(self.socket_path)
        return self.sock

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def roundtrip(self, line: bytes) -> bytes | None:
        """Send one line and read one reply line; ``None`` when dropped."""
        try:
            sock = self._open()
            sock.sendall(line)
            chunks = []
            while True:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
                if chunk.endswith(b"\n"):
                    return b"".join(chunks)
        except (BrokenPipeError, ConnectionResetError):
            pass
        self.close()
        return None


def drive(socket_path: str, requests: list, indices: range) -> tuple[list[Sample], float]:
    """Send ``requests[i]`` for ``i`` in ``indices``, in order, over one
    closed-loop connection.

    Request lines are encoded before the stream starts and replies are
    decoded after it ends, so the timed loop only sends and receives.
    Returns the samples (in request order) and the stream's wall time.
    """
    lines = {
        i: json.dumps({"op": "optimize", "name": requests[i].name,
                       "bench": requests[i].bench}).encode() + b"\n"
        for i in indices
    }
    replies: dict[int, tuple[float, bytes | None]] = {}
    conn = _Connection(socket_path)
    t0 = time.perf_counter()
    try:
        for index in indices:
            with obs.span("serve.request", request=index, circuit=requests[index].name) as span:
                reply = conn.roundtrip(lines[index])
            replies[index] = (span.duration, reply)
    finally:
        conn.close()
    wall = time.perf_counter() - t0
    samples = []
    for index in indices:
        latency, reply = replies[index]
        sample = Sample(index, requests[index].name, len(lines[index]), ok=False,
                        latency_s=latency)
        if reply is None:
            sample.error = "dropped"
        else:
            response = json.loads(reply)
            if response.get("ok"):
                sample.ok = True
                sample.cached = bool(response.get("cached"))
                sample.runtime_s = float(response.get("runtime", 0.0))
                sample.bench = response.get("bench")
            else:
                sample.error = response.get("error", {}).get("type", "error")
        samples.append(sample)
    return samples, wall


def reference_texts(items: list) -> dict:
    """Blocking ``OptSession.run`` outputs, configured as a shard session
    is, for ``(name, bench)`` pairs; keyed by name."""
    texts = {}
    with OptSession(engine_workers=1, per_run_cache=True,
                    cache_entries=ENGINE_CACHE_ENTRIES) as session:
        for name, bench in items:
            out, _ = session.run(from_text(bench, name=name), SCRIPT)
            texts[name] = to_text(out)
    return texts


def parse_digest_seconds(benches: list) -> list[float]:
    """Per-request cost of the front's key: ``from_text`` + ``structural_digest``."""
    out = []
    for bench in benches:
        t0 = time.perf_counter()
        from_text(bench).structural_digest()
        out.append(time.perf_counter() - t0)
    return out


def service_env(root: str, cache_dir: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_CACHE_DIR"] = cache_dir
    return env
