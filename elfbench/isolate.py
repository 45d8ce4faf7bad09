"""Cold, isolated measurement: every timed call runs in a forked child.

Two caches live for the whole life of a process — the ISOP memo
(``repro.tt.isop``) and the factor-tree cube cache
(``repro.factor.tree``) — and a warm cache makes ``rf`` about 30%
faster.  So the parent process only generates inputs, and every setup,
timed command, replay and check runs in a child forked from it: no
measurement depends on what ran before it.

``fork`` (not ``spawn``) is deliberate: the child must start from the
parent's generated inputs and imported modules without re-importing or
re-pickling them.  The parent forks only while it has no other threads.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import time
import traceback
from dataclasses import dataclass

_CTX = multiprocessing.get_context("fork")
CHILD_TIMEOUT_S = 120.0


class ChildFailed(RuntimeError):
    """A measured child raised or died; carries the child's traceback."""


@dataclass
class HostSample:
    """Process CPU seconds and ``/proc/stat`` steal ticks for one span of wall time."""

    cpu_s: float = 0.0
    steal_ticks: int = 0
    total_ticks: int = 0

    @property
    def steal_frac(self) -> float:
        return self.steal_ticks / self.total_ticks if self.total_ticks else 0.0


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies from the aggregate ``cpu`` line of ``/proc/stat``."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(x) for x in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields)


def process_cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class HostMeter:
    """Measures CPU seconds and steal ticks between ``__enter__`` and ``__exit__``."""

    def __enter__(self) -> "HostMeter":
        self._cpu0 = process_cpu_s()
        self._ticks0 = cpu_ticks()
        return self

    def __exit__(self, *exc_info) -> None:
        steal1, total1 = cpu_ticks()
        self.sample = HostSample(
            cpu_s=process_cpu_s() - self._cpu0,
            steal_ticks=steal1 - self._ticks0[0],
            total_ticks=total1 - self._ticks0[1],
        )


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _child_main(conn, fn, args) -> None:
    from repro import obs

    obs.reset()  # spans recorded in this child start from an empty tracer
    try:
        with HostMeter() as meter:
            value = fn(*args)
        message = ("ok", value, meter.sample, peak_rss_mb())
    except Exception:  # reported to the parent, which raises ChildFailed
        message = ("error", traceback.format_exc())
    conn.send(message)
    conn.close()


@dataclass
class ChildResult:
    value: object
    host: HostSample
    peak_rss_mb: float


def start(fn, *args):
    """Fork a child running ``fn(*args)``; returns a handle for :func:`finish`."""
    recv, send = _CTX.Pipe(duplex=False)
    process = _CTX.Process(target=_child_main, args=(send, fn, args))
    process.start()
    send.close()
    return process, recv


def finish(handle) -> ChildResult:
    """Wait for a child from :func:`start` and return what it sent."""
    process, recv = handle
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        if not recv.poll(CHILD_TIMEOUT_S):
            raise ChildFailed(f"child {process.pid} sent nothing in {CHILD_TIMEOUT_S:.0f} s")
        message = recv.recv()
    except EOFError:
        message = ("error", f"child {process.pid} exited without a result")
    finally:
        recv.close()
        process.join(max(1.0, deadline - time.monotonic()))
        if process.is_alive():
            process.kill()
            process.join()
    if message[0] != "ok":
        raise ChildFailed(message[1])
    _, value, host, rss = message
    return ChildResult(value, host, rss)


def run(fn, *args) -> ChildResult:
    """Run ``fn(*args)`` in a fresh forked child and return its result."""
    return finish(start(fn, *args))
