"""Content-addressed result store: serve repeat circuits from memory.

Production synthesis traffic is heavily repetitive — the same cores,
arithmetic blocks and glue cones arrive again and again under different
node numberings and names.  :class:`ResultStore` memoizes finished
optimization results under a key that sees through that noise:

    ``(structural digest, normalized script, registry version)``

* the **structural digest** (:func:`repro.aig.structural_digest`) is a
  Merkle fold of the PO-reachable AND/inverter structure — independent
  of node numbering, construction order, names and dangling logic, so
  two strash-equivalent submissions of one function share an entry;
* the **normalized script**
  (:meth:`repro.opt.registry.CommandRegistry.normalize_script`) resolves
  aliases and flag spellings to one canonical form, so ``"f; fz"`` and
  ``"rf; rfz"`` hit the same entry while ``"rf"`` vs ``"rf -l"`` miss;
* the **registry version**
  (:attr:`repro.opt.registry.CommandRegistry.version`) fences entries to
  the command surface that produced them — registering, renaming or
  re-flagging a command invalidates every old key.

A hit returns the stored :class:`CachedResult` verbatim: its
``bench_text`` is byte-for-byte the text the original miss computed (at
``workers=1`` that text is itself byte-identical to a blocking
``run_flow``), so cache placement is invisible to result content.  One
caveat follows from keying on structure rather than names: the BENCH
header line carries the *first* submitter's circuit name — the canonical
result for a structure is whatever the first miss computed.

The store is a bounded LRU (``max_entries``), safe for concurrent
readers/writers, and fully instrumented on the :mod:`repro.obs`
registry: ``serve_cache_hits_total`` / ``serve_cache_misses_total`` /
``serve_cache_evictions_total`` counters plus a ``serve_cache_entries``
gauge, each labeled with the store's process-unique ``store`` label so
several stores (tests, benchmarks, a live service) never collide.

``spill_dir`` adds an on-disk tier under the same content addresses:
every insert also writes one digest-named JSON file (atomically), and a
memory miss lazily reloads from disk before giving up — so a restarted
service (or a memory-evicted entry) answers warm traffic from the spill
instead of re-paying the flow.  Spill files are never deleted by LRU
eviction (surviving restarts is their whole point), loads verify the
embedded key before trusting a file, and a corrupt or alien file simply
degrades to a miss.  Counted on ``serve_cache_spill_writes_total`` /
``serve_cache_spill_loads_total``.

**Text memo.**  Keying a request by structure costs a parse and a
digest, which is most of a hit's latency — yet most repeat requests
resend the *same text* under a new name, and the name lives only in
the ``# name`` header comment the parser throws away.  So
:meth:`ResultStore.request_key` first looks the request text up in a
bounded memo keyed by :func:`text_key`: blake2b-128 of the text's code
lines, cut by :func:`repro.aig.io_bench.code_lines` — the very helper
:func:`repro.aig.io_bench.from_text` reads its input through.  The memo
is exact: ``from_text`` reads nothing but that code-line sequence, so
two texts with equal code lines parse to identical AIGs (same signal
names, same node numbering, same PO order), hence to the same
structural digest, AND count and depth.  A memo hit therefore yields
exactly the store key and the ``n_ands_before``/``level_before`` a
re-parse would give, for one strip, one hash and two dict lookups.
Anything the memo misses — a renumbered or re-spelled netlist — still
meets the structural key after one parse.  The memo holds only the
16-byte key and ``(digest, n_ands, level)``, never the text; it shares
the store's ``max_entries`` LRU bound, is never spilled, and counts
its decisions on ``serve_text_memo_hits_total`` /
``serve_text_memo_misses_total`` (same ``store`` label).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

from .. import obs
from ..aig.digest import structural_digest
from ..aig.graph import AIG
from ..aig.io_bench import code_lines, from_text
from ..opt.registry import CommandRegistry, default_registry

Key = tuple[str, str, str]  # (structural digest, normalized script, registry version)
Shape = tuple[str, int, int]  # (structural digest, n_ands, max_level) of a parse


def text_key(text: str) -> bytes:
    """16-byte text-memo key of BENCH ``text`` (see the module docstring).

    Hashes the code lines :func:`repro.aig.io_bench.from_text` reads and
    nothing else, so texts that differ only in comments, blank lines or
    surrounding whitespace share a key.
    """
    code = "\n".join(line for _raw, line in code_lines(text))
    return hashlib.blake2b(
        code.encode("utf-8", "surrogatepass"), digest_size=16
    ).digest()


@dataclass(frozen=True)
class CachedResult:
    """The content of one store entry: what a flow run produced.

    ``bench_text`` is the canonical payload (the byte-identity contract
    lives on it); the size/level stats ride along so hits can fill a
    result record without re-parsing the text.
    """

    bench_text: str
    n_ands: int
    level: int
    n_ands_before: int
    level_before: int

    def payload(self, name: str, n_ands_before: int, level_before: int) -> dict:
        """This entry as a serve payload answering request ``name``.

        The before-counts are the request's own: a structural hit keys
        on PO-reachable logic only, so the request may carry dangling
        logic the first submitter did not.
        """
        return {
            "name": name,
            "error": None,
            "deadline_exceeded": False,
            "cached": True,
            "bench_text": self.bench_text,
            "n_ands": self.n_ands,
            "level": self.level,
            "n_ands_before": n_ands_before,
            "level_before": level_before,
            "runtime": 0.0,
        }


def _entry(record: dict) -> CachedResult:
    """The entry held in ``record``: a serve payload or a spill file's result."""
    return CachedResult(
        bench_text=str(record["bench_text"]),
        n_ands=int(record["n_ands"]),
        level=int(record["level"]),
        n_ands_before=int(record["n_ands_before"]),
        level_before=int(record["level_before"]),
    )


class ResultStore:
    """Bounded LRU of :class:`CachedResult` keyed by content address.

    ``max_entries`` bounds the entry count (LRU eviction, counted on
    ``serve_cache_evictions_total``); ``registry`` supplies script
    normalization and the version fence — every key this store builds
    embeds *that* registry's version, so a store is coherent for exactly
    one command surface.  ``spill_dir`` enables the on-disk tier (see
    the module docstring): inserts also write digest-named JSON files
    there, and memory misses lazily reload from them.
    """

    def __init__(
        self,
        max_entries: int = 256,
        registry: CommandRegistry | None = None,
        spill_dir: str | Path | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("ResultStore needs max_entries >= 1")
        self.max_entries = max_entries
        self.registry = registry if registry is not None else default_registry()
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        if self.spill_dir is not None:
            self.spill_dir.mkdir(parents=True, exist_ok=True)
        self.label = obs.next_label("store")
        labels = {"store": self.label}
        metrics = obs.metrics()
        self._hits = metrics.counter("serve_cache_hits_total", **labels)
        self._misses = metrics.counter("serve_cache_misses_total", **labels)
        self._evictions = metrics.counter("serve_cache_evictions_total", **labels)
        self._spill_writes = metrics.counter(
            "serve_cache_spill_writes_total", **labels
        )
        self._spill_loads = metrics.counter("serve_cache_spill_loads_total", **labels)
        self._entries = metrics.gauge("serve_cache_entries", **labels)
        self._text_hits = metrics.counter("serve_text_memo_hits_total", **labels)
        self._text_misses = metrics.counter("serve_text_memo_misses_total", **labels)
        self._lock = threading.Lock()
        self._store: dict[Key, CachedResult] = {}
        self._texts: dict[bytes, Shape] = {}  # text memo, same LRU bound

    # -- keying ---------------------------------------------------------------

    def key(self, g: AIG, script: str) -> Key:
        """Content address of serving ``script`` on ``g``.

        Raises :class:`repro.errors.ReproError` when the script does not
        resolve — an unservable request must fail here, not fabricate a
        key that could never have a valid entry.
        """
        return (
            structural_digest(g),
            self.registry.normalize_script(script),
            self.registry.version,
        )

    def request_key(self, text: str, script: str) -> tuple[Key, int, int]:
        """Store key of serving ``script`` on BENCH ``text``, plus the
        parsed circuit's AND count and depth.

        A text-memo hit skips the parse (module docstring); a miss
        parses ``text`` once and remembers its shape.  Raises like
        :meth:`key` on an unresolvable script, and
        :class:`repro.errors.BenchFormatError` on unparsable text (never
        memoized).
        """
        normalized = self.registry.normalize_script(script)
        memo_key = text_key(text)
        with self._lock:
            shape = self._texts.pop(memo_key, None)
            if shape is not None:
                self._texts[memo_key] = shape  # MRU refresh
        if shape is not None:
            self._text_hits.add(1)
        else:
            self._text_misses.add(1)
            g = from_text(text)
            shape = (structural_digest(g), g.n_ands, g.max_level())
            with self._lock:
                self._texts[memo_key] = shape
                while len(self._texts) > self.max_entries:
                    self._texts.pop(next(iter(self._texts)))
        digest, n_ands, level = shape
        return (digest, normalized, self.registry.version), n_ands, level

    # -- lookup / insert ------------------------------------------------------

    def lookup(self, key: Key) -> CachedResult | None:
        """Entry for ``key`` (refreshed as most-recently-used) or None.

        With a spill tier, a memory miss tries the on-disk file before
        reporting a miss; a successful reload re-enters the memory LRU
        and counts as a hit (the store *did* answer the request).
        """
        with self._lock:
            entry = self._store.get(key)
            if entry is not None:
                self._store[key] = self._store.pop(key)  # MRU refresh
                self._hits.add(1)
                return entry
        entry = self._spill_load(key)
        if entry is None:
            self._misses.add(1)
            return None
        with self._lock:
            self._insert_locked(key, entry)
            self._hits.add(1)
        return entry

    def insert(self, key: Key, result: CachedResult) -> None:
        """Store ``result`` under ``key``, evicting LRU past the bound.

        Memory eviction never touches spill files — the disk tier exists
        precisely to outlive both the LRU bound and the process.
        """
        with self._lock:
            self._insert_locked(key, result)
        self._spill_write(key, result)

    def insert_payload(self, key: Key, payload: dict) -> None:
        """Cache a finished serve payload when it is clean.

        Only a result without error, within its deadline and with bench
        text enters: a deadline-expired result is a timing accident, and
        an errored one has no content.
        """
        if (
            payload["error"] is None
            and not payload["deadline_exceeded"]
            and payload.get("bench_text") is not None
        ):
            self.insert(key, _entry(payload))

    def _insert_locked(self, key: Key, result: CachedResult) -> None:
        self._store.pop(key, None)  # re-insert = refresh, never double
        self._store[key] = result
        while len(self._store) > self.max_entries:
            self._store.pop(next(iter(self._store)))
            self._evictions.add(1)
        self._entries.set(len(self._store))

    # -- spill tier -----------------------------------------------------------

    def _spill_path(self, key: Key) -> Path:
        digest = hashlib.blake2b("\x1f".join(key).encode(), digest_size=16)
        return self.spill_dir / f"{digest.hexdigest()}.json"

    def _spill_write(self, key: Key, result: CachedResult) -> None:
        if self.spill_dir is None:
            return
        path = self._spill_path(key)
        payload = {"key": list(key), "result": asdict(result)}
        tmp = path.with_name(path.name + ".tmp")
        try:
            tmp.write_text(json.dumps(payload) + "\n", encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            return  # a full/read-only disk degrades the tier, not the serve
        self._spill_writes.add(1)

    def _spill_load(self, key: Key) -> CachedResult | None:
        if self.spill_dir is None:
            return None
        try:
            payload = json.loads(self._spill_path(key).read_text(encoding="utf-8"))
            if tuple(payload["key"]) != key:  # filename collision / alien file
                return None
            entry = _entry(payload["result"])
        except (OSError, ValueError, KeyError, TypeError):
            return None  # absent or corrupt spill file = plain miss
        self._spill_loads.add(1)
        return entry

    def get(self, g: AIG, script: str) -> CachedResult | None:
        """Convenience: :meth:`key` + :meth:`lookup` in one call."""
        return self.lookup(self.key(g, script))

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def __contains__(self, key: Key) -> bool:
        with self._lock:
            return key in self._store

    @property
    def hits(self) -> int:
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        return int(self._misses.value)

    @property
    def evictions(self) -> int:
        return int(self._evictions.value)

    @property
    def spill_writes(self) -> int:
        return int(self._spill_writes.value)

    @property
    def spill_loads(self) -> int:
        return int(self._spill_loads.value)

    @property
    def text_memo_hits(self) -> int:
        return int(self._text_hits.value)

    @property
    def text_memo_misses(self) -> int:
        return int(self._text_misses.value)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
