"""Cross-pass resynthesis cache.

Resynthesis — ISOP extraction plus algebraic factoring — is a pure
function of ``(truth table, leaf count)``, which is why one pass-level
dict already serves many nodes of one sweep.  A :class:`ResynthCache`
extends that *across passes*: it outlives a single operator pass, so the
second ``elf`` of an ``elf; elf`` flow starts with every factored form
the first pass derived.  Lookups are exact, so entries are bit-identical
to recomputation and sharing a cache changes nothing but runtime.

A second, independent layer, :meth:`ResynthCache.library_lookup`,
memoizes the NPN-library resolution ``tt4 -> (LibraryEntry, Transform)``
per cache.  It stores the library's own (immutable) entries, never
derived trees, so it is deterministic and safe for any consumer.  No
built-in command routes through it: ``rw`` and its ``prw`` alias look
functions up in the library directly.

Every layer can be bounded: ``ResynthCache(max_entries=N)`` keeps at
most ``N`` entries per layer in LRU order and counts evictions on the
``engine_cache_evictions_total{layer=...}`` metric.  Unbounded remains
the default — a single flow's working set is modest — but long-lived
serving sessions cap their caches so memory stays flat under arbitrary
circuit traffic.

Those bounds cover this cache only.  The kernels underneath keep
process-wide memos of their own — the ISOP core's subproblems
(``repro.tt.isop``) and factoring's sub-SOP trees
(``repro.factor.factoring``) — which no cache bound and no per-run cache
resets: in a serving shard they live across every request, bounded only
by their entry caps (``docs/engine.md`` gives the bytes per entry).
"""

from __future__ import annotations

from .. import obs


class ResynthCache:
    """Dict-compatible ``(tt, n_leaves) -> (tree, inverted)`` cache.

    Drop-in for the per-pass dict the operators use (``get`` /
    ``__setitem__`` / ``__contains__``).

    Cached entries are factored under the knobs of whoever computed
    them: every consumer sharing one cache must use the same factoring
    parameters (``try_complement``, ``method``), which ``run_flow``
    guarantees by constructing all refactor-family steps alike.

    Hit/miss counters are cumulative; consumers snapshot them around a
    pass to report per-pass rates.
    """

    def __init__(self, max_entries: int | None = None) -> None:
        # Per-layer LRU bound (None = unbounded, the historical default).
        # Long-lived consumers — the serving tier above all — set it so a
        # cache shared across thousands of circuits cannot grow without
        # limit; evictions land on ``engine_cache_evictions_total``.
        self.max_entries = max_entries
        self._exact: dict[tuple[int, int], tuple] = {}
        # Rewrite-library resolutions: padded tt4 -> (entry, transform).
        self._library: dict[int, tuple] = {}
        self.hits_exact = 0
        self.misses = 0
        self.hits_library = 0
        self.misses_library = 0

    def _trim(self, layer: dict, name: str) -> None:
        """Evict oldest entries of ``layer`` down to the LRU bound."""
        if self.max_entries is None:
            return
        while len(layer) > self.max_entries:
            layer.pop(next(iter(layer)))
            obs.counter("engine_cache_evictions_total", layer=name).add(1)

    def _touch(self, layer: dict, key) -> None:
        """Mark ``key`` most-recently-used (insertion order is LRU order)."""
        if self.max_entries is not None:
            layer[key] = layer.pop(key)

    def get(self, key: tuple[int, int]):
        """Entry for ``key`` or None."""
        entry = self._exact.get(key)
        if entry is not None:
            self._touch(self._exact, key)
            self.hits_exact += 1
            return entry
        self.misses += 1
        return None

    def __setitem__(self, key: tuple[int, int], entry: tuple) -> None:
        self._exact[key] = entry
        self._trim(self._exact, "exact")

    def library_lookup(self, tt4: int, library) -> tuple:
        """Cached NPN-library resolution of a padded 4-variable function.

        Returns the library's ``(entry, transform)`` pair for ``tt4``,
        memoized in this cache.  Unlike the resynthesis layer above, the
        stored values come straight from
        :meth:`repro.opt.npn_library.NpnLibrary.lookup` — immutable class
        implementations plus the recorded transform — so a hit is exactly
        the pair a direct lookup would return, for any consumer.
        """
        hit = self._library.get(tt4)
        if hit is not None:
            self._touch(self._library, tt4)
            self.hits_library += 1
            return hit
        self.misses_library += 1
        resolved = library.lookup(tt4)
        self._library[tt4] = resolved
        self._trim(self._library, "library")
        return resolved

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._exact

    def __len__(self) -> int:
        return len(self._exact)
