"""Cross-pass resynthesis cache with an NPN-canonical layer.

Resynthesis — ISOP extraction plus algebraic factoring — is a pure
function of ``(truth table, leaf count)``, which is why one pass-level
dict already serves many nodes of one sweep.  This module extends that
in two directions:

* **cross-pass**: a :class:`ResynthCache` outlives a single operator
  pass, so the second ``elf`` of an ``elf; elf`` flow starts with every
  factored form the first pass derived;
* **cross-function**: 4-leaf cut functions are additionally indexed by
  their NPN class (:mod:`repro.tt.npn`).  A miss on the exact table but
  a hit on the class remaps the cached factored tree through the NPN
  transform — a variable permutation plus input/output negations — which
  costs a handful of tree-node rebuilds instead of a full ISOP +
  factoring run.

Exact lookups return bit-identical entries to recomputation, so sharing
a cache with the *sequential* operators changes nothing but runtime.
NPN-remapped entries are functionally equivalent but may factor a class
representative differently than the concrete table would have factored;
they are therefore only served through :meth:`ResynthCache.npn_view`,
which no command uses any more (slated for deletion).

A third, independent layer serves the *rewrite* family:
:meth:`ResynthCache.library_lookup` memoizes the NPN-library resolution
``tt4 -> (LibraryEntry, Transform)`` per cache (i.e. per flow), so every
``prw`` wave — and every later rewrite step of the same script — pays
the canonization walk for each distinct 4-variable function once.  The
layer stores the library's own (immutable) entries, never derived trees,
so it is deterministic and safe for any consumer.

Every layer can be bounded: ``ResynthCache(max_entries=N)`` keeps at
most ``N`` entries per layer in LRU order and counts evictions on the
``engine_cache_evictions_total{layer=...}`` metric.  Unbounded remains
the default — a single flow's working set is modest — but long-lived
serving sessions cap their caches so memory stays flat under arbitrary
circuit traffic.
"""

from __future__ import annotations

from .. import obs
from ..factor.tree import KIND_LIT, FactorTree
from ..tt.npn import N_VARS, Transform, invert_transform, npn_canonize


def remap_tree(tree: FactorTree, transform: Transform) -> FactorTree:
    """Substitute variables of ``tree`` along an NPN transform.

    With ``transform = (perm, flips, _)``, variable ``j`` becomes
    variable ``perm[j]``, complemented when bit ``j`` of ``flips`` is
    set (the output-negation member is handled by the caller through the
    entry's ``inverted`` flag).  The tree shape — and therefore the
    literal count the gain check sees — is preserved exactly.
    """
    perm, flips, _output_flip = transform
    if tree.kind == KIND_LIT:
        return FactorTree.lit(
            perm[tree.var], tree.negative ^ bool(flips >> tree.var & 1)
        )
    if not tree.children:
        return tree
    return FactorTree(
        tree.kind,
        children=tuple(remap_tree(child, transform) for child in tree.children),
    )


class ResynthCache:
    """Dict-compatible ``(tt, n_leaves) -> (tree, inverted)`` cache.

    Drop-in for the per-pass dict the operators use (``get`` /
    ``__setitem__`` / ``__contains__``), plus the NPN-canonical side
    table for 4-leaf cuts.  The base handle serves — and stores — exact
    entries only, so sequential consumers pay no canonization cost and
    stay bit-identical to running uncached; :meth:`npn_view` returns a
    handle over the same exact/canonical storage that additionally
    serves NPN-class remaps.  Remapped entries live in a view-local
    overlay and never enter the shared exact store — an exact-only
    handle can never observe an NPN-derived tree.

    Cached entries are factored under the knobs of whoever computed
    them: every consumer sharing one cache must use the same factoring
    parameters (``try_complement``, ``method``), which ``run_flow``
    guarantees by constructing all refactor-family steps alike.

    Hit/miss counters are cumulative and shared by all views; consumers
    snapshot them around a pass to report per-pass rates.
    """

    def __init__(self, max_entries: int | None = None) -> None:
        # Per-layer LRU bound (None = unbounded, the historical default).
        # Long-lived consumers — the serving tier above all — set it so a
        # cache shared across thousands of circuits cannot grow without
        # limit; evictions land on ``engine_cache_evictions_total``.
        self.max_entries = max_entries
        self._exact: dict[tuple[int, int], tuple] = {}
        # Canonical 4-variable entries: class table -> entry in the
        # canonical variable space.  Populated lazily, by NPN views only.
        self._canonical: dict[int, tuple] = {}
        # Rewrite-library resolutions: padded tt4 -> (entry, transform).
        self._library: dict[int, tuple] = {}
        self.hits_exact = 0
        self.hits_npn = 0
        self.misses = 0
        self.hits_library = 0
        self.misses_library = 0
        self._npn_lookup = False
        # View-local state: remapped entries, and transforms computed by
        # a miss in get() so __setitem__ need not canonize again.
        self._overlay: dict[tuple[int, int], tuple] = {}
        self._pending_canon: dict[tuple[int, int], tuple[int, Transform]] = {}

    def npn_view(self) -> "ResynthCache":
        """A handle over the same storage that also serves NPN-class hits."""
        view = ResynthCache(self.max_entries)
        view._exact = self._exact
        view._canonical = self._canonical
        view._library = self._library
        view._npn_lookup = True
        view._stats_owner = self._owner()
        return view

    # Counter writes go to the storage owner so views and owner agree.
    _stats_owner: "ResynthCache | None" = None

    def _owner(self) -> "ResynthCache":
        # NB: explicit None test — ``or`` would misfire on an empty owner
        # (``__len__`` makes an empty cache falsy).
        return self if self._stats_owner is None else self._stats_owner

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
        """Entry for ``key`` or None; NPN remaps count as hits on views."""
        entry = self._exact.get(key)
        owner = self._owner()
        if entry is not None:
            self._touch(self._exact, key)
            owner.hits_exact += 1
            return entry
        tt, n_leaves = key
        if self._npn_lookup and n_leaves == N_VARS:
            entry = self._overlay.get(key)
            if entry is not None:
                owner.hits_npn += 1
                return entry
            canonical, transform = npn_canonize(tt)
            hit = self._canonical.get(canonical)
            if hit is not None:
                self._touch(self._canonical, canonical)
                tree_c, inverted_c = hit
                entry = (
                    remap_tree(tree_c, transform),
                    inverted_c ^ transform[2],
                )
                self._overlay[key] = entry
                self._trim(self._overlay, "overlay")
                owner.hits_npn += 1
                return entry
            self._pending_canon[key] = (canonical, transform)
        owner.misses += 1
        return None

    def __setitem__(self, key: tuple[int, int], entry: tuple) -> None:
        self._exact[key] = entry
        self._trim(self._exact, "exact")
        if not self._npn_lookup:
            return  # exact-only consumers never pay for canonization
        tt, n_leaves = key
        if n_leaves != N_VARS:
            return
        pending = self._pending_canon.pop(key, None)
        canonical, transform = pending if pending is not None else npn_canonize(tt)
        if canonical not in self._canonical:
            tree, inverted = entry
            inverse = invert_transform(transform)
            self._canonical[canonical] = (
                remap_tree(tree, inverse),
                inverted ^ inverse[2],
            )
            self._trim(self._canonical, "canonical")

    def library_lookup(self, tt4: int, library) -> tuple:
        """Cached NPN-library resolution of a padded 4-variable function.

        Returns the library's ``(entry, transform)`` pair for ``tt4``,
        memoized in a layer shared by every view of this cache.  Unlike
        the resynthesis layers above, the stored values come straight
        from :meth:`repro.opt.npn_library.NpnLibrary.lookup` — immutable
        class implementations plus the recorded transform — so a hit is
        exactly the pair a direct lookup would return, for any consumer.
        """
        owner = self._owner()
        hit = self._library.get(tt4)
        if hit is not None:
            self._touch(self._library, tt4)
            owner.hits_library += 1
            return hit
        owner.misses_library += 1
        resolved = library.lookup(tt4)
        self._library[tt4] = resolved
        self._trim(self._library, "library")
        return resolved

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._exact

    def __len__(self) -> int:
        return len(self._exact)

    @property
    def n_npn_classes(self) -> int:
        """Distinct 4-variable NPN classes with a cached factored form."""
        return len(self._canonical)
