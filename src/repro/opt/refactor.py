"""The refactor operator (ABC's ``abcRefactor.c`` flow, in Python).

For every AND node (Algorithm 1 of the paper):

1. form a reconvergence-driven cut (default leaf limit 10);
2. compute the cut function's truth table;
3. derive an ISOP, algebraically factor it (both polarities, keep the
   cheaper), and *count* — against the structural hash table — how many
   fresh nodes the factored form would need;
4. commit when that beats the MFFC the replacement frees
   (``gain = nodes removed - nodes added > 0``; ``== 0`` accepted in
   zero-cost mode), optionally rejecting commits that would push the root
   past its required level.

Per-phase wall-clock buckets are recorded because the whole point of ELF
is where refactor's time goes: most cuts fail step 3/4, and pruning them
is the paper's contribution.

ELF prunes with a classifier, which loses some commits.  This module
also prunes losslessly.  When the MFFC is the root alone (outside
zero-cost mode), the budget is zero fresh nodes, so the cut can only
commit by reusing a literal that already computes the root's function.
A zero-cost ``count_tree`` result creates no virtual node, so its root
is a real literal of one of three kinds: a constant, a leaf literal, or
a structural-hash hit outside the MFFC whose fanins are themselves such
real descriptors.  The literal computes the tree's function, the cut
table ``tt`` or its complement.  Two exact tests, cheapest first, each
fail the cut as ``RefactorStats.fail_screened`` without ISOP, factoring
or counting:

1. **The twin test, before step 2.**  The MFFC is the root alone when
   each fanin is a primary input, shared, or a cut leaf.  Such a literal
   computes the root's global function too, so it is a live node with
   the root's signature in the pass's
   :class:`~repro.aig.simulate.TwinScreen`.  When no other node shares
   the root's key, the cut fails before ``cone_truth``.
2. **The closure sweep, between steps 2 and 3,** for roots that do have
   a twin.  Every such literal lies in {const, leaves} or in the leaves'
   fanout closure (the AND nodes whose two fanins are both in {const,
   leaves, closure}), reached without passing through the root, which
   is forbidden.  So when the table is not constant, not a single leaf
   literal, and no node of that closure computes it in either phase
   (:func:`~repro.aig.simulate.realizable_by_reuse`), ``count_tree``
   would have returned None.

Either way the cut fails exactly as it would have (see
``docs/flows.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .. import obs
from ..aig.graph import AIG
from ..aig.levels import RequiredLevels
from ..aig.literal import lit_node, lit_not, make_lit
from ..aig.mffc import mffc_is_root_alone, mffc_nodes
from ..aig.simulate import TwinScreen, cone_truth, full_mask, realizable_by_reuse
from ..cuts.features import CutFeatures
from ..cuts.reconv import reconv_cut
from ..factor.factoring import factor
from ..factor.to_aig import build_tree, count_tree
from ..tt.isop import isop_exact

DataCollector = "callable[[CutFeatures, bool], None]"


@dataclass
class RefactorParams:
    """Knobs of the refactor operator (ABC's ``refactor`` defaults).

    ``preserve_levels`` mirrors ABC's ``-l`` update-level mode; the
    paper's experiments run with it off (their reported levels drift
    slightly), which is also the default here.
    """

    max_leaves: int = 10
    zero_cost: bool = False
    preserve_levels: bool = False
    try_complement: bool = True
    method: str = "quick"


@dataclass
class RefactorStats:
    """Counters and timing buckets of one refactor pass."""

    nodes_visited: int = 0
    cuts_formed: int = 0
    commits: int = 0
    gain_total: int = 0
    fail_gain: int = 0  # no cheaper replacement found
    fail_screened: int = 0  # zero budget, no existing literal: twin test or sweep
    fail_level: int = 0  # rejected by required-level check
    fail_poison: int = 0  # build would have reused the replaced root
    fail_trivial: int = 0  # degenerate cuts
    pruned: int = 0  # skipped by a classifier (ELF only)
    time_total: float = 0.0
    time_cut: float = 0.0
    time_truth: float = 0.0
    time_resynth: float = 0.0  # isop + factoring + counting
    time_commit: float = 0.0
    time_inference: float = 0.0  # classifier time (ELF only)

    @property
    def fails(self) -> int:
        return (
            self.fail_gain
            + self.fail_screened
            + self.fail_level
            + self.fail_poison
            + self.fail_trivial
        )

    @property
    def failure_rate(self) -> float:
        """Fraction of formed cuts that did not get committed."""
        if self.cuts_formed == 0:
            return 0.0
        return 1.0 - self.commits / self.cuts_formed


def refactor(
    g: AIG,
    params: RefactorParams | None = None,
    collector=None,
    cache: dict | None = None,
) -> RefactorStats:
    """Run one refactor pass over ``g`` in place.

    ``collector(features, committed)`` — when given — receives the six
    ELF features and the commit outcome of every visited node; this is how
    classifier training data is harvested (paper SS IV-A).

    ``cache`` plugs in an externally owned resynthesis cache (anything
    with dict-like ``get``/``__setitem__`` keyed ``(tt, n_leaves)``, e.g.
    :class:`repro.engine.ResynthCache`).  Entries are pure functions of
    the key *and* the factoring knobs (``try_complement``, ``method``),
    so sharing a cache across passes — the ``rf; ...; rfz`` steps of one
    flow — changes nothing but runtime **provided every sharer uses the
    same factoring knobs**; do not share one cache across differing
    ``RefactorParams`` factoring settings.
    """
    params = params or RefactorParams()
    stats = RefactorStats()
    g.drain_dirty()  # sequential pass: retire the previous journal epoch
    with obs.span("opt.refactor") as pass_span:
        required = RequiredLevels(g) if params.preserve_levels else None
        want_features = collector is not None
        if cache is None:
            cache = {}
        twins = pass_twins(g, params, stats)
        for node in g.and_ids():
            if g.is_dead(node):
                continue
            stats.nodes_visited += 1
            t0 = time.perf_counter()
            cut = reconv_cut(g, node, params.max_leaves, collect_features=want_features)
            stats.time_cut += time.perf_counter() - t0
            stats.cuts_formed += 1
            committed = refactor_node(
                g, node, cut, params, required, stats, cache, twins
            )
            if collector is not None:
                collector(cut.features, committed)
        pass_span.set(
            nodes=stats.nodes_visited,
            commits=stats.commits,
            screened=stats.fail_screened,
        )
    stats.time_total = pass_span.duration
    return stats


def pass_twins(
    g: AIG, params: RefactorParams, stats: RefactorStats
) -> TwinScreen | None:
    """The pass's signature table, or None in zero-cost mode (no twin test)."""
    if params.zero_cost:
        return None
    t0 = time.perf_counter()
    twins = TwinScreen(g)
    stats.time_truth += time.perf_counter() - t0
    return twins


def twin_screened(g: AIG, node: int, leaves: list[int], twins: TwinScreen) -> bool:
    """The twin test: one-node MFFC over ``leaves`` and no twin of ``node``."""
    return mffc_is_root_alone(g, node, leaves) and not twins.has_twin(node)


def _resynthesize(
    tt: int,
    n_leaves: int,
    params: RefactorParams,
    cache: dict | None,
) -> tuple:
    """ISOP + algebraic factoring of the cut function, cached by table.

    Following ABC's ``Kit_TruthIsop(..., fTryBoth)``, the polarity is
    chosen at the ISOP level (fewer literals wins) and only that polarity
    is factored.  Cut functions repeat heavily inside a circuit (e.g. the
    full-adder cones of a multiplier), so one pass-level cache entry
    serves many nodes.
    """
    key = (tt, n_leaves)
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
    cubes = isop_exact(tt, n_leaves)
    inverted = False
    if params.try_complement:
        complement = isop_exact(tt ^ full_mask(n_leaves), n_leaves)
        if sum(c.bit_count() for c in complement) < sum(c.bit_count() for c in cubes):
            cubes = complement
            inverted = True
    tree = factor(cubes, method=params.method)
    entry = (tree, inverted)
    if cache is not None:
        cache[key] = entry
    return entry


def refactor_node(
    g: AIG,
    node: int,
    cut,
    params: RefactorParams,
    required: RequiredLevels | None,
    stats: RefactorStats,
    cache: dict | None = None,
    twins: TwinScreen | None = None,
) -> bool:
    """Attempt to refactor one node given its cut; returns commit status.

    ``twins`` — the pass's table from :func:`pass_twins` — enables the
    twin test of the module docstring.
    """
    leaves = cut.leaves
    n_leaves = len(leaves)
    if n_leaves < 2:
        stats.fail_trivial += 1
        return False
    t0 = time.perf_counter()
    if twins is not None and twin_screened(g, node, leaves, twins):
        stats.time_truth += time.perf_counter() - t0
        stats.fail_screened += 1
        return False
    tt = cone_truth(g, node, leaves)
    stats.time_truth += time.perf_counter() - t0
    return commit_tree(
        g,
        node,
        leaves,
        params,
        required,
        stats,
        lambda: _resynthesize(tt, n_leaves, params, cache),
        tt=tt,
    )


def commit_tree(
    g: AIG,
    node: int,
    leaves: list[int],
    params: RefactorParams,
    required: RequiredLevels | None,
    stats: RefactorStats,
    resolve,
    tt: int | None = None,
) -> bool:
    """Gain-check and commit a factored replacement for ``node``.

    ``resolve()`` lazily supplies the ``(tree, inverted)`` pair.  It is
    not invoked when the MFFC leaves a negative budget, nor — when
    ``tt`` (the cut function over ``leaves``) is given — when the budget
    is zero and :func:`~repro.aig.simulate.realizable_by_reuse` proves
    that no existing literal computes the cut (counted in
    ``fail_screened``).
    """
    t0 = time.perf_counter()
    mffc = mffc_nodes(g, node, boundary=set(leaves))
    saved = len(mffc)
    max_added = saved if params.zero_cost else saved - 1
    best = None  # (cost, root_level, tree, inverted, existing_lit)
    level_rejected = False
    if max_added == 0 and tt is not None:
        t1 = time.perf_counter()
        stats.time_resynth += t1 - t0  # the MFFC sweep
        reusable = realizable_by_reuse(g, node, leaves, tt)
        t0 = time.perf_counter()
        stats.time_truth += t0 - t1  # simulation, like cone_truth
        if not reusable:
            stats.fail_screened += 1
            return False
    if max_added >= 0:
        tree, inverted = resolve()
        forbidden = set(mffc)
        leaf_lits = [make_lit(leaf) for leaf in leaves]
        result = count_tree(g, tree, leaf_lits, forbidden, max_added)
        if result is not None:
            if (
                required is not None
                and result.cost > 0
                and result.root_level > required.required(node)
            ):
                level_rejected = True
            else:
                best = (
                    result.cost,
                    result.root_level,
                    tree,
                    inverted,
                    result.existing_lit,
                )
    stats.time_resynth += time.perf_counter() - t0

    if best is None:
        if level_rejected:
            stats.fail_level += 1
        else:
            stats.fail_gain += 1
        return False
    cost, _root_level, tree, inverted, existing = best

    t0 = time.perf_counter()
    try:
        if existing is not None:
            if lit_node(existing) == node:
                stats.fail_gain += 1
                return False
            new_lit = lit_not(existing) if inverted else existing
        else:
            built = build_tree(
                g, tree, [make_lit(leaf) for leaf in leaves], avoid_root=node
            )
            if built is None:
                stats.fail_poison += 1
                return False
            if lit_node(built) == node:  # rebuilt the same node
                stats.fail_gain += 1
                return False
            new_lit = lit_not(built) if inverted else built
        before = g.n_ands
        g.replace(node, new_lit)
        stats.commits += 1
        stats.gain_total += before - g.n_ands
    finally:
        stats.time_commit += time.perf_counter() - t0
    return True
