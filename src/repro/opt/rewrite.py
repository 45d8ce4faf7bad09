"""DAG-aware AIG rewriting (Mishchenko et al., DAC'06).

For each node, enumerate its 4-input cuts, canonicalize each cut
function into its NPN class, instantiate the library's precomputed
factored implementation on the cut leaves, and commit the candidate with
the best non-negative gain (MFFC freed minus strash-aware nodes added).

Cuts are enumerated once per pass on the entering network; cuts
invalidated by earlier commits in the same pass are detected (dead
leaves / uncovered cones) and skipped, which matches the greedy one-pass
character of the original.

The per-node work runs in three phases:

* **snapshot** — :func:`usable_node_cuts` filters a node's enumerated
  cuts down to the live, >= 2-leaf ones (counting the stale rest);
* **evaluate** — :func:`evaluate_cut` is the pure
  ``truth table -> (library entry, NPN transform)`` lookup;
* **commit** — :func:`commit_scored` gain-checks the cuts against the
  *current* graph (MFFC, strash-aware node count, optional
  required-level bound) and commits the best, exactly once.  It asks a
  per-cut resolver for the evaluate result only when the cut could
  still win, so cuts that cannot are never evaluated.

Most cuts cannot win, so :func:`commit_scored` is a branch-and-bound.
A cut with MFFC size ``saved`` whose replacement adds ``cost`` nodes has
key ``(saved - cost, -cost)``; the best key wins, and on a tie the
earlier cut keeps its place.  A cost-0 replacement adds no node, so its
root is an existing constant, leaf or structural-hash hit that computes
the root's function or its complement.  When a pass's
:class:`~repro.aig.simulate.TwinScreen` finds no other node with the
root's signature, no such literal exists and every cut costs at least
``c_min = 1`` (else ``c_min = 0``).  Hence:

* a cut's key is at most ``(saved - c_min, -c_min)``; when that cannot
  strictly beat the best key so far, the cut is skipped before its
  truth table and library lookup (``RewriteStats.bounded``), and when
  ``c_min`` exceeds the cut's whole budget it is skipped the same way
  (``RewriteStats.screened``);
* otherwise ``count_tree`` gets only the budget that could still win:
  against best key ``(G, -C)``, costs up to ``saved - G - 1``, plus
  ``saved - G`` when that is below ``C``.  A cut it rejects would have
  scored no better than the best;
* outside zero-cost mode, a node whose fanins are both primary inputs
  or shared has a one-node MFFC under every cut, so without a twin it
  is skipped outright (:func:`node_screened`, also counted in
  ``screened``) before the cut snapshot.

Every skip drops only cuts whose full-budget key could not strictly beat
the cut that was kept, so the committed cut — and every output — is
the one the unpruned sweep would pick.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from ..aig.graph import AIG
from ..aig.levels import RequiredLevels
from ..aig.literal import lit_node, lit_not, make_lit
from ..aig.mffc import mffc_is_root_alone, mffc_nodes
from ..aig.simulate import TwinScreen, cone_truth
from ..cuts.enumerate import enumerate_cuts, node_cuts
from ..errors import TruthTableError
from ..factor.to_aig import build_tree, count_tree
from .npn_library import NpnLibrary, default_library

N_LIBRARY_VARS = 4
"""Library cut width: every scored cut is padded to this many variables."""


@dataclass
class RewriteParams:
    k: int = 4
    max_cuts: int = 8
    zero_cost: bool = False
    preserve_levels: bool = False


@dataclass
class RewriteStats:
    nodes_visited: int = 0
    cuts_tried: int = 0  # cuts evaluated: truth table + library lookup
    commits: int = 0
    gain_total: int = 0
    stale_cuts: int = 0  # a dead leaf, or an uncovered cone once evaluated
    screened: int = 0  # nodes and cuts skipped: the root has no twin
    bounded: int = 0  # cuts skipped: the key bound cannot beat the best
    time_total: float = 0.0


def rewrite(
    g: AIG,
    params: RewriteParams | None = None,
    library: NpnLibrary | None = None,
) -> RewriteStats:
    """One rewrite pass over ``g`` in place."""
    params = params or RewriteParams()
    if library is None:  # NB: a fresh library is empty and therefore falsy
        library = default_library()
    stats = RewriteStats()
    g.drain_dirty()  # sequential pass: retire the previous journal epoch
    with obs.span("opt.rewrite") as pass_span:
        required = RequiredLevels(g) if params.preserve_levels else None
        all_cuts = enumerate_cuts(g, params.k, params.max_cuts)
        twins = TwinScreen(g)
        for node in g.and_ids():
            if g.is_dead(node):
                continue
            stats.nodes_visited += 1
            _rewrite_node(g, node, all_cuts, library, params, required, stats, twins)
        pass_span.set(
            nodes=stats.nodes_visited,
            commits=stats.commits,
            screened=stats.screened,
            bounded=stats.bounded,
        )
    stats.time_total = pass_span.duration
    return stats


def usable_node_cuts(
    g: AIG,
    node: int,
    all_cuts,
) -> tuple[list[list[int]], int]:
    """Snapshot phase: the node's live, non-trivial cuts as sorted leaves.

    Returns ``(cuts, n_stale)`` where ``n_stale`` counts enumerated cuts
    dropped because a leaf died since enumeration (earlier commits of the
    same pass).  Single-leaf cuts are silently skipped, as in the
    original sweep.
    """
    cuts: list[list[int]] = []
    n_stale = 0
    for cut in node_cuts(g, node, all_cuts):
        if len(cut) < 2:
            continue
        leaves = sorted(cut)
        if any(g.is_dead(leaf) for leaf in leaves):
            n_stale += 1
            continue
        cuts.append(leaves)
    return cuts, n_stale


def evaluate_cut(tt: int, n_leaves: int, library: NpnLibrary):
    """Evaluate phase: library entry + NPN transform for one cut function.

    Pure in ``(tt, n_leaves)`` — no graph access.
    """
    return library.lookup(pad_tt(tt, n_leaves))


def commit_scored(
    g: AIG,
    node: int,
    cuts: list[list[int]],
    resolve,
    library: NpnLibrary,
    params: RewriteParams,
    required: RequiredLevels | None,
    twins: TwinScreen,
    stats: RewriteStats,
) -> int | None:
    """Commit phase: branch-and-bound over ``cuts``, commit the best.

    ``resolve(i)`` lazily supplies cut ``i``'s ``(library entry, NPN
    transform)`` pair from :func:`evaluate_cut`, or ``None`` when the cut
    turned out stale.  Everything graph-dependent — the cut-bounded
    MFFC, the strash-aware node count, the required-level bound and the
    final build/replace — is evaluated here, against the graph as it is
    *now*.  Returns the realized gain (AND nodes removed) or ``None``
    when no cut commits.

    ``twins`` — the pass's signature table — sets the cost-0 bound of
    the module docstring, and ``stats`` counts the cuts it skips in
    ``screened`` / ``bounded``; callers skip whole nodes beforehand with
    :func:`node_screened`.
    """
    c_min = 0 if twins.has_twin(node) else 1
    best = None  # ((gain, -cost), tree, arranged_lits, out_invert)
    for i, leaves in enumerate(cuts):
        mffc = mffc_nodes(g, node, boundary=set(leaves))
        saved = len(mffc)
        budget = saved if params.zero_cost else saved - 1
        if budget < c_min:
            stats.screened += 1
            continue
        if best is not None:
            best_gain, best_cost = best[0][0], -best[0][1]
            winning = saved - best_gain - 1 + (saved - best_gain < best_cost)
            if winning < c_min:
                stats.bounded += 1
                continue
            budget = min(budget, winning)
        scored = resolve(i)
        if scored is None:
            continue
        entry, transform = scored
        padded = list(leaves) + [0] * (N_LIBRARY_VARS - len(leaves))
        leaf_lits = [make_lit(leaf) for leaf in padded]
        arranged, flip = library.leaf_literals(leaf_lits, transform)
        result = count_tree(g, entry.tree, arranged, set(mffc), budget)
        if result is None:
            continue
        if (
            required is not None
            and result.cost > 0
            and result.root_level > required.required(node)
        ):
            continue
        key = (saved - result.cost, -result.cost)
        best = (key, entry.tree, arranged, flip ^ entry.inverted)
    if best is None:
        return None
    _key, tree, arranged, out_invert = best
    built = build_tree(g, tree, arranged, avoid_root=node)
    if built is None or lit_node(built) == node:
        return None
    before = g.n_ands
    g.replace(node, lit_not(built) if out_invert else built)
    return before - g.n_ands


def node_screened(
    g: AIG, node: int, params: RewriteParams, twins: TwinScreen
) -> bool:
    """No cut of ``node`` can commit: outside zero-cost mode, its MFFC is
    the root alone under every cut, and it has no twin."""
    return (
        not params.zero_cost
        and mffc_is_root_alone(g, node)
        and not twins.has_twin(node)
    )


def _rewrite_node(
    g: AIG,
    node: int,
    all_cuts,
    library: NpnLibrary,
    params: RewriteParams,
    required: RequiredLevels | None,
    stats: RewriteStats,
    twins: TwinScreen,
) -> bool:
    if node_screened(g, node, params, twins):
        stats.screened += 1
        return False
    cuts, n_stale = usable_node_cuts(g, node, all_cuts)
    stats.stale_cuts += n_stale

    def resolve(i: int):
        leaves = cuts[i]
        try:
            tt = cone_truth(g, node, leaves)
        except TruthTableError:
            stats.stale_cuts += 1
            return None
        stats.cuts_tried += 1
        return evaluate_cut(tt, len(leaves), library)

    gain = commit_scored(
        g, node, cuts, resolve, library, params, required, twins, stats
    )
    if gain is None:
        return False
    stats.commits += 1
    stats.gain_total += gain
    return True


def pad_tt(tt: int, n_leaves: int) -> int:
    """Extend a k<4-leaf truth table to 4 variables (new vars are don't-
    affect: the function simply ignores them)."""
    width = 1 << n_leaves
    while width < 16:
        tt = tt | (tt << width)
        width *= 2
    return tt & 0xFFFF
