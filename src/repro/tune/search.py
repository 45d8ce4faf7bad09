"""Budgeted per-circuit flow search: an anytime bandit over the registry.

The repo ran one fixed recipe (``resyn2``/``compress2``) for every
circuit, but different graph families reward different command orders.
:func:`tune` searches the space of registry command sequences for *this*
circuit under an explicit wall-clock budget, and **always returns the
best committed script so far** — expiry degrades quality, never
correctness and never a typed error.

The loop is a UCB-style portfolio bandit:

1. **Warm start.**  The learned recipe for the circuit's feature bucket
   (:class:`repro.tune.recipes.RecipeBook`, if attached) and then the
   ``baselines`` scripts (default: ``resyn2``) are replayed
   command-by-command through :meth:`repro.opt.session.OptSession.probe`.
   Each replayed command both advances the committed state and seeds the
   corresponding arm's statistics — under a tiny budget the result is
   exactly the best prefix of the best known recipe, and with enough
   budget the tuner starts *at* the fixed-flow quality and spends the
   remainder beating it.
2. **Bandit probes.**  Arms are single registry commands and short
   command bigrams (classifier- and width-free, so probes are
   deterministic and self-contained).  Each pull probes the arm on a
   snapshot of the committed graph and scores it by **AND-reduction per
   second**, read off the probe's :class:`repro.opt.FlowReport` span
   durations; UCB (seeded RNG tie-break, priors from the circuit
   fingerprint) picks the next arm.  Improving probes are committed;
   zero-gain "enabler" probes (balancing, zero-cost variants) are
   committed at most once per plateau; regressions are rolled back by
   dropping the snapshot.
3. **Stop** on budget expiry (a :class:`repro.resilience.Deadline`),
   probe exhaustion, a dry plateau, or script-length cap — whichever
   comes first.

Determinism: arm *selection* depends only on the seed, the pull history
and the observed AND gains divided by the configured cost model.  The
default ``cost_model="measured"`` reads real span durations (the honest
gain-per-second objective); ``"nodes"`` substitutes a deterministic
size-proportional cost so that two fresh processes with the same seed,
circuit and probe budget produce byte-identical scripts and identical
pull sequences — the contract ``tests/test_tune.py`` pins.

Everything lands on the :mod:`repro.obs` registry: ``tune_probes_total``,
``tune_commits_total``, ``tune_arms_pulled_total{arm=...}``, the
``tune_seconds``/``tune_probe_seconds`` histograms and the best-gain
trajectory (``tune_best_gain_pct``, one observation per improvement).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .. import obs
from ..aig.graph import AIG
from ..errors import DeadlineExceeded, ReproError
from ..opt.flow import NAMED_SCRIPTS
from ..opt.registry import CommandRegistry
from ..opt.session import OptSession
from ..resilience import Deadline
from .features import CircuitFeatures, feature_bucket, fingerprint
from .recipes import Recipe, RecipeBook

_EPS = 1e-9


def default_arms(registry: CommandRegistry) -> tuple[str, ...]:
    """The portfolio: classifier-free, width-free commands plus bigrams.

    Commands that need a classifier or take ``-w`` are excluded — probe
    content must not depend on attached resources or worker timing.
    Order follows registry registration order, so the arm list (and
    therefore every seeded search) is deterministic for a given
    registry.
    """
    unigrams: list[str] = []
    for spec in registry.specs():
        if spec.needs_classifier or spec.supports_workers:
            continue
        unigrams.append(spec.name)
        if spec.zero_cost_pair:
            unigrams.append(spec.name + "z")
    pool = set(unigrams)
    bigrams = [
        "; ".join(pair)
        for pair in (
            ("b", "rw"),
            ("rw", "rf"),
            ("b", "rwz"),
            ("rwz", "rfz"),
            ("rf", "rs"),
        )
        if all(head in pool for head in pair)
    ]
    return tuple(unigrams + bigrams)


def seed_priors(arms: tuple[str, ...], features: CircuitFeatures) -> dict[str, float]:
    """Fingerprint -> prior reward per arm (one pseudo-pull each).

    Deep graphs (``depth_ratio`` high) favor balancing, reconvergent
    graphs favor the refactor family, and rewriting gets a broad small
    prior because it is cheap almost everywhere.  Priors only order the
    first sweep of pulls — real rewards dominate after one pull per arm.
    """
    priors: dict[str, float] = {}
    for arm in arms:
        heads = [part.strip().split()[0] for part in arm.split(";") if part.strip()]
        prior = 0.1
        if features.depth_ratio > 2.5 and "b" in heads:
            prior += 0.3
        if features.reconvergence_rate > 0.4 and any(
            head.startswith("rf") for head in heads
        ):
            prior += 0.3
        if features.avg_cut_size > 6.0 and any(
            head.startswith("rf") for head in heads
        ):
            prior += 0.15
        if any(head.startswith("rw") for head in heads):
            prior += 0.15
        priors[arm] = prior
    return priors


@dataclass
class TuneParams:
    """Search configuration (defaults are serve-tier friendly).

    ``budget_s`` is the wall-clock budget (``None`` = unlimited — then
    ``max_probes``/``patience`` terminate the search).  ``cost_model``
    sets the denominator of the reward: ``"measured"`` (span seconds,
    the production objective), ``"nodes"`` (size-proportional,
    deterministic across processes) or ``"unit"`` (pure gain).
    ``baselines`` are replayed as warm-start trajectories (names resolve
    through :data:`repro.opt.flow.NAMED_SCRIPTS`); ``recipes`` attaches
    a :class:`repro.tune.recipes.RecipeBook` whose bucket recipe, when
    present, is replayed *before* the baselines and which receives the
    winning script afterwards (``record_recipe``).
    """

    seed: int = 0
    budget_s: float | None = None
    max_probes: int = 64
    max_script_commands: int = 24
    patience: int = 12  # consecutive non-improving probes before stopping
    explore: float = 0.5  # UCB exploration constant
    cost_model: str = "measured"  # "measured" | "nodes" | "unit"
    arms: tuple[str, ...] | None = None
    baselines: tuple[str, ...] = ("resyn2",)
    recipes: RecipeBook | None = None
    record_recipe: bool = True


@dataclass(frozen=True)
class ProbeRecord:
    """One probe: what was tried, what it cost, whether it stuck."""

    script: str
    origin: str  # "recipe" | "baseline" | "bandit"
    n_ands_before: int
    n_ands_after: int
    cost: float
    committed: bool


@dataclass
class TuneResult:
    """Outcome of one search — the best committed script and its graph."""

    script: str
    graph: AIG
    n_ands: int
    level: int
    n_ands_before: int
    level_before: int
    probes: int
    pulls: tuple[str, ...]  # bandit arm-pull sequence, in order
    probe_log: tuple[ProbeRecord, ...] = ()
    elapsed_s: float = 0.0
    bucket: str = ""
    recipe_hit: bool = False

    @property
    def gain_pct(self) -> float:
        if self.n_ands_before <= 0:
            return 0.0
        return 100.0 * (self.n_ands_before - self.n_ands) / self.n_ands_before


class _ArmStats:
    """Running reward/cost statistics of one arm."""

    __slots__ = ("reward_total", "cost_total", "pulls")

    def __init__(self, prior_reward: float) -> None:
        self.reward_total = prior_reward  # one pseudo-pull from the prior
        self.cost_total = 0.0
        self.pulls = 1

    @property
    def mean(self) -> float:
        return self.reward_total / self.pulls

    @property
    def mean_cost(self) -> float:
        real_pulls = self.pulls - 1
        return self.cost_total / real_pulls if real_pulls > 0 else 0.0


def _probe_cost(report, n_ands_before: int, cost_model: str) -> float:
    if cost_model == "measured":
        return max(report.total_runtime, _EPS)
    if cost_model == "nodes":
        return max(1.0, float(n_ands_before)) / 1000.0
    if cost_model == "unit":
        return 1.0
    raise ReproError(f"unknown tune cost model {cost_model!r}")


def _split(script: str) -> list[str]:
    return [part.strip() for part in script.split(";") if part.strip()]


def tune(
    g: AIG,
    params: TuneParams | None = None,
    session: OptSession | None = None,
    classifier=None,
) -> TuneResult:
    """Search a flow for ``g`` within the budget; never raises on expiry.

    ``session`` reuses a caller's warm :class:`repro.opt.OptSession`
    (the serve tier passes its shard session); without one, a throwaway
    session is created and closed.  ``g`` itself is never mutated —
    every probe runs on a snapshot — and the returned graph is a
    committed probe output, CEC-equivalent to ``g`` by operator
    construction.
    """
    params = params or TuneParams()
    own_session = session is None
    if own_session:
        session = OptSession(classifier=classifier)
    try:
        return _search(g, params, session)
    finally:
        if own_session:
            session.close()


def _search(g: AIG, params: TuneParams, session: OptSession) -> TuneResult:
    registry = session.registry
    metrics = obs.metrics()
    rng = random.Random(params.seed)
    deadline = Deadline.after(params.budget_s)
    features = fingerprint(g)
    bucket = feature_bucket(features)
    arms = tuple(params.arms if params.arms is not None else default_arms(registry))
    if not arms:
        raise ReproError("tune needs at least one arm")
    stats = {arm: _ArmStats(prior) for arm, prior in seed_priors(arms, features).items()}
    by_head = {}  # first command of each unigram arm, for replay crediting
    for arm in arms:
        parts = _split(arm)
        if len(parts) == 1:
            by_head[parts[0]] = arm

    recipe = params.recipes.lookup(bucket) if params.recipes is not None else None
    if params.recipes is not None:
        metrics.counter(
            "tune_recipe_hits_total" if recipe else "tune_recipe_misses_total"
        ).add(1)

    current = g
    committed: list[str] = []
    best_graph, best_script = g, ()
    probes = 0
    pulls: list[str] = []
    probe_log: list[ProbeRecord] = []
    # Zero-gain enabler commits allowed once per arm per plateau — the
    # set resets whenever a probe actually reduces the AND count.
    zero_committed: set[str] = set()

    def out_of_budget() -> bool:
        # An empty network is a floor, not a plateau — stop immediately.
        return (
            probes >= params.max_probes or deadline.expired or current.n_ands == 0
        )

    def probe(script: str, origin: str):
        """One snapshot-run-measure cycle; returns None on deadline expiry."""
        nonlocal probes
        probes += 1
        metrics.counter("tune_probes_total").add(1)
        before = current.n_ands
        try:
            out, report = session.probe(current, script, deadline=deadline)
        except DeadlineExceeded:
            # Mid-probe expiry: the snapshot's partial is discarded (the
            # committed state is untouched) and the search winds down.
            return None
        cost = _probe_cost(report, before, params.cost_model)
        metrics.histogram("tune_probe_seconds").observe(report.total_runtime)
        # Credit replayed commands to their arm so the bandit phase
        # starts from the warm-start evidence instead of flat priors.
        arm = script if script in stats else by_head.get(script)
        if arm is not None:
            stat = stats[arm]
            stat.pulls += 1
            stat.reward_total += _reward(before, out.n_ands, cost)
            stat.cost_total += cost
        return out, cost

    def commit(script: str, out: AIG, origin: str, cost: float) -> None:
        nonlocal current, best_graph, best_script
        gained = out.n_ands < current.n_ands
        current = out
        committed.extend(_split(script))
        metrics.counter("tune_commits_total").add(1)
        probe_log.append(
            ProbeRecord(
                script=script,
                origin=origin,
                n_ands_before=probe_before,
                n_ands_after=out.n_ands,
                cost=cost,
                committed=True,
            )
        )
        if gained:
            zero_committed.clear()
        if out.n_ands < best_graph.n_ands:
            best_graph = out
            best_script = tuple(committed)
            gain_pct = 100.0 * (g.n_ands - out.n_ands) / max(1, g.n_ands)
            metrics.histogram("tune_best_gain_pct").observe(gain_pct)

    def reject(script: str, origin: str, after: int, cost: float) -> None:
        probe_log.append(
            ProbeRecord(
                script=script,
                origin=origin,
                n_ands_before=probe_before,
                n_ands_after=after,
                cost=cost,
                committed=False,
            )
        )

    with obs.span("tune.search", circuit=g.name, bucket=bucket) as span:
        # -- phase 1: warm-start trajectories (recipe, then baselines) --------
        trajectories: list[tuple[str, str]] = []
        if recipe is not None:
            trajectories.append(("recipe", recipe.script))
        for base in params.baselines:
            trajectories.append(
                ("baseline", NAMED_SCRIPTS.get(base.strip().lower(), base))
            )
        expired = False
        for origin, script in trajectories:
            for command in _split(script):
                if out_of_budget():
                    expired = True
                    break
                probe_before = current.n_ands
                outcome = probe(command, origin)
                if outcome is None:
                    expired = True
                    break
                out, cost = outcome
                # Replay semantics: commit any step that does not make
                # the network bigger (the scripts' own contract — no
                # registry operator increases the AND count).
                if out.n_ands <= current.n_ands:
                    commit(command, out, origin, cost)
                else:  # pragma: no cover - defensive (operators never grow)
                    reject(command, origin, out.n_ands, cost)
            if expired:
                break

        # -- phase 2: bandit probes -------------------------------------------
        dry = 0
        while (
            not expired
            and not out_of_budget()
            and dry < params.patience
            and len(committed) < params.max_script_commands
        ):
            arm = _select(arms, stats, probes, params.explore, deadline, rng)
            if arm is None:
                break
            pulls.append(arm)
            metrics.counter("tune_arms_pulled_total", arm=arm).add(1)
            probe_before = current.n_ands
            outcome = probe(arm, "bandit")
            if outcome is None:
                break
            out, cost = outcome
            if out.n_ands < current.n_ands:
                commit(arm, out, "bandit", cost)
                dry = 0
                continue
            dry += 1
            if (
                out.n_ands == current.n_ands
                and _is_enabler(arm)
                and arm not in zero_committed
            ):
                # Balancing / zero-cost arms can unlock later gains
                # without reducing the count themselves; allow each one
                # back in once per plateau.
                zero_committed.add(arm)
                commit(arm, out, "bandit", cost)
            else:
                reject(arm, "bandit", out.n_ands, cost)

        script = "; ".join(best_script)
        span.set(
            probes=probes,
            commits=len(committed),
            n_ands=best_graph.n_ands,
            script=script,
        )
    metrics.histogram("tune_seconds").observe(span.duration)
    result = TuneResult(
        script=script,
        graph=best_graph,
        n_ands=best_graph.n_ands,
        level=best_graph.max_level(),
        n_ands_before=g.n_ands,
        level_before=g.max_level(),
        probes=probes,
        pulls=tuple(pulls),
        probe_log=tuple(probe_log),
        elapsed_s=span.duration,
        bucket=bucket,
        recipe_hit=recipe is not None,
    )
    if (
        params.recipes is not None
        and params.record_recipe
        and result.script
        and result.gain_pct > 0.0
    ):
        params.recipes.record(
            bucket,
            Recipe(
                script=result.script,
                gain_pct=result.gain_pct,
                n_ands=g.n_ands,
                probes=probes,
                source=g.name,
            ),
        )
    return result


def _reward(before: int, after: int, cost: float) -> float:
    return (before - after) / max(1, before) / max(cost, _EPS)


def _is_enabler(arm: str) -> bool:
    """Arms worth committing at zero gain: balance and zero-cost variants."""
    heads = [part.split()[0] for part in _split(arm)]
    return all(head == "b" or head.endswith("z") for head in heads)


def _select(
    arms: tuple[str, ...],
    stats: dict[str, _ArmStats],
    total_pulls: int,
    explore: float,
    deadline: Deadline,
    rng: random.Random,
) -> str | None:
    """UCB arm choice; seeded-RNG tie-break; cost-infeasible arms skipped.

    The value scale is normalized by the best mean reward so the
    exploration constant is dimensionless (rewards are gain-per-cost,
    whose magnitude varies wildly across circuits).  An arm whose mean
    measured cost exceeds the remaining budget is skipped — pulling it
    could only produce a discarded partial.
    """
    remaining = deadline.remaining()
    scale = max(max(stats[arm].mean for arm in arms), _EPS)
    best_value, candidates = None, []
    for index, arm in enumerate(arms):
        stat = stats[arm]
        if stat.mean_cost > 0.0 and stat.mean_cost > remaining:
            continue
        value = stat.mean / scale + explore * math.sqrt(
            math.log(total_pulls + 2) / stat.pulls
        )
        value = round(value, 12)  # kill float noise so ties are real ties
        if best_value is None or value > best_value:
            best_value, candidates = value, [arm]
        elif value == best_value:
            candidates.append(arm)
    if not candidates:
        return None
    return candidates[0] if len(candidates) == 1 else rng.choice(candidates)
