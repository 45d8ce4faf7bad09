"""Smoke-test the flow tuner end to end (the ``make tune-demo`` body).

Generates a 6x6 array multiplier (12 PIs, a function no flow can
collapse to a constant), runs the fixed ``resyn2`` baseline, then tunes
the same circuit under a 2-second budget (:func:`repro.tune.tune`) and
asserts the tuner's contract:

* the tuned AND count is **no worse than fixed resyn2** — the search
  warm-starts by replaying the baseline trajectory as committed probes,
  so with the budget covering one replay the tuned result can only
  match or beat it;
* the tuned graph **keeps ANDs** — a tuner that reports its gain on a
  circuit it reduced to a constant has shown nothing;
* the tuned graph is **CEC-clean** against the input (exact exhaustive
  simulation — the demo circuit keeps few PIs precisely for this);
* the chosen script **normalizes** through the command registry (it
  must be a servable flow, not an internal artifact);
* a second tune of the same circuit through a shared
  :class:`repro.tune.recipes.RecipeBook` gets a **bucket hit** and
  again matches or beats the baseline.

Exit status 0 means every step held; any assertion is a non-zero exit,
which is what lets ``make test`` gate on it.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.circuits.arith import multiplier  # noqa: E402
from repro.opt import RESYN2, run_flow  # noqa: E402
from repro.opt.registry import default_registry  # noqa: E402
from repro.tune import RecipeBook, TuneParams, tune  # noqa: E402
from repro.verify.cec import equivalent  # noqa: E402

BUDGET_S = 2.0


def main() -> int:
    g = multiplier(6)
    baseline, _report = run_flow(g.clone(), RESYN2)
    print(f"tune-demo: circuit {g.n_ands} ANDs, fixed resyn2 -> {baseline.n_ands}")

    book = RecipeBook()
    result = tune(g, TuneParams(seed=0, budget_s=BUDGET_S, recipes=book))
    print(
        f"tune-demo: tuned -> {result.n_ands} ANDs "
        f"({result.gain_pct:.1f}%) in {result.elapsed_s:.2f}s, "
        f"{result.probes} probes"
    )
    print(f"tune-demo: script: {result.script}")
    assert result.n_ands <= baseline.n_ands, (
        f"tuned {result.n_ands} worse than fixed resyn2 {baseline.n_ands}"
    )
    assert result.n_ands > 0, "tuned result collapsed to a constant"
    assert equivalent(g, result.graph), "tuned result is not CEC-equivalent"
    assert result.elapsed_s < BUDGET_S + 1.0, "budget overrun"
    default_registry().normalize_script(result.script)  # must be servable

    again = tune(g, TuneParams(seed=1, budget_s=BUDGET_S, recipes=book))
    assert again.recipe_hit, "second tune missed the recipe bucket"
    assert 0 < again.n_ands <= baseline.n_ands
    assert equivalent(g, again.graph)
    print(f"tune-demo: recipe replay [bucket {again.bucket}] -> {again.n_ands} ANDs")
    print("tune-demo: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
