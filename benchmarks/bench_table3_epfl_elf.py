"""Table III: original refactor vs ELF on the EPFL-like suite.

Leave-one-out classifiers (never trained on the test circuit) prune the
cut stream; we report runtimes, AND counts, levels, the speedup and the
quality deltas.  Paper shape: 2.5-7.7x speedups at <=0.27% AND growth
and unchanged levels.  Absolute runtimes are Python-scale; the *ratio*
is the reproduced quantity.
"""

from repro.harness import comparison_rows, format_table, write_report

from conftest import record_report

PAPER_SPEEDUP = {
    "div": 4.76,
    "hyp": 7.33,
    "log2": 5.46,
    "multiplier": 7.69,
    "sqrt": 2.50,
    "square": 4.00,
}


def test_table3_epfl_elf(benchmark, epfl, epfl_classifiers):
    rows = benchmark.pedantic(
        lambda: comparison_rows(epfl, epfl_classifiers), rounds=1, iterations=1
    )
    table_rows = []
    for r in rows:
        table_rows.append(
            [
                r.design,
                r.nodes_before,
                f"{r.baseline_runtime:.2f}",
                r.baseline_ands,
                r.baseline_level,
                f"{r.elf_runtime:.2f}",
                r.elf_ands,
                r.elf_level,
                f"{r.speedup:.2f}x",
                f"{PAPER_SPEEDUP[r.design]:.2f}x",
                f"{r.and_diff_pct:+.2f}%",
                f"{r.level_diff_pct:+.2f}%",
            ]
        )
    text = format_table(
        [
            "Design",
            "Nodes",
            "ABC s",
            "ABC And",
            "ABC Lvl",
            "ELF s",
            "ELF And",
            "ELF Lvl",
            "Speedup",
            "paper",
            "dAnd",
            "dLvl",
        ],
        table_rows,
        title="Table III - refactor in original form vs ELF (EPFL-like suite)",
    )
    write_report("table3_epfl_elf", text)
    record_report("table3", text)

    speedups = [r.speedup for r in rows]
    # The industrial bar from the paper: >=1.25x speedup...
    assert sum(s > 1.25 for s in speedups) >= 4, speedups
    # ...and meaningful average acceleration.
    assert sum(speedups) / len(speedups) > 1.5, speedups
    # Quality: our regenerated circuits carry 5-10x more refactorable
    # material than the paper's, so each missed positive costs more area;
    # the bound is proportionally wider than the paper's 0.27% (see
    # EXPERIMENTS.md).
    diffs = [abs(r.and_diff_pct) for r in rows]
    assert sum(diffs) / len(diffs) < 4.0, diffs
    for r in rows:
        assert r.elf_ands >= r.baseline_ands  # pruning can only miss gains
