"""Tests for balance, rewrite, resub, the NPN library and flows."""

import pytest

from repro.aig import AIG, check, lit_not
from repro.circuits.arith import adder, multiplier
from repro.errors import ReproError
from repro.opt import (
    NpnLibrary,
    RESYN2,
    ResubParams,
    RewriteParams,
    balance,
    default_library,
    resub,
    rewrite,
    run_flow,
)
from repro.tt import apply_transform
from repro.verify import equivalent

from .util import random_aig


class TestBalance:
    def test_chain_becomes_tree(self):
        g = AIG()
        lits = [g.add_pi() for _ in range(8)]
        acc = lits[0]
        for lit in lits[1:]:
            acc = g.add_and(acc, lit)  # depth-7 chain
        g.add_po(acc)
        assert g.max_level() == 7
        h = balance(g)
        check(h)
        assert equivalent(g, h)
        assert h.max_level() == 3  # log2(8)

    def test_preserves_function_random(self):
        for seed in range(6):
            g = random_aig(7, 120, 5, seed=seed)
            h = balance(g)
            check(h)
            assert equivalent(g, h)
            assert h.max_level() <= g.max_level()

    def test_respects_complemented_boundaries(self):
        g = AIG()
        a, b, c, d = (g.add_pi() for _ in range(4))
        x = g.add_and(a, b)
        y = g.add_and(lit_not(x), c)  # complement edge blocks merging
        z = g.add_and(y, d)
        g.add_po(z)
        h = balance(g)
        assert equivalent(g, h)

    def test_shared_nodes_not_duplicated(self):
        g = AIG()
        a, b, c = (g.add_pi() for _ in range(3))
        x = g.add_and(a, b)
        g.add_po(g.add_and(x, c))
        g.add_po(x)  # shared
        h = balance(g)
        assert equivalent(g, h)
        assert h.n_ands <= g.n_ands

    def test_arithmetic(self):
        g = adder(6)
        h = balance(g)
        check(h)
        assert equivalent(g, h)
        assert h.max_level() <= g.max_level()


class TestNpnLibrary:
    def test_lazy_growth(self):
        lib = NpnLibrary()
        assert len(lib) == 0
        lib.lookup(0x8888)
        assert len(lib) == 1
        lib.lookup(0x8888)
        assert len(lib) == 1  # cached

    @pytest.mark.parametrize("tt", [0x0000, 0xFFFF, 0x8888, 0x6666, 0xBEEF, 0x1234])
    def test_instantiation_is_correct(self, tt):
        """entry.tree evaluated through the transform reproduces tt."""
        lib = default_library()
        entry, transform = lib.lookup(tt)
        # Verify algebraically: tree tt over canonical vars == canonical fn.
        tree_tt = entry.tree.eval_tt(4)
        if entry.inverted:
            tree_tt ^= 0xFFFF
        assert tree_tt == entry.canonical
        assert apply_transform(entry.canonical, transform) == tt

    def test_entry_literal_counts_reasonable(self):
        lib = default_library()
        entry, _ = lib.lookup(0x6666)  # xor of two vars
        assert entry.n_literals() <= 4


class TestRewrite:
    def test_preserves_function_random(self):
        for seed in range(6):
            g = random_aig(7, 120, 5, seed=seed)
            reference = g.clone()
            before = g.n_ands
            stats = rewrite(g)
            check(g)
            assert equivalent(reference, g)
            assert g.n_ands <= before
            assert stats.nodes_visited > 0

    def test_reduces_redundant_logic(self):
        # mux(s, a, a) should collapse toward a.
        g = AIG()
        s, a, b = (g.add_pi() for _ in range(3))
        m = g.add_mux(s, a, a)
        g.add_po(g.add_and(m, b))
        before = g.n_ands
        rewrite(g)
        assert g.n_ands < before

    def test_zero_cost_mode(self):
        g = random_aig(7, 100, 4, seed=9)
        reference = g.clone()
        rewrite(g, RewriteParams(zero_cost=True))
        check(g)
        assert equivalent(reference, g)

    def test_preserve_levels(self):
        g = random_aig(7, 100, 4, seed=10)
        depth = g.max_level()
        rewrite(g, RewriteParams(preserve_levels=True))
        assert g.max_level() <= depth

    def test_arithmetic(self):
        g = multiplier(4)
        reference = g.clone()
        rewrite(g)
        check(g)
        assert equivalent(reference, g)


class TestResub:
    def test_finds_zero_resub(self):
        # Two structurally different builds of the same function: the
        # second collapses onto the first.
        g = AIG()
        a, b, c = (g.add_pi() for _ in range(3))
        first = g.add_and(g.add_and(a, b), c)
        second = g.add_and(a, g.add_and(b, c))
        g.add_po(first)
        g.add_po(second)
        stats = resub(g)
        check(g)
        assert stats.commits >= 1
        assert g.pos[0] == g.pos[1]

    def test_preserves_function_random(self):
        for seed in range(6):
            g = random_aig(7, 120, 5, seed=seed)
            reference = g.clone()
            before = g.n_ands
            resub(g)
            check(g)
            assert equivalent(reference, g)
            assert g.n_ands <= before

    def test_arithmetic(self):
        g = adder(5)
        reference = g.clone()
        resub(g, ResubParams(max_leaves=8))
        check(g)
        assert equivalent(reference, g)

    def test_divisor_cap_respected(self):
        g = random_aig(8, 200, 5, seed=3)
        reference = g.clone()
        resub(g, ResubParams(max_divisors=10))
        assert equivalent(reference, g)


class TestFlow:
    def test_resyn2_runs_and_preserves(self):
        g = random_aig(7, 150, 5, seed=21)
        reference = g.clone()
        out, report = run_flow(g, RESYN2)
        check(out)
        assert equivalent(reference, out)
        assert out.n_ands <= reference.n_ands
        assert len(report.steps) == 10
        assert report.total_runtime > 0

    def test_refactor_fraction_measurable(self):
        g = multiplier(5)
        _out, report = run_flow(g, RESYN2)
        assert 0.0 < report.fraction_of("rf") < 1.0
        assert report.runtime_of("b") > 0

    def test_unknown_command(self):
        g = random_aig(4, 10, 2, seed=0)
        with pytest.raises(ReproError):
            run_flow(g, "frobnicate")

    def test_alias_steps_count_toward_refactor(self):
        g = random_aig(7, 150, 5, seed=11)
        _out, report = run_flow(g, "f; fz; b")
        # Raw spellings survive; accounting runs on the normalized form.
        assert [s.command for s in report.steps] == ["f", "fz", "b"]
        assert [s.normalized for s in report.steps] == ["rf", "rfz", "b"]
        expected = report.steps[0].runtime + report.steps[1].runtime
        assert report.runtime_of("rf") == pytest.approx(expected)
        assert report.fraction_of("rf") == pytest.approx(
            expected / report.total_runtime
        )

    def test_canonical_command_resolves_aliases_keeps_flags(self):
        from repro.opt import canonical_command

        assert canonical_command("f") == "rf"
        assert canonical_command("fz -l") == "rfz -l"
        assert canonical_command("rw -l") == "rw -l"
        assert canonical_command("pf -w 2") == "pf -w 2"

    def test_rsz_command_parity(self):
        from repro.aig.io_bench import to_text

        g = random_aig(7, 150, 5, seed=13)
        via_flow, report = run_flow(g.clone(), "rsz")
        manual = g.clone()
        manual_stats = resub(manual, ResubParams(zero_cost=True))
        assert to_text(via_flow) == to_text(manual)
        assert report.steps[0].detail.commits == manual_stats.commits
        # Plain ``rs`` stays the zero_cost=False spelling.
        plain, _ = run_flow(g.clone(), "rs")
        manual_plain = g.clone()
        resub(manual_plain, ResubParams(zero_cost=False))
        assert to_text(plain) == to_text(manual_plain)

    def test_elf_step_requires_classifier(self):
        g = random_aig(4, 10, 2, seed=0)
        with pytest.raises(ReproError):
            run_flow(g, "elf")

    def test_flow_with_elf_step(self):
        from repro.elf import collect_dataset, train_leave_one_out
        from repro.ml import TrainConfig

        graphs = [random_aig(7, 120, 4, seed=s, name=f"f{s}") for s in (1, 2)]
        datasets = {g.name: collect_dataset(g) for g in graphs}
        clf = train_leave_one_out(datasets, "f1", TrainConfig(epochs=3))
        g = random_aig(7, 120, 4, seed=5)
        reference = g.clone()
        out, report = run_flow(g, "b; elf; b", classifier=clf)
        assert equivalent(reference, out)
        assert len(report.steps) == 3
