"""Tests for the session + command-registry flow layer.

Covers the API-redesign guarantees: captured-reference byte-identity of
``run_flow`` across the session rewrite, strict flag validation, script
parsing edge cases, lazy resource creation, custom-command
registration without touching ``opt/flow.py``, and the
``python -m repro`` CLI.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.aig.io_bench import read, to_text
from repro.elf import collect_dataset, train_leave_one_out
from repro.errors import ReproError
from repro.ml import TrainConfig
from repro.opt import (
    COMPRESS2,
    CommandSpec,
    OptSession,
    RESYN2,
    balance,
    canonical_command,
    default_registry,
    run_flow,
)
from repro.serve import needs_classifier

from .util import random_aig

REFERENCES = Path(__file__).parent / "data" / "flow_references.json"


def reference_classifier():
    graphs = [random_aig(7, 120, 4, seed=s, name=f"f{s}") for s in (1, 2)]
    datasets = {g.name: collect_dataset(g) for g in graphs}
    return train_leave_one_out(datasets, "f1", TrainConfig(epochs=3, seed=0))


class TestCapturedReferences:
    """run_flow must be byte-identical to the pre-session flow layer.

    ``tests/data/flow_references.json`` was captured from the if/elif
    implementation (see ``capture_flow_references.py`` next to it) on
    the same deterministic inputs rebuilt here.
    """

    @pytest.fixture(scope="class")
    def references(self):
        return json.loads(REFERENCES.read_text(encoding="utf-8"))

    @pytest.fixture(scope="class")
    def graph(self, references):
        from repro.circuits import layered_random_aig

        g = layered_random_aig(n_pis=12, n_ands=700, seed=7, name="flowref")
        assert (
            hashlib.sha256(to_text(g).encode()).hexdigest()
            == references["input_sha256"]
        ), "reference input drifted; regenerate flow_references.json"
        return g

    @pytest.mark.parametrize("tag", ["resyn2", "compress2", "engine", "sequential"])
    def test_flow_matches_reference(self, tag, graph, references):
        record = references["flows"][tag]
        classifier = reference_classifier() if tag == "engine" else None
        out, report = run_flow(graph.clone(), record["script"], classifier=classifier)
        assert (
            hashlib.sha256(to_text(out).encode()).hexdigest()
            == record["bench_sha256"]
        )
        assert [
            {
                "command": s.command,
                "normalized": s.normalized,
                "n_ands": s.n_ands,
                "level": s.level,
            }
            for s in report.steps
        ] == record["steps"]


class TestStrictFlags:
    def test_rs_rejects_level_flag(self):
        g = random_aig(6, 60, 3, seed=1)
        with pytest.raises(ReproError, match="'rs'.*'-l'"):
            run_flow(g, "rs -l")

    def test_sequential_commands_reject_workers_flag(self):
        g = random_aig(6, 60, 3, seed=1)
        for command in ("rf -w 2", "rw -w 2", "elf -w 2"):
            with pytest.raises(ReproError, match="does not support"):
                run_flow(g.clone(), command)

    def test_unknown_flag_rejected(self):
        g = random_aig(6, 60, 3, seed=1)
        with pytest.raises(ReproError, match="'rw'.*'-x'"):
            run_flow(g, "rw -x")

    def test_stray_argument_rejected(self):
        g = random_aig(6, 60, 3, seed=1)
        with pytest.raises(ReproError, match="unknown argument '3'"):
            run_flow(g, "rf 3")

    def test_supported_flags_still_parse(self):
        g = random_aig(6, 60, 3, seed=2)
        _, report = run_flow(g, "b -l; rw -l; rfz -l; pf -w 1")
        assert [s.normalized for s in report.steps] == [
            "b -l",
            "rw -l",
            "rfz -l",
            "pf -w 1",
        ]


class TestScriptParsingEdgeCases:
    def test_empty_and_whitespace_scripts(self):
        g = random_aig(6, 60, 3, seed=3)
        before = to_text(g)
        for script in ("", "   ", ";;", " ; ;; "):
            out, report = run_flow(g, script)
            assert report.steps == []
            assert to_text(out) == before

    def test_double_semicolons_between_commands(self):
        g = random_aig(6, 60, 3, seed=3)
        _, report = run_flow(g, "b;; rw ;;b")
        assert [s.command for s in report.steps] == ["b", "rw", "b"]

    def test_w_zero_means_auto(self):
        # "-w 0" is explicit spelling for auto: the session default (and
        # then the core count) governs, exactly like omitting -w.
        g = random_aig(7, 120, 4, seed=4)
        _, report = run_flow(g.clone(), "pf -w 0", engine_workers=1)
        assert report.steps[0].detail.workers == 1
        assert report.steps[0].detail.delegated

    def test_w_without_argument(self):
        g = random_aig(6, 60, 3, seed=3)
        with pytest.raises(ReproError, match="-w requires an integer"):
            run_flow(g, "pf -w")
        with pytest.raises(ReproError, match="-w requires an integer"):
            run_flow(g.clone(), "pf -w two")

    def test_unknown_command_names_raw_spelling(self):
        g = random_aig(6, 60, 3, seed=3)
        with pytest.raises(ReproError, match="frobnicate -l"):
            run_flow(g, "b; frobnicate -l")
        # Aliases resolve; near-misses stay raw in the message.
        with pytest.raises(ReproError, match="'fq'"):
            run_flow(g.clone(), "fq")


class TestLazyResources:
    def test_balance_only_script_creates_nothing(self):
        g = random_aig(6, 60, 3, seed=5)
        with OptSession() as session:
            session.run(g, "b; b")
            assert not session.cache_materialized
            assert not session.stats.cache_created
            assert not session.stats.library_created

    def test_refactor_demands_cache_rewrite_demands_library(self):
        g = random_aig(6, 60, 3, seed=5)
        with OptSession() as session:
            session.run(g.clone(), "rf")
            assert session.cache_materialized
            assert not session.stats.library_created
        with OptSession() as session:
            session.run(g.clone(), "rw")
            assert session.stats.library_created
            assert not session.cache_materialized

    def test_cache_persists_across_runs_of_one_session(self):
        g = random_aig(7, 150, 4, seed=6)
        with OptSession() as session:
            session.run(g.clone(), "rf")
            cache = session.resynth_cache
            warm = cache.hits_exact
            session.run(g.clone(), "rf")
            assert session.resynth_cache is cache
            assert cache.hits_exact > warm

    def test_warm_engine_allocates_nothing(self):
        with OptSession() as session:
            assert session.warm_engine(2) and session.warm_engine(4)
            assert not session.warm_engine(1)  # width 1: sequential mode
            assert not session.cache_materialized
            assert not session.stats.library_created

    def test_closed_session_refuses_runs(self):
        session = OptSession()
        session.close()
        with pytest.raises(ReproError, match="closed"):
            session.run(random_aig(4, 10, 2, seed=0), "b")


class TestCustomCommandRegistration:
    def test_register_and_run_without_touching_flow_py(self):
        calls = []

        def execute(g, ctx, flags):
            calls.append((flags.zero_cost, flags.preserve_levels))
            return balance(g), {"custom": True}

        registry = default_registry().copy()
        registry.register(
            CommandSpec(
                name="shuffle",
                execute=execute,
                aliases=("sh",),
                zero_cost_pair=True,
                supports_levels=True,
                help="synthetic test operator",
            )
        )
        g = random_aig(6, 60, 3, seed=8)
        with OptSession(registry=registry) as session:
            out, report = session.run(g, "b; shuffle -l; shz; sh")
        assert calls == [(False, True), (True, False), (False, False)]
        assert [s.normalized for s in report.steps] == [
            "b",
            "shuffle -l",
            "shufflez",
            "shuffle",
        ]
        assert report.steps[1].detail == {"custom": True}
        # run_flow accepts the registry too — still no flow.py edits.
        _, report = run_flow(out, "sh", registry=registry)
        assert report.steps[0].normalized == "shuffle"
        # ... and the default registry is untouched.
        with pytest.raises(ReproError, match="shuffle"):
            run_flow(out, "shuffle")

    def test_duplicate_spellings_rejected(self):
        registry = default_registry().copy()
        with pytest.raises(ReproError, match="already registered"):
            registry.register(
                CommandSpec(name="rf", execute=lambda g, ctx, flags: (g, None))
            )
        with pytest.raises(ReproError, match="'f'"):
            registry.register(
                CommandSpec(
                    name="fanout",
                    aliases=("f",),
                    zero_cost_pair=True,
                    execute=lambda g, ctx, flags: (g, None),
                )
            )

    def test_registered_requirements_drive_serving_helpers(self):
        registry = default_registry().copy()
        registry.register(
            CommandSpec(
                name="xelf",
                execute=lambda g, ctx, flags: (g, None),
                needs_classifier=True,
                supports_workers=True,
            )
        )
        assert needs_classifier("b; xelf -w 3", registry=registry)
        assert not needs_classifier("b; xelf")  # default registry untouched

    def test_classifier_requirement_enforced_declaratively(self):
        g = random_aig(4, 10, 2, seed=0)
        with pytest.raises(ReproError, match="'elfz' requires a classifier"):
            run_flow(g, "elfz")

    def test_canonical_command_follows_registry(self):
        registry = default_registry().copy()
        registry.register(
            CommandSpec(
                name="shuffle",
                execute=lambda g, ctx, flags: (g, None),
                aliases=("sh",),
            )
        )
        assert canonical_command("sh", registry=registry) == "shuffle"
        assert canonical_command("sh") == "sh"  # unknown there: unchanged


class TestCli:
    def run_cli(self, *args, expect=0):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == expect, proc.stderr
        return proc

    def test_flow_runs_end_to_end(self, tmp_path):
        from repro.verify import equivalent

        g = random_aig(7, 150, 4, seed=9, name="cli")
        inp = tmp_path / "in.bench"
        outp = tmp_path / "out.bench"
        inp.write_text(to_text(g), encoding="utf-8")
        proc = self.run_cli("b; rw; rf", str(inp), "-o", str(outp), "-w", "1")
        out = read(outp)
        assert equivalent(g, out)
        assert out.n_ands <= g.n_ands
        assert "flow: b; rw; rf" in proc.stderr  # report table on stderr
        # Byte-identical to the API path (same parsed input: the graph
        # name round-trips through the file, not the in-memory object).
        api_out, _ = run_flow(read(inp), "b; rw; rf", engine_workers=1)
        assert to_text(api_out) == outp.read_text(encoding="utf-8")

    def test_named_script_to_stdout(self, tmp_path):
        g = random_aig(6, 60, 3, seed=10, name="cli2")
        inp = tmp_path / "in.bench"
        inp.write_text(to_text(g), encoding="utf-8")
        proc = self.run_cli("resyn2", str(inp), "-q")
        api_out, _ = run_flow(read(inp), RESYN2)
        assert proc.stdout == to_text(api_out)
        assert proc.stderr == ""  # -q silences the report

    def test_bad_command_exits_nonzero(self, tmp_path):
        g = random_aig(4, 10, 2, seed=0)
        inp = tmp_path / "in.bench"
        inp.write_text(to_text(g), encoding="utf-8")
        proc = self.run_cli("frobnicate", str(inp), expect=2)
        assert "frobnicate" in proc.stderr

    def test_missing_input_exits_nonzero(self, tmp_path):
        proc = self.run_cli("b", str(tmp_path / "nope.bench"), expect=2)
        assert "repro:" in proc.stderr


class TestSessionServing:
    """Session semantics the serving layer depends on."""

    def test_per_run_classifier_override(self):
        clf = reference_classifier()
        g = random_aig(7, 120, 4, seed=11)
        with OptSession() as session:  # no session-level classifier
            with pytest.raises(ReproError, match="requires a classifier"):
                session.run(g.clone(), "elf")
            out, report = session.run(g.clone(), "elf", classifier=clf)
            assert report.steps[0].detail.pruned >= 0
        direct, _ = run_flow(g.clone(), "elf", classifier=clf)
        assert to_text(direct) == to_text(out)

    def test_per_run_cache_isolates_runs(self):
        g = random_aig(7, 150, 4, seed=14)
        with OptSession(per_run_cache=True) as session:
            out1, _ = session.run(g.clone(), "rf; rfz")
            assert not session.cache_materialized  # session-wide store unused
            out2, _ = session.run(g.clone(), "rf; rfz")
        assert to_text(out1) == to_text(out2)
        # Identical to the shared-cache session output (exact hits are
        # bit-identical; only cross-run *NPN* reuse is content-affecting).
        with OptSession() as session:
            session.run(g.clone(), "rf; rfz")
            warm, _ = session.run(g.clone(), "rf; rfz")
        assert to_text(warm) == to_text(out1)

    def test_compress2_known_script(self):
        g = random_aig(7, 150, 4, seed=12)
        out, report = run_flow(g.clone(), COMPRESS2)
        assert len(report.steps) == 10
        assert all(s.normalized.endswith("-l") for s in report.steps)
        assert out.max_level() <= g.max_level()
