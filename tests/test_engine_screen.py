"""Exactness gate for the engine commands, at every width and entry point.

``pf`` / ``pfz`` / ``pelf`` / ``prw`` / ``prwz`` run the sequential
``rf`` / ``rfz`` / ``elf`` / ``rw`` / ``rwz`` sweep at every worker
count, so their outputs must be byte-identical to the sequential
operators' at any ``-w`` — through ``OptSession.run``, and for ``pf``
through the ``python -m repro`` CLI and the process-sharded service.
The circuits (``tests/conftest.py``) are arithmetic and industrial
generators whose outputs are not constant, so a wrong commit shows in
the digests.

The gate has teeth: the same helper must report ``rw; rf`` (a different
commit order) as different from ``rf; rw``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.aig.io_bench import to_text
from repro.opt import OptSession, run_flow
from repro.serve import ServeParams, serve_suite_procs

ENGINE_PAIRS = (
    ("pf", "rf"),
    ("pfz", "rfz"),
    ("pelf", "elf"),
    ("prw", "rw"),
    ("prwz", "rwz"),
)


def _outcomes(circuits, script, classifier=None):
    """Per circuit: the output's structural digest and the step commits."""
    out = {}
    with OptSession(classifier=classifier, per_run_cache=True) as session:
        for name, g in circuits.items():
            result, report = session.run(g.clone(), script)
            commits = [step.detail.commits for step in report.steps]
            out[name] = (result.structural_digest(), commits)
    return out


def _mismatches(circuits, script, reference, classifier=None):
    """Circuits on which ``script`` and ``reference`` end differently."""
    got = _outcomes(circuits, script, classifier)
    want = _outcomes(circuits, reference, classifier)
    return sorted(name for name in circuits if got[name] != want[name])


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("engine, sequential", ENGINE_PAIRS)
def test_engine_command_equals_sequential_operator(
    screen_circuits, screen_classifier, engine, sequential, workers
):
    classifier = screen_classifier if engine == "pelf" else None
    script = f"{engine} -w {workers}"
    assert _mismatches(screen_circuits, script, sequential, classifier) == []


def test_the_gate_reports_wave_rewriting_as_different(screen_circuits):
    """A different commit order must not pass: ``rw; rf`` against
    ``rf; rw`` (the helper compares digests and per-step commits)."""
    assert _mismatches(screen_circuits, "rw; rf", "rf; rw")


def test_cli_pf_equals_rf(screen_circuits, tmp_path):
    inp = tmp_path / "in.bench"
    inp.write_text(to_text(screen_circuits["hyp"]), encoding="utf-8")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    outputs = {}
    for script in ("pf -w 2", "rf"):
        out = tmp_path / f"{script.split()[0]}.bench"
        subprocess.run(
            [sys.executable, "-m", "repro", script, str(inp), "-o", str(out), "-q"],
            check=True,
            env=env,
        )
        outputs[script] = out.read_text(encoding="utf-8")
    assert outputs["pf -w 2"] == outputs["rf"]
    assert outputs["rf"] != inp.read_text(encoding="utf-8")  # rf did commit


def test_served_pf_equals_blocking_rf(screen_circuits):
    suite = {name: screen_circuits[name] for name in ("div", "sqrt", "ind1")}
    report = serve_suite_procs(suite, ServeParams(flow="pf -w 2", n_shards=2, workers=2))
    assert sorted(r.name for r in report.results) == sorted(suite)
    for result in report.results:
        g = suite[result.name].clone()
        g.name = result.name  # the service names each circuit by its key
        blocking, _ = run_flow(g, "rf")
        assert result.ok and result.bench_text == to_text(blocking), result.name


def test_skips_reach_the_pass_span_and_the_registry(screen_circuits):
    obs.configure(enabled=True)
    obs.reset()
    try:
        _out, report = run_flow(screen_circuits["div"].clone(), "pf -w 2")
        detail = report.steps[0].detail
        (span,) = [s for s in obs.tracer().spans() if s.name == "engine.pass"]
        assert detail.screened > 0
        assert span.attrs["screened"] == detail.screened
        screened = obs.metrics().value("engine_screened_total", operator="refactor")
        assert screened == detail.screened
        # pf reports the sequential screens' rejections.
        assert detail.screened == detail.fail_screened
    finally:
        obs.configure(enabled=False)
        obs.reset()
