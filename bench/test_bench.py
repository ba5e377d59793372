"""Self-tests of the benchmark: tracer arithmetic, wrapping, and the counts
each workload must repeat exactly on the commit that introduced it.

Run from the repository root:
    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import polarq  # noqa: E402
import polarq.cli  # noqa: E402
import polarq.manybody  # noqa: E402

import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=None):
    return tracing.Span(name, start, end, parent, 0, 0)


def test_covered_merges_overlaps_and_clips():
    spans = [span("a", 0, 2), span("b", 1, 3), span("c", 5, 6), span("d", 9, 12)]
    assert tracing.covered(float("-inf"), float("inf"), spans) == 3 + 1 + 3
    assert tracing.covered(1.5, 10, spans) == 1.5 + 1 + 1


def test_self_time_subtracts_child_coverage_once():
    t = tracing.Tracer()
    # cli.run 0..10 with two overlapping worker-thread children and a nested apply
    t.spans = [
        span("cli.run", 0, 10),
        span("manybody.spectrum", 1, 5, parent=0),
        span("manybody.spectrum", 3, 7, parent=0),
        span("manybody.apply", 2, 3, parent=1),
    ]
    m = t.layer_metrics(0, wall=11)
    assert m["cli.run_s"] == 10
    assert m["cli.self_s"] == 10 - 6
    assert m["manybody.spectrum_s"] == (4 - 1) + 4
    assert m["manybody.apply_s"] == 1
    assert m["trace.unattributed_s"] == 1
    assert m["trace.overlap_s"] == 2


def test_install_wraps_every_binding_and_uninstall_restores():
    original = polarq.manybody.spectrum
    t = tracing.Tracer()
    t.install()
    try:
        for mod in (polarq, polarq.cli, polarq.manybody):
            assert mod.spectrum is not original
            assert mod.spectrum.__wrapped__ is original
        assert polarq.circuits.walsh_coefficients.__wrapped__ is not None
    finally:
        t.uninstall()
    assert polarq.cli.spectrum is original and polarq.spectrum is original


def traced_pass(name: str, work: Path, seed: int = 1, pass_id: int = 0):
    """One traced pass: its per-layer metrics, the tracer, and the check errors."""
    wl = workloads.WORKLOADS[name](work, seed)
    wl.setup()
    t = tracing.Tracer()
    t.install()
    try:
        t.start_pass(pass_id)
        outcomes, wall, _ = worker.timed_pass(wl)
        t.stop_pass()
    finally:
        t.uninstall()
    errors = [o.error or wl.check(o) for o in outcomes]
    return t.layer_metrics(pass_id, wall), t, wall, [e for e in errors if e]


def assert_accounts_for_wall(m: dict, wall: float) -> None:
    layer_self = [v for k, v in m.items() if k.endswith("_s") and k not in (
        "cli.run_s", "trace.unattributed_s", "trace.overlap_s")]
    total = sum(layer_self) - m["trace.overlap_s"] + m["trace.unattributed_s"]
    assert total == pytest.approx(wall, rel=1e-9)
    assert m["trace.unattributed_s"] < 0.05 * wall


def test_figures_counts(tmp_path):
    m, _, wall, errors = traced_pass("figures", tmp_path)
    assert errors == []
    assert m["manybody.spectrum_calls"] == m["manybody.full_spectrum_calls"] == 263
    assert m["pendular.solve_calls"] == 43  # one per field value per task
    # repeats across tasks: fig3a and fig3b share their Omega = 1e-5 points,
    # fig5b/fig6b their x = 2 point with fig5a/fig6a, and so on
    assert m["manybody.repeat_solves"] == 16
    assert m["cli.run_s"] > 0.9 * wall
    assert_accounts_for_wall(m, wall)


def test_chain_ground_counts_repeat(tmp_path):
    first, t, wall, errors = traced_pass("chain_ground", tmp_path)
    assert errors == []
    n16 = [s for s in t.spans if s.name == "manybody.spectrum" and s.attrs["full"] == 0]
    assert len(n16) == 1
    assert first["manybody.matvecs"] == 51
    assert first["manybody.full_spectrum_calls"] == 2
    assert first["cli.run_s"] == 0
    assert_accounts_for_wall(first, wall)
    second, *_ = traced_pass("chain_ground", tmp_path, pass_id=1)
    counts = [k for k, v in first.items() if isinstance(v, int)]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_chain_thermal_counts(tmp_path):
    m, _, wall, errors = traced_pass("chain_thermal", tmp_path)
    assert errors == []
    assert m["manybody.spectrum_calls"] == 4
    assert m["manybody.repeat_solves"] == 3
    assert_accounts_for_wall(m, wall)


def test_circuits_counts(tmp_path):
    m, t, wall, errors = traced_pass("circuits", tmp_path, seed=1)
    assert errors == []
    cnots = [s.attrs["cnots"] for s in t.spans if s.name == "circuits.compile"]
    assert cnots[0] == 2908  # compile-diagonal, n = 6, --seed 1
    assert m["circuits.simulate_calls"] == 64 + 1 + 1
    assert m["manybody.spectrum_calls"] == 0
    assert_accounts_for_wall(m, wall)


def test_compare_csv_tolerates_rounding_but_not_errors(tmp_path):
    reference = workloads.REFERENCE_DIR / "chain_thermal.csv"
    text = reference.read_text(encoding="utf-8")
    _, rows = workloads.read_csv(reference)
    p_not = rows[0][1]
    copy = tmp_path / reference.name
    for factor, ok in ((1 + 1e-9, True), (1 + 1e-3, False)):
        copy.write_text(text.replace(p_not, repr(float(p_not) * factor)), encoding="utf-8")
        err = workloads.compare_csv(copy, reference)
        assert (err is None) == ok, err


def test_run_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, no result is printed."""
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_*"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "circuits", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
