"""Every `polarq run` task against a committed golden CSV.

The goldens in tests/golden/ hold the output of the configs in GOLDEN:
every task's default config, the README's `sweep` example, fit-residuals
for the concurrence fit, and one override per physics task (a sweep
block, `pairs`, a square or custom geometry, `nearest_neighbors_only`).
Each run happens in a temporary directory with a relative --out, so
compile-diagonal's `circuit_output` metadata holds no absolute path.

The `#` metadata, the header, the row count and every integer, boolean or
text cell must match exactly.  Floats are compared within tolerances,
because another BLAS build or CPU may round the dense solves differently.
The tolerances are those of bench/workloads.py: 1e-6 relative plus an
absolute floor of 1e-14 for p_* columns, 1e-9 for c_* columns and 1e-12
otherwise.  fit-residuals' rel_error divides a fit error by p itself, so
it gets 1e-3 relative.

The BLAS thread count moves no byte: polarq runs the dense solves of
these arrays (at most 9 molecules) on one OpenBLAS thread whatever the
count.  test_two_blas_threads_move_no_byte checks that on the three
goldens that two threads used to change.

To record new goldens after a deliberate change of output, run

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polarq import _blas, cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

SWEEP_README = {
    "task": "sweep",
    "geometry": {"kind": "square", "rows": 3, "cols": 3},
    "sweep": {
        "parameter": "omega",
        "from": 1e-5,
        "to": 1e-3,
        "points": 9,
        "scale": "log",
    },
    "parameters": {"x": 2.0, "kt": 0.002},
}


def _sweep(parameter, lo, hi, points, scale=None):
    block = {"parameter": parameter, "from": lo, "to": hi, "points": points}
    if scale is not None:
        block["scale"] = scale
    return block


GOLDEN = {
    **{
        task: {"task": task}
        for task in cli.CONFIG_SCHEMA["properties"]["task"]["enum"]
        if task != "sweep"
    },
    "sweep": SWEEP_README,
    "fit-residuals_concurrence": {
        "task": "fit-residuals",
        "parameters": {"which": "concurrence"},
    },
    "fig3a_sweep": {
        "task": "fig3a",
        "sweep": _sweep("omega", 1e-4, 1e-2, 3, "log"),
        "parameters": {"n_values": [3, 5], "x_values": [1.0]},
    },
    "fig3b_omega": {
        "task": "fig3b",
        "parameters": {"omega": 1e-3, "n_values": [3, 4], "x_values": [1.5]},
    },
    "fig4a_sweep": {
        "task": "fig4a",
        "sweep": _sweep("omega", 0, 0.01, 3),
        "parameters": {"x": 3.0, "n_values": [3]},
    },
    "fig4b_sweep": {
        "task": "fig4b",
        "sweep": _sweep("kt", 0.01, 0.1, 3, "linear"),
        "parameters": {"n": 4, "omega": 1e-3},
    },
    "fig5a_pairs": {
        "task": "fig5a",
        "geometry": {"kind": "linear", "n": 4},
        "sweep": _sweep("omega", 1e-4, 1e-3, 3, "log"),
        "parameters": {"x": 3.0, "pairs": [[0, 1], [1, 3], [2, 1]]},
    },
    "fig5a_nn": {
        "task": "fig5a",
        "geometry": {"kind": "linear", "n": 4, "nearest_neighbors_only": True},
        "sweep": _sweep("omega", 1e-4, 1e-3, 2, "log"),
    },
    "fig5b_square": {
        "task": "fig5b",
        "geometry": {"kind": "square", "rows": 2, "cols": 2},
        "sweep": _sweep("x", 1, 4, 4),
    },
    "fig6a_custom": {
        "task": "fig6a",
        "geometry": {
            "kind": "custom",
            "positions": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.5]],
            "field_direction": [0, 1, 1],
        },
        "sweep": _sweep("omega", 1e-4, 1e-3, 2, "log"),
    },
    "fig6b_pairs": {
        "task": "fig6b",
        "geometry": {"kind": "square", "rows": 2, "cols": 3},
        "sweep": _sweep("x", 2, 3, 2),
        "parameters": {"omega": 1e-4, "pairs": [[0, 4], [1, 5]]},
    },
    "sweep_nn": {
        "task": "sweep",
        "geometry": {"kind": "linear", "n": 5, "nearest_neighbors_only": True},
        "sweep": _sweep("kt", 0.05, 0.5, 3, "log"),
        "parameters": {"x": 4.0, "omega": 2e-3},
    },
    "concurrence_square": {
        "task": "concurrence",
        "geometry": {"kind": "square", "rows": 2, "cols": 2},
        "parameters": {"x": 3.0, "omega": 1e-3},
    },
    "thermal_params": {
        "task": "thermal",
        "parameters": {"n": 5, "x": 3.0, "omega": 1e-3, "kt": 0.1},
    },
    "gap_params": {"task": "gap", "parameters": {"n": 5, "x": 4.9, "omega": 1e-2}},
    "fit-residuals_grid": {
        "task": "fit-residuals",
        "parameters": {
            "n_values": [4],
            "x_values": [2.5],
            "omega_values": [1e-3, 1e-2],
        },
    },
}

RTOL = 1e-6
ATOL = {"p": 1e-14, "c": 1e-9}
REL_ERROR_RTOL = 1e-3


def run_config(name: str, workdir: Path) -> Path:
    """Run GOLDEN[name] inside `workdir`; the path of the CSV it wrote."""
    cfg = workdir / f"{name}.json"
    cfg.write_text(json.dumps(GOLDEN[name]))
    out = f"{name}.csv"
    assert cli.main(["run", cfg.name, "--out", out]) == 0
    return workdir / out


def split_csv(text: str):
    lines = text.splitlines()
    meta = [line for line in lines if line.startswith("#")]
    table = list(csv.reader(line for line in lines if not line.startswith("#")))
    return meta, table[0], table[1:]


def is_int(cell: str) -> bool:
    try:
        int(cell)
    except ValueError:
        return False
    return True


def is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def cell_matches(column: str, got: str, want: str) -> bool:
    if is_int(want) or not is_float(want):
        return got == want
    if not is_float(got):
        return False
    if column == "rel_error":
        return math.isclose(float(got), float(want), rel_tol=REL_ERROR_RTOL)
    atol = ATOL.get(column.split("_")[0], 1e-12)
    return abs(float(got) - float(want)) <= RTOL * abs(float(want)) + atol


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = split_csv(run_config(name, tmp_path).read_text(encoding="utf-8"))
    want = split_csv((GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8"))
    got_meta, got_header, got_rows = got
    want_meta, want_header, want_rows = want
    assert got_meta == want_meta
    assert got_header == want_header
    assert len(got_rows) == len(want_rows)
    for r, (got_row, want_row) in enumerate(zip(got_rows, want_rows)):
        assert len(got_row) == len(want_row), f"row {r}"
        for column, g, w in zip(want_header, got_row, want_row):
            assert cell_matches(column, g, w), f"row {r} {column}: {g} != {w}"


def test_two_blas_threads_move_no_byte(tmp_path):
    # the goldens that two threads used to move: their level solves and
    # ground states must keep every byte at OPENBLAS_NUM_THREADS=2
    names = ["fig4a", "fig4b", "sweep"]
    if _blas.thread_controls(*_blas.NUMPY) is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread controls")
    for name in names:
        (tmp_path / f"{name}.json").write_text(json.dumps(GOLDEN[name]))
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "2"}
    code = (
        "from polarq import cli\n"
        f"for name in {names!r}:\n"
        "    assert cli.main(['run', name + '.json', '--out', name + '.csv']) == 0\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=tmp_path)
    for name in names:
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == (GOLDEN_DIR / f"{name}.csv").read_bytes(), name


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    os.chdir(GOLDEN_DIR)
    for golden in sorted(GOLDEN):
        path = run_config(golden, GOLDEN_DIR)
        (GOLDEN_DIR / f"{golden}.json").unlink()
        print(path.name)
    for leftover in GOLDEN_DIR.glob("*.circuit"):
        leftover.unlink()
