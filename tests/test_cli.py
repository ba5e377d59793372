"""Config validation, task execution, and CSV output of the command line."""

import csv
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

import polarq
from polarq import (
    build_hamiltonian,
    energy_gap,
    linear_array,
    pair_couplings,
    spectrum,
)
from polarq import cli, lattice
from polarq.circuits import diagonal
from polarq.circuits import (
    Circuit,
    DiagonalUnitary,
    circuit_from_text,
    iqp_probability,
)
from polarq.manybody import SolverError


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def read_csv(path):
    """Returns (metadata dict, header list, data rows)."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    meta = {}
    data = []
    for line in lines:
        if line.startswith("#"):
            key, _, value = line.lstrip("# ").partition("=")
            meta[key] = value
        else:
            data.append(line)
    rows = list(csv.reader(data))
    return meta, rows[0], rows[1:]


def test_validate_accepts_good_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"task": "gap", "parameters": {"n": 3, "x": 2.0}})
    assert cli.main(["validate", cfg]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_rejects_unknown_task(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"task": "nope"})
    assert cli.main(["validate", cfg]) == 2
    out = capsys.readouterr().out
    assert "task" in out
    assert "gap" in out  # the message lists the allowed tasks


def test_validate_rejects_unknown_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"task": "gap", "bogus": 1})
    assert cli.main(["validate", cfg]) == 2
    assert "bogus" in capsys.readouterr().out


@pytest.mark.parametrize(
    "cfg,needle",
    [
        (
            {
                "task": "fig3a",
                "sweep": {"parameter": "omega", "from": 1e-3, "to": 1e-5, "points": 5},
            },
            "from",
        ),
        (
            {
                "task": "fig3a",
                "sweep": {
                    "parameter": "omega",
                    "from": 0.0,
                    "to": 1e-3,
                    "points": 5,
                    "scale": "log",
                },
            },
            "log",
        ),
        (
            {
                "task": "fig3a",
                "sweep": {"parameter": "x", "from": 1.0, "to": 2.0, "points": 5},
            },
            "omega",
        ),
        (
            {
                "task": "gap",
                "sweep": {"parameter": "omega", "from": 1e-5, "to": 1e-3, "points": 5},
            },
            "sweep",
        ),
        ({"task": "sweep"}, "sweep"),
        (
            {
                "task": "iqp",
                "parameters": {"phases": [0.0, 1.0], "random_qubits": 2},
            },
            "parameters/random_qubits",
        ),
        ({"task": "iqp", "parameters": {"phases": [0.0, 1.0, 2.0]}}, "power of two"),
        ({"task": "gap", "geometry": {"kind": "custom"}}, "geometry"),
        # accepted by the schema, then ignored or failed at run time
        (
            {"task": "fig3a", "geometry": {"kind": "square", "rows": 2, "cols": 2}},
            "geometry",
        ),
        ({"task": "fig5a", "parameters": {"pairs": [[0, 20]]}}, "pairs"),
        ({"task": "fig6b", "parameters": {"pairs": [[1, 1]]}}, "pairs"),
        (
            {
                "task": "concurrence",
                "geometry": {
                    "kind": "custom",
                    "positions": [[0, 0, 0], [1, 0, 0]],
                    "field_direction": [0, 0, 0],
                },
            },
            "field_direction",
        ),
        ({"task": "fit-residuals", "parameters": {"omega_values": [0]}}, "omega"),
        (
            {
                "task": "fit-residuals",
                "parameters": {"which": "concurrence", "omega": 0},
            },
            "omega",
        ),
        ({"task": "fit-residuals", "parameters": {"n_values": [1]}}, "n_values"),
        ({"task": "fit-residuals", "parameters": {"x_values": [0]}}, "x_values"),
        (
            {
                "task": "fig6a",
                "geometry": {"kind": "custom", "positions": [[0, 0, 0], [0, 0, 0]]},
            },
            "coincide",
        ),
        ({"task": "fig5a", "parameters": {"n": 3}}, "parameters/n"),
        ({"task": "fig6b", "parameters": {"n": 9}}, "parameters/n"),
        # the thermal sum needs every level, which only the dense solver gives
        ({"task": "fig4b", "parameters": {"n": 15}}, "2^n levels"),
        ({"task": "thermal", "parameters": {"n": 15}}, "2^n levels"),
        (
            {
                "task": "sweep",
                "geometry": {"kind": "linear", "n": 15},
                "sweep": {"parameter": "kt", "from": 0.01, "to": 0.02, "points": 2},
            },
            "2^n levels",
        ),
        ({"task": "fig3a", "workers": 2}, "'workers' was unexpected"),
        # cluster-check graphs that cannot be prepared
        ({"task": "cluster-check", "parameters": {"edges": []}}, "at least one qubit"),
        ({"task": "cluster-check", "parameters": {"edges": [[1, 1]]}}, "self-loop"),
        (
            {"task": "cluster-check", "parameters": {"edges": [[0, 1], [1, 0]]}},
            "repeated edge",
        ),
        (
            {"task": "cluster-check", "parameters": {"edges": [[0, 5]], "n": 3}},
            "out of range",
        ),
        (
            {
                "task": "cluster-check",
                "parameters": {"graph": "grid", "rows": 5, "cols": 5},
            },
            "n=25 exceeds the 24-qubit cap",
        ),
        # parameters.n beside a geometry block on the tasks whose default is 2 sites
        (
            {
                "task": "sweep",
                "geometry": {"kind": "square", "rows": 2, "cols": 2},
                "parameters": {"n": 7},
                "sweep": {"parameter": "omega", "from": 1e-4, "to": 1e-3, "points": 2},
            },
            "parameters/n",
        ),
        (
            {
                "task": "concurrence",
                "parameters": {"n": 3},
                "geometry": {"kind": "linear", "n": 4},
            },
            "parameters/n",
        ),
        # keys the task never reads, which a run would ignore
        ({"task": "fig4a", "parameters": {"omega": 0.5}}, "parameters/omega"),
        ({"task": "fig3a", "parameters": {"x": 7}}, "parameters/x"),
        ({"task": "fig5a", "parameters": {"kt": 1}}, "parameters/kt"),
        ({"task": "nmr-cnot", "parameters": {"eps": 0.1}}, "parameters/eps"),
        (
            {"task": "concurrence", "geometry": {"kind": "linear", "n": 3, "rows": 4}},
            "geometry/rows",
        ),
        (
            {
                "task": "fig6a",
                "geometry": {
                    "kind": "custom",
                    "positions": [[0, 0, 0], [1, 0, 0]],
                    "n": 2,
                },
            },
            "geometry/n",
        ),
        (
            {
                "task": "cluster-check",
                "parameters": {"edges": [[0, 1]], "graph": "grid"},
            },
            "parameters/graph",
        ),
        (
            {
                "task": "fit-residuals",
                "parameters": {"which": "concurrence", "n_values": [2]},
            },
            "parameters/n_values",
        ),
        # the sweep axis replaces its parameter
        ({"task": "fig5a", "parameters": {"omega": 1e-4}}, "parameters/omega"),
        # every sweep axis is >= 0, so a sweep may not start below 0
        (
            {
                "task": "fig4b",
                "sweep": {"parameter": "kt", "from": -0.1, "to": 0.1, "points": 3},
                "parameters": {"n": 3},
            },
            "sweep/from",
        ),
        (
            {
                "task": "fig5b",
                "sweep": {"parameter": "x", "from": -1.0, "to": 1.0, "points": 3},
            },
            "sweep/from",
        ),
        (
            {
                "task": "fig3a",
                "sweep": {"parameter": "omega", "from": -0.001, "to": 0.0, "points": 2},
            },
            "sweep/from",
        ),
        ({"task": "concurrence", "geometry": {"kind": "custom"}}, "positions"),
        # arrays beyond the 24-molecule cap, which a run could not solve
        (
            {"task": "fig6a", "geometry": {"kind": "square", "rows": 5, "cols": 5}},
            "25 sites exceed",
        ),
        (
            {
                "task": "fig6a",
                "geometry": {
                    "kind": "custom",
                    "positions": [[k, 0, 0] for k in range(25)],
                },
            },
            "is too long",
        ),
        # phases whose Walsh sums overflow, which a compile could not finish
        (
            {"task": "compile-diagonal", "parameters": {"phases": [1e308, 1e308]}},
            "float_max / 2^n",
        ),
        ({"task": "iqp", "parameters": {"phases": [1e308, 1e308]}}, "float_max / 2^n"),
        (
            {"task": "compile-diagonal", "parameters": {"phases": [1e308, -1e308]}},
            "float_max / 2^n",
        ),
        (
            {"task": "iqp", "parameters": {"phases_file": "huge_phases.json"}},
            "float_max / 2^n",
        ),
        # lattice and grid sides beyond the cap, rejected before any site is placed
        (
            {"task": "fig6a", "geometry": {"rows": 25}},
            "geometry/rows: 25 is greater than the maximum of 24",
        ),
        (
            {"task": "cluster-check", "parameters": {"graph": "grid", "cols": 25}},
            "parameters/cols: 25 is greater than the maximum of 24",
        ),
        # a sweep that would not fit in memory, rejected before any value is made
        (
            {
                "task": "fig3a",
                "sweep": {"parameter": "omega", "from": 0, "to": 1, "points": 10**15},
            },
            "sweep/points: 1000000000000000 is greater than the maximum of 1000000",
        ),
    ],
    # literal ids: a case added anywhere in the list renames no other case
    ids=[
        "cfg0-from",
        "cfg1-log",
        "cfg2-omega",
        "cfg3-sweep",
        "cfg4-sweep",
        "cfg5-phase",
        "cfg6-power of two",
        "cfg7-positions",
        "cfg8-does not take a geometry",
        "cfg9-pairs",
        "cfg10-pairs",
        "cfg11-field_direction",
        "cfg12-omega",
        "cfg13-omega",
        "cfg14-n_values",
        "cfg15-x_values",
        "cfg16-coincide",
        "cfg17-geometry.n",
        "cfg18-geometry.n",
        "cfg19-2^n levels",
        "cfg20-2^n levels",
        "cfg21-2^n levels",
        "cfg22-'workers' was unexpected",
        "cfg23-at least one qubit",
        "cfg24-self-loop",
        "cfg25-repeated edge",
        "cfg26-out of range",
        "cfg27-25 vertices",
        "cfg28-geometry.n",
        "cfg29-geometry.n",
        "cfg30-fig4a omega",
        "cfg31-fig3a x",
        "cfg32-fig5a kt",
        "cfg33-nmr-cnot eps",
        "cfg34-linear geometry rows",
        "cfg35-custom geometry n",
        "cfg36-edges and graph",
        "cfg37-concurrence fit n_values",
        "cfg38-fig5a omega along its axis",
        "cfg39-fig4b kt from below 0",
        "cfg40-fig5b x from below 0",
        "cfg41-fig3a omega from below 0",
        "cfg42-custom geometry without positions",
        "cfg43-square geometry of 25 sites",
        "cfg44-custom geometry of 25 sites",
        "cfg45-compile-diagonal phases overflow",
        "cfg46-iqp phases overflow",
        "cfg47-compile-diagonal phases of both signs overflow",
        "cfg48-phases_file overflow",
        "cfg49-square geometry of 25 rows",
        "cfg50-grid graph of 25 columns",
        "cfg51-sweep of more than a million points",
    ],
)
def test_validate_semantic_rules(tmp_path, capsys, monkeypatch, cfg, needle):
    monkeypatch.chdir(tmp_path)  # for the relative phases_file
    (tmp_path / "huge_phases.json").write_text("[1e308, 1e308]")
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["validate", path]) == 2
    violations = capsys.readouterr().out
    assert needle in violations
    # run checks the config as validate does, and writes nothing
    out = tmp_path / "out.csv"
    assert cli.run(cfg, str(out), 0) == 2
    assert capsys.readouterr().err == "".join(
        f"error: {line}\n" for line in violations.splitlines()
    )
    assert not out.exists()


def test_unwritable_output_is_a_config_error_before_any_solve(
    tmp_path, capsys, monkeypatch
):
    def never(*args):
        raise AssertionError("spectrum called before the output was opened")

    monkeypatch.setattr(cli, "spectrum", never)
    out = tmp_path / "missing" / "gap.csv"
    cfg = write_cfg(tmp_path, {"task": "gap"})
    assert cli.main(["run", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out}: No such file or directory\n"
    assert not out.parent.exists()


def test_unwritable_circuit_output_is_a_config_error_before_compiling(
    tmp_path, capsys, monkeypatch
):
    def never(*args):
        raise AssertionError("compile_diagonal called before the outputs were opened")

    monkeypatch.setattr(cli, "compile_diagonal", never)
    monkeypatch.chdir(tmp_path)
    params = {"random_qubits": 3, "circuit_output": "nodir/x.circuit"}
    cfg = write_cfg(tmp_path, {"task": "compile-diagonal", "parameters": params})
    assert cli.main(["validate", cfg]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]
    assert cli.main(["run", cfg, "--out", "cd.csv"]) == 2
    err = capsys.readouterr().err
    assert err == "error: cannot write nodir/x.circuit: No such file or directory\n"
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


@pytest.mark.parametrize(
    "params, out",
    [
        ({"random_qubits": 3, "circuit_output": "same.csv"}, "same.csv"),
        ({"random_qubits": 3}, "r.circuit"),  # the default circuit path
    ],
    ids=["circuit_output", "default"],
)
def test_circuit_file_at_the_csv_path_is_a_config_error(
    tmp_path, capsys, monkeypatch, params, out
):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, {"task": "compile-diagonal", "parameters": params})
    assert cli.main(["run", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parameters/circuit_output: ")
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]
    # validate plans with the path a run without --out would write
    both = {"task": "compile-diagonal", "parameters": params, "output": out}
    assert cli.main(["validate", write_cfg(tmp_path, both)]) == 2
    assert "parameters/circuit_output" in capsys.readouterr().out
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_sweep_task_without_a_sweep_block_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert cli.run({"task": "sweep"}, str(out), 0) == 2
    assert "requires a sweep block" in capsys.readouterr().err
    assert not out.exists()


def test_validate_opens_the_phases_file(tmp_path, capsys):
    not_a_list = tmp_path / "phases.json"
    not_a_list.write_text('{"phases": [0.0, 1.0]}')
    one_number = tmp_path / "one.json"
    one_number.write_text("[0.5]")
    for path, needle in [
        (tmp_path / "absent.json", "absent.json"),
        (not_a_list, "phases.json"),
        (one_number, "is too short"),
    ]:
        cfg = {"task": "compile-diagonal", "parameters": {"phases_file": str(path)}}
        assert cli.main(["validate", write_cfg(tmp_path, cfg)]) == 2
        assert needle in capsys.readouterr().out


def test_run_plans_once(tmp_path, monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return resolve_phases(*args)

    resolve_phases = cli._resolve_phases
    monkeypatch.setattr(cli, "_resolve_phases", spy)
    cfg = write_cfg(tmp_path, {"task": "compile-diagonal"})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "cd.csv")]) == 0
    assert len(calls) == 1  # one phases_file read, one draw of random phases


def test_readme_examples_validate(tmp_path, capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = readme.read_text(encoding="utf-8").split("```json\n")[1:]
    assert blocks
    for block in blocks:
        path = tmp_path / "example.json"
        path.write_text(block.split("```")[0])
        assert cli.main(["validate", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "ok"


def test_missing_and_malformed_config(tmp_path, capsys):
    assert cli.main(["validate", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"task": "gap",}')
    assert cli.main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "invalid JSON" in err
    assert ":1:16:" in err  # position of the offending character


@pytest.mark.parametrize(
    "text",
    [
        '{"task": "concurrence", "geometry": '
        '{"kind": "linear", "n": 3, "field_direction": [NaN, 0, 1]}}',
        '{"task": "fig6a", "geometry": '
        '{"kind": "custom", "positions": [[0, 0, 0], [Infinity, 0, 0]]}}',
        '{"task": "gap", "parameters": {"x": -Infinity}}',
        '{"task": "gap", "parameters": {"omega": 1e999}}',
    ],
    ids=["nan-field", "infinite-position", "minus-infinity", "overflow"],
)
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "out.csv"
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(out)]):
        assert cli.main(argv) == 2
        assert "non-finite number" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_invalid_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"task": "nope"})
    out = tmp_path / "out.csv"
    assert cli.main(["run", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_run_gap_matches_direct_computation(tmp_path):
    cfg = write_cfg(
        tmp_path, {"task": "gap", "parameters": {"n": 3, "x": 2.0, "omega": 1e-4}}
    )
    out = tmp_path / "gap.csv"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    meta, header, rows = read_csv(str(out))
    assert meta["task"] == "gap"
    assert header == ["n", "x", "omega", "gap", "dw", "rel_dev"]
    assert len(rows) == 1
    from polarq import qubit_pair, solve_pendular

    qp = qubit_pair(solve_pendular(2.0))
    h = build_hamiltonian(qp, pair_couplings(linear_array(3), 1e-4), 3)
    want = energy_gap(spectrum(h, "all"))
    assert float(rows[0][3]) == pytest.approx(want, rel=1e-12)
    assert float(rows[0][5]) < 1e-3


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "task": "fig3a",
            "sweep": {
                "parameter": "omega",
                "from": 1e-5,
                "to": 1e-4,
                "points": 3,
                "scale": "log",
            },
            "parameters": {"n_values": [2, 3], "x_values": [2.0]},
        },
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["run", cfg, "--out", str(a)]) == 0
    assert cli.main(["run", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    meta, header, rows = read_csv(str(a))
    assert header[0] == "omega"
    assert len(rows) == 3


def test_solver_failure_writes_sentinel(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise SolverError("eigensolver did not converge")

    monkeypatch.setattr(cli, "spectrum", boom)
    cfg = write_cfg(
        tmp_path, {"task": "gap", "parameters": {"n": 3, "x": 2.0, "omega": 1e-4}}
    )
    out = tmp_path / "gap.csv"
    assert cli.main(["run", cfg, "--out", str(out)]) == 3
    _, _, rows = read_csv(str(out))
    assert rows[-1][0] == "FAILED"
    assert "SolverError" in rows[-1][1]
    assert "error" in capsys.readouterr().err


def test_failing_row_keeps_the_rows_before_it(tmp_path, monkeypatch, capsys):
    calls = []

    def fail_third(h, k="all"):
        calls.append(k)
        if len(calls) == 3:
            raise SolverError("eigensolver did not converge")
        return spectrum(h, k)

    monkeypatch.setattr(cli, "spectrum", fail_third)
    cfg = write_cfg(tmp_path, {"task": "fig3b", "parameters": {"x_values": [2.0]}})
    out = tmp_path / "fig3b.csv"
    assert cli.main(["run", cfg, "--out", str(out)]) == 3
    meta, header, rows = read_csv(str(out))
    assert meta["task"] == "fig3b" and meta["x_values"] == "2.0"
    assert header == ["n", "p_x2.0"]
    assert [r[0] for r in rows[:2]] == ["2", "3"]
    assert rows[2] == ["FAILED", "SolverError: eigensolver did not converge"]
    assert len(rows) == 3
    assert "partial results" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cfg, target, header",
    [
        ({"task": "fig4b"}, "spectrum", ["kt", "p_thermal"]),
        (
            {"task": "concurrence"},
            "spectrum",
            ["i", "j", "omega_ij", "alpha_ij", "concurrence", "eof"],
        ),
        (
            {"task": "cluster-check"},
            "_checked_cluster_state",
            ["vertex", "stabilizer_expectation"],
        ),
    ],
    ids=["fig4b", "concurrence", "cluster-check"],
)
def test_failure_in_the_first_row_keeps_metadata_and_header(
    tmp_path, monkeypatch, cfg, target, header
):
    def boom(*args, **kwargs):
        raise SolverError("eigensolver did not converge")

    monkeypatch.setattr(cli, target, boom)
    out = tmp_path / "out.csv"
    assert cli.main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 3
    meta, got_header, rows = read_csv(str(out))
    assert meta["task"] == cfg["task"] and len(meta) > 2
    assert got_header == header
    assert rows == [["FAILED", "SolverError: eigensolver did not converge"]]


def test_compile_diagonal_writes_circuit_file(tmp_path):
    circuit_file = tmp_path / "out.circuit"
    cfg = write_cfg(
        tmp_path,
        {
            "task": "compile-diagonal",
            "parameters": {
                "phases": [0.0, 1.5707963267948966, 3.141592653589793, -0.5],
                "eps": 1e-10,
                "circuit_output": str(circuit_file),
            },
        },
    )
    out = tmp_path / "cd.csv"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    meta, header, rows = read_csv(str(out))
    assert float(rows[0][header.index("max_error")]) <= 1e-9
    assert rows[0][header.index("nearest_neighbor")] == "true"
    circ = circuit_from_text(circuit_file.read_text())
    assert circ.gate_count() == int(rows[0][header.index("gates")])
    assert circ.gate_count("CNOT") == int(rows[0][header.index("cnots")])


def test_compile_diagonal_check_catches_a_dropped_cnot(tmp_path, monkeypatch):
    compile_diagonal = cli.compile_diagonal

    def broken(d, eps):
        circ = compile_diagonal(d, eps)
        k = [g.name for g in circ.gates].index("CNOT")
        return Circuit(n=circ.n, gates=circ.gates[:k] + circ.gates[k + 1 :])

    monkeypatch.setattr(cli, "compile_diagonal", broken)
    cfg = write_cfg(tmp_path, {"task": "compile-diagonal"})
    out = tmp_path / "cd.csv"
    assert cli.main(["run", cfg, "--out", str(out), "--seed", "1"]) == 0
    meta, header, rows = read_csv(str(out))
    assert float(rows[0][header.index("max_error")]) > float(meta["eps"])


def test_compile_diagonal_reads_phases_file(tmp_path):
    phases = [0.25, -1.5, 3.0, 0.125, 2.5, -0.75, 1.0, -2.0]
    sources = {
        "inline": {"phases": phases},
        "json": {"phases_file": "phases.json"},
        "lines": {"phases_file": "phases.txt"},
    }
    (tmp_path / "phases.json").write_text(json.dumps(phases))
    (tmp_path / "phases.txt").write_text("\n".join(map(repr, phases)) + "\n")
    data = {}
    for name, params in sources.items():
        params = {**params, "circuit_output": str(tmp_path / f"{name}.circuit")}
        if "phases_file" in params:
            params["phases_file"] = str(tmp_path / params["phases_file"])
        cfg = {"task": "compile-diagonal", "parameters": params}
        out = tmp_path / f"{name}.csv"
        assert cli.main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        data[name] = read_csv(str(out))[1:]
    assert data["json"] == data["lines"] == data["inline"]


def test_phases_file_that_is_not_a_list_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "phases.json"
    bad.write_text('{"phases": [0.0, 1.0]}')
    cfg = {"task": "iqp", "parameters": {"phases_file": str(bad)}}
    out = tmp_path / "iqp.csv"
    assert cli.main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert "phases.json" in capsys.readouterr().err
    assert not out.exists()


def test_empty_phases_file_is_a_config_error(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("[]")
    cfg = {"task": "iqp", "parameters": {"phases_file": str(empty)}}
    out = tmp_path / "iqp.csv"
    assert cli.main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert "is too short" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, needle",
    [
        ('["1", "2"]', "'1' is not of type 'number'"),
        ("[true, false]", "True is not of type 'number'"),
        ("[null, 1]", "None is not of type 'number'"),
        ("[1, 1" + "0" * 400 + "]", "non-finite number 10000000000000000000..."),
    ],
    ids=["strings", "booleans", "null", "integer beyond float range"],
)
def test_phases_file_entries_follow_the_inline_rule(tmp_path, capsys, text, needle):
    phases = tmp_path / "phases.json"
    phases.write_text(text)
    for task in ("compile-diagonal", "iqp"):
        params = {"phases_file": str(phases)}
        cfg = write_cfg(tmp_path, {"task": task, "parameters": params})
        assert cli.main(["validate", cfg]) == 2
        shown = capsys.readouterr().out
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 2
        for message in (shown, capsys.readouterr().err):
            assert f"{phases}: " in message and needle in message
        assert not out.exists() and not (tmp_path / "out.circuit").exists()


@pytest.mark.parametrize(
    "text",
    [
        '{"task": "iqp", "parameters": {"phases": [1, BIG]}}',
        '{"task": "fig4b", "parameters": {"x": BIG}}',
        '{"task": "gap", "parameters": {"omega": BIG}}',
        '{"task": "gap", "parameters": {"omega": HUGE}}',
    ],
    ids=["iqp phases", "fig4b x", "gap omega", "5000 digits"],
)
def test_integer_beyond_float_range_is_a_config_error(tmp_path, capsys, text):
    # 400 digits overflow a float; 5000 also pass Python's 4300-digit int() limit
    path = tmp_path / "cfg.json"
    big, huge = "1" + "0" * 400, "1" + "0" * 5000
    path.write_text(text.replace("BIG", big).replace("HUGE", huge))
    out = tmp_path / "out.csv"
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(out)]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"{path}: invalid JSON: non-finite number 10000000000000000000..." in err
        assert "0" * 100 not in err
        assert not out.exists()


def test_phase_lists_over_the_qubit_cap_are_config_errors(
    tmp_path, capsys, monkeypatch
):
    # the cap lives in DiagonalUnitary; lowered to 3 qubits, 16 phases exceed it
    monkeypatch.setattr(diagonal, "MAX_QUBITS", 3)
    for task in ("compile-diagonal", "iqp"):
        cfg = write_cfg(tmp_path, {"task": task, "parameters": {"phases": [0.5] * 16}})
        assert cli.main(["validate", cfg]) == 2
        assert "n=4 exceeds the 3-qubit cap" in capsys.readouterr().out
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 2
        assert "n=4 exceeds the 3-qubit cap" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "out.circuit").exists()


def test_iqp_explicit_phases(tmp_path):
    theta = [0.3, -1.2, 0.7, 2.0]
    cfg = write_cfg(tmp_path, {"task": "iqp", "parameters": {"phases": theta}})
    out = tmp_path / "iqp.csv"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    _, header, rows = read_csv(str(out))
    want = iqp_probability(DiagonalUnitary.from_phases(theta))
    assert float(rows[0][header.index("p_analytic")]) == pytest.approx(want, rel=1e-12)
    assert float(rows[0][header.index("abs_diff")]) < 1e-9


def test_iqp_random_phases_depend_on_seed(tmp_path):
    cfg = write_cfg(tmp_path, {"task": "iqp", "parameters": {"random_qubits": 2}})
    outs = []
    for seed in ("0", "0", "1"):
        out = tmp_path / f"iqp{len(outs)}.csv"
        assert cli.main(["run", cfg, "--out", str(out), "--seed", seed]) == 0
        _, header, rows = read_csv(str(out))
        outs.append(float(rows[0][header.index("p_analytic")]))
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_cluster_check_grid(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"task": "cluster-check", "parameters": {"graph": "grid", "rows": 2, "cols": 3}},
    )
    out = tmp_path / "cc.csv"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    meta, header, rows = read_csv(str(out))
    assert meta["graph"] == "grid[2x3]"
    assert len(rows) == 6
    for row in rows:
        assert float(row[1]) == pytest.approx(1.0, abs=1e-10)



def _grid_edges_reference(rows, cols):
    """Nearest-neighbour edges of a row-major grid, right then down per vertex."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


@pytest.mark.parametrize(
    "params, edges",
    [
        (
            {"graph": "grid", "rows": rows, "cols": cols},
            _grid_edges_reference(rows, cols),
        )
        for rows, cols in [(1, 4), (4, 1), (2, 3), (4, 4)]
    ]
    + [({"graph": "chain", "n": 5}, [(i, i + 1) for i in range(4)])],
    ids=["grid1x4", "grid4x1", "grid2x3", "grid4x4", "chain5"],
)
def test_cluster_check_edges_metadata(tmp_path, params, edges):
    cfg = write_cfg(tmp_path, {"task": "cluster-check", "parameters": params})
    out = tmp_path / "cc.csv"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    meta, _, rows = read_csv(str(out))
    assert meta["edges"] == ";".join(f"{a}-{b}" for a, b in edges)
    assert len(rows) == 1 + max(map(max, edges))


def test_cluster_check_checks_the_stabilizers_once(tmp_path, monkeypatch):
    from polarq.circuits import core

    calls = []
    check = core.cluster_stabilizer_check

    def spy(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(core, "cluster_stabilizer_check", spy)
    monkeypatch.setattr(cli, "cluster_stabilizer_check", spy, raising=False)
    cfg = write_cfg(tmp_path, {"task": "cluster-check"})
    out = tmp_path / "cc.csv"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    assert len(calls) == 1
    _, _, rows = read_csv(str(out))
    assert len(rows) == 3


def test_cluster_check_fails_on_a_stabilizer_off_by_more_than_1e_10(
    tmp_path, monkeypatch
):
    from polarq.circuits import core

    check = core.cluster_stabilizer_check
    monkeypatch.setattr(
        core, "cluster_stabilizer_check", lambda *a: [v - 2e-10 for v in check(*a)]
    )
    cfg = write_cfg(tmp_path, {"task": "cluster-check"})
    out = tmp_path / "cc.csv"
    assert cli.main(["run", cfg, "--out", str(out)]) == 3
    _, _, rows = read_csv(str(out))
    assert rows[0][0] == "FAILED" and "stabilizer check failed" in rows[0][1]

def test_nmr_cnot_detuned_wait(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"task": "nmr-cnot", "parameters": {"dw_shift": 0.01, "wait_scale": 0.5}},
    )
    out = tmp_path / "nmr.csv"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    _, header, rows = read_csv(str(out))
    assert float(rows[0][header.index("deviation")]) > 0.1
    assert float(rows[0][header.index("wait_time")]) == pytest.approx(
        0.5 * np.pi / 0.01
    )


def test_published_schema_is_in_sync():
    # docs/config.schema.json is generated from CONFIG_SCHEMA (see README)
    here = Path(__file__).resolve().parents[1]
    published = (here / "docs" / "config.schema.json").read_bytes()
    assert published == (json.dumps(cli.CONFIG_SCHEMA, indent=2) + "\n").encode()


def _polarq_distribution():
    """This interpreter's installed polarq distribution, or None."""
    try:
        return importlib.metadata.distribution("polarq")
    except importlib.metadata.PackageNotFoundError:
        return None


def _installed_script(dist):
    """The `polarq` script `dist` installed, found through its RECORD."""
    for f in dist.files or ():
        if f.stem == "polarq" and f.parent.name in ("bin", "Scripts"):
            path = Path(dist.locate_file(f))
            if path.is_file():
                return str(path)
    return shutil.which("polarq", path=sysconfig.get_path("scripts"))


@pytest.mark.skipif(
    _polarq_distribution() is None,
    reason="no polarq distribution in this interpreter; "
    "install with `pip install -e . --no-build-isolation`",
)
def test_installed_entry_point():
    dist = _polarq_distribution()
    (ep,) = dist.entry_points.select(group="console_scripts", name="polarq")
    assert ep.value == "polarq.cli:main"
    script = _installed_script(dist)
    assert script is not None, "the polarq distribution installed no polarq script"
    proc = subprocess.run(
        [script, "--version"], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == f"polarq {polarq.__version__}"


def test_declared_entry_point_runs():
    # the console script pyproject.toml declares, run without installing it
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    module, _, attr = scripts["polarq"].partition(":")
    code = f"import sys, {module}; sys.exit({module}.{attr}())"
    proc = subprocess.run(
        [sys.executable, "-c", code, "--version"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == f"polarq {polarq.__version__}"


def test_fig5a_honours_nearest_neighbors_only(tmp_path):
    geometry = {"kind": "linear", "n": 4, "nearest_neighbors_only": True}
    fig5a = write_cfg(
        tmp_path,
        {
            "task": "fig5a",
            "geometry": geometry,
            "sweep": {"parameter": "omega", "from": 1e-3, "to": 1e-3, "points": 1},
        },
        "fig5a.json",
    )
    pair_map = write_cfg(
        tmp_path,
        {"task": "concurrence", "geometry": geometry, "parameters": {"omega": 1e-3}},
        "concurrence.json",
    )
    a, b = tmp_path / "fig5a.csv", tmp_path / "concurrence.csv"
    assert cli.main(["run", fig5a, "--out", str(a)]) == 0
    assert cli.main(["run", pair_map, "--out", str(b)]) == 0
    _, header, rows = read_csv(str(a))
    _, map_header, map_rows = read_csv(str(b))
    (row01,) = [r for r in map_rows if r[:2] == ["0", "1"]]
    want = float(row01[map_header.index("concurrence")])
    assert float(rows[0][header.index("c_01")]) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "cfg,k",
    [
        ({"task": "fig3a"}, 1),
        ({"task": "fig3b"}, 1),
        ({"task": "fig5a"}, 1),
        ({"task": "fig5b"}, 1),
        ({"task": "fig6a"}, 1),
        ({"task": "fig6b"}, 1),
        ({"task": "concurrence"}, 1),
        ({"task": "fit-residuals", "parameters": {"which": "concurrence"}}, 1),
        ({"task": "fig4a"}, 2),
        ({"task": "gap"}, 2),
        ({"task": "fig4b"}, "all"),
        ({"task": "thermal"}, "all"),
        (
            {
                "task": "sweep",
                "sweep": {"parameter": "kt", "from": 0.01, "to": 0.02, "points": 2},
            },
            "all",
        ),
    ],
)
def test_tasks_request_only_the_eigenpairs_they_use(tmp_path, monkeypatch, cfg, k):
    requested = []

    def spy(h, k="all"):
        requested.append(k)
        return spectrum(h, k)

    monkeypatch.setattr(cli, "spectrum", spy)
    out = tmp_path / "out.csv"
    assert cli.main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    assert requested and set(requested) == {k}


def test_concurrence_beyond_dense_limit_runs_matrix_free(tmp_path, monkeypatch):
    matrix_free = []

    def spy(h, k="all"):
        matrix_free.append(h.matrix is None)
        return spectrum(h, k)

    monkeypatch.setattr(cli, "spectrum", spy)
    c01 = {}
    for n in (9, 15):
        cfg = {
            "task": "concurrence",
            "geometry": {"kind": "linear", "n": n, "nearest_neighbors_only": True},
            "parameters": {"pairs": [[0, 1]]},
        }
        out = tmp_path / f"c{n}.csv"
        assert cli.main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        meta, header, rows = read_csv(str(out))
        assert meta["pairs"] == "0-1"
        assert [r[:2] for r in rows] == [["0", "1"]]  # only the requested pair
        c01[n] = float(rows[0][header.index("concurrence")])
    assert matrix_free == [False, True]
    assert c01[15] == pytest.approx(c01[9], rel=0.01)


def test_concurrence_reports_the_coupling_of_a_reversed_pair(tmp_path):
    cfg = {
        "task": "concurrence",
        "geometry": {"kind": "linear", "n": 3},
        "parameters": {"pairs": [[1, 0], [0, 1]]},
    }
    out = tmp_path / "c.csv"
    assert cli.main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    _, header, rows = read_csv(str(out))
    reversed_, forward = (dict(zip(header, r)) for r in rows)
    assert (reversed_["i"], reversed_["j"]) == ("1", "0")
    assert reversed_["omega_ij"] == forward["omega_ij"] == "0.001"
    assert reversed_["alpha_ij"] == forward["alpha_ij"]
    assert float(reversed_["concurrence"]) == pytest.approx(
        float(forward["concurrence"]), rel=1e-9
    )


def test_metadata_records_the_field_direction(tmp_path):
    headers = []
    for field in ([0, 0, 1], [1, 0, 0]):
        geom = {"kind": "linear", "n": 3, "field_direction": field}
        cfg = write_cfg(tmp_path, {"task": "concurrence", "geometry": geom})
        out = tmp_path / "c.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        headers.append([line for line in text.splitlines() if line.startswith("#")])
    assert "# field_direction=1.0;0.0;0.0" in headers[1]
    assert headers[0] != headers[1]


@pytest.mark.parametrize(
    "geometry, field",
    [
        ({"kind": "linear", "n": 3, "field_direction": [2, 0, 0]}, [1.0, 0.0, 0.0]),
        ({"kind": "square", "rows": 2, "cols": 2}, [0.0, 0.0, 1.0]),
        (
            {
                "kind": "custom",
                "positions": [[0, 0, 0], [1, 0, 0]],
                "field_direction": [0, 3, 4],
            },
            [0.0, 0.6, 0.8],
        ),
    ],
    ids=["linear", "square", "custom"],
)
def test_geometry_is_built_once(monkeypatch, geometry, field):
    calls = []
    post_init = lattice.ArrayGeometry.__post_init__

    def counting(self):
        calls.append(self.kind)
        post_init(self)

    monkeypatch.setattr(lattice.ArrayGeometry, "__post_init__", counting)
    geom, _ = cli._geometry({"task": "concurrence", "geometry": geometry})
    assert calls == [geometry["kind"]]
    assert geom.field_direction.tolist() == field


def test_concurrence_builds_its_couplings_once(tmp_path, monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return pair_couplings(*args, **kwargs)

    monkeypatch.setattr(cli, "pair_couplings", spy)
    cfg = write_cfg(tmp_path, {"task": "concurrence"})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "c.csv")]) == 0
    assert len(calls) == 1  # the row's; the geometry rejects coincident sites


@pytest.mark.parametrize(
    "geometry, positions",
    [
        ({"kind": "linear", "n": 3}, [[0, 0, 0], [1, 0, 0], [2, 0, 0]]),
        (
            {"kind": "square", "rows": 2, "cols": 2},
            [[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]],
        ),
    ],
    ids=["linear", "square"],
)
def test_field_direction_applies_to_every_geometry_kind(tmp_path, geometry, positions):
    field = [1, 0, 0]
    columns = {}
    for name, geom in [
        ("built_in", {**geometry, "field_direction": field}),
        ("custom", {"kind": "custom", "positions": positions, "field_direction": field}),
    ]:
        cfg = {"task": "concurrence", "geometry": geom}
        out = tmp_path / f"{name}.csv"
        assert cli.main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        columns[name] = [
            [r[header.index(c)] for c in ("i", "j", "alpha_ij", "concurrence")]
            for r in rows
        ]
    assert columns["built_in"] == columns["custom"]
    assert any(alpha == "0.0" for _, _, alpha, _ in columns["built_in"])


def test_uncoupled_ground_state_tasks_report_exact_zeros(tmp_path):
    # at omega = 0 H is diagonal and the ground state is exactly |00...0>
    sweep = {"parameter": "omega", "from": 0.0, "to": 1e-3, "points": 2}
    for task in ("fig3a", "fig5a"):
        cfg = write_cfg(tmp_path, {"task": task, "sweep": sweep}, f"{task}.json")
        out = tmp_path / f"{task}.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header[0] == "omega" and float(rows[0][0]) == 0.0
        assert [float(cell) for cell in rows[0][1:]] == [0.0] * (len(header) - 1)
        assert all(float(cell) > 0.0 for cell in rows[1][1:])


def test_ground_state_tasks_do_not_depend_on_earlier_solves(tmp_path):
    # ARPACK continues from a random vector, drawn from one generator per
    # process, when its Krylov space closes early: small symmetric chains and
    # the diagonal H of omega = 0 do that.  A k = 1 task must give the same
    # bytes whatever the process solved before it.  Weak coupling runs
    # Davidson; omega = 10 and 30 are too strong for its certificate and run
    # ARPACK.
    configs = [
        write_cfg(tmp_path, {"task": "fig3b"}, "fig3b.json"),
        *(
            write_cfg(
                tmp_path,
                {
                    "task": "fig5a",
                    "geometry": {"kind": "linear", "n": 3},
                    "sweep": {"parameter": "omega", "from": lo, "to": hi, "points": 3},
                },
                f"fig5a_{i}.json",
            )
            for i, (lo, hi) in enumerate([(0.0, 1e-3), (10.0, 30.0)])
        ),
    ]
    history = (
        "import numpy as np\n"
        "from scipy.sparse.linalg import eigsh\n"
        "for _ in range(3):\n"
        "    eigsh(np.diag([0.0, 1, 1, 1]), k=2, which='SA', v0=np.ones(4))\n"
    )
    src = str(Path(polarq.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    outputs = []
    for name, before in [("fresh", ""), ("after_solves", history)]:
        runs = [[c, str(tmp_path / f"{name}{i}.csv")] for i, c in enumerate(configs)]
        code = before + (
            "from polarq import cli\n"
            f"for cfg, out in {runs!r}:\n"
            "    assert cli.main(['run', cfg, '--out', out]) == 0\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
        outputs.append([Path(out).read_bytes() for _, out in runs])
    assert outputs[0] == outputs[1]


def test_runs_load_scipy_only_for_a_partial_dense_solve(tmp_path):
    # scipy.linalg serves only dense k >= 2 (gap, fig4a) and scipy.sparse only
    # ARPACK; the circuits tasks, a k = 1 task and a full eigh load neither
    configs = [
        {"task": "compile-diagonal"},
        {"task": "iqp"},
        {"task": "cluster-check"},
        {"task": "fig3b", "parameters": {"n_values": [2, 3]}},
        {"task": "fig4b", "parameters": {"n": 3}},
    ]
    runs = [
        [write_cfg(tmp_path, cfg, f"cfg{i}.json"), str(tmp_path / f"out{i}.csv")]
        for i, cfg in enumerate(configs)
    ]
    gap = write_cfg(tmp_path, {"task": "gap", "parameters": {"n": 3}}, "gap.json")
    src = str(Path(polarq.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import sys\n"
        "from polarq import cli\n"
        f"for cfg, out in {runs!r}:\n"
        "    assert cli.main(['run', cfg, '--out', out]) == 0, cfg\n"
        "print('scipy.linalg' in sys.modules, 'scipy.sparse' in sys.modules)\n"
        f"assert cli.main(['run', {gap!r}, '--out', {str(tmp_path / 'gap.csv')!r}]) == 0\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=env,
    )
    assert out.stdout.split() == ["False", "False", "True"]
