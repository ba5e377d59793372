"""Command-line front end.

Subcommands:
    run <config.json>       check a config, execute its task, write a CSV
    validate <config.json>  check a config and list its violations

Both check a config in one pass, plan_config: the schema CONFIG_SCHEMA
(published as docs/config.schema.json), then the task's planner, which
rejects what it cannot resolve and every key it never reads.  Every task
writes a CSV whose leading comment block (# key=value) records the
resolved inputs and tool version, followed by a header row and data rows;
identical configs give byte-identical files.  Up to 9 molecules that holds
at any BLAS thread count: a BLAS call on at most 2^18 doubles runs on one
OpenBLAS thread (polarq._blas), larger ones on the count the user set.
Exit codes: 0 success, 2 config error or an output path that cannot be
opened for writing (checked before any solve), 3 solver failure (partial
rows are flushed with a FAILED sentinel row).
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import sys
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import __version__
from .circuits import (
    DiagonalUnitary,
    StateVector,
    circuit_to_text,
    cluster_circuit,
    compile_diagonal,
    iqp_probability,
    nmr_cnot_sequence,
    simulate,
)
from .circuits.core import (
    MAX_QUBITS,
    Circuit,
    Gate,
    _checked_cluster_state,
)
from .entangle import (
    concurrence,
    entanglement_of_formation,
    pairwise_concurrence_map,
    reduce,
)
from .fits import c_fit, p_fit
from .lattice import (
    ArrayGeometry,
    custom_array,
    linear_array,
    pair_couplings,
    square_array,
)
from .manybody import (
    DENSE_LIMIT,
    MAX_OMEGA,
    build_hamiltonian,
    energy_gap,
    p_not_all_zero,
    spectrum,
    thermal_excitation,
)
from .pendular import MAX_X, qubit_pair, solve_pendular

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3

# default sweep of fig3a, fig5a and fig6a: (from, to, points, scale)
OMEGA_LOG = (1e-5, 1e-3, 9, "log")


class ConfigError(Exception):
    """A config that cannot be read, parsed or planned; one violation a line."""


def _finite_numbers(path: str) -> dict:
    """json.load hooks that reject, naming path, the numbers no float holds.

    Python's json reads NaN, Infinity, 1e999 (as inf) and integers of any length.
    """

    def finite(text: str):
        if not math.isfinite(float(text)):
            cut = f"{text:.20}..." if len(text) > 20 else text
            raise ConfigError(f"{path}: invalid JSON: non-finite number {cut}")
        return int(text) if text.lstrip("-").isdigit() else float(text)

    return dict.fromkeys(["parse_float", "parse_int", "parse_constant"], finite)


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f, **_finite_numbers(path))
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc


@functools.lru_cache(maxsize=None)
def _qp(x: float):
    return qubit_pair(solve_pendular(x))


def _geometry(cfg) -> tuple[ArrayGeometry, bool]:
    """The geometry block over its task's default, and nearest_neighbors_only."""
    kind, n = TASKS[cfg["task"]].geometry
    g = cfg.get("geometry", {})
    kind = g.get("kind", kind)
    if kind == "custom" and "positions" not in g:
        raise ConfigError("geometry: custom geometry requires positions")
    field = g.get("field_direction", (0, 0, 1))
    # the schema caps n, rows, cols and positions, so every array is small
    try:
        if kind == "linear":
            geom = linear_array(g.get("n", n), field)
        elif kind == "square":
            geom = square_array(g.get("rows", 3), g.get("cols", 3), field)
        else:
            geom = custom_array(g["positions"], field)
    except ValueError as exc:
        raise ConfigError(f"geometry: {exc}") from exc
    if geom.n_sites > MAX_QUBITS:
        cap = f"the {MAX_QUBITS}-molecule cap"
        raise ConfigError(f"geometry: {geom.n_sites} sites exceed {cap}")
    return geom, g.get("nearest_neighbors_only", False)


def _pairs(params: dict, n: int) -> list[tuple[int, int]] | None:
    """parameters.pairs as tuples, None without it; each must be two of n sites."""
    if "pairs" not in params:
        return None
    bad = [p for p in params["pairs"] if p[0] == p[1] or max(p) >= n]
    if bad:
        raise ConfigError(f"parameters/pairs: not two distinct sites of {n}: {bad}")
    return [tuple(p) for p in params["pairs"]]


def _needs_all_levels(task: str, n: int, where: str) -> None:
    """Reject an array whose full spectrum is too big to solve densely."""
    if n > DENSE_LIMIT:
        levels = f"all 2^n levels, computed only up to n={DENSE_LIMIT}"
        raise ConfigError(f"{where}: task {task!r} needs {levels}; got n={n}")


def _solve(x: float, geom: ArrayGeometry, omega: float, k, nn_only: bool = False):
    """The lowest k eigenpairs (or "all") of the array at field x, coupling omega."""
    qp = _qp(x)
    coups = pair_couplings(geom, omega, nn_only)
    h = build_hamiltonian(qp, coups, geom.n_sites)
    return spectrum(h, k)


def _ground(x: float, geom: ArrayGeometry, omega: float, nn_only: bool = False):
    return _solve(x, geom, omega, 1, nn_only).eigenvectors[:, 0]


def _p(x: float, n: int, omega: float) -> float:
    """Ground-state excitation probability of an n-molecule chain."""
    return p_not_all_zero(_ground(x, linear_array(n), omega))


def _with_defaults(params: dict, **defaults) -> dict:
    """The parameters named in `defaults`, in order, from `params` or else default."""
    return {k: params.get(k, v) for k, v in defaults.items()}


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _join(values) -> str:
    return ";".join(_cell(v) for v in values)


def _geom_meta(geom: ArrayGeometry) -> dict:
    """Metadata of a resolved geometry: kind and size, field, custom sites."""
    meta = {
        "geometry": f"{geom.kind}[{geom.n_sites}]",
        "field_direction": _join(geom.field_direction),
    }
    if geom.kind == "custom":
        meta["positions"] = ";".join(",".join(map(_cell, p)) for p in geom.positions)
    return meta


def _resolve_phases(params: dict, seed: int) -> tuple[DiagonalUnitary, dict]:
    """Phase list from inline values, a file, or a seeded RNG."""
    meta: dict = {}
    if "phases" in params:
        d = DiagonalUnitary.from_phases(params["phases"])
        meta["phases"] = _join(params["phases"])
    elif "phases_file" in params:
        path = params["phases_file"]
        with open(path, encoding="utf-8") as f:
            text = f.read()
        try:
            raw = json.loads(text, **_finite_numbers(path))
        except json.JSONDecodeError:
            raw = []
            for token in text.split():
                try:
                    raw.append(float(token))
                except ValueError:
                    raise ConfigError(f"{path}: {token!r} is not a number") from None
        if bad := [f"{path}: {m}" for _, m in _schema_errors(raw, _PHASES)]:
            raise ConfigError("\n".join(bad))
        d = DiagonalUnitary.from_phases(raw)
        meta["phases_file"] = path
    else:
        n = params.get("random_qubits", 3)
        rng = np.random.default_rng(seed)
        d = DiagonalUnitary(
            n=n, phases=rng.uniform(-math.pi, math.pi, size=1 << n)
        )
        meta["random_qubits"] = n
        meta["seed"] = seed
    return d, meta


class TaskPlan(NamedTuple):
    """Metadata, CSV header, and the data rows, computed lazily in order.

    Planning only resolves the config: every solve happens as the rows are
    drawn, so a solver failure still leaves the metadata and header.
    `outputs` names the files the rows write besides the CSV.
    """

    metadata: dict
    header: list[str]
    rows: Iterable[list]
    outputs: tuple[str, ...] = ()


def _sweep_plan(cfg, default, defaults, meta, header, row) -> TaskPlan:
    """Rows [value, *row(point)] along the task's sweep axis.

    `default` is the task's (from, to, points, scale) for a config without
    a sweep block, None if it needs one.  Each point is the parameters named
    in `defaults` but the axis, which is never read, with the axis value set.
    """
    task, axes = cfg["task"], TASKS[cfg["task"]].axes
    sweep = cfg.get("sweep")
    if sweep is None:
        if default is None:
            raise ConfigError(f"sweep: task {task!r} requires a sweep block")
        keys = ("parameter", "from", "to", "points", "scale")
        sweep = dict(zip(keys, (axes[0], *default)))
    axis = sweep["parameter"]
    if axis not in axes:
        raise ConfigError(
            f"sweep/parameter: task {task!r} sweeps {axes[0]!r}, got {axis!r}"
        )
    if sweep["from"] > sweep["to"]:
        raise ConfigError("sweep: 'from' must be <= 'to'")
    if sweep.get("scale") == "log" and sweep["from"] <= 0:
        raise ConfigError("sweep/from: log scale needs a positive lower bound")
    top = {"x": MAX_X, "omega": MAX_OMEGA}.get(axis, math.inf)
    if sweep["to"] > top:
        raise ConfigError(
            f"sweep/to: {sweep['to']} is greater than the maximum of {top} on {axis}"
        )
    space = np.geomspace if sweep.get("scale", "linear") == "log" else np.linspace
    values = [float(v) for v in space(sweep["from"], sweep["to"], sweep["points"])]
    defaults = {k: v for k, v in defaults.items() if k != axis}
    fixed = _with_defaults(cfg.get("parameters", {}), **defaults)
    meta.update(fixed)
    meta["sweep"] = (
        f"{axis} {sweep['from']}..{sweep['to']} points={sweep['points']} "
        f"scale={sweep.get('scale', 'linear')}"
    )

    def row_at(value: float):
        return [value, *row({**fixed, axis: value})]

    return TaskPlan(meta, [axis, *header], map(row_at, values))


def _plan_p_vs_omega(cfg, params, *_) -> TaskPlan:
    """fig3a: excitation probability vs coupling for several (n, x) curves."""
    grid = _with_defaults(params, n_values=[2, 4, 6, 8], x_values=[2.0, 3.0, 4.9])
    curves = [(float(x), n) for x in grid["x_values"] for n in grid["n_values"]]
    header = [f"p_n{n}_x{_cell(x)}" for x, n in curves]
    meta = {"geometry": "linear", **{k: _join(v) for k, v in grid.items()}}

    def row(point):
        return [_p(x, n, point["omega"]) for x, n in curves]

    return _sweep_plan(cfg, OMEGA_LOG, {}, meta, header, row)


def _plan_p_vs_n(cfg, params, *_) -> TaskPlan:
    """fig3b: excitation probability vs molecule count at fixed coupling."""
    omega = params.get("omega", 1e-5)
    grid = _with_defaults(
        params, n_values=list(range(2, 10)), x_values=[2.0, 3.0, 4.9, 8.0]
    )
    x_values = [float(x) for x in grid["x_values"]]
    header = ["n"] + [f"p_x{_cell(x)}" for x in x_values]
    meta = {"geometry": "linear", "omega": omega}
    meta.update((k, _join(v)) for k, v in grid.items())

    def row(n: int):
        return [n] + [_p(x, n, omega) for x in x_values]

    return TaskPlan(meta, header, map(row, grid["n_values"]))


def _plan_gap_vs_omega(cfg, params, *_) -> TaskPlan:
    """fig4a: ground-state energy gap vs coupling for several sizes."""
    n_values = params.get("n_values", list(range(2, 10)))
    header = [f"gap_n{n}" for n in n_values]
    meta = {"geometry": "linear", "n_values": _join(n_values)}

    def row(point):
        return [
            energy_gap(_solve(float(point["x"]), linear_array(n), point["omega"], 2))
            for n in n_values
        ]

    return _sweep_plan(cfg, (0.0, 0.04, 9, "linear"), {"x": 2.0}, meta, header, row)


def _plan_thermal_vs_kt(cfg, params, *_) -> TaskPlan:
    """fig4b: thermal excitation probability vs temperature."""
    fixed = _with_defaults(params, x=2.0, n=8, omega=1e-4)
    _needs_all_levels("fig4b", fixed["n"], "parameters/n")
    x, geom = float(fixed["x"]), linear_array(fixed["n"])
    # one full spectrum, solved with the first row, serves every temperature
    spec = functools.cache(lambda: _solve(x, geom, fixed["omega"], "all"))

    def row(point):
        return [thermal_excitation(spec(), point["kt"])]

    default = (2e-3, 5e-2, 9, "log")
    meta = {"geometry": "linear"}
    return _sweep_plan(cfg, default, fixed, meta, ["p_thermal"], row)


def _plan_concurrences(cfg, params, *_) -> TaskPlan:
    """fig5a-6b: concurrences with site 0, or of given pairs, along omega or x."""
    geom, nn_only = _geometry(cfg)
    pairs = _pairs(params, geom.n_sites) or [(0, k) for k in range(1, geom.n_sites)]
    header = [f"c_{i}{j}" for i, j in pairs]
    meta = {
        **_geom_meta(geom),
        "pairs": _join(f"{i}-{j}" for i, j in pairs),
        "nearest_neighbors_only": nn_only,
    }

    def row(point):
        ground = _ground(float(point["x"]), geom, point["omega"], nn_only)
        cmap = pairwise_concurrence_map(ground, pairs)
        return [cmap.value(i, j) for i, j in pairs]

    along_x = TASKS[cfg["task"]].axes == ("x",)
    default = (0.5, 8.0, 16, "linear") if along_x else OMEGA_LOG
    return _sweep_plan(cfg, default, {"x": 2.0, "omega": 1e-3}, meta, header, row)


def _plan_sweep(cfg, params, *_) -> TaskPlan:
    """Generic one-axis sweep reporting excitation, gap, and thermal columns."""
    geom, nn_only = _geometry(cfg)
    _needs_all_levels("sweep", geom.n_sites, "geometry")
    meta = {**_geom_meta(geom), "nearest_neighbors_only": nn_only}

    def row(point):
        spec = _solve(float(point["x"]), geom, point["omega"], "all", nn_only)
        return [
            p_not_all_zero(spec.eigenvectors[:, 0]),
            energy_gap(spec),
            thermal_excitation(spec, point["kt"]),
        ]

    header = ["p_not", "gap", "p_thermal"]
    defaults = {"x": 2.0, "omega": 1e-3, "kt": 0.0}
    return _sweep_plan(cfg, None, defaults, meta, header, row)


def _plan_concurrence(cfg, params, *_) -> TaskPlan:
    """Single-shot pairwise concurrence map of the ground state."""
    point = _with_defaults(params, x=2.0, omega=1e-3)
    geom, nn_only = _geometry(cfg)
    header = ["i", "j", "omega_ij", "alpha_ij", "concurrence", "eof"]
    meta = {**_geom_meta(geom), **point, "nearest_neighbors_only": nn_only}
    pairs = _pairs(params, geom.n_sites)
    if pairs:
        meta["pairs"] = _join(f"{i}-{j}" for i, j in pairs)
    else:
        pairs = list(itertools.combinations(range(geom.n_sites), 2))

    def rows():
        coups = pair_couplings(geom, point["omega"], nn_only)
        h = build_hamiltonian(_qp(float(point["x"])), coups, geom.n_sites)
        cmap = pairwise_concurrence_map(spectrum(h, 1).eigenvectors[:, 0], pairs)
        # (omega, cos alpha) by pair; a pair left out by nearest_neighbors_only
        # reads (0, 0), that is alpha = acos(0) = pi/2
        table = np.zeros((2, geom.n_sites, geom.n_sites))
        table[:, coups.i, coups.j] = coups.omega, coups.cos_alpha
        for pair in pairs:
            c = cmap.value(*pair)
            omega_ij, cos_ij = table[:, min(pair), max(pair)]
            yield [*pair, omega_ij, math.acos(cos_ij), c, entanglement_of_formation(c)]

    return TaskPlan(meta, header, rows())


def _plan_thermal(cfg, params, *_) -> TaskPlan:
    """Single-shot thermal excitation probability."""
    point = _with_defaults(params, n=8, x=2.0, omega=1e-4, kt=2e-3)
    _needs_all_levels("thermal", point["n"], "parameters/n")

    def rows():
        geom = linear_array(point["n"])
        spec = _solve(float(point["x"]), geom, point["omega"], "all")
        yield [*point.values(), thermal_excitation(spec, point["kt"])]

    return TaskPlan({"geometry": "linear"}, [*point, "p_thermal"], rows())


def _plan_gap(cfg, params, *_) -> TaskPlan:
    """Single-shot energy gap against the single-molecule splitting."""
    point = _with_defaults(params, n=2, x=2.0, omega=1e-4)
    header = [*point, "gap", "dw", "rel_dev"]

    def rows():
        x = float(point["x"])
        dw = _qp(x).dw
        gap = energy_gap(_solve(x, linear_array(point["n"]), point["omega"], 2))
        yield [*point.values(), gap, dw, abs(gap - dw) / dw]

    return TaskPlan({"geometry": "linear"}, header, rows())


def _plan_compile_diagonal(cfg, params, seed: int, out_path: str) -> TaskPlan:
    """Compile a diagonal unitary and report gate counts and exact error."""
    eps = params.get("eps", 1e-3)
    d, meta = _resolve_phases(params, seed)
    circuit_out = params.get(
        "circuit_output", os.path.splitext(out_path)[0] + ".circuit"
    )
    if os.path.realpath(circuit_out) == os.path.realpath(out_path):
        raise ConfigError(
            f"parameters/circuit_output: {circuit_out!r} is also the CSV path"
        )
    meta.update({"eps": eps, "n": d.n, "circuit_output": circuit_out})
    header = [
        "n",
        "eps",
        "gates",
        "cnots",
        "rz_count",
        "max_error",
        "nearest_neighbor",
    ]

    def rows():
        circ = compile_diagonal(d, eps)
        with open(circuit_out, "w", encoding="utf-8") as f:
            f.write(circuit_to_text(circ))
        errs = []
        for b in range(1 << d.n):
            out = simulate(circ, StateVector.basis(d.n, b))
            errs.append(abs(out.amplitudes[b] - np.exp(1j * d.phases[b])))
        counts = [circ.gate_count(), circ.gate_count("CNOT"), circ.gate_count("RZ")]
        yield [d.n, eps, *counts, max(errs), circ.nearest_neighbor]

    return TaskPlan(meta, header, rows(), (circuit_out,))


def _plan_iqp(cfg, params, seed: int, *_) -> TaskPlan:
    """IQP |00...0> probability, analytically and through a compiled circuit."""
    eps = params.get("eps", 1e-10)
    d, meta = _resolve_phases(params, seed)
    meta.update({"eps": eps, "n": d.n})
    header = ["n", "p_analytic", "p_circuit", "abs_diff"]

    def rows():
        p_exact = iqp_probability(d)
        h_layer = Circuit(n=d.n, gates=tuple(Gate("H", (q,)) for q in range(d.n)))
        circ = h_layer.then(compile_diagonal(d, eps)).then(h_layer)
        amp = simulate(circ).amplitudes[0]
        p_sim = float(abs(amp) ** 2)
        yield [d.n, p_exact, p_sim, abs(p_exact - p_sim)]

    return TaskPlan(meta, header, rows())


def _cluster_edges(params: dict) -> tuple[list[tuple[int, int]], int, str]:
    if "edges" in params:
        edges = [tuple(e) for e in params["edges"]]
        n = params["n"] if "n" in params else 1 + max(map(max, edges), default=-1)
        return edges, n, "custom"
    if params.get("graph", "chain") == "chain":
        n = params.get("n", 3)
        geom, label = linear_array(n), f"chain[{n}]"
    else:
        rows, cols = params.get("rows", 3), params.get("cols", 3)
        geom, label = square_array(rows, cols), f"grid[{rows}x{cols}]"
    nearest = pair_couplings(geom, 1.0, nearest_neighbors_only=True)
    return list(zip(nearest.i.tolist(), nearest.j.tolist())), geom.n_sites, label


def _plan_cluster_check(cfg, params, *_) -> TaskPlan:
    """Prepare a cluster state and report every stabilizer expectation."""
    edges, n, label = _cluster_edges(params)
    cluster_circuit(edges, n)  # rejects self-loops, repeats, out of range, over the cap
    header = ["vertex", "stabilizer_expectation"]
    meta = {"graph": label, "n": n, "edges": _join(f"{a}-{b}" for a, b in edges)}

    def rows():
        _, checks = _checked_cluster_state(edges, n)
        yield from ([a, checks[a]] for a in range(n))

    return TaskPlan(meta, header, rows())


def _plan_fit_residuals(cfg, params, *_) -> TaskPlan:
    """Exact-vs-fit relative errors over a parameter grid."""
    which = params.get("which", "p")
    if which == "p":
        n_values = params.get("n_values", [4, 5, 6, 7, 8])
        x_values = params.get("x_values", [2.0, 3.0, 4.9])
        omega_values = params.get("omega_values", [1e-4, 1e-3])
        excluded = {"n_values": 1, "x_values": 0, "omega_values": 0}
        header = ["n", "x", "omega", "p_exact", "p_fit"]
        meta = {
            "which": which,
            "geometry": "linear",
            "n_values": _join(n_values),
            "x_values": _join(x_values),
            "omega_values": _join(omega_values),
        }
        grid = itertools.product(
            n_values, map(float, x_values), map(float, omega_values)
        )

        def exact_and_fit(n: int, x: float, omega: float):
            return _p(x, n, omega), p_fit(n, x, omega)

    else:
        x_values = params.get("x_values", [1.0, 2.0, 4.0])
        omega = params.get("omega", 1e-3)
        excluded = {"omega": 0}
        header = ["x", "omega", "c_exact", "c_fit"]
        meta = {"which": which, "geometry": "linear", "omega": omega, "n": 2}
        grid = [(float(x), omega) for x in x_values]

        def exact_and_fit(x: float, omega: float):
            ground = _ground(x, linear_array(2), omega)
            return concurrence(reduce(ground, 0, 1)), c_fit(x, omega)

    # rel_error divides by the exact value, which is 0 at omega = 0 and for
    # one molecule; p_fit is undefined at x = 0
    for key, bad in excluded.items():
        if bad in np.atleast_1d(params.get(key, [])):
            raise ConfigError(f"parameters/{key}: fit-residuals cannot take {bad}")

    def row(point):
        exact, fit = exact_and_fit(*point)
        return [*point, exact, fit, abs(fit - exact) / abs(exact)]

    return TaskPlan(meta, header + ["rel_error"], map(row, grid))


def _plan_nmr_cnot(cfg, params, *_) -> TaskPlan:
    """Pulse-sequence CNOT deviation report."""
    args = _with_defaults(params, dw_shift=1.0, angular_frequency=True, wait_scale=1.0)
    header = [
        *args,
        "wait_time",
        "deviation",
        "phase_global",
        "phase_control_z",
        "phase_target_z",
    ]

    def rows():
        rep = nmr_cnot_sequence(**args)
        yield [*args.values(), rep.wait_time, rep.deviation, *rep.phases]

    return TaskPlan({}, header, rows())


class Task(NamedTuple):
    """A `polarq run` task: its planner and the config blocks it reads."""

    plan: Callable[[dict, dict, int, str], TaskPlan]
    # the axes its sweep block may sweep; empty when it takes no sweep block
    axes: tuple[str, ...] = ()
    # default (kind, n) of its geometry block, None when it takes none
    geometry: tuple[str, int] | None = None


TASKS = {
    "fig3a": Task(_plan_p_vs_omega, ("omega",)),
    "fig3b": Task(_plan_p_vs_n),
    "fig4a": Task(_plan_gap_vs_omega, ("omega",)),
    "fig4b": Task(_plan_thermal_vs_kt, ("kt",)),
    "fig5a": Task(_plan_concurrences, ("omega",), ("linear", 9)),
    "fig5b": Task(_plan_concurrences, ("x",), ("linear", 9)),
    "fig6a": Task(_plan_concurrences, ("omega",), ("square", 9)),
    "fig6b": Task(_plan_concurrences, ("x",), ("square", 9)),
    "sweep": Task(_plan_sweep, ("omega", "x", "kt"), ("linear", 2)),
    "concurrence": Task(_plan_concurrence, (), ("linear", 2)),
    "thermal": Task(_plan_thermal),
    "gap": Task(_plan_gap),
    "compile-diagonal": Task(_plan_compile_diagonal),
    "iqp": Task(_plan_iqp),
    "cluster-check": Task(_plan_cluster_check),
    "fit-residuals": Task(_plan_fit_residuals),
    "nmr-cnot": Task(_plan_nmr_cnot),
}


def _array(items: dict, size: int | None = None, min_items: int = 1) -> dict:
    """Schema of an array of exactly `size` items, or of at least `min_items`."""
    if size is not None:
        return {"type": "array", "items": items, "minItems": size, "maxItems": size}
    return {"type": "array", "minItems": min_items, "items": items}


_NUMBER = {"type": "number"}
_X = {"type": "number", "minimum": 0, "maximum": MAX_X}  # each x the planners read
_OMEGA = {"type": "number", "minimum": 0, "maximum": MAX_OMEGA}  # and each omega
_COUNT = {"type": "integer", "minimum": 1, "maximum": MAX_QUBITS}
_PAIR = _array({"type": "integer", "minimum": 0}, 2)
_PHASES = _array(_NUMBER, min_items=2)  # inline phases and a phases_file's list

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "polarq run configuration",
    "type": "object",
    "required": ["task"],
    "additionalProperties": False,
    "properties": {
        "task": {"enum": list(TASKS)},
        "geometry": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["linear", "square", "custom"]},
                "n": _COUNT,
                "rows": _COUNT,
                "cols": _COUNT,
                "positions": {**_array(_array(_NUMBER, 3)), "maxItems": MAX_QUBITS},
                "field_direction": _array(_NUMBER, 3),
                "nearest_neighbors_only": {"type": "boolean"},
            },
        },
        "sweep": {
            "type": "object",
            "required": ["parameter", "from", "to", "points"],
            "additionalProperties": False,
            "properties": {
                "parameter": {"enum": ["omega", "x", "kt"]},
                "from": {"type": "number", "minimum": 0},
                "to": _NUMBER,
                "points": {"type": "integer", "minimum": 1, "maximum": 1_000_000},
                "scale": {"enum": ["linear", "log"]},
            },
        },
        "parameters": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "x": _X,
                "omega": _OMEGA,
                "kt": {"type": "number", "minimum": 0},
                "n": _COUNT,
                "eps": {"type": "number", "exclusiveMinimum": 0},
                "rows": _COUNT,
                "cols": _COUNT,
                "n_values": _array(_COUNT),
                "x_values": _array(_X),
                "omega_values": _array(_OMEGA),
                "pairs": _array(_PAIR),
                "phases": _PHASES,
                "phases_file": {"type": "string"},
                "random_qubits": _COUNT,
                "edges": {"type": "array", "items": _PAIR},
                "graph": {"enum": ["chain", "grid"]},
                "dw_shift": {"type": "number", "exclusiveMinimum": 0},
                "angular_frequency": {"type": "boolean"},
                "wait_scale": {"type": "number", "minimum": 0},
                "which": {"enum": ["p", "concurrence"]},
                "circuit_output": {"type": "string"},
            },
        },
        "output": {"type": "string"},
    },
}

# JSON types by schema name; a bool is neither an integer nor a number, and
# an integer is an int, so 3.0 is no integer (Draft 2020-12 counts it as one)
_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "integer": int,
    "number": (int, float),
}


def _is_type(value, name: str) -> bool:
    return isinstance(value, _TYPES[name]) and (
        name == "boolean" or not isinstance(value, bool)
    )


def _schema_errors(value, schema: dict, path: tuple = ()):
    """Yield (path, message) for each way `value` breaks `schema`.

    Checks only the keywords CONFIG_SCHEMA uses, in schema order, worded as
    the reference validator that tests/test_cli.py checks it against words
    them; other keywords ("$schema", "title") are ignored.
    """
    for key, rule in schema.items():
        if key == "type" and not _is_type(value, rule):
            yield path, f"{value!r} is not of type {rule!r}"
        elif key == "enum" and value not in rule:  # every enum lists strings
            yield path, f"{value!r} is not one of {rule!r}"
        elif isinstance(value, dict):
            if key == "required":
                for name in rule:
                    if name not in value:
                        yield path, f"{name!r} is a required property"
            elif key == "properties":
                for name, sub in rule.items():
                    if name in value:
                        yield from _schema_errors(value[name], sub, (*path, name))
            elif key == "additionalProperties":  # every one is False
                known = schema.get("properties", {})
                extra = sorted((k for k in value if k not in known), key=str)
                if extra:
                    names = ", ".join(map(repr, extra))
                    verb = "was" if len(extra) == 1 else "were"
                    unexpected = f"({names} {verb} unexpected)"
                    yield path, f"Additional properties are not allowed {unexpected}"
        elif isinstance(value, list):
            if key == "items":
                for i, item in enumerate(value):
                    yield from _schema_errors(item, rule, (*path, i))
            elif key == "minItems" and len(value) < rule:
                short = "should be non-empty" if rule == 1 else "is too short"
                yield path, f"{value!r} {short}"
            elif key == "maxItems" and len(value) > rule:
                yield path, f"{value!r} is too long"
        elif _is_type(value, "number"):
            if key == "minimum" and value < rule:
                yield path, f"{value!r} is less than the minimum of {rule!r}"
            elif key == "maximum" and value > rule:
                yield path, f"{value!r} is greater than the maximum of {rule!r}"
            elif key == "exclusiveMinimum" and value <= rule:
                at_most = "is less than or equal to the minimum of"
                yield path, f"{value!r} {at_most} {rule!r}"


class _Reads(dict):
    """A config block that notes each key looked up; `unread` names the rest."""

    def __init__(self, block: dict):
        super().__init__(block)
        self.update((k, _Reads(v)) for k, v in block.items() if isinstance(v, dict))
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        return self[key] if key in self else default

    def unread(self, path: str = "") -> list[str]:
        out = []
        for key, value in self.items():
            if key not in self.read:
                out.append(path + key)
            elif isinstance(value, _Reads):
                out += value.unread(f"{path}{key}/")
        return out


def plan_config(cfg, seed: int = 0, out_path: str = "") -> TaskPlan:
    """Schema-check and plan a config; ConfigError lists every violation."""
    errors = [
        ("/".join(map(str, path)), message)
        for path, message in _schema_errors(cfg, CONFIG_SCHEMA)
    ]
    if errors:
        errors.sort(key=lambda e: e[0])  # stable: a path keeps its errors' order
        raise ConfigError("\n".join(f"{p or '(top level)'}: {m}" for p, m in errors))
    # planning solves nothing; it rejects what it cannot resolve and unread keys
    task = cfg["task"]
    view = _Reads(cfg)
    view.read.update(("task", "output"))
    try:
        plan = TASKS[task].plan(view, view.get("parameters", {}), seed, out_path)
    except (ConfigError, OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    unread = [f"{path}: task {task!r} does not read this key" for path in view.unread()]
    if unread:
        raise ConfigError("\n".join(unread))
    return plan


def _write_csv(f, task, metadata, header, rows, failure=None) -> None:
    f.write(f"# task={task}\n")
    f.write(f"# tool=polarq {__version__}\n")
    for key in sorted(metadata):
        f.write(f"# {key}={_cell(metadata[key])}\n")
    writer = csv.writer(f, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    if failure is not None:
        writer.writerow(["FAILED", failure])


def run(cfg: dict, out_path: str, seed: int) -> int:
    """Plan a config and write its CSV, none if rejected; returns the exit code."""
    try:
        plan = plan_config(cfg, seed, out_path)
    except ConfigError as exc:
        for violation in str(exc).splitlines():
            print(f"error: {violation}", file=sys.stderr)
        return EXIT_CONFIG
    # every output is opened before any solve, the CSV last, so an output
    # that cannot be written leaves no CSV behind
    try:
        for path in plan.outputs:
            open(path, "w", encoding="utf-8").close()
        f = open(out_path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    rows = []
    failure = None
    with f:
        try:
            for row in plan.rows:
                rows.append(row)
        except Exception as exc:  # noqa: BLE001 - every solver failure maps to exit 3
            failure = f"{type(exc).__name__}: {exc}"
        _write_csv(f, cfg["task"], plan.metadata, plan.header, rows, failure)
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        print(f"partial results in {out_path}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polarq",
        description="Pendular-qubit array computations driven by JSON configs.",
    )
    parser.add_argument("--version", action="version", version=f"polarq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a task config and write CSV")
    p_run.add_argument("config", help="path to JSON config")
    p_run.add_argument("--out", help="output CSV path (default: <task>.csv)")
    p_run.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for randomized utilities; physics results never use it",
    )
    p_val = sub.add_parser("validate", help="schema-check a config")
    p_val.add_argument("config", help="path to JSON config")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # planning rejects a config that is not an object before it uses the path
    named = cfg if isinstance(cfg, dict) else {}
    out_path = named.get("output") or f"{named.get('task')}.csv"
    if args.command == "run":
        return run(cfg, args.out or out_path, args.seed)
    try:
        plan_config(cfg, out_path=out_path)
    except ConfigError as exc:
        print(exc)
        return EXIT_CONFIG
    print("ok")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
