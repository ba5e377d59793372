"""End-to-end acceptance suite.

One test per shipped claim, each printing a single PASS/FAIL line with the
measured margin before asserting at the stated tolerance.  Run with

    pytest tests/test_acceptance.py -v -s

to see every line; without -s the verdicts still appear in the -v listing
and failures carry the printed detail.
"""

import json

import numpy as np
import pytest
from scipy.linalg import expm

from polarq import (
    build_hamiltonian,
    c_fit,
    concurrence,
    energy_gap,
    entanglement_of_formation,
    f_of_x,
    linear_array,
    p_fit,
    p_not_all_zero,
    pair_couplings,
    pairwise_concurrence_map,
    perturbative_ground_state,
    spectrum,
    square_array,
    thermal_excitation,
)
from polarq import cli
from polarq.circuits import (
    CNOT_MATRIX,
    Circuit,
    DiagonalUnitary,
    Gate,
    StateVector,
    cluster_stabilizer_check,
    compile_diagonal,
    iqp_probability,
    long_range_cnot,
    nmr_cnot_sequence,
    prepare_cluster_state,
    simulate,
)


def report(num, name, ok, detail):
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def dense_unitary(circuit):
    cols = [
        simulate(circuit, StateVector.basis(circuit.n, b)).amplitudes
        for b in range(1 << circuit.n)
    ]
    return np.array(cols).T


def affine_fit(xs, ys):
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * np.asarray(xs) + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    return slope, 1.0 - ss_res / ss_tot


def test_01_excitation_grows_quadratically_with_coupling(chain_spectrum):
    omegas = np.geomspace(1e-5, 1e-3, 9)
    slopes = []
    for n in (4, 6, 8):
        p = [
            p_not_all_zero(chain_spectrum(n, 2.0, w).eigenvectors[:, 0])
            for w in omegas
        ]
        slopes.append(np.polyfit(np.log(omegas), np.log(p), 1)[0])
    worst = max(abs(s - 2.0) for s in slopes)
    report(
        1,
        "quadratic coupling law",
        worst <= 0.05,
        f"log-log slopes {[f'{s:.5f}' for s in slopes]}, max |slope-2| = {worst:.2e}",
    )


def test_02_excitation_grows_linearly_with_chain_length(chain_spectrum):
    ns = range(4, 10)
    p = [
        p_not_all_zero(chain_spectrum(n, 2.0, 1e-5).eigenvectors[:, 0]) for n in ns
    ]
    slope, r2 = affine_fit(list(ns), p)
    want = f_of_x(2.0) * (1e4 * 1e-5) ** 2  # per-site increment
    rel = abs(slope - want) / want
    report(
        2,
        "linear-in-length law",
        r2 >= 0.99 and rel <= 0.08,
        f"R^2 = {r2:.6f}, slope off fit by {100 * rel:.2f}% (<= 8%)",
    )


def test_03_kilomolecule_headline_probability():
    p = p_fit(1000, 2.0, 1e-4)
    rel = abs(p - 3.0e-7) / 3.0e-7
    report(3, "N=1000 excitation estimate", rel <= 0.05, f"P = {p:.4e}, {100 * rel:.2f}% from 3.0e-7")


def test_04_gap_stays_pinned_to_single_molecule_splitting(qp, chain_spectrum):
    dw = qp(2.0).dw
    rels = [
        abs(energy_gap(chain_spectrum(n, 2.0, 1e-4)) - dw) / dw for n in range(2, 10)
    ]
    omegas = np.geomspace(1e-3, 4e-2, 9)
    devs = [abs(energy_gap(chain_spectrum(4, 2.0, w)) - dw) for w in omegas]
    slope = np.polyfit(np.log(omegas), np.log(devs), 1)[0]
    ok = max(rels) <= 1e-3 and abs(slope - 1.0) <= 0.05
    report(
        4,
        "gap robustness",
        ok,
        f"max rel dev {max(rels):.2e} (<= 1e-3), deviation slope {slope:.4f}",
    )


def test_05_thermal_excitation_is_negligible_at_operating_point(chain_spectrum):
    spec = chain_spectrum(8, 2.0, 1e-4)
    assert spec.dim == 256 and spec.complete
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = thermal_excitation(spec, 0.002)
    report(5, "thermal excitation bound", p < 1e-12, f"P = {p:.3e} (< 1e-12)")


def test_06_concurrence_tracks_fitted_curve(qp, chain_spectrum):
    checks = []
    for x in (1.0, 2.0, 4.0):
        ground = chain_spectrum(2, x, 1e-3).eigenvectors[:, 0]
        c = pairwise_concurrence_map(ground).value(0, 1)
        rel = abs(c_fit(x, 1e-3) - c) / c
        checks.append((x, rel))
    omegas = np.geomspace(1e-5, 1e-3, 9)
    ratios = [
        pairwise_concurrence_map(chain_spectrum(2, 2.0, w).eigenvectors[:, 0]).value(
            0, 1
        )
        / w
        for w in omegas
    ]
    spread = (max(ratios) - min(ratios)) / np.mean(ratios)
    fit_ok = all(rel <= 0.10 for _, rel in checks)
    detail = ", ".join(f"x={x:g}: {100 * rel:.2f}%" for x, rel in checks)
    report(
        6,
        "concurrence fit",
        fit_ok and spread <= 0.02,
        f"{detail} (<= 10%); C/omega spread {100 * spread:.3f}% (<= 2%)",
    )


def test_07_nearest_neighbors_dominate_entanglement(qp, chain_spectrum):
    ground = chain_spectrum(9, 2.0, 1e-3).eigenvectors[:, 0]
    cmap = pairwise_concurrence_map(ground, pairs=[(0, 1), (0, 2)])
    chain_ratio = cmap.value(0, 2) / cmap.value(0, 1)
    geom = square_array(3, 3)
    h = build_hamiltonian(qp(2.0), pair_couplings(geom, 1e-3), 9)
    ground_sq = spectrum(h, "all").eigenvectors[:, 0]
    sq = pairwise_concurrence_map(ground_sq, pairs=[(0, 1), (0, 4)])
    square_ratio = sq.value(0, 4) / sq.value(0, 1)
    ok = chain_ratio < 0.2 and 0.2 <= square_ratio <= 0.5
    report(
        7,
        "neighbor dominance",
        ok,
        f"chain C2/C1 = {chain_ratio:.4f} (< 0.2), square C_diag/C_nn = {square_ratio:.4f} (in [0.2, 0.5])",
    )


def test_08_entanglement_measures_hit_textbook_values():
    bell = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0
    product = np.zeros((4, 4))
    product[0, 0] = 1.0
    errs = [abs(concurrence(bell) - 1.0), abs(concurrence(product))]
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        rho = p * bell + (1 - p) * np.eye(4) / 4
        errs.append(abs(concurrence(rho) - max(0.0, (3 * p - 1) / 2)))
    grid = [entanglement_of_formation(c) for c in np.linspace(0.0, 1.0, 100)]
    monotone = all(b >= a for a, b in zip(grid, grid[1:]))
    endpoints = grid[0] == 0.0 and abs(grid[-1] - 1.0) < 1e-12
    ok = max(errs) <= 1e-10 and monotone and endpoints
    report(
        8,
        "entanglement measure oracle suite",
        ok,
        f"max concurrence error {max(errs):.2e} (<= 1e-10), xi monotone: {monotone}",
    )


def test_09_perturbation_theory_bounds_exact_results(qp, chain_spectrum):
    q = qp(2.0)
    bound_ok, overlap_details = True, []
    worst_margin = 0.0
    for n in range(2, 7):
        for omega in (1e-4, 3e-4, 1e-3):
            coups = pair_couplings(linear_array(n), omega)
            psi, bound = perturbative_ground_state(q, coups, n)
            exact = chain_spectrum(n, 2.0, omega).eigenvectors[:, 0]
            p = p_not_all_zero(exact)
            bound_ok &= p <= bound
            worst_margin = max(worst_margin, p / bound)
            # the quartic overlap tolerance sits below float noise at
            # omega = 1e-4, so the overlap clause is checked from 3e-4 up
            if omega >= 3e-4:
                err = 1.0 - abs(psi @ exact) ** 2
                overlap_details.append((n, omega, err, 10 * omega**4))
    overlap_ok = all(err <= tol for _, _, err, tol in overlap_details)
    worst = max(err / tol for _, _, err, tol in overlap_details)
    report(
        9,
        "perturbation consistency",
        bound_ok and overlap_ok,
        f"P/bound max {worst_margin:.3f} (<= 1), overlap err/tol max {worst:.3f} (<= 1)",
    )


def test_10_diagonal_compiler_meets_budget_and_locality():
    rng = np.random.default_rng(2026)
    specs = [(n, rng.uniform(-np.pi, np.pi, size=1 << n)) for n in range(2, 7) for _ in range(10)]
    worst_ratio, all_nn, exact_worst = 0.0, True, 0.0
    for n, theta in specs:
        d = DiagonalUnitary.from_phases(theta)
        target = d.matrix()
        for eps in (1e-1, 1e-2, 1e-3):
            circ = compile_diagonal(d, eps)
            all_nn &= circ.nearest_neighbor
            err = np.linalg.norm(dense_unitary(circ) - target, 2)
            worst_ratio = max(worst_ratio, err / eps)
        exact = compile_diagonal(d, 1e-10)
        all_nn &= exact.nearest_neighbor
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps /= np.linalg.norm(amps)
        got = simulate(exact, StateVector(n=n, amplitudes=amps)).amplitudes
        want = np.exp(1j * theta) * amps
        exact_worst = max(exact_worst, float(np.max(np.abs(got - want))))

    cnot_ok, count_ok = True, True
    for c in range(6):
        for t in range(6):
            if c == t:
                continue
            walk = long_range_cnot(c, t, 6)
            m = abs(c - t) + 1
            count_ok &= walk.gate_count() <= 6 * (m - 1) + 1
            direct = dense_unitary(Circuit(n=6, gates=(Gate("CNOT", (c, t)),)))
            cnot_ok &= float(np.max(np.abs(dense_unitary(walk) - direct))) <= 1e-12

    ok = worst_ratio <= 1.0 and all_nn and exact_worst <= 1e-9 and cnot_ok and count_ok
    report(
        10,
        "diagonal compiler",
        ok,
        f"50 diagonals: err/eps max {worst_ratio:.3f} (<= 1), nearest-neighbor: {all_nn}, "
        f"exact-mode max {exact_worst:.2e} (<= 1e-9), long-range CNOT exact and within count bound: {cnot_ok and count_ok}",
    )


def test_11_iqp_and_walk_probabilities_match_oracles():
    rng = np.random.default_rng(99)
    worst = 0.0
    for n in (2, 4, 6, 8):
        theta = rng.uniform(-np.pi, np.pi, size=1 << n)
        d = DiagonalUnitary.from_phases(theta)
        hs = Circuit(n=n, gates=tuple(Gate("H", (q,)) for q in range(n)))
        circ = hs.then(compile_diagonal(d, 1e-10)).then(hs)
        p_sim = abs(simulate(circ).amplitudes[0]) ** 2
        worst = max(worst, abs(iqp_probability(d) - p_sim))

    lam = np.array([2.0, 0.0, -2.0, 0.0])  # 4-cycle adjacency eigenvalues
    t = 1.3
    f = np.fft.fft(np.eye(4)) / 2.0
    adjacency = np.real(f.conj().T @ np.diag(lam) @ f)
    u = expm(-1j * t * adjacency)
    from polarq.circuits import circulant_walk_phases

    d = circulant_walk_phases(lam, t)
    p00_walk = float(np.abs(f.conj().T @ d.matrix() @ f)[0, 0] ** 2)
    p00_exact = float(abs(u[0, 0]) ** 2)
    walk_err = abs(p00_walk - p00_exact)
    ok = worst <= 1e-6 and walk_err <= 1e-9
    report(
        11,
        "interference probabilities",
        ok,
        f"IQP sim gap max {worst:.2e} (<= 1e-6), walk p00 error {walk_err:.2e} (<= 1e-9)",
    )


def test_12_cluster_states_pass_all_stabilizers():
    worst = 0.0
    cases = [[(i, i + 1) for i in range(n - 1)] for n in range(2, 10)]
    for rows, cols in ((2, 2), (2, 3), (2, 4), (3, 3)):
        edges = []
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                if c + 1 < cols:
                    edges.append((v, v + 1))
                if r + 1 < rows:
                    edges.append((v, v + cols))
        cases.append(edges)
    for edges in cases:
        n = 1 + max(max(e) for e in edges)
        state = prepare_cluster_state(edges, n)
        checks = cluster_stabilizer_check(state, edges)
        worst = max(worst, max(abs(v - 1.0) for v in checks))
    report(
        12,
        "cluster state stabilizers",
        worst <= 1e-10,
        f"chains 2-9 and grids to 3x3: max |<K_a> - 1| = {worst:.2e} (<= 1e-10)",
    )


def test_13_pulse_sequence_realizes_cnot_only_at_full_wait():
    ideal = nmr_cnot_sequence(0.01)
    detuned = nmr_cnot_sequence(0.01, wait_scale=0.5)
    ok = ideal.deviation <= 1e-10 and detuned.deviation > 0.1
    report(
        13,
        "pulse-sequence CNOT",
        ok,
        f"ideal deviation {ideal.deviation:.2e} (<= 1e-10), half wait {detuned.deviation:.3f} (> 0.1)",
    )


FIGURE_TASKS = ("fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b", "fig6a", "fig6b")


def test_14_every_figure_task_reruns_byte_identical(tmp_path):
    mismatched = []
    for task in FIGURE_TASKS:
        cfg = tmp_path / f"{task}.json"
        cfg.write_text(json.dumps({"task": task}))
        a = tmp_path / f"{task}_a.csv"
        b = tmp_path / f"{task}_b.csv"
        assert cli.main(["run", str(cfg), "--out", str(a)]) == 0
        assert cli.main(["run", str(cfg), "--out", str(b)]) == 0
        if a.read_bytes() != b.read_bytes():
            mismatched.append(task)
    report(
        14,
        "reproducible figure outputs",
        not mismatched,
        f"8 tasks byte-identical across reruns"
        + (f"; mismatches: {mismatched}" if mismatched else ""),
    )
