"""Walsh-series compilation of diagonal unitaries and its applications.

The coefficient transform is checked against the literal parity expansion
theta_b = sum_s a_s (-1)^{popcount(s & b)}, and compiled circuits against
dense matrices column by column.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from polarq.circuits import (
    Circuit,
    CircuitError,
    DiagonalUnitary,
    Gate,
    StateVector,
    circulant_walk_phases,
    compile_diagonal,
    iqp_probability,
    long_range_cnot,
    simulate,
    walsh_coefficients,
)
from polarq.circuits import core


def dense_unitary(circuit):
    cols = [
        simulate(circuit, StateVector.basis(circuit.n, b)).amplitudes
        for b in range(1 << circuit.n)
    ]
    return np.array(cols).T


def parity_expansion(coeffs):
    size = coeffs.size
    theta = np.zeros(size)
    for b in range(size):
        for s in range(size):
            theta[b] += coeffs[s] * (-1) ** bin(s & b).count("1")
    return theta


def phase_distance(u, v):
    """max |u - e^{i phi} v| minimized over the global phase."""
    tr = np.trace(v.conj().T @ u)
    phi = np.angle(tr) if abs(tr) > 1e-12 else 0.0
    return np.max(np.abs(u - np.exp(1j * phi) * v))


def test_walsh_coefficients_invert_parity_expansion():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        theta = rng.uniform(-np.pi, np.pi, size=1 << n)
        a = walsh_coefficients(DiagonalUnitary.from_phases(theta))
        assert np.allclose(parity_expansion(a), theta, atol=1e-12)


def loop_butterfly(phases):
    """The slice-by-slice FWHT that walsh_coefficients used to run."""
    a = phases.astype(float).copy()
    h = 1
    size = a.shape[0]
    while h < size:
        for i in range(0, size, 2 * h):
            x = a[i : i + h].copy()
            y = a[i + h : i + 2 * h].copy()
            a[i : i + h] = x + y
            a[i + h : i + 2 * h] = x - y
        h *= 2
    return a / size


def test_walsh_coefficients_equal_loop_butterfly_bit_for_bit():
    rng = np.random.default_rng(11)
    for n in range(1, 11):
        theta = rng.uniform(-np.pi, np.pi, size=1 << n)
        got = walsh_coefficients(DiagonalUnitary.from_phases(theta))
        assert np.array_equal(got, loop_butterfly(theta))


def test_from_phases_validation():
    with pytest.raises(ValueError):
        DiagonalUnitary.from_phases([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        DiagonalUnitary.from_phases([float("nan"), 0.0])
    with pytest.raises(ValueError, match="at least one qubit"):
        DiagonalUnitary.from_phases([0.5])
    with pytest.raises(ValueError, match=r"length \(0,\) is not a power of two"):
        DiagonalUnitary.from_phases([])


def test_compile_single_qubit_z():
    # diag(i, -i) is a single RZ(-pi) up to global phase
    d = DiagonalUnitary.from_phases([np.pi / 2, -np.pi / 2])
    c = compile_diagonal(d, 1e-12)
    assert phase_distance(dense_unitary(c), d.matrix()) < 1e-12


def test_compile_exact_reproduces_matrix():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4):
        d = DiagonalUnitary.from_phases(rng.uniform(-np.pi, np.pi, size=1 << n))
        c = compile_diagonal(d, 1e-10)
        # eps -> 0 keeps every term, including the global phase, so the
        # match is exact rather than up to phase
        assert np.max(np.abs(dense_unitary(c) - d.matrix())) < 1e-9
        assert c.nearest_neighbor


def test_compile_error_within_budget():
    rng = np.random.default_rng(13)
    for eps in (1e-1, 1e-2, 1e-3):
        for n in (2, 3, 5):
            d = DiagonalUnitary.from_phases(rng.uniform(-np.pi, np.pi, size=1 << n))
            c = compile_diagonal(d, eps)
            err = np.max(np.abs(dense_unitary(c) - d.matrix()))
            assert err <= eps


def test_compile_budget_controls_gate_count():
    rng = np.random.default_rng(17)
    d = DiagonalUnitary.from_phases(rng.uniform(-np.pi, np.pi, size=32))
    loose = compile_diagonal(d, 1e-1)
    tight = compile_diagonal(d, 1e-3)
    assert loose.gate_count() <= tight.gate_count()


def test_compiled_diagonals_compose():
    rng = np.random.default_rng(19)
    t1 = rng.uniform(-np.pi, np.pi, size=8)
    t2 = rng.uniform(-np.pi, np.pi, size=8)
    c1 = compile_diagonal(DiagonalUnitary.from_phases(t1), 1e-10)
    c2 = compile_diagonal(DiagonalUnitary.from_phases(t2), 1e-10)
    both = DiagonalUnitary.from_phases(t1 + t2).matrix()
    assert np.max(np.abs(dense_unitary(c1.then(c2)) - both)) < 1e-9


def test_compile_rejects_nonpositive_budget():
    d = DiagonalUnitary.from_phases([0.0, 1.0])
    with pytest.raises(ValueError):
        compile_diagonal(d, 0.0)
    with pytest.raises(ValueError):
        compile_diagonal(d, -1.0)


@pytest.mark.parametrize("eps", [1e-12, 1e-3, 0.5, 1e3])
def test_compiled_gates_pass_the_gate_check(eps):
    # compile_diagonal skips Circuit's per-gate check, so run it here
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        d = DiagonalUnitary.from_phases(rng.uniform(-np.pi, np.pi, 1 << n))
        circ = compile_diagonal(d, eps)
        assert circ.n == n
        for g in circ.gates:
            core._check_gate(g, n)


def test_phases_whose_walsh_sums_or_angles_overflow_are_rejected():
    for phases in ([1e308, 1e308], [9e307, -9e307], [1e308, -1e308], [0.0, np.inf]):
        with pytest.raises(ValueError, match=r"float_max / 2\^n"):
            DiagonalUnitary.from_phases(phases)
    # at the bound itself every Walsh sum and every angle stays finite
    for n in (1, 3):
        bound = np.finfo(float).max / 2**n
        for phases in (np.full(2**n, bound), bound * (-1.0) ** np.arange(2**n)):
            with np.errstate(over="raise"):
                circ = compile_diagonal(DiagonalUnitary.from_phases(phases), 1e-3)
            assert all(np.isfinite(g.theta) for g in circ.gates if g.theta is not None)


def unmemoised_walk(control, target):
    step = 1 if target > control else -1
    swaps = []
    for pos in range(control, target - step, step):
        swaps += [
            Gate("CNOT", (pos, pos + step)),
            Gate("CNOT", (pos + step, pos)),
            Gate("CNOT", (pos, pos + step)),
        ]
    return (*swaps, Gate("CNOT", (target - step, target)), *swaps[::-1])


def test_long_range_cnot_equals_a_fresh_walk_for_every_pair():
    n = 6
    for control in range(n):
        for target in range(n):
            if control != target:
                got = long_range_cnot(control, target, n).gates
                assert got == unmemoised_walk(control, target)


def test_long_range_cnot_adjacent_is_primitive():
    c = long_range_cnot(0, 1, 2)
    assert c.gate_count() == 1
    assert c.gates[0].name == "CNOT"


@pytest.mark.parametrize("control,target,n", [(0, 2, 3), (2, 0, 3), (0, 3, 5), (4, 1, 5), (0, 5, 6)])
def test_long_range_cnot_exact_and_bounded(control, target, n):
    c = long_range_cnot(control, target, n)
    m = abs(control - target) + 1
    assert c.gate_count("CNOT") == c.gate_count() <= 6 * (m - 1) + 1
    assert c.nearest_neighbor
    # compare against the direct long-range gate
    want = dense_unitary(Circuit(n=n, gates=(Gate("CNOT", (control, target)),)))
    assert np.max(np.abs(dense_unitary(c) - want)) <= 1e-12


def test_long_range_cnot_rejects_equal_indices():
    with pytest.raises(ValueError):
        long_range_cnot(1, 1, 3)


def test_iqp_probability_landmarks():
    assert iqp_probability(DiagonalUnitary.from_phases(np.zeros(8))) == pytest.approx(
        1.0
    )
    # equal split between 0 and pi phases interferes to zero
    assert iqp_probability(
        DiagonalUnitary.from_phases([0.0, np.pi, np.pi, 0.0])
    ) == pytest.approx(0.0, abs=1e-15)


def test_iqp_probability_is_permutation_invariant():
    rng = np.random.default_rng(23)
    theta = rng.uniform(-np.pi, np.pi, size=16)
    p1 = iqp_probability(DiagonalUnitary.from_phases(theta))
    p2 = iqp_probability(DiagonalUnitary.from_phases(rng.permutation(theta)))
    assert p1 == pytest.approx(p2, rel=1e-12)


def test_iqp_probability_matches_sandwich_simulation():
    rng = np.random.default_rng(29)
    from polarq.circuits import Gate

    for n in (2, 3, 5):
        theta = rng.uniform(-np.pi, np.pi, size=1 << n)
        d = DiagonalUnitary.from_phases(theta)
        hs = Circuit(n=n, gates=tuple(Gate("H", (q,)) for q in range(n)))
        circuit = hs.then(compile_diagonal(d, 1e-12)).then(hs)
        p = abs(simulate(circuit).amplitudes[0]) ** 2
        assert iqp_probability(d) == pytest.approx(p, abs=1e-10)


def test_circulant_walk_against_expm():
    # 4-cycle adjacency: circulant with first row [0, 1, 0, 1]
    lam = np.array([2.0, 0.0, -2.0, 0.0])
    t = 0.8
    d = circulant_walk_phases(lam, t)
    f = np.fft.fft(np.eye(4)) / 2.0
    adjacency = np.real(f.conj().T @ np.diag(lam) @ f)
    u_exact = expm(-1j * t * adjacency)
    u_walk = f.conj().T @ d.matrix() @ f
    assert np.max(np.abs(u_walk - u_exact)) < 1e-9


def test_circulant_walk_trivial_time():
    d = circulant_walk_phases([1.0, 2.0, 3.0, 4.0], 0.0)
    assert np.allclose(d.matrix(), np.eye(4))


def test_circulant_walk_validation():
    # a length that is not a power of two, one eigenvalue (n = 0) and a 2-D input
    for eigenvalues in ([1.0, 2.0, 3.0], [1.0], [[1.0, 2.0], [3.0, 4.0]]):
        with pytest.raises(ValueError):
            circulant_walk_phases(eigenvalues, 1.0)


def test_the_qubit_cap_is_checked_before_anything_is_sized():
    # 2^25 amplitudes or phases would take 256 MiB or more
    tracemalloc.start()
    try:
        with pytest.raises(CircuitError, match="n=25 exceeds the 24-qubit cap"):
            Circuit(n=25)
        with pytest.raises(ValueError, match="n=25 exceeds the 24-qubit cap"):
            DiagonalUnitary(n=25, phases=np.zeros(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
