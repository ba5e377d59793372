"""Single-molecule pendular spectra.

Oracle strategy: energies at fixed truncation are cross-checked against an
independent tridiagonal eigensolver (different LAPACK path than the dense
one used by the implementation), and the x = 2 working point is frozen to
values computed once from that oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from polarq import (
    ConvergenceError,
    build_pendular_hamiltonian,
    cos_theta_matrix,
    qubit_pair,
    solve_pendular,
)
from polarq import pendular as pendular_mod

# frozen oracle values at the x=2 working point (j_max converges at 8)
X2 = {
    "w0": -0.5572853506319687,
    "w1": 2.287180087119902,
    "dw": 2.8444654377518708,
    "c0": 0.48119315819420605,
    "c1": -0.20809488220610523,
    "xme": 0.4271354050313836,
}

# 8-digit frozen spot values at other fields used throughout the suite
SPOT = {
    1.0: {"dw": 2.24842413, "c0": 0.29934885, "c1": -0.16508523, "xme": 0.52058553},
    3.0: {"dw": 3.57064338},
    4.9: {"dw": 4.93701064, "c0": 0.6760886, "c1": -0.00016326, "xme": -0.28647319},
    8.0: {"dw": 6.78386508, "c0": 0.74833242, "c1": 0.22283149, "xme": 0.23086949},
}


def tridiagonal_energies(x: float, j_max: int) -> np.ndarray:
    """Independent oracle: same operator through eigh_tridiagonal."""
    d = np.array([j * (j + 1.0) for j in range(j_max + 1)])
    e = np.array(
        [-x * (j + 1) / math.sqrt((2 * j + 1) * (2 * j + 3)) for j in range(j_max)]
    )
    return eigh_tridiagonal(d, e, eigvals_only=True)


def test_cos_matrix_elements():
    c = cos_theta_matrix(3)
    assert c[0, 1] == pytest.approx(1 / math.sqrt(3), abs=1e-15)
    assert c[1, 2] == pytest.approx(2 / math.sqrt(15), abs=1e-15)
    assert np.allclose(c, c.T)
    assert np.count_nonzero(c) == 6


def test_hamiltonian_matches_tridiagonal_oracle():
    for x in (0.5, 2.0, 7.0):
        w_dense = np.linalg.eigvalsh(build_pendular_hamiltonian(x, 16))
        w_oracle = tridiagonal_energies(x, 16)
        assert np.max(np.abs(w_dense - w_oracle)) < 1e-11


def test_zero_field_is_free_rotor():
    qp = qubit_pair(solve_pendular(0.0))
    assert qp.w0 == pytest.approx(0.0, abs=1e-12)
    assert qp.w1 == pytest.approx(2.0, abs=1e-12)
    assert qp.c0 == pytest.approx(0.0, abs=1e-12)
    assert qp.c1 == pytest.approx(0.0, abs=1e-12)
    assert qp.xme == pytest.approx(1 / math.sqrt(3), abs=1e-12)


def test_frozen_values_x2():
    sol = solve_pendular(2.0)
    qp = qubit_pair(sol)
    assert sol.j_max == 8
    assert qp.w0 == pytest.approx(X2["w0"], abs=1e-12)
    assert qp.w1 == pytest.approx(X2["w1"], abs=1e-12)
    assert qp.dw == pytest.approx(X2["dw"], abs=1e-12)
    assert qp.c0 == pytest.approx(X2["c0"], abs=1e-12)
    assert qp.c1 == pytest.approx(X2["c1"], abs=1e-12)
    assert qp.xme == pytest.approx(X2["xme"], abs=1e-12)
    # effective orientations at x=2: |0> is field-aligned, |1> less so
    assert qp.c0 > 0
    assert qp.c1 < qp.c0


@pytest.mark.parametrize("x", sorted(SPOT))
def test_frozen_spot_values(x):
    qp = qubit_pair(solve_pendular(x))
    for key, want in SPOT[x].items():
        assert getattr(qp, key) == pytest.approx(want, abs=1e-7), (x, key)


def test_convergence_postcondition():
    # re-diagonalizing at j_max and j_max - 2 must bracket dw within 1e-10
    for x in (1.0, 4.9, 12.0):
        sol = solve_pendular(x)
        w_here = tridiagonal_energies(x, sol.j_max)
        w_prev = tridiagonal_energies(x, sol.j_max - 2)
        assert abs((w_here[1] - w_here[0]) - (w_prev[1] - w_prev[0])) < 1e-10


def test_convergence_failure_at_low_cap(monkeypatch):
    monkeypatch.setattr(pendular_mod, "J_MAX_LIMIT", 6)
    with pytest.raises(ConvergenceError):
        solve_pendular(40.0)


def test_largest_accepted_field_converges():
    # configs may ask for x up to MAX_X; beyond it (here 2e6) dw does not settle
    assert solve_pendular(pendular_mod.MAX_X).j_max <= pendular_mod.J_MAX_LIMIT
    with pytest.raises(ConvergenceError):
        solve_pendular(2 * pendular_mod.MAX_X)


def test_sign_convention_dominant_component_positive():
    for x in (0.5, 2.0, 4.9, 8.0):
        sol = solve_pendular(x)
        for k in (0, 1):
            row = sol.coefficients[k]
            assert row[np.argmax(np.abs(row))] > 0


def test_hellmann_feynman_slope():
    # dW0/dx = -<0|cos(theta)|0>, checked by central differences
    for x in (0.8, 2.0, 5.0):
        h = 1e-5
        qp = qubit_pair(solve_pendular(x))
        w_plus = qubit_pair(solve_pendular(x + h)).w0
        w_minus = qubit_pair(solve_pendular(x - h)).w0
        assert (w_plus - w_minus) / (2 * h) == pytest.approx(-qp.c0, abs=1e-7)


def test_input_validation():
    with pytest.raises(ValueError):
        solve_pendular(-0.1)
    with pytest.raises(ValueError):
        build_pendular_hamiltonian(1.0, 0)
    with pytest.raises(ValueError):
        cos_theta_matrix(0)


@settings(deadline=None, max_examples=25)
@given(st.floats(min_value=0.0, max_value=20.0))
def test_solution_wellformed(x):
    sol = solve_pendular(x)
    qp = qubit_pair(sol)
    assert np.all(np.diff(sol.energies) >= -1e-12)
    # rows orthonormal
    gram = sol.coefficients @ sol.coefficients.T
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10
    # the splitting grows monotonically from its free-rotor value of 2
    assert qp.dw >= 2.0 - 1e-9
    assert qp.w0 <= 1e-9
