"""Three-step pulse sequence versus an ideal CNOT."""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import polarq
from polarq.circuits import CNOT_MATRIX, nmr_cnot_sequence
from polarq.circuits.nmr import _framed_deviation, _phase_frame, _ry


def test_ry_matches_exponential():
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    for beta in (-2.0, -math.pi / 2, 0.7, math.pi):
        assert np.allclose(_ry(beta), expm(-0.5j * beta * sy), atol=1e-12)


def test_ideal_wait_realizes_cnot():
    rep = nmr_cnot_sequence(0.01)
    assert rep.deviation <= 1e-10
    assert rep.wait_time == pytest.approx(math.pi / 0.01)
    assert rep.wait_scale == 1.0
    # and the framed unitary really reproduces CNOT entrywise
    framed = _phase_frame(rep.phases).conj().T @ rep.unitary
    assert np.max(np.abs(framed - CNOT_MATRIX)) <= 1e-9


def test_sequence_unitary_is_unitary():
    rep = nmr_cnot_sequence(0.5, wait_scale=0.7)
    assert np.allclose(rep.unitary @ rep.unitary.conj().T, np.eye(4), atol=1e-12)


def test_ideal_sequence_basis_actions():
    u = nmr_cnot_sequence(1.0).unitary
    amp01 = u @ np.array([0, 1, 0, 0], dtype=complex)
    assert abs(amp01[1]) == pytest.approx(1.0, abs=1e-10)
    amp10 = u @ np.array([0, 0, 1, 0], dtype=complex)
    assert abs(amp10[3]) == pytest.approx(1.0, abs=1e-10)
    amp11 = u @ np.array([0, 0, 0, 1], dtype=complex)
    assert abs(amp11[2]) == pytest.approx(1.0, abs=1e-10)


def test_ideal_conditional_phases_cancel():
    # U * CNOT^-1 must be diagonal with phi_00 + phi_11 = phi_01 + phi_10,
    # which is exactly the condition for a product of local z-phases
    v = nmr_cnot_sequence(2.0).unitary @ CNOT_MATRIX
    off = v - np.diag(np.diagonal(v))
    assert np.max(np.abs(off)) <= 1e-10
    phases = [cmath.phase(v[k, k]) for k in range(4)]
    lhs = (phases[0] + phases[3]) % (2 * math.pi)
    rhs = (phases[1] + phases[2]) % (2 * math.pi)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_halved_wait_is_far_from_cnot():
    rep = nmr_cnot_sequence(0.01, wait_scale=0.5)
    assert rep.deviation > 0.1
    assert rep.wait_time == pytest.approx(0.5 * math.pi / 0.01)


def test_cyclic_frequency_convention():
    rep = nmr_cnot_sequence(100.0, angular_frequency=False)
    assert rep.wait_time == pytest.approx(0.005)
    assert rep.deviation <= 1e-10


def test_deviation_independent_of_shift_magnitude():
    d1 = nmr_cnot_sequence(1e-4).deviation
    d2 = nmr_cnot_sequence(10.0).deviation
    assert d1 <= 1e-10 and d2 <= 1e-10


def test_input_validation():
    with pytest.raises(ValueError):
        nmr_cnot_sequence(0.0)
    with pytest.raises(ValueError):
        nmr_cnot_sequence(-1.0)
    with pytest.raises(ValueError):
        nmr_cnot_sequence(1.0, wait_scale=-0.1)


def test_closed_form_frame_is_never_worse_than_nelder_mead():
    from scipy.optimize import minimize

    for wait_scale in np.linspace(0.0, 2.0, 21):
        rep = nmr_cnot_sequence(1.0, wait_scale=float(wait_scale))
        assert rep.deviation == _framed_deviation(rep.unitary, rep.phases)
        floor = abs(math.cos(0.5 * math.pi * wait_scale))
        assert rep.deviation == pytest.approx(floor, abs=1e-12)
        best = min(
            minimize(
                lambda ang: _framed_deviation(rep.unitary, ang),
                seed,
                method="Nelder-Mead",
                options={"xatol": 1e-13, "fatol": 1e-14, "maxiter": 4000},
            ).fun
            for seed in (np.zeros(3), np.array([0.3, -0.5, 0.2]))
        )
        assert rep.deviation <= best + 1e-12


def test_cli_import_does_not_load_scipy_optimize():
    # nor scipy.linalg and scipy.sparse, which only some solver paths import
    src = str(Path(polarq.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    modules = ["scipy.optimize", "scipy.linalg", "scipy.sparse"]
    code = f"import sys, polarq.cli; print([m in sys.modules for m in {modules!r}])"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=env,
    )
    assert out.stdout.strip() == "[False, False, False]"
