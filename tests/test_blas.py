"""The BLAS thread policy: small operands run on one OpenBLAS thread.

Spies placed inside the solvers read the thread count of every OpenBLAS
loaded in the process while the solve runs.  Each test first sets those
counts to 2, so that the policy has something to lower, and the fixture
puts back what it found.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg  # loads scipy's OpenBLAS, so that both are steered

import polarq
from polarq import _blas, build_hamiltonian, linear_array, pair_couplings, spectrum
from polarq import manybody
from polarq.circuits import StateVector, cluster_stabilizer_check
from polarq.manybody import QubitHamiltonian, SolverError


@pytest.fixture
def counts():
    """Set every steerable OpenBLAS to 2 threads; a reader of their counts."""
    controls = _blas.loaded_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread controls in this numpy and scipy")
    before = [get() for get, _ in controls]
    for _, put in controls:
        put(2)
    yield lambda: [get() for get, _ in controls]
    for (_, put), n in zip(controls, before):
        put(n)


def chain(qp, n, omega=1e-3):
    return build_hamiltonian(qp(2.0), pair_couplings(linear_array(n), omega), n)


def spy(monkeypatch, owner, name, counts, seen, raises=None):
    """Wrap owner.name so that each call records counts() first."""
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        seen.append(counts())
        if raises is not None:
            raise raises
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize(
    "k, omega, solver",
    [
        (1, 1e-3, (np.linalg, "eigh")),  # Davidson's Rayleigh-Ritz step
        ("all", 1e-3, (np.linalg, "eigvalsh")),
        (2, 1e-3, (np.linalg, "eigvalsh")),
        (1, 1.0, (QubitHamiltonian, "apply")),  # uncertified: ARPACK
    ],
    ids=["davidson", "levels-all", "levels-2", "arpack"],
)
@pytest.mark.parametrize("n", [3, 9])
def test_small_solves_run_on_one_thread(qp, counts, monkeypatch, n, k, omega, solver):
    h = chain(qp, n, omega)
    seen = []
    spy(monkeypatch, *solver, counts, seen)
    spectrum(h, k)
    assert seen and all(c == [1] * len(c) for c in seen)
    assert counts() == [2] * len(seen[0])


def test_large_solves_keep_the_thread_count(qp, counts, monkeypatch):
    h = chain(qp, 10)
    seen = []
    spy(monkeypatch, np.linalg, "eigh", counts, seen)
    spectrum(h, 1)
    assert seen and all(c == [2] * len(c) for c in seen)


def test_solver_error_restores_the_thread_count(qp, counts, monkeypatch):
    h = chain(qp, 5)
    seen = []
    no = scipy.sparse.linalg.ArpackNoConvergence("no", np.zeros(0), np.zeros((32, 0)))
    monkeypatch.setattr(manybody, "_davidson_ground", lambda h: None)
    spy(monkeypatch, scipy.sparse.linalg, "eigsh", counts, seen, raises=no)
    with pytest.raises(SolverError):
        spectrum(h, 1)
    assert seen == [[1] * len(seen[0])]
    assert counts() == [2] * len(seen[0])


def test_without_thread_controls_solves_run_as_before(qp, counts, monkeypatch):
    h = chain(qp, 9)
    steered = spectrum(h, "all")
    monkeypatch.setattr(_blas, "thread_controls", lambda module, suffix: None)
    seen = []
    spy(monkeypatch, np.linalg, "eigvalsh", counts, seen)
    plain = spectrum(h, "all")
    assert seen == [[2] * len(seen[0])] * 2  # one eigvalsh per reflection block
    np.testing.assert_allclose(plain.eigenvalues, steered.eigenvalues, rtol=1e-13)
    ground = plain.eigenvectors[:, 0], steered.eigenvectors[:, 0]
    np.testing.assert_allclose(*ground, atol=1e-12)


def test_state_vector_reductions_run_on_one_thread(counts, monkeypatch):
    seen = []
    spy(monkeypatch, np.linalg, "norm", counts, seen)
    spy(monkeypatch, np, "vdot", counts, seen)
    state = StateVector(3, np.full(8, 8**-0.5))
    cluster_stabilizer_check(state, [])
    assert len(seen) == 4  # the norm and one vdot per vertex
    assert all(c == [1] * len(c) for c in seen)
    assert counts() == [2] * len(seen[0])


def test_first_solves_of_a_process_run_on_one_thread():
    # a dense level solve loads no scipy, and the first ARPACK solve of a
    # process loads scipy's OpenBLAS on import, before its block is entered;
    # the spy is a profile hook that reads the counts as each solver starts
    code = (
        "import sys\n"
        "from polarq import _blas, build_hamiltonian, linear_array,"
        " pair_couplings, qubit_pair, solve_pendular, spectrum\n"
        "assert 'scipy' not in sys.modules\n"
        "seen = []\n"
        "def hook(frame, event, arg):\n"
        "    name = frame.f_code.co_name\n"
        "    if event == 'call' and name in ('eigvalsh', 'eigsh'):\n"
        "        seen.append([get() for get, _ in _blas.loaded_controls()])\n"
        "before = [get() for get, _ in _blas.loaded_controls()]\n"
        "qp = qubit_pair(solve_pendular(2.0))\n"
        "for omega in (1e-3, 30.0):\n"
        "    h = build_hamiltonian(qp, pair_couplings(linear_array(6), omega), 6)\n"
        "    sys.setprofile(hook)\n"
        "    spectrum(h, 2 if omega < 1 else 1)  # levels, then uncertified: ARPACK\n"
        "    sys.setprofile(None)\n"
        "    print(seen, 'scipy' in sys.modules)\n"
        "    seen = []\n"
        "after = [get() for get, _ in _blas.loaded_controls()]\n"
        "print(before, after, sep='\\n')\n"
    )
    src = str(Path(polarq.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "2"}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=env,
    )
    levels, arpack, before, after = out.stdout.splitlines()
    before, after = ast.literal_eval(before), ast.literal_eval(after)
    if not before:
        pytest.skip("no OpenBLAS thread controls in this numpy")
    assert levels == "[[1], [1]] False"  # numpy's, in each reflection block
    assert arpack == "[[1, 1]] True"  # numpy's and scipy's
    assert after == before * 2
