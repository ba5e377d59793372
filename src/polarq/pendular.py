"""Single polar molecule in a static electric field.

A rigid linear rotor with dipole moment mu and rotational constant B in a
field eps is governed (in units of B) by

    H = J^2 - x cos(theta),    x = mu * eps / B.

Only M = 0 states couple to the qubit pair used throughout this package, so
everything here works in the |J, M=0> free-rotor basis, where cos(theta) is
tridiagonal.  The two lowest field-dressed (pendular) states serve as the
qubit basis |0>, |1>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-10
J_MAX_LIMIT = 200
# The largest reduced field a config may ask for: x = 1e6 settles by j_max 176,
# while from about 1.8e6 on dw does not settle by J_MAX_LIMIT
MAX_X = 1e6


class ConvergenceError(RuntimeError):
    """Adaptive basis growth hit the truncation limit without converging."""


def cos_theta_matrix(j_max: int) -> np.ndarray:
    """Matrix of cos(theta) in the |J, M=0> basis, J = 0..j_max.

    The only nonzero elements are <J|cos(theta)|J+1> = (J+1) / sqrt((2J+1)(2J+3)).
    """
    if j_max < 1:
        raise ValueError(f"truncation j_max must be >= 1, got {j_max}")
    c = np.zeros((j_max + 1, j_max + 1))
    for j in range(j_max):
        v = (j + 1) / math.sqrt((2 * j + 1) * (2 * j + 3))
        c[j, j + 1] = v
        c[j + 1, j] = v
    return c


def build_pendular_hamiltonian(x: float, j_max: int) -> np.ndarray:
    """Dense (j_max+1) x (j_max+1) Hamiltonian J(J+1) - x*cos(theta), units of B."""
    if x < 0:
        raise ValueError(f"reduced field x must be >= 0, got {x}")
    diag = np.array([j * (j + 1) for j in range(j_max + 1)], dtype=float)
    return np.diag(diag) - x * cos_theta_matrix(j_max)


@dataclass(frozen=True)
class PendularSolution:
    """Eigenstates of one molecule at reduced field x.

    Attributes:
        x: reduced field mu*eps/B.
        j_max: converged basis truncation.
        energies: eigenvalues W_k/B, ascending.  Only the low-lying ones are
            converged with respect to j_max; the qubit pair uses the lowest two.
        coefficients: row k holds the expansion of eigenstate k over
            |J=0..j_max, M=0>, sign-fixed so the dominant component is positive.
    """

    x: float
    j_max: int
    energies: np.ndarray
    coefficients: np.ndarray


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Eigenvector columns with their largest-magnitude amplitude made positive."""
    dom = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return vectors * np.where(dom < 0, -1.0, 1.0)


def solve_pendular(x: float) -> PendularSolution:
    """Diagonalize the pendular Hamiltonian with adaptive truncation.

    j_max grows in steps of 2 until the qubit splitting dw = W1 - W0 changes
    by less than DEFAULT_TOL between consecutive truncations.

    Args:
        x: reduced field, >= 0.

    Raises:
        ConvergenceError: dw has not settled by j_max = 200.
    """
    prev_dw = None
    for j_max in range(4, J_MAX_LIMIT + 1, 2):
        w, v = np.linalg.eigh(build_pendular_hamiltonian(x, j_max))
        dw = w[1] - w[0]
        if prev_dw is not None and abs(dw - prev_dw) < DEFAULT_TOL:
            coeffs = _fix_phases(v).T.copy()
            return PendularSolution(x=x, j_max=j_max, energies=w, coefficients=coeffs)
        prev_dw = dw
    raise ConvergenceError(
        f"pendular splitting at x={x} not converged to {DEFAULT_TOL} "
        f"by j_max={J_MAX_LIMIT}"
    )


@dataclass(frozen=True)
class QubitPair:
    """Energies and cos(theta) matrix elements of the two lowest pendular states.

    All energies in units of B.  c0 = <0|cos|0>, c1 = <1|cos|1> are the
    effective dipole orientations; xme = <0|cos|1> is the transition element.
    At x = 0 these are (0, 0, 1/sqrt(3)).
    """

    x: float
    w0: float
    w1: float
    c0: float
    c1: float
    xme: float

    @property
    def dw(self) -> float:
        """Qubit transition energy W1 - W0 in units of B."""
        return self.w1 - self.w0


def qubit_pair(sol: PendularSolution) -> QubitPair:
    """Contract the two lowest eigenvectors with the cos(theta) matrix."""
    cos = cos_theta_matrix(sol.j_max)
    v0 = sol.coefficients[0]
    v1 = sol.coefficients[1]
    return QubitPair(
        x=sol.x,
        w0=float(sol.energies[0]),
        w1=float(sol.energies[1]),
        c0=float(v0 @ cos @ v0),
        c1=float(v1 @ cos @ v1),
        xme=float(v0 @ cos @ v1),
    )
