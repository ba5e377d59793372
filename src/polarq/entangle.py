"""Two-molecule reduced states and pairwise entanglement measures.

The reduced density matrix of sites (i, j) is taken in the standard product
basis {|00>, |01>, |10>, |11>} with site i as the left factor, matching the
bit ordering of the many-body module.  Concurrence follows the spin-flip
construction, C = max(0, l1 - l2 - l3 - l4) with lambda_i the square roots
of the eigenvalues of rho * rho_tilde in decreasing order.  They are taken
as the singular values of tau = W^T (sigma_y x sigma_y) W with
rho = W W^dagger, which keeps C accurate near product states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SYSY = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)


class InvalidPairError(ValueError):
    """Pair indices coincide or fall outside the system."""


@dataclass(frozen=True, eq=False)
class ReducedDensity:
    """4x4 density matrix of a molecule pair in the {00, 01, 10, 11} basis."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"reduced density matrix must be 4x4, got {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("reduced density matrix is not Hermitian within 1e-12")
        if abs(np.trace(m).real - 1.0) > 1e-12 or abs(np.trace(m).imag) > 1e-12:
            raise ValueError(f"trace must be 1 within 1e-12, got {np.trace(m)}")
        if np.min(np.linalg.eigvalsh(m)) < -1e-10:
            raise ValueError("reduced density matrix has an eigenvalue < -1e-10")
        object.__setattr__(self, "matrix", m)


def _infer_qubits(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim < 4 or (1 << n) != dim:
        raise ValueError(f"state vector length {dim} is not 2^n with n >= 2")
    return n


def reduce(state: np.ndarray, i: int, j: int) -> ReducedDensity:
    """Partial trace onto sites (i, j), all other sites summed out.

    Takes a normalized pure-state vector of length 2^n.

    Raises:
        InvalidPairError: i = j or an index is out of range.
    """
    arr = np.asarray(state, dtype=complex)
    if arr.ndim != 1:
        raise ValueError(f"expected a state vector, got shape {arr.shape}")
    n = _infer_qubits(arr.shape[0])
    if abs(np.linalg.norm(arr) - 1.0) > 1e-9:
        raise ValueError("state vector is not normalized within 1e-9")
    if i == j:
        raise InvalidPairError(f"pair indices must differ, got ({i}, {j})")
    if not (0 <= i < n and 0 <= j < n):
        raise InvalidPairError(f"pair ({i}, {j}) out of range for {n} sites")
    t = np.moveaxis(arr.reshape([2] * n), (i, j), (0, 1)).reshape(4, -1)
    return ReducedDensity(matrix=t @ t.conj().T)


def _as_matrix(rho) -> np.ndarray:
    if isinstance(rho, ReducedDensity):
        return rho.matrix
    return ReducedDensity(matrix=np.asarray(rho, dtype=complex)).matrix


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit density matrix, in [0, 1]."""
    m = _as_matrix(rho)
    # lambda_i from tau rather than from rho * rho_tilde: near product states
    # square roots of ~1e-16 eigenvalues would add ~1e-8 each
    w, v = np.linalg.eigh(m)
    root = v * np.sqrt(np.clip(w, 0.0, None))
    lam = np.linalg.svd(root.T @ _SYSY @ root, compute_uv=False)
    return min(max(float(lam[0] - lam[1] - lam[2] - lam[3]), 0.0), 1.0)


def entanglement_of_formation(c: float) -> float:
    """xi(C) = h((1 + sqrt(1 - C^2)) / 2) with h the binary entropy.

    Monotone from xi(0) = 0 to xi(1) = 1.

    Raises:
        ValueError: c outside [0, 1] by more than 1e-12.
    """
    if not -1e-12 <= c <= 1.0 + 1e-12:
        raise ValueError(f"concurrence must lie in [0, 1], got {c}")
    c = min(max(c, 0.0), 1.0)
    arg = (1.0 + math.sqrt(1.0 - c * c)) / 2.0
    if arg <= 0.0 or arg >= 1.0:
        return 0.0
    return float(-arg * math.log2(arg) - (1.0 - arg) * math.log2(1.0 - arg))


@dataclass(frozen=True, eq=False)
class ConcurrenceMap:
    """Concurrence per unordered pair, keyed (i, j) with i < j."""

    entries: dict[tuple[int, int], float]
    n_sites: int

    def value(self, i: int, j: int) -> float:
        return self.entries[(min(i, j), max(i, j))]


def pairwise_concurrence_map(
    state: np.ndarray,
    pairs: list[tuple[int, int]] | None = None,
) -> ConcurrenceMap:
    """Concurrence of every pair of the state (or a requested subset)."""
    arr = np.asarray(state, dtype=complex)
    n = _infer_qubits(arr.shape[0])
    if pairs is None:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    entries = {
        (min(i, j), max(i, j)): concurrence(reduce(arr, min(i, j), max(i, j)))
        for i, j in pairs
    }
    return ConcurrenceMap(entries=entries, n_sites=n)
