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

from . import _blas

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


def _check_density(m: np.ndarray) -> None:
    """Reject a 4x4 complex matrix, or a stack of them, that is not a density matrix."""
    if np.max(np.abs(m - m.conj().swapaxes(-1, -2)), initial=0.0) > 1e-12:
        raise ValueError("reduced density matrix is not Hermitian within 1e-12")
    trace = np.trace(m, axis1=-2, axis2=-1).ravel()
    bad = np.flatnonzero((abs(trace.real - 1.0) > 1e-12) | (abs(trace.imag) > 1e-12))
    if bad.size:
        raise ValueError(f"trace must be 1 within 1e-12, got {trace[bad[0]]}")
    if np.min(np.linalg.eigvalsh(m), initial=0.0) < -1e-10:
        raise ValueError("reduced density matrix has an eigenvalue < -1e-10")


@dataclass(frozen=True, eq=False)
class ReducedDensity:
    """4x4 density matrix of a molecule pair in the {00, 01, 10, 11} basis."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"reduced density matrix must be 4x4, got {m.shape}")
        _check_density(m)
        object.__setattr__(self, "matrix", m)


def _infer_qubits(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim < 4 or (1 << n) != dim:
        raise ValueError(f"state vector length {dim} is not 2^n with n >= 2")
    return n


def _state(state: np.ndarray) -> tuple[np.ndarray, int]:
    """A normalized pure state as a float or complex vector, and its site count."""
    arr = np.asarray(state)
    arr = arr.astype(np.result_type(arr, 1.0), copy=False)  # a real state stays real
    if arr.ndim != 1:
        raise ValueError(f"expected a state vector, got shape {arr.shape}")
    n = _infer_qubits(arr.shape[0])
    if abs(np.linalg.norm(arr) - 1.0) > 1e-9:
        raise ValueError("state vector is not normalized within 1e-9")
    return arr, n


def _pair_densities(arr: np.ndarray, n: int, pairs) -> np.ndarray:
    """The 4x4 partial traces of an n-site state onto each pair (i, j).

    Each pair's sites are moved to the front of one 2^n buffer that every
    pair reuses.  A real state takes real products (conj() of a real array
    is the array itself), half the bytes of complex ones.  The callers check
    that the results are density matrices.

    Raises:
        InvalidPairError: i = j or an index is out of range.
    """
    t = np.empty((4, arr.size // 4), dtype=arr.dtype)
    rhos = np.empty((len(pairs), 4, 4), dtype=arr.dtype)
    for rho, (i, j) in zip(rhos, pairs):
        if i == j:
            raise InvalidPairError(f"pair indices must differ, got ({i}, {j})")
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidPairError(f"pair ({i}, {j}) out of range for {n} sites")
        np.copyto(t.reshape([2] * n), np.moveaxis(arr.reshape([2] * n), (i, j), (0, 1)))
        np.matmul(t, t.conj().T, out=rho)
    return rhos.astype(complex, copy=False)


def reduce(state: np.ndarray, i: int, j: int) -> ReducedDensity:
    """Partial trace onto sites (i, j), all other sites summed out.

    Takes a normalized pure-state vector of length 2^n.

    Raises:
        InvalidPairError: i = j or an index is out of range.
    """
    with _blas.single_thread(2 * np.size(state)):
        arr, n = _state(state)
        return ReducedDensity(matrix=_pair_densities(arr, n, [(i, j)])[0])


def _as_matrix(rho) -> np.ndarray:
    if isinstance(rho, ReducedDensity):
        return rho.matrix
    return ReducedDensity(matrix=np.asarray(rho, dtype=complex)).matrix


def _concurrences(m: np.ndarray) -> np.ndarray:
    """Concurrence of a checked 4x4 density matrix, or of each of a stack."""
    # lambda_i from tau rather than from rho * rho_tilde: near product states
    # square roots of ~1e-16 eigenvalues would add ~1e-8 each
    w, v = np.linalg.eigh(m)
    root = v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    lam = np.linalg.svd(root.swapaxes(-1, -2) @ _SYSY @ root, compute_uv=False)
    return np.clip(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3], 0.0, 1.0)


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit density matrix, in [0, 1]."""
    return float(_concurrences(_as_matrix(rho)))


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
    """Concurrence of every pair of the state (or a requested subset).

    Each distinct pair (i, j), taken with i < j, gets its 4x4 density matrix
    as `reduce` forms it, one pair at a time, so that one pair's 2^n copy is
    held at once.  The checks, `eigh` and SVD then run once over the stack
    of pairs, giving the bytes of concurrence(reduce(state, i, j)).

    Raises:
        InvalidPairError: a pair's indices coincide or fall out of range.
        ValueError: the state is not a normalized vector of length 2^n.
    """
    with _blas.single_thread(2 * np.size(state)):
        arr, n = _state(state)
        if pairs is None:
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keys = list(dict.fromkeys((min(i, j), max(i, j)) for i, j in pairs))
        rhos = _pair_densities(arr, n, keys)
    _check_density(rhos)
    values = _concurrences(rhos).tolist()
    return ConcurrenceMap(entries=dict(zip(keys, values)), n_sites=n)
