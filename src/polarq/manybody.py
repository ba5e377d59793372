"""Qubit-basis many-body Hamiltonian for an array of pendular-state molecules.

Each molecule is truncated to its two lowest pendular states, so N molecules
span a 2^N product basis.  Basis index b stores molecule i's state in bit
(n-1-i): molecule 0 is the most significant bit and |00...0> is index 0.
The Hamiltonian, in units of B, is

    H = sum_i diag(w0, w1)_i
      + sum_{i<j} omega_ij (1 - 3 cos^2 alpha_ij) (M_i x M_j),

with M = [[c0, xme], [xme, c1]] the cos(theta) matrix in the qubit pair.
Up to 14 qubits the Hamiltonian is a dense matrix; above that it is applied
matrix-free, up to the 24-qubit capacity cap.  The ground state, which
serves the excitation probability and concurrences, comes from a certified
Davidson iteration on the dense matrix, and from ARPACK's Lanczos iteration
where the certificate fails and matrix-free.  The full spectrum is a dense
`eigh`, and the lowest k >= 2 pairs a partial dense solve, up to 14 qubits;
above that only the lowest few pairs are available, from ARPACK, so thermal
populations, which need all 2^n levels, stop at 14 qubits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .lattice import PairCoupling, angular_factor
from .pendular import QubitPair, _fix_phases

DENSE_LIMIT = 14
CAPACITY_LIMIT = 24

# Thermal occupations below this are indistinguishable from underflow noise.
_PROBABILITY_FLOOR = 1e-300

# Davidson's dense ground-state iteration: basis vectors kept before it
# restarts onto the Ritz vector, and steps before it hands over to ARPACK.
_DAVIDSON_BASIS = 16
_DAVIDSON_STEPS = 50


class CapacityError(ValueError):
    """Requested molecule count exceeds the 2^24 state-space cap."""


class NormalizationError(ValueError):
    """State vector is not normalized to within 1e-9."""


class InsufficientSpectrumError(ValueError):
    """Operation needs the full spectrum but only part was computed."""


class PerturbationInvalidError(ValueError):
    """Unperturbed levels are degenerate (dw = 0), corrections diverge."""


class LabelingError(RuntimeError):
    """Two eigenstates claim the same maximal-overlap basis label."""


class SolverError(RuntimeError):
    """Iterative eigensolver failed to converge."""


class UnderflowWarning(RuntimeWarning):
    """A probability underflowed to zero and is reported as 0."""


def _coupling_strengths(
    couplings: list[PairCoupling] | tuple[PairCoupling, ...], n: int
) -> list[tuple[int, int, float]]:
    out = []
    for c in couplings:
        if not (0 <= c.i < c.j < n):
            raise IndexError(
                f"coupling ({c.i}, {c.j}) out of range for n={n} molecules"
            )
        out.append((c.i, c.j, c.omega * angular_factor(c.alpha)))
    return out


@dataclass(frozen=True, eq=False)
class QubitHamiltonian:
    """Hamiltonian of n coupled molecules in the 2^n qubit basis, units of B.

    matrix is the dense array for n <= 14 and None above that; the spectral
    routines then fall back to matrix-free application built from qp and
    couplings.
    """

    n: int
    dim: int
    qp: QubitPair
    couplings: tuple[PairCoupling, ...]
    matrix: np.ndarray | None

    def apply(self, v: np.ndarray) -> np.ndarray:
        """H @ v without materializing H."""
        if self.matrix is not None:
            return self.matrix @ v
        m = np.array([[self.qp.c0, self.qp.xme], [self.qp.xme, self.qp.c1]])
        ones = np.bitwise_count(np.arange(self.dim, dtype=np.uint64)).astype(float)
        out = (self.n * self.qp.w0 + (self.qp.w1 - self.qp.w0) * ones) * v
        for i, j, g in _coupling_strengths(self.couplings, self.n):
            t = v.reshape([2] * self.n)
            t = np.moveaxis(np.tensordot(m, t, axes=(1, i)), 0, i)
            t = np.moveaxis(np.tensordot(m, t, axes=(1, j)), 0, j)
            out = out + g * t.reshape(-1)
        return out


def build_hamiltonian(
    qp: QubitPair, couplings: list[PairCoupling], n: int
) -> QubitHamiltonian:
    """Assemble the 2^n qubit-basis Hamiltonian.

    Args:
        qp: single-molecule energies and cos(theta) matrix elements.
        couplings: pairwise Omega_ij/B entries with field angles.
        n: molecule count, 1 <= n <= 24.

    Raises:
        CapacityError: n > 24.
        IndexError: a coupling references a site >= n.
    """
    if n < 1:
        raise ValueError(f"need at least one molecule, got n={n}")
    if n > CAPACITY_LIMIT:
        raise CapacityError(f"n={n} exceeds the {CAPACITY_LIMIT}-molecule cap")
    strengths = _coupling_strengths(couplings, n)
    dim = 1 << n
    if n > DENSE_LIMIT:
        return QubitHamiltonian(
            n=n, dim=dim, qp=qp, couplings=tuple(couplings), matrix=None
        )
    # M_i x M_j = diagonal part + xme-weighted flips of bit i, of bit j and of
    # both.  The diagonal and single-flip parts are summed per site, so each
    # pair costs one scatter (its double flip) and each site one more.
    cols = np.arange(dim)
    m_diag = np.array([qp.c0, qp.c1])
    site_diag = [m_diag[(cols >> (n - 1 - i)) & 1] for i in range(n)]
    ones = np.bitwise_count(cols.astype(np.uint64)).astype(float)
    diag = n * qp.w0 + (qp.w1 - qp.w0) * ones
    single = np.zeros((n, dim))
    h = np.zeros((dim, dim))
    for i, j, g in strengths:
        diag += g * site_diag[i] * site_diag[j]
        single[i] += g * qp.xme * site_diag[j]
        single[j] += g * qp.xme * site_diag[i]
        h[cols ^ ((1 << (n - 1 - i)) | (1 << (n - 1 - j))), cols] += g * qp.xme**2
    for i in range(n):
        h[cols ^ (1 << (n - 1 - i)), cols] += single[i]
    h[cols, cols] = diag
    return QubitHamiltonian(n=n, dim=dim, qp=qp, couplings=tuple(couplings), matrix=h)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ascending eigenvalues and orthonormal eigenvector columns.

    dim records the full state-space size so consumers can tell a partial
    spectrum from a complete one.  Eigenvector phases are fixed by making the
    largest-magnitude amplitude positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    dim: int

    @property
    def complete(self) -> bool:
        return len(self.eigenvalues) == self.dim


def _davidson_ground(h: QubitHamiltonian) -> Spectrum | None:
    """The ground pair of a dense h by Davidson's iteration, or None.

    It runs only when the diagonal certifies its answer.  s bounds every
    row's off-diagonal sum, so by Weyl each level lies within s of the
    sorted diagonal, and d1 + s < d2 - s puts the ground level alone below
    the next one.  The iteration starts from the basis vector of d1, so its
    lowest Ritz value never rises above d1 < lambda_2, and a converged pair
    is the ground state, never an excited one.  The correction is
    r / (theta - diag); two Gram-Schmidt passes keep the basis orthonormal.

    Returns None when the certificate fails, or when ||H u - theta u|| has
    not reached 2 eps max(|theta|, 1) within 50 steps or before a correction
    stops adding a direction to the basis.
    """
    eps = np.finfo(float).eps
    qp = h.qp
    # per pair: single flips of i and of j, each at most |g xme| max|c|, and
    # the double flip g xme^2; a bound taken from |h.matrix| would allocate
    # a matrix-sized temporary
    reach = abs(qp.xme) * (2 * max(abs(qp.c0), abs(qp.c1)) + abs(qp.xme))
    s = reach * sum(abs(g) for _, _, g in _coupling_strengths(h.couplings, h.n))
    diag = h.matrix.diagonal()
    d1, d2 = np.partition(diag, 1)[:2]
    if not d1 + s < d2 - s:  # written so that NaN fails it
        return None
    basis = np.zeros((_DAVIDSON_BASIS, h.dim))
    images = np.zeros((_DAVIDSON_BASIS, h.dim))  # rows of H @ basis
    start = int(np.argmin(diag))
    basis[0, start] = 1.0
    images[0] = h.matrix[start]
    m = 1
    for _ in range(_DAVIDSON_STEPS):
        w, y = np.linalg.eigh(basis[:m] @ images[:m].T)
        theta = w[0]
        u, hu = y[:, 0] @ basis[:m], y[:, 0] @ images[:m]
        r = hu - theta * u
        if np.linalg.norm(r) <= 2 * eps * max(abs(theta), 1.0):
            return Spectrum(
                eigenvalues=np.array([theta]),
                eigenvectors=_fix_phases(u[:, None]),
                dim=h.dim,
            )
        if m == _DAVIDSON_BASIS:
            basis[0], images[0], m = u, hu, 1
        t = r / np.minimum(theta - diag, -eps)
        t -= (basis[:m] @ t) @ basis[:m]
        first = np.linalg.norm(t)
        t -= (basis[:m] @ t) @ basis[:m]
        norm = np.linalg.norm(t)
        # a second pass that removes most of what the first one left means t
        # lay in the basis up to rounding (the basis spans the whole space, or
        # a symmetry sector that rounding cannot leave); what is left of t is
        # then not orthogonal to the basis, or exactly 0
        if not norm > first / 2:
            return None
        basis[m] = t / norm
        images[m] = h.matrix @ basis[m]
        m += 1
    return None


def spectrum(h: QubitHamiltonian, k: int | str = "all") -> Spectrum:
    """Lowest k eigenpairs of h, or all of them.

    k = 1, the ground state, is |00...0> up to small corrections wherever
    Omega << dw.  On the dense matrix, up to 14 qubits, it comes from
    Davidson's diagonal-preconditioned iteration started from the basis vector
    of the lowest diagonal entry: 2-4 matrix-vector products at n = 9 in the
    paper's regime, and exactly |00...0> at Omega = 0.  Davidson runs only
    where the diagonal certifies that it converges to the ground state and not
    to an excited one (see `_davidson_ground`).  Where the couplings are too
    strong for that (in some arrays from Omega/B = 0.3 on), or where it does
    not converge, ARPACK's Lanczos iteration solves the dense matrix instead,
    started from the uniform superposition.  Matrix-free, above 14 qubits,
    the ground state stays on ARPACK (51 applies at n = 16): Davidson would
    need about 5 there, but that path is what the benchmark's `chain_ground`
    workload counts, so it changes together with that benchmark.

    k = "all" is a full dense `eigh` and needs n <= 14.  An integer k >= 2 is
    a partial dense solve (LAPACK evr) up to 14 qubits and ARPACK above.
    When the Krylov space closes early (a short symmetric chain, or
    Omega = 0, which makes H diagonal), ARPACK continues from a random vector
    drawn from one generator per process.  The ground state already lies in
    the closed space, so k = 1 gives the same bytes whatever the process
    solved before.  The next pairs need the random part, which would make
    fig4a's Omega = 0 row differ between reruns, so dense k >= 2 stays on
    evr.

    Raises:
        ValueError: k is neither "all" nor an integer in [1, 2^n].
        InsufficientSpectrumError: k = "all" above 14 qubits.
        SolverError: the iterative solver did not converge.
    """
    if k != "all" and (isinstance(k, bool) or not isinstance(k, (int, np.integer))):
        raise ValueError(f'k must be "all" or an integer, got {k!r}')
    if h.matrix is not None and k == 1:
        ground = _davidson_ground(h)
        if ground is not None:
            return ground
    if h.matrix is not None and k != 1:
        if k == "all":
            w, v = np.linalg.eigh(h.matrix)
        elif 2 <= k <= h.dim:
            w, v = scipy.linalg.eigh(h.matrix, subset_by_index=[0, int(k) - 1])
        else:
            raise ValueError(f"k must be in [1, {h.dim}], got {k}")
        return Spectrum(eigenvalues=w, eigenvectors=_fix_phases(v), dim=h.dim)
    if k == "all":
        raise InsufficientSpectrumError(
            f"full spectrum unavailable for n={h.n} > {DENSE_LIMIT}; pass a small k"
        )
    op = h.matrix
    if op is None:
        op = LinearOperator(
            (h.dim, h.dim), matvec=h.apply, dtype=float  # type: ignore[arg-type]
        )
    v0 = np.full(h.dim, 1.0 / np.sqrt(h.dim))
    try:
        w, v = eigsh(op, k=int(k), which="SA", v0=v0)
    except ArpackNoConvergence as exc:
        residuals = [
            float(np.linalg.norm(op @ vec - val * vec))
            for val, vec in zip(exc.eigenvalues, exc.eigenvectors.T)
        ]
        raise SolverError(
            f"eigensolver converged only {len(exc.eigenvalues)}/{k} pairs; "
            f"residuals of the converged ones: {residuals}"
        ) from exc
    order = np.argsort(w)
    return Spectrum(
        eigenvalues=w[order], eigenvectors=_fix_phases(v[:, order]), dim=h.dim
    )


def p_not_all_zero(ground: np.ndarray) -> float:
    """Probability that the ground state is anywhere outside |00...0>.

    Raises:
        NormalizationError: input norm deviates from 1 by more than 1e-9.
    """
    v = np.asarray(ground)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-9:
        raise NormalizationError(f"state norm {norm} is not 1 within 1e-9")
    # summing the excited amplitudes keeps full relative precision where
    # 1 - |v0|^2 would cancel (p ~ 1e-15 at n = 6, x = 2, Omega/B = 1e-7)
    p = float(np.sum(np.abs(v[1:]) ** 2))
    return min(p, 1.0)


def energy_gap(spec: Spectrum) -> float:
    """E1 - E0 in units of B."""
    if len(spec.eigenvalues) < 2:
        raise ValueError("need at least two eigenvalues for a gap")
    return float(spec.eigenvalues[1] - spec.eigenvalues[0])


def thermal_excitation(spec: Spectrum, kt: float) -> float:
    """Boltzmann probability of not being in the ground state at kT/B = kt.

    The sums are taken after subtracting E0, so only excitation energies
    enter the exponentials.  kt = 0 returns exactly 0.  A positive result
    that underflows below 1e-300 is reported as 0 with an UnderflowWarning.

    Raises:
        InsufficientSpectrumError: spec does not contain all 2^n levels.
    """
    if kt < 0:
        raise ValueError(f"kt must be >= 0, got {kt}")
    if not spec.complete:
        raise InsufficientSpectrumError(
            f"thermal sum needs all {spec.dim} levels, got {len(spec.eigenvalues)}"
        )
    if kt == 0:
        return 0.0
    shifted = spec.eigenvalues - spec.eigenvalues[0]
    with np.errstate(under="ignore"):
        excited = float(np.exp(-shifted[1:] / kt).sum())
    p = excited / (1.0 + excited)
    if p < _PROBABILITY_FLOOR:
        warnings.warn(
            f"thermal excitation underflowed ({p!r}); reporting 0",
            UnderflowWarning,
            stacklevel=2,
        )
        return 0.0
    return p


def perturbative_ground_state(
    qp: QubitPair, couplings: list[PairCoupling], n: int
) -> tuple[np.ndarray, float]:
    """First-order ground state and the quadratic excitation-probability bound.

    The corrected state mixes |00...0> with the single- and double-excitation
    states each pair coupling reaches: amplitude -g c0 xme / dw on each
    single excitation and -g xme^2 / (2 dw) on each double excitation, then
    normalized.  The bound is n * omega_eff^2 * vbar^2 where omega_eff is the
    largest |coupling strength| and vbar the largest per-site accumulated
    matrix element, which caps p_not_all_zero of the exact ground state in
    the perturbative regime.

    Raises:
        PerturbationInvalidError: dw = 0.
    """
    if n < 1:
        raise ValueError(f"need at least one molecule, got n={n}")
    if n > CAPACITY_LIMIT:
        raise CapacityError(f"n={n} exceeds the {CAPACITY_LIMIT}-molecule cap")
    strengths = _coupling_strengths(couplings, n)
    dw = qp.dw
    if dw == 0:
        raise PerturbationInvalidError("qubit splitting dw is zero")
    psi = np.zeros(1 << n)
    psi[0] = 1.0
    omega_eff = max((abs(g) for _, _, g in strengths), default=0.0)
    site_sums = np.zeros(n)
    for i, j, g in strengths:
        amp_single = -g * qp.c0 * qp.xme / dw
        psi[1 << (n - 1 - i)] += amp_single
        psi[1 << (n - 1 - j)] += amp_single
        psi[(1 << (n - 1 - i)) | (1 << (n - 1 - j))] += -g * qp.xme**2 / (2 * dw)
        if omega_eff > 0:
            site_sums[i] += (g / omega_eff) * qp.c0 * qp.xme
            site_sums[j] += (g / omega_eff) * qp.c0 * qp.xme
    psi /= np.linalg.norm(psi)
    vbar = float(np.max(np.abs(site_sums))) if omega_eff > 0 else 0.0
    return psi, n * omega_eff**2 * vbar**2


def frequency_shift(qp: QubitPair, omega: float, alpha: float) -> float:
    """Conditional transition-frequency shift of a coupled molecule pair.

    Diagonalizes the two-molecule Hamiltonian, labels each eigenstate by the
    basis state it overlaps most, and returns
    |(E_11 - E_10) - (E_01 - E_00)| in units of B: how much molecule 1's
    transition moves when molecule 0 is flipped.

    Raises:
        LabelingError: two eigenstates map to the same basis label.
    """
    h = build_hamiltonian(qp, [PairCoupling(i=0, j=1, omega=omega, alpha=alpha)], 2)
    spec = spectrum(h, "all")
    labels = {}
    for col in range(4):
        lab = int(np.argmax(np.abs(spec.eigenvectors[:, col])))
        if lab in labels:
            raise LabelingError(
                f"eigenstates {labels[lab]} and {col} both look like basis "
                f"state {lab:02b}"
            )
        labels[lab] = col
    e = {lab: float(spec.eigenvalues[col]) for lab, col in labels.items()}
    return abs((e[0b11] - e[0b10]) - (e[0b01] - e[0b00]))
