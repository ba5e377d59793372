"""Qubit-basis many-body Hamiltonian for an array of pendular-state molecules.

Each molecule is truncated to its two lowest pendular states, so N molecules
span a 2^N product basis.  Basis index b stores molecule i's state in bit
(n-1-i): molecule 0 is the most significant bit and |00...0> is index 0.
The Hamiltonian, in units of B, is

    H = sum_i diag(w0, w1)_i
      + sum_{i<j} omega_ij (1 - 3 cos^2 alpha_ij) (M_i x M_j),

with M = [[c0, xme], [xme, c1]] the cos(theta) matrix in the qubit pair.
Each M_i x M_j splits into a diagonal part, xme-weighted flips of bit i and
of bit j, and a g xme^2 flip of both.  H is kept in that form at every size
up to the 24-qubit cap, and scattered dense too up to 14 qubits.  The ground
state comes from a certified Davidson iteration on the dense matrix, and from
ARPACK's Lanczos iteration on `apply` where the certificate fails or no dense
matrix exists.  The full spectrum (`eigh`) and the lowest k >= 2 pairs (LAPACK
evr) need the dense matrix; above 14 qubits only the lowest few pairs are
available, from ARPACK, so thermal populations stop at 14 qubits.

scipy is imported only by the two solves that use it: scipy.linalg by the
partial dense solve (k >= 2: the gap task and fig4a), scipy.sparse.linalg by
ARPACK.  Importing this module loads no part of scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .circuits.core import MAX_QUBITS
from .lattice import PairCoupling, angular_factor
from .pendular import QubitPair, _fix_phases

DENSE_LIMIT = 14

# Thermal occupations below this are indistinguishable from underflow noise.
_PROBABILITY_FLOOR = 1e-300

# Davidson's dense ground-state iteration: steps before it hands over to ARPACK.
_DAVIDSON_STEPS = 50


class CapacityError(ValueError):
    """Requested molecule count exceeds the 2^24 state-space cap."""


class NormalizationError(ValueError):
    """State vector is not normalized to within 1e-9."""


class InsufficientSpectrumError(ValueError):
    """Operation needs the full spectrum but only part was computed."""


class PerturbationInvalidError(ValueError):
    """Unperturbed levels are degenerate (dw = 0), corrections diverge."""


class SolverError(RuntimeError):
    """Iterative eigensolver failed to converge."""


class UnderflowWarning(RuntimeWarning):
    """A probability underflowed to zero and is reported as 0."""


def _coupling_strengths(couplings, n: int) -> tuple[tuple[int, int, float], ...]:
    if n < 1:
        raise ValueError(f"need at least one molecule, got n={n}")
    if n > MAX_QUBITS:
        raise CapacityError(f"n={n} exceeds the {MAX_QUBITS}-molecule cap")
    out = []
    for c in couplings:
        if not (0 <= c.i < c.j < n):
            raise IndexError(
                f"coupling ({c.i}, {c.j}) breaks 0 <= i < j < n for n={n} molecules"
            )
        g = c.omega * angular_factor(c.alpha) if math.isfinite(c.alpha) else math.nan
        if not math.isfinite(g):
            raise ValueError(
                f"coupling ({c.i}, {c.j}) has a non-finite strength:"
                f" omega={c.omega}, alpha={c.alpha}"
            )
        out.append((c.i, c.j, g))
    return tuple(out)


def _flip_weights(qp: QubitPair, strengths, n: int, sites: list[int]) -> np.ndarray:
    """Single-flip weights xme * sum_j g_ij c_{b_j} of the given sites, a row each.

    Each row is an outer sum over the bits in ascending order, about two passes
    over 2^n entries; apply asks for one site at a time, so no n x 2^n table.
    """
    pair_g = np.zeros((n, n))
    for i, j, g in strengths:
        pair_g[i, j] += g
        pair_g[j, i] += g
    terms = pair_g[sites, :, None] * qp.xme * np.array([qp.c0, qp.c1])
    w = np.zeros((len(sites), 1))
    for j in range(n):
        nxt = np.empty((len(sites), w.shape[1], 2))
        for b in range(2):  # one long loop per value of bit j
            np.add(w, terms[:, j, b, None], out=nxt[:, :, b])
        w = nxt.reshape(len(sites), -1)
    return w


@dataclass(frozen=True, eq=False)
class QubitHamiltonian:
    """Hamiltonian of n coupled molecules in the 2^n qubit basis, units of B.

    diag is H's diagonal and strengths the resolved (i, j, g) of each pair;
    apply forms H @ v from them at every size.  matrix is the same operator
    scattered dense for n <= 14, and None above.
    """

    n: int
    qp: QubitPair
    couplings: tuple[PairCoupling, ...]
    diag: np.ndarray
    strengths: tuple[tuple[int, int, float], ...]
    matrix: np.ndarray | None

    @property
    def dim(self) -> int:
        return 1 << self.n

    def apply(self, v: np.ndarray) -> np.ndarray:
        """H @ v without materializing H; a flip of bit i reverses axis i."""
        t = v.reshape([2] * self.n)
        out = self.diag.reshape(t.shape) * t
        for i in range(self.n):
            w = _flip_weights(self.qp, self.strengths, self.n, [i])
            out += w.reshape(t.shape) * np.flip(t, i)
        for i, j, g in self.strengths:
            out += g * self.qp.xme**2 * np.flip(t, (i, j))
        return out.reshape(v.shape)


def build_hamiltonian(
    qp: QubitPair, couplings: list[PairCoupling], n: int
) -> QubitHamiltonian:
    """Assemble the 2^n qubit-basis Hamiltonian; dense too up to 14 molecules.

    Args:
        qp: single-molecule energies and cos(theta) matrix elements.
        couplings: pairwise Omega_ij/B entries with field angles.
        n: molecule count, 1 <= n <= 24.

    Raises:
        CapacityError: n > 24.
        IndexError: a coupling breaks 0 <= i < j < n.
        ValueError: a coupling strength is not finite.
    """
    strengths = _coupling_strengths(couplings, n)
    # M_i x M_j's diagonal part g c_{b_i} c_{b_j}, with c_{b_i} along axis i
    m_diag = np.array([qp.c0, qp.c1])
    site_diag = [m_diag.reshape([-1] + [1] * (n - 1 - i)) for i in range(n)]
    cols = np.arange(1 << n)
    diag = n * qp.w0 + (qp.w1 - qp.w0) * np.bitwise_count(cols)
    grid = diag.reshape([2] * n)
    for i, j, g in strengths:
        grid += g * site_diag[i] * site_diag[j]
    h = None
    if n <= DENSE_LIMIT:
        # flat holds (r, c) at (r << n) + c; flipping molecule k in r flips bit top - k
        h, top = np.zeros((cols.size, cols.size)), 2 * n - 1
        flat, at = h.reshape(-1), cols * (cols.size + 1)  # the diagonal (c, c)
        for i, j, g in strengths:
            flat[at ^ (1 << (top - i)) ^ (1 << (top - j))] += g * qp.xme**2
        for i, w in enumerate(_flip_weights(qp, strengths, n, list(range(n)))):
            flat[at ^ (1 << (top - i))] += w
        flat[at] = diag
    return QubitHamiltonian(n, qp, tuple(couplings), diag, strengths, h)


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
    # the double flip g xme^2; no matrix is read, so no matrix-sized temporary
    reach = abs(qp.xme) * (2 * max(abs(qp.c0), abs(qp.c1)) + abs(qp.xme))
    s = reach * sum(abs(g) for _, _, g in h.strengths)
    d1, d2 = np.partition(h.diag, 1)[:2]
    if not d1 + s < d2 - s:  # written so that NaN fails it
        return None
    basis = np.zeros((_DAVIDSON_STEPS + 1, h.dim))
    images = np.zeros((_DAVIDSON_STEPS + 1, h.dim))  # rows of H @ basis
    start = int(np.argmin(h.diag))
    basis[0, start] = 1.0
    images[0] = h.matrix[start]
    m = 1
    for _ in range(_DAVIDSON_STEPS):
        w, y = np.linalg.eigh(basis[:m] @ images[:m].T)
        theta = w[0]
        u, hu = y[:, 0] @ basis[:m], y[:, 0] @ images[:m]
        r = hu - theta * u
        if np.linalg.norm(r) <= 2 * eps * max(abs(theta), 1.0):
            return Spectrum(np.array([theta]), _fix_phases(u[:, None]), h.dim)
        t = r / np.minimum(theta - h.diag, -eps)
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
    not converge, ARPACK's Lanczos iteration solves it instead, on `h.apply`
    at every size (51 applies at n = 16), started from the uniform
    superposition.  Davidson above 14 qubits would move the counts of the
    benchmark's `chain_ground` workload, so it waits for that benchmark.

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
        ValueError: k is neither "all" nor an integer in [1, 2^n]; above 14
            qubits, in [1, 2^n - 2], since ARPACK needs k < 2^n - 1.
        InsufficientSpectrumError: k = "all" above 14 qubits.
        SolverError: the iterative solver did not converge.
    """
    if k != "all" and (isinstance(k, bool) or not isinstance(k, (int, np.integer))):
        raise ValueError(f'k must be "all" or an integer, got {k!r}')
    if h.matrix is None:
        if k == "all":
            raise InsufficientSpectrumError(
                f"full spectrum unavailable for n={h.n} > {DENSE_LIMIT}; pass a small k"
            )
        if not 1 <= k < h.dim - 1:
            raise ValueError(
                f"k must be in [1, {h.dim - 2}] matrix-free, below ARPACK's "
                f"limit 2^n - 1 = {h.dim - 1}, got {k}"
            )
    elif k != "all" and not 1 <= k <= h.dim:
        raise ValueError(f"k must be in [1, {h.dim}], got {k}")
    if h.matrix is not None and k == 1:
        ground = _davidson_ground(h)
        if ground is not None:
            return ground
    if h.matrix is not None and k != 1:
        if k == "all":
            w, v = np.linalg.eigh(h.matrix)
        else:
            # scipy is imported here and before ARPACK below, not at module
            # level: scipy.linalg with scipy.sparse.linalg cost 0.27 s of the
            # 0.60 s `import polarq.cli` (2 vCPUs), and most runs call neither
            import scipy.linalg

            w, v = scipy.linalg.eigh(h.matrix, subset_by_index=[0, int(k) - 1])
        return Spectrum(eigenvalues=w, eigenvectors=_fix_phases(v), dim=h.dim)
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    op = LinearOperator((h.dim, h.dim), matvec=h.apply, dtype=float)
    v0 = np.full(h.dim, 1.0 / np.sqrt(h.dim))
    try:
        w, v = eigsh(op, k=int(k), which="SA", v0=v0)
    except ArpackNoConvergence as exc:
        residuals = [
            float(np.linalg.norm(h.apply(vec) - val * vec))
            for val, vec in zip(exc.eigenvalues, exc.eigenvectors.T)
        ]
        raise SolverError(
            f"eigensolver converged only {len(exc.eigenvalues)}/{k} pairs; "
            f"residuals of the converged ones: {residuals}"
        ) from exc
    order = np.argsort(w)
    return Spectrum(w[order], _fix_phases(v[:, order]), h.dim)


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
