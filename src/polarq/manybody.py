"""Qubit-basis many-body Hamiltonian for an array of pendular-state molecules.

Each molecule is truncated to its two lowest pendular states, so N molecules
span a 2^N product basis.  Basis index b stores molecule i's state in bit
(n-1-i): molecule 0 is the most significant bit and |00...0> is index 0.
The Hamiltonian, in units of B, is

    H = sum_i diag(w0, w1)_i
      + sum_{i<j} omega_ij (1 - 3 cos^2 alpha_ij) (M_i x M_j),

with M = [[c0, xme], [xme, c1]] the cos(theta) matrix in the qubit pair.
Each g = omega (1 - 3 cos^2 alpha) is formed once from the lattice's table.
Each M_i x M_j splits into a diagonal part, xme-weighted flips of bit i and
of bit j, and a g xme^2 flip of both.  H is kept in that form at every size
up to the 24-qubit cap.  Up to 14 qubits one builder, `_sector_block`, turns
those parts into a dense block of H in a symmetry sector: the whole basis
is the identity sector, whose block is `matrix`, and a mirror-symmetric
array (every chain and square array) has two sectors under site reversal.
Up to 14 qubits the ground state comes from a certified Davidson iteration
on a sector's table of entries (`_sector_table`, what `_sector_block`
scatters), with no dense matrix, and from ARPACK's Lanczos iteration on
`apply` where the certificate fails or above 14 qubits.  No solve reads
`matrix`.  The lowest k >= 2 levels, or all of them, are `eigvalsh` of the
sector blocks up to 14 qubits: levels only, with no eigenvector.
Above 14 qubits only the lowest few levels are available, from ARPACK, so
thermal populations stop at 14 qubits.  Every spectrum carries the ground
state alone, its Hamiltonian's one `_ground`, solved at most once, on first read.

scipy is imported only by ARPACK (scipy.sparse.linalg).  Importing this
module, and every dense solve, loads no part of scipy.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import _blas
from .circuits.core import MAX_QUBITS
from .lattice import PairCouplings
from .pendular import QubitPair, _fix_phases

DENSE_LIMIT = 14
# Above this Omega/B the rounding error of a gap, eps max|E| / gap, passes 1e-9
MAX_OMEGA = 10.0

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


def _resolve(couplings: PairCouplings, n: int) -> tuple[tuple[int, int, float], ...]:
    """Each pair's (i, j, g) with g = omega (1 - 3 cos^2 alpha), checked in one pass."""
    if n < 1:
        raise ValueError(f"need at least one molecule, got n={n}")
    if n > MAX_QUBITS:
        raise CapacityError(f"n={n} exceeds the {MAX_QUBITS}-molecule cap")
    i, j, omega, cos_a = map(np.asarray, couplings, (int, int, float, float))
    if len({a.shape for a in (i, j, omega, cos_a)}) != 1 or i.ndim != 1:
        raise ValueError("coupling table columns must be 1-D of one length")
    if (bad := np.flatnonzero(~((0 <= i) & (i < j) & (j < n)))).size:
        k = bad[0]
        raise IndexError(
            f"coupling ({i[k]}, {j[k]}) breaks 0 <= i < j < n for n={n} molecules"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        g = omega * (1.0 - 3.0 * cos_a**2)
    if (bad := np.flatnonzero(~np.isfinite(g))).size:
        k = bad[0]
        raise ValueError(
            f"coupling ({i[k]}, {j[k]}) has a non-finite strength:"
            f" omega={omega[k]}, cos_alpha={cos_a[k]}"
        )
    return tuple(zip(i.tolist(), j.tolist(), g.tolist()))


def _flip_weights(qp: QubitPair, pair_g: np.ndarray, sites: list[int]) -> np.ndarray:
    """Single-flip weights xme * sum_j g_ij c_{b_j} of the given sites, a row each.

    Each row is an outer sum over the bits in ascending order, about two passes
    over 2^n entries.  `_flips` keeps every site's; apply asks for one at a time.
    """
    terms = pair_g[sites, :, None] * qp.xme * np.array([qp.c0, qp.c1])
    w = np.zeros((len(sites), 1))
    for j in range(pair_g.shape[0]):
        nxt = np.empty((len(sites), w.shape[1], 2))
        for b in range(2):  # one long loop per value of bit j
            np.add(w, terms[:, j, b, None], out=nxt[:, :, b])
        w = nxt.reshape(len(sites), -1)
    return w


@dataclass(frozen=True, eq=False)
class QubitHamiltonian:
    """Hamiltonian of n coupled molecules in the 2^n qubit basis, units of B.

    diag is H's diagonal and couplings the resolved (i, j, g) of each pair, a
    hashable tuple; apply forms H @ v from them at every size.  matrix is the
    same operator as a dense array, the identity sector's `_sector_block`,
    built on first read for n <= 14, and None above; no solve reads it.
    _flips (every site's flip weights) and _ground (the ground state) are
    built on first read too, once per Hamiltonian, for every solve.
    """

    n: int
    qp: QubitPair
    couplings: tuple[tuple[int, int, float], ...]
    diag: np.ndarray

    @property
    def dim(self) -> int:
        return 1 << self.n

    @functools.cached_property
    def pair_g(self) -> np.ndarray:
        """The n x n pair couplings g_ij, symmetric with a zero diagonal."""
        g = np.zeros((self.n, self.n))
        i, j, s = np.array(self.couplings).reshape(-1, 3).T
        np.add.at(g, (i.astype(int), j.astype(int)), s)  # a pair listed twice adds up
        return g + g.T

    @functools.cached_property
    def matrix(self) -> np.ndarray | None:
        """H as a dense 2^n x 2^n array for n <= 14, else None; built once."""
        if self.n > DENSE_LIMIT:
            return None
        return _sector_block(*_sector_table(self, *_identity_sector(self.n)))

    @functools.cached_property
    def _flips(self) -> np.ndarray:
        """The n x 2^n single-flip weights of every site, a row each."""
        return _flip_weights(self.qp, self.pair_g, list(range(self.n)))

    @functools.cached_property
    def _ground(self) -> tuple[float, np.ndarray]:
        """The ground level and (dim, 1) column: Davidson if certified, else ARPACK."""
        if self.n <= DENSE_LIMIT:
            # the operand is H (or a sector block of it), 4^n doubles whether
            # stored or applied, so up to 9 qubits it runs on one BLAS thread
            with _blas.single_thread(self.dim**2):
                ground = _davidson_ground(self)
            if ground is not None:
                return ground
        levels, column = _arpack(self, 1)
        return levels[0], column

    def apply(self, v: np.ndarray) -> np.ndarray:
        """H @ v without materializing H; a flip of bit i reverses axis i."""
        t = v.reshape([2] * self.n)
        out = self.diag.reshape(t.shape) * t
        for i in range(self.n):
            w = _flip_weights(self.qp, self.pair_g, [i])
            out += w.reshape(t.shape) * np.flip(t, i)
        for i, j, g in self.couplings:
            out += g * self.qp.xme**2 * np.flip(t, (i, j))
        return out.reshape(v.shape)


def build_hamiltonian(
    qp: QubitPair, couplings: PairCouplings, n: int
) -> QubitHamiltonian:
    """Assemble the 2^n qubit-basis Hamiltonian: its diagonal and pair couplings.

    Args:
        qp: single-molecule energies and cos(theta) matrix elements.
        couplings: the pair table of Omega_ij/B and cos(alpha_ij).
        n: molecule count, 1 <= n <= 24.

    Raises:
        CapacityError: n > 24.
        IndexError: a coupling breaks 0 <= i < j < n.
        ValueError: the columns differ in shape, or a strength is not finite.
    """
    resolved = _resolve(couplings, n)
    # M_i x M_j's diagonal part g c_{b_i} c_{b_j}, with c_{b_i} along axis i
    m_diag = np.array([qp.c0, qp.c1])
    site_diag = [m_diag.reshape([-1] + [1] * (n - 1 - i)) for i in range(n)]
    diag = n * qp.w0 + (qp.w1 - qp.w0) * np.bitwise_count(np.arange(1 << n))
    grid = diag.reshape([2] * n)
    for i, j, g in resolved:
        grid += g * site_diag[i] * site_diag[j]
    return QubitHamiltonian(n, qp, resolved, diag)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ascending eigenvalues, and the ground state as a (dim, 1) column.

    dim records the full state-space size so consumers can tell a partial
    spectrum from a complete one.  eigenvectors holds the ground state only,
    with its largest-magnitude amplitude made positive: nothing reads an
    excited one.  _solve_ground reads it on first access: the Hamiltonian's
    one ground column, so every spectrum of one Hamiltonian holds the same.
    """

    eigenvalues: np.ndarray
    dim: int
    _solve_ground: Callable[[], np.ndarray] = field(repr=False)

    @functools.cached_property
    def eigenvectors(self) -> np.ndarray:
        return self._solve_ground()

    @property
    def complete(self) -> bool:
        return len(self.eigenvalues) == self.dim


def _davidson_ground(h: QubitHamiltonian) -> tuple[float, np.ndarray] | None:
    """The ground level and column of a dense-size h by Davidson, or None.

    It runs only when the diagonal certifies its answer.  s bounds every
    row's off-diagonal sum, so by Weyl each level lies within s of the
    sorted diagonal, and d1 + s < d2 - s puts the ground level alone below
    the next one.  The iteration starts from the basis vector of d1, so its
    lowest Ritz value never rises above d1 < lambda_2, and a converged pair
    is the ground state, never an excited one.  The correction is
    r / (theta - diag); two Gram-Schmidt passes keep the basis orthonormal.

    It iterates in the symmetric reflection sector when h is mirror
    symmetric and d1's basis state is a palindrome, which is then that
    sector's basis vector, so the certificate carries over; otherwise in
    the identity sector.  H @ u is a gather over the sector's table, and
    no dense matrix is built.  The converged vector is mapped back to the
    2^n basis through the sector's row and coef.

    Returns None when the certificate fails, or when ||H u - theta u|| has
    not reached 2 eps max(|theta|, 1) within 50 steps or before a correction
    stops adding a direction to the basis.
    """
    eps = np.finfo(float).eps
    qp = h.qp
    # per pair: single flips of i and of j, each at most |g xme| max|c|, and
    # the double flip g xme^2; no matrix is read, so no matrix-sized temporary
    reach = abs(qp.xme) * (2 * max(abs(qp.c0), abs(qp.c1)) + abs(qp.xme))
    s = reach * sum(abs(g) for _, _, g in h.couplings)
    d1, d2 = np.partition(h.diag, 1)[:2]
    if not d1 + s < d2 - s:  # written so that NaN fails it
        return None
    start = int(np.argmin(h.diag))
    reps, row, coef = _sectors(h)[0]
    if coef[start] != 1.0:  # not a palindrome: its basis vector is in no sector
        reps, row, coef = _identity_sector(h.n)
    rows, vals = _sector_table(h, reps, row, coef)
    diag = h.diag[reps]

    def apply(u: np.ndarray) -> np.ndarray:
        # a gather down each column: B^T u, which is B u for the symmetric block
        return (vals * u[rows]).sum(0)

    basis = np.zeros((1, reps.size))  # grown a row per step
    basis[0, row[start]] = 1.0
    images = apply(basis[0])[None]  # rows of H @ basis
    for _ in range(_DAVIDSON_STEPS):
        w, y = np.linalg.eigh(basis @ images.T)
        theta = w[0]
        u, hu = y[:, 0] @ basis, y[:, 0] @ images
        r = hu - theta * u
        if np.linalg.norm(r) <= 2 * eps * max(abs(theta), 1.0):
            return theta, _fix_phases((u[row] * coef)[:, None])
        t = r / np.minimum(theta - diag, -eps)
        t -= (basis @ t) @ basis
        first = np.linalg.norm(t)
        t -= (basis @ t) @ basis
        norm = np.linalg.norm(t)
        # a second pass that removes most of what the first one left means t
        # lay in the basis up to rounding (the basis spans the whole sector,
        # or a smaller symmetry sector that rounding cannot leave); what is
        # left of t is then not orthogonal to the basis, or exactly 0
        if not norm > first / 2:
            return None
        t /= norm
        basis = np.vstack([basis, t])
        images = np.vstack([images, apply(t)])
    return None


@functools.cache
def _identity_sector(n: int) -> tuple[np.ndarray, ...]:
    """The whole 2^n basis as one sector: (reps, row, coef) = (b, b, 1)."""
    b, coef = np.arange(1 << n), np.ones(1 << n)
    b.flags.writeable = coef.flags.writeable = False  # shared through the cache
    return b, b, coef


@functools.cache
def _reflection_sectors(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The symmetric and antisymmetric bases of n sites under site reversal.

    Reversal maps basis state b to rev(b), its n bits reversed.  Each orbit
    {b, rev(b)} is represented by its lower member.  Per sector (+1, then -1),
    reps lists the representatives that span the block in ascending order
    (palindromes b = rev(b) only in the symmetric one), row[x] is the block
    index of x's representative, and coef[x] is x's amplitude in that basis
    vector: 1 for a palindrome, 1/sqrt(2) for the lower member of a pair and
    +-1/sqrt(2) for the upper one.  A palindrome has no antisymmetric vector:
    its coef there is 0 and its row 0.
    """
    b = np.arange(1 << n)
    rev = np.zeros_like(b)
    for i in range(n):
        rev |= ((b >> i) & 1) << (n - 1 - i)
    palindrome, upper = b == rev, b > rev
    sectors = []
    for sign in (1.0, -1.0):
        reps = np.flatnonzero(b <= rev if sign > 0 else b < rev)
        row = np.searchsorted(reps, np.minimum(b, rev))
        coef = np.where(palindrome, 1.0, math.sqrt(0.5))
        coef[upper] *= sign
        if sign < 0:
            row[palindrome], coef[palindrome] = 0, 0.0
        for table in (reps, row, coef):
            table.flags.writeable = False  # shared by every caller through the cache
        sectors.append((reps, row, coef))
    return tuple(sectors)


def _sectors(h: QubitHamiltonian) -> list[tuple[np.ndarray, ...]]:
    """h's symmetry sectors, each a (reps, row, coef) table.

    The two reversal sectors (the symmetric one first) when pair_g equals
    its reverse on both axes bit for bit (reversal maps each r_ij to -r_ij,
    which leaves g_ij unchanged), else the one identity sector.
    """
    if np.array_equal(h.pair_g, h.pair_g[::-1, ::-1]):
        return [s for s in _reflection_sectors(h.n) if s[0].size]
    return [_identity_sector(h.n)]


def _sector_table(
    h: QubitHamiltonian, reps: np.ndarray, row: np.ndarray, coef: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """H's block in one symmetry sector, as (rows, vals) of its columns.

    Column c of H holds the diagonal, n single flips and one double flip per
    pair.  Since H commutes with the sector's symmetry, the block element
    between the basis vectors of representatives a and c is sum_x coef[x]
    H[x, c] / coef[c] over the orbit of a.  So block column c holds
    vals[:, c], one entry for each of those (1 + n + pairs) terms, in the
    block rows rows[:, c]; entries that share a row add up.  In the identity
    sector each entry has a row of its own, and vals are H's entries.
    """
    n, m = h.n, reps.size
    bit = [1 << (n - 1 - i) for i in range(n)]
    masks = np.array([0] + bit + [bit[i] | bit[j] for i, j, _ in h.couplings])
    pair_flip = np.array([g for _, _, g in h.couplings]) * h.qp.xme**2
    pair_rows = np.broadcast_to(pair_flip[:, None], (pair_flip.size, m))
    values = np.concatenate([h.diag[None, reps], h._flips[:, reps], pair_rows])
    x = reps ^ masks[:, None]
    return row[x], values * (coef[x] / coef[reps])


def _sector_block(rows: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The dense block of a sector table, Fortran-ordered.

    The only dense builder: `matrix` is the identity sector's block.  One
    bincount over the table adds each entry into its bin, column by column;
    in the identity sector each bin takes one entry, so the block is H bit
    for bit.
    """
    m = rows.shape[1]
    bins = np.arange(m) * m + rows  # entry (r, c) at c m + r
    return np.bincount(bins.ravel(), vals.ravel(), minlength=m * m).reshape(m, m).T


def _sector_levels(h: QubitHamiltonian) -> np.ndarray:
    """Every level of a dense h, ascending, solved sector by sector.

    Each sector's block (`_sectors`) is built just before its `eigvalsh`, so no
    two are held at once; no eigenvector is computed, the solves share one
    thread-count block, and a stable sort merges the levels.
    """
    sectors = _sectors(h)
    with _blas.single_thread(max(s[0].size for s in sectors) ** 2):
        levels = [
            np.linalg.eigvalsh(_sector_block(*_sector_table(h, *s))) for s in sectors
        ]
    return np.sort(np.concatenate(levels), kind="stable")


def _arpack(h: QubitHamiltonian, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The lowest k levels of h by ARPACK on `apply`, and the ground column."""
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    op = LinearOperator((h.dim, h.dim), matvec=h.apply, dtype=float)
    v0 = np.full(h.dim, 1.0 / np.sqrt(h.dim))
    try:
        with _blas.single_thread(h.dim**2):
            w, v = eigsh(op, k=k, which="SA", v0=v0)
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
    return w[order], _fix_phases(v[:, order[:1]])


def spectrum(h: QubitHamiltonian, k: int | str = "all") -> Spectrum:
    """Lowest k levels of h, or all of them, and h's ground state.

    k = 1, the ground state, is |00...0> up to small corrections wherever
    Omega << dw.  Up to 14 qubits it comes from Davidson's
    diagonal-preconditioned iteration started from the basis vector of the
    lowest diagonal entry: 2-4 products at n = 9 in the paper's regime, and
    exactly |00...0> at Omega = 0.  Each product is a gather over a sector's
    table of H's entries, in the symmetric reversal block of a
    mirror-symmetric array; no dense matrix is built.  Davidson runs only
    where the diagonal certifies that it converges to the ground state and not
    to an excited one (see `_davidson_ground`).  Where the couplings are too
    strong for that (in some arrays from Omega/B = 0.3 on), or where it does
    not converge, ARPACK's Lanczos iteration solves it instead, on `h.apply`
    at every size (51 applies at n = 16), started from the uniform
    superposition.  Davidson above 14 qubits would move the counts of the
    benchmark's `chain_ground` workload, so it waits for that benchmark.

    k = "all" and an integer k >= 2 are levels only, `eigvalsh` of dense
    blocks, up to 14 qubits; "all" needs n <= 14, and k >= 2 is ARPACK
    above.  Every result's eigenvectors is h's one ground column, read on
    first access and solved at most once per h, whatever k.  Where the pair
    couplings are unchanged by reversing the site order (g_ij =
    g_{n-1-i, n-1-j} bit for bit; every chain and every row-major square
    array, whatever the field direction, since reversal maps r_ij to -r_ij),
    H commutes with that reversal.  The level solve then runs on its
    symmetric and antisymmetric blocks of (2^n +- 2^ceil(n/2))/2 states:
    about a quarter of the work of one solve of the whole H.  Other arrays,
    such as most custom geometries, solve the one block of the identity
    sector, which is H itself.  Every block comes from the same builder,
    from `diag` and the pair couplings (`_sector_levels`).
    When the Krylov space closes early (a short symmetric chain, or
    Omega = 0, which makes H diagonal), ARPACK continues from a random vector
    drawn from one generator per process.  The ground state already lies in
    the closed space, so k = 1 gives the same bytes whatever the process
    solved before.  The next levels need the random part, which would make
    fig4a's Omega = 0 row differ between reruns, so dense k >= 2 stays on
    `eigvalsh`.

    Raises:
        ValueError: k is neither "all" nor an integer in [1, 2^n]; above 14
            qubits, in [1, 2^n - 2], since ARPACK needs k < 2^n - 1.
        InsufficientSpectrumError: k = "all" above 14 qubits.
        SolverError: the iterative solver did not converge.
    """
    if k != "all" and (isinstance(k, bool) or not isinstance(k, (int, np.integer))):
        raise ValueError(f'k must be "all" or an integer, got {k!r}')
    dense = h.n <= DENSE_LIMIT
    if not dense:
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
    if k == 1:
        levels = np.array([h._ground[0]])
    elif dense:
        levels = _sector_levels(h)[: None if k == "all" else k]
    else:
        levels = _arpack(h, int(k))[0]
    return Spectrum(levels, h.dim, lambda: h._ground[1])


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
    qp: QubitPair, couplings: PairCouplings, n: int
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
    resolved = _resolve(couplings, n)
    dw = qp.dw
    if dw == 0:
        raise PerturbationInvalidError("qubit splitting dw is zero")
    psi = np.zeros(1 << n)
    psi[0] = 1.0
    omega_eff = max((abs(g) for _, _, g in resolved), default=0.0)
    site_sums = np.zeros(n)
    for i, j, g in resolved:
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
