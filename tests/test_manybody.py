"""Many-body Hamiltonian assembly and derived quantities.

Oracle strategy: the bit-arithmetic construction is checked entry-by-entry
against a literal Kronecker-product build and byte for byte against a flat
scatter of the same terms, the n=2 ground energy against a
40-digit mpmath eigensolve, and the structured product `apply` against the
dense matrix on random vectors.  Above the dense limit, where no dense
reference exists, the ground state is checked against perturbation theory.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from polarq import (
    CapacityError,
    QubitPair,
    build_hamiltonian,
    custom_array,
    energy_gap,
    linear_array,
    p_not_all_zero,
    pair_couplings,
    perturbative_ground_state,
    spectrum,
    square_array,
)
from polarq import manybody
from polarq.lattice import ArrayGeometry, PairCouplings
from polarq.pendular import _fix_phases
from polarq.manybody import (
    DENSE_LIMIT,
    InsufficientSpectrumError,
    NormalizationError,
    PerturbationInvalidError,
    QubitHamiltonian,
    UnderflowWarning,
    thermal_excitation,
)


NO_PAIRS = PairCouplings([], [], [], [])


def table(*rows):
    """A coupling table from (i, j, omega, cos_alpha) rows."""
    return PairCouplings(*zip(*rows))


def kron_oracle(qp, couplings, n):
    """Literal tensor-product construction of the same Hamiltonian."""
    one_site = np.diag([qp.w0, qp.w1])
    m = np.array([[qp.c0, qp.xme], [qp.xme, qp.c1]])
    dim = 1 << n
    h = np.zeros((dim, dim))

    def embed(ops):
        out = np.array([[1.0]])
        for k in range(n):
            out = np.kron(out, ops.get(k, np.eye(2)))
        return out

    for i in range(n):
        h += embed({i: one_site})
    for i, j, omega, cos_a in zip(
        couplings.i, couplings.j, couplings.omega, couplings.cos_alpha
    ):
        h += omega * (1 - 3 * cos_a**2) * embed({i: m, j: m})
    return h


def scatter_reference(h):
    """H scattered term by term through a flat view of a zero matrix.

    An independent dense build from the same diagonal, flip weights and pair
    double flips.  The goldens rest on the dense bits, so `matrix` must equal
    this byte for byte, not only within a tolerance.
    """
    # flat holds (r, c) at (r << n) + c; flipping molecule k in r flips bit top - k
    cols, top = np.arange(h.dim), 2 * h.n - 1
    dense = np.zeros((h.dim, h.dim))
    flat, at = dense.reshape(-1), cols * (h.dim + 1)  # the diagonal (c, c)
    for i, j, g in h.couplings:
        flat[at ^ (1 << (top - i)) ^ (1 << (top - j))] += g * h.qp.xme**2
    for i, w in enumerate(manybody._flip_weights(h.qp, h.pair_g, list(range(h.n)))):
        flat[at ^ (1 << (top - i))] += w
    flat[at] = h.diag
    return dense


def test_single_molecule_diagonal(qp):
    h = build_hamiltonian(qp(2.0), NO_PAIRS, 1)
    assert np.allclose(h.matrix, np.diag([qp(2.0).w0, qp(2.0).w1]))


def test_hand_expanded_two_molecule_entries(qp):
    q = qp(2.0)
    g = 1e-3
    h = build_hamiltonian(q, pair_couplings(linear_array(2), g), 2).matrix
    assert h[0, 0] == pytest.approx(2 * q.w0 + g * q.c0**2, abs=1e-15)
    assert h[0, 3] == pytest.approx(g * q.xme**2, abs=1e-15)
    assert h[0, 1] == pytest.approx(g * q.c0 * q.xme, abs=1e-15)
    assert h[1, 1] == pytest.approx(q.w0 + q.w1 + g * q.c0 * q.c1, abs=1e-15)
    assert h[1, 2] == pytest.approx(g * q.xme**2, abs=1e-15)
    assert h[3, 3] == pytest.approx(2 * q.w1 + g * q.c1**2, abs=1e-15)


def test_matches_kron_oracle(qp):
    q = qp(2.0)
    # irregular couplings, including a tilted field angle
    coups = table(
        (0, 1, 3e-3, math.cos(math.pi / 2)),
        (0, 2, 1e-3, math.cos(0.3)),
        (1, 2, 2e-3, math.cos(1.1)),
    )
    for n in (3, 4):
        h = build_hamiltonian(q, coups, n)
        scale = np.max(np.abs(h.matrix))
        assert np.max(np.abs(h.matrix - kron_oracle(q, coups, n))) < 1e-15 * scale
        assert np.max(np.abs(h.matrix - h.matrix.T)) < 1e-12


def test_third_site_block_scales_cubically(qp):
    q = qp(2.0)
    h = build_hamiltonian(q, pair_couplings(linear_array(3), 1e-3), 3).matrix
    # |000> <-> |101>: both molecules 0 and 2 flip through the 1e-3/8 coupling
    assert h[0, 0b101] == pytest.approx((1e-3 / 8) * q.xme**2, abs=1e-18)


def test_ground_energy_against_mpmath(qp, chain_spectrum):
    q = qp(2.0)
    h = build_hamiltonian(q, pair_couplings(linear_array(2), 1e-3), 2)
    mpmath.mp.dps = 40
    ev = mpmath.eigsy(mpmath.matrix(h.matrix.tolist()), eigvals_only=True)
    e0 = chain_spectrum(2, 2.0, 1e-3).eigenvalues[0]
    assert abs(e0 - float(ev[0])) < 1e-12


def test_zero_coupling_spectrum_is_sum_of_levels(qp):
    q = qp(2.0)
    spec = spectrum(build_hamiltonian(q, NO_PAIRS, 3), "all")
    want = sorted(
        q.w0 * (3 - bin(b).count("1")) + q.w1 * bin(b).count("1") for b in range(8)
    )
    assert np.allclose(spec.eigenvalues, want, atol=1e-12)


def test_spectrum_residuals_and_phase(chain_spectrum, qp):
    # the levels against eigh of H; the one eigenvector kept, the ground state,
    # by its residual and its sign
    spec = chain_spectrum(4, 2.0, 1e-3)
    h = build_hamiltonian(qp(2.0), pair_couplings(linear_array(4), 1e-3), 4)
    scale = np.max(np.abs(spec.eigenvalues))
    levels = np.linalg.eigh(h.matrix)[0]
    assert np.max(np.abs(spec.eigenvalues - levels)) <= 1e-9 * scale
    assert spec.eigenvectors.shape == (h.dim, 1)
    v = spec.eigenvectors[:, 0]
    resid = np.max(np.abs(h.matrix @ v - spec.eigenvalues[0] * v))
    assert resid <= 1e-9 * scale
    assert v[np.argmax(np.abs(v))] > 0


def test_dense_and_iterative_modes_agree(qp, monkeypatch):
    q = qp(2.0)
    h = build_hamiltonian(q, pair_couplings(linear_array(9), 1e-3), 9)
    dense = spectrum(h, 2)
    dense_ground = dense.eigenvectors[:, 0]  # Davidson, read while n = 9 is dense
    reference = np.linalg.eigh(h.matrix)[0][:2]
    monkeypatch.setattr(manybody, "DENSE_LIMIT", 8)  # n = 9 is now matrix-free
    iterative = spectrum(h, 2)
    assert np.allclose(dense.eigenvalues, reference, atol=1e-9)
    assert np.allclose(iterative.eigenvalues, reference, atol=1e-9)
    assert iterative.eigenvectors.shape == (h.dim, 1)
    overlap = abs(dense_ground @ iterative.eigenvectors[:, 0])
    assert overlap == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("n", [2, 6, 9])
def test_partial_dense_spectrum_matches_full(qp, n):
    h = build_hamiltonian(qp(2.0), pair_couplings(linear_array(n), 1e-3), n)
    w, v = np.linalg.eigh(h.matrix)
    for k in (1, 2):
        part = spectrum(h, k)
        assert not part.complete and part.eigenvectors.shape == (h.dim, 1)
        assert np.allclose(part.eigenvalues, w[:k], rtol=1e-12, atol=0.0)
        ground = _fix_phases(v[:, :1])[:, 0]
        assert np.max(np.abs(part.eigenvectors[:, 0] - ground)) < 1e-10


MIRROR_ARRAYS = [(linear_array(n), f"chain{n}") for n in range(1, 11)] + [
    (square_array(2, 3), "square2x3"),
    (square_array(3, 3), "square3x3"),
    (linear_array(7, (1.0, 0.4, 0.3)), "chain7-tilted"),
    (square_array(3, 3, (0.6, -0.2, 0.5)), "square3x3-tilted"),
]


NON_MIRROR_ARRAYS = [
    (custom_array([[0, 0, 0], [1, 0, 0], [2.5, 0, 0], [2.5, 1.2, 0]]), "custom4"),
    (
        custom_array(
            [[0, 0, 0], [1, 0, 0], [2.5, 0, 0], [2.5, 1.2, 0], [0.3, 2.0, 0],
             [1.7, 2.9, 0], [3.1, 0.4, 0]],
            (0.3, -0.5, 0.8),
        ),
        "custom7-tilted",
    ),
]


@pytest.mark.parametrize(
    "geom",
    [g for g, _ in MIRROR_ARRAYS + NON_MIRROR_ARRAYS],
    ids=[i for _, i in MIRROR_ARRAYS + NON_MIRROR_ARRAYS],
)
def test_matrix_equals_the_scatter_reference_byte_for_byte(qp, geom):
    for x, omega in itertools.product((0.5, 2.0), (0.0, 1e-4, 0.3, 30.0)):
        h = build_hamiltonian(qp(x), pair_couplings(geom, omega), geom.n_sites)
        assert h.matrix.tobytes() == scatter_reference(h).tobytes(), (x, omega)


def assert_levels_match(spec, w):
    """spec's levels against w, eigh's levels of the whole, unsymmetrised H."""
    count = len(spec.eigenvalues)
    assert np.max(np.abs(spec.eigenvalues - w[:count])) <= 1e-13 * np.max(np.abs(w))


def assert_matches_dense(h, spec, reference):
    """spec against reference = eigh of the whole H: levels, ground residual, state."""
    w, v = reference
    assert_levels_match(spec, w)
    scale = np.max(np.abs(w))
    ground = spec.eigenvectors
    assert ground.shape == (h.dim, 1)
    assert np.max(np.abs(h.matrix @ ground - ground * w[0])) <= 1e-12 * scale
    # 1e-10, or the vector's own conditioning eps * |H| / gap where that is larger
    tol = max(1e-10, 10 * np.finfo(float).eps * scale / (w[1] - w[0]))
    assert np.max(np.abs(ground - _fix_phases(v[:, :1]))) <= tol


@pytest.mark.parametrize(
    "geom", [g for g, _ in MIRROR_ARRAYS], ids=[i for _, i in MIRROR_ARRAYS]
)
def test_mirror_symmetric_arrays_solve_in_reflection_blocks(qp, geom, monkeypatch):
    solves, sizes = [], []
    real_spectrum, real_table = manybody._sector_spectrum, manybody._sector_table
    monkeypatch.setattr(
        manybody, "_sector_spectrum", lambda h, k: solves.append(k) or real_spectrum(h, k)
    )
    monkeypatch.setattr(
        manybody,
        "_sector_table",
        lambda h, flips, *s: sizes.append(s[0].size) or real_table(h, flips, *s),
    )
    n = geom.n_sites
    half = 1 << ((n + 1) // 2)
    blocks = [b for b in ((2**n + half) // 2, (2**n - half) // 2) if b]
    for omega in (0.0, 1e-4, 0.04, 1.0):
        h = build_hamiltonian(qp(2.0), pair_couplings(geom, omega), n)
        ks = [k for k in (2, 3) if k <= h.dim] + ["all"]
        sizes.clear()
        spectra = [spectrum(h, k) for k in ks]
        # the two reversal blocks, built from diag and the pair couplings alone
        assert sizes == blocks * len(ks)
        assert "matrix" not in vars(h)
        reference = np.linalg.eigh(h.matrix)
        for spec in spectra:
            assert_matches_dense(h, spec, reference)
        assert spectra[-1].complete
    assert len(solves) == 4 * len(ks)


def test_arrays_without_mirror_symmetry_solve_the_dense_matrix(qp, monkeypatch):
    geom = NON_MIRROR_ARRAYS[0][0]
    h = build_hamiltonian(qp(2.0), pair_couplings(geom, 0.04), 4)
    assert not np.array_equal(h.pair_g, h.pair_g[::-1, ::-1])
    solved = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda a: solved.append(a.shape) or real(a)
    )
    monkeypatch.setattr(manybody, "_reflection_sectors", None)  # any call fails
    # the same bytes as LAPACK on the whole dense matrix
    with manybody._blas.single_thread(h.dim**2):
        levels = real(h.matrix)
    reference = np.linalg.eigh(h.matrix)
    for k in (2, 3, "all"):
        spec = spectrum(h, k)
        assert spec.eigenvalues.tobytes() == levels[: len(spec.eigenvalues)].tobytes()
        assert_matches_dense(h, spec, reference)
    assert solved == [(16, 16)] * 3


def test_level_solves_leave_the_ground_column_to_first_read(qp, monkeypatch):
    # a dense level solve computes no eigenvector: its ground column is
    # solved on first read, by the k = 1 solver, to the same bytes, and kept
    h = build_hamiltonian(qp(2.0), pair_couplings(linear_array(9), 1e-3), 9)
    ground = spectrum(h, 1).eigenvectors
    solves = []
    real = manybody._ground_state
    monkeypatch.setattr(
        manybody, "_ground_state", lambda h: solves.append(h) or real(h)
    )
    for k in (2, "all"):
        spec = spectrum(h, k)
        assert solves == [] and "eigenvectors" not in vars(spec)
        assert spec.eigenvectors.tobytes() == ground.tobytes()
        assert spec.eigenvectors is spec.eigenvectors
        assert solves == [h]
        solves.clear()


def test_a_wrong_antisymmetric_sign_breaks_the_blocks(qp, monkeypatch):
    # the blocks are checked against dense eigh; a sector table whose
    # antisymmetric vectors lost their sign must fail that check through
    # the levels, since no vector comes from the blocks
    h = build_hamiltonian(qp(2.0), pair_couplings(linear_array(5), 0.04), 5)
    reference = np.linalg.eigh(h.matrix)
    assert_matches_dense(h, spectrum(h, "all"), reference)
    symmetric, (reps, row, coef) = manybody._reflection_sectors(5)
    wrong = (symmetric, (reps, row, np.abs(coef)))
    monkeypatch.setattr(manybody, "_reflection_sectors", lambda n: wrong)
    with pytest.raises(AssertionError):
        assert_levels_match(spectrum(h, "all"), reference[0])


def test_dense_matrix_is_built_on_first_read_only(qp):
    h = build_hamiltonian(qp(2.0), pair_couplings(linear_array(4), 1e-3), 4)
    assert "matrix" not in vars(h)
    assert h.matrix is h.matrix


@pytest.fixture
def eigsh_calls(monkeypatch):
    """The operators that spectrum hands to ARPACK's eigsh, in call order."""
    operators = []
    eigsh = scipy.sparse.linalg.eigsh

    def spy(a, **kwargs):
        operators.append(a)
        return eigsh(a, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    return operators


def test_ground_state_matches_full_eigh_at_strong_coupling(qp, eigsh_calls):
    # chains along and across three field directions, up to omega/B = 30 and
    # down to x = 0.1, plus the 3x3 square at n = 9 and a lone molecule.
    # omega = 0.1 and 0.3 sit at the edge of Davidson's certificate: some of
    # these solves run Davidson, the rest fall back to ARPACK
    chains = [
        ArrayGeometry("linear", linear_array(n).positions, field)
        for n in range(2, 8)
        for field in [(0, 0, 1), (1, 0, 0), (1, 1, 1)]
    ]
    eps = np.finfo(float).eps
    solves = 0
    for geom in [*chains, square_array(3, 3), linear_array(1)]:
        for x in (0.1, 0.5, 2.0, 8.0, 20.0):
            for omega in (1e-5, 1e-2, 0.1, 0.3, 1.0, 30.0):
                h = build_hamiltonian(qp(x), pair_couplings(geom, omega), geom.n_sites)
                ground = spectrum(h, 1)
                solves += 1
                e, v = np.linalg.eigh(h.matrix)
                scale = max(abs(e[0]), abs(e[-1]))
                assert abs(ground.eigenvalues[0] - e[0]) <= 1e-12 * scale
                # 1e-10, or the vector's own conditioning eps * |H| / gap where
                # the gap is that small (1.6e-4 at n = 6, x = 2, omega = 30)
                tol = max(1e-10, 10 * eps * scale / (e[1] - e[0]))
                diff = ground.eigenvectors[:, 0] - _fix_phases(v[:, :1])[:, 0]
                assert np.max(np.abs(diff)) <= tol, (geom, x, omega)
    assert 0 < len(eigsh_calls) < solves


def test_two_molecule_ground_state_where_davidson_runs_out_of_directions(qp):
    # the swap-symmetric sector of a pair holds 3 of its 4 states; once
    # Davidson's basis spans it at the rounding floor, its next correction
    # lies in the basis (exactly 0 at x = 1.07, omega = 0.83 along the
    # chain), and the solve must fall back to ARPACK, not divide by 0
    eps = np.finfo(float).eps
    for x in np.geomspace(0.05, 40, 25):
        for field in [(0, 0, 1), (1, 0, 0)]:
            geom = ArrayGeometry("linear", linear_array(2).positions, field)
            for omega in np.geomspace(1e-4, 3, 25):
                h = build_hamiltonian(qp(float(x)), pair_couplings(geom, omega), 2)
                ground = spectrum(h, 1)
                e, v = np.linalg.eigh(h.matrix)
                scale = max(abs(e[0]), abs(e[-1]))
                assert abs(ground.eigenvalues[0] - e[0]) <= 1e-12 * scale
                tol = max(1e-10, 10 * eps * scale / (e[1] - e[0]))
                diff = ground.eigenvectors[:, 0] - _fix_phases(v[:, :1])[:, 0]
                assert np.max(np.abs(diff)) <= tol, (field, x, omega)


def test_certified_dense_ground_state_needs_no_arpack(qp, eigsh_calls, monkeypatch):
    def no_apply(self, v):
        raise AssertionError("dense k = 1 went through QubitHamiltonian.apply")

    monkeypatch.setattr(QubitHamiltonian, "apply", no_apply)
    h = build_hamiltonian(qp(2.0), pair_couplings(linear_array(6), 1e-3), 6)
    spectrum(h, 1)
    assert eigsh_calls == []


def test_dense_size_ground_state_builds_no_dense_matrix(qp, eigsh_calls):
    # Davidson iterates on a sector's table: the symmetric reflection sector
    # of the chains and the square, the identity sector of a custom array
    # without mirror symmetry.  The references are eigh of H at 9 sites and
    # ARPACK on apply at 12 and 13, where a full spectrum takes seconds
    custom = custom_array([[k, 0.1 * (k % 3) * (k % 5), 0] for k in range(13)])
    for geom in (linear_array(9), square_array(3, 3), linear_array(12), custom):
        h = build_hamiltonian(qp(2.0), pair_couplings(geom, 1e-3), geom.n_sites)
        ground = spectrum(h, 1)
        assert "matrix" not in vars(h)
        assert eigsh_calls == []
        if h.n <= 9:
            w, v = np.linalg.eigh(h.matrix)
        else:
            op = scipy.sparse.linalg.LinearOperator((h.dim,) * 2, h.apply, dtype=float)
            w, v = scipy.sparse.linalg.eigsh(op, k=1, which="SA", tol=0.0)
            eigsh_calls.clear()
        e0, vector = w[0], _fix_phases(v[:, :1])[:, 0]
        # no looser than the strong-coupling test above: |E0| is at most its
        # scale, and 1e-10 its vector tolerance where the gap is not small
        assert abs(ground.eigenvalues[0] - e0) <= 1e-12 * abs(e0)
        assert np.max(np.abs(ground.eigenvectors[:, 0] - vector)) <= 1e-10, geom


def test_uncertified_ground_state_runs_arpack_on_apply(qp, eigsh_calls, monkeypatch):
    # at omega/B = 30 the couplings outweigh the diagonal spacing, so Davidson
    # has no certificate and ARPACK solves, on the structured product even
    # where the dense matrix exists
    applied = []
    apply = QubitHamiltonian.apply

    def spy(self, v):
        applied.append(self)
        return apply(self, v)

    monkeypatch.setattr(QubitHamiltonian, "apply", spy)
    eps = np.finfo(float).eps
    for n in (6, 10):
        h = build_hamiltonian(qp(2.0), pair_couplings(linear_array(n), 30.0), n)
        applied.clear()
        ground = spectrum(h, 1)
        assert isinstance(eigsh_calls[-1], scipy.sparse.linalg.LinearOperator)
        assert applied and all(a is h for a in applied)
        # eigh of H, not the "all" spectrum, whose ground column would be
        # this same ARPACK solve
        e, v = np.linalg.eigh(h.matrix)
        scale = max(abs(e[0]), abs(e[-1]))
        assert np.max(np.abs(spectrum(h, "all").eigenvalues - e)) <= 1e-13 * scale
        assert abs(ground.eigenvalues[0] - e[0]) <= 1e-12 * scale
        tol = max(1e-10, 10 * eps * scale / (e[1] - e[0]))
        diff = ground.eigenvectors[:, 0] - _fix_phases(v[:, :1])[:, 0]
        assert np.max(np.abs(diff)) <= tol, n
    assert len(eigsh_calls) == 2


@pytest.mark.parametrize(
    "k", [2.7, True, "3", None], ids=["float", "bool", "str", "None"]
)
def test_spectrum_rejects_a_k_that_is_not_all_or_an_integer(qp, k, monkeypatch):
    h = build_hamiltonian(qp(2.0), pair_couplings(linear_array(3), 1e-3), 3)
    for limit in (DENSE_LIMIT, 2):  # dense, then matrix-free at n = 3
        monkeypatch.setattr(manybody, "DENSE_LIMIT", limit)
        with pytest.raises(ValueError, match="integer"):
            spectrum(h, k)


@pytest.mark.parametrize("k", [0, 2**15])
def test_matrix_free_spectrum_rejects_k_outside_arpacks_range(qp, k):
    # the build is matrix-free at n = 15, so nothing is solved or allocated
    h = build_hamiltonian(qp(2.0), pair_couplings(linear_array(15), 1e-3), 15)
    assert h.matrix is None
    with pytest.raises(ValueError, match=r"\[1, 32766\].*2\^n - 1"):
        spectrum(h, k)


def test_matrix_free_apply_matches_dense(qp):
    # apply is the one product at every size; the dense matrix, scattered
    # from the same parts, is its reference wherever it exists
    rng = np.random.default_rng(3)
    for n in range(1, 10):
        positions = np.cumsum(rng.uniform(0.8, 1.6, size=(n, 3)), axis=0)
        rows = next(r for r in (3, 2, 1) if n % r == 0)
        for field in [(0, 0, 1), (1, 0, 0), (1, 1, 1)]:
            geoms = [
                linear_array(n, field),
                square_array(rows, n // rows, field),
                custom_array(positions, field),
            ]
            for geom, omega, nn in itertools.product(
                geoms, (0.0, 2e-3, 0.5), (False, True)
            ):
                h = build_hamiltonian(qp(4.9), pair_couplings(geom, omega, nn), n)
                v = rng.normal(size=h.dim)
                err = np.max(np.abs(h.apply(v) - h.matrix @ v))
                assert err <= 1e-12 * np.max(np.abs(h.matrix)), (n, geom, omega, nn)


def test_ground_state_above_the_dense_limit_matches_perturbation_theory(qp):
    # no dense reference exists at n = 15; first-order perturbation theory
    # gets p right to relative order omega/dw, which ARPACK on apply must meet
    n, omega = DENSE_LIMIT + 1, 1e-4
    q = qp(2.0)
    coups = pair_couplings(linear_array(n), omega)
    h = build_hamiltonian(q, coups, n)
    assert h.matrix is None
    p = p_not_all_zero(spectrum(h, 1).eigenvectors[:, 0])
    p_pert = p_not_all_zero(perturbative_ground_state(q, coups, n)[0])
    assert abs(p - p_pert) <= 2 * omega / q.dw * p_pert


def test_pair_strength_angular_landmarks(qp):
    # g = omega (1 - 3 cos^2 alpha) of one pair at unit separation: omega at
    # alpha = pi/2, -2 omega at alpha = 0, 0 at the magic angle arccos(1/sqrt(3))
    landmarks = [
        ((0, 0, 1), 1.0, 1e-15),
        ((1, 0, 0), -2.0, 1e-15),
        ((1, math.sqrt(2), 0), 0.0, 1e-12),
    ]
    for field, factor, tol in landmarks:
        coups = pair_couplings(linear_array(2, field), 1.0)
        ((_, _, g),) = build_hamiltonian(qp(2.0), coups, 2).couplings
        assert g == pytest.approx(factor, abs=tol), field


def test_equal_tables_give_equal_hashable_couplings(qp):
    # repeat solves are counted by the key (n, qp, couplings)
    a, b, c = (
        build_hamiltonian(qp(2.0), pair_couplings(linear_array(4), omega), 4)
        for omega in (1e-3, 1e-3, 2e-3)
    )
    assert a.couplings == b.couplings
    assert hash((a.n, a.qp, a.couplings)) == hash((b.n, b.qp, b.couplings))
    assert a.couplings != c.couplings


def test_capacity_and_index_errors(qp):
    with pytest.raises(CapacityError):
        build_hamiltonian(qp(2.0), NO_PAIRS, 25)
    with pytest.raises(IndexError):
        build_hamiltonian(qp(2.0), table((0, 2, 1e-3, 0.0)), 2)
    with pytest.raises(ValueError):
        build_hamiltonian(qp(2.0), NO_PAIRS, 0)


def test_table_columns_must_be_one_dimensional_of_one_length(qp):
    for bad in (
        PairCouplings([0, 0], [1, 2], [1e-3], [0.0, 0.0]),
        PairCouplings([[0]], [[1]], [[1e-3]], [[0.0]]),
    ):
        with pytest.raises(ValueError, match="1-D of one length"):
            build_hamiltonian(qp(2.0), bad, 3)


@pytest.mark.parametrize("i, j", [(1, 0), (1, 1)])
def test_misordered_pair_is_named_with_the_index_rule(qp, i, j):
    coupling = table((i, j, 1e-3, 0.0))
    with pytest.raises(IndexError, match=rf"\({i}, {j}\) breaks 0 <= i < j < n"):
        build_hamiltonian(qp(2.0), coupling, 3)


# ids give omega and the bond angle alpha in radians; a non-finite
# cos alpha is named by its own value
@pytest.mark.parametrize(
    "omega, cos_alpha",
    [
        pytest.param(math.nan, math.cos(1.0), id="nan-1.0"),
        pytest.param(math.inf, math.cos(1.0), id="inf-1.0"),
        pytest.param(1e-3, math.nan, id="0.001-nan"),
        pytest.param(1e-3, math.inf, id="0.001-inf"),
        pytest.param(1e308, 1.0, id="1e+308-0.0"),
    ],
)
def test_non_finite_coupling_strength_is_rejected(qp, omega, cos_alpha):
    # 1e308 at alpha = 0 (cos 1) overflows to -inf through the factor -2
    coupling = table((0, 2, omega, cos_alpha))
    for n in (3, DENSE_LIMIT + 1):
        with pytest.raises(ValueError, match=r"coupling \(0, 2\) has a non-finite"):
            build_hamiltonian(qp(2.0), coupling, n)
    with pytest.raises(ValueError, match=r"coupling \(0, 2\)"):
        perturbative_ground_state(qp(2.0), coupling, 3)


def test_p_not_all_zero_basics(qp, chain_spectrum):
    spec = spectrum(build_hamiltonian(qp(2.0), NO_PAIRS, 4), "all")
    assert p_not_all_zero(spec.eigenvectors[:, 0]) == 0.0
    with pytest.raises(NormalizationError):
        p_not_all_zero(np.ones(4))
    ground = chain_spectrum(4, 2.0, 1e-3).eigenvectors[:, 0]
    p = p_not_all_zero(ground)
    assert 0.0 < p < 1.0
    assert p + abs(ground[0]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_p_not_all_zero_keeps_precision_at_weak_coupling(chain_spectrum):
    # p ~ 1e-15 at Omega/B = 1e-7, where 1 - |v0|^2 keeps only a few bits
    ratios = [
        p_not_all_zero(chain_spectrum(6, 2.0, omega).eigenvectors[:, 0]) / omega**2
        for omega in (1e-5, 1e-6, 1e-7)
    ]
    assert max(ratios) / min(ratios) - 1.0 < 1e-3


def test_quadratic_coupling_ratio(chain_spectrum):
    p_small = p_not_all_zero(chain_spectrum(6, 2.0, 1e-5).eigenvectors[:, 0])
    p_large = p_not_all_zero(chain_spectrum(6, 2.0, 1e-4).eigenvectors[:, 0])
    assert p_large / p_small == pytest.approx(100.0, rel=0.05)


def test_gap_tracks_single_molecule_splitting(qp, chain_spectrum):
    q = qp(2.0)
    assert energy_gap(spectrum(build_hamiltonian(q, NO_PAIRS, 5), "all")) == pytest.approx(
        q.dw, abs=1e-12
    )
    for n in (2, 5, 9):
        gap = energy_gap(chain_spectrum(n, 2.0, 1e-4))
        assert abs(gap - q.dw) / q.dw <= 1e-3
    # deviation from dw is linear in the coupling
    dev = lambda omega: abs(energy_gap(chain_spectrum(4, 2.0, omega)) - q.dw)
    assert dev(0.04) / dev(0.02) == pytest.approx(2.0, rel=0.10)


def test_gap_requires_two_levels(qp):
    with pytest.raises(ValueError):
        energy_gap(spectrum(build_hamiltonian(qp(2.0), NO_PAIRS, 3), 1))


def test_thermal_limits_and_errors(qp, chain_spectrum):
    spec = chain_spectrum(3, 2.0, 1e-4)
    assert thermal_excitation(spec, 0.0) == 0.0
    assert thermal_excitation(spec, 1e9) == pytest.approx(1 - 2**-3, rel=1e-6)
    with pytest.raises(ValueError):
        thermal_excitation(spec, -1.0)
    partial = spectrum(
        build_hamiltonian(qp(2.0), pair_couplings(linear_array(3), 1e-4), 3), 2
    )
    with pytest.raises(InsufficientSpectrumError):
        thermal_excitation(partial, 0.01)


def test_thermal_two_level_boltzmann(qp):
    q = qp(2.0)
    spec = spectrum(build_hamiltonian(q, NO_PAIRS, 1), "all")
    assert thermal_excitation(spec, q.dw / math.log(2)) == pytest.approx(
        1 / 3, abs=1e-12
    )


def test_thermal_underflow_reports_zero_with_warning(chain_spectrum):
    spec = chain_spectrum(2, 2.0, 1e-4)
    with pytest.warns(UnderflowWarning):
        assert thermal_excitation(spec, 0.002) == 0.0


def test_perturbative_state_zero_coupling(qp):
    psi, bound = perturbative_ground_state(qp(2.0), NO_PAIRS, 3)
    want = np.zeros(8)
    want[0] = 1.0
    assert np.allclose(psi, want)
    assert bound == 0.0


def test_perturbative_overlap_and_bound(qp, chain_spectrum):
    q = qp(2.0)
    coups = pair_couplings(linear_array(2), 1e-4)
    psi, _ = perturbative_ground_state(q, coups, 2)
    exact = chain_spectrum(2, 2.0, 1e-4).eigenvectors[:, 0]
    assert abs(psi @ exact) ** 2 >= 1 - 1e-12
    coups = pair_couplings(linear_array(6), 1e-3)
    _, bound = perturbative_ground_state(q, coups, 6)
    p_exact = p_not_all_zero(chain_spectrum(6, 2.0, 1e-3).eigenvectors[:, 0])
    assert p_exact <= bound


def test_perturbation_rejects_degenerate_levels():
    flat = QubitPair(x=0.0, w0=1.0, w1=1.0, c0=0.3, c1=0.2, xme=0.1)
    with pytest.raises(PerturbationInvalidError):
        perturbative_ground_state(flat, table((0, 1, 1e-3, 0.0)), 2)


@settings(deadline=None, max_examples=20)
@given(
    st.integers(min_value=2, max_value=5),
    st.floats(min_value=0.0, max_value=5e-3),
    st.floats(min_value=0.5, max_value=6.0),
)
def test_hamiltonian_properties(n, omega, x):
    from polarq import qubit_pair, solve_pendular

    q = qubit_pair(solve_pendular(x))
    h = build_hamiltonian(q, pair_couplings(linear_array(n), omega), n)
    assert np.max(np.abs(h.matrix - h.matrix.T)) <= 1e-12
    spec = spectrum(h, "all")
    assert np.all(np.diff(spec.eigenvalues) >= -1e-12)
    p = p_not_all_zero(spec.eigenvectors[:, 0])
    assert 0.0 <= p <= 1.0
