"""Reduced density matrices, concurrence, and entanglement of formation.

The two-qubit pure-state closed form C = 2|ad - bc| serves as an
independent oracle for the spin-flip computation, and Werner
states pin the mixed-state branch analytically.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarq import (
    PairCouplings,
    build_hamiltonian,
    concurrence,
    entanglement_of_formation,
    linear_array,
    pair_couplings,
    pairwise_concurrence_map,
    reduce,
    spectrum,
    square_array,
)
from polarq.entangle import InvalidPairError, ReducedDensity

BELL = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)


def bell_rho():
    return np.outer(BELL, BELL)


def werner(p):
    return p * bell_rho() + (1 - p) * np.eye(4) / 4


def pure_concurrence_oracle(amps):
    a, b, c, d = amps
    return 2 * abs(a * d - b * c)


def test_reduce_product_state():
    state = np.zeros(8)
    state[0] = 1.0
    rho = reduce(state, 0, 1)
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    assert np.allclose(rho.matrix, want)


def test_reduce_keeps_bell_pair():
    # Bell pair on qubits 0,1; spectator |0> on qubit 2
    state = np.zeros(8, dtype=complex)
    state[0b000] = 1 / np.sqrt(2)
    state[0b110] = 1 / np.sqrt(2)
    rho = reduce(state, 0, 1)
    assert np.allclose(rho.matrix, bell_rho(), atol=1e-12)
    # tracing out the partner leaves a maximally mixed pair
    rho02 = reduce(state, 0, 2)
    assert np.allclose(rho02.matrix, np.diag([0.5, 0.0, 0.5, 0.0]), atol=1e-12)


def test_reduce_ghz_gives_classical_mixture():
    state = np.zeros(8)
    state[0b000] = state[0b111] = 1 / np.sqrt(2)
    rho = reduce(state, 0, 1)
    assert np.allclose(rho.matrix, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-12)


def test_reduce_index_order_swaps_basis():
    # |01> on (q0,q1) reads as |10> when the pair is requested as (1,0)
    state = np.zeros(4)
    state[0b01] = 1.0
    assert reduce(state, 0, 1).matrix[1, 1] == pytest.approx(1.0)
    assert reduce(state, 1, 0).matrix[2, 2] == pytest.approx(1.0)


def test_reduce_rejects_bad_pairs():
    state = np.zeros(8)
    state[0] = 1.0
    with pytest.raises(InvalidPairError):
        reduce(state, 0, 0)
    with pytest.raises(InvalidPairError):
        reduce(state, 0, 3)
    with pytest.raises(ValueError):
        reduce(np.zeros(6), 0, 1)
    with pytest.raises(ValueError, match="state vector"):
        reduce(np.eye(4) / 4, 0, 1)


def test_density_validation():
    with pytest.raises(ValueError):
        ReducedDensity(matrix=np.eye(3))
    skew = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    skew[0, 1] = 1e-3
    with pytest.raises(ValueError):
        ReducedDensity(matrix=skew)
    with pytest.raises(ValueError):
        ReducedDensity(matrix=np.eye(4, dtype=complex) / 2)


def test_concurrence_landmarks():
    assert concurrence(bell_rho()) == pytest.approx(1.0, abs=1e-10)
    product = np.zeros((4, 4))
    product[0, 0] = 1.0
    assert concurrence(product) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_concurrence_werner_closed_form(p):
    want = max(0.0, (3 * p - 1) / 2)
    assert concurrence(werner(p)) == pytest.approx(want, abs=1e-10)


def test_concurrence_rejects_unphysical_input():
    m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        concurrence(m)


def test_eof_landmarks_and_monotonicity():
    assert entanglement_of_formation(0.0) == 0.0
    assert entanglement_of_formation(1.0) == pytest.approx(1.0)
    assert entanglement_of_formation(0.5) == pytest.approx(0.35457890266527003, abs=1e-12)
    grid = np.linspace(0.0, 1.0, 100)
    vals = [entanglement_of_formation(c) for c in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        entanglement_of_formation(1.1)
    with pytest.raises(ValueError):
        entanglement_of_formation(-0.1)


def test_map_zero_coupling_is_unentangled(qp):
    h = build_hamiltonian(qp(2.0), PairCouplings([], [], [], []), 4)
    ground = spectrum(h, "all").eigenvectors[:, 0]
    cmap = pairwise_concurrence_map(ground)
    assert cmap.n_sites == 4
    assert all(v == pytest.approx(0.0, abs=1e-12) for v in cmap.entries.values())


def test_map_symmetric_access_and_subsets(qp, chain_spectrum):
    ground = chain_spectrum(4, 2.0, 1e-3).eigenvectors[:, 0]
    cmap = pairwise_concurrence_map(ground, pairs=[(2, 0), (1, 3)])
    assert set(cmap.entries) == {(0, 2), (1, 3)}
    assert cmap.value(0, 2) == cmap.value(2, 0)
    with pytest.raises(KeyError):
        cmap.value(0, 1)


def test_map_decays_along_chain(chain_spectrum):
    ground = chain_spectrum(5, 2.0, 1e-3).eigenvectors[:, 0]
    cmap = pairwise_concurrence_map(ground, pairs=[(0, 1), (0, 2), (0, 3)])
    c = [cmap.value(0, k) for k in (1, 2, 3)]
    assert c[0] > c[1] > c[2] >= 0.0
    assert c[1] / c[0] < 0.2


def test_weak_coupling_concurrence_is_small(chain_spectrum):
    ground = chain_spectrum(2, 2.0, 1e-4).eigenvectors[:, 0]
    cmap = pairwise_concurrence_map(ground)
    assert cmap.value(0, 1) < 1e-4


def test_ground_pair_matches_reduced_concurrence(chain_spectrum):
    ground = chain_spectrum(3, 2.0, 1e-3).eigenvectors[:, 0]
    cmap = pairwise_concurrence_map(ground)
    direct = concurrence(reduce(ground, 0, 1).matrix)
    assert cmap.value(0, 1) == pytest.approx(direct, abs=1e-14)


@pytest.mark.parametrize("omega", [1e-5, 1e-3])
@pytest.mark.parametrize(
    "geom", [linear_array(9), square_array(3, 3)], ids=["fig5a", "fig6a"]
)
def test_map_gives_the_bytes_of_each_pair_alone(qp, geom, omega):
    # the default ground states of fig5a and fig6a at both ends of their sweep;
    # a reversed or repeated pair reads the entry of (min, max)
    h = build_hamiltonian(qp(2.0), pair_couplings(geom, omega), 9)
    ground = spectrum(h, 1).eigenvectors[:, 0]
    pairs = [(0, k) for k in range(1, 9)] + [(5, 2), (0, 1), (8, 0), (3, 4), (4, 3)]
    cmap = pairwise_concurrence_map(ground, pairs)
    assert len(cmap.entries) == 10
    for i, j in pairs:
        alone = concurrence(reduce(ground, min(i, j), max(i, j)))
        assert np.float64(cmap.value(i, j)).tobytes() == np.float64(alone).tobytes()
    full = pairwise_concurrence_map(ground)
    assert len(full.entries) == 36
    assert all(full.entries[key] == value for key, value in cmap.entries.items())


def test_map_rejects_bad_pairs_and_states():
    state = np.zeros(8)
    state[0] = 1.0
    for pairs in ([(0, 1), (2, 2)], [(0, 3)], [(-1, 2)]):
        with pytest.raises(InvalidPairError):
            pairwise_concurrence_map(state, pairs)
    with pytest.raises(ValueError, match="normalized"):
        pairwise_concurrence_map(2 * state, [(0, 1)])


@pytest.mark.parametrize("imag", [0.0, 1.0], ids=["real", "complex"])
def test_map_holds_one_pair_copy_at_a_time(imag):
    # 120 pairs at n = 16: a stack of their 2^n copies would take 120 times
    # the state's size
    n = 16
    rng = np.random.default_rng(1)
    state = rng.normal(size=1 << n) + imag * 1j * rng.normal(size=1 << n)
    state /= np.linalg.norm(state)
    tracemalloc.start()
    try:
        cmap = pairwise_concurrence_map(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cmap.entries) == 120
    # one buffer for the pair's copy, and a complex copy's conjugate
    assert peak < 3 * state.nbytes


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=8, max_size=8))
def test_pure_two_qubit_closed_form(parts):
    amps = np.array(parts[:4]) + 1j * np.array(parts[4:])
    norm = np.linalg.norm(amps)
    if norm < 1e-3:
        return
    amps = amps / norm
    rho = np.outer(amps, amps.conj())
    assert concurrence(rho) == pytest.approx(
        pure_concurrence_oracle(amps), abs=5e-8
    )
