"""Array geometries and their pair coupling table."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarq import (
    DegenerateGeometryError,
    custom_array,
    linear_array,
    pair_couplings,
    square_array,
)


def _pairs(coups):
    return list(zip(coups.i.tolist(), coups.j.tolist()))


def _omega(coups, i, j):
    return coups.omega[_pairs(coups).index((i, j))]


def _alpha(coups):
    return np.arccos(coups.cos_alpha)


def test_linear_cubic_decay_exact():
    coups = pair_couplings(linear_array(5), 1e-3)
    assert coups.i.size == 10
    for (i, j), omega, alpha in zip(_pairs(coups), coups.omega, _alpha(coups)):
        assert omega == 1e-3 / (j - i) ** 3
        assert alpha == pytest.approx(math.pi / 2, abs=1e-12)
    assert _omega(coups, 0, 2) == pytest.approx(1e-3 / 8, abs=0)


def test_square_diagonal_coupling():
    coups = pair_couplings(square_array(3, 3), 1.0)
    assert coups.i.size == 36
    # row-major: 0 and 4 sit diagonally at distance sqrt(2)
    assert _omega(coups, 0, 4) == pytest.approx(2 ** -1.5, rel=1e-12)
    assert _omega(coups, 0, 1) == pytest.approx(1.0, abs=0)
    for alpha in _alpha(coups):
        assert alpha == pytest.approx(math.pi / 2, abs=1e-12)


def test_custom_field_angles():
    # chain along x, field along x: alpha = 0 for every pair
    geom = custom_array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], field_direction=(1, 0, 0))
    coups = pair_couplings(geom, 1.0)
    for alpha, cos_a in zip(_alpha(coups), coups.cos_alpha):
        assert alpha == pytest.approx(0.0, abs=1e-12)
        assert 1 - 3 * cos_a**2 == pytest.approx(-2.0, abs=1e-12)
    # antiparallel separation gives alpha = pi, same factor
    geom = custom_array([[0, 0, 0], [-1, 0, 0]], field_direction=(1, 0, 0))
    (alpha,) = _alpha(pair_couplings(geom, 1.0))
    assert alpha == pytest.approx(math.pi, abs=1e-12)


def test_relabeling_preserves_coupling_multiset():
    fwd = pair_couplings(linear_array(5), 0.7)
    pos = linear_array(5).positions[::-1].copy()
    rev = pair_couplings(custom_array(pos), 0.7)
    key = lambda c: sorted(zip(np.round(c.omega, 15), np.round(_alpha(c), 12)))
    assert key(fwd) == key(rev)


def test_nearest_neighbors_only_switch():
    coups = pair_couplings(linear_array(4), 1.0, nearest_neighbors_only=True)
    assert _pairs(coups) == [(0, 1), (1, 2), (2, 3)]
    coups = pair_couplings(square_array(2, 2), 1.0, nearest_neighbors_only=True)
    assert _pairs(coups) == [(0, 1), (0, 2), (1, 3), (2, 3)]


def loop_couplings(geom, omega_nn, nearest_neighbors_only=False):
    """The per-pair loop that pair_couplings vectorises, as its reference."""
    pos, f = geom.positions, geom.field_direction
    rows = []
    for i in range(geom.n_sites):
        for j in range(i + 1, geom.n_sites):
            r = pos[j] - pos[i]
            d = float(np.linalg.norm(r))
            if nearest_neighbors_only and abs(d - 1.0) > 1e-9:
                continue
            cos_a = min(1.0, max(-1.0, float(r @ f / d)))
            rows.append((i, j, omega_nn / d**3, cos_a))
    return rows


def test_pair_couplings_equal_the_per_pair_loop_bit_for_bit():
    rng = np.random.default_rng(7)
    fields = [(0, 0, 1), (1, 0, 0), (1, 1, 1), (0.3, -0.7, 0.2)]
    geoms = [linear_array(n, f) for n in (1, 2, 5, 9) for f in fields]
    geoms += [square_array(r, c, f) for r, c in ((2, 3), (3, 3)) for f in fields]
    geoms += [
        custom_array(np.cumsum(rng.uniform(0.5, 1.5, (n, 3)), axis=0), rng.normal(size=3))
        for n in (2, 4, 7)
    ]
    for geom in geoms:
        for omega, nn in ((1e-3, False), (0.37, False), (1.0, True)):
            coups = pair_couplings(geom, omega, nn)
            table = (coups.i, coups.j, coups.omega, coups.cos_alpha)
            want = np.array(loop_couplings(geom, omega, nn)).reshape(-1, 4).T
            for got, column in zip(table, want, strict=True):
                assert got.tobytes() == column.astype(got.dtype).tobytes()


def test_degenerate_and_invalid_inputs():
    with pytest.raises(DegenerateGeometryError):
        pair_couplings(custom_array([[0, 0, 0], [0, 0, 0]]), 1.0)
    with pytest.raises(DegenerateGeometryError, match="sites 0 and 2 coincide"):
        custom_array([[0, 0, 0], [1, 0, 0], [0, 1e-10, 0]])
    with pytest.raises(ValueError):
        pair_couplings(linear_array(3), -1e-6)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            pair_couplings(linear_array(3), bad)
    with pytest.raises(ValueError):
        linear_array(0)
    with pytest.raises(ValueError):
        square_array(0, 3)
    with pytest.raises(ValueError):
        custom_array([[0, 0, 0]], field_direction=(0, 0, 0))
    with pytest.raises(ValueError):
        custom_array([[0, 0]])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            custom_array([[0, 0, 0], [bad, 0, 0]])
        with pytest.raises(ValueError, match="finite"):
            custom_array([[0, 0, 0]], field_direction=(bad, 0, 1))


def test_geometry_bookkeeping():
    geom = square_array(2, 3)
    assert geom.n_sites == 6
    assert geom.kind == "square"
    assert np.allclose(geom.positions[4], [1, 1, 0])
    assert np.linalg.norm(geom.field_direction) == pytest.approx(1.0, abs=1e-15)
    # field direction is normalized on construction
    geom = custom_array([[0, 0, 0]], field_direction=(0, 3, 4))
    assert np.allclose(geom.field_direction, [0, 0.6, 0.8])


@settings(deadline=None, max_examples=30)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=6),
        ),
        min_size=2,
        max_size=6,
        unique=True,
    ),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_coupling_properties(points, omega_nn):
    geom = custom_array([[float(a), float(b), float(c)] for a, b, c in points])
    coups = pair_couplings(geom, omega_nn)
    assert coups.i.size == len(points) * (len(points) - 1) // 2
    pos = geom.positions
    for i, j, omega, alpha in zip(coups.i, coups.j, coups.omega, _alpha(coups)):
        assert 0.0 <= alpha <= math.pi
        d = np.linalg.norm(pos[j] - pos[i])
        assert omega == pytest.approx(omega_nn / d**3, rel=1e-12, abs=1e-300)
