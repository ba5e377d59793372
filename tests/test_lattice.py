"""Array geometries and pairwise coupling lists."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarq import (
    DegenerateGeometryError,
    angular_factor,
    custom_array,
    linear_array,
    pair_couplings,
    square_array,
)


def _coupling(coups, i, j):
    for c in coups:
        if (c.i, c.j) == (i, j):
            return c
    raise KeyError((i, j))


def test_angular_factor_landmarks():
    assert angular_factor(math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert angular_factor(0.0) == pytest.approx(-2.0, abs=1e-15)
    assert angular_factor(math.acos(1 / math.sqrt(3))) == pytest.approx(0.0, abs=1e-12)


def test_linear_cubic_decay_exact():
    coups = pair_couplings(linear_array(5), 1e-3)
    assert len(coups) == 10
    for c in coups:
        assert c.omega == 1e-3 / (c.j - c.i) ** 3
        assert c.alpha == pytest.approx(math.pi / 2, abs=1e-12)
    assert _coupling(coups, 0, 2).omega == pytest.approx(1e-3 / 8, abs=0)


def test_square_diagonal_coupling():
    coups = pair_couplings(square_array(3, 3), 1.0)
    assert len(coups) == 36
    # row-major: 0 and 4 sit diagonally at distance sqrt(2)
    assert _coupling(coups, 0, 4).omega == pytest.approx(2 ** -1.5, rel=1e-12)
    assert _coupling(coups, 0, 1).omega == pytest.approx(1.0, abs=0)
    for c in coups:
        assert c.alpha == pytest.approx(math.pi / 2, abs=1e-12)


def test_custom_field_angles():
    # chain along x, field along x: alpha = 0 for every pair
    geom = custom_array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], field_direction=(1, 0, 0))
    for c in pair_couplings(geom, 1.0):
        assert c.alpha == pytest.approx(0.0, abs=1e-12)
        assert angular_factor(c.alpha) == pytest.approx(-2.0, abs=1e-12)
    # antiparallel separation gives alpha = pi, same factor
    geom = custom_array([[0, 0, 0], [-1, 0, 0]], field_direction=(1, 0, 0))
    (c,) = pair_couplings(geom, 1.0)
    assert c.alpha == pytest.approx(math.pi, abs=1e-12)


def test_relabeling_preserves_coupling_multiset():
    fwd = pair_couplings(linear_array(5), 0.7)
    pos = linear_array(5).positions[::-1].copy()
    rev = pair_couplings(custom_array(pos), 0.7)
    key = lambda c: (round(c.omega, 15), round(c.alpha, 12))
    assert sorted(map(key, fwd)) == sorted(map(key, rev))


def test_nearest_neighbors_only_switch():
    coups = pair_couplings(linear_array(4), 1.0, nearest_neighbors_only=True)
    assert [(c.i, c.j) for c in coups] == [(0, 1), (1, 2), (2, 3)]
    coups = pair_couplings(square_array(2, 2), 1.0, nearest_neighbors_only=True)
    assert [(c.i, c.j) for c in coups] == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_degenerate_and_invalid_inputs():
    with pytest.raises(DegenerateGeometryError):
        pair_couplings(custom_array([[0, 0, 0], [0, 0, 0]]), 1.0)
    with pytest.raises(ValueError):
        pair_couplings(linear_array(3), -1e-6)
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
    assert len(coups) == len(points) * (len(points) - 1) // 2
    pos = geom.positions
    for c in coups:
        assert 0.0 <= c.alpha <= math.pi
        d = np.linalg.norm(pos[c.j] - pos[c.i])
        assert c.omega == pytest.approx(omega_nn / d**3, rel=1e-12, abs=1e-300)
