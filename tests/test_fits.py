"""Empirical fit formulas and their validity window."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polarq import (
    FitParamsF,
    FitParamsK,
    ValidityWarning,
    c_fit,
    f_of_x,
    k_of_x,
    p_fit,
    qubit_pair,
    solve_pendular,
)
from polarq.fits import K_FIT_MAX_REL_ERROR, K_FIT_X_MAX, K_FIT_X_MIN, K_FIT_X_STEP


def test_default_parameter_tables():
    f = FitParamsF()
    assert (f.y0, f.a, f.xc, f.dx1, f.dx2) == (
        3.25724e-11,
        8.89294e-10,
        0.78549,
        0.28914,
        1.50288,
    )
    k = FitParamsK()
    assert (k.a1, k.a2, k.x0, k.dx) == (0.0124, 0.3648, 0.0, 1.124)


def test_f_midpoint_structure():
    # at x = xc the rising sigmoid is exactly 1/2; the falling factor is
    # evaluated explicitly so the product form is pinned down
    p = FitParamsF()
    rise = 0.5
    fall = 1.0 - 1.0 / (1.0 + math.exp(-(0.0) / p.dx2))
    assert f_of_x(p.xc) == pytest.approx(p.y0 + p.a * rise * fall, rel=1e-12)


def test_f_frozen_value_and_shape():
    assert f_of_x(2.0) == pytest.approx(3.026848518263997e-10, rel=1e-12)
    assert f_of_x(0.1) < f_of_x(1.2)
    assert f_of_x(8.0) < f_of_x(1.2)
    with pytest.raises(ValueError):
        f_of_x(0.0)
    with pytest.raises(ValueError):
        f_of_x(-1.0)


def test_p_fit_frozen_and_scaling():
    assert p_fit(1000, 2.0, 1e-4) == pytest.approx(3.020794821227469e-07, rel=1e-12)
    assert p_fit(4, 2.0, 1e-4) == pytest.approx(2 * f_of_x(2.0), rel=1e-12)
    # quadratic in the coupling, linear in n - 2
    assert p_fit(6, 3.0, 2e-4) / p_fit(6, 3.0, 1e-4) == pytest.approx(4.0, rel=1e-12)
    assert p_fit(10, 3.0, 1e-4) / p_fit(6, 3.0, 1e-4) == pytest.approx(2.0, rel=1e-12)


def test_p_fit_warns_outside_window():
    with pytest.warns(ValidityWarning):
        p_fit(2, 2.0, 1e-4)
    with pytest.warns(ValidityWarning):
        p_fit(6, 2.0, 0.05)
    with pytest.warns(ValidityWarning):
        p_fit(6, 9.0, 1e-4)


def test_p_fit_silent_inside_window(recwarn):
    p_fit(4, 2.0, 1e-4)
    p_fit(100, 8.0, 1e-2)
    assert not [w for w in recwarn if issubclass(w.category, ValidityWarning)]


def test_k_midpoint_and_frozen_values():
    k = FitParamsK()
    assert k_of_x(k.x0) == pytest.approx(k.a1 + k.a2 / 2, rel=1e-12)
    assert k_of_x(2.0) == pytest.approx(0.06507064460162688, rel=1e-12)
    xs = np.linspace(0.25, 8.0, 40)
    vals = [k_of_x(x) for x in xs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_k_tracks_first_order_concurrence_over_window():
    # to first order in omega the n = 2 ground state mixes |11> into |00>
    # with amplitude omega xme^2 / (2 dw), so C / omega = xme^2 / dw; this
    # matches exact diagonalization to 3e-4 relative over the window
    xs = np.arange(K_FIT_X_MIN, K_FIT_X_MAX + K_FIT_X_STEP / 2, K_FIT_X_STEP)
    assert len(xs) == 46
    worst = 0.0
    for x in xs:
        qp = qubit_pair(solve_pendular(float(x)))
        k_pert = qp.xme**2 / qp.dw
        worst = max(worst, abs(k_of_x(float(x)) - k_pert) / k_pert)
    assert worst <= K_FIT_MAX_REL_ERROR
    assert FitParamsK().x0 >= 0


def test_c_fit_warns_only_outside_window(recwarn):
    c_fit(K_FIT_X_MIN, 1e-3)
    c_fit(K_FIT_X_MAX, 1e-3)
    assert not [w for w in recwarn if issubclass(w.category, ValidityWarning)]
    with pytest.warns(ValidityWarning):
        c_fit(8.0, 1e-3)
    with pytest.warns(ValidityWarning):
        c_fit(0.25, 1e-3)


def test_c_fit_is_linear_in_coupling():
    assert c_fit(2.0, 1e-3) == pytest.approx(k_of_x(2.0) * 1e-3, rel=1e-12)
    assert c_fit(2.0, 2e-3) / c_fit(2.0, 1e-3) == pytest.approx(2.0, rel=1e-12)


@given(
    st.integers(min_value=4, max_value=50),
    st.integers(min_value=4, max_value=50),
    st.floats(min_value=0.5, max_value=8.0),
)
def test_p_fit_affine_in_n(n1, n2, x):
    # (n - 2) prefactor means equal increments in n give equal increments in P
    p1 = p_fit(n1, x, 1e-3)
    p2 = p_fit(n2, x, 1e-3)
    if n1 == n2:
        assert p1 == p2
    else:
        per_site = (p2 - p1) / (n2 - n1)
        assert per_site == pytest.approx(p_fit(n1 + 1, x, 1e-3) - p1, rel=1e-9)
