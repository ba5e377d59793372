"""Empirical formulas for excitation probability and pairwise concurrence.

Two fitted closed forms summarize the exact diagonalization results:

  P  ~  (N - 2) * f(x) * (10^4 * Omega/B)^2        with f an asymmetric
                                                    double-sigmoid in x,
  C_nn  ~  K(x) * Omega/B                           with K a single sigmoid.

Both parameter sets are frozen defaults on their dataclasses.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

# Stated calibration window of the P fit: N > 3, 0 < x <= 8, Omega/B <= 1e-2.
P_FIT_OMEGA_MAX = 1e-2
P_FIT_X_MAX = 8.0

# Calibration of the K fit: exact n = 2 concurrence per coupling C/Omega at
# Omega/B = 1e-3 on the grid x = 0.5, 0.6, ..., 5.0, as printed by
# scripts/fit_residual_report.py.  FitParamsK() stays within
# K_FIT_MAX_REL_ERROR of it there.
K_FIT_X_MIN = 0.5
K_FIT_X_MAX = 5.0
K_FIT_X_STEP = 0.1
K_FIT_MAX_REL_ERROR = 0.032


class ValidityWarning(UserWarning):
    """Inputs fall outside the calibration window of a fitted formula."""


@dataclass(frozen=True)
class FitParamsF:
    """Double-sigmoid parameters of f(x) in the excitation-probability fit."""

    y0: float = 3.25724e-11
    a: float = 8.89294e-10
    xc: float = 0.78549
    dx1: float = 0.28914
    dx2: float = 1.50288


@dataclass(frozen=True)
class FitParamsK:
    """Sigmoid parameters of K(x) in the concurrence fit.

    Least-squares fit in relative error, with x0 >= 0, to the exact
    two-molecule C/Omega on K_FIT_X_MIN <= x <= K_FIT_X_MAX in steps of
    K_FIT_X_STEP.  The optimum midpoint sits on the bound x0 = 0.  The
    largest relative error on that grid is 3.14% (at x = 5), under the
    stated K_FIT_MAX_REL_ERROR = 3.2%.  Outside the window the error grows
    quickly: 16% at x = 6, 62% at x = 8.
    """

    a1: float = 0.0124
    a2: float = 0.3648
    x0: float = 0.0
    dx: float = 1.124


_PARAMS_F = FitParamsF()
_PARAMS_K = FitParamsK()


def f_of_x(x: float) -> float:
    """Asymmetric double sigmoidal f(x).

    f = y0 + A / (1 + e^{-(x-xc)/dx1}) * (1 - 1 / (1 + e^{-(x-xc)/dx2})).
    """
    if x <= 0:
        raise ValueError(f"f(x) is calibrated for x > 0, got {x}")
    params = _PARAMS_F
    rise = 1.0 / (1.0 + math.exp(-(x - params.xc) / params.dx1))
    fall = 1.0 - 1.0 / (1.0 + math.exp(-(x - params.xc) / params.dx2))
    return params.y0 + params.a * rise * fall


def p_fit(n: int, x: float, omega: float) -> float:
    """Fitted ground-state excitation probability (n - 2) f(x) (10^4 omega)^2.

    Inputs outside the calibration window (n > 3, 0 < x <= 8,
    0 <= omega <= 1e-2) emit a ValidityWarning but still evaluate.
    """
    if omega < 0:
        raise ValueError(f"omega must be >= 0, got {omega}")
    if n <= 3 or not 0 < x <= P_FIT_X_MAX or omega > P_FIT_OMEGA_MAX:
        warnings.warn(
            f"(n={n}, x={x}, omega={omega}) outside the fit's calibration "
            f"window n>3, 0<x<=8, omega<=1e-2",
            ValidityWarning,
            stacklevel=2,
        )
    return (n - 2) * f_of_x(x) * (1e4 * omega) ** 2


def k_of_x(x: float) -> float:
    """Concurrence-per-coupling factor K(x) = a1 + a2 / (1 + e^{(x-x0)/dx})."""
    if x < 0:
        raise ValueError(f"K(x) is calibrated for x >= 0, got {x}")
    params = _PARAMS_K
    return params.a1 + params.a2 / (1.0 + math.exp((x - params.x0) / params.dx))


def c_fit(x: float, omega: float) -> float:
    """Fitted nearest-neighbor concurrence K(x) * omega.

    Fields outside the calibration window K_FIT_X_MIN <= x <= K_FIT_X_MAX
    emit a ValidityWarning but still evaluate.
    """
    if omega < 0:
        raise ValueError(f"omega must be >= 0, got {omega}")
    if not K_FIT_X_MIN <= x <= K_FIT_X_MAX:
        warnings.warn(
            f"x={x} outside the concurrence fit's calibration window "
            f"{K_FIT_X_MIN}<=x<={K_FIT_X_MAX}",
            ValidityWarning,
            stacklevel=2,
        )
    return k_of_x(x) * omega
