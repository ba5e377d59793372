#!/usr/bin/env python3
"""Print how well the fitted formulas track exact diagonalization.

Covers the excitation-probability fit over its (n, x, omega) grid and the
concurrence fit at n=2 over its calibration grid, and prints the max and
mean of the rel_error column per grid.  The exact values are the rows of the
fit-residuals task, so they match its CSV digit for digit.  The concurrence
part also refits K(x) to the exact values the way FitParamsK was obtained
(least squares in relative error, x0 >= 0) and prints the parameters it
finds.

Usage: python scripts/fit_residual_report.py
"""

import sys

import numpy as np
from scipy.optimize import least_squares

from polarq.cli import plan_config
from polarq.fits import K_FIT_X_MAX, K_FIT_X_MIN, K_FIT_X_STEP


def _rows(parameters: dict) -> np.ndarray:
    cfg = {"task": "fit-residuals", "parameters": parameters}
    return np.array(list(plan_config(cfg).rows))


def main() -> int:
    print("excitation-probability fit, linear chains")
    print(f"{'n':>3} {'x':>5} {'omega':>9} {'exact':>12} {'fit':>12} {'rel':>8}")
    rows = _rows({})
    for n, x, omega, exact, fit, rel in rows:
        print(
            f"{int(n):>3} {x:>5} {omega:>9.0e} {exact:>12.4e} "
            f"{fit:>12.4e} {rel:>8.2%}"
        )
    print(f"max {np.max(rows[:, 5]):.2%}  mean {np.mean(rows[:, 5]):.2%}")

    omega = 1e-3
    print(f"\nconcurrence fit, n=2, omega={omega:g}")
    print(f"{'x':>5} {'exact':>12} {'fit':>12} {'rel':>8}")
    xs = np.arange(K_FIT_X_MIN, K_FIT_X_MAX + K_FIT_X_STEP / 2, K_FIT_X_STEP)
    params = {"which": "concurrence", "x_values": xs.tolist(), "omega": omega}
    rows = _rows(params)
    for x, _, c, fit, rel in rows:
        print(f"{x:>5.2f} {c:>12.4e} {fit:>12.4e} {rel:>8.2%}")
    print(f"max {np.max(rows[:, 4]):.2%}  mean {np.mean(rows[:, 4]):.2%}")

    k_exact = rows[:, 2] / omega

    def rel_residuals(p):
        a1, a2, x0, dx = p
        return (a1 + a2 / (1.0 + np.exp((xs - x0) / dx))) / k_exact - 1.0

    refit = least_squares(
        rel_residuals,
        [0.01, 0.2, 1.0, 1.0],
        bounds=([-np.inf, -np.inf, 0.0, 1e-6], np.inf),
        x_scale="jac",
    )
    a1, a2, x0, dx = refit.x
    print(
        f"refit K(x): a1={a1:.4g} a2={a2:.4g} x0={x0:.4g} dx={dx:.4g}  "
        f"max {np.max(np.abs(refit.fun)):.2%}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
