"""Dipole-array geometries and their pair coupling table.

Sites live at fixed positions measured in units of the nearest-neighbor
spacing a, so a single dimensionless number omega_nn = Omega/B sets every
coupling: Omega_ij = omega_nn / r_ij^3.  The dipole-dipole interaction also
carries the angular factor 1 - 3 cos^2(alpha), with alpha the angle between
the pair separation and the external field; one table holds both per pair.
The built-in arrays put the field perpendicular to the array plane, so
cos alpha = 0 and the factor is 1 for every pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# Two sites closer than this (in units of a) make Omega_ij singular.
_MIN_SEPARATION = 1e-9


class DegenerateGeometryError(ValueError):
    """Two sites coincide, so r_ij^-3 diverges."""


@dataclass(frozen=True, eq=False)
class ArrayGeometry:
    """Site positions (units of a) and the field direction.

    kind is "linear", "square" or "custom"; it is informational only, all
    coupling math goes through positions and field_direction.

    Raises:
        DegenerateGeometryError: two sites coincide.
    """

    kind: str
    positions: np.ndarray
    field_direction: np.ndarray = field(
        default_factory=lambda: np.array([0.0, 0.0, 1.0])
    )

    def __post_init__(self) -> None:
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got shape {pos.shape}")
        if pos.shape[0] < 1:
            raise ValueError("geometry needs at least one site")
        if not np.isfinite(pos).all():
            raise ValueError(f"positions must be finite, got {pos.tolist()}")
        f = np.asarray(self.field_direction, dtype=float)
        norm = np.linalg.norm(f)
        if f.shape != (3,) or not np.isfinite(f).all() or norm < _MIN_SEPARATION:
            raise ValueError(
                f"field_direction must be a finite nonzero 3-vector, got {f}"
            )
        # squared separations summed one axis at a time, so the largest
        # temporary is N x N
        d2 = np.zeros((pos.shape[0], pos.shape[0]))
        for axis in pos.T:
            d2 += (axis[:, None] - axis) ** 2
        close = np.triu(d2 < _MIN_SEPARATION**2, 1)
        if close.any():
            i, j = np.argwhere(close)[0]
            raise DegenerateGeometryError(f"sites {i} and {j} coincide at {pos[i]}")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "field_direction", f / norm)

    @property
    def n_sites(self) -> int:
        return self.positions.shape[0]


def linear_array(n: int, field_direction=(0.0, 0.0, 1.0)) -> ArrayGeometry:
    """Chain of n sites along x with unit spacing, field along z by default."""
    if n < 1:
        raise ValueError(f"need at least one site, got n={n}")
    pos = np.zeros((n, 3))
    pos[:, 0] = np.arange(n)
    return ArrayGeometry(kind="linear", positions=pos, field_direction=field_direction)


def square_array(
    rows: int, cols: int, field_direction=(0.0, 0.0, 1.0)
) -> ArrayGeometry:
    """rows x cols square lattice in the xy plane, field along z by default.

    Sites are ordered row-major: site index i sits at (i // cols, i % cols).
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"lattice must have positive extents, got {rows}x{cols}")
    pos = np.zeros((rows * cols, 3))
    for r in range(rows):
        for c in range(cols):
            pos[r * cols + c, :2] = (r, c)
    return ArrayGeometry(kind="square", positions=pos, field_direction=field_direction)


def custom_array(positions, field_direction=(0.0, 0.0, 1.0)) -> ArrayGeometry:
    """Arbitrary site positions (units of a) with an arbitrary field direction."""
    return ArrayGeometry(
        kind="custom",
        positions=np.asarray(positions, dtype=float),
        field_direction=np.asarray(field_direction, dtype=float),
    )


class PairCouplings(NamedTuple):
    """Pair table, one entry per pair i < j: Omega_ij/B and cos(alpha_ij)."""

    i: np.ndarray
    j: np.ndarray
    omega: np.ndarray
    cos_alpha: np.ndarray


def pair_couplings(
    geom: ArrayGeometry, omega_nn: float, nearest_neighbors_only: bool = False
) -> PairCouplings:
    """Coupling table with omega = omega_nn / r_ij^3 for every pair i < j, row-major.

    Args:
        geom: site layout and field direction.
        omega_nn: Omega/B at unit separation, finite and >= 0.
        nearest_neighbors_only: keep only pairs at separation 1 (within 1e-9),
            the truncation used when studying whether long-range tails matter.
    """
    if not 0 <= omega_nn < math.inf:
        raise ValueError(f"omega_nn must be finite and >= 0, got {omega_nn}")
    # bit-identical to a per-pair loop: np.vecdot takes each row's dot product
    # with BLAS ddot, as r @ f and np.linalg.norm(r) do, and np.float_power
    # calls libm's pow, as a Python float's d**3 does and numpy's d**3 does not
    sites = np.arange(geom.n_sites)
    i, j = np.nonzero(sites[:, None] < sites)  # np.triu_indices(n, 1), 4x faster
    r = geom.positions[j] - geom.positions[i]
    d = np.sqrt(np.vecdot(r, r))
    cos_a = np.minimum(np.maximum(np.vecdot(r, geom.field_direction) / d, -1.0), 1.0)
    keep = np.abs(d - 1.0) <= 1e-9 if nearest_neighbors_only else slice(None)
    omega = omega_nn / np.float_power(d[keep], 3)
    return PairCouplings(i[keep], j[keep], omega, cos_a[keep])
