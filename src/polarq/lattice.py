"""Dipole-array geometries and pairwise coupling lists.

Sites live at fixed positions measured in units of the nearest-neighbor
spacing a, so a single dimensionless number omega_nn = Omega/B sets every
coupling: Omega_ij = omega_nn / r_ij^3.  The dipole-dipole interaction also
carries the angular factor 1 - 3 cos^2(alpha), with alpha the angle between
the pair separation and the external field.  The built-in arrays put the
field perpendicular to the array plane, so alpha = pi/2 and the factor is 1
for every pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "field_direction", f / norm)

    @property
    def n_sites(self) -> int:
        return self.positions.shape[0]


def linear_array(n: int) -> ArrayGeometry:
    """Chain of n sites along x with unit spacing, field along z."""
    if n < 1:
        raise ValueError(f"need at least one site, got n={n}")
    pos = np.zeros((n, 3))
    pos[:, 0] = np.arange(n)
    return ArrayGeometry(kind="linear", positions=pos)


def square_array(rows: int, cols: int) -> ArrayGeometry:
    """rows x cols square lattice in the xy plane, field along z.

    Sites are ordered row-major: site index i sits at (i // cols, i % cols).
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"lattice must have positive extents, got {rows}x{cols}")
    pos = np.zeros((rows * cols, 3))
    for r in range(rows):
        for c in range(cols):
            pos[r * cols + c, :2] = (r, c)
    return ArrayGeometry(kind="square", positions=pos)


def custom_array(positions, field_direction=(0.0, 0.0, 1.0)) -> ArrayGeometry:
    """Arbitrary site positions (units of a) with an arbitrary field direction."""
    return ArrayGeometry(
        kind="custom",
        positions=np.asarray(positions, dtype=float),
        field_direction=np.asarray(field_direction, dtype=float),
    )


@dataclass(frozen=True)
class PairCoupling:
    """One unordered pair: Omega_ij/B and the field angle alpha in radians."""

    i: int
    j: int
    omega: float
    alpha: float


def angular_factor(alpha: float) -> float:
    """Orientation factor 1 - 3 cos^2(alpha) of the dipole-dipole interaction.

    1 at alpha = pi/2, -2 at alpha = 0, 0 at the magic angle arccos(1/sqrt(3)).
    """
    return 1.0 - 3.0 * math.cos(alpha) ** 2


def pair_couplings(
    geom: ArrayGeometry, omega_nn: float, nearest_neighbors_only: bool = False
) -> list[PairCoupling]:
    """Coupling list with omega = omega_nn / r_ij^3 for every pair i < j.

    Args:
        geom: site layout and field direction.
        omega_nn: Omega/B at unit separation, >= 0.
        nearest_neighbors_only: keep only pairs at separation 1 (within 1e-9),
            the truncation used when studying whether long-range tails matter.

    Raises:
        DegenerateGeometryError: two sites coincide.
    """
    if omega_nn < 0:
        raise ValueError(f"omega_nn must be >= 0, got {omega_nn}")
    pos = geom.positions
    f = geom.field_direction
    out: list[PairCoupling] = []
    for i in range(geom.n_sites):
        for j in range(i + 1, geom.n_sites):
            r = pos[j] - pos[i]
            d = float(np.linalg.norm(r))
            if d < _MIN_SEPARATION:
                raise DegenerateGeometryError(
                    f"sites {i} and {j} coincide at {pos[i]}"
                )
            if nearest_neighbors_only and abs(d - 1.0) > 1e-9:
                continue
            cos_a = min(1.0, max(-1.0, float(r @ f / d)))
            out.append(
                PairCoupling(i=i, j=j, omega=omega_nn / d**3, alpha=math.acos(cos_a))
            )
    return out
