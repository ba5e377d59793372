"""Polar molecules in pendular states as qubit arrays.

Field-dressed rotor spectra, dipole-dipole coupled many-body Hamiltonians in
the qubit subspace, pairwise entanglement of the ground state, empirical
fits for excitation probability and concurrence, and a small gate-model
toolkit for the associated circuit constructions.
"""

from . import circuits
from .entangle import (
    ConcurrenceMap,
    ReducedDensity,
    concurrence,
    entanglement_of_formation,
    pairwise_concurrence_map,
    reduce,
)
from .fits import (
    FitParamsF,
    FitParamsK,
    ValidityWarning,
    c_fit,
    f_of_x,
    k_of_x,
    p_fit,
)
from .lattice import (
    ArrayGeometry,
    DegenerateGeometryError,
    PairCouplings,
    custom_array,
    linear_array,
    pair_couplings,
    square_array,
)
from .manybody import (
    CapacityError,
    QubitHamiltonian,
    Spectrum,
    UnderflowWarning,
    build_hamiltonian,
    energy_gap,
    p_not_all_zero,
    perturbative_ground_state,
    spectrum,
    thermal_excitation,
)
from .pendular import (
    ConvergenceError,
    PendularSolution,
    QubitPair,
    build_pendular_hamiltonian,
    cos_theta_matrix,
    qubit_pair,
    solve_pendular,
)

__version__ = "0.1.0"

__all__ = [
    "circuits",
    "ConcurrenceMap",
    "ReducedDensity",
    "concurrence",
    "entanglement_of_formation",
    "pairwise_concurrence_map",
    "reduce",
    "FitParamsF",
    "FitParamsK",
    "ValidityWarning",
    "c_fit",
    "f_of_x",
    "k_of_x",
    "p_fit",
    "ArrayGeometry",
    "DegenerateGeometryError",
    "PairCouplings",
    "custom_array",
    "linear_array",
    "pair_couplings",
    "square_array",
    "CapacityError",
    "QubitHamiltonian",
    "Spectrum",
    "UnderflowWarning",
    "build_hamiltonian",
    "energy_gap",
    "p_not_all_zero",
    "perturbative_ground_state",
    "spectrum",
    "thermal_excitation",
    "ConvergenceError",
    "PendularSolution",
    "QubitPair",
    "build_pendular_hamiltonian",
    "cos_theta_matrix",
    "qubit_pair",
    "solve_pendular",
    "__version__",
]
