"""Diagonal unitaries: nearest-neighbor compilation, IQP output probability,
and circulant-walk phases.

A diagonal D = diag(e^{i theta_b}) expands exactly over parity functions,
theta_b = sum_s a_s (-1)^{s.b}, with a = WHT(theta)/2^n.  Dropping a set of
coefficients with l1 weight <= eps perturbs every phase by at most eps, so
max_b |e^{i theta_b} - e^{i theta_hat_b}| <= eps: the compiler trades gates
for error by discarding the smallest |a_s| greedily within that budget.
Each kept term becomes a CNOT parity ladder onto the qubit of the most
significant set bit of s, one RZ(-2 a_s), and the unladder; a_0 is emitted
as an exact global phase.  Long-range CNOTs route through a SWAP chain
built from nearest-neighbor CNOTs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import MAX_QUBITS, Circuit, CircuitError, Gate, _qubits_of, fwht


@dataclass(frozen=True, eq=False)
class DiagonalUnitary:
    """Phases theta_b of D = diag(e^{i theta_b}), b = 0..2^n - 1."""

    n: int
    phases: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one qubit, got n={self.n}")
        p = np.asarray(self.phases, dtype=float)
        if p.shape != (1 << self.n,):
            raise ValueError(f"need {1 << self.n} phases for n={self.n}, got {p.shape}")
        # a Walsh sum adds 2^n phases and an RZ angle is -2 a_s; within this
        # bound neither overflows
        bound, largest = np.finfo(float).max / p.size, np.abs(p).max()
        if not largest <= bound:
            raise ValueError(
                f"phases must be finite with |theta| <= float_max / 2^n = {bound:.6g}"
                f" for n={self.n}, got max |theta| = {largest:.6g}"
            )
        object.__setattr__(self, "phases", p)

    @classmethod
    def from_phases(cls, phases) -> "DiagonalUnitary":
        p = np.asarray(phases, dtype=float)
        if p.ndim != 1 or p.size == 0 or p.size & (p.size - 1):
            raise ValueError(f"phase list length {p.shape} is not a power of two")
        return cls(n=p.size.bit_length() - 1, phases=p)

    def matrix(self) -> np.ndarray:
        return np.diag(np.exp(1j * self.phases))


def walsh_coefficients(d: DiagonalUnitary) -> np.ndarray:
    """a_s with theta_b = sum_s a_s (-1)^{popcount(s & b)}."""
    return fwht(d.phases) / d.phases.shape[0]


def long_range_cnot(control: int, target: int, n: int) -> Circuit:
    """CNOT(control, target) as nearest-neighbor CNOTs on a line.

    The control is walked next to the target by SWAPs (3 CNOTs each) and
    walked back after, for 6(m-1)+1 gates at distance m.

    Raises:
        CircuitError: control = target or an index is out of range.
    """
    if control == target:
        raise CircuitError(f"control and target coincide at {control}")
    if not (0 <= control < n and 0 <= target < n):
        raise CircuitError(f"({control}, {target}) out of range for n={n}")
    return Circuit(n=n, gates=_cnot_walk(control, target))


@functools.cache
def _cnot_walk(control: int, target: int) -> tuple[Gate, ...]:
    """Gates of long_range_cnot for indices it has already checked.

    Memoised: a compiled circuit repeats at most n(n-1)/2 ladders, whose
    frozen gates it shares.
    """
    step = 1 if target > control else -1
    walk = []
    pos = control
    while pos + step != target:
        walk += [
            Gate("CNOT", (pos, pos + step)),
            Gate("CNOT", (pos + step, pos)),
            Gate("CNOT", (pos, pos + step)),
        ]
        pos += step
    return (*walk, Gate("CNOT", (pos, target)), *walk[::-1])


def compile_diagonal(d: DiagonalUnitary, eps: float) -> Circuit:
    """Nearest-neighbor circuit within spectral-norm error eps of D.

    Coefficients are dropped smallest-|a_s| first while the dropped l1
    weight stays <= eps; eps at or above the total weight yields the bare
    global-phase circuit.
    """
    if not eps > 0:
        raise ValueError(f"error budget must be > 0, got {eps}")
    n = d.n
    a = walsh_coefficients(d)
    # each gate below is built valid: DiagonalUnitary's bound keeps its angles finite
    order = sorted(range(1, 1 << n), key=lambda s: (abs(a[s]), s))
    dropped = set()
    budget = 0.0
    for s in order:
        if budget + abs(a[s]) <= eps:
            budget += abs(a[s])
            dropped.add(s)
        else:
            break
    gates: list[Gate] = []
    if a[0] != 0.0:
        gates.append(Gate("PHASE", (), float(a[0])))
    for s in range(1, 1 << n):
        if s in dropped or a[s] == 0.0:
            continue
        qs = _qubits_of(s, n)
        target = qs[0]
        ladder: list[Gate] = []
        for q in qs[1:]:
            ladder += _cnot_walk(q, target)
        gates += ladder
        gates.append(Gate("RZ", (target,), -2.0 * float(a[s])))
        gates += ladder[::-1]
    return Circuit._trusted(n, tuple(gates))


def iqp_probability(d: DiagonalUnitary) -> float:
    """p(00...0) of the circuit H^{x n} D H^{x n} on |00...0>.

    The Hadamard sandwich turns the diagonal into a plain average:
    p = |mean_b e^{i theta_b}|^2.
    """
    if d.n > MAX_QUBITS:
        raise ValueError(f"n={d.n} exceeds the {MAX_QUBITS}-qubit cap")
    return float(abs(np.mean(np.exp(1j * d.phases))) ** 2)


def circulant_walk_phases(eigenvalues, t: float) -> DiagonalUnitary:
    """Phases of e^{-i Lambda t} for a circulant-graph walk.

    The eigenvalues are the DFT of the adjacency first row; after Fourier
    diagonalization the walk is the diagonal with theta_k = -lambda_k * t.

    Raises:
        ValueError: eigenvalue count is not a power of two.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.shape[0] < 2 or lam.shape[0] & (lam.shape[0] - 1):
        raise ValueError(f"need 2^n eigenvalues, got shape {lam.shape}")
    return DiagonalUnitary.from_phases(-lam * t)
