"""Statevector circuit simulator over a small fixed gate vocabulary.

Gates: H, X, Z, RZ(theta), global PHASE(theta), CNOT, CZ, SWAP.  Qubit 0 is
the most significant bit of the basis index, matching the many-body module,
so reshaping an amplitude vector to [2]*n puts qubit q on axis q.
RZ(theta) = diag(e^{-i theta/2}, e^{+i theta/2}).

Simulation goes run by run.  Every gate but H sends a basis state to one
basis state times a phase, so a maximal run of non-H gates is an affine
map x -> Mx ^ f over GF(2) with a phase polynomial
phi(x) = c_0 + sum_s c_s (-1)^{popcount(s & x)} (Amy, Azimzadeh & Mosca,
arXiv:1712.01859).  A circuit is folded once, on its first simulation:
one Python pass over its gates builds each run's M, f and coefficients
c_s, and the circuit keeps that schedule, O(gates) in size, for every
later replay.  The state then takes, per run, one in-place multiply by a
phase table and at most one permutation, a scatter through an index
array.  Each H is one butterfly.  A run of g gates thus costs O(g)
Python steps once per circuit, and a few passes over the 2^n amplitudes
per simulation; its phase table, over the k qubits its terms touch,
costs O(k 2^k) to build on every simulation.

Circuits serialize one gate per line as ``GATE q[,q2][,theta]`` under a
``# qubits=N`` header; the round-trip is exact because angles are written
with repr.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .. import _blas

# each gate's qubit count and whether it takes an angle
GATES = {
    "H": (1, False),
    "X": (1, False),
    "Z": (1, False),
    "RZ": (1, True),
    "PHASE": (0, True),
    "CNOT": (2, False),
    "CZ": (2, False),
    "SWAP": (2, False),
}
# most qubits, or molecules in the many-body module, a state vector may hold
MAX_QUBITS = 24

_SQRT_HALF = math.sqrt(0.5)


class CircuitError(ValueError):
    """Malformed gate: bad name, bad qubit index, or missing angle."""


class GraphError(ValueError):
    """Graph is not simple (self-loop or repeated edge)."""


@dataclass(frozen=True)
class Gate:
    """One gate: name, qubit tuple (empty for PHASE), optional angle."""

    name: str
    qubits: tuple[int, ...] = ()
    theta: float | None = None


def _check_gate(g: Gate, n: int) -> None:
    if g.name not in GATES:
        raise CircuitError(f"unknown gate {g.name!r}")
    arity, takes_angle = GATES[g.name]
    if len(g.qubits) != arity:
        raise CircuitError(f"{g.name} takes {arity} qubits, got {g.qubits}")
    for q in g.qubits:
        # type(), not isinstance: bool is an int subclass
        if type(q) is not int and not isinstance(q, np.integer):
            raise CircuitError(f"{g.name} qubits must be integers, got {g.qubits}")
        if not 0 <= q < n:
            raise CircuitError(f"{g.name} on {g.qubits} out of range for n={n}")
    if len(set(g.qubits)) != arity:
        raise CircuitError(f"{g.name} takes distinct qubits, got {g.qubits}")
    if takes_angle:
        if g.theta is None or not math.isfinite(g.theta):
            raise CircuitError(f"{g.name} needs a finite angle, got {g.theta}")
    elif g.theta is not None:
        raise CircuitError(f"{g.name} takes no angle")


@dataclass(frozen=True, eq=False)
class Circuit:
    """Ordered gate list on n qubits; validated on construction."""

    n: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise CircuitError(f"need at least one qubit, got n={self.n}")
        if self.n > MAX_QUBITS:
            raise CircuitError(f"n={self.n} exceeds the {MAX_QUBITS}-qubit cap")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            _check_gate(g, self.n)

    @property
    def nearest_neighbor(self) -> bool:
        """True iff every two-qubit gate acts on adjacent indices."""
        pairs = (g.qubits for g in self.gates if len(g.qubits) == 2)
        return all(abs(a - b) == 1 for a, b in pairs)

    def gate_count(self, name: str | None = None) -> int:
        if name is None:
            return len(self.gates)
        return sum(1 for g in self.gates if g.name == name)

    def then(self, other: "Circuit") -> "Circuit":
        if other.n != self.n:
            raise CircuitError(f"cannot join circuits on {self.n} and {other.n} qubits")
        # both operands were validated on the same n; skip re-checking
        return Circuit._trusted(self.n, self.gates + other.gates)

    @classmethod
    def _trusted(cls, n: int, gates: tuple[Gate, ...]) -> "Circuit":
        """A circuit whose gates the caller built valid on n; none is checked."""
        circuit = object.__new__(cls)
        object.__setattr__(circuit, "n", n)
        object.__setattr__(circuit, "gates", gates)
        return circuit

    @functools.cached_property
    def _runs(self) -> tuple[_Run, ...]:
        """The gates folded into their runs, once per circuit (see _walk).

        Gates are frozen, so the schedule cannot go stale, and it holds
        O(gates) numbers: no phase table or permutation index survives a
        simulation.
        """
        n, gates = self.n, self.gates
        identity = [1 << (n - 1 - q) for q in range(n)]
        runs = []
        i = 0
        while True:
            stop, masks, flips, terms, const = _walk(gates, i, n)
            terms = {s: c for s, c in terms.items() if c}
            qubits, index = _term_index(terms, n)
            runs.append(
                _Run(
                    qubits,
                    index,
                    np.fromiter(terms.values(), float, len(terms)),
                    const,
                    None if masks == identity and not any(flips) else (masks, flips),
                    gates[stop].qubits[0] if stop < len(gates) else None,
                )
            )
            if stop == len(gates):
                return tuple(runs)
            i = stop + 1


class _Run(NamedTuple):
    """One maximal run of non-H gates, folded, and the H that ends it.

    The phase is const plus values[j] times the Walsh character at
    position index[j] of a table over qubits; affine is (masks, flips) of
    _walk, or None when the run moves no basis state; h is the qubit of
    the closing H, None for the circuit's last run.
    """

    qubits: list[int]
    index: np.ndarray
    values: np.ndarray
    const: float
    affine: tuple[list[int], list[int]] | None
    h: int | None


@dataclass(frozen=True, eq=False)
class StateVector:
    """2^n complex amplitudes, unit norm, qubit 0 = most significant bit."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (1 << self.n,):
            raise ValueError(
                f"need {1 << self.n} amplitudes for n={self.n}, got {amp.shape}"
            )
        with _blas.single_thread(2 * amp.size):
            norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError("state vector is not normalized within 1e-10")
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def basis(cls, n: int, index: int = 0) -> "StateVector":
        if not 0 <= index < 1 << n:
            raise ValueError(f"basis index {index} outside [0, 2^{n}) for n={n}")
        amp = np.zeros(1 << n, dtype=complex)
        amp[index] = 1.0
        return cls(n=n, amplitudes=amp)


def fwht(a) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a length-2^m vector.

    out[x] = sum_s a[s] (-1)^{popcount(s & x)}, computed as m in-place
    reshape butterflies (x, y) -> (x + y, x - y) on a float copy of a.
    """
    out = np.array(a, dtype=float)
    h = 1
    while h < out.shape[0]:
        v = out.reshape(-1, 2, h)
        x = v[:, 0].copy()
        v[:, 0] += v[:, 1]
        np.subtract(x, v[:, 1], out=v[:, 1])
        h *= 2
    return out


def _apply_h(amp: np.ndarray, q: int, n: int, out: np.ndarray) -> None:
    """out = H on qubit q of amp, as one butterfly."""
    v = amp.reshape(1 << q, 2, -1)
    w = out.reshape(v.shape)
    np.add(v[:, 0], v[:, 1], out=w[:, 0])
    np.subtract(v[:, 0], v[:, 1], out=w[:, 1])
    out *= _SQRT_HALF


def _walk(gates, start: int, n: int):
    """Fold the gates from index start up to the next H into one affine map.

    Every gate but H sends a basis state x to a basis state y(x) times a
    phase exp(i phi(x)).  Output wire q carries
    y_q = parity(masks[q] & x) ^ flips[q], and phi(x) is const plus the
    Walsh terms c_s (-1)^{popcount(s & x)} in terms.  A wire bit v with
    mask m and flip f is (1 - (-1)^f chi_m) / 2, and CZ uses
    v_a v_b = (v_a + v_b - v_a xor v_b) / 2.  Masks use the basis-index
    bit of each qubit (qubit 0 = most significant).

    Returns (index of that H or len(gates), masks, flips, terms, const).
    """
    masks = [1 << (n - 1 - q) for q in range(n)]
    flips = [0] * n
    terms: dict[int, float] = {}
    const = 0.0
    quarter = 0.25 * math.pi
    stop = start
    while stop < len(gates):
        g = gates[stop]
        name, qs = g.name, g.qubits
        if name == "H":
            break
        stop += 1
        if name == "CNOT":
            c, t = qs
            masks[t] ^= masks[c]
            flips[t] ^= flips[c]
        elif name == "RZ":
            q = qs[0]
            m = masks[q]
            terms[m] = terms.get(m, 0.0) + (0.5 if flips[q] else -0.5) * g.theta
        elif name == "X":
            flips[qs[0]] ^= 1
        elif name == "SWAP":
            a, b = qs
            masks[a], masks[b] = masks[b], masks[a]
            flips[a], flips[b] = flips[b], flips[a]
        elif name == "CZ":
            a, b = qs
            sa = -quarter if flips[a] else quarter
            sb = -quarter if flips[b] else quarter
            ma, mb = masks[a], masks[b]
            terms[ma] = terms.get(ma, 0.0) - sa
            terms[mb] = terms.get(mb, 0.0) - sb
            sab = quarter if sa == sb else -quarter
            terms[ma ^ mb] = terms.get(ma ^ mb, 0.0) + sab
            const += quarter
        elif name == "Z":
            q = qs[0]
            m = masks[q]
            terms[m] = terms.get(m, 0.0) + (0.5 if flips[q] else -0.5) * math.pi
            const += 0.5 * math.pi
        else:  # PHASE
            const += g.theta
    return stop, masks, flips, terms, const


def _qubits_of(mask: int, n: int) -> list[int]:
    return [q for q in range(n) if mask >> (n - 1 - q) & 1]


def _on_qubits(values, qubits: list[int], n: int) -> np.ndarray:
    """Reshape a length-2^len(qubits) table to broadcast over [2] * n."""
    shape = [1] * n
    for q in qubits:
        shape[q] = 2
    return np.asarray(values).reshape(shape)


def _term_index(terms: dict, n: int) -> tuple[list[int], np.ndarray]:
    """The qubits the term masks touch, and each mask's index over them."""
    support = 0
    for s in terms:
        support |= s
    qubits = _qubits_of(support, n)
    index = np.empty(len(terms), dtype=np.intp)
    for j, s in enumerate(terms):
        u = 0
        for q in qubits:
            u = (u << 1) | (s >> (n - 1 - q) & 1)
        index[j] = u
    return qubits, index


def _phase_table(run: _Run, n: int) -> np.ndarray:
    """exp(i (const + sum_s c_s chi_s)) on the qubits the run's terms touch.

    The table is ready to broadcast over [2] * n; one FWHT of the
    coefficient vector gives every phase.  Term masks are distinct and
    nonzero, so the scatter puts each coefficient in its own slot.
    """
    coef = np.zeros(1 << len(run.qubits))
    coef[0] = run.const
    coef[run.index] = run.values
    return _on_qubits(np.exp(1j * fwht(coef)), run.qubits, n)


def _permute(
    amp: np.ndarray, masks: list[int], flips: list[int], n: int, out: np.ndarray
) -> None:
    """out[y(x)] = amp[x] for the affine map y of _walk, by one scatter.

    y = x ^ F ^ xor_j x_j (col_j ^ e_j) over the columns j of the linear
    part that differ from the identity, so the destination index table is
    arange(2^n) XORed with a broadcast table over those input bits.  At
    n = 20 on 2 vCPUs (one BLAS thread, best of 7) a lone CNOT or SWAP
    takes 6-9 ms and a 19-CNOT ladder 23-35 ms.  Copies tuned to wire
    moves or to few changed columns took about half as long on a lone
    gate, but are not kept: no task and no benchmark workload permutes
    the state, so nothing would measure them.
    """
    identity = [1 << (n - 1 - q) for q in range(n)]
    cols = [0] * n
    for q, m in enumerate(masks):
        for j in _qubits_of(m, n):
            cols[j] |= identity[q]
    changed = [j for j in range(n) if cols[j] != identity[j]]
    delta = np.array([sum(identity[q] for q in range(n) if flips[q])])
    for j in changed:
        delta = (delta[:, None] ^ np.array([0, cols[j] ^ identity[j]])).reshape(-1)
    y = np.arange(1 << n).reshape([2] * n)
    y ^= _on_qubits(delta, changed, n)
    out[y.reshape(-1)] = amp


def simulate(circuit: Circuit, state: StateVector | None = None) -> StateVector:
    """Run the circuit on a state; defaults to the |00...0> input.

    Each maximal run of gates other than H is one in-place phase multiply
    and at most one permutation (see _walk); each H is one butterfly.  The
    circuit is folded into those runs on its first simulation and replays
    the folded schedule after that.  The state is copied once into one of
    two buffers of 2^n amplitudes, which serve the whole circuit, so the
    input state is only read.
    """
    if state is None:
        state = StateVector.basis(circuit.n)
    if state.n != circuit.n:
        raise CircuitError(
            f"state on {state.n} qubits does not match circuit on {circuit.n}"
        )
    n = circuit.n
    amp, spare = state.amplitudes.copy(), np.empty_like(state.amplitudes)
    for run in circuit._runs:
        if len(run.values) or run.const:
            t = amp.reshape([2] * n)
            t *= _phase_table(run, n)
        if run.affine is not None:
            _permute(amp, *run.affine, n, spare)
            amp, spare = spare, amp
        if run.h is not None:
            _apply_h(amp, run.h, n, spare)
            amp, spare = spare, amp
    return StateVector(n=n, amplitudes=amp)


def _check_graph(edges, n: int) -> list[tuple[int, int]]:
    seen = set()
    out = []
    for a, b in edges:
        if a == b:
            raise GraphError(f"self-loop on vertex {a}")
        if not (0 <= a < n and 0 <= b < n):
            raise GraphError(f"edge ({a}, {b}) out of range for n={n}")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise GraphError(f"repeated edge {key}")
        seen.add(key)
        out.append(key)
    return out


def cluster_circuit(edges, n: int) -> Circuit:
    """H on every qubit, then CZ across every edge of the graph."""
    es = _check_graph(edges, n)
    h_layer = (Gate("H", (q,)) for q in range(n))  # lazy: Circuit checks n first
    return Circuit(n=n, gates=itertools.chain(h_layer, (Gate("CZ", e) for e in es)))


def cluster_stabilizer_check(state: StateVector, edges) -> list[float]:
    """<K_a> for every vertex, K_a = X_a prod_{b in N(a)} Z_b.

    Each expectation is +1 exactly when the state is the cluster state of
    the graph.
    """
    n = state.n
    es = _check_graph(edges, n)
    neighbors: dict[int, list[int]] = {a: [] for a in range(n)}
    for a, b in es:
        neighbors[a].append(b)
        neighbors[b].append(a)
    amp = state.amplitudes
    psi = amp.reshape([2] * n)
    out = []
    with _blas.single_thread(2 * amp.size):
        for a in range(n):
            # (X_a prod_b Z_b psi)[y] = (-1)^{sum_b y_b} psi[y ^ e_a]: axis a
            # flipped, times a +-1 parity table over the neighbor axes
            sign = np.ones(1)
            for _ in neighbors[a]:
                sign = np.concatenate([sign, -sign])
            moved = np.flip(psi, a) * _on_qubits(sign, sorted(neighbors[a]), n)
            out.append(float(np.vdot(amp, moved).real))
    return out


def prepare_cluster_state(edges, n: int) -> StateVector:
    """Cluster state of the graph, verified against its stabilizers.

    Raises:
        GraphError: graph has a self-loop or repeated edge.
    """
    return _checked_cluster_state(edges, n)[0]


def _checked_cluster_state(edges, n: int) -> tuple[StateVector, list[float]]:
    """Cluster state and its stabilizer expectations, each within 1e-10 of 1."""
    state = simulate(cluster_circuit(edges, n))
    checks = cluster_stabilizer_check(state, edges)
    if any(abs(v - 1.0) > 1e-10 for v in checks):
        raise AssertionError(f"stabilizer check failed: {checks}")
    return state, checks


def circuit_to_text(circuit: Circuit) -> str:
    """Serialize: header line, then one ``GATE q[,q2][,theta]`` per line.

    A compiled circuit repeats a few shared CNOT objects many times, so each
    gate object is formatted once.  The key is the object, not its value:
    RZ(0.0) and RZ(-0.0) are equal but print differently.
    """
    text: dict[int, str] = {}
    lines = [f"# qubits={circuit.n}"]
    for g in circuit.gates:
        line = text.get(id(g))
        if line is None:
            parts = [str(q) for q in g.qubits]
            if g.theta is not None:
                parts.append(repr(g.theta))
            line = text[id(g)] = f"{g.name} {','.join(parts)}" if parts else g.name
        lines.append(line)
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    """Parse the serialization produced by circuit_to_text.

    Raises:
        CircuitError: missing or malformed header, unknown gate, or a wrong
            number of arguments or a malformed one.
    """
    n = None
    gates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        header = line.startswith("#")
        name, _, rest = line.partition(" ")
        args = rest.split(",") if rest.strip() else []
        if not header:
            if name not in GATES:
                raise CircuitError(f"line {lineno}: unknown gate {name!r}")
            arity, takes_angle = GATES[name]
            want = arity + takes_angle
            if len(args) != want:
                raise CircuitError(
                    f"line {lineno}: {name} takes {want} arguments, got {len(args)}"
                )
        try:
            if header:
                body = line.lstrip("#").strip()
                if body.startswith("qubits="):
                    n = int(body.removeprefix("qubits="))
            else:
                theta = float(args[-1]) if takes_angle else None
                gates.append(Gate(name, tuple(map(int, args[:arity])), theta))
        except ValueError as exc:
            raise CircuitError(f"line {lineno}: cannot parse {line!r}") from exc
    if n is None:
        raise CircuitError("missing '# qubits=N' header")
    return Circuit(n=n, gates=tuple(gates))
