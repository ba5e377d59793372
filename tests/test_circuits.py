"""Gate application, cluster states, and circuit serialization.

Every gate kernel is checked against a literal Kronecker-product unitary
assembled in the same big-endian convention (qubit 0 = leftmost factor).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarq.circuits import (
    Circuit,
    CircuitError,
    Gate,
    GraphError,
    StateVector,
    circuit_from_text,
    circuit_to_text,
    cluster_circuit,
    cluster_stabilizer_check,
    prepare_cluster_state,
    simulate,
)
from polarq.circuits import DiagonalUnitary, compile_diagonal, core

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]])
Z = np.diag([1, -1])


def rz(theta):
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def kron_1q(u, q, n):
    out = np.array([[1.0]])
    for k in range(n):
        out = np.kron(out, u if k == q else np.eye(2))
    return out


def kron_2q(name, a, b, n):
    """Projector decomposition: control a, second operand b."""
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    if name == "CNOT":
        return kron_pair(p0, np.eye(2), a, b, n) + kron_pair(p1, X, a, b, n)
    if name == "CZ":
        return kron_pair(p0, np.eye(2), a, b, n) + kron_pair(p1, Z, a, b, n)
    if name == "SWAP":
        return (
            kron_2q("CNOT", a, b, n)
            @ kron_2q("CNOT", b, a, n)
            @ kron_2q("CNOT", a, b, n)
        )
    raise AssertionError(name)


def kron_pair(ua, ub, a, b, n):
    out = np.array([[1.0 + 0j]])
    for k in range(n):
        out = np.kron(out, ua if k == a else ub if k == b else np.eye(2))
    return out


def dense_unitary(circuit):
    dim = 1 << circuit.n
    cols = []
    for b in range(dim):
        cols.append(simulate(circuit, StateVector.basis(circuit.n, b)).amplitudes)
    return np.array(cols).T


@pytest.mark.parametrize("name,u", [("H", H), ("X", X), ("Z", Z)])
@pytest.mark.parametrize("q,n", [(0, 1), (0, 3), (1, 3), (2, 3)])
def test_single_qubit_gates_match_kron(name, u, q, n):
    got = dense_unitary(Circuit(n=n, gates=(Gate(name, (q,)),)))
    assert np.max(np.abs(got - kron_1q(u, q, n))) < 1e-12


@pytest.mark.parametrize("q,n", [(0, 2), (1, 2), (2, 3)])
def test_rz_matches_kron(q, n):
    got = dense_unitary(Circuit(n=n, gates=(Gate("RZ", (q,), 0.7),)))
    assert np.max(np.abs(got - kron_1q(rz(0.7), q, n))) < 1e-12


def test_global_phase_gate():
    got = dense_unitary(Circuit(n=2, gates=(Gate("PHASE", (), -1.3),)))
    assert np.max(np.abs(got - np.exp(-1.3j) * np.eye(4))) < 1e-12


@pytest.mark.parametrize("name", ["CNOT", "CZ", "SWAP"])
@pytest.mark.parametrize("a,b,n", [(0, 1, 2), (1, 0, 2), (0, 2, 3), (2, 0, 3), (1, 2, 4)])
def test_two_qubit_gates_match_kron(name, a, b, n):
    got = dense_unitary(Circuit(n=n, gates=(Gate(name, (a, b)),)))
    assert np.max(np.abs(got - kron_2q(name, a, b, n))) < 1e-12


def test_cnot_truth_table():
    c = Circuit(n=2, gates=(Gate("CNOT", (0, 1)),))
    for src, dst in [(0b00, 0b00), (0b01, 0b01), (0b10, 0b11), (0b11, 0b10)]:
        out = simulate(c, StateVector.basis(2, src)).amplitudes
        assert out[dst] == pytest.approx(1.0)


def test_gate_sequencing_and_identities():
    c = Circuit(n=1, gates=(Gate("H", (0,)), Gate("H", (0,))))
    assert np.allclose(dense_unitary(c), np.eye(2), atol=1e-12)
    empty = Circuit(n=3, gates=())
    assert np.allclose(dense_unitary(empty), np.eye(8), atol=1e-15)
    chained = Circuit(n=2, gates=(Gate("X", (0,)),)).then(
        Circuit(n=2, gates=(Gate("CNOT", (0, 1)),))
    )
    assert simulate(chained).amplitudes[0b11] == pytest.approx(1.0)


def test_gate_count_and_nearest_neighbor_flag():
    c = Circuit(
        n=3,
        gates=(Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("CNOT", (1, 2))),
    )
    assert c.gate_count() == 3
    assert c.gate_count("CNOT") == 2
    assert c.nearest_neighbor
    far = Circuit(n=3, gates=(Gate("CNOT", (0, 2)),))
    assert not far.nearest_neighbor


@pytest.mark.parametrize(
    "gate",
    [
        Gate("H", (0, 1)),
        Gate("CNOT", (1, 1)),
        Gate("RZ", (0,)),
        Gate("H", (0,), theta=0.5),
        Gate("RZ", (0,), theta=float("nan")),
        Gate("PHASE", (0,), theta=0.5),
        Gate("Q", (0,)),
        Gate("H", (5,)),
    ],
)
def test_gate_validation(gate):
    with pytest.raises(CircuitError):
        Circuit(n=2, gates=(gate,))


@pytest.mark.parametrize(
    "gate",
    [
        Gate("X", (0.5,)),
        Gate("H", (1.0,)),
        Gate("CNOT", (0, True)),
        Gate("CZ", (False, 1)),
        Gate("RZ", ("0",), 0.5),
    ],
)
def test_qubit_indices_must_be_integers(gate):
    with pytest.raises(CircuitError, match="integers"):
        Circuit(n=2, gates=(gate,))


def test_numpy_integer_qubits_round_trip():
    c = Circuit(n=2, gates=(Gate("CNOT", (np.int64(1), np.int32(0))),))
    back = circuit_from_text(circuit_to_text(c))
    assert back.gates == (Gate("CNOT", (1, 0)),)
    assert np.array_equal(simulate(c).amplitudes, simulate(back).amplitudes)


def test_circuit_needs_a_qubit():
    with pytest.raises(CircuitError):
        Circuit(n=0, gates=())


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector(n=2, amplitudes=np.ones(4, dtype=complex))
    with pytest.raises(ValueError):
        StateVector(n=2, amplitudes=np.zeros(3, dtype=complex))
    with pytest.raises(ValueError):
        simulate(Circuit(n=2, gates=()), StateVector.basis(3, 0))


@pytest.mark.parametrize("index", [-1, 4, 100])
def test_basis_index_must_be_in_range(index):
    with pytest.raises(ValueError, match=r"outside \[0, 2\^2\)"):
        StateVector.basis(2, index)


def test_cluster_single_qubit_is_plus():
    state = prepare_cluster_state([], 1)
    assert np.allclose(state.amplitudes, np.full(2, 1 / np.sqrt(2)), atol=1e-12)
    assert cluster_stabilizer_check(state, []) == pytest.approx([1.0], abs=1e-12)


def test_cluster_two_qubit_amplitudes():
    state = prepare_cluster_state([(0, 1)], 2)
    want = np.array([1, 1, 1, -1]) / 2
    assert np.allclose(state.amplitudes, want, atol=1e-12)


def test_cluster_circuit_composition():
    c = cluster_circuit([(0, 1), (1, 2)], 3)
    assert c.gate_count("H") == 3
    assert c.gate_count("CZ") == 2
    checks = cluster_stabilizer_check(simulate(c), [(0, 1), (1, 2)])
    assert checks == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)


def test_stabilizer_detects_wrong_state():
    zeros = StateVector.basis(3, 0)
    # <000| X_a ... |000> = 0 for every vertex
    assert cluster_stabilizer_check(zeros, [(0, 1)]) == pytest.approx(
        [0.0, 0.0, 0.0], abs=1e-12
    )


def test_graph_validation():
    with pytest.raises(GraphError):
        cluster_circuit([(0, 0)], 3)
    with pytest.raises(GraphError):
        cluster_circuit([(0, 1), (1, 0)], 3)
    with pytest.raises(GraphError):
        cluster_circuit([(0, 5)], 3)


def test_serialization_round_trip_explicit():
    c = Circuit(
        n=4,
        gates=(
            Gate("H", (0,)),
            Gate("X", (1,)),
            Gate("Z", (3,)),
            Gate("RZ", (2,), -0.123456789012345),
            Gate("RZ", (1,), -0.0),
            Gate("CNOT", (0, 3)),
            Gate("PHASE", (), 2.5),
            Gate("CZ", (3, 1)),
            Gate("SWAP", (1, 2)),
        ),
    )
    text = circuit_to_text(c)
    assert text.startswith("# qubits=4\n")
    assert "RZ 1,-0.0\n" in text
    back = circuit_from_text(text)
    assert back.n == c.n
    assert back.gates == c.gates
    assert np.signbit(back.gates[4].theta)  # RZ(-0.0) == RZ(0.0) as dataclasses


def test_serialization_errors():
    with pytest.raises(CircuitError):
        circuit_from_text("H 0\n")
    with pytest.raises(CircuitError):
        circuit_from_text("# qubits=2\nQUUX 0\n")
    with pytest.raises(CircuitError):
        circuit_from_text("# qubits=2\nCNOT 0,x\n")
    with pytest.raises(CircuitError, match="distinct"):
        circuit_from_text("# qubits=2\nCZ 1,1\n")
    for text in (
        "# qubits=3\nH 0,1\n",
        "# qubits=3\nRZ 0\n",
        "# qubits=3\nPHASE 0,1.5\n",
        "# qubits=3\nCNOT 0\n",
        "# qubits=3\nSWAP 0,1,2\n",
        "# qubits=3\nCNOT 0,1,2\n",
        "# qubits=3\nRZ 0,0.5,7\n",
        "# qubits=abc\nH 0\n",
    ):
        with pytest.raises(CircuitError, match="line"):
            circuit_from_text(text)


@st.composite
def random_circuits(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    gates = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.sampled_from(["H", "X", "Z", "RZ", "PHASE", "CNOT", "CZ", "SWAP"]))
        if kind in ("CNOT", "CZ", "SWAP"):
            if n < 2:
                continue
            a = draw(st.integers(min_value=0, max_value=n - 1))
            b = draw(st.integers(min_value=0, max_value=n - 1).filter(lambda v: v != a))
            gates.append(Gate(kind, (a, b)))
        elif kind == "RZ":
            q = draw(st.integers(min_value=0, max_value=n - 1))
            theta = draw(st.floats(min_value=-10, max_value=10, allow_nan=False))
            gates.append(Gate("RZ", (q,), theta))
        elif kind == "PHASE":
            theta = draw(st.floats(min_value=-10, max_value=10, allow_nan=False))
            gates.append(Gate("PHASE", (), theta))
        else:
            q = draw(st.integers(min_value=0, max_value=n - 1))
            gates.append(Gate(kind, (q,)))
    return Circuit(n=n, gates=tuple(gates))


@settings(deadline=None, max_examples=40)
@given(random_circuits())
def test_serialization_round_trip_random(circuit):
    back = circuit_from_text(circuit_to_text(circuit))
    assert back.n == circuit.n
    assert back.gates == circuit.gates


@settings(deadline=None, max_examples=25)
@given(random_circuits())
def test_simulation_preserves_norm(circuit):
    out = simulate(circuit)
    assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-10)


def kron_gate(g, n):
    """Dense unitary of one gate from the 2x2 / 4x4 matrices, no simulate."""
    if g.name == "PHASE":
        return np.exp(1j * g.theta) * np.eye(1 << n)
    if g.name in ("CNOT", "CZ", "SWAP"):
        return kron_2q(g.name, *g.qubits, n)
    u = {"H": H, "X": X, "Z": Z}.get(g.name)
    return kron_1q(rz(g.theta) if u is None else u, g.qubits[0], n)


def kron_circuit(circuit):
    u = np.eye(1 << circuit.n, dtype=complex)
    for g in circuit.gates:
        u = kron_gate(g, circuit.n) @ u
    return u


def structured_circuit(rng, n):
    """Runs of non-H gates between H gates, some runs empty.

    Each run mixes X and SWAP (flips and wire moves), RZ right after X on
    the same wire (the flipped sign), and CZ right after CNOT on the same
    pair (terms on a combined mask).
    """
    def pair():
        a, b = rng.choice(n, 2, replace=False)
        return int(a), int(b)

    gates = []
    for _ in range(int(rng.integers(1, 5))):
        for _ in range(int(rng.integers(0, 9))):
            q = int(rng.integers(n))
            theta = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            kind = rng.integers(8 if n > 1 else 4)
            if kind == 0:
                gates.append(Gate("X", (q,)))
            elif kind == 1:
                gates += [Gate("X", (q,)), Gate("RZ", (q,), theta)]
            elif kind == 2:
                gates.append(Gate("Z", (q,)))
            elif kind == 3:
                gates.append(Gate("PHASE", (), theta))
            elif kind == 4:
                gates.append(Gate("SWAP", pair()))
            elif kind == 5:
                a, b = pair()
                gates += [Gate("CNOT", (a, b)), Gate("CZ", (a, b))]
            elif kind == 6:
                gates.append(Gate("CNOT", pair()))
            else:
                gates.append(Gate("CZ", pair()))
        for _ in range(int(rng.integers(0, 3))):
            gates.append(Gate("H", (int(rng.integers(n)),)))
    return Circuit(n=n, gates=tuple(gates))


def random_state(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n=n, amplitudes=amps / np.linalg.norm(amps))


@pytest.mark.parametrize("n", range(1, 7))
def test_simulate_matches_kron_product_unitary(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(30):
        circuit = structured_circuit(rng, n)
        u = kron_circuit(circuit)
        for _ in range(3):
            state = random_state(rng, n)
            got = simulate(circuit, state).amplitudes
            assert np.max(np.abs(got - u @ state.amplitudes)) < 1e-12


def sliced_gate(t, g):
    """One gate on the [2] * n amplitude tensor by numpy slicing, no simulate."""

    def at(*bits):
        """Index of the slice with each (qubit, value) in bits fixed."""
        ix = [slice(None)] * t.ndim
        for q, b in bits:
            ix[q] = b
        return tuple(ix)

    t = t.copy()
    if g.name == "PHASE":
        return t * np.exp(1j * g.theta)
    q = g.qubits[0]
    if g.name == "H":
        a0, a1 = t[at((q, 0))], t[at((q, 1))]
        return np.stack([a0 + a1, a0 - a1], axis=q) / np.sqrt(2)
    if g.name == "X":
        return np.flip(t, q).copy()
    if g.name == "SWAP":
        return np.swapaxes(t, *g.qubits).copy()
    if g.name == "Z":
        t[at((q, 1))] *= -1
    elif g.name == "RZ":
        t[at((q, 0))] *= np.exp(-0.5j * g.theta)
        t[at((q, 1))] *= np.exp(0.5j * g.theta)
    elif g.name == "CZ":
        t[at((q, 1), (g.qubits[1], 1))] *= -1
    else:
        b = g.qubits[1]
        i0, i1 = at((q, 1), (b, 0)), at((q, 1), (b, 1))
        t[i0], t[i1] = t[i1].copy(), t[i0].copy()
    return t


def test_simulate_moves_wires_at_twelve_qubits():
    """Wire-moving runs at n = 12 against gate-by-gate numpy slicing."""
    n = 12
    rng = np.random.default_rng(12)
    h_layer = [Gate("H", (q,)) for q in range(n)]
    lone_cnot = [Gate("X", (3,)), Gate("RZ", (3,), 0.7), Gate("CNOT", (2, 9))]
    swaps = [Gate("SWAP", (2 * k, 2 * k + 1)) for k in range(n // 2)]
    swaps += [Gate("X", (0,)), Gate("CZ", (0, 5)), Gate("RZ", (1,), -1.3)]
    ladder = [Gate("CNOT", (k, k + 1)) for k in range(n - 1)]
    ladder += [Gate("CZ", (0, n - 1)), Gate("RZ", (n - 1,), 0.4)]
    mixed = []
    for k in range(4):
        mixed += [
            Gate("H", (k,)), Gate("X", (k + 1,)),
            Gate("H", (k + 2,)), Gate("RZ", (k + 3,), 0.3 + k),
            Gate("H", (k + 4,)), Gate("CNOT", (k + 5, k)),
            Gate("H", (k + 6,)), Gate("CZ", (k + 7, k + 1)),
            Gate("H", (k + 8,)), Gate("SWAP", (k + 2, n - 1)),
        ]
    for run in (lone_cnot, swaps, ladder, mixed):
        circuit = Circuit(n=n, gates=tuple(h_layer + run + h_layer + run))
        state = random_state(rng, n)
        want = state.amplitudes.reshape([2] * n)
        for g in circuit.gates:
            want = sliced_gate(want, g)
        got = simulate(circuit, state).amplitudes
        assert np.max(np.abs(got - want.reshape(-1))) < 1e-12


def test_simulate_leaves_the_input_state_alone():
    state = StateVector(n=2, amplitudes=np.array([0.6, 0.0, 0.0, 0.8j]))
    before = state.amplitudes.copy()
    for gates in (
        (Gate("RZ", (0,), 0.3), Gate("CNOT", (0, 1)), Gate("H", (1,))),
        (),
        (Gate("X", (0,)),),
    ):
        out = simulate(Circuit(n=2, gates=gates), state)
        assert not np.shares_memory(out.amplitudes, state.amplitudes)
        assert np.array_equal(state.amplitudes, before)


def test_stabilizer_check_matches_dense_operators():
    rng = np.random.default_rng(3)
    for n in range(1, 6):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        edges = [e for e in pairs if rng.random() < 0.5]
        state = random_state(rng, n)
        want = []
        for a in range(n):
            k = kron_1q(X, a, n)
            for b in {b for e in edges if a in e for b in e if b != a}:
                k = kron_1q(Z, b, n) @ k
            want.append(float(np.vdot(state.amplitudes, k @ state.amplitudes).real))
        got = cluster_stabilizer_check(state, edges)
        assert np.max(np.abs(np.array(got) - want)) < 1e-12


def index_gather_stabilizers(state, edges):
    """<K_a> by gathering psi[y ^ e_a] over every basis index y."""
    n, amp = state.n, state.amplitudes
    index = np.arange(1 << n)
    out = []
    for a in range(n):
        nbrs = sum(1 << (n - 1 - b) for e in edges if a in e for b in e if b != a)
        sign = np.where(np.bitwise_count(index & nbrs) & 1, -1.0, 1.0)
        out.append(float(np.vdot(amp, sign * amp[index ^ (1 << (n - 1 - a))]).real))
    return out


def grid_edges(rows, cols):
    edges = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    return edges + [(v, v + cols) for v in range((rows - 1) * cols)]


@pytest.mark.parametrize(
    "n, edges",
    [
        (1, []),
        (4, [(0, 1)]),  # vertices 2 and 3 isolated
        (5, [(0, 1), (0, 2), (0, 3), (3, 4)]),  # vertex 0 has degree 3
        (7, [(3, b) for b in (0, 1, 2, 4, 5, 6)] + [(0, 6), (1, 2)]),
        (16, grid_edges(4, 4)),
    ],
)
def test_stabilizer_check_matches_an_index_gather(n, edges):
    rng = np.random.default_rng(n)
    states = [random_state(rng, n) for _ in range(2)]
    states.append(prepare_cluster_state(edges, n))
    for state in states:
        got = cluster_stabilizer_check(state, edges)
        want = index_gather_stabilizers(state, edges)
        assert np.max(np.abs(np.array(got) - want)) <= 1e-12


def per_gate_text(circuit):
    lines = [f"# qubits={circuit.n}"]
    for g in circuit.gates:
        parts = [str(q) for q in g.qubits]
        if g.theta is not None:
            parts.append(repr(g.theta))
        lines.append(f"{g.name} {','.join(parts)}" if parts else g.name)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [6, 8])
def test_compiled_circuit_text_matches_a_per_gate_formatter(n):
    theta = np.random.default_rng(n).uniform(-np.pi, np.pi, 1 << n)
    compiled = compile_diagonal(DiagonalUnitary.from_phases(theta), 1e-3)
    text = circuit_to_text(compiled)
    assert text.encode() == per_gate_text(compiled).encode()
    back = circuit_from_text(text)
    assert back.n == n and back.gates == compiled.gates


def test_circuit_text_keeps_the_sign_of_a_zero_angle():
    c = Circuit(n=1, gates=(Gate("RZ", (0,), 0.0), Gate("RZ", (0,), -0.0)))
    assert circuit_to_text(c) == "# qubits=1\nRZ 0,0.0\nRZ 0,-0.0\n"


def test_joining_and_compiling_check_each_gate_once(monkeypatch):
    calls = []
    check = core._check_gate

    def counting(g, n):
        calls.append(g)
        check(g, n)

    monkeypatch.setattr(core, "_check_gate", counting)
    n = 5
    theta = np.random.default_rng(1).uniform(-np.pi, np.pi, 1 << n)
    d = DiagonalUnitary.from_phases(theta)
    h_layer = Circuit(n=n, gates=tuple(Gate("H", (q,)) for q in range(n)))
    compiled = compile_diagonal(d, 1e-10)
    assert len(calls) == n  # compiled gates are built valid, not re-checked
    joined = h_layer.then(compiled).then(h_layer)
    assert len(calls) == n
    assert joined.gates == h_layer.gates + compiled.gates + h_layer.gates
    with pytest.raises(CircuitError):
        h_layer.then(Circuit(n=n + 1, gates=()))
    circuit_from_text(circuit_to_text(compiled))
    assert len(calls) == n + compiled.gate_count()


def test_replays_fold_the_circuit_once(monkeypatch):
    calls = []
    walk = core._walk

    def counting(gates, start, n):
        calls.append(start)
        return walk(gates, start, n)

    monkeypatch.setattr(core, "_walk", counting)
    n = 4
    theta = np.random.default_rng(7).uniform(-np.pi, np.pi, 1 << n)
    h = Circuit(n=n, gates=(Gate("H", (1,)),))
    circ = h.then(compile_diagonal(DiagonalUnitary.from_phases(theta), 1e-10)).then(h)
    replays = [
        simulate(circ, StateVector.basis(n, b)).amplitudes for b in range(1 << n)
    ]
    assert len(calls) == 1 + circ.gate_count("H")
    for b, got in enumerate(replays):
        fresh = Circuit(n, circ.gates)
        assert np.array_equal(got, simulate(fresh, StateVector.basis(n, b)).amplitudes)


def test_joined_circuit_folds_its_own_gates():
    a = Circuit(n=2, gates=(Gate("X", (0,)), Gate("RZ", (1,), 0.4)))
    b = Circuit(n=2, gates=(Gate("H", (1,)), Gate("CNOT", (0, 1))))
    alone = simulate(a).amplitudes
    joined = simulate(a.then(b)).amplitudes
    fresh = simulate(Circuit(n=2, gates=a.gates + b.gates)).amplitudes
    assert np.array_equal(joined, fresh)
    assert not np.allclose(joined, alone)
    assert np.array_equal(simulate(a).amplitudes, alone)


def test_second_simulation_matches_the_dense_product():
    rng = np.random.default_rng(29)
    n = 4
    gates = (
        Gate("H", (0,)), Gate("X", (1,)), Gate("RZ", (1,), 0.9),
        Gate("SWAP", (0, 3)), Gate("H", (2,)), Gate("CNOT", (3, 1)),
        Gate("CZ", (1, 2)), Gate("X", (0,)), Gate("H", (3,)), Gate("SWAP", (1, 2)),
        Gate("CNOT", (2, 0)), Gate("RZ", (0,), -0.3),
    )
    circuit = Circuit(n=n, gates=gates)
    u = kron_circuit(circuit)
    for _ in range(2):
        state = random_state(rng, n)
        got = simulate(circuit, state).amplitudes
        assert np.max(np.abs(got - u @ state.amplitudes)) < 1e-12
