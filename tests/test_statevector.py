"""Simulator tests: gate semantics, QFT, measurement, register extraction."""

import math

import numpy as np
import pytest

from dense_reference import dft_matrix, kron_operator
from qpflow import statevector as sv

LAYOUT = sv.RegisterLayout(1, 1)


def random_state(rng, layout):
    amps = rng.standard_normal(1 << layout.n_qubits) + 1j * rng.standard_normal(
        1 << layout.n_qubits
    )
    return sv.StateVector(layout, amps / np.linalg.norm(amps))


def random_unitary(rng, dim):
    return np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]


_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def _ry(angle):
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]])


def _phase(angle):
    return np.diag([1.0, np.exp(1j * angle)])


# Gates on a 7-qubit register (3 clock, 3 vector, 1 ancilla).
GATE_CASES = [
    pytest.param(sv.hadamard(0), id="hadamard-first"),
    pytest.param(sv.hadamard(3), id="hadamard-middle"),
    pytest.param(sv.hadamard(6), id="hadamard-last"),
    pytest.param(sv.GateOp(4, _X), id="pauli_x"),
    pytest.param(sv.GateOp(2, _phase(0.7)), id="phase"),
    pytest.param(sv.GateOp(5, _ry(0.9)), id="ry"),
    pytest.param(sv.GateOp(1, random_unitary(np.random.default_rng(42), 2)), id="unitary"),
]


def clock_state(layout, clock_value, psi):
    """|clock_value>_clock (x) |psi>_vector (x) |0>_ancilla."""
    amps = np.zeros(1 << layout.n_qubits, dtype=complex)
    amps.reshape(layout.clock_dim, layout.vector_dim, 2)[clock_value, :, 0] = psi
    return sv.StateVector(layout, amps)


def evolution_phases(layout, eigenphases):
    """Phase table of U^m for U = diag(e^{i eigenphases}) in its own eigenbasis."""
    m = np.arange(layout.clock_dim)[:, None]
    return np.exp(1j * m * np.asarray(eigenphases)[None, :])


class TestLayout:
    def test_counts(self):
        lay = sv.RegisterLayout(4, 2)
        assert lay.n_qubits == 7
        assert list(lay.clock_qubits) == [0, 1, 2, 3]
        assert list(lay.vector_qubits) == [4, 5]
        assert lay.ancilla_qubit == 6


class TestInitState:
    def test_basis_placement(self):
        state = sv.init_state(LAYOUT, np.array([1.0, 0.0]))
        assert state.amplitudes[0] == 1.0
        assert np.abs(state.amplitudes[1:]).max() == 0.0

    def test_superposition_placement(self):
        state = sv.init_state(LAYOUT, np.array([1.0, 1.0]) / math.sqrt(2))
        t = state.tensor()
        assert t[0, 0, 0] == pytest.approx(1 / math.sqrt(2))
        assert t[0, 1, 0] == pytest.approx(1 / math.sqrt(2))
        assert np.sum(np.abs(state.amplitudes) > 0) == 2

    def test_rejects_non_unit_norm(self):
        with pytest.raises(ValueError, match="unit norm"):
            sv.init_state(LAYOUT, np.array([1.0, 1.0]))

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero norm"):
            sv.init_state(LAYOUT, np.array([0.0, 0.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            sv.init_state(LAYOUT, np.array([1.0, 0.0, 0.0]))


class TestGates:
    def test_hadamard_from_zero(self):
        state = sv.init_state(LAYOUT, np.array([1.0, 0.0]))
        out = sv.apply_gate(state, sv.hadamard(1))
        t = out.tensor()
        assert t[0, 0, 0] == pytest.approx(1 / math.sqrt(2))
        assert t[0, 1, 0] == pytest.approx(1 / math.sqrt(2))

    def test_pauli_x(self):
        state = sv.init_state(LAYOUT, np.array([1.0, 0.0]))
        out = sv.apply_gate(state, sv.GateOp(1, _X))
        assert out.tensor()[0, 1, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("gate", GATE_CASES)
    def test_matches_kron_operator(self, gate):
        rng = np.random.default_rng(43)
        lay = sv.RegisterLayout(3, 3)
        dense = kron_operator(lay.n_qubits, (gate.target,), gate.matrix)
        for _ in range(3):
            state = random_state(rng, lay)
            out = sv.apply_gate(state, gate)
            assert np.abs(out.amplitudes - dense @ state.amplitudes).max() < 1e-12

    def test_rejects_out_of_range(self):
        state = sv.init_state(LAYOUT, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="out of range"):
            sv.apply_gate(state, sv.hadamard(7))

    def test_rejects_non_unitary_block(self):
        with pytest.raises(ValueError, match="not unitary"):
            sv.GateOp(0, np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_norm_preserved_random_gates(self):
        rng = np.random.default_rng(7)
        lay = sv.RegisterLayout(2, 2)
        state = random_state(rng, lay)
        gates = [
            sv.hadamard(0),
            sv.GateOp(3, _X),
            sv.GateOp(2, _phase(0.7)),
            sv.GateOp(4, _ry(0.9)),
            sv.GateOp(1, random_unitary(rng, 2)),
        ]
        for gate in gates:
            state = sv.apply_gate(state, gate)
            assert state.norm() == pytest.approx(1.0, abs=1e-10)
        q = random_unitary(rng, lay.vector_dim)
        state = sv.apply_clock_controlled(state, q, evolution_phases(lay, [0.3, -1.1, 2.0, 0.7]))
        assert state.norm() == pytest.approx(1.0, abs=1e-10)

    def test_gate_linearity(self):
        rng = np.random.default_rng(8)
        lay = sv.RegisterLayout(2, 1)
        s1 = random_state(rng, lay)
        s2 = random_state(rng, lay)
        alpha, beta = 0.3 - 0.2j, 0.8 + 0.1j
        mix = sv.StateVector(lay, alpha * s1.amplitudes + beta * s2.amplitudes)
        for gate in (sv.hadamard(1), sv.GateOp(3, _ry(0.4)), sv.GateOp(0, random_unitary(rng, 2))):
            lhs = sv.apply_gate(mix, gate).amplitudes
            rhs = (
                alpha * sv.apply_gate(s1, gate).amplitudes
                + beta * sv.apply_gate(s2, gate).amplitudes
            )
            assert np.abs(lhs - rhs).max() < 1e-12

    # The clock-controlled evolution sum_m |m><m| (x) U^m, one register-level
    # operation in U's eigenbasis.

    def test_controlled_unitary_noop_when_control_zero(self):
        # clock value 0 carries U^0, the identity
        lay = sv.RegisterLayout(2, 1)
        state = clock_state(lay, 0, np.array([0.6, 0.8j]))
        q = random_unitary(np.random.default_rng(3), 2)
        out = sv.apply_clock_controlled(state, q, evolution_phases(lay, [0.4, 2.1]))
        assert np.abs(out.amplitudes - state.amplitudes).max() < 1e-15

    def test_controlled_unitary_power_squares(self):
        # U = diag(1, -1): clock value 2 carries U^2, the identity
        lay = sv.RegisterLayout(2, 1)
        state = clock_state(lay, 2, np.array([0.0, 1.0]))
        out = sv.apply_clock_controlled(state, np.eye(2), evolution_phases(lay, [0.0, math.pi]))
        assert np.abs(out.amplitudes - state.amplitudes).max() < 1e-12

    def test_controlled_phase(self):
        # on a one-qubit clock the evolution is a controlled phase gate
        lay = sv.RegisterLayout(1, 1)
        minus = np.array([1.0, -1.0]) / math.sqrt(2)
        state = sv.init_state(lay, minus)
        state = sv.apply_gate(state, sv.hadamard(0))
        out = sv.apply_clock_controlled(state, np.eye(2), evolution_phases(lay, [0.0, math.pi]))
        t = out.tensor()
        # control |1> branch got vector phases (1, e^{i pi}): |-> -> |+>
        assert t[1, 0, 0] == pytest.approx(0.5)
        assert t[1, 1, 0] == pytest.approx(0.5)

    def test_matches_controlled_powers(self):
        # each clock qubit k controls U^(2^(n_clock-1-k)), written densely
        rng = np.random.default_rng(44)
        lay = sv.RegisterLayout(3, 2)
        q = random_unitary(rng, lay.vector_dim)
        eigenphases = rng.uniform(-math.pi, math.pi, lay.vector_dim)
        u = (q * np.exp(1j * eigenphases)) @ q.conj().T
        dense = np.eye(1 << lay.n_qubits)
        for k in lay.clock_qubits:
            power = np.linalg.matrix_power(u, 1 << (lay.n_clock - 1 - k))
            dense = kron_operator(lay.n_qubits, tuple(lay.vector_qubits), power, control=k) @ dense
        state = random_state(rng, lay)
        out = sv.apply_clock_controlled(state, q, evolution_phases(lay, eigenphases))
        assert np.abs(out.amplitudes - dense @ state.amplitudes).max() < 1e-12


class TestQFT:
    def test_single_qubit_acts_as_hadamard(self):
        state = sv.init_state(LAYOUT, np.array([1.0, 0.0]))
        via_qft = sv.apply_inverse_qft(state)
        via_h = sv.apply_gate(state, sv.hadamard(0))
        assert np.abs(via_qft.amplitudes - via_h.amplitudes).max() < 1e-12

    def test_uniform_clock_maps_to_zero(self):
        lay = sv.RegisterLayout(2, 1)
        amps = np.zeros(1 << lay.n_qubits, dtype=complex)
        amps.reshape(4, 2, 2)[:, 0, 0] = 0.5  # (1/2, 1/2, 1/2, 1/2) on the clock
        out = sv.apply_inverse_qft(sv.StateVector(lay, amps))
        t = out.tensor()
        assert abs(t[0, 0, 0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("n_clock", range(1, 10))
    def test_matches_dft_matrix(self, n_clock):
        rng = np.random.default_rng(100 + n_clock)
        lay = sv.RegisterLayout(n_clock, 1)
        state = random_state(rng, lay)
        block = state.amplitudes.reshape(lay.clock_dim, -1)
        for transform, sign in ((sv.apply_qft, +1.0), (sv.apply_inverse_qft, -1.0)):
            expected = (dft_matrix(lay.clock_dim, sign) @ block).reshape(-1)
            assert np.abs(transform(state).amplitudes - expected).max() < 1e-12

    def test_inverse_of_forward(self):
        rng = np.random.default_rng(9)
        for n_clock in (1, 3, 6):
            lay = sv.RegisterLayout(n_clock, 1)
            state = random_state(rng, lay)
            out = sv.apply_inverse_qft(sv.apply_qft(state))
            assert np.abs(out.amplitudes - state.amplitudes).max() < 1e-10


class TestMeasurement:
    def test_deterministic_outcome(self):
        state = sv.init_state(LAYOUT, np.array([0.0, 1.0]))  # vector qubit |1>
        outcome, prob, _ = sv.measure_qubit(state, 1, post_select=1)
        assert outcome == 1
        assert prob == pytest.approx(1.0)

    def test_post_select_half(self):
        state = sv.init_state(LAYOUT, np.array([1.0, 1.0]) / math.sqrt(2))
        outcome, prob, collapsed = sv.measure_qubit(state, 1, post_select=1)
        assert prob == pytest.approx(0.5)
        assert collapsed.tensor()[0, 1, 0] == pytest.approx(1.0)
        assert collapsed.norm() == pytest.approx(1.0)

    def test_zero_probability_post_selection(self):
        state = sv.init_state(LAYOUT, np.array([1.0, 0.0]))
        with pytest.raises(sv.PostSelectionError) as err:
            sv.measure_qubit(state, 1, post_select=1)
        assert err.value.probability <= 1e-12

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(10)
        lay = sv.RegisterLayout(2, 2)
        state = random_state(rng, lay)
        for q in range(lay.n_qubits):
            _, p1, _ = sv.measure_qubit(state, q, post_select=1)
            _, p0, _ = sv.measure_qubit(state, q, post_select=0)
            assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


class TestExtractRegister:
    def test_clean_slice(self):
        lay = sv.RegisterLayout(2, 1)
        psi = np.array([0.6, 0.8])
        amps = np.zeros(1 << lay.n_qubits, dtype=complex)
        amps.reshape(4, 2, 2)[0, :, 1] = psi
        vec, norm = sv.extract_register(sv.StateVector(lay, amps))
        assert np.allclose(vec, psi)
        assert norm == pytest.approx(1.0)

    def test_mixed_ancilla_slice_norm(self):
        lay = sv.RegisterLayout(1, 1)
        psi = np.array([0.6, 0.8])
        amps = np.zeros(1 << lay.n_qubits, dtype=complex)
        t = amps.reshape(2, 2, 2)
        t[0, :, 0] = psi / math.sqrt(2)
        t[0, :, 1] = psi / math.sqrt(2)
        vec, norm = sv.extract_register(sv.StateVector(lay, amps))
        assert np.allclose(vec, psi)
        assert norm == pytest.approx(1 / math.sqrt(2))

    def test_zero_slice_raises(self):
        state = sv.init_state(LAYOUT, np.array([1.0, 0.0]))  # ancilla is |0>
        with pytest.raises(ValueError, match="zero norm"):
            sv.extract_register(state)
