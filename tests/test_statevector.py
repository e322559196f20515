"""Simulator tests: the clock Hadamard, QFT, post-selection, register extraction."""

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


def norm(state):
    return np.linalg.norm(state.amplitudes)


HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


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
        assert (lay.clock_dim, lay.vector_dim) == (16, 4)
        assert sv.StateVector(lay, np.zeros(1 << 7)).tensor().shape == (16, 4, 2)


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
        out = sv.apply_gate(state, 0)
        t = out.tensor()
        assert t[0, 0, 0] == pytest.approx(1 / math.sqrt(2))
        assert t[1, 0, 0] == pytest.approx(1 / math.sqrt(2))

    # the first, middle and last clock qubit of a (3, 3) layout
    @pytest.mark.parametrize(
        "qubit", [0, 1, 2], ids=["hadamard-first", "hadamard-middle", "hadamard-last"]
    )
    def test_matches_kron_operator(self, qubit):
        rng = np.random.default_rng(43)
        lay = sv.RegisterLayout(3, 3)
        dense = kron_operator(lay.n_qubits, (qubit,), HADAMARD)
        for _ in range(3):
            state = random_state(rng, lay)
            out = sv.apply_gate(state, qubit)
            assert np.abs(out.amplitudes - dense @ state.amplitudes).max() < 1e-12

    def test_rejects_out_of_range(self):
        # only the one clock qubit of LAYOUT takes a Hadamard
        state = sv.init_state(LAYOUT, np.array([1.0, 0.0]))
        for qubit in (-1, 1, 2):
            with pytest.raises(ValueError, match="out of range for the 1-qubit clock register"):
                sv.apply_gate(state, qubit)

    def test_norm_preserved_random_gates(self):
        rng = np.random.default_rng(7)
        lay = sv.RegisterLayout(2, 2)
        state = random_state(rng, lay)
        for qubit in (0, 1, 0):
            state = sv.apply_gate(state, qubit)
            assert norm(state) == pytest.approx(1.0, abs=1e-10)
        q = random_unitary(rng, lay.vector_dim)
        state = sv.apply_clock_controlled(state, q, evolution_phases(lay, [0.3, -1.1, 2.0, 0.7]))
        assert norm(state) == pytest.approx(1.0, abs=1e-10)

    def test_gate_linearity(self):
        rng = np.random.default_rng(8)
        lay = sv.RegisterLayout(2, 1)
        s1 = random_state(rng, lay)
        s2 = random_state(rng, lay)
        alpha, beta = 0.3 - 0.2j, 0.8 + 0.1j
        mix = sv.StateVector(lay, alpha * s1.amplitudes + beta * s2.amplitudes)
        for qubit in (0, 1):
            lhs = sv.apply_gate(mix, qubit).amplitudes
            rhs = (
                alpha * sv.apply_gate(s1, qubit).amplitudes
                + beta * sv.apply_gate(s2, qubit).amplitudes
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
        state = sv.apply_gate(state, 0)
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
        vector_qubits = tuple(range(lay.n_clock, lay.n_clock + lay.n_vector))
        for k in range(lay.n_clock):
            power = np.linalg.matrix_power(u, 1 << (lay.n_clock - 1 - k))
            dense = kron_operator(lay.n_qubits, vector_qubits, power, control=k) @ dense
        state = random_state(rng, lay)
        out = sv.apply_clock_controlled(state, q, evolution_phases(lay, eigenphases))
        assert np.abs(out.amplitudes - dense @ state.amplitudes).max() < 1e-12


class TestQFT:
    def test_single_qubit_acts_as_hadamard(self):
        state = sv.init_state(LAYOUT, np.array([1.0, 0.0]))
        via_qft = sv.apply_inverse_qft(state)
        via_h = sv.apply_gate(state, 0)
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


def ancilla_state(layout, ancilla0, ancilla1):
    """Clock value 0, vector amplitudes ``ancilla0`` on ancilla 0 and ``ancilla1`` on 1."""
    amps = np.zeros(1 << layout.n_qubits, dtype=complex)
    t = amps.reshape(layout.clock_dim, layout.vector_dim, 2)
    t[0, :, 0] = ancilla0
    t[0, :, 1] = ancilla1
    return sv.StateVector(layout, amps)


class TestMeasurement:
    """measure_qubit post-selects the ancilla on |1>."""

    def test_deterministic_outcome(self):
        state = ancilla_state(LAYOUT, [0.0, 0.0], [0.6, 0.8])  # ancilla |1>
        prob, collapsed = sv.measure_qubit(state)
        assert prob == pytest.approx(1.0)
        assert np.abs(collapsed.amplitudes - state.amplitudes).max() < 1e-15

    def test_post_select_half(self):
        half = 1 / math.sqrt(2)
        state = ancilla_state(LAYOUT, [half, 0.0], [0.0, half])
        prob, collapsed = sv.measure_qubit(state)
        assert prob == pytest.approx(0.5)
        assert collapsed.tensor()[0, 1, 1] == pytest.approx(1.0)
        assert norm(collapsed) == pytest.approx(1.0)

    def test_zero_probability_post_selection(self):
        state = sv.init_state(LAYOUT, np.array([1.0, 0.0]))  # ancilla |0>
        with pytest.raises(sv.PostSelectionError, match="ancilla outcome 1") as err:
            sv.measure_qubit(state)
        assert err.value.probability <= 1e-12

    def test_probabilities_sum_to_one(self):
        # the post-selected probability and the ancilla-0 mass, summed directly, make 1
        rng = np.random.default_rng(10)
        lay = sv.RegisterLayout(2, 2)
        for _ in range(5):
            state = random_state(rng, lay)
            p1, collapsed = sv.measure_qubit(state)
            p0 = float(np.sum(np.abs(state.tensor()[:, :, 0]) ** 2))
            assert p0 + p1 == pytest.approx(1.0, abs=1e-12)
            assert np.abs(collapsed.tensor()[:, :, 0]).max() == 0.0
            assert norm(collapsed) == pytest.approx(1.0, abs=1e-12)


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
