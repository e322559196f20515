"""Statevector simulator over a clock / vector / ancilla register layout.

Conventions, fixed package-wide:

* Qubits are numbered 0..n-1 with qubit 0 the MOST significant bit of the
  flat amplitude index. The clock register occupies qubits [0, n_clock),
  the vector register the next n_vector qubits, and the single ancilla is
  the last (least significant) qubit.
* Reading the clock register as an integer therefore gives the binary
  eigenvalue estimate directly, most significant bit first.
* Operations are functional: they return new StateVector values and never
  mutate their inputs, so states are safe to share across callers.
* Measurement is post-selection: the simulator holds exact amplitudes, so
  measure_qubit forces the requested outcome and returns its probability
  instead of sampling, and extract_register reads the vector register on
  the slice HHL keeps (clock value 0, ancilla |1>).
* The clock-register QFT and its inverse are orthonormal FFTs along the
  clock axis, O(M log M) for each vector-and-ancilla column.
* Gates are 2x2 unitaries on one qubit, applied by reshaping the
  amplitudes so that the target forms the middle axis. Everything wider
  is a register-level operation: the clock-controlled evolution
  sum_m |m><m| (x) U^m runs in U's eigenbasis with one phase per clock
  value and eigenvector, and the QFT acts on the clock axis as a whole.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

NORM_ATOL = 1e-10
UNITARY_ATOL = 1e-10
ZERO_PROBABILITY = 1e-12


class PostSelectionError(ValueError):
    """Post-selected outcome has (near-)zero probability.

    Carries the offending probability as ``probability``.
    """

    def __init__(self, message: str, probability: float):
        super().__init__(message)
        self.probability = probability


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit counts for the clock and vector registers; one ancilla follows them."""

    n_clock: int
    n_vector: int

    def __post_init__(self):
        if self.n_clock < 1 or self.n_vector < 1:
            raise ValueError("clock and vector registers need at least one qubit each")

    @property
    def n_qubits(self) -> int:
        return self.n_clock + self.n_vector + 1

    @property
    def clock_qubits(self) -> range:
        return range(self.n_clock)

    @property
    def vector_qubits(self) -> range:
        return range(self.n_clock, self.n_clock + self.n_vector)

    @property
    def ancilla_qubit(self) -> int:
        return self.n_qubits - 1

    @property
    def clock_dim(self) -> int:
        return 1 << self.n_clock

    @property
    def vector_dim(self) -> int:
        return 1 << self.n_vector


@dataclass
class StateVector:
    """Amplitudes over the full register, unit norm after every gate."""

    layout: RegisterLayout
    amplitudes: np.ndarray

    def tensor(self) -> np.ndarray:
        """View shaped (clock_dim, vector_dim, 2); shares memory."""
        lay = self.layout
        return self.amplitudes.reshape(lay.clock_dim, lay.vector_dim, 2)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def clock_probabilities(self) -> np.ndarray:
        """Probability of each clock-register value, length clock_dim."""
        t = self.tensor()
        return np.sum(np.abs(t) ** 2, axis=(1, 2))


@dataclass(frozen=True)
class GateOp:
    """A single-qubit gate: a 2x2 unitary on one target qubit."""

    target: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"gate matrix is {m.shape}, expected (2, 2)")
        if np.abs(m.conj().T @ m - np.eye(2)).max() > UNITARY_ATOL:
            raise ValueError("gate matrix is not unitary")
        object.__setattr__(self, "matrix", m)


_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


@functools.lru_cache(maxsize=None)
def hadamard(target: int) -> GateOp:
    """The Hadamard gate on ``target``; built and checked once per qubit."""
    return GateOp(target, _H)


def init_state(layout: RegisterLayout, vector_amplitudes: np.ndarray) -> StateVector:
    """|0..0>_clock (x) |psi>_vector (x) |0>_ancilla from given amplitudes.

    The caller normalizes; a non-unit-norm input is rejected rather than
    silently rescaled.
    """
    psi = np.asarray(vector_amplitudes, dtype=complex)
    if psi.shape != (layout.vector_dim,):
        raise ValueError(
            f"vector amplitudes have length {psi.shape}, expected ({layout.vector_dim},)"
        )
    nrm = np.linalg.norm(psi)
    if nrm == 0.0:
        raise ValueError("vector amplitudes have zero norm")
    if abs(nrm - 1.0) > NORM_ATOL:
        raise ValueError(f"vector amplitudes must have unit norm, got {nrm:.12g}")
    amps = np.zeros(1 << layout.n_qubits, dtype=complex)
    amps.reshape(layout.clock_dim, layout.vector_dim, 2)[0, :, 0] = psi
    return StateVector(layout, amps)


def _check_qubit(layout: RegisterLayout, q: int):
    if not 0 <= q < layout.n_qubits:
        raise ValueError(f"qubit index {q} out of range for {layout.n_qubits} qubits")


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply one gate; linear in the amplitudes and norm preserving."""
    lay = state.layout
    _check_qubit(lay, gate.target)
    amps = state.amplitudes.reshape(1 << gate.target, 2, -1)
    return StateVector(lay, (gate.matrix @ amps).reshape(-1))


def apply_clock_controlled(
    state: StateVector, eigenvectors: np.ndarray, phases: np.ndarray
) -> StateVector:
    """Apply sum_m |m><m| (x) Q diag(phases[m]) Q^H on the clock and vector registers.

    ``eigenvectors`` is the unitary Q on the vector register and ``phases``
    a (clock_dim, vector_dim) table, so clock value m carries its own power
    of an operator that Q diagonalizes. The ancilla is untouched.
    """
    lay = state.layout
    # Rows are (clock value, ancilla) pairs, columns the vector register.
    rows = state.tensor().transpose(0, 2, 1).reshape(-1, lay.vector_dim)
    y = (rows @ eigenvectors.conj()).reshape(lay.clock_dim, 2, -1) * phases[:, None, :]
    out = (y.reshape(-1, lay.vector_dim) @ eigenvectors.T).reshape(lay.clock_dim, 2, -1)
    return StateVector(lay, out.transpose(0, 2, 1).reshape(-1))


def apply_qft(state: StateVector) -> StateVector:
    """Forward discrete Fourier transform on the clock register index.

    Amplitude j of the clock register goes to sum_k e^{+2 pi i jk/M} a_k /
    sqrt(M): numpy's orthonormal inverse FFT along the clock axis.
    """
    block = state.amplitudes.reshape(state.layout.clock_dim, -1)
    return StateVector(state.layout, np.fft.ifft(block, axis=0, norm="ortho").reshape(-1))


def apply_inverse_qft(state: StateVector) -> StateVector:
    """Inverse discrete Fourier transform on the clock register index.

    The adjoint of apply_qft: numpy's orthonormal forward FFT along the
    clock axis.
    """
    block = state.amplitudes.reshape(state.layout.clock_dim, -1)
    return StateVector(state.layout, np.fft.fft(block, axis=0, norm="ortho").reshape(-1))


def measure_qubit(
    state: StateVector, qubit: int, *, post_select: int
) -> tuple[int, float, StateVector]:
    """Post-select one qubit; returns (outcome, probability, collapsed state).

    The outcome is forced to ``post_select`` rather than sampled, since the
    simulator holds exact amplitudes; an outcome of (near-)zero probability
    raises PostSelectionError.
    """
    if post_select not in (0, 1):
        raise ValueError("post-selected outcome must be 0 or 1")
    lay = state.layout
    _check_qubit(lay, qubit)
    t = state.amplitudes.reshape(1 << qubit, 2, -1)
    p1 = float(np.sum(np.abs(t[:, 1]) ** 2))
    prob = p1 if post_select else 1.0 - p1
    if prob <= ZERO_PROBABILITY:
        raise PostSelectionError(
            f"post-selected outcome {post_select} on qubit {qubit} has probability "
            f"{prob:.3e}",
            probability=prob,
        )
    collapsed = np.zeros_like(t)
    collapsed[:, post_select] = t[:, post_select] / math.sqrt(prob)
    return post_select, prob, StateVector(lay, collapsed.reshape(-1))


def extract_register(state: StateVector) -> tuple[np.ndarray, float]:
    """Vector-register amplitudes on clock value 0 with the ancilla at |1>.

    Returns the renormalized 2^n_vector amplitudes and the norm of the
    raw slice (the amplitude weight sitting in that slice).
    """
    raw = state.tensor()[0, :, 1]
    nrm = float(np.linalg.norm(raw))
    if nrm <= math.sqrt(ZERO_PROBABILITY):
        raise ValueError(f"slice clock=0, ancilla=1 has zero norm ({nrm:.3e})")
    return raw / nrm, nrm
