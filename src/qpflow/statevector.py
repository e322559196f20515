"""Statevector simulator of the HHL circuit's clock / vector / ancilla registers.

Conventions, fixed package-wide:

* Qubits are numbered 0..n-1 with qubit 0 the MOST significant bit of the
  flat amplitude index. The clock register occupies qubits [0, n_clock),
  the vector register the next n_vector qubits, and the single ancilla is
  the last (least significant) qubit.
* Reading the clock register as an integer therefore gives the binary
  eigenvalue estimate directly, most significant bit first.
* A state may carry a spare amplitude buffer of its own size. With one,
  every state-sized stage works inside the state's two buffers through
  numpy's ``out=`` and returns a state that owns both, the result in one
  and the other as its spare, so a run of stages allocates no state-sized
  array. The input is consumed: a later stage overwrites its buffers, so
  keep only the latest state. Without a spare, a stage writes into fresh
  arrays and never mutates its input, so a spare-less state is safe to
  share across callers. Both take the same code and give the same
  amplitudes, bit for bit. hhl runs the circuit once per prepared system,
  on a probe input, so these buffers exist once per prepare, not once per
  solve: a solve applies the gain table read off that run.
* The circuit has one single-qubit gate, the Hadamard on a clock qubit,
  applied by reshaping the amplitudes so that the target forms the middle
  axis. Everything wider is a register-level operation: the
  clock-controlled evolution sum_m |m><m| (x) U^m runs in U's eigenbasis
  with one phase per clock value and eigenvector, and the QFT and its
  inverse are orthonormal FFTs along the clock axis, O(M log M) for each
  vector-and-ancilla column.
* The circuit has one measurement, post-selecting the ancilla on |1>. The
  simulator holds exact amplitudes, so measure_qubit forces that outcome
  and returns its probability instead of sampling, and extract_register
  reads the vector register on the slice HHL keeps (clock value 0,
  ancilla |1>).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NORM_ATOL = 1e-10
ZERO_PROBABILITY = 1e-12


class PostSelectionError(ValueError):
    """The ancilla's post-selected outcome |1> has (near-)zero probability.

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
    def clock_dim(self) -> int:
        return 1 << self.n_clock

    @property
    def vector_dim(self) -> int:
        return 1 << self.n_vector


@dataclass
class StateVector:
    """Amplitudes over the full register, unit norm after every gate.

    ``spare``, when set, is a complex buffer of the amplitudes' size that
    the next stage may overwrite (see the module docstring).
    """

    layout: RegisterLayout
    amplitudes: np.ndarray
    spare: np.ndarray | None = field(default=None, repr=False, compare=False)

    def tensor(self) -> np.ndarray:
        """View shaped (clock_dim, vector_dim, 2); shares memory."""
        lay = self.layout
        return self.amplitudes.reshape(lay.clock_dim, lay.vector_dim, 2)

    def clock_probabilities(self) -> np.ndarray:
        """Probability of each clock-register value, length clock_dim."""
        f = np.asarray(self.amplitudes, dtype=complex).view(float)
        f = f.reshape(self.layout.clock_dim, -1)
        return np.einsum("ij,ij->i", f, f)

    def destination(self) -> np.ndarray:
        """The buffer a stage writes its result into: the spare, else a fresh one."""
        if self.spare is not None:
            return self.spare
        return np.empty(self.amplitudes.shape, dtype=complex)

    def advanced(self, amplitudes: np.ndarray) -> StateVector:
        """The state a stage returns, on its result ``amplitudes``.

        With a spare, this state's amplitudes become the new state's spare.
        """
        spare = None if self.spare is None else self.amplitudes
        return StateVector(self.layout, amplitudes, spare)


# The circuit's one single-qubit gate, the Hadamard on each clock qubit.
_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


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


def apply_gate(state: StateVector, qubit: int) -> StateVector:
    """Apply the Hadamard to clock qubit ``qubit``; linear and norm preserving."""
    lay = state.layout
    if not 0 <= qubit < lay.n_clock:
        raise ValueError(
            f"qubit {qubit} is out of range for the {lay.n_clock}-qubit clock register"
        )
    out = state.destination()
    amps = state.amplitudes.reshape(1 << qubit, 2, -1)
    np.matmul(_H, amps, out=out.reshape(amps.shape))
    return state.advanced(out)


def apply_clock_controlled(
    state: StateVector, eigenvectors: np.ndarray, phases: np.ndarray
) -> StateVector:
    """Apply sum_m |m><m| (x) Q diag(phases[m]) Q^H on the clock and vector registers.

    ``eigenvectors`` is the unitary Q on the vector register and ``phases``
    a (clock_dim, vector_dim) table, so clock value m carries its own power
    of an operator that Q diagonalizes. The ancilla is untouched.

    The basis change ping-pongs between the destination and a second
    buffer: the input's own when the state has a spare (the input has been
    copied out by then), a fresh one when not. The result lands in that
    second buffer, and the destination becomes the result's spare.
    """
    lay = state.layout
    shape = (2, lay.clock_dim, lay.vector_dim)
    work = state.destination()
    out = state.amplitudes if state.spare is not None else np.empty_like(work)
    # Rows are (ancilla, clock value) pairs, columns the vector register; with
    # the ancilla outermost the phase table broadcasts without a buffer.
    rows, y = work.reshape(shape), out.reshape(shape)
    flat_rows, flat_y = work.reshape(-1, lay.vector_dim), out.reshape(-1, lay.vector_dim)
    np.copyto(rows, state.tensor().transpose(2, 0, 1))
    np.matmul(flat_rows, eigenvectors.conj(), out=flat_y)
    np.multiply(y, phases, out=y)
    np.matmul(flat_y, eigenvectors.T, out=flat_rows)
    np.copyto(out.reshape(lay.clock_dim, lay.vector_dim, 2), rows.transpose(1, 2, 0))
    return StateVector(lay, out, None if state.spare is None else work)


def apply_qft(state: StateVector) -> StateVector:
    """Forward discrete Fourier transform on the clock register index.

    Amplitude j of the clock register goes to sum_k e^{+2 pi i jk/M} a_k /
    sqrt(M): numpy's orthonormal inverse FFT along the clock axis.
    """
    out = state.destination()
    block = state.amplitudes.reshape(state.layout.clock_dim, -1)
    np.fft.ifft(block, axis=0, norm="ortho", out=out.reshape(block.shape))
    return state.advanced(out)


def apply_inverse_qft(state: StateVector) -> StateVector:
    """Inverse discrete Fourier transform on the clock register index.

    The adjoint of apply_qft: numpy's orthonormal forward FFT along the
    clock axis.
    """
    out = state.destination()
    block = state.amplitudes.reshape(state.layout.clock_dim, -1)
    np.fft.fft(block, axis=0, norm="ortho", out=out.reshape(block.shape))
    return state.advanced(out)


def measure_qubit(state: StateVector) -> tuple[float, StateVector]:
    """Post-select the ancilla on |1>; returns (probability, collapsed state).

    The outcome is forced rather than sampled, since the simulator holds
    exact amplitudes; a (near-)zero probability raises PostSelectionError.
    """
    # the ancilla is the last qubit: the middle axis of (half, 2, 1)
    t = state.amplitudes.reshape(-1, 2, 1)
    prob = float(np.sum(np.abs(t[:, 1]) ** 2))
    check_post_selection(prob)
    out = state.destination()
    collapsed = out.reshape(t.shape)
    collapsed[:, 0] = 0.0
    np.divide(t[:, 1], math.sqrt(prob), out=collapsed[:, 1])
    return prob, state.advanced(out)


def extract_register(state: StateVector) -> tuple[np.ndarray, float]:
    """Vector-register amplitudes on clock value 0 with the ancilla at |1>.

    Returns the renormalized 2^n_vector amplitudes and the norm of the
    raw slice (the amplitude weight sitting in that slice).
    """
    raw = state.tensor()[0, :, 1]
    nrm = float(np.linalg.norm(raw))
    check_slice_norm(nrm)
    return raw / nrm, nrm


def check_post_selection(prob: float):
    """Raise PostSelectionError when the ancilla's outcome |1> has (near-)zero probability."""
    if prob <= ZERO_PROBABILITY:
        raise PostSelectionError(
            f"post-selected ancilla outcome 1 has probability {prob:.3e}", probability=prob
        )


def check_slice_norm(nrm: float):
    """Raise when the slice HHL keeps (clock value 0, ancilla |1>) has (near-)zero norm."""
    if nrm <= math.sqrt(ZERO_PROBABILITY):
        raise ValueError(f"slice clock=0, ancilla=1 has zero norm ({nrm:.3e})")
