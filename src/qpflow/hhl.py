"""HHL linear-system solver on the statevector simulator.

Pipeline for a Hermitian positive-definite system B x = b:

1. prepare_system: diagonalize B once, check its eigenvalues with
   linalg.require_positive_definite, pad it with the identity to a
   power-of-two dimension (B (+) I has B's eigenpairs plus (1, e_k) on the
   padding, so the padded eigenbasis is diag(Q, I)), scale the spectrum
   into the clock register's integer range and derive the rotation
   constant C from the encoded spectrum. Done once per matrix; the
   prepared system is reused across solves.
2. solve: load |b>, run phase estimation, rotate the ancilla by arcsin(C/m)
   per clock value m, undo phase estimation, post-select the ancilla on
   |1>, read out the vector register, and de-normalize using the known
   ||b|| and the scaling factor.

Phase estimation works on the three registers as the paper describes it:
a Hadamard on each clock qubit puts the clock in a uniform superposition,
clock value m then carries U^m |b> with U = e^{iBt}, and an inverse QFT on
the clock reads out the encoded eigenvalue. Those Hadamards are the
circuit's only single-qubit gates, and post-selecting the ancilla on |1>
its only measurement. The controlled evolution sum_m |m><m| (x) U^m is one
register-level operation in the eigenbasis Q of the padded matrix: rotate
the vector register by Q^H, multiply by the phase e^{i lambda_j t m} of
clock value m and eigenvector j, rotate back by Q. The paper parameterises
phase estimation and the reciprocal rotation only at the beginning stage,
because B' and B'' stay constant through a fast-decoupled solve.
PreparedSystem follows that: when it is built it fixes the (clock value,
eigenvector) phase table and the (cos, sin) pair of the ancilla rotation
for every clock value. A solve then only applies them to its right-hand
side. The clock size is the only setting.

Eigenvalue scaling prefers an evolution time that lands every eigenvalue
on (or near) a clock integer, falling back to a margin rule that places
the largest eigenvalue at EIGENVALUE_MARGIN of the top of the clock range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, statevector as sv

# Scaled eigenvalues within EXACT_ATOL of an integer make phase estimation
# exact to machine precision; within SNAP_ATOL the encoding error is far
# below the clock register's intrinsic resolution, so such a scaling is
# preferred over the generic margin rule when the spectrum permits it.
EXACT_ATOL = 1e-9
SNAP_ATOL = 1e-2
SUPPORT_PROBABILITY = 1e-12
# Fraction of the clock range the margin rule fills with the largest eigenvalue.
EIGENVALUE_MARGIN = 0.95
# Largest statevector prepare_system accepts. A gate or transform holds a
# few copies of the state at once, so a solve stays near 1 GiB; beyond it
# the clock size is an input error, caught before any state-sized work.
MAX_STATE_BYTES = 1 << 28


@dataclass(frozen=True)
class HHLConfig:
    """The solver's one setting: the number of clock qubits."""

    n_clock: int = 4

    def __post_init__(self):
        if self.n_clock < 1:
            raise ValueError("n_clock must be at least 1")


@dataclass(frozen=True)
class PreparedSystem:
    """Everything solve() needs, computed once per matrix.

    The phase table of the controlled evolution and the per-clock-value
    rotation are derived from the padded eigenvalues, ``time_step``,
    ``rotation_constant`` and ``layout`` when the system is built.
    ``rotation_constant`` is the C that prepare_system derives.
    """

    layout: sv.RegisterLayout
    time_step: float
    scale: float  # encoded eigenvalue = scale * true eigenvalue
    padded_eigenvalues: np.ndarray
    padded_eigenvectors: np.ndarray  # columns diagonalize B (+) I
    eigenvalues: np.ndarray  # B's own, ascending
    encoded_eigenvalues: np.ndarray
    rotation_constant: float
    exact_encoding: bool
    warning: str | None = None
    clock_phases: np.ndarray = field(init=False, repr=False, compare=False)
    rotation_cos: np.ndarray = field(init=False, repr=False, compare=False)
    rotation_sin: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # clock_phases[m, j] = e^{i lambda_j t m}: the eigenvalue of U^m on
        # eigenvector j, so clock value m carries U^m.
        m = np.arange(self.layout.clock_dim, dtype=float)
        phases = np.exp(1j * np.outer(m, self.padded_eigenvalues * self.time_step))
        object.__setattr__(self, "clock_phases", phases)

        # sin(theta_m/2) = C/m on clock values m >= max(1, C); the rest keep
        # the identity (cos 1, sin 0).
        c = self.rotation_constant
        sin_half = np.divide(c, m, out=np.zeros_like(m), where=(m >= 1.0) & (m >= c))
        object.__setattr__(self, "rotation_sin", sin_half)
        object.__setattr__(self, "rotation_cos", np.sqrt(1.0 - sin_half * sin_half))

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class HHLSolution:
    solution: np.ndarray
    success_probability: float
    clock_leakage: float


def _choose_scale(eigenvalues: np.ndarray, n_clock: int) -> tuple[float, bool, str | None]:
    """Pick the encoded-units scale s so encoded eigenvalues fit [1, M-1].

    Tries integer landings first (strict, then snapped within SNAP_ATOL),
    then the margin rule s = EIGENVALUE_MARGIN*(M-1)/lambda_max, raising
    the scale when that would push the smallest eigenvalue below 1.
    Returns (scale, exact_encoding, warning message or None).
    """
    m_top = (1 << n_clock) - 1
    lam_min, lam_max = eigenvalues[0], eigenvalues[-1]
    target = EIGENVALUE_MARGIN * m_top

    # Candidate scales put lambda_max on the integers floor(target), ..., 1,
    # largest first; one row of ``enc`` per candidate.
    scales = np.arange(math.floor(target), 0, -1, dtype=float) / lam_max
    enc = scales[:, None] * eigenvalues
    nearest = np.round(enc)
    fits = np.all(nearest >= 1, axis=1)
    off_integer = np.abs(enc - nearest).max(axis=1)
    for atol in (EXACT_ATOL, SNAP_ATOL):
        hits = np.flatnonzero(fits & (off_integer <= atol))
        if hits.size:
            return scales[hits[0]], bool(atol == EXACT_ATOL), None

    ratio = lam_max / lam_min
    s = target / lam_max
    if lam_min * s >= 1.0:
        return s, False, None
    if ratio <= m_top:
        return 1.0 / lam_min, False, None
    msg = (
        f"eigenvalue spread {ratio:.3g} exceeds clock range 2^{n_clock}-1={m_top}; "
        "eigenvalues cannot all be distinctly encoded"
    )
    return s, False, msg


def prepare_system(
    b_matrix: np.ndarray, config: HHLConfig | None = None, name: str = "B"
) -> PreparedSystem:
    """Diagonalize, check, pad and scale B for the controlled evolution.

    B must be Hermitian positive definite; linalg checks that on the one
    eigh taken here, naming the matrix ``name``. The padding block is the
    identity and never receives amplitude, so the spectrum scaling and C
    use B's own eigenvalues only: C is the smallest encoded eigenvalue when
    the encoding is exact, otherwise the smallest clock value that can
    carry solution weight. A spectrum the clock cannot resolve leaves a
    message naming ``name`` in the returned system's ``warning``.
    """
    config = config or HHLConfig()
    dec = linalg.hermitian_eigendecomposition(b_matrix, name)
    linalg.require_positive_definite(dec.eigenvalues, name)
    n = dec.eigenvalues.shape[0]
    n_vector = max(1, math.ceil(math.log2(n)))
    layout = sv.RegisterLayout(config.n_clock, n_vector)
    state_bytes = (1 << layout.n_qubits) * np.dtype(complex).itemsize
    if state_bytes > MAX_STATE_BYTES:
        raise ValueError(
            f"n_clock={config.n_clock} needs a {layout.n_qubits}-qubit statevector of "
            f"{state_bytes / 2**20:.6g} MiB, over the {MAX_STATE_BYTES / 2**20:.6g} MiB "
            "limit; use fewer clock qubits"
        )

    dim = 1 << n_vector
    padded_eigenvalues = np.ones(dim)
    padded_eigenvalues[:n] = dec.eigenvalues
    padded_eigenvectors = np.eye(dim, dtype=complex)
    padded_eigenvectors[:n, :n] = dec.eigenvectors

    scale, exact, spread = _choose_scale(dec.eigenvalues, config.n_clock)
    encoded = dec.eigenvalues * scale
    c = float(encoded[0]) if exact else min(1.0, float(encoded[0]))

    return PreparedSystem(
        layout=layout,
        time_step=2.0 * math.pi * scale / layout.clock_dim,
        scale=scale,
        padded_eigenvalues=padded_eigenvalues,
        padded_eigenvectors=padded_eigenvectors,
        eigenvalues=dec.eigenvalues,
        encoded_eigenvalues=encoded,
        rotation_constant=c,
        exact_encoding=exact,
        warning=f"{name}: {spread}" if spread else None,
    )


def _check_layout(prepared: PreparedSystem, state: sv.StateVector):
    if state.layout != prepared.layout:
        raise ValueError(
            f"state layout {state.layout} does not match the prepared system's "
            f"{prepared.layout}"
        )


def run_qpe(prepared: PreparedSystem, state: sv.StateVector) -> sv.StateVector:
    """Phase estimation: entangle clock values with the eigencomponents.

    Hadamards on the clock qubits, the controlled evolution U^m on clock
    value m, then the inverse QFT, so the clock integer reads the encoded
    eigenvalue.
    """
    _check_layout(prepared, state)
    probs = state.clock_probabilities()
    if 1.0 - probs[0] > sv.NORM_ATOL:
        raise ValueError("clock register must start in |0...0>")
    for k in range(prepared.layout.n_clock):
        state = sv.apply_gate(state, k)
    state = sv.apply_clock_controlled(
        state, prepared.padded_eigenvectors, prepared.clock_phases
    )
    return sv.apply_inverse_qft(state)


def run_inverse_qpe(prepared: PreparedSystem, state: sv.StateVector) -> sv.StateVector:
    """Exact adjoint of run_qpe; disentangles the clock back to |0...0>."""
    _check_layout(prepared, state)
    state = sv.apply_qft(state)
    state = sv.apply_clock_controlled(
        state, prepared.padded_eigenvectors, prepared.clock_phases.conj()
    )
    for k in reversed(range(prepared.layout.n_clock)):
        state = sv.apply_gate(state, k)
    return state


def apply_reciprocal_rotation(
    state: sv.StateVector, prepared: PreparedSystem
) -> sv.StateVector:
    """Rotate the ancilla by sin(theta/2) = C/m for each clock value m >= 1.

    Clock value 0 is left untouched (prepare_system guarantees it never
    carries solution weight). Raises when C exceeds the smallest clock
    value that actually holds amplitude, since C/m > 1 is not a rotation.
    """
    c = prepared.rotation_constant
    probs = state.clock_probabilities()
    supported = np.flatnonzero(probs[1:] > SUPPORT_PROBABILITY) + 1
    if supported.size and c > supported[0] + EXACT_ATOL:
        raise ValueError(
            f"rotation constant {c:.6g} exceeds smallest populated clock value "
            f"{supported[0]} (amplitude C/m would exceed 1)"
        )
    t = state.tensor()
    a0, a1 = t[:, :, 0], t[:, :, 1]
    cos_half = prepared.rotation_cos[:, None]
    sin_half = prepared.rotation_sin[:, None]
    out = np.stack((cos_half * a0 - sin_half * a1, sin_half * a0 + cos_half * a1), axis=-1)
    return sv.StateVector(state.layout, out.reshape(-1))


def clock_leakage(state: sv.StateVector) -> float:
    """Probability mass with the clock register outside |0...0>."""
    rest = state.tensor()[1:]
    return float(np.vdot(rest, rest).real)


def solve(prepared: PreparedSystem, b: np.ndarray) -> HHLSolution:
    """Solve B x = b through the full circuit and de-normalize the readout.

    The returned solution satisfies B x ~ b up to the encoding precision.
    The ancilla is post-selected on |1> deterministically, since the
    simulator holds exact amplitudes.
    """
    b = np.asarray(b, dtype=complex)
    n = prepared.dimension
    if b.shape != (n,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({n},)")
    with np.errstate(over="ignore"):
        b_norm = np.linalg.norm(b)
    if not 0.0 < b_norm < math.inf:
        # the sum of squares over- or underflowed: take the norm of b / max|b|
        peak = np.abs(b).max()
        if peak == 0.0:
            raise ValueError("right-hand side is zero")
        b_norm = peak * np.linalg.norm(b / peak)

    lay = prepared.layout
    padded_b = np.zeros(lay.vector_dim, dtype=complex)
    padded_b[:n] = b / b_norm

    state = sv.init_state(lay, padded_b)
    state = run_qpe(prepared, state)
    state = apply_reciprocal_rotation(state, prepared)
    state = run_inverse_qpe(prepared, state)

    success_probability, state = sv.measure_qubit(state)
    vec, slice_norm = sv.extract_register(state)

    raw = vec * slice_norm * math.sqrt(success_probability)
    x_padded = raw * b_norm * prepared.scale / prepared.rotation_constant
    pad_tail = np.abs(x_padded[n:])
    if pad_tail.size and pad_tail.max() > 1e-10:
        raise AssertionError(
            f"padding entries carry amplitude {pad_tail.max():.3e}; expected zero"
        )
    x = x_padded[:n]
    if np.abs(x.imag).max(initial=0.0) <= 1e-10 * max(1.0, np.abs(x).max()):
        x = x.real.copy()

    return HHLSolution(
        solution=x,
        success_probability=float(success_probability),
        clock_leakage=clock_leakage(state),
    )
