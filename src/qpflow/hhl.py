"""HHL linear-system solver on the statevector simulator.

Pipeline for a Hermitian positive-definite system B x = b:

1. prepare_system: diagonalize B once, check its eigenvalues with
   linalg.require_positive_definite, pad it with the identity to a
   power-of-two dimension (B (+) I has B's eigenpairs plus (1, e_k) on the
   padding, so the padded eigenbasis is diag(Q, I)), scale the spectrum
   into the clock register's integer range and derive the rotation
   constant C from the encoded spectrum. It then runs the full circuit
   (run_circuit) once on a probe and reads from it a gain table per
   eigenvector. Done once per matrix; the prepared system is reused across
   solves.
2. run_circuit: load |psi>, run phase estimation, rotate the ancilla by
   arcsin(C/m) per clock value m, undo phase estimation, post-select the
   ancilla on |1> and read out the vector register. It allocates two
   state-sized buffers, the state and its spare, and every stage writes
   into the other one (see statevector), so no stage allocates a state of
   its own.
3. solve: apply the gain table to the right-hand side in B's eigenbasis and
   de-normalize using the known ||b|| and the scaling factor; no state is
   simulated.

Why a table suffices (Harrow, Hassidim & Lloyd 2009): every stage touches
the vector register only through U = e^{iBt}, which Q diagonalizes, so an
input eigenvector u_j leaves the circuit as u_j (x) phi_j(clock, ancilla),
and the phi_j never mix. With c = Q^H b/||b||, the circuit's post-selected
slice (clock 0, ancilla |1>) is Q (g * c) with g_j = phi_j(0, 1), its
success probability is sum_j p_j |c_j|^2 with p_j the ancilla-1 mass of
phi_j, and its clock leakage sum_j l_j |c_j|^2 / p with l_j the part of
p_j on clock values other than 0. The probe Q (1, ..., 1)/sqrt(n) carries
every phi_j with weight 1/sqrt(n), so one circuit run gives all three
tables. run_circuit stays the exact-simulation reference of solve.

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
for every clock value, and prepare_system runs the circuit on them once,
so a solve applies only the gain table read off that run. The clock size
is the only setting.

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
# Largest statevector prepare_system accepts, checked before it allocates
# anything state-sized. Its one circuit run, on the probe, peaks at about 4
# state sizes (the state, its spare, the phase table and, in inverse phase
# estimation, its conjugate), so a prepare at the limit stays near 1 GiB;
# beyond it the clock size is an input error. A solve holds no state.
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
    ``rotation_constant`` and ``layout`` when the system is built; they are
    all run_circuit needs. ``rotation_constant`` is the C that
    prepare_system derives, and prepare_system also fills in the gain
    table that solve applies.
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
    # Per eigenvector j of B, read off the probe's circuit run by
    # prepare_system: the amplitude g_j on clock 0 with the ancilla at |1>,
    # the post-selection mass p_j and its part l_j on clock values other than 0.
    gains: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    post_selection_mass: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    leakage_mass: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

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

    prepared = PreparedSystem(
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
    for key, table in _gain_tables(prepared).items():
        object.__setattr__(prepared, key, table)  # not yet shared with any caller
    return prepared


def _gain_tables(prepared: PreparedSystem) -> dict[str, np.ndarray]:
    """Run the circuit once on the probe Q (1, ..., 1)/sqrt(n); read g, p and l.

    The collapsed state's ancilla-1 block is sum_j u_j phi_j(m, 1) /
    sqrt(n p), so projecting it onto u_j gives phi_j for every clock
    value m at once. Each l_j sums its own clock values other than 0, so
    a leakage far below p_j keeps its full relative precision.
    """
    n = prepared.dimension
    q = prepared.padded_eigenvectors[:, :n]  # u_j on the padded register
    run = run_circuit(prepared, q.sum(axis=1) / math.sqrt(n))
    pad_tail = np.abs(run.slice[n:])
    if pad_tail.size and pad_tail.max() > 1e-10:
        raise AssertionError(
            f"padding entries carry amplitude {pad_tail.max():.3e}; expected zero"
        )
    phi = run.state.tensor()[:, :, 1] @ q.conj()  # phi_j(m, 1) at [m, j]
    phi *= math.sqrt(n * run.success_probability)
    mass = phi.real * phi.real + phi.imag * phi.imag
    return {
        "gains": phi[0].copy(),
        "post_selection_mass": mass.sum(axis=0),
        "leakage_mass": mass[1:].sum(axis=0),
    }


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
    out = state.destination()
    o = out.reshape(t.shape)
    o0, o1 = o[:, :, 0], o[:, :, 1]
    # o0 = cos a0 - sin a1 and o1 = sin a0 + cos a1, each product formed once.
    # cos a1 goes into a0's slot once a0 is used up: with a spare the input
    # is consumed, without one that slot is a fresh array.
    np.multiply(sin_half, a1, out=o0)
    np.multiply(cos_half, a0, out=o1)
    np.subtract(o1, o0, out=o0)
    np.multiply(sin_half, a0, out=o1)
    cos_a1 = a0 if state.spare is not None else np.empty_like(a0)
    np.multiply(cos_half, a1, out=cos_a1)
    np.add(o1, cos_a1, out=o1)
    return state.advanced(out)


def clock_leakage(state: sv.StateVector) -> float:
    """Probability mass with the clock register outside |0...0>."""
    rest = state.tensor()[1:]
    return float(np.vdot(rest, rest).real)


@dataclass(frozen=True)
class CircuitRun:
    """What run_circuit leaves: the post-selection and its collapsed state.

    ``slice`` is the collapsed state's vector register on clock value 0
    with the ancilla at |1>, a fresh array.
    """

    success_probability: float
    state: sv.StateVector
    slice: np.ndarray


def run_circuit(prepared: PreparedSystem, vector_amplitudes: np.ndarray) -> CircuitRun:
    """The full-state HHL circuit on one unit-norm vector-register input.

    prepare_system runs it once on its probe; it is also the exact
    simulation that solve's gain table reproduces. The ancilla is
    post-selected on |1> deterministically, since the simulator holds
    exact amplitudes.
    """
    state = sv.init_state(prepared.layout, vector_amplitudes)
    # every stage below writes into the other of these two buffers
    state.spare = np.empty_like(state.amplitudes)
    state = run_qpe(prepared, state)
    state = apply_reciprocal_rotation(state, prepared)
    state = run_inverse_qpe(prepared, state)

    success_probability, state = sv.measure_qubit(state)
    vec, slice_norm = sv.extract_register(state)
    return CircuitRun(success_probability, state, vec * slice_norm)


def solve(prepared: PreparedSystem, b: np.ndarray) -> HHLSolution:
    """Solve B x = b with the prepared gain table and de-normalize the readout.

    Gives what run_circuit on b/||b|| gives, in O(n^2): the solution
    Q (g * c) ||b|| scale / C with c = Q^H b/||b||, and the success
    probability and clock leakage from the per-eigenvector masses. The
    returned solution satisfies B x ~ b up to the encoding precision.
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

    q = prepared.padded_eigenvectors[:n, :n]
    c = q.conj().T @ (b / b_norm)
    weights = c.real * c.real + c.imag * c.imag
    success_probability = float(prepared.post_selection_mass @ weights)
    sv.check_post_selection(success_probability)
    amplitudes = prepared.gains * c
    sv.check_slice_norm(float(np.linalg.norm(amplitudes)) / math.sqrt(success_probability))

    x = q @ amplitudes * (b_norm * prepared.scale / prepared.rotation_constant)
    if np.abs(x.imag).max(initial=0.0) <= 1e-10 * max(1.0, np.abs(x).max()):
        x = x.real.copy()

    return HHLSolution(
        solution=x,
        success_probability=success_probability,
        clock_leakage=float(prepared.leakage_mass @ weights) / success_probability,
    )
