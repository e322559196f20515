"""Dense-matrix references for the simulator's kernels, shared by the tests.

The simulator references build full 2^n x 2^n operators with np.kron and
explicit index arithmetic, so they share no code with qpflow.statevector.
The direct-solve reference checks its matrix on every call, as the fast-
decoupled solver did before it prepared B' and B'' once per solve; it shares
no code with qpflow.linalg. The HHL reference runs each right-hand side
through the full-state circuit (qpflow.hhl.run_circuit), as hhl.solve did
before it applied a gain table.
"""

import math

import numpy as np

from qpflow import hhl


def dft_matrix(m: int, sign: float) -> np.ndarray:
    """Unitary DFT kernel exp(sign 2 pi i jk/m) / sqrt(m).

    sign=+1 is the clock-register QFT, sign=-1 its inverse.
    """
    idx = np.arange(m)
    return np.exp(sign * 2j * np.pi * np.outer(idx, idx) / m) / math.sqrt(m)


def kron_operator(
    n: int, targets: tuple[int, ...], u: np.ndarray, control: int | None = None
) -> np.ndarray:
    """Full operator of ``u`` on ``targets`` (on the control's |1> half if given).

    The operator is first written with np.kron over a reordered register,
    control first, then the targets in order, then every other qubit, and
    then its rows and columns are permuted back to qubit order (qubit 0 the
    most significant bit).
    """
    k = len(targets)
    if control is None:
        order = list(targets)
        op = np.kron(u, np.eye(1 << (n - k)))
    else:
        order = [control, *targets]
        op = np.kron(np.diag([1.0, 0.0]), np.eye(1 << (n - 1))) + np.kron(
            np.diag([0.0, 1.0]), np.kron(u, np.eye(1 << (n - 1 - k)))
        )
    order += [q for q in range(n) if q not in order]
    weights = 1 << (n - 1 - np.arange(n))
    bits = (np.arange(1 << n)[:, None] // weights) % 2  # bits[i, q] of basis state i
    perm = bits[:, order] @ weights  # index of basis state i in the reordered register
    return op[np.ix_(perm, perm)]


def validated_solve_direct(a: np.ndarray, b: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Solve a x = b, checking ``a`` first on every call.

    The check is the one qpflow.linalg.prepare_direct makes once: Hermitian
    within 1e-12 of max(1, max|a|), symmetrized, then singular when
    |lambda_min| < 1e-12 |lambda_max|. The LU solve runs on the same
    complex symmetrized matrix, so the result is bit-for-bit comparable.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if np.abs(a - a.conj().T).max(initial=0.0) > 1e-12 * max(np.abs(a).max(initial=0.0), 1.0):
        raise ValueError(f"{name} is not Hermitian")
    a = (a + a.conj().T) / 2
    b = np.asarray(b, dtype=complex)
    if b.shape != (a.shape[0],):
        raise ValueError(f"right-hand side has length {b.shape}, expected ({a.shape[0]},)")
    w = np.abs(np.linalg.eigvalsh(a))
    if w.max() == 0.0 or w.min() < 1e-12 * w.max():
        raise ValueError(f"{name} is singular to working precision")
    return np.linalg.solve(a, b)


def circuit_solve(prep: hhl.PreparedSystem, b: np.ndarray) -> hhl.HHLSolution:
    """hhl.solve on the full-state circuit: run_circuit on b/||b||, de-normalized.

    The read-out, the scaling and the real cast take the same operations
    in the same order as the solve that simulated every right-hand side.
    """
    n = prep.dimension
    b = np.asarray(b, dtype=complex)
    b_norm = np.linalg.norm(b)
    padded_b = np.zeros(prep.layout.vector_dim, dtype=complex)
    padded_b[:n] = b / b_norm
    run = hhl.run_circuit(prep, padded_b)
    raw = run.slice * math.sqrt(run.success_probability)
    x = (raw * b_norm * prep.scale / prep.rotation_constant)[:n]
    if np.abs(x.imag).max(initial=0.0) <= 1e-10 * max(1.0, np.abs(x).max()):
        x = x.real.copy()
    return hhl.HHLSolution(x, float(run.success_probability), hhl.clock_leakage(run.state))
