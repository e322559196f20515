"""Dense-matrix references for the simulator's kernels, shared by the tests.

Everything here builds full 2^n x 2^n operators with np.kron and explicit
index arithmetic, so it shares no code with qpflow.statevector.
"""

import math

import numpy as np


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
