"""Dense complex linear algebra kernels shared by the rest of the package.

Everything here operates on plain numpy arrays at desk scale (a few dozen
rows at most). Matrices flagged Hermitian are symmetrized before use so
downstream consumers can rely on exact conjugate symmetry; cholesky uses
the same test.

This module alone decides whether a constant matrix is usable:
require_positive_definite holds the rule, and both prepares apply it to
the one spectral decomposition they take. prepare_direct takes eigvalsh,
and solve_direct then only checks the right-hand side before its LU
solve; hhl.prepare_system takes eigh, whose eigenpairs it also needs. The
fast-decoupled solvers prepare B' and B'' once, before the first iteration,
because they stay constant through a solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_RTOL = 1e-12
SINGULARITY_RTOL = 1e-12


class SingularMatrixError(ValueError):
    """Raised when a linear system is singular to working precision."""


class NotPositiveDefiniteError(ValueError):
    """Raised when a Cholesky pivot is non-positive.

    ``pivot`` is the 0-based row index of the failing pivot.
    """

    def __init__(self, message: str, pivot: int):
        super().__init__(message)
        self.pivot = pivot


def validate_hermitian(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Check that ``a`` is square and Hermitian within tolerance.

    Returns the symmetrized matrix (a + a^H) / 2, which is what every
    consumer should use; assembly rounding may leave asymmetry up to
    HERMITIAN_RTOL * max|a|.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not a.size:
        return a
    scale = max(np.abs(a).max(), 1.0)
    dev = np.abs(a - a.conj().T)
    i, j = np.unravel_index(np.argmax(dev), dev.shape)
    if dev[i, j] > HERMITIAN_RTOL * scale:
        raise ValueError(
            f"{name} is not Hermitian: entries ({i},{j})={np.real_if_close(a[i, j]):.6g} and "
            f"({j},{i})={np.real_if_close(a[j, i]):.6g} differ by {dev[i, j]:.3e}"
        )
    return (a + a.conj().T) / 2


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs of a Hermitian matrix, eigenvalues ascending.

    ``eigenvectors`` holds orthonormal eigenvectors as columns, so
    A = Q diag(w) Q^H with Q = eigenvectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        q = self.eigenvectors
        return (q * self.eigenvalues) @ q.conj().T


def hermitian_eigendecomposition(a: np.ndarray, name: str = "matrix") -> EigenDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    Repeated eigenvalues yield an arbitrary orthonormal basis of the
    eigenspace; callers must not rely on a particular basis choice.
    """
    a = validate_hermitian(a, name)
    w, q = np.linalg.eigh(a)
    return EigenDecomposition(eigenvalues=w, eigenvectors=q)


def cholesky(c: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Lower-triangular Cholesky factor of a real SPD matrix, symmetrized first.

    Hand-rolled so a failure can name the offending pivot row; errors name
    the matrix ``name``.
    """
    c = validate_hermitian(np.asarray(c, dtype=float), name).real
    n = c.shape[0]
    low = np.zeros((n, n))
    for k in range(n):
        pivot = c[k, k] - low[k, :k] @ low[k, :k]
        if pivot <= 0.0:
            raise NotPositiveDefiniteError(
                f"{name} is not positive definite: pivot {k} is {pivot:.6g}", pivot=k
            )
        low[k, k] = np.sqrt(pivot)
        if k + 1 < n:
            low[k + 1 :, k] = (c[k + 1 :, k] - low[k + 1 :, :k] @ low[k, :k]) / low[k, k]
    return low


def require_positive_definite(eigenvalues: np.ndarray, name: str):
    """Raise unless these eigenvalues make the Hermitian matrix ``name`` usable.

    Checked in order: empty, singular to working precision (|lambda_min| <
    SINGULARITY_RTOL * |lambda_max|, a SingularMatrixError), indefinite.
    """
    if not eigenvalues.size:
        raise ValueError(f"{name} is empty (0x0); there is no system to solve")
    w = np.abs(eigenvalues)
    lam_max = w.max()
    if lam_max == 0.0 or w.min() < SINGULARITY_RTOL * lam_max:
        raise SingularMatrixError(
            f"{name} is singular to working precision "
            f"(|lambda_min|={w.min():.3e}, |lambda_max|={lam_max:.3e})"
        )
    if eigenvalues.min() < 0.0:
        raise ValueError(
            f"{name} is not positive definite (smallest eigenvalue {eigenvalues.min():.3e})"
        )


@dataclass(frozen=True)
class DirectSystem:
    """A Hermitian positive-definite matrix checked once for repeated direct solves.

    ``matrix`` is the symmetrized complex matrix every solve factors.
    """

    matrix: np.ndarray


def prepare_direct(a: np.ndarray, name: str = "matrix") -> DirectSystem:
    """Check ``a`` once for solve_direct: square, Hermitian, then require_positive_definite.

    The rule runs on one eigvalsh here and never again per solve.
    """
    a = validate_hermitian(a, name)
    require_positive_definite(np.linalg.eigvalsh(a), name)
    return DirectSystem(matrix=a)


def solve_direct(system: DirectSystem, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for a prepared Hermitian A.

    Uses LAPACK LU under the hood, which keeps this oracle numerically
    independent of the eigendecomposition route used elsewhere.
    """
    b = np.asarray(b, dtype=complex)
    n = system.matrix.shape[0]
    if b.shape != (n,):
        raise ValueError(f"right-hand side has length {b.shape}, expected ({n},)")
    return np.linalg.solve(system.matrix, b)
