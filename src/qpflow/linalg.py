"""Dense complex linear algebra kernels shared by the rest of the package.

Everything here operates on plain numpy arrays at desk scale (a few dozen
rows at most). Matrices flagged Hermitian are symmetrized before use so
downstream consumers can rely on exact conjugate symmetry.
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
    scale = max(np.abs(a).max(), 1.0) if a.size else 1.0
    dev = np.abs(a - a.conj().T)
    i, j = np.unravel_index(np.argmax(dev), dev.shape)
    if dev[i, j] > HERMITIAN_RTOL * scale:
        raise ValueError(
            f"{name} is not Hermitian: entries ({i},{j})={a[i, j]:.6g} and "
            f"({j},{i})={a[j, i]:.6g} differ by {dev[i, j]:.3e}"
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


def cholesky(c: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a real SPD matrix.

    Hand-rolled so a failure can name the offending pivot row.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"matrix must be square, got shape {c.shape}")
    scale = max(np.abs(c).max(), 1.0) if c.size else 1.0
    if np.abs(c - c.T).max(initial=0.0) > HERMITIAN_RTOL * scale:
        raise ValueError("matrix is not symmetric")
    n = c.shape[0]
    low = np.zeros((n, n))
    for k in range(n):
        pivot = c[k, k] - low[k, :k] @ low[k, :k]
        if pivot <= 0.0:
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite: pivot {k} is {pivot:.6g}", pivot=k
            )
        low[k, k] = np.sqrt(pivot)
        if k + 1 < n:
            low[k + 1 :, k] = (c[k + 1 :, k] - low[k + 1 :, :k] @ low[k, :k]) / low[k, k]
    return low


def solve_direct(a: np.ndarray, b: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Solve a x = b for Hermitian ``a`` with an explicit singularity check.

    Uses LAPACK LU under the hood, which keeps this oracle numerically
    independent of the eigendecomposition route used elsewhere.
    """
    a = validate_hermitian(a, name)
    b = np.asarray(b, dtype=complex)
    if b.shape != (a.shape[0],):
        raise ValueError(f"right-hand side has length {b.shape}, expected ({a.shape[0]},)")
    w = np.linalg.eigvalsh(a)
    lam_max = np.abs(w).max()
    if lam_max == 0.0 or np.abs(w).min() < SINGULARITY_RTOL * lam_max:
        raise SingularMatrixError(
            f"{name} is singular to working precision "
            f"(|lambda_min|={np.abs(w).min():.3e}, |lambda_max|={lam_max:.3e})"
        )
    return np.linalg.solve(a, b)
