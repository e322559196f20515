"""Dense linear-algebra kernel tests: worked examples plus random sweeps."""

import math

import numpy as np
import pytest

from qpflow import linalg


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


class TestEigendecomposition:
    def test_identity(self):
        dec = linalg.hermitian_eigendecomposition(np.eye(2))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0])
        q = dec.eigenvectors
        assert np.abs(q.conj().T @ q - np.eye(2)).max() < 1e-10

    def test_two_by_two_by_hand(self):
        # char poly (1.5 - w)^2 - 0.25 = 0 -> w = 1, 2
        dec = linalg.hermitian_eigendecomposition(np.array([[1.5, 0.5], [0.5, 1.5]]))
        assert np.allclose(dec.eigenvalues, [1.0, 2.0], atol=1e-12)
        v1 = dec.eigenvectors[:, 0]
        v2 = dec.eigenvectors[:, 1]
        assert abs(abs(v1 @ np.array([1, -1]) / math.sqrt(2))) == pytest.approx(1.0, abs=1e-10)
        assert abs(abs(v2 @ np.array([1, 1]) / math.sqrt(2))) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal(self):
        dec = linalg.hermitian_eigendecomposition(np.diag([3.0, 7.0]))
        assert np.allclose(dec.eigenvalues, [3.0, 7.0])
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(2), atol=1e-12)

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(3)
        dec = linalg.hermitian_eigendecomposition(random_hermitian(rng, 9))
        assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5, 16):
            a = random_hermitian(rng, n)
            dec = linalg.hermitian_eigendecomposition(a)
            scale = max(1.0, np.abs(a).max())
            assert np.abs(dec.reconstruct() - a).max() <= 1e-10 * scale
            q = dec.eigenvectors
            assert np.abs(q.conj().T @ q - np.eye(n)).max() <= 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            linalg.hermitian_eigendecomposition(np.ones((2, 3)))

    def test_rejects_non_hermitian_naming_entries(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=r"\(0,1\)|\(1,0\)"):
            linalg.hermitian_eigendecomposition(a)

    def test_symmetrizes_rounding_noise(self):
        a = np.array([[1.0, 0.5 + 1e-14], [0.5, 1.0]])
        dec = linalg.hermitian_eigendecomposition(a)
        assert np.allclose(dec.eigenvalues, [0.5, 1.5], atol=1e-9)


class TestCholesky:
    def test_identity(self):
        assert np.allclose(linalg.cholesky(np.eye(4)), np.eye(4))

    def test_correlation_matrix_by_hand(self):
        # closed form: L = [[1, 0], [0.75, sqrt(1 - 0.5625)]]
        low = linalg.cholesky(np.array([[1.0, 0.75], [0.75, 1.0]]))
        assert low[0, 0] == pytest.approx(1.0)
        assert low[1, 0] == pytest.approx(0.75)
        assert low[1, 1] == pytest.approx(math.sqrt(1.0 - 0.5625), abs=1e-12)
        assert low[0, 1] == 0.0

    def test_rejects_invalid_correlation(self):
        with pytest.raises(linalg.NotPositiveDefiniteError) as err:
            linalg.cholesky(np.array([[1.0, 1.2], [1.2, 1.0]]))
        assert err.value.pivot == 1

    def test_round_trip_random(self):
        rng = np.random.default_rng(4)
        for n in (1, 3, 6, 10):
            low = np.tril(rng.standard_normal((n, n)))
            low[np.diag_indices(n)] = rng.uniform(0.5, 2.0, n)
            again = linalg.cholesky(low @ low.T)
            assert np.abs(again - low).max() <= 1e-9

    def test_diagonal_strictly_positive(self):
        rng = np.random.default_rng(5)
        low = np.tril(rng.standard_normal((5, 5)))
        low[np.diag_indices(5)] = rng.uniform(0.5, 2.0, 5)
        out = linalg.cholesky(low @ low.T)
        assert np.all(np.diag(out) > 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            linalg.cholesky(np.array([[1.0, 0.2], [0.3, 1.0]]))


class TestValidateHermitian:
    def test_accepts_empty(self):
        out = linalg.validate_hermitian(np.zeros((0, 0)), "B")
        assert out.shape == (0, 0)


class TestSolveDirect:
    def solve(self, a, b):
        return linalg.solve_direct(linalg.prepare_direct(a), b)

    def test_identity(self):
        x = self.solve(np.eye(2), np.array([1.0, 0.0]))
        assert np.allclose(x, [1.0, 0.0])

    def test_two_by_two_by_hand(self):
        # inverse of [[1.5, .5], [.5, 1.5]] is [[1.5, -.5], [-.5, 1.5]] / 2
        a = np.array([[1.5, 0.5], [0.5, 1.5]])
        x = self.solve(a, np.array([1.0, 0.0]))
        assert np.allclose(x, [0.75, -0.25], atol=1e-12)

    def test_diagonal_division(self):
        x = self.solve(np.diag([1.0, 2.0]), np.array([0.0, 1.0]))
        assert np.allclose(x, [0.0, 0.5])

    def test_residual_random(self):
        rng = np.random.default_rng(6)
        for n in (2, 5, 12):
            q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            a = (q * rng.uniform(1.0, 5.0, n)) @ q.conj().T
            a = (a + a.conj().T) / 2
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x = self.solve(a, b)
            assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_prepared_system_reused(self):
        a = np.array([[1.5, 0.5], [0.5, 1.5]])
        system = linalg.prepare_direct(a)
        for b in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.3, -0.7])):
            assert np.abs(a @ linalg.solve_direct(system, b) - b).max() <= 1e-12

    def test_rejects_singular(self):
        with pytest.raises(linalg.SingularMatrixError, match="^matrix is singular"):
            linalg.prepare_direct(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_singular_message_names_matrix(self):
        with pytest.raises(linalg.SingularMatrixError, match="^B' is singular"):
            linalg.prepare_direct(np.diag([1.0, 1e-13]), "B'")

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="B is not Hermitian"):
            linalg.prepare_direct(np.array([[1.0, 2.0], [0.0, 1.0]]), "B")

    def test_rejects_empty_naming_it(self):
        with pytest.raises(ValueError, match=r"B'' is empty \(0x0\)"):
            linalg.prepare_direct(np.zeros((0, 0)), "B''")

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            linalg.solve_direct(linalg.prepare_direct(np.eye(2)), np.array([1.0, 0.0, 0.0]))
