"""Quantum linear-solver tests against hand-traced and direct-solve oracles."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from dense_reference import circuit_solve, dft_matrix, kron_operator
from qpflow import cases, hhl, linalg, network
from qpflow import statevector as sv

B_MIXED = np.array([[1.5, 0.5], [0.5, 1.5]])  # eigenvalues 1 and 2


def fidelity(x, y):
    return abs(np.vdot(x, y)) / (np.linalg.norm(x) * np.linalg.norm(y))


def direct(a, b):
    """The classical oracle: LU solve of a prepared Hermitian system."""
    return linalg.solve_direct(linalg.prepare_direct(a), b)


def random_pd(rng, n, cond):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    w = np.linspace(1.0, cond, n)
    return (q * w) @ q.T


def choose_scale_loop(eigenvalues, n_clock):
    """Reference scale search: one candidate integer at a time, in Python."""
    m_top = (1 << n_clock) - 1
    lam_min, lam_max = eigenvalues[0], eigenvalues[-1]
    target = hhl.EIGENVALUE_MARGIN * m_top

    for atol in (hhl.EXACT_ATOL, hhl.SNAP_ATOL):
        for m in range(int(math.floor(target)), 0, -1):
            s = m / lam_max
            enc = eigenvalues * s
            nearest = np.round(enc)
            if np.all(nearest >= 1) and np.all(np.abs(enc - nearest) <= atol):
                return s, bool(atol == hhl.EXACT_ATOL), None

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


def bundled_spectra():
    for name in cases.NAMES:
        mats = network.build_b_matrices(cases.load(name))
        for label, mat in (("B'", mats.b_prime), ("B''", mats.b_double_prime)):
            if mat.size:
                yield f"{name} {label}", np.linalg.eigvalsh(mat)


def padded(mat, prep):
    """B (+) I at the prepared vector-register size, built here."""
    out = np.eye(prep.layout.vector_dim, dtype=complex)
    out[: mat.shape[0], : mat.shape[0]] = mat
    return out


def evolution(prep, mat):
    """U = e^{iBt} of B (+) I, from numpy's eigh of the padded matrix itself."""
    w, v = np.linalg.eigh(padded(mat, prep))
    return (v * np.exp(1j * w * prep.time_step)) @ v.conj().T


def dense_hhl_operators(prep, mat):
    """hhl.solve's QPE and rotation as dense operators, built with np.kron.

    Clock qubit k controls U^(2^(n_clock-1-k)), with the powers taken by
    repeated matrix products, so nothing is shared with the phase table.
    """
    lay = prep.layout
    n, nc, m_dim = lay.n_qubits, lay.n_clock, lay.clock_dim
    targets = tuple(range(nc, nc + lay.n_vector))
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    u = evolution(prep, mat)
    qpe = [kron_operator(n, (k,), had) for k in range(nc)]
    qpe += [
        kron_operator(n, targets, np.linalg.matrix_power(u, 1 << (nc - 1 - k)), control=k)
        for k in range(nc)
    ]
    qpe.append(np.kron(dft_matrix(m_dim, -1.0), np.eye(1 << (n - nc))))
    c = prep.rotation_constant
    rotation = np.zeros((1 << n, 1 << n))
    for m in range(m_dim):
        sin_half = c / m if m >= max(1.0, c) else 0.0
        cos_half = math.sqrt(1.0 - sin_half * sin_half)
        block = np.kron(np.eye(lay.vector_dim), [[cos_half, -sin_half], [sin_half, cos_half]])
        size = block.shape[0]
        rotation[m * size:(m + 1) * size, m * size:(m + 1) * size] = block
    return qpe, rotation


def dense_hhl(prep, operators, rhs):
    """hhl.solve's circuit on dense operators, one right-hand side per row.

    Returns the solutions, success probabilities and clock leakages (the
    post-selected mass on clock values other than 0), row for row.
    """
    qpe, rotation = operators
    lay = prep.layout
    dim = prep.dimension
    b_norm = np.linalg.norm(rhs, axis=1)
    states = np.zeros((len(rhs), lay.clock_dim, lay.vector_dim, 2), dtype=complex)
    states[:, 0, :dim, 0] = rhs / b_norm[:, None]
    states = states.reshape(len(rhs), -1).T  # one column per right-hand side
    for op in qpe:
        states = op @ states
    states = rotation @ states
    for op in reversed(qpe):
        states = (states.T.conj() @ op).conj().T  # op^H applied to each column
    final = states.T.reshape(len(rhs), lay.clock_dim, lay.vector_dim, 2)
    success = np.sum(np.abs(final[:, :, :, 1]) ** 2, axis=(1, 2))
    leakage = np.sum(np.abs(final[:, 1:, :, 1]) ** 2, axis=(1, 2)) / success
    x = final[:, 0, :dim, 1] * (b_norm * prep.scale / prep.rotation_constant)[:, None]
    return x, success, leakage


class TestPrepareSystem:
    def test_identity_spectrum(self):
        prep = hhl.prepare_system(np.eye(2), hhl.HHLConfig(n_clock=2))
        assert np.allclose(prep.encoded_eigenvalues, [2.0, 2.0])
        assert prep.exact_encoding
        assert prep.rotation_constant == pytest.approx(2.0)

    def test_mixed_spectrum_exact_fit(self):
        prep = hhl.prepare_system(B_MIXED, hhl.HHLConfig(n_clock=2))
        assert np.allclose(prep.encoded_eigenvalues, [1.0, 2.0], atol=1e-9)
        assert prep.time_step == pytest.approx(2.0 * math.pi / 4.0)
        assert prep.exact_encoding

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            hhl.prepare_system(np.diag([-1.0, 2.0]))

    def test_rejects_like_the_direct_prepare(self):
        for bad in (np.diag([-1.0, 2.0]), np.diag([1.0, 1e-13]), np.zeros((0, 0))):
            with pytest.raises(ValueError) as direct_err:
                linalg.prepare_direct(bad, "B'")
            with pytest.raises(ValueError) as hhl_err:
                hhl.prepare_system(bad, name="B'")
            assert type(hhl_err.value) is type(direct_err.value)
            assert str(hhl_err.value) == str(direct_err.value)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hhl.prepare_system(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_empty_naming_it(self):
        with pytest.raises(ValueError, match=r"B is empty \(0x0\)"):
            hhl.prepare_system(np.zeros((0, 0)))

    def test_cached_powers_unitary(self):
        # every clock value's phases have unit modulus on an orthonormal basis
        prep = hhl.prepare_system(B_MIXED, hhl.HHLConfig(n_clock=4))
        q = prep.padded_eigenvectors
        assert np.abs(q.conj().T @ q - np.eye(2)).max() <= 1e-10
        assert prep.clock_phases.shape == (16, 2)
        assert np.abs(np.abs(prep.clock_phases) - 1.0).max() <= 1e-12

    def test_powers_are_squares(self):
        # clock value 2m carries (U^m)^2
        prep = hhl.prepare_system(B_MIXED, hhl.HHLConfig(n_clock=3))
        p = prep.clock_phases
        for m in (1, 2, 3):
            assert np.abs(p[m] * p[m] - p[2 * m]).max() < 1e-12

    @pytest.mark.parametrize("name", cases.NAMES)
    def test_clock_phases_give_evolution_powers(self, name):
        mats = network.build_b_matrices(cases.load(name))
        for mat in (mats.b_prime, mats.b_double_prime):
            if not mat.size:
                continue
            prep = hhl.prepare_system(mat, hhl.HHLConfig(n_clock=6))
            q = prep.padded_eigenvectors
            u = evolution(prep, mat)
            for m in (0, 1, 2, 5, 17, 63):
                from_table = (q * prep.clock_phases[m]) @ q.conj().T
                assert np.abs(from_table - np.linalg.matrix_power(u, m)).max() < 1e-12, m

    def test_encoded_range_continuous_mode(self):
        rng = np.random.default_rng(11)
        b = random_pd(rng, 4, cond=6.0)
        prep = hhl.prepare_system(b, hhl.HHLConfig(n_clock=6))
        enc = prep.encoded_eigenvalues
        assert enc[0] >= 1.0 - 1e-9
        assert enc[-1] <= 63.0 + 1e-9

    def test_wide_spectrum_warns(self):
        b = np.diag([1.0, 100.0])
        prep = hhl.prepare_system(b, hhl.HHLConfig(n_clock=3), name="B''")
        assert prep.warning == (
            "B'': eigenvalue spread 100 exceeds clock range 2^3-1=7; "
            "eigenvalues cannot all be distinctly encoded"
        )

    def test_encoded_eigenvalue_relation(self):
        # encoded value must equal lambda * t * 2^n_clock / (2 pi)
        for n_clock in (2, 4, 6):
            prep = hhl.prepare_system(B_MIXED, hhl.HHLConfig(n_clock=n_clock))
            expected = prep.eigenvalues * prep.time_step * (1 << n_clock) / (2.0 * math.pi)
            assert np.abs(prep.encoded_eigenvalues - expected).max() < 1e-12
            assert prep.encoded_eigenvalues[0] >= 1.0 - 1e-9
            assert prep.encoded_eigenvalues[-1] <= (1 << n_clock) - 1 + 1e-9

    def test_scale_search_matches_loop_on_bundled_cases(self):
        for label, eigenvalues in bundled_spectra():
            for n_clock in range(2, 11):
                got = hhl._choose_scale(eigenvalues, n_clock)
                assert got == choose_scale_loop(eigenvalues, n_clock), (label, n_clock)

    def test_scale_search_matches_loop_on_random_spectra(self):
        rng = np.random.default_rng(16)
        outcomes = set()
        for trial in range(300):
            n = int(rng.integers(1, 7))
            if trial % 3 == 0:  # integer ratios, snapped within SNAP_ATOL or exact
                lam = rng.integers(1, 12, n) * rng.uniform(0.1, 5.0)
                lam = lam + rng.choice([0.0, 1e-3, 3e-2], n) * (trial % 2)
            else:
                lam = rng.uniform(0.05, 1.0, n) ** rng.uniform(1.0, 4.0) * rng.uniform(0.1, 50.0)
            eigenvalues = np.sort(lam)
            n_clock = int(rng.integers(1, 11))
            got = hhl._choose_scale(eigenvalues, n_clock)
            assert got == choose_scale_loop(eigenvalues, n_clock), (eigenvalues, n_clock)
            outcomes.add((got[1], got[2] is not None))
        # exact landing, snapped or margin rule, and the spread warning all occur
        assert outcomes == {(True, False), (False, False), (False, True)}

    def test_padding_to_power_of_two(self):
        b = random_pd(np.random.default_rng(12), 3, cond=3.0)
        prep = hhl.prepare_system(b, hhl.HHLConfig(n_clock=4))
        assert prep.layout.n_vector == 2
        q, w = prep.padded_eigenvectors, prep.padded_eigenvalues
        assert q.shape == (4, 4)
        # the eigenpairs reassemble B (+) I
        assert np.abs((q * w) @ q.conj().T - padded(b, prep)).max() < 1e-12
        assert w[3] == 1.0


class TestQPE:
    def test_single_eigenvector_reads_encoded_value(self):
        # 1x1 matrix, eigenvalue 1, n_clock=2: encoded at 2 -> clock |10>
        prep = hhl.prepare_system(np.array([[1.0]]), hhl.HHLConfig(n_clock=2))
        assert prep.encoded_eigenvalues[0] == pytest.approx(2.0)
        state = sv.init_state(prep.layout, np.array([1.0, 0.0]))
        out = hhl.run_qpe(prep, state)
        probs = out.clock_probabilities()
        assert probs[2] == pytest.approx(1.0, abs=1e-10)

    def test_mixed_state_splits_evenly(self):
        # b = (1,0) = (u1 + u2)/sqrt(2) in the eigenbasis of B_MIXED
        prep = hhl.prepare_system(B_MIXED, hhl.HHLConfig(n_clock=2))
        state = sv.init_state(prep.layout, np.array([1.0, 0.0]))
        out = hhl.run_qpe(prep, state)
        probs = out.clock_probabilities()
        assert probs[1] == pytest.approx(0.5, abs=1e-10)
        assert probs[2] == pytest.approx(0.5, abs=1e-10)

    def test_phase_gate_textbook(self):
        # U = diag(1, e^{i pi}) on eigenvector |1>: phase 0.5 -> clock |100>
        layout = sv.RegisterLayout(3, 1)
        prep = hhl.PreparedSystem(
            layout=layout,
            time_step=1.0,
            scale=1.0,
            padded_eigenvalues=np.array([0.0, math.pi]),
            padded_eigenvectors=np.eye(2, dtype=complex),
            eigenvalues=np.array([1.0]),
            encoded_eigenvalues=np.array([4.0]),
            rotation_constant=1.0,
            exact_encoding=True,
        )
        state = sv.init_state(layout, np.array([0.0, 1.0]))
        out = hhl.run_qpe(prep, state)
        probs = out.clock_probabilities()
        assert probs[0b100] == pytest.approx(1.0, abs=1e-10)

    def test_rejects_dirty_clock(self):
        prep = hhl.prepare_system(B_MIXED, hhl.HHLConfig(n_clock=2))
        amps = np.zeros(1 << prep.layout.n_qubits, dtype=complex)
        amps.reshape(4, 2, 2)[2, 0, 0] = 1.0  # clock |10>: its first qubit is set
        state = sv.StateVector(prep.layout, amps)
        with pytest.raises(ValueError, match="clock register"):
            hhl.run_qpe(prep, state)


class TestReciprocalRotation:
    def _prep_with_c(self, c):
        prep = hhl.prepare_system(np.diag([1.0, 2.0]), hhl.HHLConfig(n_clock=3))
        return dataclasses.replace(prep, rotation_constant=c)

    def test_full_flip_at_clock_equal_c(self):
        prep = self._prep_with_c(2.0)
        assert np.allclose(prep.encoded_eigenvalues, [3.0, 6.0])
        lay = prep.layout
        amps = np.zeros(1 << lay.n_qubits, dtype=complex)
        amps.reshape(8, 2, 2)[2, 0, 0] = 1.0
        out = hhl.apply_reciprocal_rotation(sv.StateVector(lay, amps), prep)
        t = out.tensor()
        assert abs(t[2, 0, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_half_amplitude_at_twice_c(self):
        prep = self._prep_with_c(2.0)
        lay = prep.layout
        amps = np.zeros(1 << lay.n_qubits, dtype=complex)
        amps.reshape(8, 2, 2)[4, 0, 0] = 1.0
        out = hhl.apply_reciprocal_rotation(sv.StateVector(lay, amps), prep)
        t = out.tensor()
        assert t[4, 0, 1] == pytest.approx(0.5)
        assert t[4, 0, 0] == pytest.approx(math.sqrt(3.0) / 2.0)

    def test_clock_zero_untouched(self):
        prep = self._prep_with_c(2.0)
        lay = prep.layout
        amps = np.zeros(1 << lay.n_qubits, dtype=complex)
        amps.reshape(8, 2, 2)[0, 0, 0] = 1.0
        out = hhl.apply_reciprocal_rotation(sv.StateVector(lay, amps), prep)
        assert np.abs(out.amplitudes - amps).max() == 0.0

    def test_rejects_support_below_c(self):
        prep = self._prep_with_c(2.0)
        lay = prep.layout
        amps = np.zeros(1 << lay.n_qubits, dtype=complex)
        amps.reshape(8, 2, 2)[1, 0, 0] = 1.0  # clock value 1 < C = 2
        with pytest.raises(ValueError, match="exceeds smallest populated"):
            hhl.apply_reciprocal_rotation(sv.StateVector(lay, amps), prep)


class TestInverseQPE:
    def test_clock_disentangles_exactly(self):
        prep = hhl.prepare_system(B_MIXED, hhl.HHLConfig(n_clock=2))
        state = sv.init_state(prep.layout, np.array([0.6, 0.8]))
        mid = hhl.run_qpe(prep, state)
        out = hhl.run_inverse_qpe(prep, mid)
        assert hhl.clock_leakage(out) <= 1e-10
        # full round trip restores the input state
        assert np.abs(out.amplitudes - state.amplitudes).max() < 1e-10

    def test_identity_system_single_branch(self):
        prep = hhl.prepare_system(np.eye(2), hhl.HHLConfig(n_clock=2))
        state = sv.init_state(prep.layout, np.array([1.0, 0.0]))
        out = hhl.run_inverse_qpe(
            prep, hhl.apply_reciprocal_rotation(hhl.run_qpe(prep, state), prep)
        )
        t = out.tensor()
        # C equals the encoded eigenvalue: everything on |0>_c |b> |1>_l
        assert abs(t[0, 0, 1]) == pytest.approx(1.0, abs=1e-10)

    def test_inexact_encoding_leaks(self):
        b = np.diag([1.0, 1.37])  # no integer landing at 2 clock qubits
        prep = hhl.prepare_system(b, hhl.HHLConfig(n_clock=2))
        assert not prep.exact_encoding
        state = sv.init_state(prep.layout, np.array([1.0, 1.0]) / math.sqrt(2))
        out = hhl.run_inverse_qpe(
            prep, hhl.apply_reciprocal_rotation(hhl.run_qpe(prep, state), prep)
        )
        assert hhl.clock_leakage(out) > 1e-6


class TestSolve:
    def test_identity_system(self):
        prep = hhl.prepare_system(np.eye(2), hhl.HHLConfig(n_clock=2))
        sol = hhl.solve(prep, np.array([1.0, 0.0]))
        assert np.allclose(sol.solution, [1.0, 0.0], atol=1e-9)
        assert sol.success_probability == pytest.approx(1.0, abs=1e-9)

    def test_mixed_system_matches_direct(self):
        prep = hhl.prepare_system(B_MIXED, hhl.HHLConfig(n_clock=2))
        sol = hhl.solve(prep, np.array([1.0, 0.0]))
        assert np.abs(sol.solution - np.array([0.75, -0.25])).max() < 1e-6
        assert fidelity(sol.solution, direct(B_MIXED, [1.0, 0.0])) >= 1.0 - 1e-9

    def test_diagonal_system(self):
        prep = hhl.prepare_system(np.diag([1.0, 2.0]), hhl.HHLConfig(n_clock=2))
        sol = hhl.solve(prep, np.array([0.0, 1.0]))
        assert np.abs(sol.solution - np.array([0.0, 0.5])).max() < 1e-6

    def test_success_probability_formula(self):
        # b = (1,0): alpha_i^2 = 1/2 each; p = sum |alpha_i C / lam_i|^2
        prep = hhl.prepare_system(B_MIXED, hhl.HHLConfig(n_clock=2))
        sol = hhl.solve(prep, np.array([1.0, 0.0]))
        expected = 0.5 * (1.0 / 1.0) ** 2 + 0.5 * (1.0 / 2.0) ** 2
        assert sol.success_probability == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("magnitude", [1e300, 1e-170])
    def test_norm_neither_overflows_nor_underflows(self, magnitude):
        # ||b||^2 is out of float range both ways; the solution is b's scaled copy
        prep = hhl.prepare_system(B_MIXED, hhl.HHLConfig(n_clock=2))
        b = np.array([0.3, -0.7])
        sol = hhl.solve(prep, b * magnitude)
        assert np.allclose(sol.solution / magnitude, hhl.solve(prep, b).solution, rtol=1e-12)

    def test_recovered_norm(self):
        prep = hhl.prepare_system(B_MIXED, hhl.HHLConfig(n_clock=2))
        b = np.array([0.3, -0.7])
        sol = hhl.solve(prep, b)
        x = direct(B_MIXED, b)
        assert np.linalg.norm(sol.solution) == pytest.approx(np.linalg.norm(x), rel=1e-8)
        assert np.linalg.norm(B_MIXED @ sol.solution - b) < 1e-7

    def test_odd_dimension_padding_stripped(self):
        rng = np.random.default_rng(13)
        b_mat = random_pd(rng, 3, cond=4.0)
        prep = hhl.prepare_system(b_mat, hhl.HHLConfig(n_clock=6))
        rhs = rng.standard_normal(3)
        sol = hhl.solve(prep, rhs)
        assert sol.solution.shape == (3,)
        assert fidelity(sol.solution, direct(b_mat, rhs)) > 0.99

    def test_exact_encoding_fidelity(self):
        # spectrum {1, 2, 3, 4} scaled exactly into a 3-qubit clock
        rng = np.random.default_rng(14)
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        b_mat = (q * np.array([1.0, 2.0, 3.0, 4.0])) @ q.T
        b_mat = (b_mat + b_mat.T) / 2
        prep = hhl.prepare_system(b_mat, hhl.HHLConfig(n_clock=3))
        assert prep.exact_encoding
        rhs = rng.standard_normal(4)
        sol = hhl.solve(prep, rhs)
        assert fidelity(sol.solution, direct(b_mat, rhs)) >= 1.0 - 1e-9
        assert sol.clock_leakage <= 1e-10

    def test_random_systems_high_fidelity(self):
        rng = np.random.default_rng(15)
        for n in (2, 4):
            for trial in range(5):
                b_mat = random_pd(rng, n, cond=rng.uniform(1.5, 8.0))
                prep = hhl.prepare_system(b_mat, hhl.HHLConfig(n_clock=6))
                rhs = rng.standard_normal(n)
                sol = hhl.solve(prep, rhs)
                assert fidelity(sol.solution, direct(b_mat, rhs)) >= 0.99

    def test_caching_equivalence(self):
        b = np.array([0.2, 0.9])
        first = hhl.prepare_system(B_MIXED, hhl.HHLConfig(n_clock=3))
        second = hhl.prepare_system(B_MIXED, hhl.HHLConfig(n_clock=3))
        x1 = hhl.solve(first, b).solution
        x2 = hhl.solve(second, b).solution
        x3 = hhl.solve(first, b).solution
        assert np.array_equal(x1, x2)
        assert np.array_equal(x1, x3)

    @pytest.mark.parametrize("matrix", ["b_prime", "b_double_prime"])
    def test_matches_dense_pipeline(self, matrix):
        # every bundled case, with the largest clock that keeps 10 qubits; the
        # eigenvector right-hand sides include leakages from 1e-26 up to 7e-10,
        # which 1 - (mass on clock value 0) cannot resolve to 1e-9 relative
        rng = np.random.default_rng(17)
        for name in cases.NAMES:
            mat = getattr(network.build_b_matrices(cases.load(name)), matrix)
            if not mat.size:
                continue
            n_vector = max(1, math.ceil(math.log2(mat.shape[0])))
            prep = hhl.prepare_system(mat, hhl.HHLConfig(n_clock=9 - n_vector))
            assert prep.layout.n_qubits == 10
            rhs = np.vstack([rng.standard_normal((3, prep.dimension)), np.linalg.eigh(mat)[1].T])
            xs, successes, leakages = dense_hhl(prep, dense_hhl_operators(prep, mat), rhs)
            for b, x, success, leakage in zip(rhs, xs, successes, leakages):
                sol = hhl.solve(prep, b)
                assert np.abs(sol.solution - x).max() <= 1e-12 * np.abs(x).max(), name
                assert sol.success_probability == pytest.approx(success, abs=1e-12), name
                assert abs(sol.clock_leakage - leakage) <= 1e-9 * leakage + 1e-20, name

    def test_rejects_zero_rhs(self):
        prep = hhl.prepare_system(B_MIXED, hhl.HHLConfig(n_clock=2))
        with pytest.raises(ValueError, match="zero"):
            hhl.solve(prep, np.zeros(2))

    def test_rejects_wrong_length(self):
        prep = hhl.prepare_system(B_MIXED, hhl.HHLConfig(n_clock=2))
        with pytest.raises(ValueError, match="shape"):
            hhl.solve(prep, np.ones(3))


def solve_without_spare(prep, b):
    """circuit_solve's pipeline on spare-less states: every stage takes a fresh buffer."""
    n = prep.dimension
    b = np.asarray(b, dtype=complex)
    b_norm = np.linalg.norm(b)
    padded_b = np.zeros(prep.layout.vector_dim, dtype=complex)
    padded_b[:n] = b / b_norm
    state = sv.init_state(prep.layout, padded_b)
    state = hhl.run_qpe(prep, state)
    state = hhl.apply_reciprocal_rotation(state, prep)
    state = hhl.run_inverse_qpe(prep, state)
    assert state.spare is None
    success, state = sv.measure_qubit(state)
    vec, slice_norm = sv.extract_register(state)
    x = (vec * slice_norm * math.sqrt(success) * b_norm * prep.scale / prep.rotation_constant)[:n]
    if np.abs(x.imag).max(initial=0.0) <= 1e-10 * max(1.0, np.abs(x).max()):
        x = x.real.copy()
    return x, success, hhl.clock_leakage(state)


def bundled_systems(n_clock):
    """(label, matrix, prepared system) for every bundled B' and B''."""
    for name in cases.NAMES:
        mats = network.build_b_matrices(cases.load(name))
        for label, mat in (("B'", mats.b_prime), ("B''", mats.b_double_prime)):
            if mat.size:
                yield f"{name} {label}", mat, hhl.prepare_system(mat, hhl.HHLConfig(n_clock))


class TestDoubleBuffer:
    """run_circuit ping-pongs between two buffers; the spare-less stages are the reference."""

    @pytest.mark.parametrize("n_clock", range(2, 11))
    def test_solve_matches_spare_less_pipeline(self, n_clock):
        rng = np.random.default_rng(100 + n_clock)
        checked = 0
        for label, _, prep in bundled_systems(n_clock):
            for b in (rng.standard_normal(prep.dimension), np.ones(prep.dimension)):
                sol = circuit_solve(prep, b)
                x, success, leakage = solve_without_spare(prep, b)
                assert np.array_equal(sol.solution, x), label
                assert sol.success_probability == success, label
                assert sol.clock_leakage == leakage, label
                checked += 1
        assert checked >= 20

    def test_rotation_with_spare_matches_without(self):
        prep = hhl.prepare_system(B_MIXED, hhl.HHLConfig(n_clock=3))
        state = hhl.run_qpe(prep, sv.init_state(prep.layout, np.array([0.6, 0.8j])))
        before = state.amplitudes.copy()
        reference = hhl.apply_reciprocal_rotation(state, prep)
        assert np.array_equal(state.amplitudes, before)  # a spare-less input is kept
        assert reference.spare is None
        assert not np.shares_memory(reference.amplitudes, state.amplitudes)
        buffers = (before, np.empty_like(before))
        out = hhl.apply_reciprocal_rotation(sv.StateVector(prep.layout, *buffers), prep)
        assert np.array_equal(out.amplitudes, reference.amplitudes)
        assert {id(out.amplitudes), id(out.spare)} == {id(buf) for buf in buffers}

    def test_solution_shares_no_memory_with_buffers(self):
        prep = hhl.prepare_system(B_MIXED, hhl.HHLConfig(n_clock=3))
        for b in (np.array([0.2, 0.9]), np.array([0.2 + 0.1j, 0.9])):
            run = hhl.run_circuit(prep, b / np.linalg.norm(b))
            assert run.state.spare is not None
            assert not np.shares_memory(run.slice, run.state.amplitudes)
            assert not np.shares_memory(run.slice, run.state.spare)

    def test_peak_memory_of_a_large_solve(self):
        mats = network.build_b_matrices(cases.load("chain_16"))
        prep = hhl.prepare_system(mats.b_prime, hhl.HHLConfig(n_clock=9))
        state_bytes = (1 << prep.layout.n_qubits) * np.dtype(complex).itemsize
        b = np.random.default_rng(5).standard_normal(prep.dimension)
        circuit_solve(prep, b)  # numpy's own lazy set-up is not the circuit's
        tracemalloc.start()
        try:
            circuit_solve(prep, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the state and its spare, plus temporaries of at most half a state
        assert peak <= 3.5 * state_bytes


class TestGainTable:
    """solve applies the prepared gain table; the full-state circuit is the reference."""

    @pytest.mark.parametrize("n_clock", range(2, 11))
    def test_matches_full_circuit(self, n_clock):
        # Both paths round the basis change Q^H b at about n eps ||b||, and the
        # largest gain amplifies that: an eigenvector whose own gain is 1e-4 of
        # the largest (chain_16 at n_clock=2) is off by 1e-11 relative in both,
        # against the same circuit evaluated to 40 digits. Hence the floor.
        rng = np.random.default_rng(200 + n_clock)
        for label, mat, prep in bundled_systems(n_clock):
            n = prep.dimension
            rhs = [rng.standard_normal(n), np.ones(n), *np.linalg.eigh(mat)[1].T]
            for k, b in enumerate(rhs):
                sol = hhl.solve(prep, b)
                ref = circuit_solve(prep, b)
                x = ref.solution
                rounding = n * np.finfo(float).eps * np.abs(prep.gains).max() * (
                    np.linalg.norm(b) * prep.scale / prep.rotation_constant
                )
                assert np.abs(sol.solution - x).max() <= 1e-12 * np.abs(x).max() + rounding, (
                    label, k,
                )
                assert sol.success_probability == pytest.approx(
                    ref.success_probability, rel=1e-12, abs=0.0
                ), (label, k)
                leakage = ref.clock_leakage
                assert abs(sol.clock_leakage - leakage) <= 1e-9 * leakage + 1e-20, (label, k)

    def test_tables_are_per_eigenvector(self):
        # an eigenvector input sees its own gain, mass and leakage, and nothing else
        b = np.diag([1.0, 1.37])  # no integer landing at 2 clock qubits: both leak
        prep = hhl.prepare_system(b, hhl.HHLConfig(n_clock=2))
        assert prep.leakage_mass.min() > 1e-6
        for j in range(2):
            sol = hhl.solve(prep, prep.padded_eigenvectors[:2, j])
            p = prep.post_selection_mass[j]
            assert sol.success_probability == pytest.approx(p, rel=1e-14)
            assert sol.clock_leakage == pytest.approx(prep.leakage_mass[j] / p, rel=1e-14)
            gain = prep.gains[j] * prep.scale / prep.rotation_constant
            assert np.abs(sol.solution - gain * prep.padded_eigenvectors[:2, j]).max() < 1e-15

    def test_warm_solve_allocates_no_state(self):
        mats = network.build_b_matrices(cases.load("chain_16"))
        prep = hhl.prepare_system(mats.b_prime, hhl.HHLConfig(n_clock=9))
        state_bytes = (1 << prep.layout.n_qubits) * np.dtype(complex).itemsize
        b = np.random.default_rng(5).standard_normal(prep.dimension)
        hhl.solve(prep, b)
        tracemalloc.start()
        try:
            hhl.solve(prep, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < state_bytes / 16

    def test_prepare_runs_the_circuit_once(self, monkeypatch):
        runs = []
        original = hhl.run_circuit
        monkeypatch.setattr(hhl, "run_circuit", lambda *a: runs.append(a) or original(*a))
        prep = hhl.prepare_system(B_MIXED, hhl.HHLConfig(n_clock=3))
        assert len(runs) == 1
        probe = runs[0][1]
        # the probe is Q (1, ..., 1)/sqrt(n): unit weight on every eigenvector
        assert np.abs(prep.padded_eigenvectors.conj().T @ probe - 1 / math.sqrt(2)).max() < 1e-15
        for b in (np.array([1.0, 0.0]), np.array([0.3, -0.7])):
            hhl.solve(prep, b)
        assert len(runs) == 1

    def test_rejects_what_the_circuit_rejects(self):
        # tables edited in place: a vanishing post-selection, then a vanishing slice
        prep = hhl.prepare_system(B_MIXED, hhl.HHLConfig(n_clock=2))
        object.__setattr__(prep, "post_selection_mass", np.full(2, 1e-13))
        with pytest.raises(sv.PostSelectionError, match="outcome 1 has probability 1.000e-13"):
            hhl.solve(prep, np.array([1.0, 0.0]))
        prep = hhl.prepare_system(B_MIXED, hhl.HHLConfig(n_clock=2))
        object.__setattr__(prep, "gains", np.zeros(2, dtype=complex))
        with pytest.raises(ValueError, match=r"clock=0, ancilla=1 has zero norm \(0.000e\+00\)"):
            hhl.solve(prep, np.array([1.0, 0.0]))
