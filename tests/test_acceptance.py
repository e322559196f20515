"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Tolerances are fixed here and nowhere else; they are the package's exit
criteria, not tuning knobs.
"""

import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qpflow import caseio, cases, hhl, linalg, network, solvers, stochastic
from qpflow import statevector as sv

TRACE_TOL = 1e-3
FINAL_TOL = 1e-3
EXACT_FIDELITY = 1.0 - 1e-9
RANDOM_FIDELITY = 0.99
LEAKAGE_TOL = 1e-10
CORR_TOL = 0.03
BATCH_TOL = 1e-3

# clock sizes that resolve each bundled case's eigenvalue spread
CLOCK_FOR_CASE = {
    "two_bus": 4,
    "five_bus": 4,
    "chain_2": 4,
    "chain_4": 5,
    "chain_8": 7,
    "chain_16": 9,
}

STRESS_MULTIPLIERS = (4.0, 4.6, 5.0)


def _report(number: int, name: str, ok: bool, detail: str):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{verdict}] {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _stressed(case, mult):
    i = case.bus_index(5)
    bus = replace(case.buses[i], pd=case.buses[i].pd * mult, qd=case.buses[i].qd * mult)
    return replace(case, buses=case.buses[:i] + (bus,) + case.buses[i + 1 :])


def test_criterion_1_per_iteration_agreement():
    start = time.perf_counter()
    case = cases.five_bus()
    config = solvers.SolverConfig(method="qpf", tolerance=1e-5, hhl=hhl.HHLConfig(n_clock=4))
    qpf = solvers.solve_qpf(case, config)
    fd = solvers.solve_fast_decoupled(case, solvers.SolverConfig(tolerance=1e-5))
    elapsed = time.perf_counter() - start

    dev = 0.0
    for rq, rf in zip(qpf.trace, fd.trace):
        dev = max(dev, np.abs(rq.v - rf.v).max(), np.abs(rq.theta - rf.theta).max())
    ok = (
        qpf.converged
        and fd.converged
        and qpf.iterations == fd.iterations
        and dev <= TRACE_TOL
        and elapsed < 30.0
    )
    _report(
        1, "QPF-classical per-iteration agreement", ok,
        f"iterations {qpf.iterations} vs {fd.iterations}, "
        f"max per-iteration deviation {dev:.2e} (tol {TRACE_TOL}), {elapsed:.2f}s",
    )


def test_criterion_2_final_state_vs_newton():
    worst = 0.0
    all_ok = True
    for name in cases.NAMES:
        case = cases.load(name)
        config = solvers.SolverConfig(
            method="qpf", hhl=hhl.HHLConfig(n_clock=CLOCK_FOR_CASE[name])
        )
        qpf = solvers.solve_qpf(case, config)
        nr = solvers.solve_newton(case)
        dev = max(np.abs(qpf.v - nr.v).max(), np.abs(qpf.theta - nr.theta).max())
        worst = max(worst, dev)
        all_ok = all_ok and qpf.converged and nr.converged and dev <= FINAL_TOL

    fd = solvers.solve_fast_decoupled(cases.five_bus())
    nr5 = solvers.solve_newton(cases.five_bus())
    ordering = nr5.iterations <= fd.iterations
    _report(
        2, "final state vs Newton", all_ok and ordering,
        f"worst final deviation {worst:.2e} over {len(cases.NAMES)} cases "
        f"(tol {FINAL_TOL}); Newton {nr5.iterations} <= FD {fd.iterations} iterations",
    )


def test_criterion_3_clock_register_sensitivity():
    case = cases.five_bus()
    fd = solvers.solve_fast_decoupled(case)

    ok4 = True
    qpf4 = solvers.solve_qpf(case, solvers.SolverConfig(method="qpf", hhl=hhl.HHLConfig(n_clock=4)))
    dev4 = max(
        max(np.abs(rq.v - rf.v).max(), np.abs(rq.theta - rf.theta).max())
        for rq, rf in zip(qpf4.trace, fd.trace)
    )
    ok4 = qpf4.converged and qpf4.iterations == fd.iterations and dev4 <= TRACE_TOL

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", hhl.PrecisionWarning)
        qpf2 = solvers.solve_qpf(
            case, solvers.SolverConfig(method="qpf", hhl=hhl.HHLConfig(n_clock=2))
        )
    dev2 = max(
        max(np.abs(rq.v - rf.v).max(), np.abs(rq.theta - rf.theta).max())
        for rq, rf in zip(qpf2.trace, fd.trace)
    )
    degraded = (not qpf2.converged) or dev2 > TRACE_TOL
    if qpf2.converged:
        observed = f"converged in {qpf2.iterations} but deviates {dev2:.3g} from classical"
    else:
        observed = f"failed to converge within 100 iterations (deviation {dev2:.3g})"
    _report(
        3, "clock-register sensitivity", ok4 and degraded,
        f"n_clock=4 deviation {dev4:.2e}; n_clock=2 {observed}",
    )


def _fidelity(x, y):
    """|<x, y>| / (||x|| ||y||), the overlap of two solution directions."""
    return abs(np.vdot(x, y)) / (np.linalg.norm(x) * np.linalg.norm(y))


def test_criterion_4_hhl_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)

    # exactly encodable spectra: eigenvalues {1, 2} on a 2-qubit clock
    mat = np.array([[1.5, 0.5], [0.5, 1.5]])
    prep = hhl.prepare_system(mat, hhl.HHLConfig(n_clock=2))
    oracle = linalg.prepare_direct(mat)
    exact_ok = prep.exact_encoding
    worst_exact = 1.0
    worst_leak = 0.0
    for _ in range(5):
        b = rng.standard_normal(2)
        sol = hhl.solve(prep, b)
        worst_exact = min(worst_exact, _fidelity(sol.solution, linalg.solve_direct(oracle, b)))
        worst_leak = max(worst_leak, sol.clock_leakage)
    exact_ok = exact_ok and worst_exact >= EXACT_FIDELITY and worst_leak <= LEAKAGE_TOL

    worst_random = 1.0
    for n in (2, 4):
        for _ in range(10):
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            spectrum = np.linspace(1.0, rng.uniform(2.0, 8.0), n)
            mat = (q * spectrum) @ q.T
            mat = (mat + mat.T) / 2
            b = rng.standard_normal(n)
            solution = hhl.solve(hhl.prepare_system(mat, hhl.HHLConfig(n_clock=6)), b)
            x_direct = linalg.solve_direct(linalg.prepare_direct(mat), b)
            worst_random = min(worst_random, _fidelity(solution.solution, x_direct))
    elapsed = time.perf_counter() - start
    ok = exact_ok and worst_random >= RANDOM_FIDELITY and elapsed < 10.0
    _report(
        4, "HHL solver fidelity", ok,
        f"exact fidelity >= {worst_exact:.12f}, leakage {worst_leak:.1e}, "
        f"random fidelity >= {worst_random:.4f}, {elapsed:.2f}s",
    )


def test_criterion_5_stressed_load_behavior():
    case = cases.five_bus()
    fd_counts = []
    qpf_counts = []
    for mult in STRESS_MULTIPLIERS:
        stressed = _stressed(case, mult)
        fd = solvers.solve_fast_decoupled(stressed)
        qpf = solvers.solve_qpf(stressed)
        assert fd.converged and qpf.converged
        fd_counts.append(fd.iterations)
        qpf_counts.append(qpf.iterations)
    increasing = fd_counts[0] < fd_counts[1] < fd_counts[2]
    identical = fd_counts == qpf_counts
    _report(
        5, "stressed-load behavior", increasing and identical,
        f"load multipliers {STRESS_MULTIPLIERS} -> iterations {fd_counts} "
        f"(QPF identical: {identical})",
    )


def test_criterion_6_stochastic_study():
    start = time.perf_counter()
    doc = cases.load_document("five_bus")
    result = stochastic.run_monte_carlo(
        doc.case, doc.injections, doc.correlations, n=5000, seed=20240501
    )
    rho = result.injection_correlation[(3, 4)]
    v_corr = result.voltage_correlation[(3, 4)]
    share = result.n_converged / result.n_samples

    repeat = stochastic.run_monte_carlo(
        doc.case, doc.injections, doc.correlations, n=200, seed=20240501
    )
    deterministic = np.array_equal(result.voltages[:200], repeat.voltages)

    qpf_batch = stochastic.run_monte_carlo(
        doc.case, doc.injections, doc.correlations, n=200, seed=7,
        solver=solvers.SolverConfig(method="qpf"),
    )
    fd_batch = stochastic.run_monte_carlo(
        doc.case, doc.injections, doc.correlations, n=200, seed=7
    )
    batch_dev = np.abs(qpf_batch.voltages - fd_batch.voltages).max()
    elapsed = time.perf_counter() - start

    ok = (
        abs(rho - 0.75) <= CORR_TOL
        and v_corr > 0.0
        and share >= 0.99
        and deterministic
        and batch_dev <= BATCH_TOL
        and elapsed < 120.0
    )
    _report(
        6, "stochastic study", ok,
        f"injection rho {rho:.4f} (target 0.75 +/- {CORR_TOL}), voltage rho {v_corr:.4f}, "
        f"{share:.1%} converged, QPF batch deviation {batch_dev:.2e}, {elapsed:.1f}s",
    )


def test_criterion_7_qubit_scaling():
    expected = {2: 1, 4: 2, 8: 3, 16: 4}
    details = []
    ok = True
    for dim, n_vector in expected.items():
        est = solvers.resource_estimate(cases.chain(dim))
        ok = ok and est.n_vector == n_vector and est.qubits_total == est.n_clock + n_vector + 1
        details.append(f"dim {dim}: n_vector {est.n_vector}, qubits {est.qubits_total}")
    _report(7, "qubit scaling", ok, "; ".join(details))


def test_criterion_8_property_suites():
    rng = np.random.default_rng(99)
    checks = {}

    state = sv.StateVector(sv.RegisterLayout(3, 2), None)
    amps = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    state = sv.StateVector(state.layout, amps / np.linalg.norm(amps))
    after = sv.apply_gate(state, sv.hadamard(2))
    checks["gate norm preservation"] = abs(after.norm() - 1.0) <= 1e-10

    round_trip = sv.apply_inverse_qft(sv.apply_qft(state))
    checks["qft inverse identity"] = np.abs(round_trip.amplitudes - state.amplitudes).max() <= 1e-10

    herm = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    herm = (herm + herm.conj().T) / 2
    dec = linalg.hermitian_eigendecomposition(herm)
    checks["eigendecomposition reconstruction"] = (
        np.abs(dec.reconstruct() - herm).max() <= 1e-10 * np.abs(herm).max()
    )

    low = np.tril(rng.standard_normal((6, 6)))
    low[np.diag_indices(6)] = rng.uniform(0.5, 2.0, 6)
    checks["cholesky round-trip"] = np.abs(linalg.cholesky(low @ low.T) - low).max() <= 1e-9

    case = cases.five_bus()
    nr = solvers.solve_newton(case, solvers.SolverConfig(method="nr", tolerance=1e-9))
    mis = network.compute_mismatch(case, nr.v, nr.theta)
    checks["mismatch zero at solution"] = max(mis.norm_p, mis.norm_q) <= 1e-9

    doc = cases.load_document("five_bus")
    checks["parser round-trip"] = (
        caseio.parse_case(caseio.emit_case(case, doc)) == case
    )

    a = stochastic.sample_injections(doc.injections, doc.correlations, n=50, seed=5)
    b = stochastic.sample_injections(doc.injections, doc.correlations, n=50, seed=5)
    checks["seed determinism"] = np.array_equal(a.p, b.p) and np.array_equal(a.q, b.q)

    failed = [name for name, passed in checks.items() if not passed]
    _report(
        8, "property suites", not failed,
        "all properties hold" if not failed else f"failed: {', '.join(failed)}",
    )
