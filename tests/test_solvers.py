"""Solver loop tests: trivial cases, oracle agreement, flows, resources."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from dense_reference import validated_solve_direct
from qpflow import caseio, cases, hhl, linalg, network, solvers, stochastic


def zero_load_case():
    return network.NetworkCase(
        "idle", 100.0,
        (network.Bus(1, "slack", vset=1.0), network.Bus(2, "pq")),
        (network.Branch(1, 2, 0.0, 0.1),),
    )


def stressed_five_bus(mult):
    case = cases.five_bus()
    i = case.bus_index(5)  # bus 5 carries the largest load
    bus = replace(case.buses[i], pd=case.buses[i].pd * mult, qd=case.buses[i].qd * mult)
    return replace(case, buses=case.buses[:i] + (bus,) + case.buses[i + 1 :])


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_config_requires_finite_positive_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance must be finite and positive"):
        solvers.SolverConfig(tolerance=tol)


class TestTrivialCases:
    @pytest.mark.parametrize(
        "solve",
        [solvers.solve_qpf, solvers.solve_fast_decoupled, solvers.solve_newton],
    )
    def test_zero_load_converges_in_one_iteration(self, solve):
        report = solve(zero_load_case())
        assert report.converged
        assert report.iterations == 1
        assert np.allclose(report.v, 1.0)
        assert np.allclose(report.theta, 0.0)

    @pytest.mark.parametrize("method", ["qpf", "fd", "nr"])
    def test_slack_only_case_converges_in_one_iteration(self, method):
        # B' and B'' are both empty: qpf prepares nothing and solves nothing
        case = network.NetworkCase("one", 100.0, (network.Bus(1, "slack", vset=1.03),), ())
        report = solvers.solve(case, solvers.SolverConfig(method=method))
        assert report.converged
        assert report.iterations == 1
        assert report.v.tolist() == [1.03]
        assert report.theta.tolist() == [0.0]
        assert report.warnings == ()

    @pytest.mark.parametrize("method", ["qpf", "fd", "nr"])
    def test_solve_dispatches_on_method(self, method):
        report = solvers.solve(cases.five_bus(), solvers.SolverConfig(method=method))
        assert report.converged
        assert report.method == method

    def test_solve_looks_up_the_method_at_call_time(self, monkeypatch):
        # wrappers installed on the module after import must still be reached
        calls = []
        original = solvers.solve_fast_decoupled
        monkeypatch.setattr(
            solvers, "solve_fast_decoupled", lambda *a: calls.append(a) or original(*a)
        )
        solvers.solve(zero_load_case())
        assert len(calls) == 1

    @pytest.mark.parametrize("method", ["qpf", "fd"])
    def test_one_ybus_build_per_solve(self, method, monkeypatch):
        # build_b_matrices builds the Y-bus that the loop then reuses
        calls = []
        original = network.build_ybus
        monkeypatch.setattr(
            network, "build_ybus", lambda case: calls.append(case) or original(case)
        )
        solvers.solve(cases.five_bus(), solvers.SolverConfig(method=method))
        assert len(calls) == 1

    @pytest.mark.parametrize("method", ["qpf", "fd", "nr"])
    def test_max_iterations_exhausted_is_report_not_error(self, method):
        report = solvers.solve(
            cases.five_bus(), solvers.SolverConfig(method=method, max_iterations=1)
        )
        assert not report.converged
        assert report.iterations == 1
        assert len(report.trace) == 1

    @pytest.mark.parametrize("method", ["qpf", "fd", "nr"])
    def test_divergent_case_reports_collapse(self, method):
        report = solvers.solve(stressed_five_bus(6.0), solvers.SolverConfig(method=method))
        assert not report.converged
        assert any("collapsed" in w for w in report.warnings)
        assert len(report.trace) == report.iterations - 1

    @pytest.mark.parametrize("method", ["fd", "nr"])
    def test_non_finite_mismatch_stops_with_valid_json(self, method):
        # a finite case whose first step overflows the mismatch
        case = cases.five_bus()
        buses = tuple(replace(b, qd=-1e300) if b.kind == network.PQ else b for b in case.buses)
        config = solvers.SolverConfig(method=method, max_iterations=50)
        with np.errstate(over="ignore", invalid="ignore"):
            report = solvers.solve(replace(case, buses=buses), config)
        assert not report.converged
        assert report.warnings == ("mismatch is not finite at iteration 1; stopping",)
        assert report.iterations == 1
        assert report.trace == ()

        def reject(token):
            raise AssertionError(f"report carries {token}")

        json.loads(caseio.emit_report(report), parse_constant=reject)
        v0, theta0 = case.start_voltages()  # the last finite state
        assert np.array_equal(report.v, v0) and np.array_equal(report.theta, theta0)

    def test_singular_jacobian_stops_newton(self):
        # the shunt cancels the branch's dQ/dV at flat start, so J is singular
        case = network.NetworkCase(
            "singular", 100.0,
            (network.Bus(1, "slack"), network.Bus(2, "pq", pd=0.1, bs=5.0)),
            (network.Branch(1, 2, 0.0, 0.1),),
        )
        report = solvers.solve_newton(case)
        assert report.warnings == ("singular Jacobian at iteration 1",)
        assert report.trace == ()
        assert not report.converged
        assert report.iterations == 1


class TestOracleAgreement:
    def test_qpf_trace_matches_fast_decoupled(self):
        case = cases.five_bus()
        qpf = solvers.solve_qpf(case)
        fd = solvers.solve_fast_decoupled(case)
        assert qpf.converged and fd.converged
        assert qpf.iterations == fd.iterations
        for rq, rf in zip(qpf.trace, fd.trace):
            assert np.abs(rq.v - rf.v).max() <= 1e-3
            assert np.abs(rq.theta - rf.theta).max() <= 1e-3

    def test_all_methods_agree_on_bundled_cases(self):
        for name in ("two_bus", "five_bus", "chain_2", "chain_4"):
            case = cases.load(name)
            fd = solvers.solve_fast_decoupled(case)
            nr = solvers.solve_newton(case)
            assert fd.converged and nr.converged
            assert np.abs(fd.v - nr.v).max() <= 1e-3
            assert np.abs(fd.theta - nr.theta).max() <= 1e-3

    def test_newton_needs_no_more_iterations(self):
        case = cases.five_bus()
        fd = solvers.solve_fast_decoupled(case)
        nr = solvers.solve_newton(case)
        assert nr.iterations <= fd.iterations

    def test_converged_report_has_small_recomputed_mismatch(self):
        case = cases.five_bus()
        for report in (solvers.solve_fast_decoupled(case), solvers.solve_newton(case)):
            mis = network.compute_mismatch(case, report.v, report.theta)
            assert mis.norm_p < report.tolerance
            assert mis.norm_q < report.tolerance

    def test_stressed_iterations_increase_for_both(self):
        counts_fd = []
        counts_qpf = []
        for mult in (4.0, 4.6, 5.0):
            case = stressed_five_bus(mult)
            fd = solvers.solve_fast_decoupled(case)
            qpf = solvers.solve_qpf(case)
            assert fd.converged and qpf.converged
            counts_fd.append(fd.iterations)
            counts_qpf.append(qpf.iterations)
        assert counts_fd == counts_qpf
        assert counts_fd[0] < counts_fd[1] < counts_fd[2]


class TestPreparedDirectPath:
    """fd prepares B' and B'' once; its reports equal the per-call-validated solve."""

    @staticmethod
    def reference(monkeypatch):
        # the old path: hand the raw matrix to a solve that checks it every call
        monkeypatch.setattr(linalg, "prepare_direct", lambda a, name: a)
        monkeypatch.setattr(linalg, "solve_direct", validated_solve_direct)

    @staticmethod
    def fd_cases():
        yield from ((name, cases.load(name)) for name in cases.NAMES)
        for mult in (1.0, 4.6, 6.0):
            yield f"five_bus x{mult}", stressed_five_bus(mult)

    def test_reports_equal_reference_on_every_case(self, monkeypatch):
        fast = {name: solvers.solve_fast_decoupled(case) for name, case in self.fd_cases()}
        self.reference(monkeypatch)
        for name, case in self.fd_cases():
            ref = solvers.solve_fast_decoupled(case)
            got = fast[name]
            assert (got.converged, got.iterations, got.warnings) == (
                ref.converged, ref.iterations, ref.warnings,
            ), name
            assert np.array_equal(got.v, ref.v) and np.array_equal(got.theta, ref.theta), name
            for rg, rr in zip(got.trace, ref.trace, strict=True):
                assert np.array_equal(rg.v, rr.v) and np.array_equal(rg.theta, rr.theta), name
                assert (rg.norm_p, rg.norm_q) == (rr.norm_p, rr.norm_q), name

    def test_study_byte_identical_to_reference(self, monkeypatch):
        doc = cases.load_document("five_bus")

        def study():
            result = stochastic.run_monte_carlo(
                doc.case, doc.injections, doc.correlations, n=40, seed=5,
                solver=solvers.SolverConfig(method="fd"),
            )
            return caseio.emit_monte_carlo(result)

        fast = study()
        self.reference(monkeypatch)
        assert study() == fast

    def test_matrices_checked_once_per_solve(self, monkeypatch):
        calls = []
        original = linalg.validate_hermitian
        monkeypatch.setattr(
            linalg, "validate_hermitian", lambda *a: calls.append(a) or original(*a)
        )
        iterations = []
        for case in (cases.five_bus(), stressed_five_bus(5.0), cases.chain(16)):
            calls.clear()
            report = solvers.solve_fast_decoupled(case)
            iterations.append(report.iterations)
            assert len(calls) <= 2
        assert max(iterations) > 2


def counting(monkeypatch, module, names):
    """Count the calls of ``module``'s functions ``names`` for this test."""
    calls = dict.fromkeys(names, 0)
    for fn in names:
        original = getattr(module, fn)

        def wrapper(*args, _fn=fn, _original=original, **kwargs):
            calls[_fn] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, fn, wrapper)
    return calls


class TestConstantMatrixRule:
    """fd and qpf check B' and B'' once, in linalg, with the same rule."""

    DECOUPLED = {"fd": solvers.solve_fast_decoupled, "qpf": solvers.solve_qpf}

    @pytest.mark.parametrize("name", ["five_bus", "chain_16"])
    @pytest.mark.parametrize("method, decomposition", [("fd", "eigvalsh"), ("qpf", "eigh")])
    def test_one_spectral_decomposition_per_matrix(
        self, monkeypatch, name, method, decomposition
    ):
        case = cases.load(name)
        mats = network.build_b_matrices(case)
        nonempty = sum(m.size > 0 for m in (mats.b_prime, mats.b_double_prime))
        calls = counting(monkeypatch, np.linalg, ["eigvalsh", "eigh"])
        config = solvers.SolverConfig(method=method, max_iterations=3)
        solvers.solve(case, config)
        assert calls == {"eigvalsh": 0, "eigh": 0, decomposition: nonempty}

    @pytest.mark.parametrize("method", ["fd", "qpf"])
    def test_pathological_shunt_rejected(self, method):
        # B'' = -Im(Y22) = 10 - 20: one negative eigenvalue, well conditioned
        sick = network.NetworkCase(
            "sick", 100.0,
            (network.Bus(1, "slack"), network.Bus(2, "pq", bs=20.0)),
            (network.Branch(1, 2, 0.0, 0.1),),
        )
        with pytest.raises(ValueError) as err:
            self.DECOUPLED[method](sick)
        assert type(err.value) is ValueError
        assert str(err.value) == "B'' is not positive definite (smallest eigenvalue -1.000e+01)"

    @pytest.mark.parametrize("method", ["fd", "qpf"])
    def test_ill_conditioned_b_prime_rejected_before_first_iteration(self, monkeypatch, method):
        # B' over buses 2, 3 is [[100 + 1e-13, -1e-13], [-1e-13, 1e-13]]: positive
        # definite, with lambda_min / lambda_max near 1e-15
        case = network.NetworkCase(
            "weak", 100.0,
            (network.Bus(1, "slack"), network.Bus(2, "pq", pd=0.1), network.Bus(3, "pq")),
            (network.Branch(1, 2, 0.0, 0.01), network.Branch(2, 3, 0.0, 1e13)),
        )
        w = np.linalg.eigvalsh(network.build_b_matrices(case).b_prime)
        assert 0.0 < w[0] < 1e-12 * w[-1]
        calls = []
        monkeypatch.setattr(network, "compute_mismatch", lambda *a: calls.append(a))
        with pytest.raises(
            linalg.SingularMatrixError, match="^B' is singular to working precision"
        ):
            self.DECOUPLED[method](case)
        assert calls == []

    def test_newton_does_not_prepare(self):
        # nr solves the full Jacobian: the indefinite B'' above is not its concern
        sick = network.NetworkCase(
            "sick", 100.0,
            (network.Bus(1, "slack"), network.Bus(2, "pq", bs=20.0)),
            (network.Branch(1, 2, 0.0, 0.1),),
        )
        assert solvers.solve_newton(sick).iterations >= 1


class TestQuantumBookkeeping:
    def test_first_iteration_only_preparation(self):
        report = solvers.solve_qpf(cases.five_bus())
        res = report.resource
        assert res.hhl_invocations == 2 * report.iterations
        assert res.prepare_reuse == 2 * (report.iterations - 1)

    def test_success_probabilities_recorded(self):
        report = solvers.solve_qpf(cases.five_bus())
        for rec in report.trace:
            assert len(rec.hhl_success) == 2
            for p in rec.hhl_success:
                assert 0.0 < p <= 1.0

    def test_precision_warning_propagates(self):
        # reported once, in the report, naming each matrix; never as a Python warning
        config = solvers.SolverConfig(method="qpf", hhl=hhl.HHLConfig(n_clock=2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solvers.solve_qpf(cases.five_bus(), config)
        assert [w.split(": ")[0] for w in report.warnings] == ["B'", "B''"]
        assert all("cannot all be distinctly encoded" in w for w in report.warnings)

    def test_pv_only_case_skips_magnitude_system(self):
        case = network.NetworkCase(
            "pv_only", 100.0,
            (network.Bus(1, "slack"), network.Bus(2, "pv", pg=0.2, vset=1.0)),
            (network.Branch(1, 2, 0.0, 0.2),),
        )
        report = solvers.solve_qpf(case)
        assert report.converged
        assert report.resource.hhl_invocations == report.iterations


class TestBranchFlows:
    def test_zero_load_no_flow(self):
        report = solvers.solve_fast_decoupled(zero_load_case())
        for flow in report.flows:
            assert flow.p_from == pytest.approx(0.0, abs=1e-12)
            assert flow.q_from == pytest.approx(0.0, abs=1e-12)

    def test_two_bus_hand_formulas(self):
        case = network.NetworkCase(
            "two_bus", 100.0,
            (network.Bus(1, "slack", vset=1.0), network.Bus(2, "pq", pd=0.1, qd=0.05)),
            (network.Branch(1, 2, 0.0, 0.1),),
        )
        report = solvers.solve_newton(case, solvers.SolverConfig(method="nr", tolerance=1e-12))
        v1, v2 = report.v
        d = report.theta[1] - report.theta[0]
        b = 10.0  # 1/x
        flow = report.flows[0]
        assert flow.p_from == pytest.approx(v1 * v2 * b * math.sin(-d), abs=1e-10)
        assert flow.q_from == pytest.approx(v1 * v1 * b - v1 * v2 * b * math.cos(d), abs=1e-10)
        assert flow.p_to == pytest.approx(-0.1, abs=1e-9)

    def test_power_balance_bookkeeping(self):
        case = cases.five_bus()
        report = solvers.solve_newton(case, solvers.SolverConfig(method="nr", tolerance=1e-10))
        vc = report.v * np.exp(1j * report.theta)
        injections = vc * np.conj(network.build_ybus(case) @ vc)
        shunts = sum(complex(b.gs, -b.bs) * abs(vc[i]) ** 2 for i, b in enumerate(case.buses))
        losses = sum(complex(f.p_loss, f.q_loss) for f in report.flows)
        total = injections.sum()
        assert total.real == pytest.approx((losses + shunts).real, abs=1e-9)
        assert total.imag == pytest.approx((losses + shunts).imag, abs=1e-9)


class TestResourceEstimate:
    def test_five_bus_layout(self):
        est = solvers.resource_estimate(cases.five_bus())
        assert est.n_vector == 2  # four angle unknowns
        assert est.qubits_total == 4 + 2 + 1

    @pytest.mark.parametrize("dim,expected", [(2, 1), (4, 2), (8, 3), (16, 4)])
    def test_chain_scaling(self, dim, expected):
        est = solvers.resource_estimate(cases.chain(dim))
        assert est.n_vector == expected
        assert est.qubits_total == est.n_clock + est.n_vector + 1

    def test_two_bus_minimum_register(self):
        est = solvers.resource_estimate(cases.two_bus())
        assert est.n_vector == 1
        assert est.qubits_total == 6

    def test_dimension_five_pads_to_eight(self):
        buses = [network.Bus(1, "slack")] + [network.Bus(i, "pq", pd=0.01) for i in range(2, 7)]
        branches = [network.Branch(i, i + 1, 0.01, 0.1) for i in range(1, 6)]
        case = network.NetworkCase("six_bus", 100.0, tuple(buses), tuple(branches))
        est = solvers.resource_estimate(case)
        assert est.n_vector == 3
