"""Grid model tests: Y-bus assembly, decoupled matrices, mismatch."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qpflow import cases, network, solvers


def two_bus(load_p=0.1, load_q=0.05, x=0.1, r=0.0):
    return network.NetworkCase(
        name="two_bus",
        base_mva=100.0,
        buses=(
            network.Bus(1, "slack", vset=1.0),
            network.Bus(2, "pq", pd=load_p, qd=load_q),
        ),
        branches=(network.Branch(1, 2, r, x),),
    )


class TestCaseValidation:
    def test_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate bus ids: 2"):
            network.NetworkCase(
                "bad", 100.0,
                (network.Bus(1, "slack"), network.Bus(2, "pq"), network.Bus(2, "pq")),
                (network.Branch(1, 2, 0.0, 0.1),),
            )

    def test_multiple_slacks_named(self):
        with pytest.raises(ValueError, match="multiple slack buses: 1, 2"):
            network.NetworkCase(
                "bad", 100.0,
                (network.Bus(1, "slack"), network.Bus(2, "slack")),
                (network.Branch(1, 2, 0.0, 0.1),),
            )

    def test_missing_slack(self):
        with pytest.raises(ValueError, match="no slack"):
            network.NetworkCase(
                "bad", 100.0,
                (network.Bus(1, "pq"), network.Bus(2, "pq")),
                (network.Branch(1, 2, 0.0, 0.1),),
            )

    def test_disconnected(self):
        with pytest.raises(ValueError, match="unreachable buses: 3"):
            network.NetworkCase(
                "bad", 100.0,
                (network.Bus(1, "slack"), network.Bus(2, "pq"), network.Bus(3, "pq")),
                (network.Branch(1, 2, 0.0, 0.1),),
            )

    def test_zero_reactance_branch(self):
        with pytest.raises(ValueError, match="reactance is zero"):
            network.Branch(1, 2, 0.01, 0.0)

    @pytest.mark.parametrize("field", ["pd", "qd", "pg", "qg", "vset", "gs", "bs"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_bus_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"bus 7: field '{field}' is not finite"):
            network.Bus(7, "pq", **{field: value})

    @pytest.mark.parametrize("field", ["r", "x", "b", "tap"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_branch_field_rejected(self, field, value):
        values = {"r": 0.01, "x": 0.1, field: value}
        with pytest.raises(ValueError, match=f"branch 1-2: field '{field}' is not finite"):
            network.Branch(1, 2, **values)

    def test_non_finite_scheduled_injection_rejected(self):
        # a non-finite sample fails at once instead of running every iteration
        with pytest.raises(ValueError, match="bus 5: field 'pd' is not finite"):
            cases.five_bus().with_scheduled_injection(5, math.nan, 0.0)

    def test_unknown_branch_endpoint(self):
        with pytest.raises(ValueError, match="unknown bus 9"):
            network.NetworkCase(
                "bad", 100.0,
                (network.Bus(1, "slack"), network.Bus(2, "pq")),
                (network.Branch(1, 9, 0.0, 0.1),),
            )


class TestIndexData:
    def test_index_arrays_read_only(self):
        case = cases.five_bus()
        arrays = (case.non_slack_indices, case.pq_indices, *case.scheduled_injections())
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 99
        # the cache survives the attempts
        assert case.non_slack_indices.tolist() == [
            i for i, b in enumerate(case.buses) if b.kind != network.SLACK
        ]

    def test_bus_index_map(self):
        case = cases.five_bus()
        for i, bus in enumerate(case.buses):
            assert case.bus_index(bus.id) == i
        assert case.buses[case.slack_index].kind == network.SLACK
        with pytest.raises(KeyError, match="no bus with id 99"):
            case.bus_index(99)

    def test_with_scheduled_injection_has_fresh_values(self):
        case = cases.five_bus()
        p_before, q_before = (a.copy() for a in case.scheduled_injections())
        i = case.bus_index(5)
        changed = case.with_scheduled_injection(5, -0.7, -0.2)
        p, q = changed.scheduled_injections()
        assert (p[i], q[i]) == pytest.approx((-0.7, -0.2))
        assert np.array_equal(np.delete(p, i), np.delete(p_before, i))
        # the original's cached schedule is untouched
        p_orig, q_orig = case.scheduled_injections()
        assert np.array_equal(p_orig, p_before) and np.array_equal(q_orig, q_before)


class TestYbus:
    def test_two_bus_reactance_only(self):
        y = network.build_ybus(two_bus())
        expected = np.array([[-10j, 10j], [10j, -10j]])
        assert np.abs(y - expected).max() < 1e-12

    def test_shunt_lands_on_diagonal(self):
        case = network.NetworkCase(
            "shunt", 100.0,
            (network.Bus(1, "slack", bs=0.25),),
            (),
        )
        y = network.build_ybus(case)
        assert y[0, 0] == pytest.approx(0.25j)

    def test_charging_splits_between_ends(self):
        case = two_bus()
        case = replace(case, branches=(network.Branch(1, 2, 0.0, 0.1, b=0.04),))
        y = network.build_ybus(case)
        assert y[0, 0] == pytest.approx(-10j + 0.02j)
        assert y[1, 1] == pytest.approx(-10j + 0.02j)

    def test_symmetric_at_unit_tap(self):
        y = network.build_ybus(cases.five_bus())
        assert np.abs(y - y.T).max() < 1e-12

    def test_row_sums_equal_shunt_and_charging(self):
        case = cases.five_bus()
        y = network.build_ybus(case)
        for i, bus in enumerate(case.buses):
            charging = sum(
                br.b / 2.0
                for br in case.branches
                if i in (case.bus_index(br.from_bus), case.bus_index(br.to_bus))
            )
            expected = complex(bus.gs, bus.bs + charging)
            assert abs(y[i].sum() - expected) < 1e-12

    def test_tap_scales_from_side(self):
        case = two_bus()
        case = replace(case, branches=(network.Branch(1, 2, 0.0, 0.1, tap=1.05),))
        y = network.build_ybus(case)
        assert y[0, 0] == pytest.approx(-10j / 1.05**2)
        assert y[0, 1] == pytest.approx(10j / 1.05)
        assert y[1, 1] == pytest.approx(-10j)


class TestBMatrices:
    def test_two_bus_b_prime(self):
        mats = network.build_b_matrices(two_bus(r=0.02))
        assert mats.b_prime.shape == (1, 1)
        assert mats.b_prime[0, 0] == pytest.approx(10.0)
        assert mats.b_prime_bus_ids == (2,)

    def test_two_bus_b_double_prime_no_shunts(self):
        mats = network.build_b_matrices(two_bus())
        assert mats.b_double_prime[0, 0] == pytest.approx(10.0)
        assert mats.b_double_prime_bus_ids == (2,)

    def test_b_prime_ignores_resistance_and_charging(self):
        lossy = network.NetworkCase(
            "lossy", 100.0,
            (network.Bus(1, "slack"), network.Bus(2, "pq", bs=0.3)),
            (network.Branch(1, 2, 0.05, 0.1, b=0.08, tap=1.02),),
        )
        mats = network.build_b_matrices(lossy)
        assert mats.b_prime[0, 0] == pytest.approx(10.0)

    def test_all_pv_gives_empty_b_double_prime(self):
        case = network.NetworkCase(
            "pv_only", 100.0,
            (network.Bus(1, "slack"), network.Bus(2, "pv", pg=0.1, vset=1.02)),
            (network.Branch(1, 2, 0.0, 0.1),),
        )
        mats = network.build_b_matrices(case)
        assert mats.b_double_prime.shape == (0, 0)
        assert mats.b_double_prime_bus_ids == ()

    @pytest.mark.parametrize("name", cases.NAMES)
    def test_carries_the_ybus(self, name):
        case = cases.load(name)
        mats = network.build_b_matrices(case)
        assert np.array_equal(mats.ybus, network.build_ybus(case))
        pq = case.pq_indices
        assert np.array_equal(mats.b_double_prime, -mats.ybus.imag[np.ix_(pq, pq)])

    @pytest.mark.parametrize("name", cases.NAMES)
    def test_bundled_cases_positive_definite(self, name):
        mats = network.build_b_matrices(cases.load(name))
        assert np.linalg.eigvalsh(mats.b_prime)[0] > 0
        if mats.b_double_prime.size:
            assert np.linalg.eigvalsh(mats.b_double_prime)[0] > 0

    def test_assembles_without_checking(self):
        # an indefinite B'' is the prepare step's to reject, not assembly's
        sick = network.NetworkCase(
            "sick", 100.0,
            (network.Bus(1, "slack"), network.Bus(2, "pq", bs=20.0)),
            (network.Branch(1, 2, 0.0, 0.1),),
        )
        assert network.build_b_matrices(sick).b_double_prime[0, 0] == pytest.approx(-10.0)


class TestMismatch:
    def test_zero_everything_is_flat(self):
        case = two_bus(load_p=0.0, load_q=0.0)
        v, theta = case.start_voltages()
        mis = network.compute_mismatch(case, v, theta)
        assert mis.norm_p == 0.0
        assert mis.norm_q == 0.0

    def test_two_bus_hand_trigonometry(self):
        # P1 = V1 V0 B10 sin(theta_10); scheduled -0.1; B10 = 10
        case = two_bus(load_p=0.1, load_q=0.0)
        v = np.array([1.0, 1.0])
        theta = np.array([0.0, -0.01])
        mis = network.compute_mismatch(case, v, theta)
        expected_dp = -0.1 + 10.0 * math.sin(0.01)
        assert mis.dp[0] == pytest.approx(expected_dp, abs=1e-15)

    def test_rejects_nonpositive_voltage(self):
        case = two_bus()
        with pytest.raises(ValueError, match="bus 2 is not positive"):
            network.compute_mismatch(case, np.array([1.0, 0.0]), np.zeros(2))

    def test_zero_at_newton_solution(self):
        case = cases.five_bus()
        report = solvers.solve_newton(case, solvers.SolverConfig(method="nr", tolerance=1e-10))
        mis = network.compute_mismatch(case, report.v, report.theta)
        assert mis.norm_p <= 1e-10
        assert mis.norm_q <= 1e-10

    def test_permutation_equivariance(self):
        case = cases.five_bus()
        v, theta = case.start_voltages()
        theta = theta + np.linspace(0.0, -0.05, case.n_bus)
        mis = network.compute_mismatch(case, v, theta)

        order = [3, 0, 4, 2, 1]
        shuffled = replace(
            case,
            buses=tuple(case.buses[i] for i in order),
            branches=case.branches,
        )
        mis_s = network.compute_mismatch(shuffled, v[order], theta[order])

        by_id = dict(zip((case.buses[i].id for i in case.non_slack_indices), mis.dp))
        by_id_s = dict(zip((shuffled.buses[i].id for i in shuffled.non_slack_indices), mis_s.dp))
        for bus_id, value in by_id.items():
            assert by_id_s[bus_id] == pytest.approx(value, abs=1e-12)


class TestScaledRhs:
    def test_unit_voltage(self):
        out = network.scaled_rhs(np.array([0.2]), np.array([1.0]))
        assert out[0] == pytest.approx(0.2)

    def test_elementwise_division(self):
        out = network.scaled_rhs(np.array([0.3, -0.1]), np.array([1.5, 0.5]))
        assert np.allclose(out, [0.2, -0.2])

    def test_zero_delta(self):
        assert network.scaled_rhs(np.array([0.0]), np.array([1.0]))[0] == 0.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            network.scaled_rhs(np.array([1.0, 2.0]), np.array([1.0]))

    def test_rejects_zero_voltage(self):
        with pytest.raises(ValueError, match="zero entry"):
            network.scaled_rhs(np.array([1.0]), np.array([0.0]))
