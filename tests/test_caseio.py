"""Parser and emitter tests: formats, round-trips, deterministic output."""

import json

import numpy as np
import pytest

from qpflow import caseio, cases, solvers

MINIMAL_JSON = """
{
  "name": "mini",
  "base_mva": 100.0,
  "buses": [
    {"id": 1, "kind": "slack"},
    {"id": 2, "kind": "pq", "pd": 0.1, "qd": 0.02}
  ],
  "branches": [
    {"from": 1, "to": 2, "r": 0.01, "x": 0.1}
  ]
}
"""

MINIMAL_MATPOWER = """
function mpc = mini
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0 0 0 0 1 1.0 0 230 1 1.1 0.9;
    2 1 10 2 0 0 1 1.0 0 230 1 1.1 0.9;
];
mpc.gen = [
    1 0 0 300 -300 1.0 100 1;
];
mpc.branch = [
    1 2 0.01 0.1 0 250 250 250 0 0 1;
];
"""


class TestNativeParser:
    def test_minimal_case(self):
        case = caseio.parse_case(MINIMAL_JSON)
        assert case.n_bus == 2
        assert len(case.branches) == 1
        assert case.buses[1].pd == 0.1

    def test_bundled_five_bus(self):
        case = cases.five_bus()
        assert case.n_bus == 5
        assert len(case.branches) == 7
        assert case.buses[0].kind == "slack"

    def test_two_slack_semantic_error_names_both(self):
        text = MINIMAL_JSON.replace('"kind": "pq"', '"kind": "slack"')
        with pytest.raises(caseio.CaseError, match="1, 2"):
            caseio.parse_case(text)

    def test_syntax_error_carries_position(self):
        with pytest.raises(caseio.CaseError) as err:
            caseio.parse_case("{\n  broken\n}")
        assert err.value.line == 2

    def test_missing_field_named(self):
        with pytest.raises(caseio.CaseError, match="'x'"):
            caseio.parse_case(
                '{"buses": [{"id": 1, "kind": "slack"}], "branches": [{"from": 1, "to": 1}]}'
            )

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('"pd": 0.1', '"pd": NaN', "bus 2: field 'pd'"),
            ('"x": 0.1', '"x": Infinity', "branch 1-2: field 'x'"),
            ('"base_mva": 100.0', '"base_mva": -Infinity', "case: field 'base_mva'"),
            (
                '"branches"',
                '"uncertainty": {"injections": [{"bus": 2, "p_std": NaN}]}, "branches"',
                r"uncertainty.injections\[0\]: field 'p_std'",
            ),
        ],
        ids=["bus", "branch", "base_mva", "uncertainty"],
    )
    def test_non_finite_number_rejected(self, old, new, message):
        with pytest.raises(caseio.CaseError, match=message + " is not finite"):
            caseio.parse_document(MINIMAL_JSON.replace(old, new, 1))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('"id": 2', '"id": "three"', r"buses\[1\]: field 'id' is not an integer \('three'\)"),
            ('"id": 2', '"id": 2.5', r"buses\[1\]: field 'id' is not an integer \(2.5\)"),
            ('"from": 1', '"from": true', r"branches\[0\]: field 'from' is not an integer"),
            ('"to": 2', '"to": null', r"branches\[0\]: field 'to' is not an integer"),
            (
                '"branches"',
                '"uncertainty": {"injections": [{"bus": 2.5}]}, "branches"',
                r"uncertainty.injections\[0\]: field 'bus' is not an integer",
            ),
            (
                '"branches"',
                '"uncertainty": {"injections": [{"bus": 2}], '
                '"correlations": [{"bus_i": 1, "bus_j": "2", "rho": 0.5}]}, "branches"',
                r"uncertainty.correlations\[0\]: field 'bus_j' is not an integer",
            ),
        ],
        ids=["bus-word", "bus-fraction", "branch-from", "branch-to", "injection", "correlation"],
    )
    def test_non_integer_id_rejected(self, old, new, message):
        with pytest.raises(caseio.CaseError, match=message):
            caseio.parse_document(MINIMAL_JSON.replace(old, new, 1))

    def test_out_of_range_integer_rejected(self):
        with pytest.raises(caseio.CaseError, match="bus 2: field 'pd' is not finite"):
            caseio.parse_document(MINIMAL_JSON.replace('"pd": 0.1', '"pd": 1' + "0" * 400, 1))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('"kind": "pq"', '"kind": "load"', "bus 2: unknown kind 'load'"),
            ('"kind": "pq"', '"kind": "pq", "vset": -1', "bus 2: voltage setpoint must be"),
            ('"x": 0.1', '"x": 0', "branch 1-2: reactance is zero"),
        ],
        ids=["kind", "vset", "reactance"],
    )
    def test_record_error_is_case_error(self, old, new, message):
        with pytest.raises(caseio.CaseError, match=message):
            caseio.parse_document(MINIMAL_JSON.replace(old, new, 1))

    def test_whole_float_id_accepted(self):
        case = caseio.parse_case(MINIMAL_JSON.replace('"id": 2', '"id": 2.0', 1))
        assert case.buses[1].id == 2
        assert isinstance(case.buses[1].id, int)

    def test_bytes_accepted(self):
        case = caseio.parse_case(MINIMAL_JSON.encode())
        assert case.name == "mini"

    def test_rejects_malformed_shapes(self):
        with pytest.raises(caseio.CaseError, match="list of objects"):
            caseio.parse_case('{"buses": 42, "branches": []}')
        with pytest.raises(caseio.CaseError, match="JSON object"):
            caseio.parse_case("[1, 2, 3]")

    @pytest.mark.parametrize("bus, kind", [(1, "slack"), (2, "pv")])
    def test_uncertain_injection_on_non_pq_bus_rejected(self, bus, kind):
        doc = json.loads(cases.case_path("five_bus").read_text())
        doc["uncertainty"]["injections"][0]["bus"] = bus
        message = (
            rf"uncertainty.injections\[0\]: field 'bus' names {kind} bus {bus}; "
            "an uncertain injection must sit on a PQ bus"
        )
        with pytest.raises(caseio.CaseError, match=message):
            caseio.parse_document(json.dumps(doc))

    def test_uncertainty_defaults(self):
        doc = cases.load_document("five_bus")
        by_bus = {inj.bus: inj for inj in doc.injections}
        assert by_bus[3].p_mean == -0.45
        assert by_bus[3].p_std == pytest.approx(0.045)
        assert doc.correlations.pairs == ((3, 4, 0.75),)


class TestMatpowerParser:
    def test_minimal(self):
        case = caseio.parse_case(MINIMAL_MATPOWER, caseio.MATPOWER)
        assert case.name == "mini"
        assert case.buses[1].pd == pytest.approx(0.1)
        assert case.buses[0].kind == "slack"

    def test_equivalent_to_native_fixture(self):
        json_case = cases.five_bus()
        m_text = cases.case_path("five_bus").with_suffix(".m").read_text()
        with pytest.warns(UserWarning):
            m_case = caseio.parse_case(m_text, caseio.MATPOWER)
        assert m_case == json_case

    def test_out_of_service_branch_skipped_with_warning(self):
        text = MINIMAL_MATPOWER.replace("0 0 1;\n];", "0 0 1;\n    1 2 0.02 0.2 0 250 250 250 0 0 0;\n];", 1)
        with pytest.warns(UserWarning, match="out-of-service branch"):
            case = caseio.parse_case(text, caseio.MATPOWER)
        assert len(case.branches) == 1

    def test_phase_shifter_rejected(self):
        text = MINIMAL_MATPOWER.replace("250 0 0 1;", "250 0 15 1;")
        with pytest.raises(caseio.CaseError, match="phase shifters"):
            caseio.parse_case(text, caseio.MATPOWER)

    def test_missing_base_mva(self):
        with pytest.raises(caseio.CaseError, match="baseMVA"):
            caseio.parse_case("mpc.bus = [];", caseio.MATPOWER)

    @pytest.mark.parametrize("token", ["NaN", "Inf", "-inf"])
    def test_non_finite_number_rejected(self, token):
        text = MINIMAL_MATPOWER.replace("2 1 10 2", f"2 1 {token} 2")
        with pytest.raises(caseio.CaseError, match=r"mpc.bus row 2, column 3 \(PD\) is not finite"):
            caseio.parse_case(text, caseio.MATPOWER)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("    2 1 10 2", "    2.5 1 10 2", r"mpc.bus row 2, column 1 \(BUS_I\)"),
            ("    2 1 10 2", "    2 1.5 10 2", r"mpc.bus row 2, column 2 \(BUS_TYPE\)"),
            ("    1 0 0 300", "    1.25 0 0 300", r"mpc.gen row 1, column 1 \(GEN_BUS\)"),
            ("    1 2 0.01", "    1.5 2 0.01", r"mpc.branch row 1, column 1 \(F_BUS\)"),
            ("    1 2 0.01", "    1 2.5 0.01", r"mpc.branch row 1, column 2 \(T_BUS\)"),
        ],
        ids=["bus-id", "bus-type", "gen-bus", "from-bus", "to-bus"],
    )
    def test_non_integer_id_rejected(self, old, new, message):
        text = MINIMAL_MATPOWER.replace(old, new, 1)
        with pytest.raises(caseio.CaseError, match=message + r" is not an integer \(\d\.\d+\)"):
            caseio.parse_case(text, caseio.MATPOWER)

    def test_non_numeric_token_localized(self):
        text = MINIMAL_MATPOWER.replace("1 2 0.01", "1 2 oops")
        with pytest.raises(caseio.CaseError, match="non-numeric"):
            caseio.parse_case(text, caseio.MATPOWER)


class TestCaseRoundTrip:
    def test_parse_emit_parse(self):
        case = cases.five_bus()
        doc = cases.load_document("five_bus")
        text = caseio.emit_case(case, doc)
        assert caseio.parse_case(text) == case
        doc2 = caseio.parse_document(text)
        assert doc2.injections == doc.injections
        assert doc2.correlations == doc.correlations

    def test_round_trip_preserves_awkward_floats(self):
        text = MINIMAL_JSON.replace("0.1", "0.1234567890123456789")
        case = caseio.parse_case(text)
        assert caseio.parse_case(caseio.emit_case(case)) == case


class TestReportEmission:
    def test_csv_columns_exact(self):
        report = solvers.solve_fast_decoupled(cases.five_bus())
        out = caseio.emit_csv_trace(report)
        header = out.splitlines()[0]
        assert header == (
            "iter,V_2,V_3,V_4,V_5,theta_2,theta_3,theta_4,theta_5,mismP_inf,mismQ_inf"
        )
        assert len(out.splitlines()) == report.iterations + 1
        assert "\r" not in out

    def test_csv_zero_load_single_row(self):
        from qpflow import network

        idle = network.NetworkCase(
            "idle", 100.0,
            (network.Bus(1, "slack"), network.Bus(2, "pq")),
            (network.Branch(1, 2, 0.0, 0.1),),
        )
        out = caseio.emit_csv_trace(solvers.solve_fast_decoupled(idle))
        lines = out.splitlines()
        assert lines[1] == "1,1,0,0,0"

    def test_json_round_trip_byte_identical(self):
        report = solvers.solve_fast_decoupled(cases.five_bus())
        text = caseio.emit_report(report)
        payload = json.loads(text)
        again = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert again == text

    def test_emission_deterministic(self):
        a = caseio.emit_report(solvers.solve_fast_decoupled(cases.five_bus()))
        b = caseio.emit_report(solvers.solve_fast_decoupled(cases.five_bus()))
        assert a == b

    def test_row_count_matches_iterations(self):
        report = solvers.solve_qpf(cases.five_bus())
        payload = json.loads(caseio.emit_report(report))
        assert len(payload["trace"]) == report.iterations
        assert payload["resource"]["qubits_total"] == 7

    def test_degrees_flag(self):
        report = solvers.solve_fast_decoupled(cases.five_bus())
        rad = json.loads(caseio.emit_report(report))
        deg = json.loads(caseio.emit_report(report, degrees=True))
        assert deg["angle_unit"] == "degrees"
        assert deg["theta"][2] == pytest.approx(rad["theta"][2] * 180.0 / np.pi, rel=1e-12)
