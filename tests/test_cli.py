"""End-to-end command-line tests using the bundled fixtures."""

import json
import time

import pytest

from qpflow import cases
from qpflow.cli import main

FIVE_BUS = str(cases.case_path("five_bus"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def edited_five_bus(tmp_path, edit):
    """five_bus.json with ``edit`` applied to its parsed document, as a file."""
    doc = json.loads(cases.case_path("five_bus").read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestSolve:
    @pytest.mark.parametrize("method", ["qpf", "fd", "nr"])
    def test_solve_succeeds(self, capsys, method):
        code, out, _ = run(capsys, "solve", "--case", FIVE_BUS, "--method", method)
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        assert payload["method"] == method

    def test_outputs_written_to_files(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        trace_path = tmp_path / "trace.csv"
        code, _, _ = run(
            capsys, "solve", "--case", FIVE_BUS, "--method", "fd",
            "--out", str(out_path), "--trace", str(trace_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["iterations"] == len(trace_path.read_text().splitlines()) - 1
        assert trace_path.read_bytes().endswith(b"\n")
        assert b"\r" not in trace_path.read_bytes()

    def test_determinism_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            run(capsys, "solve", "--case", FIVE_BUS, "--method", "qpf", "--out", str(p))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_overflowing_solve_exits_1_with_valid_json(self, tmp_path, capsys):
        def huge_reactive_load(doc):
            for bus in doc["buses"]:
                if bus["kind"] == "pq":
                    bus["qd"] = -1e300

        def reject(token):
            raise AssertionError(f"report carries {token}")

        path = edited_five_bus(tmp_path, huge_reactive_load)
        code, out, _ = run(capsys, "solve", "--case", path, "--method", "fd", "--max-iter", "50")
        assert code == 1
        payload = json.loads(out, parse_constant=reject)
        assert payload["warnings"] == ["mismatch is not finite at iteration 1; stopping"]

    def test_missing_case_exits_2(self, capsys):
        code, _, err = run(capsys, "solve", "--case", "/nope/missing.json", "--method", "fd")
        assert code == 2
        assert "cannot read" in err

    def test_non_convergence_exits_1(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--case", FIVE_BUS, "--method", "fd", "--max-iter", "2"
        )
        assert code == 1
        assert json.loads(out)["converged"] is False

    def test_oversized_clock_exits_2_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "solve", "--case", FIVE_BUS, "--method", "qpf", "--clock-qubits", "40"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "n_clock=40" in err

    def test_non_finite_load_exits_2_without_report(self, tmp_path, capsys):
        path = edited_five_bus(tmp_path, lambda doc: doc["buses"][2].update(pd=float("nan")))
        out_path = tmp_path / "report.json"
        code, out, err = run(
            capsys, "solve", "--case", path, "--method", "fd", "--out", str(out_path)
        )
        assert code == 2
        assert not out_path.exists()
        assert out == ""
        assert "bus 3: field 'pd' is not finite" in err

    def test_non_integer_bus_id_exits_2_without_report(self, tmp_path, capsys):
        path = edited_five_bus(tmp_path, lambda doc: doc["buses"][2].update(id="three"))
        out_path = tmp_path / "report.json"
        code, out, err = run(
            capsys, "solve", "--case", path, "--method", "fd", "--out", str(out_path)
        )
        assert code == 2
        assert not out_path.exists()
        assert out == ""
        assert "buses[2]: field 'id' is not an integer ('three')" in err

    def test_non_integer_matpower_bus_id_exits_2_without_report(self, tmp_path, capsys):
        text = cases.case_path("five_bus").with_suffix(".m").read_text()
        path = tmp_path / "edited.m"
        path.write_text(text.replace("\t2\t2\t20\t", "\t2.5\t2\t20\t", 1))
        out_path = tmp_path / "report.json"
        code, out, err = run(
            capsys, "solve", "--case", str(path), "--method", "fd", "--out", str(out_path)
        )
        assert code == 2
        assert not out_path.exists()
        assert out == ""
        assert "mpc.bus row 2, column 1 (BUS_I) is not an integer (2.5)" in err

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run(capsys, "solve", "--case", FIVE_BUS, "--frobnicate")
        assert code == 2

    def test_matpower_input(self, capsys):
        path = str(cases.case_path("five_bus").with_suffix(".m"))
        with pytest.warns(UserWarning):
            code, out, _ = run(capsys, "solve", "--case", path, "--method", "fd")
        assert code == 0
        assert json.loads(out)["converged"] is True

    def test_degrees_flag(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--case", FIVE_BUS, "--method", "nr", "--degrees"
        )
        assert code == 0
        assert json.loads(out)["angle_unit"] == "degrees"


class TestMonteCarlo:
    def test_small_study(self, capsys):
        code, out, _ = run(
            capsys, "montecarlo", "--case", FIVE_BUS, "--samples", "40", "--seed", "5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["samples"] == 40
        assert payload["converged_samples"] == 40
        assert payload["injection_correlation"][0]["rho"] == pytest.approx(0.75, abs=0.25)

    def test_zero_samples_exits_2(self, capsys):
        code, _, err = run(
            capsys, "montecarlo", "--case", FIVE_BUS, "--samples", "0", "--seed", "5"
        )
        assert code == 2
        assert "samples" in err

    def test_seed_determinism(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            run(
                capsys, "montecarlo", "--case", FIVE_BUS,
                "--samples", "30", "--seed", "77", "--out", str(p),
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_injection_on_unknown_bus_exits_2(self, tmp_path, capsys):
        path = edited_five_bus(
            tmp_path, lambda doc: doc["uncertainty"]["injections"][1].update(bus=99)
        )
        code, out, err = run(capsys, "montecarlo", "--case", path, "--samples", "5", "--seed", "1")
        assert code == 2
        assert out == ""
        assert "uncertainty.injections[1]: field 'bus' names unknown bus 99" in err

    def test_correlation_without_bus_j_exits_2(self, tmp_path, capsys):
        path = edited_five_bus(
            tmp_path, lambda doc: doc["uncertainty"]["correlations"][0].pop("bus_j")
        )
        code, out, err = run(capsys, "montecarlo", "--case", path, "--samples", "5", "--seed", "1")
        assert code == 2
        assert out == ""
        assert "uncertainty.correlations[0] is missing required field 'bus_j'" in err

    def test_case_without_uncertainty_exits_2(self, capsys):
        path = str(cases.case_path("two_bus"))
        code, _, err = run(capsys, "montecarlo", "--case", path, "--samples", "5", "--seed", "1")
        assert code == 2
        assert "uncertainty" in err


class TestResources:
    def test_five_bus(self, capsys):
        code, out, _ = run(capsys, "resources", "--case", FIVE_BUS)
        assert code == 0
        payload = json.loads(out)
        assert payload == {"n_clock": 4, "n_vector": 2, "qubits_total": 7}

    def test_output_bytes(self, capsys):
        _, out, _ = run(capsys, "resources", "--case", FIVE_BUS)
        assert out == '{\n  "n_clock": 4,\n  "n_vector": 2,\n  "qubits_total": 7\n}\n'

    def test_clock_register_option(self, capsys):
        code, out, _ = run(
            capsys, "resources", "--case", FIVE_BUS, "--clock-qubits", "6"
        )
        assert code == 0
        assert json.loads(out)["qubits_total"] == 9
