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

    # numpy's overflow warning would be a second report of the event
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["fd", "nr", "qpf"])
    def test_overflowing_solve_exits_1_with_valid_json(self, tmp_path, capsys, method):
        def huge_reactive_load(doc):
            for bus in doc["buses"]:
                if bus["kind"] == "pq":
                    bus["qd"] = -1e300

        def reject(token):
            raise AssertionError(f"report carries {token}")

        path = edited_five_bus(tmp_path, huge_reactive_load)
        code, out, err = run(
            capsys, "solve", "--case", path, "--method", method, "--max-iter", "50"
        )
        assert code == 1
        assert err == ""
        payload = json.loads(out, parse_constant=reject)
        assert payload["warnings"] == ["mismatch is not finite at iteration 1; stopping"]

    @pytest.mark.filterwarnings("error")
    def test_unresolved_spectrum_reported_once_per_matrix(self, capsys):
        path = str(cases.case_path("chain_16"))
        code, out, err = run(capsys, "solve", "--case", path, "--method", "qpf")
        assert code == 1
        assert err == ""
        found = json.loads(out)["warnings"]
        assert [w.split(": ")[0] for w in found] == ["B'", "B''"]
        assert all("cannot all be distinctly encoded" in w for w in found)

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", ["solve", "montecarlo"])
    def test_bad_tolerance_exits_2_without_report(self, tmp_path, capsys, command, tol):
        extra = ["--method", "fd"] if command == "solve" else ["--samples", "5", "--seed", "1"]
        out_path = tmp_path / "report.json"
        code, out, err = run(
            capsys, command, "--case", FIVE_BUS, *extra, f"--tol={tol}", "--out", str(out_path)
        )
        assert code == 2
        assert not out_path.exists()
        assert out == ""
        assert "tolerance must be finite and positive" in err

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

    @pytest.mark.parametrize(
        "value, message",
        [
            ("0", "mpc.baseMVA must be positive (0.0)"),
            ("-100", "mpc.baseMVA must be positive (-100.0)"),
            ("1e400", "mpc: field 'baseMVA' is not finite (inf)"),
        ],
    )
    def test_bad_matpower_base_exits_2_without_report(self, tmp_path, capsys, value, message):
        text = cases.case_path("five_bus").with_suffix(".m").read_text()
        path = tmp_path / "edited.m"
        path.write_text(text.replace("mpc.baseMVA = 100;", f"mpc.baseMVA = {value};", 1))
        out_path = tmp_path / "report.json"
        code, out, err = run(
            capsys, "solve", "--case", str(path), "--method", "fd", "--out", str(out_path)
        )
        assert code == 2
        assert not out_path.exists()
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("method", ["fd", "qpf"])
    def test_indefinite_b_double_prime_exits_2_naming_it(self, tmp_path, capsys, method):
        path = edited_five_bus(tmp_path, lambda doc: doc["buses"][4].update(bs=50.0))
        out_path = tmp_path / "report.json"
        code, out, err = run(
            capsys, "solve", "--case", path, "--method", method, "--out", str(out_path)
        )
        assert code == 2
        assert not out_path.exists()
        assert "B'' is not positive definite" in err

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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda unc: unc["correlations"][0].update(rho=1.5),
                r"uncertainty.correlations[0]: correlation 1.5 for pair (3, 4) outside [-1, 1]",
            ),
            (
                lambda unc: unc["injections"][1].update(p_std=-0.1),
                "uncertainty.injections[1]: bus 4: standard deviations must be non-negative",
            ),
            (
                lambda unc: unc["correlations"].append({"bus_i": 3, "bus_j": 3, "rho": 0.25}),
                "uncertainty.correlations[1]: pairs bus 3 with itself",
            ),
            (
                lambda unc: unc["correlations"].append({"bus_i": 4, "bus_j": 3, "rho": -0.5}),
                "uncertainty.correlations[1]: pair (4, 3) repeats correlations[0]",
            ),
            (
                lambda unc: unc["correlations"].append({"bus_i": 3, "bus_j": 5, "rho": 0.5}),
                "uncertainty.correlations[1]: field 'bus_j' names bus 5, "
                "which has no uncertain injection",
            ),
            (
                lambda unc: unc["injections"].append({"bus": 3}),
                "uncertainty.injections[2]: bus 3 already has an uncertain injection",
            ),
            (
                lambda unc: unc["injections"][1].update(bus=2),
                "uncertainty.injections[1]: field 'bus' names pv bus 2; "
                "an uncertain injection must sit on a PQ bus",
            ),
            (
                lambda unc: unc.update(
                    injections=unc["injections"] + [{"bus": 5, "p_std": 0.05}],
                    correlations=[
                        {"bus_i": 3, "bus_j": 4, "rho": 0.999},
                        {"bus_i": 4, "bus_j": 5, "rho": 0.999},
                        {"bus_i": 3, "bus_j": 5, "rho": -0.999},
                    ],
                ),
                "correlation matrix is not positive definite: pivot 2 is",
            ),
            (
                lambda unc: unc.update(injections="x"),
                "'uncertainty.injections' must be a list of objects",
            ),
            (
                lambda unc: unc.update(correlations=[1, 2]),
                "'uncertainty.correlations' must be a list of objects",
            ),
        ],
        ids=[
            "rho", "negative-std", "self-pair", "repeated-pair", "unsampled-bus",
            "repeated-injection", "injection-on-pv-bus", "not-positive-definite", "injections-not-list",
            "correlations-not-objects",
        ],
    )
    def test_bad_uncertainty_block_exits_2_naming_it(self, tmp_path, capsys, edit, message):
        path = edited_five_bus(tmp_path, lambda doc: edit(doc["uncertainty"]))
        out_path = tmp_path / "study.json"
        code, out, err = run(
            capsys, "montecarlo", "--case", path, "--samples", "5", "--seed", "1",
            "--out", str(out_path),
        )
        assert code == 2
        assert not out_path.exists()
        assert out == ""
        assert message in err
        if "positive definite" in message:
            assert err.rstrip().endswith("(bus 5)")

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
