"""CLI driver: subcommand artifacts, determinism, exit codes, schemas."""

import json
import pathlib

import pytest

from prymlab.cli import EXIT_INPUT, EXIT_INVARIANT, EXIT_OK, main

SCHEMA_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "prymlab" / "schemas"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def _validate(payload, schema_name):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((SCHEMA_DIR / f"{schema_name}.schema.json").read_text())
    jsonschema.validate(payload, schema)


def test_sigma_subcommand(capsys):
    code, out = run_cli(capsys, "sigma", "5")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["subsets"]) == 11
    _validate(payload, "sigma")


def test_phi_subcommand_worked_example(capsys):
    code, out = run_cli(capsys, "phi", "--point",
                        '{"n":3,"a":["1","1","1"],"b":["0","0","0"]}', "--m", "3")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["u"] == "-1,0,1"
    assert payload["v"] == "0"
    assert payload["w"] == "4,0,-5,0,1"
    assert payload["p"] == "0,-3,0,1"
    _validate(payload, "phi_image")


def test_phi_inverse_subcommand(capsys):
    code, out = run_cli(capsys, "phi-inverse", "--triple",
                        '{"flavor":"odd-prym","u":"-1,0,1","v":"0","w":"4,0,-5,0,1"}',
                        "--n", "3")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["a"] == ["1", "1", "1"] and payload["b"] == ["0", "0", "0"]
    _validate(payload, "lattice_point")


def test_determinism(capsys):
    _, first = run_cli(capsys, "kowalevski", "7", "--A", "2,3,4,5")
    _, second = run_cli(capsys, "kowalevski", "7", "--A", "2,3,4,5")
    assert first == second
    _validate(json.loads(first), "kowalevski")


def test_balance_subcommand(capsys):
    code, out = run_cli(capsys, "balance", "5", "--A", "1,2", "--params",
                        '{"a2.1":"1","a4.1":"1/6","a3.2":"3","a5.2":"2"}',
                        "--order", "6")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["alpha"] == ["-1", "1", "0", "0", "0"]
    assert payload["series"][0]["pole_order"] == 1
    _validate(payload, "balance")


def test_indicial_subcommand(capsys):
    code, out = run_cli(capsys, "indicial", "5")
    assert code == EXIT_OK
    assert len(json.loads(out)["balances"]) == 11


def test_bracket_subcommand(capsys):
    code, out = run_cli(capsys, "bracket", "--space", "km", "--n", "3",
                        "--point", '{"n":3,"a":["2","1","1/2"],"b":["0","0","0"]}')
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["coordinates"] == ["a1", "a2", "a3"]
    assert payload["entries"][0][1] == "-a1*a2"
    assert payload["values"][0][1] == "-2"
    _validate(payload, "bracket_table")


def test_flow_subcommand(capsys, tmp_path):
    csv_path = tmp_path / "run.csv"
    code, out = run_cli(capsys, "flow", "--system", "km", "--point",
                        '{"n":5,"a":["2","1/2","1","1","1"],"b":["0","0","0","0","0"]}',
                        "--t", "0.5", "--step", "0.001", "--csv", str(csv_path))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["drift"]["K"] <= 1e-8
    assert csv_path.read_text().splitlines()[0].startswith("t,")
    _validate(payload, "drift_summary")


def test_example5_subcommand(capsys):
    code, out = run_cli(capsys, "example5", "--k", "3", "--l", "7",
                        "--beta", "2", "--delta", "1/2", "--order", "6")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert all(v["on_curve"] for v in payload["balance_checks"]["verdicts"])
    _validate(payload, "example5_report")


def test_verify_subcommand_quick(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "sigma")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["passed"]
    _validate(payload, "verify_report")


def test_exit_code_invariant_violation(capsys):
    code, out = run_cli(capsys, "phi", "--point",
                        '{"n":3,"a":["2","1","1"],"b":["0","0","0"]}', "--m", "3")
    assert code == EXIT_INVARIANT
    payload = json.loads(out)
    assert payload["error"]["invariant"] == "a-product"


def test_exit_code_bad_input(capsys):
    code, out = run_cli(capsys, "phi", "--point", '{"n":3,"a":["x","1","1"]}',
                        "--m", "3")
    assert code == EXIT_INPUT
    assert json.loads(out)["error"]["kind"] == "input"
    code, _ = run_cli(capsys, "sigma", "not-a-number")
    assert code == EXIT_INPUT


def test_output_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out = run_cli(capsys, "--output", str(target), "sigma", "4")
    assert code == EXIT_OK and out == ""
    assert len(json.loads(target.read_text())["subsets"]) == 6


def test_point_file_argument(capsys, tmp_path):
    point_file = tmp_path / "point.json"
    point_file.write_text('{"n":3,"a":["1","1","1"],"b":["0","0","0"]}')
    code, out = run_cli(capsys, "phi", "--point", f"@{point_file}", "--m", "3")
    assert code == EXIT_OK
    assert json.loads(out)["u"] == "-1,0,1"


@pytest.mark.parametrize("argv", [
    ("bracket", "--space", "odd-mumford", "--g", "1", "--phi", "1,x"),
    ("example5", "--k", "3", "--l", "x"),
])
def test_malformed_rational_exits_input(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_INPUT
    error = json.loads(out)["error"]
    assert error["kind"] == "input"
    assert "malformed rational 'x'" in error["message"]


@pytest.mark.parametrize("argv, invariant", [
    (("kowalevski", "0", "--A", "1"), "size"),
    (("balance", "1", "--A", "1"), "size"),
    (("balance", "5", "--A", "1,2", "--order", "-1"), "order"),
])
def test_out_of_domain_sizes_exit_invariant(capsys, argv, invariant):
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_INVARIANT
    error = json.loads(out)["error"]
    assert error["kind"] == "invariant" and error["invariant"] == invariant


LATTICE3 = '{"n":3,"a":["2","1/2","1"],"b":["0","0","0"]}'


@pytest.mark.parametrize("argv, code, error", [
    (("--system", "toda", "--index", "0", "--t", "1", "--step", "0.1"),
     EXIT_INVARIANT, {"kind": "invariant", "invariant": "hierarchy-index"}),
    (("--system", "toda", "--index", "5", "--t", "1", "--step", "0.1"),
     EXIT_INVARIANT, {"kind": "invariant", "invariant": "hierarchy-index"}),
    (("--system", "toda", "--t", "1", "--step", "0.1"),
     EXIT_INPUT, {"kind": "input", "message": "--index is required for toda flows"}),
    (("--system", "km", "--t", "nan", "--step", "0.1"),
     EXIT_INVARIANT, {"kind": "invariant", "invariant": "integration"}),
    (("--system", "km", "--t", "inf", "--step", "0.1"),
     EXIT_INVARIANT, {"kind": "invariant", "invariant": "integration"}),
    (("--system", "km", "--t", "1e9", "--step", "1e-9"),
     EXIT_INVARIANT, {"kind": "invariant", "invariant": "step-count"}),
])
def test_flow_rejects_bad_runs(capsys, argv, code, error):
    got, out = run_cli(capsys, "flow", "--point", LATTICE3, *argv)
    assert got == code
    payload = json.loads(out)["error"]
    assert {k: payload[k] for k in error} == error


def test_flow_summary_reports_steps_and_note(capsys):
    code, out = run_cli(capsys, "flow", "--system", "toda", "--index", "2",
                        "--point", LATTICE3, "--t", "0.5", "--step", "0.01")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["steps"] == payload["steps_requested"] == 50
    assert payload["note"] == "" and not payload["truncated"]
    _validate(payload, "drift_summary")
