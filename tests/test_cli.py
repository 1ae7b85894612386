"""CLI driver: subcommand artifacts, determinism, exit codes, schemas."""

import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import prymlab
from prymlab.algebra import LaurentSeries, Poly
from prymlab.cli import _BRACKET_SPACES, EXIT_INPUT, EXIT_INVARIANT, EXIT_OK, main
from prymlab.errors import InvariantError
from prymlab.morphism import MAX_QUAD_GENUS, quad_mumford_table
from prymlab.mumford import EVEN_MUMFORD, FLAVORS, MAX_GENUS, mumford_bracket_table
from prymlab.painleve import MAX_N, MAX_ORDER
from prymlab.prym import MAX_PRYM_INDEX, prym_bracket_table
from prymlab.toda import toda_bracket_table, toda_pencil_table

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
    assert payload["drift"]["K3"] <= 1e-8
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
    assert all(check["elapsed"] >= 0 for check in payload["checks"])
    _validate(payload, "verify_report")


def test_kowalevski_suite_runs_without_numpy():
    # numpy is a test extra only; importing it anywhere in prymlab fails here
    code = ("import sys; sys.modules['numpy'] = None\n"
            "from prymlab.cli import main\n"
            "sys.exit(main(['verify', '--suite', 'kowalevski']))")
    src = str(pathlib.Path(prymlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert result.returncode == EXIT_OK, result.stdout + result.stderr
    assert json.loads(result.stdout)["passed"]


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


KM_FLOW = ("flow", "--system", "km", "--point",
           '{"n":3,"a":["2","1/2","1"],"b":["0","0","0"]}', "--t", "0.01", "--step", "0.001")


@pytest.mark.parametrize("target", ["directory", "missing-parent"])
@pytest.mark.parametrize("option", ["--output", "--csv"])
def test_an_unwritable_path_exits_input(capsys, tmp_path, option, target):
    # a directory or a path under a missing directory is malformed input:
    # exit 3 with a JSON diagnostic on stdout, not an OSError traceback
    path = str(tmp_path if target == "directory" else tmp_path / "missing" / "out")
    argv = ("--output", path, "sigma", "3") if option == "--output" else (*KM_FLOW, "--csv", path)
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_INPUT
    error = json.loads(out)["error"]
    assert error["kind"] == "input" and error["message"].startswith("cannot write output file: ")
    assert path in error["message"]
    assert not (tmp_path / "missing").exists()


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


@pytest.mark.parametrize("argv", [
    ("balance", "5", "--A", "1,2", "--params",
     '{"a2.1":"1","a4.1":"1/6","a3.2":"3","a5.2":"2"}', "--order", str(MAX_ORDER + 1)),
    ("example5", "--k", "1", "--l", "1", "--order", str(MAX_ORDER + 1))])
def test_laurent_order_bound_exits_invariant(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_INVARIANT
    error = json.loads(out)["error"]
    assert error["invariant"] == "order"
    assert error["message"] == f"the Laurent order must lie in 0..{MAX_ORDER}, got {MAX_ORDER + 1}"


@pytest.mark.parametrize("order", ["0", "1"])
def test_example5_order_below_the_free_slots_exits_invariant(capsys, order):
    code, out = run_cli(capsys, "example5", "--k", "3", "--l", "7", "--order", order)
    assert code == EXIT_INVARIANT
    error = json.loads(out)["error"]
    assert error["invariant"] == "order" and "order >= 2" in error["message"]


def test_an_example5_order_past_the_laurent_bound_exits_before_any_series(capsys, monkeypatch):
    built = []
    init = LaurentSeries.__init__
    monkeypatch.setattr(LaurentSeries, "__init__",
                        lambda self, *args, **kw: built.append(1) or init(self, *args, **kw))
    code, out = run_cli(capsys, "example5", "--k", "3", "--l", "7", "--order", str(MAX_ORDER + 1))
    assert code == EXIT_INVARIANT and not built
    error = json.loads(out)["error"]
    assert error["invariant"] == "order"
    assert error["message"] == f"the Laurent order must lie in 0..{MAX_ORDER}, got {MAX_ORDER + 1}"


@pytest.mark.parametrize("flavor", ["even-mumford", "odd-prym"])
def test_phi_inverse_below_three_exits_invariant(capsys, flavor):
    triple = json.dumps({"flavor": flavor, "u": "1", "v": "", "w": "-4,0,1"})
    code, out = run_cli(capsys, "phi-inverse", "--triple", triple, "--n", "1")
    assert code == EXIT_INVARIANT
    error = json.loads(out)["error"]
    assert error["invariant"] == "size" and error["message"] == "the morphism needs n >= 3"


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


MUMFORD1 = '{"flavor":"odd-mumford","u":"2,1","v":"3","w":"1,0,1"}'


@pytest.mark.parametrize("argv", [
    ("phi-inverse", "--triple", '{"flavor":"even-mumford","u":1,"v":"0","w":"1"}', "--n", "3"),
    ("bracket", "--space", "odd-mumford", "--g", "1", "--point",
     '{"flavor":"odd-mumford","u":"0,1","v":[],"w":"0,0,1"}'),
    ("flow", "--system", "mumford", "--point",
     '{"flavor":"odd-mumford","u":"2,1","v":3,"w":"1,0,1"}', "--y", "1", "--t", "1",
     "--step", "0.1")])
def test_non_string_polynomial_exits_input(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_INPUT
    error = json.loads(out)["error"]
    assert error["kind"] == "input" and "not a string" in error["message"]


@pytest.mark.parametrize("argv", [
    ("--system", "mumford", "--point", MUMFORD1, "--y", "1e400"),
    ("--system", "km", "--point", '{"n":3,"a":["1e400","1e-400","1"]}')])
def test_values_beyond_the_float_range_exit_invariant(capsys, argv):
    code, out = run_cli(capsys, "flow", *argv, "--t", "1", "--step", "0.1")
    assert code == EXIT_INVARIANT
    error = json.loads(out)["error"]
    assert error["invariant"] == "float-range" and error["message"].startswith("1e+400 ")


def test_an_output_past_the_digit_limit_exits_invariant(capsys):
    code, out = run_cli(capsys, "phi", "--point",
                        '{"n":3,"a":["1e5000","1","1e-5000"],"b":["0","0","0"]}', "--m", "3")
    assert code == EXIT_INVARIANT
    error = json.loads(out)["error"]
    assert error["invariant"] == "digit-limit" and "about 5001 digits" in error["message"]


def test_an_example5_parameter_past_the_digit_limit_exits_before_any_series(capsys, monkeypatch):
    built = []
    init = LaurentSeries.__init__
    monkeypatch.setattr(LaurentSeries, "__init__",
                        lambda self, *args, **kw: built.append(1) or init(self, *args, **kw))
    code, out = run_cli(capsys, "example5", "--k", "2", "--l", "1", "--beta", "1e5000")
    assert code == EXIT_INVARIANT and not built
    error = json.loads(out)["error"]
    assert error["invariant"] == "digit-limit" and "about 5001 digits" in error["message"]


def test_flow_summary_reports_steps_and_note(capsys):
    code, out = run_cli(capsys, "flow", "--system", "toda", "--index", "2",
                        "--point", LATTICE3, "--t", "0.5", "--step", "0.01")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["steps"] == payload["steps_requested"] == 50
    assert payload["note"] == "" and not payload["truncated"]
    _validate(payload, "drift_summary")


def test_bracket_genus_zero_and_negative(capsys):
    code, out = run_cli(capsys, "bracket", "--space", "even-mumford", "--g", "0")
    assert code == EXIT_OK
    assert json.loads(out)["coordinates"] == ["w0", "w1"]
    assert mumford_bracket_table(EVEN_MUMFORD, 0, Poly([1])).jacobi_holds()
    code, out = run_cli(capsys, "bracket", "--space", "even-mumford", "--g", "-1")
    assert code == EXIT_INVARIANT
    assert json.loads(out)["error"]["invariant"] == "genus"


@pytest.mark.parametrize("space, n", [("toda-linear", "-1"), ("toda-quadratic", "0"),
                                      ("km", "0")])
def test_bracket_on_empty_lattice_exits_invariant(capsys, space, n):
    code, out = run_cli(capsys, "bracket", "--space", space, "--n", n)
    assert code == EXIT_INVARIANT
    assert json.loads(out)["error"]["invariant"] == "size"


@pytest.mark.parametrize("argv", [("sigma", "25"), ("indicial", "25"),
                                  ("kowalevski", "25", "--A", "1,2"),
                                  ("balance", "25", "--A", "1,2")])
def test_painleve_size_bound_exits_invariant(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_INVARIANT
    assert json.loads(out)["error"]["invariant"] == "size"


@pytest.mark.parametrize("params", ["[1,2]", "3", '"a"', "null"])
def test_balance_params_must_be_an_object(capsys, params):
    code, out = run_cli(capsys, "balance", "4", "--A", "1,2", "--params", params)
    assert code == EXIT_INPUT
    assert json.loads(out)["error"]["kind"] == "input"


@pytest.mark.parametrize("system", ["km", "toda"])
def test_flow_on_empty_lattice_exits_invariant(capsys, system):
    code, out = run_cli(capsys, "flow", "--system", system, "--index", "1",
                        "--point", '{"n":0,"a":[]}', "--t", "1", "--step", "0.1")
    assert code == EXIT_INVARIANT
    assert json.loads(out)["error"]["invariant"] == "size"


_KM_FLOW = ("flow", "--system", "km", "--t", "1", "--step", "0.1", "--point")


@pytest.mark.parametrize("args", [
    pytest.param(_KM_FLOW + ('{"n":Infinity,"a":["1"]}',), id="Infinity"),
    pytest.param(_KM_FLOW + ('{"n":1e300,"a":["1"]}',), id="1e300"),
    pytest.param(("phi", "--m", "3", "--point", '{"n":3.5,"a":["1","1","1"],"b":["0","0","0"]}'),
                 id="3.5"),
    pytest.param(_KM_FLOW + ('{"n":true,"a":["1"]}',), id="true"),
    pytest.param(("phi", "--m", "3", "--point", '{"n":"3","a":["1","1","1"],"b":["0","0","0"]}'),
                 id="string"),
])
def test_lattice_size_that_is_not_an_integer_exits_input(capsys, args):
    code, out = run_cli(capsys, *args)
    assert code == EXIT_INPUT
    assert json.loads(out)["error"]["kind"] == "input"


_PHI = ("phi", "--m", "3", "--point")


@pytest.mark.parametrize("args", [
    pytest.param(_PHI + ('{"n":3,"a":"111","b":"000"}',), id="string-a-and-b"),
    pytest.param(_PHI + ('{"n":3,"a":["1","1","1"],"b":"000"}',), id="string-b"),
    pytest.param(_PHI + ('{"n":1,"a":{"1":"1"},"b":["0"]}',), id="object-a"),
    pytest.param(_PHI + ('{"n":1,"a":["1"],"b":{"0":"0"}}',), id="object-b"),
    pytest.param(_KM_FLOW + ('{"n":3,"a":"111"}',), id="km-string-a"),
    pytest.param(_KM_FLOW + ('{"n":1,"a":{"1":"1"}}',), id="km-object-a"),
])
def test_lattice_sequence_that_is_not_an_array_exits_input(capsys, args):
    """A string is not read one character at a time, nor an object by its keys."""
    code, out = run_cli(capsys, *args)
    assert code == EXIT_INPUT
    error = json.loads(out)["error"]
    assert error["kind"] == "input" and "must be arrays" in error["message"]


def test_lattice_size_is_checked_before_any_allocation(capsys):
    tracemalloc.start()
    try:
        code, out = run_cli(capsys, "flow", "--system", "km", "--point",
                            '{"n":1000000,"a":["1"]}', "--t", "1", "--step", "0.1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_INPUT
    assert peak < 4_000_000  # a default b of n entries would take 8 MB and more


# every bracket table family, its bound and the invariant past the bound
TABLE_BOUNDS = [
    (lambda n: toda_bracket_table("quadratic", n), MAX_N, "size"),
    (lambda n: toda_bracket_table("km", n), MAX_N, "size"),
    (lambda n: toda_pencil_table(Poly([2, 3]), n), MAX_N, "size"),
    (lambda g: mumford_bracket_table("odd-mumford", g, Poly([1])), MAX_GENUS, "genus"),
    (lambda g: mumford_bracket_table(EVEN_MUMFORD, g, Poly([2, 3])), MAX_GENUS, "genus"),
    (lambda n: prym_bracket_table("odd-prym", n, Poly([1])), MAX_PRYM_INDEX, "genus"),
    (lambda n: prym_bracket_table("even-prym", n, Poly([0, 1])), MAX_PRYM_INDEX, "genus"),
    (lambda g: quad_mumford_table(g, Poly([2, 3])), MAX_QUAD_GENUS, "genus"),
]
TABLE_IDS = ["toda-quadratic", "km", "toda-pencil", "odd-mumford", "even-mumford",
             "odd-prym", "even-prym", "quad-mumford"]


@pytest.mark.parametrize("build, bound, invariant", TABLE_BOUNDS, ids=TABLE_IDS)
def test_bracket_table_bound_is_checked_first(build, bound, invariant):
    tracemalloc.start()
    try:
        with pytest.raises(InvariantError) as err:
            build(bound + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.invariant == invariant
    assert peak < 100_000  # no coordinate system or table entry was built


@pytest.mark.parametrize("build, bound, invariant", TABLE_BOUNDS, ids=TABLE_IDS)
def test_bracket_table_accepts_its_bound(build, bound, invariant):
    assert build(bound).dim > 0


@pytest.mark.parametrize("argv, invariant", [
    (("--space", "toda-quadratic", "--n", str(MAX_N + 1)), "size"),
    (("--space", "km", "--n", str(MAX_N + 1)), "size"),
    (("--space", "odd-mumford", "--g", str(MAX_GENUS + 1)), "genus"),
    (("--space", "even-prym", "--n", str(MAX_PRYM_INDEX + 1), "--phi", "0,1"), "genus"),
    (("--space", "quad-mumford", "--g", str(MAX_QUAD_GENUS + 1)), "genus"),
])
def test_bracket_size_bound_exits_invariant(capsys, argv, invariant):
    code, out = run_cli(capsys, "bracket", *argv)
    assert code == EXIT_INVARIANT
    assert json.loads(out)["error"]["invariant"] == invariant


@pytest.mark.parametrize("argv", [
    ("--space", "toda-linear", "--n", "3", "--point", '{"n":2,"a":["2","1/2"]}'),
    ("--space", "odd-mumford", "--g", "2", "--point",
     '{"flavor":"odd-mumford","u":"1","v":"","w":"0,1"}'),
    ("--space", "odd-mumford", "--g", "2", "--point",
     '{"flavor":"odd-prym","u":"1,0,1","v":"0,1","w":"1,0,2,0,1"}'),
    ("--space", "km", "--n", "3", "--point", '{"n":3,"a":["2","1/2","1"],"b":["5","0","0"]}'),
])
def test_bracket_point_outside_the_space_exits_invariant(capsys, argv):
    code, out = run_cli(capsys, "bracket", *argv)
    assert code == EXIT_INVARIANT
    assert json.loads(out)["error"]["invariant"] == "point-space"


# ---------------------------------------------------------------------------
# the exit-code contract over generated argv
# ---------------------------------------------------------------------------

_sizes = st.integers(-2, 3)
_rational_text = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4", "x", "", "1e5000"])
_json_scalar = st.one_of(st.none(), st.booleans(), _sizes, st.floats(), _rational_text)
_json_value = st.recursive(_json_scalar, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(_rational_text, inner, max_size=3)),
    max_leaves=6)
_poly_text = st.lists(_rational_text, max_size=4).map(",".join)
_lattice_json = st.fixed_dictionaries(
    {"n": st.one_of(_sizes, _json_scalar), "a": st.lists(_rational_text, max_size=4)},
    optional={"b": st.lists(_rational_text, max_size=4)})
_triple_json = st.fixed_dictionaries(
    {"flavor": st.one_of(st.sampled_from(FLAVORS), _rational_text),
     "u": st.one_of(_poly_text, _json_scalar), "v": st.one_of(_poly_text, _json_scalar),
     "w": st.one_of(_poly_text, _json_scalar)})
# well-formed points of several spaces and sizes, so that --point also
# reaches the evaluation of a table at a point
_valid_points = st.sampled_from([
    LATTICE3, '{"n":2,"a":["2","1/2"]}', '{"n":3,"a":["2","1/2","1"],"b":["1","0","-1"]}',
    '{"flavor":"odd-mumford","u":"1","v":"","w":"0,1"}',
    '{"flavor":"odd-mumford","u":"2,1","v":"3","w":"1,0,1"}',
    '{"flavor":"even-mumford","u":"1,1","v":"2","w":"1,0,3,1"}',
    '{"flavor":"odd-prym","u":"1,0,1","v":"0,1","w":"1,0,2,0,1"}',
    '{"flavor":"even-prym","u":"0,1","v":"1","w":"0,2,0,1"}'])
_point = st.one_of(_valid_points,
                   st.one_of(_lattice_json, _triple_json, _json_value).map(json.dumps))


def _option(name, values):
    return st.one_of(st.just([]), values.map(lambda value: [name, str(value)]))


# Laurent orders: small ones, and one just above the bound
_orders = st.one_of(st.integers(-1, 3), st.just(MAX_ORDER + 1))
_bracket_argv = st.tuples(
    st.just(["bracket"]), st.sampled_from(_BRACKET_SPACES).map(lambda s: ["--space", s]),
    _option("--phi", _poly_text), _option("--g", _sizes), _option("--n", _sizes),
    _option("--point", _point))
_balance_argv = st.tuples(
    st.just(["balance"]), _sizes.map(lambda n: [str(n)]),
    st.lists(st.integers(-1, 4), max_size=3).map(lambda A: ["--A", ",".join(map(str, A))]),
    _option("--params", _json_value.map(json.dumps)), _option("--order", _orders))
_flow_argv = st.tuples(
    st.just(["flow"]),
    st.sampled_from(["km", "toda", "mumford", "prym"]).map(lambda s: ["--system", s]),
    st.one_of(_lattice_json.map(json.dumps), _point).map(lambda p: ["--point", p]),
    _option("--index", _sizes), _option("--y", st.one_of(_rational_text, st.just("1e400"))),
    st.one_of(st.floats(-1, 1), st.sampled_from([0.0, math.nan, math.inf])).map(
        lambda t: ["--t", repr(t)]),
    st.one_of(st.floats(0.05, 1), st.sampled_from([0.0, -0.1, math.nan, math.inf])).map(
        lambda h: ["--step", repr(h)]))
# the Painleve commands: small lattices, and one size just above the bound
_painleve_sizes = st.one_of(st.integers(-2, 9), st.just(MAX_N + 1)).map(lambda n: [str(n)])
_cells = st.lists(st.integers(-1, 10), max_size=4).map(lambda A: ["--A", ",".join(map(str, A))])
_sigma_argv = st.tuples(st.sampled_from([["sigma"], ["indicial"]]), _painleve_sizes)
_kowalevski_argv = st.tuples(st.just(["kowalevski"]), _painleve_sizes, _cells)
_example5_argv = st.tuples(
    st.just(["example5"]), _rational_text.map(lambda k: ["--k", k]),
    _rational_text.map(lambda l: ["--l", l]), _option("--beta", _rational_text),
    _option("--delta", _rational_text), _option("--order", _orders))

# the morphism commands: lattice points of a few sizes (n < 3 is refused),
# triples that phi-inverse reconstructs at n = 3, 4, 5, one that only n < 3
# would fit, generated and malformed JSON; --m and --n may be missing,
# which argparse refuses
_lattice_points = st.sampled_from([
    LATTICE3, '{"n":3,"a":["1","1","1"],"b":["0","0","0"]}',
    '{"n":4,"a":["1","2","1/2","1"],"b":["0","1/3","-1","2"]}',
    '{"n":5,"a":["3","1","1/3","2","1/2"],"b":["0","0","0","0","0"]}',
    '{"n":2,"a":["2","1/2"],"b":["1","1"]}'])
_image_triples = st.sampled_from([
    '{"flavor":"odd-prym","u":"-1,0,1","v":"0","w":"4,0,-5,0,1"}',
    '{"flavor":"even-mumford","u":"-1,-10/3,2/3,1","v":"11/6,-5/6,-1/2",'
    '"w":"-16,1/3,20,-5,-10/3,1"}',
    '{"flavor":"odd-prym","u":"1,0,-13/3,0,1","v":"0,-22/3,0,3/2",'
    '"w":"-4,0,67/3,0,-28/3,0,1"}',
    '{"flavor":"even-mumford","u":"1","v":"","w":"-4,0,1"}'])
_malformed_json = st.sampled_from(["", "{", "[1,", "@"])
_phi_argv = st.tuples(
    st.just(["phi"]),
    st.one_of(_lattice_points, _point, _malformed_json).map(lambda p: ["--point", p]),
    _option("--m", st.one_of(st.integers(-4, 7), _rational_text)))
_phi_inverse_argv = st.tuples(
    st.just(["phi-inverse"]),
    st.one_of(_image_triples, _point, _malformed_json).map(lambda t: ["--triple", t]),
    _option("--n", st.one_of(st.integers(3, 5), _sizes, _rational_text)))
# only cheap real suites: an absent --suite would run them all
_verify_argv = st.tuples(
    st.just(["verify"]),
    st.sampled_from(["evensplit", "balance5", "no-such-suite", "", "ALL"]).map(
        lambda s: ["--suite", s]),
    _option("--seed", st.one_of(st.integers(-3, 3), _rational_text)))


def _assert_json_verdict(parts):
    argv = [arg for part in parts for arg in part]
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main(argv)
    out = stdout.getvalue()
    assert code in (EXIT_OK, EXIT_INVARIANT, EXIT_INPUT), argv
    payload = json.loads(out)
    assert (code == EXIT_OK) != ("error" in payload), argv


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(_bracket_argv, _balance_argv, _flow_argv))
def test_every_argv_exits_with_a_json_verdict(parts):
    _assert_json_verdict(parts)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(_sigma_argv, _kowalevski_argv, _example5_argv))
def test_every_painleve_argv_exits_with_a_json_verdict(parts):
    _assert_json_verdict(parts)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(_phi_argv, _phi_inverse_argv, _verify_argv))
def test_every_morphism_and_verify_argv_exits_with_a_json_verdict(parts):
    _assert_json_verdict(parts)
