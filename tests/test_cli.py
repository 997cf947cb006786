import copy
import hashlib
import inspect
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hyperharm
import oracles
from hyperharm import harmonic
from hyperharm.bvp import BoundaryData, poisson_eval, project_boundary, series_eval
from hyperharm.cli import run
from hyperharm.geometry import QuadratureRule
from hyperharm.legendre import funk_hecke_coeff
from hyperharm.orthopoly import RULE_BYTES_LIMIT
from hyperharm.polyalg import ExactPolynomial


def _out(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_count_example(capsys):
    assert run(["count", "--p", "3", "--n", "2"]) == 0
    out, _ = _out(capsys)
    assert out == "p,n,K,N\n3,2,6,5\n"


def test_legendre_eval_example(capsys):
    assert run(["legendre", "--p", "2", "--n", "3", "--eval", "0.5"]) == 0
    out, _ = _out(capsys)
    assert out.splitlines()[1] == "2,3,0.5,-1"
    # finite arguments outside [-1, 1] are evaluated too
    assert run(["legendre", "--p", "3", "--n", "2", "--eval", "5"]) == 0
    out, _ = _out(capsys)
    assert out.splitlines()[1] == "3,2,5,37"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_legendre_eval_refuses_a_non_finite_argument(capsys, value):
    assert run(["legendre", "--p", "3", "--n", "2", f"--eval={value}"]) == 2
    out, err = _out(capsys)
    assert out == "" and err == "error: --eval must be a finite number\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_legendre_eval_refuses_a_value_beyond_a_double(capsys, fmt):
    # the recurrence overflows to inf - inf here, so no value is printed
    assert run(["legendre", "--p", "3", "--n", "3", "--eval", "1e308", "--format", fmt]) == 2
    out, err = _out(capsys)
    assert out == "" and err == "error: the value at t = 1e+308 overflows a double\n"
    # a value near the top of the double range still prints
    assert run(["legendre", "--p", "3", "--n", "400", "--eval", "3", "--format", fmt]) == 0
    out, _ = _out(capsys)
    value = json.loads(out)["value"] if fmt == "json" else float(out.splitlines()[1].split(",")[-1])
    assert math.isfinite(value) and value > 4e304


def test_legendre_coeffs_are_rational_cells(capsys):
    assert run(["legendre", "--p", "3", "--n", "2"]) == 0
    out, _ = _out(capsys)
    lines = out.splitlines()
    assert lines[0] == "# p=3 n=2"
    assert lines[1] == "k,coefficient"
    assert lines[2:] == ["0,-1/2", "1,0", "2,3/2"]


def test_legendre_table_json(capsys):
    assert run(["legendre", "--p", "3", "--n", "3", "--table", "--format", "json"]) == 0
    out, _ = _out(capsys)
    doc = json.loads(out)
    assert doc["p"] == 3
    assert len(doc["coefficients"]) == 4
    assert doc["coefficients"][1] == ["0", "1"]
    assert doc["coefficients"][3] == ["0", "-3/2", "0", "5/2"]


def test_basis_member_counts(capsys):
    assert run(["basis", "--p", "3", "--n", "2"]) == 0
    out, _ = _out(capsys)
    members = {line.split(",")[0] for line in out.splitlines()[2:]}
    assert len(members) == 5
    assert run(["basis", "--p", "3", "--n", "2", "--raw", "--format", "json"]) == 0
    out, _ = _out(capsys)
    doc = json.loads(out)
    assert len(doc["members"]) == 5


# sha256 prefixes of the stdout of the basis commands on the byte-identity
# list; they change only on purpose, with the change listed in CHANGES.md
BASIS_DIGESTS = {
    "--p 5 --n 4": "bae6c27407eee096",
    "--p 4 --n 3 --format json": "8803ed2235e18576",
    "--p 3 --n 3 --raw": "caa22561f88fd39e",
    "--p 6 --n 8 --format json": "802d2577a56aa562",
}


@pytest.mark.parametrize("args", sorted(BASIS_DIGESTS))
def test_basis_output_bytes_are_pinned(capsys, args):
    assert run(["basis"] + args.split()) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == BASIS_DIGESTS[args]


# the README `solve` example's stdout: its words and layout exactly, and its floats, which come from BLAS sums
# in both routes, to 1e-14 (`tests/output_digests.py` compares the bytes of two commits on one machine)
README_SOLVE_OUTPUT = """\
# p=3 n_max=4 quad_degree=64
x1,x2,x3,series_value,poisson_value,abs_diff
0.20000000000000001,0.10000000000000001,0,0.20000000000000004,0.19999999999999954,4.9960036108132044e-16
0,0,0.5,0,2.310649050288799e-18,2.310649050288799e-18
"""


def test_readme_solve_output_is_pinned(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(README_PROBLEM))
    assert run(["solve", "--problem", str(path), "--degree", "64"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and oracles.same_up_to_rounding(out, README_SOLVE_OUTPUT, 1e-14), out


def test_basis_beyond_a_double_exits_2(capsys):
    # coefficients near C(2200, 1100) ~ 1e660 at p = 2, refused before the basis is built
    assert run(["basis", "--p", "2", "--n", "2200"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_circle_basis_beyond_a_double_exits_2_at_once(capsys):
    # the exact integers of a degree-5000 circle basis took 10 s to build before the overflow was found
    start = time.perf_counter()
    assert run(["basis", "--p", "2", "--n", "5000"]) == 2
    assert time.perf_counter() - start < 0.1
    out, err = _out(capsys)
    assert out == "" and err == "error: a degree-5000 basis in 2 variables has integer coefficients past a double\n"


@pytest.mark.parametrize("raw", [[], ["--raw"]])
@pytest.mark.parametrize("p, n", [(3, 100000), (5, 30)])
def test_oversized_basis_exits_2_at_once(monkeypatch, capsys, raw, p, n):
    # a (10416, 46376) matrix at (5, 30) is 3.9 GB as float64: refused before the build's first
    # steps, the factorial table and the ladder of lower-dimensional members
    def no_build(*args):
        raise AssertionError("a basis build started")

    monkeypatch.setattr(harmonic.math, "factorial", no_build)
    monkeypatch.setattr(harmonic, "_ladder", no_build)
    start = time.perf_counter()
    assert run(["basis", "--p", str(p), "--n", str(n)] + raw) == 2
    assert time.perf_counter() - start < 2.0
    out, err = _out(capsys)
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert f"more than {RULE_BYTES_LIMIT >> 20} MiB" in err


def test_quadrature_csv_round_trips(capsys):
    assert run(["quadrature", "--p", "3", "--degree", "5"]) == 0
    out, _ = _out(capsys)
    rule = QuadratureRule.from_csv(out)
    assert rule.exact_degree >= 5
    assert rule.weights.sum() == pytest.approx(4 * math.pi, rel=1e-12)


def test_funk_hecke_oracle(capsys):
    assert run(["funk-hecke", "--p", "3", "--n", "2", "--f", "t2"]) == 0
    out, _ = _out(capsys)
    value = float(out.splitlines()[1].split(",")[3])
    assert value == pytest.approx(8 * math.pi / 15, rel=1e-10)


def test_funk_hecke_degree_help_names_the_node_count(capsys):
    assert run(["funk-hecke", "--help"]) == 0
    out, _ = _out(capsys)
    help_text = " ".join(out.split())
    default_m = inspect.signature(funk_hecke_coeff).parameters["m"].default
    assert f"--degree M Gauss nodes in t (default {default_m}); the rule is exact through degree 2M - 1" in help_text
    assert "quadrature degree" not in help_text


def test_solve_round_trip(tmp_path, capsys):
    problem = {
        "p": 3,
        "n_max": 2,
        "boundary": {"type": "builtin", "name": "coordinate"},
        "eval_points": [[0.2, 0.1, 0.0], [0.0, 0.0, 0.5]],
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert run(["solve", "--problem", str(path), "--degree", "24"]) == 0
    out, _ = _out(capsys)
    lines = out.splitlines()
    assert lines[1] == "x1,x2,x3,series_value,poisson_value,abs_diff"
    first = lines[2].split(",")
    assert float(first[3]) == pytest.approx(0.2, abs=1e-8)
    assert float(first[5]) <= 1e-6


def test_verify_all_defaults_pass(capsys):
    assert run(["verify", "quadrature", "recurrence", "harmonicity"]) == 0
    out, _ = _out(capsys)
    lines = out.splitlines()
    assert lines[0] == "check,p-range,n-range,max_residual,tolerance,pass"
    assert len(lines) == 4
    assert all(line.endswith(",true") for line in lines[1:])


def test_verify_empty_selection(capsys):
    assert run(["verify"]) == 0
    out, _ = _out(capsys)
    assert out.splitlines() == ["check,p-range,n-range,max_residual,tolerance,pass"]


def test_verify_failure_exit_code(capsys):
    assert run(["verify", "orthogonality", "--tol", "1e-30"]) == 1
    out, _ = _out(capsys)
    assert out.splitlines()[1].endswith(",false")


def test_verify_unknown_check(capsys):
    assert run(["verify", "total-nonsense"]) == 2
    _, err = _out(capsys)
    assert err.startswith("error: unknown check 'total-nonsense'; available: ")


@pytest.mark.parametrize(
    "check, option, value",
    [
        ("addition", "--p", "0"),
        ("addition", "--p", "1"),
        ("addition", "--n", "-1"),
        ("addition", "--n-max", "-2"),
        ("addition", "--samples", "0"),
        ("addition", "--samples", "-3"),
        # below these a swept check compares no pair or recurrence step
        ("orthogonality", "--n-max", "0"),
        ("recurrence", "--n-max", "0"),
        ("recurrence", "--n-max", "1"),
        ("addition", "--tol", "nan"),
        ("addition", "--tol", "-1"),
    ],
)
def test_verify_option_below_its_range_is_a_usage_error(check, option, value, capsys):
    assert run(["verify", check, option, value]) == 2
    out, err = _out(capsys)
    assert out == ""
    assert err.startswith(f"error: {option} must be at least ")
    assert "Traceback" not in err


def _verify_rows(argv, capsys):
    assert run(["verify", *argv]) == 0
    out, _ = _out(capsys)
    return {line.split(",")[0]: line for line in out.splitlines()[1:]}


def test_verify_degree_options_set_their_checks_n_range(capsys):
    sampled = _verify_rows(["addition", "funk-hecke", "--p", "3", "--n", "2", "--samples", "3"], capsys)
    assert [row.split(",")[1:3] for row in sampled.values()] == [["3", "0..2"]] * 2
    swept = _verify_rows(["orthogonality", "recurrence", "harmonicity", "--p", "3", "--n-max", "3"], capsys)
    assert [row.split(",")[2] for row in swept.values()] == ["0..3"] * 3
    # --n sets no swept check's degree, and --n-max no sampled check's
    rows = _verify_rows(["addition", "orthogonality", "--p", "3", "--n", "1", "--n-max", "2", "--samples", "3"], capsys)
    assert rows["addition"].split(",")[2] == "0..1"
    assert rows["orthogonality"].split(",")[2] == "0..2"


def test_verify_bvp_accepts_the_circle(capsys):
    # the Green's function's closed form needs p >= 3, so at p = 2 the check samples series against kernel alone
    rows = _verify_rows(["bvp", "--p", "2"], capsys)
    _, p_range, _, residual, tolerance, passed = rows["bvp"].split(",")
    assert (p_range, passed) == ("2", "true") and float(residual) <= float(tolerance)


def test_verify_recurrence_has_no_dimension(capsys):
    rows = _verify_rows(["recurrence", "--p", "4"], capsys)
    assert rows["recurrence"].split(",")[1:3] == ["1", "0..8"]


def test_verify_row_does_not_depend_on_the_other_checks(capsys):
    # each check draws from its own generator seeded with --seed
    together = _verify_rows(["addition", "bvp", "--seed", "3", "--samples", "5"], capsys)
    alone = _verify_rows(["bvp", "--seed", "3"], capsys)
    assert together["bvp"] == alone["bvp"]


def test_unknown_kernel_is_a_usage_error(capsys):
    assert run(["funk-hecke", "--p", "3", "--n", "2", "--f", "cosh"]) == 2
    _, err = _out(capsys)
    assert "error:" in err


def test_argparse_error_paths(capsys):
    assert run([]) == 2
    _out(capsys)
    assert run(["no-such-command"]) == 2
    _out(capsys)
    assert run(["--help"]) == 0
    _out(capsys)


def test_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "rule.csv"
    assert run(["quadrature", "--p", "2", "--degree", "7", "--out", str(target)]) == 0
    out, _ = _out(capsys)
    assert target.read_text() == out


def test_unwritable_out_file_prints_nothing(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    assert run(["count", "--p", "3", "--n", "2", "--out", str(target)]) == 2
    out, err = _out(capsys)
    assert out == ""
    assert err.startswith("error:")


def test_determinism_across_runs(tmp_path, capsys):
    def output(argv, seed):
        assert run(argv + ["--seed", seed]) == 0
        out, _ = _out(capsys)
        return out

    addition = ["verify", "addition", "--p", "4", "--n", "3", "--samples", "40"]
    assert output(addition, "7") == output(addition, "7")
    # the addition residual is rounding noise about 0, which two seeds may
    # round alike; the bvp residual is a discretisation error at seeded points
    assert output(["verify", "bvp"], "7") != output(["verify", "bvp"], "8")


def test_console_script_is_installed():
    exe = shutil.which("hyperharm")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run(
        [exe, "count", "--p", "4", "--n", "3", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["K"] == 20
    assert doc["N"] == 16


def test_json_format_for_verify(capsys):
    assert run(["verify", "quadrature", "--format", "json"]) == 0
    out, _ = _out(capsys)
    doc = json.loads(out)
    assert doc[0]["check"] == "quadrature"
    assert doc[0]["pass"] is True


def _run_python(*args):
    """Run ``python *args`` in a fresh interpreter on this source tree."""
    src = str(Path(hyperharm.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )


def _run_module(*argv):
    return _run_python("-m", "hyperharm", *argv)


def test_python_dash_m_entry_point():
    proc = _run_module("count", "--p", "3", "--n", "2")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "3,2,6,5"


def test_runtime_loads_no_scipy():
    code = """
import contextlib, io, sys
import hyperharm
from hyperharm import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(["verify", "quadrature"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


COORDINATE = {"type": "builtin", "name": "coordinate"}
ONE_POINT = [[0.1, 0.0, 0.0]]


@pytest.mark.parametrize(
    "problem, message",
    [
        (
            {
                "p": 3,
                "n_max": 2,
                "boundary": {
                    "type": "polynomial",
                    "terms": [
                        {"alpha": [0, 0, 0], "num": 1, "den": 1},
                        {"alpha": [1, 0, 0], "num": 1, "den": 0},
                    ],
                },
                "eval_points": [[0.1, 0.0, 0.0]],
            },
            "term 1",
        ),
        ([{"p": 3, "n_max": 2, "boundary": COORDINATE}], "JSON object"),
        ({"p": 3, "n_max": 2, "boundary": COORDINATE, "eval_points": 5}, "eval_points"),
        ({"p": [3], "n_max": 2, "boundary": COORDINATE, "eval_points": ONE_POINT}, "p must"),
        ({"p": 3, "n_max": [2], "boundary": COORDINATE, "eval_points": ONE_POINT}, "n_max must"),
        ({"p": 3, "n_max": 2, "boundary": 5, "eval_points": ONE_POINT}, "boundary must"),
        (
            {
                "p": 3,
                "n_max": 2,
                "boundary": {"type": "polynomial", "terms": 5},
                "eval_points": ONE_POINT,
            },
            "terms must",
        ),
        (
            {
                "p": 3,
                "n_max": 2,
                "boundary": {
                    "type": "polynomial",
                    "terms": [{"alpha": 1, "num": 1, "den": 1}],
                },
                "eval_points": ONE_POINT,
            },
            "alpha must",
        ),
        (
            {
                "p": 3,
                "n_max": 2,
                "boundary": COORDINATE,
                "eval_points": ONE_POINT,
                "quad_degree": "x",
            },
            "quad_degree must",
        ),
        ({"p": 3, "n_max": 2, "boundary": COORDINATE, "eval_points": [[{}, 0, 0]]}, "eval_points[0][0]"),
        ({"p": 3, "n_max": 2, "boundary": COORDINATE, "eval_points": [[0, 10**400, 0]]}, "eval_points[0][1]"),
        (
            {
                "p": 3,
                "n_max": 2,
                "boundary": {"type": "polynomial", "terms": [{"alpha": [1, 0, 0], "num": 10**160, "den": 1}]},
                "eval_points": ONE_POINT,
            },
            "too large",
        ),
        ({"p": 0, "n_max": 2, "boundary": COORDINATE, "eval_points": []}, "p must"),
        (
            {
                "p": 3,
                "n_max": 2,
                "boundary": {
                    "type": "polynomial",
                    "terms": [
                        {"alpha": [1, 0, 0], "num": 1, "den": 1},
                        {"alpha": [1, 0, 0], "num": 2, "den": 1},
                    ],
                },
                "eval_points": ONE_POINT,
            },
            "term 1 repeats alpha",
        ),
        ({"p": 3, "n_max": 2, "boundary": {"type": "polynomial"}, "eval_points": ONE_POINT}, "terms must"),
        (
            {
                "p": 3,
                "n_max": 2,
                "boundary": {"type": "polynomial", "terms": [{"num": 1, "den": 1}]},
                "eval_points": ONE_POINT,
            },
            "term 0: alpha must",
        ),
    ],
    ids=[
        "zero-denominator",
        "top-level-array",
        "scalar-eval-points",
        "list-p",
        "list-n-max",
        "scalar-boundary",
        "scalar-terms",
        "scalar-alpha",
        "string-quad-degree",
        "dict-coordinate",
        "huge-coordinate",
        "huge-numerator",
        "zero-p",
        "repeated-alpha",
        "missing-terms",
        "missing-alpha",
    ],
)
def test_malformed_problem_is_an_input_error(tmp_path, problem, message):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    proc = _run_module("solve", "--problem", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and message in proc.stderr
    assert "Traceback" not in proc.stderr


README_PROBLEM = {
    "p": 3,
    "n_max": 4,
    "boundary": COORDINATE,
    "eval_points": [[0.2, 0.1, 0.0], [0.0, 0.0, 0.5]],
}
POLYNOMIAL_PROBLEM = {
    "p": 3,
    "n_max": 3,
    "boundary": {
        "type": "polynomial",
        "terms": [{"alpha": [1, 1, 0], "num": 3, "den": 4}, {"alpha": [0, 0, 2], "num": -1, "den": 2}],
    },
    "eval_points": [[0.1, -0.2, 0.3]],
    "quad_degree": 8,
}
MUTATION_VALUES = [
    *range(-3, 7),
    10**400,
    0.5,
    float("nan"),
    float("inf"),
    -float("inf"),
    "",
    "x",
    "builtin",
    "polynomial",
    "coordinate",
    "exponential",
    [],
    {},
    [[]],
    [[0.1, 0.0, 0.0]],
    [1, [2]],
    None,
    True,
    False,
]
MUTATION_KEYS = "p n_max quad_degree boundary eval_points type name terms alpha num den extra".split()


def _json_paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


def test_mutated_problem_exits_0_or_2(tmp_path, capsys):
    # one field of a valid problem replaced, deleted or added at a random JSON path
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    target = tmp_path / "problem.json"

    @hypothesis.settings(derandomize=True, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        doc = copy.deepcopy(data.draw(st.sampled_from([README_PROBLEM, POLYNOMIAL_PROBLEM])))
        path = data.draw(st.sampled_from(list(_json_paths(doc))))
        value = data.draw(st.sampled_from(MUTATION_VALUES))
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
        node = doc
        for key in path[:-1]:
            node = node[key]
        target_node = node[path[-1]] if path else doc
        if action == "add" and isinstance(target_node, dict):
            target_node[data.draw(st.sampled_from(MUTATION_KEYS))] = value
        elif action == "add" and isinstance(target_node, list):
            target_node.insert(data.draw(st.integers(0, len(target_node))), value)
        elif action == "delete" and path:
            del node[path[-1]]
        elif path:
            node[path[-1]] = value
        else:
            doc = value
        target.write_text(json.dumps(doc))
        rc = run(["solve", "--problem", str(target)])
        _, err = capsys.readouterr()
        assert rc in (0, 2)
        if rc == 2:
            assert err.startswith("error:")

    check()


@pytest.mark.parametrize("size", ["100000", "1000000"])
def test_count_past_the_printable_digits_exits_2_at_once(size, capsys):
    # C(n + p - 1, n) is priced in digits from lgamma before it is formed
    start = time.perf_counter()
    assert run(["count", "--p", size, "--n", size]) == 2
    assert time.perf_counter() - start < 0.1
    out, err = _out(capsys)
    assert out == "" and err.startswith(f"error: count --p {size} --n {size} has ")
    assert err.count("\n") == 1
    assert err.endswith(f" digits, past the {sys.get_int_max_str_digits()}-digit limit\n")
    assert run(["count", "--p", "3", "--n", "2"]) == 0
    assert _out(capsys)[0] == "p,n,K,N\n3,2,6,5\n"


def test_oversized_n_max_exits_2_at_once(tmp_path, capsys):
    # the coefficient output is priced before any rule or basis is built
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(dict(README_PROBLEM, n_max=10**400)))
    start = time.perf_counter()
    assert run(["solve", "--problem", str(path)]) == 2
    assert time.perf_counter() - start < 0.1
    out, err = _out(capsys)
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    needs = f"needs more than {RULE_BYTES_LIMIT >> 20} MiB"
    assert f"coefficient output of degree <= {10**400} in 3 variables {needs}" in err


def test_high_degree_polynomial_problem_exits_2_at_once(tmp_path, capsys):
    # x_1^5000 at n_max 5000: its coefficient output fits, but the exact integrals up to degree 5000 do not
    boundary = {"type": "polynomial", "terms": [{"alpha": [5000, 0], "num": 1, "den": 1}]}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"p": 2, "n_max": 5000, "boundary": boundary, "eval_points": [[0.1, 0.2]]}))
    start = time.perf_counter()
    assert run(["solve", "--problem", str(path)]) == 2
    assert time.perf_counter() - start < 0.1
    out, err = _out(capsys)
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: the exact integrals of degree <= 5000 in 2 variables needs more than 256 MiB")


def test_solve_with_a_deeply_nested_problem_file_exits_2(tmp_path, capsys):
    # json.load raises RecursionError, which is not an input error until the command names it one
    path = tmp_path / "problem.json"
    path.write_text("[" * 100_000)
    assert run(["solve", "--problem", str(path)]) == 2
    out, err = _out(capsys)
    assert out == "" and err == "error: the problem file nests too deeply\n"


def test_oversized_quadrature_exits_2_at_once(capsys):
    # 2 * 101 * 101^7 nodes: refused before any array is allocated
    start = time.perf_counter()
    assert run(["quadrature", "--p", "9", "--degree", "200"]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = _out(capsys)
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "MiB of nodes and weights" in err


def test_oversized_funk_hecke_rule_exits_2_at_once(capsys):
    # a 100000-node Golub-Welsch eigenproblem would need 149 GiB
    start = time.perf_counter()
    assert run(["funk-hecke", "--p", "3", "--n", "2", "--f", "t2", "--degree", "100000"]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = _out(capsys)
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "100000-node Gauss rule" in err


def test_callable_data_above_the_default_rule_degree_solves(tmp_path):
    # degree-60 harmonics need a projection rule of degree above 120
    problem = {
        "p": 2,
        "n_max": 60,
        "boundary": {"type": "builtin", "name": "exponential"},
        "eval_points": [[0.1, 0.2]],
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    proc = _run_module("solve", "--problem", str(path))
    assert proc.returncode == 0, proc.stderr
    abs_diff = float(proc.stdout.splitlines()[2].split(",")[-1])
    assert abs_diff <= 1e-12


def test_high_degree_callable_solve_matches_the_kernel(tmp_path, capsys):
    # the power-basis route refused n_max 80 at p = 3 on the norm bound (exit 2)
    points = 0.8 * np.random.default_rng(83).uniform(-1.0, 1.0, size=(6, 3)) / math.sqrt(3)
    points[0] = [0.0, 0.48, 0.64]
    problem = {
        "p": 3,
        "n_max": 80,
        "boundary": {"type": "builtin", "name": "exponential"},
        "eval_points": points.tolist(),
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert run(["solve", "--problem", str(path)]) == 0
    lines = _out(capsys)[0].splitlines()
    col = lines[1].split(",").index("abs_diff")
    diffs = [float(line.split(",")[col]) for line in lines[2:]]
    assert len(diffs) == len(points) and max(diffs) <= 1e-13


def test_solve_columns_match_single_point_solvers(tmp_path, capsys):
    terms = [
        {"alpha": [1, 1, 0], "num": 3, "den": 4},
        {"alpha": [0, 0, 2], "num": -1, "den": 2},
        {"alpha": [0, 1, 0], "num": 5, "den": 8},
    ]
    points = np.random.default_rng(51).uniform(-0.5, 0.5, size=(7, 3)).tolist()
    problem = {
        "p": 3,
        "n_max": 3,
        "boundary": {"type": "polynomial", "terms": terms},
        "eval_points": points,
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert run(["solve", "--problem", str(path), "--degree", "30", "--format", "json"]) == 0
    doc = json.loads(_out(capsys)[0])
    f = BoundaryData.from_polynomial(ExactPolynomial.from_json_dict({"nvars": 3, "terms": terms}))
    sol = project_boundary(f, 3)
    series_col = doc["header"].index("series_value")
    kernel_col = doc["header"].index("poisson_value")
    assert len(doc["rows"]) == len(points)
    for row, x in zip(doc["rows"], np.array(points)):
        # the batched kernel sweep does the same arithmetic per point
        assert row[kernel_col] == poisson_eval(f, x, quad_degree=30)
        assert abs(row[series_col] - series_eval(sol, x)) <= 1e-14
    path.write_text(json.dumps(dict(problem, eval_points=[])))
    assert run(["solve", "--problem", str(path), "--format", "json"]) == 0
    assert json.loads(_out(capsys)[0])["rows"] == []


def test_star_import_binds_the_56_public_names_and_no_module():
    names = {}
    exec("from hyperharm import *", names)
    del names["__builtins__"]
    assert sorted(names) == sorted(hyperharm.__all__) and len(names) == 56
    assert names["__version__"] == "0.1.0" and {"project_boundary", "Poly1D", "count_harmonic"} <= set(names)
    assert not any(inspect.ismodule(v) for v in names.values())
