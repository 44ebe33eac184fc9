"""End-to-end command line behavior, run in process through main()."""

import json
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest

from galedual import cli, roots
from galedual.cli import main
from galedual.lattice import IntMatrix

FIXTURES = files("galedual") / "fixtures"
SPARSE = str(FIXTURES / "example22_sparse.json")
MASTER = str(FIXTURES / "example22_master.json")
SECOND = str(FIXTURES / "example3_second.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def nonprimitive_sparse(tmp_path, coefficients=(("1", "1", "2", "3", "4"), ("1", "4", "3", "2", "1"))):
    return write_json(
        tmp_path,
        "nonprimitive.json",
        {
            "variables": ["x", "y"],
            "support": [[2, 0], [0, 2], [2, 2], [4, 2]],
            "coefficients": coefficients,
        },
    )


def doubled_weights_master(tmp_path):
    return write_json(
        tmp_path,
        "doubled.json",
        {
            "variables": ["s", "t"],
            "forms": [
                {"constant": "-1/2", "coeffs": ["1", "-1"]},
                {"constant": "-1", "coeffs": ["1", "1"]},
                {"constant": "0", "coeffs": ["1", "0"]},
                {"constant": "0", "coeffs": ["0", "1"]},
            ],
            "weights": [[-2, 6, 4, -4], [3, -1, 1, -3]],
        },
    )


# -- dualize -------------------------------------------------------------------


def test_dualize_sparse_json(capsys):
    code, out, err = run(capsys, "dualize", "--input", SPARSE)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["check"]["all_pass"] is True
    assert payload["master"]["variables"] == ["s", "t"]
    assert sorted(payload["witness"]["z_support_columns"]) == [0, 1, 2, 3]


def test_dualize_renders_the_check_dualization_ran(capsys, monkeypatch):
    def second_check(pair):
        raise AssertionError("dualize checked the pair a second time")

    monkeypatch.setattr("galedual.cli.check_gale_pair", second_check)
    for path in (SPARSE, MASTER):
        code, out, err = run(capsys, "dualize", "--input", path)
        assert code == 0, err
        assert json.loads(out)["check"]["all_pass"] is True


def test_dualize_sparse_text(capsys):
    code, out, _ = run(capsys, "dualize", "--input", SPARSE, "--format", "text")
    assert code == 0
    assert "verification: all checks pass" in out
    assert "master system in s, t" in out


def test_dualize_master_direction(capsys):
    code, out, _ = run(capsys, "dualize", "--input", MASTER)
    assert code == 0
    payload = json.loads(out)
    assert payload["check"]["all_pass"] is True
    assert payload["sparse"]["variables"] == ["x", "y"]


def test_dualize_output_file(capsys, tmp_path):
    target = tmp_path / "pair.json"
    code, out, _ = run(capsys, "dualize", "--input", SPARSE, "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["check"]["all_pass"] is True


def test_dualize_deterministic_output(capsys):
    _, first, _ = run(capsys, "dualize", "--input", SPARSE)
    _, second, _ = run(capsys, "dualize", "--input", SPARSE)
    assert first == second


# -- bound ---------------------------------------------------------------------


def test_bound_sparse(capsys):
    code, out, _ = run(capsys, "bound", "--input", SPARSE)
    assert code == 0
    payload = json.loads(out)
    assert payload["kouchnirenko"] == 17
    assert payload["euler_characteristic"] == 17
    assert payload["shape"] == {"num_weights": 2, "excess_dim": 0, "num_equations": 2}
    variants = {b["variant"] for b in payload["fewnomial"]}
    assert variants == {"positive", "all_real"}


def test_bound_master_matches_sparse(capsys):
    code, out, _ = run(capsys, "bound", "--input", MASTER)
    assert code == 0
    assert json.loads(out)["kouchnirenko"] == 17


def test_bound_text_four_significant_digits(capsys):
    code, out, _ = run(capsys, "bound", "--input", SPARSE, "--format", "text")
    assert code == 0
    assert "kouchnirenko bound: 17" in out
    assert "fewnomial positive: 20.78" in out


def test_bound_includes_betti_for_positive_excess(capsys, tmp_path):
    # one equation, three variables: excess dimension 2
    path = write_json(
        tmp_path,
        "excess.json",
        {
            "variables": ["x", "y", "z"],
            "support": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
            "coefficients": [["1", "1", "2", "3", "4"]],
        },
    )
    code, out, _ = run(capsys, "bound", "--input", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["shape"]["excess_dim"] == 2
    variants = {b["variant"] for b in payload["fewnomial"]}
    assert "betti" in variants


# -- solve ---------------------------------------------------------------------


def test_solve_sparse(capsys):
    code, out, _ = run(capsys, "solve", "--input", SPARSE)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 17
    assert payload["real_count"] == 3
    assert payload["total_multiplicity"] == 17


def test_solve_master(capsys):
    code, out, _ = run(capsys, "solve", "--input", MASTER)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 17
    assert payload["real_count"] == 3


def test_solve_text(capsys):
    code, out, _ = run(capsys, "solve", "--input", SECOND, "--format", "text")
    assert code == 0
    assert out.startswith("17 solutions")


def test_solve_tolerance_flags(capsys):
    code, out, _ = run(
        capsys, "solve", "--input", SPARSE, "--tol-verify", "1e-10",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 17
    assert all(s["residual"] < 1e-10 for s in payload["solutions"])


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "abc"])
def test_tol_verify_must_be_positive_and_finite(capsys, value):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--input", SPARSE, "--tol-verify", value])
    assert err.value.code == 2
    assert "--tol-verify: must be a positive finite number" in capsys.readouterr().err


# -- verify --------------------------------------------------------------------


def test_verify_sparse(capsys):
    code, out, _ = run(capsys, "verify", "--input", SPARSE)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert payload["poly_count"] == payload["master_count"] == 17
    assert payload["kouchnirenko_bound"] == 17
    assert payload["counts_match_bound"] is True


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", "--input", MASTER, "--format", "text")
    assert code == 0
    assert "bijection: perfect" in out


@pytest.mark.parametrize("path, degree", [(MASTER, 6), (SECOND, 9)])
def test_master_fixtures_dualize_to_a_reduced_torus_side(capsys, path, degree):
    # quotient_images' Hermite normal form basis gives cleared degree 24 and 20
    _, out, _ = run(capsys, "dualize", "--input", path)
    points = [(0, 0)] + [tuple(e) for e in json.loads(out)["sparse"]["support"]]
    shift = [min(p[v] for p in points) for v in range(2)]
    assert max(sum(e - s for e, s in zip(p, shift)) for p in points) == degree
    _, out, _ = run(capsys, "bound", "--input", path)
    assert json.loads(out)["kouchnirenko"] == 17
    code, out, _ = run(capsys, "verify", "--input", path, "--format", "text")
    assert code == 0
    assert "bijection: perfect" in out


def test_verify_deterministic_output(capsys):
    _, first, _ = run(capsys, "verify", "--input", SPARSE)
    _, second, _ = run(capsys, "verify", "--input", SPARSE)
    assert first == second


def test_reduced_weights_verify_every_solution(capsys, tmp_path):
    # the bounded basis search chose [[1,-2,-3,3],[3,2,4,-6]] here, and verify
    # matched only 17 of the 21 complement solutions
    path = write_json(tmp_path, "reduced.json", {
        "variables": ["x", "y"],
        "support": [[2, 2], [4, 1], [1, 4], [4, 3]],
        "coefficients": [["2", "2", "3", "3", "-2"], ["-1", "-4", "5", "4", "-1"]],
    })
    code, out, _ = run(capsys, "dualize", "--input", path)
    assert code == 0
    assert json.loads(out)["master"]["weights"] == [[1, -2, -3, 3], [4, 0, 1, -3]]
    code, out, _ = run(capsys, "verify", "--input", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["poly_count"] == payload["master_count"] == payload["kouchnirenko_bound"] == 21
    assert len(payload["pairs"]) == 21 and payload["bijective"] is True


def test_verify_doubled_weights_mismatch(capsys, tmp_path, monkeypatch):
    # the pair pits the input master against the dual of its saturation, so
    # the weight inverse of that dual certifies other weights and is dropped
    pairs = []
    verify = cli.verify_isomorphism
    monkeypatch.setattr(cli, "verify_isomorphism", lambda pair, config: pairs.append(pair) or verify(pair, config))
    code, out, _ = run(capsys, "verify", "--input", doubled_weights_master(tmp_path))
    assert [pair.witness.weight_inverse for pair in pairs] == [None]
    support = pairs[0].poly.support.matrix
    assert support @ pairs[0].witness.support_inverse == IntMatrix.identity(support.rows)
    assert code == 4
    payload = json.loads(out)
    assert payload["poly_count"] == 17
    assert payload["master_count"] == 34
    assert payload["bijective"] is False
    assert payload["unmatched_master"]


# -- error paths ---------------------------------------------------------------


def test_parse_error_names_field(capsys, tmp_path):
    path = write_json(
        tmp_path,
        "bad.json",
        {"variables": ["x", "y"], "support": "oops", "coefficients": []},
    )
    code, out, err = run(capsys, "dualize", "--input", path)
    assert code == 1
    assert out == ""
    assert "error: invalid input: support" in err


def test_unreadable_and_invalid_json(capsys, tmp_path):
    code, _, err = run(capsys, "solve", "--input", str(tmp_path / "missing.json"))
    assert code == 1
    assert "cannot read" in err
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    code, _, err = run(capsys, "solve", "--input", str(broken))
    assert code == 1
    assert "invalid JSON" in err
    # bytes that are not UTF-8, and arrays nested past the recursion limit
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe\x00\x7b")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    for path in (not_utf8, deep):
        code, out, err = run(capsys, "dualize", "--input", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: invalid input: invalid JSON: ")


def test_dependent_rows_is_parse_error(capsys, tmp_path):
    path = write_json(
        tmp_path,
        "dependent.json",
        {
            "variables": ["x", "y"],
            "support": [[4, -1], [3, 2], [4, 1], [1, 2]],
            "coefficients": [
                ["1", "2", "3", "4", "5"],
                ["2", "4", "6", "8", "10"],
            ],
        },
    )
    code, _, err = run(capsys, "dualize", "--input", path)
    assert code == 1
    assert "dependent" in err


def test_bound_on_non_spanning_support_is_parse_error(capsys, tmp_path):
    path = write_json(
        tmp_path,
        "collinear.json",
        {
            "variables": ["x", "y"],
            "support": [[1, 1], [2, 2], [3, 3]],
            "coefficients": [["1", "2", "3", "1"], ["2", "1", "5", "7"]],
        },
    )
    message = "error: support columns do not span the variable space over Q\n"
    for command in ("bound", "dualize"):
        assert run(capsys, command, "--input", path) == (1, "", message)


def test_nonprimitive_support_is_diagnostic(capsys, tmp_path):
    # dualize and verify print the same message, whatever the equations:
    # non-primitivity is reported before equations that are inconsistent
    # (x^2 = -1 and x^2 = -2) or give a degenerate dual (x^2 = 3) are looked at
    expected = (2, "", "error: input is not primitive (saturation index 4); "
                       "the dual system would miss solutions\n")
    for equations in [{},
                      {"coefficients": [["1", "1", "0", "0", "0"], ["2", "1", "0", "0", "0"]]},
                      {"coefficients": [["-3", "1", "0", "0", "0"], ["0", "0", "1", "-1", "0"]]}]:
        path = nonprimitive_sparse(tmp_path, **equations)
        assert run(capsys, "dualize", "--input", path) == expected
        assert run(capsys, "verify", "--input", path) == expected


def nonessential_master(tmp_path):
    return write_json(
        tmp_path,
        "parallel.json",
        {
            "variables": ["s", "t"],
            "forms": [
                {"constant": "0", "coeffs": ["1", "0"]},
                {"constant": "-1", "coeffs": ["1", "0"]},
                {"constant": "1", "coeffs": ["1", "0"]},
            ],
            "weights": [[1, -1, 0]],
        },
    )


def test_nonessential_arrangement_is_diagnostic(capsys, tmp_path):
    code, _, err = run(capsys, "dualize", "--input", nonessential_master(tmp_path))
    assert code == 2
    assert "span" in err or "essential" in err


def test_verify_reports_a_nonessential_arrangement_as_dualize_does(capsys, tmp_path):
    path = nonessential_master(tmp_path)
    dualized = run(capsys, "dualize", "--input", path)
    verified = run(capsys, "verify", "--input", path)
    assert verified == dualized == (2, "", "error: forms plus the constant do not span degree one\n")


def test_nonprimitive_is_reported_before_nonessential(capsys, tmp_path):
    path = write_json(
        tmp_path,
        "parallel_doubled.json",
        {
            "variables": ["s", "t"],
            "forms": [
                {"constant": "0", "coeffs": ["1", "0"]},
                {"constant": "-1", "coeffs": ["1", "0"]},
                {"constant": "1", "coeffs": ["1", "0"]},
            ],
            "weights": [[2, -2, 0]],
        },
    )
    code, out, err = run(capsys, "dualize", "--input", path)
    assert code == 2
    assert out == ""
    assert "input is not primitive (saturation index 2)" in err


def test_non_ascii_names_under_an_ascii_locale(capsys, tmp_path):
    # --output is UTF-8 whatever the locale, and a stdout that cannot encode
    # the payload is an output error instead of a traceback
    payload = json.loads(Path(SPARSE).read_text(encoding="utf-8"))
    payload["variables"] = ["\u03b1", "\u03b2"]
    path = tmp_path / "greek.json"
    path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
    env |= {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONPATH": str(Path(cli.__file__).parents[1])}

    def ascii_cli(*argv):
        return subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "galedual.cli", *argv],
            capture_output=True, env=env, timeout=120,
        )

    out = tmp_path / "pair.json"
    done = ascii_cli("dualize", "--input", str(path), "--output", str(out))
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    expected = tmp_path / "expected.json"
    assert run(capsys, "dualize", "--input", str(path), "--output", str(expected))[0] == 0
    assert out.read_bytes() == expected.read_bytes()
    assert json.loads(out.read_bytes().decode("utf-8"))["sparse"]["variables"] == ["\u03b1", "\u03b2"]

    done = ascii_cli("dualize", "--input", str(path), "--format", "text")
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr.startswith(b"error: stdout's encoding ")
    assert done.stderr.count(b"\n") == 1


@pytest.mark.parametrize("command", ["dualize", "bound", "solve", "verify"])
def test_unwritable_output_is_a_parse_error(capsys, tmp_path, command):
    for target in (tmp_path / "missing" / "out.json", tmp_path):
        code, out, err = run(capsys, command, "--input", SPARSE, "--output", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in err


def test_planar_master_whose_recentred_cluster_underflows_solves(capsys, tmp_path):
    # the dual of a 3-variable system: a resultant factor of degree 41 has a
    # cluster whose Taylor-shifted float image loses its leading coefficient
    path = write_json(
        tmp_path,
        "underflow.json",
        {
            "variables": ["s", "t"],
            "forms": [
                {"constant": "-7/34", "coeffs": ["-11/34", "-3/34"]},
                {"constant": "-39/68", "coeffs": ["-3/68", "-41/68"]},
                {"constant": "-1/4", "coeffs": ["3/4", "1/4"]},
                {"constant": "0", "coeffs": ["1", "0"]},
                {"constant": "0", "coeffs": ["0", "1"]},
            ],
            "weights": [[2, 0, 4, -2, 1], [2, 4, -3, -1, 2]],
        },
    )
    code, out, err = run(capsys, "solve", "--input", path)
    assert (code, err) == (0, "")
    solved = json.loads(out)
    code, out, _ = run(capsys, "bound", "--input", path)
    assert code == 0
    assert solved["total_multiplicity"] + len(solved["excluded"]) <= json.loads(out)["kouchnirenko"]


def test_master_point_on_a_negatively_weighted_line_is_excluded(capsys, tmp_path):
    # the dual of a 3-variable system: one root lies where form 3 (s, weight
    # -1 in the first row) crosses form 2, and s rounds to 0.0 there
    path = write_json(
        tmp_path,
        "on_line.json",
        {
            "variables": ["s", "t"],
            "forms": [
                {"constant": "1", "coeffs": ["1", "4"]},
                {"constant": "8/13", "coeffs": ["-4/13", "59/13"]},
                {"constant": "-2/13", "coeffs": ["1/13", "-18/13"]},
                {"constant": "0", "coeffs": ["1", "0"]},
                {"constant": "0", "coeffs": ["0", "1"]},
            ],
            "weights": [[2, -4, 1, -1, 0], [2, 2, -1, 4, 2]],
        },
    )
    code, out, err = run(capsys, "solve", "--input", path)
    assert (code, err) == (0, "")
    solved = json.loads(out)
    assert solved["count"] == 32
    [excluded] = solved["excluded"]
    assert excluded["flags"] == ["defining-residual"]
    assert excluded["residual"] == float("inf")
    (s, _), (t, _) = excluded["point"]
    assert abs(s) < 1e-9 and abs(t + 1 / 9) < 1e-9
    code, out, _ = run(capsys, "bound", "--input", path)
    assert code == 0
    assert solved["total_multiplicity"] + len(solved["excluded"]) <= json.loads(out)["kouchnirenko"]


def test_common_component_is_solver_error(capsys, tmp_path):
    # both equations share the factor x - y
    path = write_json(
        tmp_path,
        "shared.json",
        {
            "variables": ["x", "y"],
            "support": [[2, 0], [1, 1], [0, 2], [1, 0], [0, 1]],
            "coefficients": [
                ["0", "1", "0", "-1", "1", "-1"],
                ["0", "1", "1", "-2", "3", "-3"],
            ],
        },
    )
    code, _, err = run(capsys, "solve", "--input", path)
    assert code == 3
    assert "common" in err


def test_degree_cap_is_solver_error(capsys, tmp_path):
    path = write_json(
        tmp_path,
        "steep.json",
        {
            "variables": ["x", "y"],
            "support": [[31, 0], [1, 0], [0, 1]],
            "coefficients": [
                ["-1", "1", "0", "0"],
                ["-1", "0", "0", "1"],
            ],
        },
    )
    code, _, err = run(capsys, "solve", "--input", path)
    assert code == 3
    assert "cap" in err


def test_unconverged_roots_are_solver_error(capsys, monkeypatch):
    # the fixture's resultant factors need more than one Aberth pass
    monkeypatch.setattr(roots, "_ABERTH_STEPS", 1)
    code, out, err = run(capsys, "verify", "--input", SPARSE)
    assert code == 3
    assert out == ""
    assert err == "error: roots still move after 1 Aberth passes\n"


def test_bound_above_hull_dimension_cap_is_solver_error(capsys, tmp_path):
    # 7 variables, one past the hull's cap: the unit vectors, all-ones and 2*e1 + e2
    units = [[int(i == j) for j in range(7)] for i in range(7)]
    path = write_json(
        tmp_path,
        "seven.json",
        {
            "variables": [f"x{i + 1}" for i in range(7)],
            "support": units + [[1] * 7, [2, 1, 0, 0, 0, 0, 0]],
            "coefficients": [[str(c) for c in range(1, 11)]],
        },
    )
    message = "error: bounds are capped at 6 variables, got 7\n"
    assert run(capsys, "bound", "--input", path) == (3, "", message)


def test_argparse_rejects_malformed_invocations():
    for argv in ([], ["dualize"], ["frobnicate", "--input", SPARSE],
                 ["solve", "--input", SPARSE, "--format", "yaml"],
                 # dualize and bound solve nothing numerically: no tolerances
                 ["bound", "--input", SPARSE, "--tol-verify", "1e-3"],
                 ["dualize", "--input", SPARSE, "--tol-cluster", "1e-3"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


@pytest.mark.parametrize("command", ["dualize", "verify"])
@pytest.mark.parametrize("coefficients, reason", [
    # x = 2y and xy = 3: the pivot monomial xy is the constant 3
    ([["0", "1", "-2", "0"], ["-3", "0", "0", "1"]], "form 1 has zero gradient; not a hyperplane"),
    # x = 2xy + 2 and y = xy + 1: the pivot monomials' forms are proportional
    ([["-2", "1", "0", "-2"], ["-1", "0", "1", "-1"]], "forms 0 and 1 are proportional"),
])
def test_degenerate_dual_is_a_diagnostic(tmp_path, capsys, command, coefficients, reason):
    path = write_json(tmp_path, "degenerate.json", {
        "variables": ["x", "y"],
        "support": [[1, 0], [0, 1], [1, 1]],
        "coefficients": coefficients,
    })
    message = f"error: the dual forms are no hyperplane arrangement: {reason}\n"
    assert run(capsys, command, "--input", path) == (2, "", message)


@pytest.mark.parametrize("command", ["dualize", "verify"])
def test_inconsistent_equations_are_a_diagnostic(tmp_path, capsys, command):
    # 1 + x = 0 and 1 = 0
    path = write_json(tmp_path, "inconsistent.json", {
        "variables": ["x", "y"],
        "support": [[1, 0], [0, 1], [1, 1]],
        "coefficients": [["1", "1", "0", "0"], ["1", "0", "0", "0"]],
    })
    message = "error: the equations are inconsistent: a combination of them reads 1 = 0\n"
    assert run(capsys, command, "--input", path) == (2, "", message)
