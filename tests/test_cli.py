"""End-to-end command line behavior, run in process through main()."""

import json
from importlib.resources import files

import pytest

from galedual.cli import main

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


def nonprimitive_sparse(tmp_path):
    return write_json(
        tmp_path,
        "nonprimitive.json",
        {
            "variables": ["x", "y"],
            "support": [[2, 0], [0, 2], [2, 2], [4, 2]],
            "coefficients": [
                ["1", "1", "2", "3", "4"],
                ["1", "4", "3", "2", "1"],
            ],
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
        capsys, "solve", "--input", SPARSE,
        "--tol-cluster", "1e-7", "--tol-verify", "1e-10",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 17
    assert all(s["residual"] < 1e-10 for s in payload["solutions"])


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


def test_verify_doubled_weights_mismatch(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "--input", doubled_weights_master(tmp_path))
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


def test_nonprimitive_support_is_diagnostic(capsys, tmp_path):
    path = nonprimitive_sparse(tmp_path)
    code, _, err = run(capsys, "dualize", "--input", path)
    assert code == 2
    assert "saturation index 4" in err
    code, _, err = run(capsys, "verify", "--input", path)
    assert code == 2
    assert "saturation index 4" in err


def test_nonessential_arrangement_is_diagnostic(capsys, tmp_path):
    path = write_json(
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
    code, _, err = run(capsys, "dualize", "--input", path)
    assert code == 2
    assert "span" in err or "essential" in err


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


def test_argparse_rejects_malformed_invocations():
    for argv in ([], ["dualize"], ["frobnicate", "--input", SPARSE],
                 ["solve", "--input", SPARSE, "--format", "yaml"],
                 # dualize and bound solve nothing numerically: no tolerances
                 ["bound", "--input", SPARSE, "--tol-verify", "1e-3"],
                 ["dualize", "--input", SPARSE, "--tol-cluster", "1e-3"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
