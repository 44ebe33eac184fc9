"""JSON schemas, round trips, and the text renderers."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galedual.duality import dualize_poly_to_master
from galedual.errors import SchemaError
from galedual.lattice import ExponentMatrix, IntMatrix, SystemShape, WeightBasis
from galedual.serialize import (
    detect_kind,
    dump_json,
    load_system,
    master_to_dict,
    parse_master,
    parse_rational,
    parse_sparse,
    parse_system,
    rational_to_string,
    render_bounds_text,
    render_master_text,
    render_pair_text,
    render_report_text,
    render_solutions_text,
    render_sparse_text,
    report_to_dict,
    solution_to_dict,
    solutions_to_dict,
    sparse_to_dict,
    weighted_product_string,
)
from galedual.solver import (
    NumericSolution,
    SolutionSet,
    SolverConfig,
    solve_sparse,
    verify_isomorphism,
)
from galedual.systems import Arrangement, LinearForm, MasterSystem, SparseSystem


def sparse_dict():
    return {
        "variables": ["x", "y"],
        "support": [[4, -1], [3, 2], [4, 1], [1, 2]],
        "coefficients": [
            ["-1/2", "2", "-3", "-4", "1"],
            ["-1/2", "0", "1", "2", "-1"],
        ],
    }


def master_dict():
    return {
        "variables": ["s", "t"],
        "forms": [
            {"constant": "-1/2", "coeffs": ["1", "-1"]},
            {"constant": "-1", "coeffs": ["1", "1"]},
            {"constant": "0", "coeffs": ["1", "0"]},
            {"constant": "0", "coeffs": ["0", "1"]},
        ],
        "weights": [[-1, 3, 2, -2], [3, -1, 1, -3]],
    }


def small_master(weights):
    forms = (LinearForm(0, (1,)), LinearForm(-1, (1,)))
    return MasterSystem(
        Arrangement(1, forms, ("y1",)),
        WeightBasis(SystemShape(1, 0, 1), IntMatrix.from_rows(weights)),
    )


# -- rationals ------------------------------------------------------------------


def test_rational_strings():
    assert rational_to_string(Fraction(1, 2)) == "1/2"
    assert rational_to_string(Fraction(4, 2)) == "2"
    assert rational_to_string(Fraction(-3, 9)) == "-1/3"
    assert rational_to_string(0) == "0"


def test_parse_rational():
    assert parse_rational("1/2", "f") == Fraction(1, 2)
    assert parse_rational("-7", "f") == Fraction(-7)
    assert parse_rational(3, "f") == Fraction(3)
    for bad in (True, 1.5, "abc", "1/0", None, [1]):
        with pytest.raises(SchemaError):
            parse_rational(bad, "f")


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="0123456789\u0663\u0660+-/._e \t", max_size=8))
@example("1/0")
@example("-0")
@example("--3")
@example("3/-4")
@example("/3")
@example("-")
@example("3/04")
@example("\u0663/\u0664")
def test_parse_rational_agrees_with_fraction(text):
    """The int path for plain "p" and "p/q" gives what Fraction's string
    parser gives, value or error, on any string."""
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(SchemaError) as err:
            parse_rational(text, "f")
        assert str(err.value) == f"f: not a rational: {text!r}"
    else:
        parsed = parse_rational(text, "f")
        assert type(parsed) is Fraction
        assert parsed == expected


# -- parsing and round trips -------------------------------------------------------


def test_parse_sparse_round_trip():
    system = parse_sparse(sparse_dict())
    assert system.shape == SystemShape(2, 0, 2)
    assert system.variables == ("x", "y")
    assert system.coefficients[0][0] == Fraction(-1, 2)
    assert sparse_to_dict(system) == sparse_dict()
    again = parse_sparse(sparse_to_dict(system))
    assert again == system


def test_parse_master_round_trip():
    master = parse_master(master_dict())
    assert master.shape == SystemShape(2, 0, 2)
    assert master.arrangement.forms[0].constant == Fraction(-1, 2)
    assert master_to_dict(master) == master_dict()
    assert parse_master(master_to_dict(master)) == master


def test_to_dict_emits_lowest_terms():
    d = sparse_dict()
    d["coefficients"][0][1] = "4/2"
    assert sparse_to_dict(parse_sparse(d))["coefficients"][0][1] == "2"


def test_detect_kind_and_parse_system():
    assert detect_kind(sparse_dict()) == "sparse"
    assert detect_kind(master_dict()) == "master"
    assert isinstance(parse_system(sparse_dict()), SparseSystem)
    assert isinstance(parse_system(master_dict()), MasterSystem)
    with pytest.raises(SchemaError):
        detect_kind({"weights": []})
    with pytest.raises(SchemaError):
        detect_kind([1, 2])


def test_load_system(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(dump_json(sparse_dict()))
    assert load_system(path) == parse_sparse(sparse_dict())
    with pytest.raises(SchemaError):
        load_system(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        load_system(bad)


def test_schema_errors_name_the_field():
    cases = [
        (lambda d: d.pop("support"), "support"),
        (lambda d: d.__setitem__("support", "nope"), "support"),
        (lambda d: d["support"].__setitem__(1, "nope"), "support[1]"),
        (lambda d: d["support"][1].__setitem__(0, "x"), "support[1][0]"),
        (lambda d: d["support"][1].__setitem__(0, True), "support[1][0]"),
        (lambda d: d["support"].__setitem__(1, [1, 2, 3]), "support[1]"),
        (lambda d: d["coefficients"].__setitem__(0, ["1"]), "coefficients[0]"),
        (lambda d: d["coefficients"][0].__setitem__(2, "x/y"), "coefficients[0][2]"),
        (lambda d: d.__setitem__("variables", ["x", "x"]), "variables"),
        (lambda d: d.__setitem__("variables", ["x", ""]), "variables[1]"),
    ]
    for mutate, expected_field in cases:
        data = sparse_dict()
        mutate(data)
        with pytest.raises(SchemaError) as err:
            parse_sparse(data)
        assert err.value.field == expected_field, err.value


def test_schema_errors_master_side():
    cases = [
        (lambda d: d["forms"].__setitem__(0, "nope"), "forms[0]"),
        (lambda d: d["forms"][0].pop("constant"), "forms[0].constant"),
        (lambda d: d["forms"][0].__setitem__("coeffs", ["1"]), "forms[0].coeffs"),
        (lambda d: d["forms"][1]["coeffs"].__setitem__(0, "oops"), "forms[1].coeffs[0]"),
        (lambda d: d["weights"].__setitem__(0, [1, 2]), "weights[0]"),
        (lambda d: d["weights"][0].__setitem__(1, "3"), "weights[0][1]"),
    ]
    for mutate, expected_field in cases:
        data = master_dict()
        mutate(data)
        with pytest.raises(SchemaError) as err:
            parse_master(data)
        assert err.value.field == expected_field, err.value


def test_schema_shape_violations():
    shallow = sparse_dict()
    shallow["support"] = shallow["support"][:2]
    shallow["coefficients"] = [row[:3] for row in shallow["coefficients"]]
    with pytest.raises(SchemaError) as err:
        parse_sparse(shallow)
    assert err.value.field == "support"

    proportional = master_dict()
    proportional["forms"][1] = {"constant": "-1", "coeffs": ["2", "-2"]}
    with pytest.raises(SchemaError) as err:
        parse_master(proportional)
    assert err.value.field == "forms"

    dependent = master_dict()
    dependent["weights"] = [[1, 1, 1, 1], [2, 2, 2, 2]]
    with pytest.raises(Exception):
        parse_master(dependent)


def test_dump_json_shape():
    text = dump_json({"b": 1, "a": [1, 2]})
    assert text.endswith("\n")
    assert json.loads(text) == {"b": 1, "a": [1, 2]}
    assert dump_json({"b": 1, "a": [1, 2]}) == text


# -- solution payloads ----------------------------------------------------------------


def test_solution_dicts():
    sol = NumericSolution(
        point=(complex(1, 0), complex(0, -2)),
        residual=1e-12,
        multiplicity=2,
        is_real=False,
        location="torus",
        flags=("multiplicity-ambiguous",),
    )
    d = solution_to_dict(sol)
    assert d["point"] == [[1.0, 0.0], [0.0, -2.0]]
    assert d["multiplicity"] == 2
    assert d["flags"] == ["multiplicity-ambiguous"]

    solset = SolutionSet((sol,), (), ("note",), SolverConfig())
    payload = solutions_to_dict(solset)
    assert payload["count"] == 1
    assert payload["real_count"] == 0
    assert payload["total_multiplicity"] == 2
    assert payload["diagnostics"] == ["note"]


def test_report_dict_fields():
    pair = dualize_poly_to_master(parse_sparse(sparse_dict()))
    report = verify_isomorphism(pair)
    payload = report_to_dict(report)
    assert payload["poly_count"] == payload["master_count"] == 17
    assert payload["bijective"] is True
    assert payload["all_pass"] is True
    assert len(payload["pairs"]) == 17
    assert payload["max_distance"] < 1e-6


# -- text rendering -------------------------------------------------------------------


def test_render_sparse_text():
    text = render_sparse_text(parse_sparse(sparse_dict()))
    assert text.startswith("sparse system in x, y\n")
    assert "2 weights, excess 0, 2 equations" in text
    assert text.count(" = 0") == 2
    assert text.endswith("\n")


def test_weighted_product_strings():
    master = parse_master(master_dict())
    assert weighted_product_string(master, 0) == "(s + t - 1)^3*s^2 / ((s - t - 1/2)*t^2)"
    assert weighted_product_string(master, 1) == "(s - t - 1/2)^3*s / ((s + t - 1)*t^3)"
    assert weighted_product_string(small_master([[1, -2]]), 0) == "y1 / (y1 - 1)^2"
    assert weighted_product_string(small_master([[-1, -1]]), 0) == "1 / (y1*(y1 - 1))"
    assert weighted_product_string(small_master([[2, 0]]), 0) == "y1^2"


def test_render_master_text():
    text = render_master_text(parse_master(master_dict()))
    assert text.startswith("master system in s, t\n")
    assert "forms:" in text and "equations:" in text
    assert text.count(" = 1") == 2
    assert "s - t - 1/2" in text


def test_render_pair_text():
    text = render_pair_text(dualize_poly_to_master(parse_sparse(sparse_dict())))
    assert "dual coordinates: z1 = x^3*y^2" in text
    assert "verification: all checks pass" in text


def test_render_bounds_text():
    bounds = {
        "kouchnirenko": 17,
        "euler_characteristic": 17,
        "fewnomial": [
            {"variant": "positive", "value": 20.778112197861302, "formula": "(e^2 + 3)/4 * 2^1 * 2^2"},
        ],
    }
    text = render_bounds_text(bounds)
    assert "kouchnirenko bound: 17" in text
    assert "fewnomial positive: 20.78" in text
    assert "(e^2 + 3)/4" in text


def test_render_solutions_text():
    sols = solve_sparse(parse_sparse(sparse_dict()))
    text = render_solutions_text(sols)
    assert text.startswith("17 solutions (3 real, total multiplicity 17)")
    assert text.count("residual") == 17
    assert "[torus, real]" in text


def test_render_report_text():
    pair = dualize_poly_to_master(parse_sparse(sparse_dict()))
    report = verify_isomorphism(pair)
    text = render_report_text(report, bound=17)
    assert "torus solutions: 17" in text
    assert "complement solutions: 17" in text
    assert "kouchnirenko bound: 17" in text
    assert "bijection: perfect" in text
    assert "realness consistent: yes" in text
