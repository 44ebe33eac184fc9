"""JSON and text input/output for systems, pairs, bounds, and reports.

Rationals travel as "p/q" strings in lowest terms so nothing is lost to
floating point. Dict construction order is fixed, which together with
sorted solution lists makes identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict
from fractions import Fraction

from .errors import SchemaError
from .lattice import ExponentMatrix, IntMatrix, SystemShape, WeightBasis
from .systems import Arrangement, LinearForm, MasterSystem, SparseSystem


_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rational_to_string(value):
    return str(value if isinstance(value, Fraction) else Fraction(value))


def parse_rational(value, field):
    """Fraction from a "p/q" string (or a bare int); SchemaError otherwise.

    A plain "p" or "p/q" in ASCII digits goes through ``int``, about twice
    as fast as ``Fraction``'s string parser; any other string goes through
    that parser and gets the same value or error.
    """
    if isinstance(value, bool):
        raise SchemaError(field, "expected a rational string, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            plain = _PLAIN_RATIONAL.fullmatch(value)
            if plain is None:
                return Fraction(value)
            num, den = plain.groups()
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        except (ValueError, ZeroDivisionError):
            raise SchemaError(field, f"not a rational: {value!r}") from None
    raise SchemaError(field, f"expected a rational string, got {type(value).__name__}")


def _require(data, key, kind, path=""):
    full = f"{path}.{key}" if path else key
    if not isinstance(data, dict):
        raise SchemaError(path or key, "expected an object")
    if key not in data:
        raise SchemaError(full, "missing required field")
    value = data[key]
    if not isinstance(value, kind):
        raise SchemaError(full, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _int_entry(value, field):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(field, "expected an integer")
    return value


def _name_list(data, key):
    raw = _require(data, key, list)
    names = []
    for i, v in enumerate(raw):
        if not isinstance(v, str) or not v:
            raise SchemaError(f"{key}[{i}]", "expected a nonempty string")
        names.append(v)
    if len(set(names)) != len(names):
        raise SchemaError(key, "variable names must be distinct")
    if not names:
        raise SchemaError(key, "at least one variable is required")
    return names


def parse_sparse(data):
    """SparseSystem from schema {variables, support, coefficients}."""
    variables = _name_list(data, "variables")
    dim = len(variables)
    raw_support = _require(data, "support", list)
    vectors = []
    for j, vec in enumerate(raw_support):
        field = f"support[{j}]"
        if not isinstance(vec, list):
            raise SchemaError(field, "expected a list of integers")
        if len(vec) != dim:
            raise SchemaError(field, f"expected {dim} exponents, got {len(vec)}")
        vectors.append([_int_entry(v, f"{field}[{t}]") for t, v in enumerate(vec)])
    raw_rows = _require(data, "coefficients", list)
    rows = []
    for i, row in enumerate(raw_rows):
        if not isinstance(row, list):
            raise SchemaError(f"coefficients[{i}]", "expected a list")
        if len(row) != len(vectors) + 1:
            raise SchemaError(
                f"coefficients[{i}]",
                f"expected {len(vectors) + 1} entries (constant first), got {len(row)}",
            )
        rows.append([parse_rational(c, f"coefficients[{i}][{j}]") for j, c in enumerate(row)])

    n = len(rows)
    k = len(vectors)
    m = dim - n
    l = k - dim
    if n == 0:
        raise SchemaError("coefficients", "at least one equation is required")
    if m < 0:
        raise SchemaError("coefficients", f"more equations ({n}) than variables ({dim})")
    if l <= 0:
        raise SchemaError(
            "support",
            f"{k} monomials in dimension {dim}; need strictly more monomials than variables",
        )
    support = ExponentMatrix(
        SystemShape(l, m, n), IntMatrix.from_rows(vectors, cols=dim).transpose()
    )
    try:
        return SparseSystem(support, rows, tuple(variables))
    except ValueError as exc:
        raise SchemaError("support", str(exc)) from None


def parse_master(data):
    """MasterSystem from schema {variables, forms, weights}."""
    variables = _name_list(data, "variables")
    dim = len(variables)
    raw_forms = _require(data, "forms", list)
    forms = []
    for i, f in enumerate(raw_forms):
        if not isinstance(f, dict):
            raise SchemaError(f"forms[{i}]", "expected an object")
        constant = parse_rational(
            _require(f, "constant", (str, int), path=f"forms[{i}]"), f"forms[{i}].constant"
        )
        raw_coeffs = _require(f, "coeffs", list, path=f"forms[{i}]")
        if len(raw_coeffs) != dim:
            raise SchemaError(f"forms[{i}].coeffs", f"expected {dim} coefficients")
        coeffs = [
            parse_rational(c, f"forms[{i}].coeffs[{j}]") for j, c in enumerate(raw_coeffs)
        ]
        forms.append(LinearForm(constant, coeffs))
    raw_weights = _require(data, "weights", list)
    weight_rows = []
    for i, row in enumerate(raw_weights):
        if not isinstance(row, list):
            raise SchemaError(f"weights[{i}]", "expected a list of integers")
        if len(row) != len(forms):
            raise SchemaError(
                f"weights[{i}]", f"expected {len(forms)} entries, got {len(row)}"
            )
        weight_rows.append([_int_entry(v, f"weights[{i}][{j}]") for j, v in enumerate(row)])

    l = len(weight_rows)
    k = len(forms)
    m = dim - l
    n = k - dim
    if l == 0:
        raise SchemaError("weights", "at least one weight row is required")
    if m < 0:
        raise SchemaError("weights", f"more weight rows ({l}) than variables ({dim})")
    if n <= 0:
        raise SchemaError(
            "forms", f"{k} forms in dimension {dim}; need strictly more forms than variables"
        )
    shape = SystemShape(l, m, n)
    try:
        arrangement = Arrangement(dim, forms, tuple(variables))
    except ValueError as exc:
        raise SchemaError("forms", str(exc)) from None
    try:
        weights = WeightBasis(shape, IntMatrix.from_rows(weight_rows, cols=k))
        return MasterSystem(arrangement, weights)
    except ValueError as exc:
        raise SchemaError("weights", str(exc)) from None


def detect_kind(data):
    if not isinstance(data, dict):
        raise SchemaError("", "top level must be an object")
    if "support" in data:
        return "sparse"
    if "forms" in data:
        return "master"
    raise SchemaError("", "neither 'support' nor 'forms' present; cannot detect system kind")


def parse_system(data):
    """SparseSystem or MasterSystem, auto-detected by schema."""
    return parse_sparse(data) if detect_kind(data) == "sparse" else parse_master(data)


def load_system(path):
    """The system in the UTF-8 JSON file at path; SchemaError if it cannot be
    read, is not UTF-8 (a ValueError, as is a JSON syntax error) or nests too
    deeply to decode."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemaError("", f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise SchemaError("", f"invalid JSON: {exc}") from None
    return parse_system(data)


def sparse_to_dict(system):
    return {
        "variables": list(system.variables),
        "support": [list(v) for v in system.support.exponents()],
        "coefficients": [
            [rational_to_string(c) for c in row] for row in system.coefficients
        ],
    }


def master_to_dict(master):
    return {
        "variables": list(master.arrangement.variables),
        "forms": [
            {
                "constant": rational_to_string(f.constant),
                "coeffs": [rational_to_string(c) for c in f.coeffs],
            }
            for f in master.arrangement.forms
        ],
        "weights": [list(r) for r in master.weights.matrix.to_rows()],
    }


def check_to_dict(check):
    return asdict(check) | {"all_pass": check.all_pass, "failures": list(check.failures())}


def _z_monomials(pair):
    """The monomial of each z coordinate, rendered: that of its support column."""
    monomials = pair.poly.monomial_strings()
    return (monomials[c] for c in pair.witness.z_support_columns)


def pair_to_dict(pair):
    return {
        "sparse": sparse_to_dict(pair.poly),
        "master": master_to_dict(pair.master),
        "witness": {
            "z_support_columns": list(pair.witness.z_support_columns),
            "z_monomials": list(_z_monomials(pair)),
        },
        "check": check_to_dict(pair.check),
    }


def _complex_pair(z):
    return [z.real, z.imag]


def solution_to_dict(sol):
    return {
        "point": [_complex_pair(v) for v in sol.point],
        "residual": sol.residual,
        "multiplicity": sol.multiplicity,
        "is_real": sol.is_real,
        "location": sol.location,
        "flags": list(sol.flags),
    }


def solutions_to_dict(solset):
    return {
        "count": solset.count,
        "real_count": solset.real_count,
        "total_multiplicity": solset.total_multiplicity,
        "solutions": [solution_to_dict(s) for s in solset.solutions],
        "excluded": [solution_to_dict(s) for s in solset.excluded],
        "diagnostics": list(solset.diagnostics),
    }


def report_to_dict(report):
    return {
        "poly_count": report.poly_count,
        "master_count": report.master_count,
        "pairs": [
            {
                "poly_index": p.poly_index,
                "master_index": p.master_index,
                "distance": p.distance,
                "both_real": p.both_real,
            }
            for p in report.pairs
        ],
        "unmatched_poly": list(report.unmatched_poly),
        "unmatched_master": list(report.unmatched_master),
        "max_distance": report.max_distance,
        "real_consistent": report.real_consistent,
        "bijective": report.bijective,
        "all_pass": report.all_pass,
    }


def dump_json(obj):
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


# text rendering


def render_sparse_text(system):
    lines = [f"sparse system in {', '.join(system.variables)}"]
    shape = system.shape
    lines.append(
        f"shape: {shape.num_weights} weights, excess {shape.excess_dim}, "
        f"{shape.num_equations} equations"
    )
    for eq in system.equation_strings():
        lines.append(f"  {eq}")
    return "\n".join(lines) + "\n"


def _power_string(base, exponent):
    # bare variable names stay naked; anything with structure gets parens
    wrapped = base if base.isidentifier() else f"({base})"
    return wrapped if exponent == 1 else f"{wrapped}^{exponent}"


def weighted_product_string(master, row):
    """One weight row as numerator/denominator of powered forms, e.g.
    s^2*(s + t - 1)^3 / (t^2*(s - t - 1/2))."""
    names = master.arrangement.variables
    num = []
    den = []
    for form, w in zip(master.arrangement.forms, master.weights.weight(row)):
        if w == 0:
            continue
        piece = _power_string(form.render(names), abs(w))
        (num if w > 0 else den).append(piece)
    top = "*".join(num) if num else "1"
    if not den:
        return top
    bottom = "*".join(den)
    if len(den) > 1:
        bottom = f"({bottom})"
    return f"{top} / {bottom}"


def render_master_text(master):
    names = master.arrangement.variables
    lines = [f"master system in {', '.join(names)}"]
    shape = master.shape
    lines.append(
        f"shape: {shape.num_weights} weights, excess {shape.excess_dim}, "
        f"{shape.num_equations} equations"
    )
    lines.append("forms:")
    for f in master.arrangement.forms:
        lines.append(f"  {f.render(names)}")
    lines.append("equations:")
    for j in range(shape.num_weights):
        lines.append(f"  {weighted_product_string(master, j)} = 1")
    return "\n".join(lines) + "\n"


def render_pair_text(pair):
    coordinates = ", ".join(f"z{i + 1} = {mono}" for i, mono in enumerate(_z_monomials(pair)))
    check = pair.check
    status = "all checks pass" if check.all_pass else "FAILED: " + ", ".join(check.failures())
    return (render_sparse_text(pair.poly) + render_master_text(pair.master)
            + f"dual coordinates: {coordinates}\nverification: {status}\n")


def render_bounds_text(bounds):
    lines = [
        f"kouchnirenko bound: {bounds['kouchnirenko']}",
        f"euler characteristic: {bounds['euler_characteristic']}",
    ]
    for b in bounds["fewnomial"]:
        lines.append(f"fewnomial {b['variant']}: {_sig4(b['value'])}  [{b['formula']}]")
    return "\n".join(lines) + "\n"


def _sig4(value):
    return f"{value:.4g}"


def render_solutions_text(solset):
    lines = [
        f"{solset.count} solutions ({solset.real_count} real, "
        f"total multiplicity {solset.total_multiplicity}), "
        f"{len(solset.excluded)} excluded"
    ]
    for s in solset.solutions:
        coords = ", ".join(_complex_str(v) for v in s.point)
        tags = [s.location]
        if s.multiplicity != 1:
            tags.append(f"mult {s.multiplicity}")
        if s.is_real:
            tags.append("real")
        tags.extend(s.flags)
        lines.append(f"  ({coords})  residual {s.residual:.2e}  [{', '.join(tags)}]")
    for d in solset.diagnostics:
        lines.append(f"note: {d}")
    return "\n".join(lines) + "\n"


def _complex_str(z):
    if z.imag == 0:
        return f"{z.real:.10g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.10g} {sign} {abs(z.imag):.10g}i"


def render_report_text(report, bound=None):
    lines = [
        f"torus solutions: {report.poly_count}",
        f"complement solutions: {report.master_count}",
        f"matched pairs: {len(report.pairs)} (max distance {report.max_distance:.2e})",
    ]
    if report.unmatched_poly:
        lines.append(f"unmatched torus solutions: {list(report.unmatched_poly)}")
    if report.unmatched_master:
        lines.append(f"unmatched complement solutions: {list(report.unmatched_master)}")
    lines.append(f"realness consistent: {'yes' if report.real_consistent else 'no'}")
    if bound is not None:
        lines.append(f"kouchnirenko bound: {bound}")
    lines.append("bijection: " + ("perfect" if report.bijective else "MISMATCH"))
    return "\n".join(lines) + "\n"
