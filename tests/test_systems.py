"""Sparse torus systems, arrangements, and the exact rewriting helpers."""

import random
from fractions import Fraction

import pytest

from galedual.errors import (
    DependentRowsError,
    DependentWeightsError,
    NoPivotError,
    NoRationalScalingError,
)
from galedual.lattice import ExponentMatrix, IntMatrix, SystemShape, WeightBasis
from galedual.ratlinalg import mat_det, mat_mul
from galedual.systems import (
    Arrangement,
    LinearForm,
    MasterSystem,
    SparseSystem,
    absorb_constants,
    clear_denominators,
    cleared_polynomials,
    diagonalize,
    evaluate_phi,
    is_essential,
    master_variable_names,
    monomial_string,
    normalize_support,
    torus_variable_names,
)


def worked_sparse():
    shape = SystemShape(2, 0, 2)
    support = ExponentMatrix(
        shape, IntMatrix.from_rows([[4, 3, 4, 1], [-1, 2, 1, 2]])
    )
    coefficients = (
        (Fraction(-1, 2), 2, -3, -4, 1),
        (Fraction(-1, 2), 0, 1, 2, -1),
    )
    return SparseSystem(support, coefficients, ("x", "y"))


def worked_master():
    shape = SystemShape(2, 0, 2)
    forms = (
        LinearForm(Fraction(-1, 2), (1, -1)),
        LinearForm(-1, (1, 1)),
        LinearForm(0, (1, 0)),
        LinearForm(0, (0, 1)),
    )
    arrangement = Arrangement(2, forms, ("s", "t"))
    weights = WeightBasis(shape, IntMatrix.from_rows([[-1, 3, 2, -2], [3, -1, 1, -3]]))
    return MasterSystem(arrangement, weights)


def rand_torus_point(rng, dim):
    out = []
    for _ in range(dim):
        v = Fraction(0)
        while v == 0:
            v = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        out.append(v)
    return tuple(out)


def laurent_value(system, row, point):
    values = evaluate_phi(system.support, point)
    c = system.coefficients[row]
    return c[0] + sum(cj * v for cj, v in zip(c[1:], values))


# -- names and rendering -------------------------------------------------------


def test_variable_name_defaults():
    assert torus_variable_names(2) == ("x", "y")
    assert torus_variable_names(4) == ("x1", "x2", "x3", "x4")
    assert master_variable_names(2) == ("s", "t")
    assert master_variable_names(3) == ("y1", "y2", "y3")


def test_monomial_string():
    assert monomial_string((4, -1), ("x", "y")) == "x^4*y^-1"
    assert monomial_string((1, 0), ("x", "y")) == "x"
    assert monomial_string((0, 0), ("x", "y")) == "1"


def test_equation_strings_have_rhs_zero():
    for line in worked_sparse().equation_strings():
        assert line.endswith(" = 0")
    first = worked_sparse().equation_strings()[0]
    assert "x^4*y^-1" in first and "1/2" in first


# -- SparseSystem validation ----------------------------------------------------


def test_sparse_system_rejects_malformed():
    shape = SystemShape(2, 0, 2)
    support = ExponentMatrix(shape, IntMatrix.from_rows([[4, 3, 4, 1], [-1, 2, 1, 2]]))
    good = ((1, 2, 3, 4, 5), (0, 1, 1, 0, 0))
    with pytest.raises(ValueError):
        SparseSystem(support, good[:1], ("x", "y"))
    with pytest.raises(ValueError):
        SparseSystem(support, ((1, 2, 3, 4), (0, 1, 1, 0)), ("x", "y"))
    with pytest.raises(ValueError):
        SparseSystem(support, good, ("x",))
    zero_col = ExponentMatrix(shape, IntMatrix.from_rows([[0, 3, 4, 1], [0, 2, 1, 2]]))
    with pytest.raises(ValueError):
        SparseSystem(zero_col, good, ("x", "y"))
    dup_col = ExponentMatrix(shape, IntMatrix.from_rows([[3, 3, 4, 1], [2, 2, 1, 2]]))
    with pytest.raises(ValueError):
        SparseSystem(dup_col, good, ("x", "y"))
    with pytest.raises(DependentRowsError):
        SparseSystem(support, ((1, 2, 3, 4, 5), (2, 4, 6, 8, 10)), ("x", "y"))


# -- normalize_support -----------------------------------------------------------


def test_normalize_translates_to_include_origin():
    rng = random.Random(61)
    for _ in range(40):
        shift = (rng.randint(-3, 3), rng.randint(-3, 3))
        raw = [(1, 0), (0, 1), (1, 1), (2, 2)]
        vectors = [(a + shift[0], b + shift[1]) for a, b in raw]
        rows = [
            [rng.randint(-5, 5) for _ in vectors],
            [rng.randint(-5, 5) for _ in vectors],
        ]
        try:
            system = normalize_support(vectors, rows)
        except (ValueError, DependentRowsError):
            continue
        # torus solutions are preserved: values match up to a monomial factor
        for _ in range(5):
            p = rand_torus_point(rng, 2)
            raw_vals = [
                sum(
                    Fraction(c) * p[0] ** v[0] * p[1] ** v[1]
                    for c, v in zip(row, vectors)
                )
                for row in rows
            ]
            for i in range(2):
                got = laurent_value(system, i, p)
                if raw_vals[i] == 0:
                    assert got == 0
                else:
                    ratio = got / raw_vals[i]
                    # the same monomial rescales both equations
                    assert ratio != 0
                    other = laurent_value(system, 1 - i, p)
                    if raw_vals[1 - i] != 0:
                        assert other / raw_vals[1 - i] == ratio


def test_normalize_idempotent():
    vectors = [(2, 1), (3, 1), (2, 2), (5, 3)]
    rows = [[1, 2, 3, 4], [4, 3, 2, 1]]
    once = normalize_support(vectors, rows)
    full_cols = [[0, 0]] + [list(c) for c in once.support.exponents()]
    again = normalize_support(full_cols, [list(r) for r in once.coefficients])
    # zero column already present, so nothing moves
    assert once.support.exponents() == again.support.exponents()
    assert once.coefficients == again.coefficients


def test_normalize_merges_and_drops():
    vectors = [(0, 0), (1, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 0)]
    rows = [[1, 2, 3, 4, 1, 5, -5], [5, 6, 7, 8, 2, 1, -1]]
    system = normalize_support(vectors, rows)
    assert system.support.matrix.to_rows() == [[1, 0, 1], [0, 1, 1]]
    assert system.coefficients == ((1, 5, 4, 1), (5, 13, 8, 2))


def test_normalize_rejects_bad_shapes():
    with pytest.raises(ValueError):
        normalize_support([], [])
    with pytest.raises(ValueError):
        normalize_support([(0, 0), (1,)], [[1, 2]])
    with pytest.raises(ValueError):
        normalize_support([(0, 0), (1, 0)], [[1, 2, 3]])
    # two distinct nonzero columns in dimension 2: no weight directions left
    with pytest.raises(ValueError):
        normalize_support([(0, 0), (1, 0), (0, 1)], [[1, 1, 1], [1, 2, 3]])
    # more equations than variables
    with pytest.raises(ValueError):
        normalize_support(
            [(1,), (2,), (3,)], [[1, 1, 1], [1, 2, 3]]
        )


# -- diagonalize -----------------------------------------------------------------


def test_diagonalize_worked_system():
    diag = diagonalize(worked_sparse())
    assert diag.pivots == (1, 3)
    assert diag.nonpivots == (0, 2)
    assert diag.rhs[0].constant == Fraction(-1, 2)
    assert diag.rhs[0].coeffs == (1, -1)
    assert diag.rhs[1].constant == -1
    assert diag.rhs[1].coeffs == (1, 1)


def test_diagonalize_is_row_equivalence():
    rng = random.Random(62)
    system = worked_sparse()
    diag = diagonalize(system)
    transform = [list(r) for r in diag.transform]
    assert mat_det(transform) != 0
    produced = diag.diagonal_coefficients()
    check = mat_mul(transform, [list(r) for r in system.coefficients])
    assert produced == tuple(tuple(r) for r in check)
    # identity on pivot columns, negated rhs elsewhere
    for i, pivot in enumerate(diag.pivots):
        for r in range(len(diag.pivots)):
            assert produced[r][pivot + 1] == (1 if r == i else 0)
        assert produced[i][0] == -diag.rhs[i].constant
        for t, j in enumerate(diag.nonpivots):
            assert produced[i][j + 1] == -diag.rhs[i].coeffs[t]
    # diagonalized system has the same solutions: rows are an invertible
    # recombination, so values vanish together at random points
    for _ in range(10):
        p = rand_torus_point(rng, 2)
        base_vals = [laurent_value(system, i, p) for i in range(2)]
        phi = evaluate_phi(system.support, p)
        for i, pivot in enumerate(diag.pivots):
            lhs = phi[pivot]
            rhs = diag.rhs[i].evaluate([phi[j] for j in diag.nonpivots])
            combo = sum(Fraction(transform[i][r]) * base_vals[r] for r in range(2))
            assert (lhs - rhs) == combo


def test_diagonalize_pivot_choice_ignores_storage_order():
    system = worked_sparse()
    perm = [2, 0, 3, 1]
    support = ExponentMatrix(
        system.shape,
        IntMatrix.from_rows(
            [[system.support.matrix.at(i, j) for j in perm] for i in range(2)]
        ),
    )
    coefficients = tuple(
        (row[0],) + tuple(row[j + 1] for j in perm) for row in system.coefficients
    )
    shuffled = diagonalize(SparseSystem(support, coefficients, ("x", "y")))
    base = diagonalize(system)
    base_pivot_vectors = {base.base.support.exponent(j) for j in base.pivots}
    shuffled_pivot_vectors = {
        shuffled.base.support.exponent(j) for j in shuffled.pivots
    }
    assert base_pivot_vectors == shuffled_pivot_vectors


def test_diagonalize_no_pivot():
    shape = SystemShape(2, 0, 2)
    support = ExponentMatrix(shape, IntMatrix.from_rows([[1, 0, 1, 2], [0, 1, 1, 1]]))
    # monomial block has proportional rows; only the constants differ
    coefficients = ((0, 1, 2, 1, 2), (1, 2, 4, 2, 4))
    system = SparseSystem(support, coefficients, ("x", "y"))
    with pytest.raises(NoPivotError):
        diagonalize(system)


# -- cleared polynomials ----------------------------------------------------------


def test_cleared_polynomials_match_on_torus():
    rng = random.Random(63)
    system = worked_sparse()
    cleared = cleared_polynomials(system)
    dim = system.shape.torus_dim
    for i, poly in enumerate(cleared):
        # expected clearing monomial from the row's support
        involved = [(0,) * dim] if system.coefficients[i][0] != 0 else []
        involved += [
            system.support.exponent(j)
            for j in range(system.shape.num_forms)
            if system.coefficients[i][j + 1] != 0
        ]
        shift = tuple(-min(0, min(e[v] for e in involved)) for v in range(dim))
        for _ in range(8):
            p = rand_torus_point(rng, dim)
            monomial = p[0] ** shift[0] * p[1] ** shift[1]
            assert poly.eval_exact(p) == monomial * laurent_value(system, i, p)


def test_cleared_polynomials_plain_when_no_negatives():
    system = normalize_support(
        [(0, 0), (1, 0), (0, 1), (1, 1)], [[1, 2, 3, 4], [4, 3, 2, 1]]
    )
    cleared = cleared_polynomials(system)
    rng = random.Random(64)
    for i, poly in enumerate(cleared):
        for _ in range(5):
            p = rand_torus_point(rng, 2)
            assert poly.eval_exact(p) == laurent_value(system, i, p)


# -- arrangements -----------------------------------------------------------------


def test_linear_form_basics():
    f = LinearForm(Fraction(-1, 2), (1, -1))
    assert f.evaluate((Fraction(2), Fraction(1))) == Fraction(1, 2)
    assert f.is_proportional_to(LinearForm(1, (-2, 2)))
    assert not f.is_proportional_to(LinearForm(0, (1, -1)))
    assert f.render(("s", "t")) == "s - t - 1/2"


def test_arrangement_validation():
    with pytest.raises(ValueError):
        Arrangement(2, (LinearForm(0, (1, 0)), LinearForm(0, (2, 0))), ("s", "t"))
    with pytest.raises(ValueError):
        Arrangement(2, (LinearForm(1, (0, 0)),), ("s", "t"))
    with pytest.raises(ValueError):
        Arrangement(2, (LinearForm(0, (1,)),), ("s", "t"))
    with pytest.raises(ValueError):
        Arrangement(2, (LinearForm(0, (1, 0)),), ("s",))


def test_is_essential():
    assert is_essential(worked_master().arrangement)
    slab = Arrangement(2, (LinearForm(0, (1, 0)), LinearForm(1, (1, 0))), ("s", "t"))
    assert not is_essential(slab)


def test_master_system_validation():
    master = worked_master()
    assert master.shape == SystemShape(2, 0, 2)
    with pytest.raises(DependentWeightsError):
        MasterSystem(
            master.arrangement,
            WeightBasis(
                SystemShape(2, 0, 2),
                IntMatrix.from_rows([[1, 1, 1, 1], [2, 2, 2, 2]]),
            ),
        )
    with pytest.raises(ValueError):
        MasterSystem(
            Arrangement(2, master.arrangement.forms[:3], ("s", "t")),
            master.weights,
        )


def test_master_residual_vanishes_on_exact_solution():
    # weights (1, -1) on forms s, t: solutions need s = t
    shape = SystemShape(1, 1, 1)
    arrangement = Arrangement(
        2, (LinearForm(0, (1, 0)), LinearForm(0, (0, 1)), LinearForm(-1, (1, 1))), ("s", "t")
    )
    master = MasterSystem(arrangement, WeightBasis(shape, IntMatrix.from_rows([[1, -1, 0]])))
    assert master.residual((0.7, 0.7)) < 1e-12
    assert master.residual((0.7, 0.9)) > 1e-3


# -- cleared binomials --------------------------------------------------------------


def test_clear_denominators_worked_rows():
    master = worked_master()
    first = clear_denominators(master, 0)
    assert first.plus == (0, 3, 2, 0)
    assert first.minus == (1, 0, 0, 2)
    second = clear_denominators(master, 1)
    assert second.plus == (3, 0, 1, 0)
    assert second.minus == (0, 1, 0, 3)


def test_cleared_binomial_zero_iff_product_one():
    rng = random.Random(65)
    master = worked_master()
    rows = [clear_denominators(master, j) for j in range(2)]
    for _ in range(60):
        p = rand_torus_point(rng, 2)
        values = master.arrangement.evaluate(p)
        if any(v == 0 for v in values):
            continue
        for j, cleared in enumerate(rows):
            product = Fraction(1)
            for v, w in zip(values, master.weights.weight(j)):
                product *= v ** w
            difference = cleared.expand_difference(master.arrangement).eval_exact(p)
            assert (difference == 0) == (product == 1)
            # split never mixes a coordinate into both sides
            assert all(a * b == 0 for a, b in zip(cleared.plus, cleared.minus))
            assert tuple(a - b for a, b in zip(cleared.plus, cleared.minus)) == master.weights.weight(j)


# -- constant absorption --------------------------------------------------------------


def extract_scales(original, scaled):
    out = []
    for f, g in zip(original.arrangement.forms, scaled.arrangement.forms):
        ratio = None
        for a, b in zip((f.constant, *f.coeffs), (g.constant, *g.coeffs)):
            if a != 0:
                ratio = b / a
                break
        assert ratio is not None
        assert all(b == ratio * a for a, b in zip((f.constant, *f.coeffs), (g.constant, *g.coeffs)))
        out.append(ratio)
    return out


def test_absorb_constants_row_products():
    master = worked_master()
    targets = (Fraction(2), Fraction(-9, 4))
    scaled = absorb_constants(master, targets)
    lams = extract_scales(master, scaled)
    for j in range(2):
        product = Fraction(1)
        for lam, w in zip(lams, master.weights.weight(j)):
            product *= lam ** w
        assert product * targets[j] == 1


def test_absorb_constants_identity_targets():
    master = worked_master()
    scaled = absorb_constants(master, (1, 1))
    lams = extract_scales(master, scaled)
    for j in range(2):
        product = Fraction(1)
        for lam, w in zip(lams, master.weights.weight(j)):
            product *= lam ** w
        assert product == 1


def test_absorb_constants_obstructions():
    shape = SystemShape(1, 1, 1)
    arrangement = Arrangement(
        2, (LinearForm(0, (1, 0)), LinearForm(0, (0, 1)), LinearForm(-1, (1, 1))), ("s", "t")
    )
    master = MasterSystem(arrangement, WeightBasis(shape, IntMatrix.from_rows([[2, -2, 2]])))
    assert absorb_constants(master, (4,))  # 2-adic valuation is even: fine
    with pytest.raises(NoRationalScalingError):
        absorb_constants(master, (8,))
    with pytest.raises(NoRationalScalingError):
        absorb_constants(master, (-4,))
    with pytest.raises(ValueError):
        absorb_constants(master, (0,))
    with pytest.raises(ValueError):
        absorb_constants(master, (1, 1))


# -- evaluation maps --------------------------------------------------------------------


def test_evaluate_phi_exact_and_complex():
    system = worked_sparse()
    p = (Fraction(2), Fraction(3))
    values = evaluate_phi(system.support, p)
    assert values[0] == Fraction(2) ** 4 * Fraction(3) ** -1
    assert values[1] == Fraction(2) ** 3 * Fraction(3) ** 2
    approx = evaluate_phi(system.support, (2 + 0j, 3 + 0j))
    for a, b in zip(values, approx):
        assert abs(complex(a) - b) < 1e-9
    with pytest.raises(ValueError):
        evaluate_phi(system.support, (Fraction(0), Fraction(1)))
    with pytest.raises(ValueError):
        evaluate_phi(system.support, (0j, 1 + 0j))
