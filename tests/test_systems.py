"""Sparse torus systems, arrangements, and the exact rewriting helpers."""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bivariate import Q, x, y
from galedual.errors import DependentRowsError, DimensionCapError, NoPivotError
from galedual.lattice import ExponentMatrix, IntMatrix, SystemShape, WeightBasis
from galedual.ratlinalg import mat_det, mat_inverse, mat_mul, row_space_equal
from galedual.systems import (
    Arrangement,
    ClearedBinomial,
    LinearForm,
    MasterSystem,
    SparseSystem,
    clear_denominators,
    cleared_polynomials,
    diagonalize,
    evaluate_phi,
    is_essential,
    master_variable_names,
    monomial_string,
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


# -- diagonalize -----------------------------------------------------------------


def test_diagonalize_worked_system():
    diag = diagonalize(worked_sparse())
    assert diag.pivots == (1, 3)
    assert diag.nonpivots == (0, 2)
    assert diag.rhs[0].constant == Fraction(-1, 2)
    assert diag.rhs[0].coeffs == (1, -1)
    assert diag.rhs[1].constant == -1
    assert diag.rhs[1].coeffs == (1, 1)


def diagonal_rows(diag, k):
    """The diagonalized coefficient rows over k monomials: 1 on the row's
    pivot column, 0 on the other pivots, the negated rhs elsewhere."""
    rows = []
    for i, pivot in enumerate(diag.pivots):
        row = [-diag.rhs[i].constant] + [Fraction(0)] * k
        row[pivot + 1] = Fraction(1)
        for j, c in zip(diag.nonpivots, diag.rhs[i].coeffs):
            row[j + 1] = -c
        rows.append(row)
    return rows


def test_diagonalize_is_row_equivalence():
    # the diagonalized rows span the coefficient rows' space, so the two
    # systems have the same solutions
    system = worked_sparse()
    diag = diagonalize(system)
    k = system.shape.num_forms
    assert row_space_equal(diagonal_rows(diag, k), [list(r) for r in system.coefficients])
    perturbed = diagonal_rows(diag, k)
    perturbed[0][0] += 1
    assert not row_space_equal(perturbed, [list(r) for r in system.coefficients])


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
    shuffled_system = SparseSystem(support, coefficients, ("x", "y"))
    shuffled = diagonalize(shuffled_system)
    base = diagonalize(system)
    base_pivot_vectors = {system.support.exponent(j) for j in base.pivots}
    shuffled_pivot_vectors = {
        shuffled_system.support.exponent(j) for j in shuffled.pivots
    }
    assert base_pivot_vectors == shuffled_pivot_vectors


def brute_diagonalize(system):
    """The reference for diagonalize: the first num_equations-subset of
    support columns, in exponent-vector order, with an invertible coefficient
    submatrix, found by one determinant per subset, then solved for by the
    inverse. Returns (pivots, nonpivots, rhs), or None when no subset is
    invertible."""
    shape = system.shape
    n = shape.num_equations
    k = shape.num_forms
    by_vector = sorted(range(k), key=lambda j: system.support.exponent(j))
    for subset in combinations(by_vector, n):
        sub = [[system.coefficients[i][j + 1] for j in subset] for i in range(n)]
        if mat_det(sub) != 0:
            break
    else:
        return None
    pivots = tuple(sorted(subset))
    nonpivots = tuple(j for j in range(k) if j not in pivots)
    sub = [[system.coefficients[i][j + 1] for j in pivots] for i in range(n)]
    diag = mat_mul(mat_inverse(sub), [list(r) for r in system.coefficients])
    rhs = tuple(
        LinearForm(-diag[i][0], [-diag[i][j + 1] for j in nonpivots]) for i in range(n)
    )
    return pivots, nonpivots, rhs


@st.composite
def sparse_systems(draw):
    """Systems in dimensions 1 to 4 with sparse coefficients, where some
    columns repeat an earlier one up to a factor, so that early subsets of
    columns are often singular and some systems have no pivot set at all."""
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(1, dim))
    k = draw(st.integers(dim + 1, dim + 3))
    vector = st.tuples(*[st.integers(-3, 3)] * dim).filter(any)
    vectors = draw(st.lists(vector, min_size=k, max_size=k, unique=True))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(-3, 2)])
    rows = [[draw(entry) for _ in range(k + 1)] for _ in range(n)]
    for j in range(2, k + 1):
        if draw(st.booleans()):
            source = draw(st.integers(0, j - 1))
            factor = draw(st.sampled_from([1, -2, Fraction(1, 3)]))
            for row in rows:
                row[j] = factor * row[source]
    support = IntMatrix.from_rows([list(v) for v in vectors], cols=dim).transpose()
    try:
        return SparseSystem(
            ExponentMatrix(SystemShape(k - dim, dim - n, n), support),
            rows,
            torus_variable_names(dim),
        )
    except DependentRowsError:
        assume(False)


@settings(max_examples=200, deadline=None)
@given(sparse_systems())
def test_diagonalize_matches_subset_search(system):
    expected = brute_diagonalize(system)
    if expected is None:
        with pytest.raises(NoPivotError):
            diagonalize(system)
        return
    diag = diagonalize(system)
    assert (diag.pivots, diag.nonpivots, diag.rhs) == expected


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
    # each row's denominators have lcm 2, and its cleared integers are coprime
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
            assert Q.of(poly)(*p) == 2 * monomial * laurent_value(system, i, p)


def test_cleared_polynomials_plain_when_no_negatives():
    support = ExponentMatrix(SystemShape(1, 0, 2), IntMatrix.from_rows([[1, 0, 1], [0, 1, 1]]))
    system = SparseSystem(support, ((1, 2, 3, 4), (4, 3, 2, 1)), ("x", "y"))
    cleared = cleared_polynomials(system)
    rng = random.Random(64)
    for i, poly in enumerate(cleared):
        for _ in range(5):
            p = rand_torus_point(rng, 2)
            assert Q.of(poly)(*p) == laurent_value(system, i, p)


@st.composite
def bivariate_sparse_systems(draw):
    """Two equations on 3 or 4 distinct nonzero exponents in [-3, 3]^2, with
    rational coefficients, some of them zero."""
    k = draw(st.integers(3, 4))
    exponent = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any)
    cols = draw(st.lists(exponent, min_size=k, max_size=k, unique=True))
    value = st.sampled_from([0, 0, 1, -1]) | st.fractions(-9, 9, max_denominator=6)
    rows = draw(st.lists(st.lists(value, min_size=k + 1, max_size=k + 1), min_size=2, max_size=2))
    try:
        support = ExponentMatrix(SystemShape(k - 2, 0, 2), IntMatrix.from_rows([list(v) for v in zip(*cols)]))
        return SparseSystem(support, rows, ("x", "y"))
    except (ValueError, DependentRowsError):
        assume(False)


@settings(max_examples=100, deadline=None)
@given(bivariate_sparse_systems())
def test_cleared_rows_are_the_laurent_rows_times_their_clearing_monomials(system):
    point = (Fraction(-2, 3), Fraction(5, 2))
    for i, (row, poly) in enumerate(zip(system.coefficients, cleared_polynomials(system))):
        laurent = [((0, 0), row[0])] + [(system.support.exponent(j), c) for j, c in enumerate(row[1:])]
        laurent = [(e, c) for e, c in laurent if c]
        # the clearing monomial x**mx * y**my: the least that leaves no negative exponent
        mx, my = (max(0, -min(e[v] for e, _ in laurent)) for v in (0, 1))
        reference = Q({(a + mx, b + my): c for (a, b), c in laurent})
        assert list(poly.terms) == list(reference.terms)  # the row's order, which Newton sums in
        cleared = Q.of(poly)
        ratio = next(iter(cleared.terms.values())) / next(iter(reference.terms.values()))
        assert ratio > 0 and cleared == ratio * reference
        monomial = point[0] ** mx * point[1] ** my
        assert cleared(*point) == ratio * monomial * laurent_value(system, i, point)


# -- arrangements -----------------------------------------------------------------


def form_value(form, point):
    return form.constant + sum(c * x for c, x in zip(form.coeffs, point))


def test_linear_form_basics():
    f = LinearForm(Fraction(-1, 2), (1, -1))
    assert form_value(f, (Fraction(2), Fraction(1))) == Fraction(1, 2)
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


def first_proportional_pair(forms):
    """The lexicographically first pair (i, j) of proportional forms, by a
    ratio test on every pair, or None."""

    def proportional(a, b):
        pivot = next((i for i, v in enumerate(a) if v != 0), None)
        if pivot is None:
            return all(v == 0 for v in b)
        if b[pivot] == 0:
            return False
        ratio = Fraction(b[pivot]) / Fraction(a[pivot])
        return all(Fraction(y) == ratio * Fraction(x) for x, y in zip(a, b))

    vectors = [(f.constant, *f.coeffs) for f in forms]
    pairs = combinations(range(len(forms)), 2)
    return next(((i, j) for i, j in pairs if proportional(vectors[i], vectors[j])), None)


rationals = st.fractions(-3, 3, max_denominator=4)


def gradients(dim):
    return st.lists(rationals, min_size=dim, max_size=dim).filter(any)


@st.composite
def forms_with_copies(draw):
    """Random forms in 1 to 3 variables with three or more copies planted,
    each a copy of an earlier form scaled by a nonzero rational of either
    sign and put in at a random place."""
    dim = draw(st.integers(1, 3))
    forms = [LinearForm(draw(rationals), draw(gradients(dim))) for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(3, 5))):
        form = forms[draw(st.integers(0, len(forms) - 1))]
        scale = draw(rationals.filter(bool))
        copy = LinearForm(scale * form.constant, [scale * c for c in form.coeffs])
        forms.insert(draw(st.integers(0, len(forms))), copy)
    return dim, forms


@settings(max_examples=200, deadline=None)
@given(forms_with_copies())
def test_arrangement_reports_the_first_proportional_pair(drawn):
    dim, forms = drawn
    i, j = first_proportional_pair(forms)
    with pytest.raises(ValueError, match=rf"^forms {i} and {j} are proportional$"):
        Arrangement(dim, forms, master_variable_names(dim))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda dim: st.tuples(
    st.just(dim), gradients(dim), st.lists(rationals, min_size=1, max_size=6, unique=True))))
def test_arrangement_accepts_forms_sharing_a_gradient(drawn):
    dim, gradient, constants = drawn
    forms = [LinearForm(c, gradient) for c in constants]
    assert first_proportional_pair(forms) is None
    assert Arrangement(dim, forms, master_variable_names(dim)).forms == tuple(forms)


def test_is_essential():
    assert is_essential(worked_master().arrangement)
    slab = Arrangement(2, (LinearForm(0, (1, 0)), LinearForm(1, (1, 0))), ("s", "t"))
    assert not is_essential(slab)


def test_master_system_validation():
    master = worked_master()
    assert master.shape == SystemShape(2, 0, 2)
    with pytest.raises(DependentRowsError):
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
    on, off = master.residuals([(0.7, 0.7), (0.7, 0.9)])
    assert on < 1e-12
    assert off > 1e-3
    # on the line t = 0, which the weights divide by, the residual is infinite
    assert master.residuals([(0.7, 0.0)]) == [float("inf")]


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
        values = [form_value(form, p) for form in master.arrangement.forms]
        if any(v == 0 for v in values):
            continue
        for j, cleared in enumerate(rows):
            product = Fraction(1)
            for v, w in zip(values, master.weights.weight(j)):
                product *= v ** w
            difference = Q.of(cleared.expand_difference(master.arrangement))(*p)
            assert (difference == 0) == (product == 1)
            # split never mixes a coordinate into both sides
            assert all(a * b == 0 for a, b in zip(cleared.plus, cleared.minus))
            assert tuple(a - b for a, b in zip(cleared.plus, cleared.minus)) == master.weights.weight(j)


def fraction_difference(cleared, arrangement):
    """product(p_i^plus) - product(p_i^minus) with Fraction coefficients, the
    way expand_difference computed it before it cleared denominators."""

    def product(exponents):
        out = Q({(0, 0): 1})
        for form, e in zip(arrangement.forms, exponents):
            out = out * (form.constant + form.coeffs[0] * x + form.coeffs[1] * y) ** e
        return out

    return product(cleared.plus) - product(cleared.minus)


@st.composite
def rational_masters(draw):
    """Masters of 2 weights on dim + 2 forms in dim = 2 or 3 variables, with
    coefficients of denominator up to 6."""
    dim = draw(st.integers(2, 3))
    value = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
    forms = draw(st.lists(st.tuples(value, st.tuples(*[value] * dim)),
                          min_size=dim + 2, max_size=dim + 2))
    weights = draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim + 2, max_size=dim + 2),
                            min_size=2, max_size=2))
    try:
        arrangement = Arrangement(dim, [LinearForm(*f) for f in forms], master_variable_names(dim))
        return MasterSystem(arrangement, WeightBasis(SystemShape(2, dim - 2, 2),
                                                     IntMatrix.from_rows(weights)))
    except (ValueError, DependentRowsError):
        assume(False)


@settings(max_examples=100, deadline=None)
@given(rational_masters())
def test_expand_difference_is_a_positive_multiple(master):
    assume(any(d.denominator > 1 for f in master.arrangement.forms for d in (f.constant, *f.coeffs)))
    for j in range(master.shape.num_weights):
        cleared = clear_denominators(master, j)
        if master.arrangement.ambient_dim != 2:
            # the solver's integer form has two variables
            with pytest.raises(DimensionCapError):
                cleared.expand_difference(master.arrangement)
            continue
        reference = fraction_difference(cleared, master.arrangement)
        expanded = Q.of(cleared.expand_difference(master.arrangement))
        mono = next(iter(reference.terms))
        ratio = expanded.terms[mono] / reference.terms[mono]
        assert ratio > 0
        assert expanded == ratio * reference


@st.composite
def planar_arrangements(draw):
    """4 or 5 lines with rational coefficients of denominator up to 6."""
    value = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
    n = draw(st.integers(4, 5))
    forms = draw(st.lists(st.tuples(value, value, value), min_size=n, max_size=n))
    try:
        return Arrangement(2, [LinearForm(c, (a, b)) for c, a, b in forms], ("s", "t"))
    except ValueError:
        assume(False)


@settings(max_examples=100, deadline=None)
@given(planar_arrangements(), st.data())
def test_expand_difference_matches_the_fraction_expansion(arrangement, data):
    # with p_i = q_i/d_i: product(q_i^plus)*product(d_i^minus) - product(q_i^minus)*product(d_i^plus)
    n = len(arrangement.forms)
    weight = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    cleared = ClearedBinomial(tuple(max(w, 0) for w in weight), tuple(max(-w, 0) for w in weight))
    plus = minus = Q({(0, 0): 1})
    for form, up, down in zip(arrangement.forms, cleared.plus, cleared.minus):
        d = lcm(*(v.denominator for v in (form.constant, *form.coeffs)))
        q = d * (form.constant + form.coeffs[0] * x + form.coeffs[1] * y)
        plus = plus * q ** up * d ** down
        minus = minus * q ** down * d ** up
    assert cleared.expand_difference(arrangement).terms == (plus - minus).int().terms


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
