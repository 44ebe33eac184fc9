"""Property tests of the paper's invariants on random systems.

Round trips through the dual keep the relation lattice and the volume bound,
and the torus side of a master depends only on its weight lattice; torus
solution counts do not depend on the coordinates of the support and never
exceed its bound; solution sets of real systems are closed under
complex conjugation; a pair's map from torus points to master points
(GalePair.to_master) is exact on rational common points. The solving tests
draw a fixed sequence of examples (``derandomize``), since their counts rest
on floating-point root finding.
"""

from dataclasses import replace
from fractions import Fraction
from math import prod
from operator import mul

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from galedual.duality import GalePair, dualize_master_to_poly, dualize_poly_to_master
from galedual.errors import (
    CommonComponentError,
    DegenerateDualError,
    DegreeCapError,
    DependentRowsError,
    NoPivotError,
    NotPrimitiveError,
    SeparationError,
)
from galedual.lattice import (
    ExponentMatrix,
    IntMatrix,
    SystemShape,
    WeightBasis,
    kernel_basis,
)
from galedual.polytopes import kouchnirenko_bound
from galedual.ratlinalg import row_space_equal
from galedual.solver import solve_master, solve_sparse, verify_isomorphism
from galedual.systems import MasterSystem, SparseSystem, torus_variable_names


def sparse_system(vectors, rows):
    dim = len(vectors[0])
    shape = SystemShape(len(vectors) - dim, dim - len(rows), len(rows))
    support = IntMatrix.from_rows([list(v) for v in vectors], cols=dim).transpose()
    return SparseSystem(ExponentMatrix(shape, support), rows, torus_variable_names(dim))


def supports(dim, size, reach):
    vector = st.tuples(*[st.integers(-reach, reach)] * dim).filter(any)
    return st.lists(vector, min_size=size, max_size=size, unique=True)


def coefficient_rows(n, k):
    entry = st.sampled_from([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
    return st.lists(st.lists(entry, min_size=k + 1, max_size=k + 1), min_size=n, max_size=n)


def dualized(system):
    """dualize_poly_to_master(system), assumed away where the system has no
    pivot set, its support is not primitive, or its forms are no
    arrangement: a pivot monomial equal to a constant or to a multiple of
    another gives a form without gradient or two proportional forms
    (ROADMAP item 2)."""
    try:
        return dualize_poly_to_master(system)
    except (DegenerateDualError, DependentRowsError, NotPrimitiveError, NoPivotError):
        assume(False)


@st.composite
def dualizable_systems(draw):
    """Sparse systems in 2 or 3 variables that dualize_poly_to_master accepts,
    with the pair it returns."""
    dim = draw(st.integers(2, 3))
    n = draw(st.integers(1, dim))
    vectors = draw(supports(dim, dim + draw(st.integers(1, 2)), 2))
    rows = draw(coefficient_rows(n, len(vectors)))
    try:
        system = sparse_system(vectors, rows)
    except DependentRowsError:
        assume(False)
    return system, dualized(system)


@settings(max_examples=40, deadline=None)
@given(dualizable_systems())
def test_round_trip_keeps_lattice_and_bound(drawn):
    system, pair = drawn
    back = dualize_master_to_poly(pair.master)
    # the master's forms are the z coordinates: compare in witness order
    z_cols = pair.witness.z_support_columns
    z_support = system.support.matrix.submatrix_columns(z_cols)
    assert kernel_basis(back.poly.support.matrix) == kernel_basis(z_support)
    assert kouchnirenko_bound(back.poly.support) == kouchnirenko_bound(system.support)
    z_rows = [[row[0]] + [row[c + 1] for c in z_cols] for row in system.coefficients]
    assert row_space_equal([list(r) for r in back.poly.coefficients], z_rows)


@st.composite
def unimodular2(draw):
    """A 2x2 integer matrix of determinant +-1: a few shears and a swap."""
    m = [[1, 0], [0, 1]]
    for i, c in draw(st.lists(st.tuples(st.integers(0, 1), st.integers(-1, 1)), max_size=3)):
        m[i] = [a + c * b for a, b in zip(m[i], m[1 - i])]
    return m[::-1] if draw(st.booleans()) else m


@settings(max_examples=40, deadline=None)
@given(dualizable_systems(), unimodular2())
def test_torus_side_depends_only_on_the_weight_lattice(drawn, u):
    master = drawn[1].master
    assume(master.shape.num_weights == 2)
    weights = IntMatrix.from_rows(u) @ master.weights.matrix
    moved = MasterSystem(master.arrangement, WeightBasis(master.shape, weights))
    assert dualize_master_to_poly(moved).poly == dualize_master_to_poly(master).poly


def solved(system):
    try:
        return solve_sparse(system)
    except (CommonComponentError, DegreeCapError, SeparationError):
        assume(False)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(supports(2, 4, 2), coefficient_rows(2, 4), unimodular2())
def test_counts_invariant_under_unimodular_change(vectors, rows, u):
    try:
        system = sparse_system(vectors, rows)
    except DependentRowsError:
        assume(False)
    moved = [tuple(sum(u[i][t] * v[t] for t in range(2)) for i in range(2)) for v in vectors]
    bound = kouchnirenko_bound(system.support)
    first = solved(system)
    second = solved(sparse_system(moved, rows))
    assert (first.count, first.total_multiplicity) == (second.count, second.total_multiplicity)
    assert first.total_multiplicity <= bound


def assert_conjugation_closed(solset):
    """Each solution's conjugate is a solution of the same multiplicity."""
    for s in solset.solutions:
        conj = tuple(v.conjugate() for v in s.point)
        def distance(p):
            return max(abs(a - b) for a, b in zip(conj, p.point))

        partner = min(solset.solutions, key=distance)
        assert distance(partner) < 1e-6, f"conjugate of {s.point} missing"
        assert partner.multiplicity == s.multiplicity


@settings(max_examples=40, deadline=None, derandomize=True)
@given(supports(2, 4, 2), coefficient_rows(2, 4))
def test_solution_sets_closed_under_conjugation(vectors, rows):
    try:
        system = sparse_system(vectors, rows)
    except DependentRowsError:
        assume(False)
    pair = dualized(system)
    assert_conjugation_closed(solved(system))
    try:
        master = solve_master(pair.master)
    except (CommonComponentError, DegreeCapError, SeparationError):
        assume(False)
    assert_conjugation_closed(master)


@st.composite
def systems_through_a_point(draw):
    """A sparse system in 2 or 3 variables that vanishes at a rational torus
    point x0, with x0 and the pair dualize_poly_to_master returns: each
    coefficient row's constant is minus the rest of the row at x0."""
    dim = draw(st.integers(2, 3))
    n = draw(st.integers(1, dim))
    vectors = draw(supports(dim, dim + draw(st.integers(1, 2)), 2))
    nonzero = st.integers(-3, 3).filter(bool)
    x0 = tuple(draw(st.builds(Fraction, nonzero, st.integers(1, 3))) for _ in range(dim))
    monomials = [prod(v ** e for v, e in zip(x0, vector)) for vector in vectors]
    rows = [[-sum(map(mul, row, monomials)), *row] for row in draw(coefficient_rows(n, len(vectors) - 1))]
    try:
        system = sparse_system(vectors, rows)
    except DependentRowsError:
        assume(False)
    return x0, dualized(system)


def exact_master_point(pair, x):
    """pair.to_master([x]) and the values of the forms there, checked: each
    form equals its monomial at x and each weighted product is 1, exactly."""
    (y,) = pair.to_master([x])
    assert all(isinstance(v, Fraction) for v in y)
    values = [f.constant + sum(map(mul, f.coeffs, y)) for f in pair.master.arrangement.forms]
    support = pair.poly.support
    assert values == [prod(v ** e for v, e in zip(x, support.exponent(c))) for c in pair.witness.z_support_columns]
    weights = pair.master.weights
    assert all(prod(v ** w for v, w in zip(values, weights.weight(j))) == 1 for j in range(pair.master.shape.num_weights))
    return y, values


@settings(max_examples=40, deadline=None)
@given(systems_through_a_point())
def test_to_master_maps_a_rational_common_point_exactly(drawn):
    """On both dualization directions, and without the essential rows too.
    The torus point of the master-to-poly pair is x = z^C, C its support's
    right inverse and z the forms' values."""
    x0, pair = drawn
    y0, values = exact_master_point(pair, x0)
    stripped = GalePair(pair.poly, pair.master, replace(pair.witness, essential_rows=None))
    assert stripped.to_master([x0]) == [y0]
    back = dualize_master_to_poly(pair.master)
    inverse = back.witness.support_inverse.to_rows()
    x1 = tuple(prod(z ** row[i] for z, row in zip(values, inverse)) for i in range(len(inverse[0])))
    assert exact_master_point(back, x1)[0] == y0


@settings(max_examples=25, deadline=None, derandomize=True)
@given(supports(2, 4, 2), coefficient_rows(2, 4))
def test_verify_without_essential_rows_keeps_the_exact_fields(vectors, rows):
    """The pivots of the rows (1 | form) give the map when the witness
    carries no essential rows; only the distances may move, in their last
    bits."""
    try:
        system = sparse_system(vectors, rows)
    except DependentRowsError:
        assume(False)
    pair = dualized(system)
    stripped = GalePair(pair.poly, pair.master, replace(pair.witness, essential_rows=None))
    try:
        reports = [verify_isomorphism(p) for p in (pair, stripped)]
    except (CommonComponentError, DegreeCapError, SeparationError):
        assume(False)

    def exact(report):
        pairs = sorted((p.poly_index, p.master_index, p.both_real) for p in report.pairs)
        return (pairs, report.unmatched_poly, report.unmatched_master, report.poly_count, report.master_count,
                report.real_consistent)

    assert exact(reports[0]) == exact(reports[1])
