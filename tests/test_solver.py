"""Numeric solving on both sides of the duality, exact elimination underneath."""

import random
from fractions import Fraction
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galedual.duality import (
    GalePair,
    dualize_master_to_poly,
    dualize_poly_to_master,
    saturate_weights,
)
from galedual.errors import (
    CommonComponentError,
    DegreeCapError,
    DependentRowsError,
    DimensionCapError,
    SeparationError,
)
from galedual.lattice import ExponentMatrix, IntMatrix, SystemShape, WeightBasis
from galedual.newton import compile_pair, refine
from galedual import polynomials
from galedual.polynomials import Poly, umul
from galedual.polytopes import kouchnirenko_bound
from galedual.roots import ureal_root_count
from galedual.serialize import load_system
from galedual.solver import (
    SolverConfig,
    solve_bivariate,
    solve_master,
    solve_sparse,
    verify_isomorphism,
)
from galedual.systems import (
    Arrangement,
    LinearForm,
    MasterSystem,
    SparseSystem,
    clear_denominators,
    cleared_polynomials,
)


def worked_sparse():
    shape = SystemShape(2, 0, 2)
    support = ExponentMatrix(shape, IntMatrix.from_rows([[4, 3, 4, 1], [-1, 2, 1, 2]]))
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


def second_master():
    shape = SystemShape(2, 0, 2)
    forms = (
        LinearForm(0, (2, -3)),
        LinearForm(-7, (4, 1)),
        LinearForm(1, (1, -3)),
        LinearForm(-2, (1, -7)),
    )
    arrangement = Arrangement(2, forms, ("x", "y"))
    weights = WeightBasis(shape, IntMatrix.from_rows([[2, 3, -2, -1], [1, -1, -3, 3]]))
    return MasterSystem(arrangement, weights)


def x_y():
    return Poly.variable(0, 2), Poly.variable(1, 2)


def assert_conjugation_closed(solutions, tol=1e-6):
    points = [s.point for s in solutions]
    for s in solutions:
        if s.is_real:
            continue
        conj = (s.point[0].conjugate(), s.point[1].conjugate())
        nearest = min(
            max(abs(a - b) for a, b in zip(conj, p)) for p in points
        )
        assert nearest < tol, f"conjugate of {s.point} missing"


# -- solve_bivariate ------------------------------------------------------------


def test_two_transverse_points():
    x, y = x_y()
    sols = solve_bivariate(x ** 2 - 1, y - x)
    assert sols.count == 2
    assert sols.real_count == 2
    assert [tuple(round(c.real) for c in s.point) for s in sols.solutions] == [
        (-1, -1),
        (1, 1),
    ]
    assert all(s.multiplicity == 1 for s in sols.solutions)
    assert all(s.residual < 1e-9 for s in sols.solutions)


def test_double_point_multiplicity():
    x, y = x_y()
    sols = solve_bivariate((x - y) ** 2, x + y - 2)
    assert sols.count == 1
    only = sols.solutions[0]
    assert abs(only.point[0] - 1) < 1e-6 and abs(only.point[1] - 1) < 1e-6
    assert only.multiplicity == 2
    assert sols.total_multiplicity == 2


def test_conjugate_pair_detected():
    x, y = x_y()
    sols = solve_bivariate(x ** 2 + 1, y - x)
    assert sols.count == 2
    assert sols.real_count == 0
    assert_conjugation_closed(sols.solutions)


@pytest.mark.parametrize("k", range(2, 23, 2))
def test_real_count_is_exact_near_the_real_axis(k):
    # the conjugate pair 3 +- 10**(-k/2)*i, whose imaginary parts fall below
    # any fixed threshold from k = 14 on, and two real roots 10**(-k/2) apart
    x, y = x_y()
    near = solve_bivariate(10 ** k * (x - 3) ** 2 + 1, 7 * y - x)
    close = solve_bivariate((2 * 10 ** (k // 2) * (x - 3)) ** 2 - 1, 7 * y - x)
    assert (near.count, near.real_count) == (2, 0)
    assert (close.count, close.real_count) == (2, 2)
    assert all(s.point[0].imag == s.point[1].imag == 0 for s in close.solutions)


def real_and_complex_factors():
    """Distinct rational roots r_i and quadratics a*x**2 + b*x + c with
    b**2 < 4*a*c, which have no real roots."""
    roots = st.lists(st.fractions(-8, 8, max_denominator=4), max_size=5, unique=True)
    quadratic = st.tuples(st.integers(1, 4), st.integers(-9, 9), st.integers(1, 25)).filter(
        lambda q: q[1] ** 2 < 4 * q[0] * q[2])
    return st.tuples(roots, st.lists(quadratic, max_size=3))


@settings(deadline=None, max_examples=150, derandomize=True)
@given(real_and_complex_factors())
def test_real_count_is_the_number_of_real_roots(factors):
    roots, quadratics = factors
    coeffs = [1]
    for r in roots:
        coeffs = umul(coeffs, [-r, 1])
    for a, b, c in quadratics:
        coeffs = umul(coeffs, [c, b, a])
    assert ureal_root_count(coeffs) == len(roots)
    x, y = x_y()
    f = Poly(2, {(i, 0): c for i, c in enumerate(coeffs)})
    if f.degree() > 0:
        assert solve_bivariate(f, 7 * y - x).real_count == len(roots)


def test_constant_equation_has_no_roots():
    x, y = x_y()
    sols = solve_bivariate(Poly.constant(2, 5), x + y)
    assert sols.count == 0
    assert sols.diagnostics


def test_disjoint_vertical_lines():
    x, _ = x_y()
    sols = solve_bivariate(x ** 2 - 1, x ** 2 + x - 6)
    assert sols.count == 0


def test_zero_equation_raises():
    x, y = x_y()
    with pytest.raises(CommonComponentError):
        solve_bivariate(Poly(2), x + y)


def test_shared_curve_raises():
    x, y = x_y()
    shared = x - y
    with pytest.raises(CommonComponentError):
        solve_bivariate(shared * (x + y + 1), shared * (x + 2 * y + 3))
    with pytest.raises(CommonComponentError):
        solve_bivariate(x + y - 1, (x + y - 1) * (x - 3))


def test_shared_vertical_line_raises():
    x, _ = x_y()
    # both equations ignore y and share the root x = 1
    with pytest.raises(CommonComponentError):
        solve_bivariate(x ** 2 - 1, x ** 2 + x - 2)


def test_unseparated_fiber_is_sheared():
    # both common zeros lie on x = 1, so no first subresultant separates them
    # there; the shear x -> x - y does
    x, y = x_y()
    sols = solve_bivariate(x - 1, y ** 2 - 4)
    assert [tuple(round(c.real) for c in s.point) for s in sols.solutions] == [(1, -2), (1, 2)]
    assert sols.diagnostics == ("sheared x -> x - 1*y to separate the solutions",)


def test_excluded_zero_sharing_a_fiber_is_not_divided_out_blindly():
    # (1, 0) is on the excluded line y = 0 and (1, 2) is a solution over the
    # same x: dividing x - 1 out of the resultant would lose it
    x, y = x_y()
    sols = solve_bivariate(x - 1, y * (y - 2) + (x - 1) * (y + 3), exclude=[(0, 0, 1)])
    assert [tuple(round(c.real) for c in s.point) for s in sols.solutions] == [(1, 2)]
    assert sols.diagnostics == ("sheared x -> x - 1*y to separate the solutions",)


def test_zero_at_a_crossing_of_excluded_lines_sharing_a_fiber():
    # (0, 0) is where the excluded lines y = 0 and y = x cross, and (0, 2) is
    # a solution over the same x: the crossing does not certify the fiber
    x, y = x_y()
    sols = solve_bivariate(x, y * (y - 2) + x * (y + 3), exclude=[(0, 0, 1), (0, -1, 1)])
    assert [tuple(round(c.real) for c in s.point) for s in sols.solutions] == [(0, 2)]
    assert sols.diagnostics == ("sheared x -> x - 1*y to separate the solutions",)


def test_non_curvilinear_zero_cannot_be_separated():
    # every fiber through the origin meets both curves to order two
    x, y = x_y()
    with pytest.raises(SeparationError):
        solve_bivariate(x ** 2, y ** 2)


def test_degree_cap():
    x, y = x_y()
    with pytest.raises(DegreeCapError):
        solve_bivariate(x ** 31 - 1, y - x)


def test_dimension_caps():
    with pytest.raises(DimensionCapError):
        solve_bivariate(Poly.variable(0, 3), Poly.variable(1, 3))

    shape = SystemShape(1, 1, 2)
    support = ExponentMatrix(
        shape, IntMatrix.from_rows([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    )
    system = SparseSystem(
        support, ((1, 1, 2, 3, 4), (2, 1, 1, 1, 1)), ("x", "y", "z")
    )
    with pytest.raises(DimensionCapError):
        solve_sparse(system)

    tall_shape = SystemShape(1, 2, 1)
    forms = (
        LinearForm(0, (1, 0, 0)),
        LinearForm(0, (0, 1, 0)),
        LinearForm(0, (0, 0, 1)),
        LinearForm(-1, (1, 1, 1)),
    )
    master = MasterSystem(
        Arrangement(3, forms, ("y1", "y2", "y3")),
        WeightBasis(tall_shape, IntMatrix.from_rows([[1, 1, 1, -3]])),
    )
    with pytest.raises(DimensionCapError):
        solve_master(master)


def test_deterministic_output():
    first = solve_sparse(worked_sparse())
    second = solve_sparse(worked_sparse())
    assert [s.point for s in first.solutions] == [s.point for s in second.solutions]
    assert first.solutions == second.solutions


# -- batched Newton refinement ------------------------------------------------------


def _eval_terms(terms, x, y):
    total = 0j
    for i, j, c in terms:
        total += c * x ** i * y ** j
    return total


def _backward_error(terms, x, y):
    """|p| / sum|terms of p| at (x, y), summed in term order (|p| where every term is 0)."""
    size = 0.0
    for i, j, c in terms:
        size += abs(c * x ** i * y ** j)
    return abs(_eval_terms(terms, x, y)) / (size if size > 0 else 1)


def scalar_newton(f, g, start, config, max_iter):
    """Newton on the pair one start at a time in Python complex arithmetic, at
    most max_iter steps: the reference for refine. Returns (point, residual,
    converged)."""
    polys = [[(m[0], m[1], complex(c)) for m, c in p.terms.items()]
             for p in (f, f.derivative(0), f.derivative(1), g, g.derivative(0), g.derivative(1))]
    fp, fxp, fyp, gp, gxp, gyp = polys
    x, y = start
    best = (x, y)
    best_res = max(_backward_error(fp, x, y), _backward_error(gp, x, y))
    for _ in range(max_iter):
        fv, gv = _eval_terms(fp, x, y), _eval_terms(gp, x, y)
        res = max(_backward_error(fp, x, y), _backward_error(gp, x, y))
        if res < best_res:
            best, best_res = (x, y), res
        if res < config.verify_tol * 1e-3:
            break
        a, b = _eval_terms(fxp, x, y), _eval_terms(fyp, x, y)
        c, d = _eval_terms(gxp, x, y), _eval_terms(gyp, x, y)
        det = a * d - b * c
        if abs(det) < 1e-300:
            break
        dx = (d * fv - b * gv) / det
        dy = (a * gv - c * fv) / det
        x, y = x - dx, y - dy
        if abs(dx) + abs(dy) < 1e-16 * (1 + abs(x) + abs(y)):
            res = max(_backward_error(fp, x, y), _backward_error(gp, x, y))
            if res < best_res:
                best, best_res = (x, y), res
            break
    return best, best_res, best_res < config.verify_tol


def seeded_starts(count, seed, radius=3.0):
    rng = random.Random(seed)
    return np.array(
        [[complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius)) for _ in range(count)]
         for _ in range(2)]
    )


def worked_pair():
    f, g = cleared_polynomials(worked_sparse())
    return f.scale(1 / f.max_abs_coefficient()), g.scale(1 / g.max_abs_coefficient())


# whether CPython rounds a complex product's parts unfused, as refine does:
# with a fused multiply-add the real part below keeps its 2**-60 term
UNFUSED = (complex(1 + 2 ** -30, 1) * complex(1 + 2 ** -30, 1)).real == 2 ** -29


@pytest.mark.skipif(not UNFUSED, reason="this CPython fuses multiply-adds in complex arithmetic")
@pytest.mark.parametrize("max_iter", [0, 12, 50])
def test_refinement_matches_scalar_newton(monkeypatch, max_iter):
    # a cap of 12 stops about half the starts short of convergence
    monkeypatch.setattr("galedual.newton._MAX_ITER", max_iter)
    f, g = worked_pair()
    config = SolverConfig()
    starts = seeded_starts(300, 5)
    points, residuals, converged = refine(compile_pair(f, g), starts, config)
    for k in range(300):
        start = tuple(complex(v) for v in starts[:, k])
        point, residual, ok = scalar_newton(f, g, start, config, max_iter)
        assert (complex(points[0, k]), complex(points[1, k])) == point
        assert residuals[k] == residual
        assert converged[k] == ok


def test_refinement_is_independent_of_batch(monkeypatch):
    # a window of 40 starts: finished slots are refilled many times and the
    # window shrinks at the end; every start must come out bit-identical
    monkeypatch.setattr("galedual.newton._BLOCK_ENTRIES", 40 * 15)
    f, g = worked_pair()
    compiled = compile_pair(f, g)
    config = SolverConfig()
    starts = seeded_starts(300, 9)
    together = refine(compiled, starts, config)
    alone = [refine(compiled, starts[:, k:k + 1], config) for k in range(300)]
    order = np.random.default_rng(9).permutation(300)
    permuted = refine(compiled, starts[:, order], config)
    for k in range(300):
        expected = (together[0][:, k].tobytes(), together[1][k].tobytes(), bool(together[2][k]))
        assert (alone[k][0][:, 0].tobytes(), alone[k][1][0].tobytes(), bool(alone[k][2][0])) == expected
    for pos, k in enumerate(order):
        expected = (together[0][:, k].tobytes(), together[1][k].tobytes(), bool(together[2][k]))
        assert (permuted[0][:, pos].tobytes(), permuted[1][pos].tobytes(), bool(permuted[2][pos])) == expected


def test_overflowing_starts_count_as_diverged():
    # complex powers of the last two starts overflow: a non-finite iterate
    # counts as diverged, and refine raises nothing
    x, y = x_y()
    f = 2 * x ** 9 * y ** 2 + 4 * x ** 5 * y - 3
    g = 2 * x ** 10 * y ** 5 - 3 * x ** 6 * y ** 12 + x + 2 * x ** 11 * y ** 7
    sols = solve_bivariate(f, g)
    assert sols.count > 0
    assert all(s.residual < sols.config.verify_tol for s in sols.solutions)
    starts = np.array([sols.solutions[0].point, (1e40, 1e40), (1e300j, 1.0)]).T
    points, residuals, converged = refine(compile_pair(f, g), starts, SolverConfig())
    assert converged.tolist() == [True, False, False]
    assert residuals[0] < sols.config.verify_tol
    assert np.isinf(residuals[1:]).all()


# -- solve_sparse ----------------------------------------------------------------


def test_sparse_filters_off_torus_roots():
    # x^2 - x and y - x vanish together at (0,0) and (1,1); only the latter
    # lives on the torus
    shape = SystemShape(1, 0, 2)
    support = ExponentMatrix(shape, IntMatrix.from_rows([[2, 1, 0], [0, 0, 1]]))
    system = SparseSystem(
        support, ((0, 1, -1, 0), (0, 0, -1, 1)), ("x", "y")
    )
    sols = solve_sparse(system)
    assert sols.count == 1
    kept = sols.solutions[0]
    assert abs(kept.point[0] - 1) < 1e-9 and abs(kept.point[1] - 1) < 1e-9
    assert kept.location == "torus"
    # the origin is divided out of the resultant before any root is found
    assert not sols.excluded
    f, g = cleared_polynomials(system)
    assert [tuple(round(c.real) for c in s.point) for s in solve_bivariate(f, g).solutions] == [
        (0, 0),
        (1, 1),
    ]


def test_sparse_worked_example_counts():
    sols = solve_sparse(worked_sparse())
    assert sols.count == 17
    assert sols.real_count == 3
    assert sols.total_multiplicity == 17
    assert all(s.residual < 1e-9 for s in sols.solutions)
    assert all(s.location == "torus" for s in sols.solutions)
    assert_conjugation_closed(sols.solutions)


def test_master_worked_example_counts():
    sols = solve_master(worked_master())
    assert sols.count == 17
    assert sols.real_count == 3
    assert all(s.residual < 1e-9 for s in sols.solutions)
    assert all(s.location == "complement" for s in sols.solutions)
    # clearing denominators adds the common zero (0, 0), where the lines s = 0
    # and t = 0 cross; it is divided out of the resultant, never a candidate
    master = worked_master()
    f, g = (clear_denominators(master, j).expand_difference(master.arrangement) for j in range(2))
    assert f.eval_exact((0, 0)) == g.eval_exact((0, 0)) == 0
    assert not sols.excluded
    assert_conjugation_closed(sols.solutions)


def test_second_master_counts():
    sols = solve_master(second_master())
    assert sols.count == 17
    assert_conjugation_closed(sols.solutions)


@pytest.mark.parametrize("fixture", ["example22_master.json", "example3_second.json"])
def test_master_fixtures_solve_without_determinants(monkeypatch, fixture):
    # resultants come from integer subresultants, never from a determinant
    def refuse(*_):
        raise AssertionError("resultant path took a determinant")

    monkeypatch.setattr("galedual.polynomials.mat_det", refuse)
    monkeypatch.setattr("galedual.polynomials.det_bareiss_int", refuse)
    sols = solve_master(load_system(str(files("galedual") / "fixtures" / fixture)))
    assert sols.count == 17


@pytest.mark.parametrize("fixture", ["example22_sparse.json", "example22_master.json", "example3_second.json"])
def test_fixtures_eliminate_once_per_shear(monkeypatch, fixture):
    # excluded lines are handled by substitution, never by another chain
    calls = []
    chain_values = polynomials._chain_values
    monkeypatch.setattr(polynomials, "_chain_values", lambda *args: calls.append(1) or chain_values(*args))
    system = load_system(str(files("galedual") / "fixtures" / fixture))
    sols = (solve_sparse if isinstance(system, SparseSystem) else solve_master)(system)
    sheared = [int(d.split(" - ")[1].split("*")[0]) for d in sols.diagnostics if d.startswith("sheared")]
    assert sols.count == 17
    assert len(calls) == 1 + sum(sheared)


def test_random_counts_within_bound():
    rng = random.Random(71)
    solved = 0
    while solved < 10:
        cols = set()
        while len(cols) < 4:
            v = (rng.randint(-3, 3), rng.randint(-3, 3))
            if v != (0, 0):
                cols.add(v)
        support_rows = [[c[i] for c in sorted(cols)] for i in range(2)]
        shape = SystemShape(2, 0, 2)
        support = ExponentMatrix(shape, IntMatrix.from_rows(support_rows))
        coefficients = [
            [rng.randint(-5, 5) for _ in range(5)] for _ in range(2)
        ]
        try:
            system = SparseSystem(support, coefficients, ("x", "y"))
            bound = kouchnirenko_bound(support)
            sols = solve_sparse(system)
        except (ValueError, CommonComponentError, DegreeCapError, DependentRowsError):
            continue
        solved += 1
        assert sols.total_multiplicity <= bound
        assert_conjugation_closed(sols.solutions)


def doubled_master():
    master = worked_master()
    return MasterSystem(
        master.arrangement,
        WeightBasis(master.shape, IntMatrix.from_rows([[-2, 6, 4, -4], [3, -1, 1, -3]])),
    )


def fixture(name):
    return load_system(str(files("galedual") / "fixtures" / name))


@pytest.mark.parametrize("name", ["example22_sparse.json", "example22_master.json",
                                  "example3_second.json", "doubled"])
def test_multiplicities_exact_and_within_bound(name):
    system = doubled_master() if name == "doubled" else fixture(name)
    if isinstance(system, SparseSystem):
        sols, support = solve_sparse(system), system.support
    else:
        sols, support = solve_master(system), dualize_master_to_poly(
            saturate_weights(system)).poly.support
    # a weight lattice of index 2 doubles the complement's solutions
    index = 2 if name == "doubled" else 1
    assert sols.count == 17 * index
    assert not any("ambiguous" in flag for s in sols.solutions for flag in s.flags)
    assert all(s.multiplicity >= 1 for s in sols.solutions)
    assert sols.total_multiplicity <= index * kouchnirenko_bound(support)


def test_regression_torus_side_of_a_random_system():
    # one of the bench's random sparse systems (bound 21); fiber pairing used to
    # leave 214 candidates with an ambiguous multiplicity here
    shape = SystemShape(2, 0, 2)
    support = ExponentMatrix(shape, IntMatrix.from_rows([[-4, 0, 3, -2], [3, -3, -4, 1]]))
    system = SparseSystem(support, ((-3, 5, -3, 5, 1), (5, 2, -1, 2, 1)), ("x", "y"))
    sols = solve_sparse(system)
    assert kouchnirenko_bound(support) == 21
    assert sols.count == sols.total_multiplicity == 21
    assert not sols.excluded and not sols.diagnostics
    assert all(s.residual < 1e-9 for s in sols.solutions)
    assert_conjugation_closed(sols.solutions)


def test_regression_complement_point_far_out():
    # one of the bench's random masters (bound 15): its point near
    # (-1816, -907) has |f| far above verify_tol at every float point near
    # it, so Newton's absolute residual could neither accept it nor stop
    forms = (
        LinearForm(3, (1, -2)),
        LinearForm(-3, (-3, -1)),
        LinearForm(0, (1, 0)),
        LinearForm(0, (0, 1)),
    )
    master = MasterSystem(
        Arrangement(2, forms, ("s", "t")),
        WeightBasis(SystemShape(2, 0, 2), IntMatrix.from_rows([[2, -1, -1, 3], [1, 0, 3, -3]])),
    )
    report = verify_isomorphism(dualize_master_to_poly(master))
    assert report.poly_count == report.master_count == 15
    assert report.all_pass
    assert max(abs(s.point[0]) for s in report.master_solutions.solutions) > 1000


# -- isomorphism verification -------------------------------------------------------


def test_verify_isomorphism_worked_pair():
    pair = dualize_poly_to_master(worked_sparse())
    report = verify_isomorphism(pair)
    assert report.poly_count == 17
    assert report.master_count == 17
    assert report.bijective
    assert report.real_consistent
    assert report.all_pass
    assert len(report.pairs) == 17
    assert report.max_distance < 1e-6
    assert sum(1 for p in report.pairs if p.both_real) == 3


def test_verify_isomorphism_master_direction():
    pair = dualize_master_to_poly(worked_master())
    report = verify_isomorphism(pair)
    assert report.all_pass
    assert report.poly_count == report.master_count == 17


def test_verify_reports_count_mismatch_for_index_two_weights():
    master = worked_master()
    doubled = MasterSystem(
        master.arrangement,
        WeightBasis(
            master.shape,
            IntMatrix.from_rows([[-2, 6, 4, -4], [3, -1, 1, -3]]),
        ),
    )
    base = dualize_master_to_poly(saturate_weights(doubled))
    report = verify_isomorphism(GalePair(base.poly, doubled, base.witness))
    assert report.poly_count == 17
    assert report.master_count == 34
    assert not report.bijective
    assert report.unmatched_master


def test_solver_config_plumbs_through():
    config = SolverConfig(verify_tol=1e-10)
    sols = solve_sparse(worked_sparse(), config)
    assert sols.config is config
    assert sols.count == 17
    assert all(s.residual < 1e-10 for s in sols.solutions)
