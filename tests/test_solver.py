"""Numeric solving on both sides of the duality, exact elimination underneath."""

import random
from fractions import Fraction
from importlib.resources import files

import pytest

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
)
from galedual.lattice import ExponentMatrix, IntMatrix, SystemShape, WeightBasis
from galedual.polynomials import Poly
from galedual.polytopes import kouchnirenko_bound
from galedual.serialize import load_system
from galedual.solver import (
    SolverConfig,
    solve_bivariate,
    solve_master,
    solve_sparse,
    verify_isomorphism,
)
from galedual.systems import Arrangement, LinearForm, MasterSystem, SparseSystem


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


def test_degree_cap():
    x, y = x_y()
    with pytest.raises(DegreeCapError):
        solve_bivariate(x ** 31 - 1, y - x)
    # the cap is configurable
    sols = solve_bivariate(x ** 31 - 1, y - 1, SolverConfig(degree_cap=40))
    assert sols.count == 31


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
    assert any("off-torus" in s.flags for s in sols.excluded)


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
    # clearing denominators introduces arrangement points; all must be filtered
    assert sols.excluded
    assert all("on-arrangement" in s.flags or "defining-residual" in s.flags
               for s in sols.excluded)
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
    config = SolverConfig(cluster_tol=1e-7, verify_tol=1e-10)
    sols = solve_sparse(worked_sparse(), config)
    assert sols.config is config
    assert sols.count == 17
    assert all(s.residual < 1e-10 for s in sols.solutions)
