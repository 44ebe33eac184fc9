"""Numeric solving on both sides of the duality, exact elimination underneath."""

import math
import random
from fractions import Fraction
from importlib.resources import files

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bivariate import Q, ints
from galedual.duality import (
    GalePair,
    dualize_master_to_poly,
    dualize_poly_to_master,
    saturate_weights,
)
from galedual.errors import (
    CommonComponentError,
    ConvergenceError,
    DegreeCapError,
    DependentRowsError,
    DimensionCapError,
    SeparationError,
)
from galedual.lattice import ExponentMatrix, IntMatrix, SystemShape, WeightBasis
from galedual.newton import compile_pair, refine
from galedual import polynomials, roots, solver
from galedual.polynomials import IntPoly, umul, usquarefree_int
from galedual.polytopes import kouchnirenko_bound
from galedual.roots import polynomial_roots, real_root_count, ureal_root_count
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
    return Q({(1, 0): 1}), Q({(0, 1): 1})


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
    sols = solve_bivariate(*ints(x ** 2 - 1, y - x))
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
    sols = solve_bivariate(*ints((x - y) ** 2, x + y - 2))
    assert sols.count == 1
    only = sols.solutions[0]
    assert abs(only.point[0] - 1) < 1e-6 and abs(only.point[1] - 1) < 1e-6
    assert only.multiplicity == 2
    assert sols.total_multiplicity == 2


def test_conjugate_pair_detected():
    x, y = x_y()
    sols = solve_bivariate(*ints(x ** 2 + 1, y - x))
    assert sols.count == 2
    assert sols.real_count == 0
    assert_conjugation_closed(sols.solutions)


@pytest.mark.parametrize("k", range(2, 23, 2))
def test_real_count_is_exact_near_the_real_axis(k):
    # the conjugate pair 3 +- 10**(-k/2)*i, whose imaginary parts fall below
    # any fixed threshold from k = 14 on, and two real roots 10**(-k/2) apart
    x, y = x_y()
    near = solve_bivariate(*ints(10 ** k * (x - 3) ** 2 + 1, 7 * y - x))
    close = solve_bivariate(*ints((2 * 10 ** (k // 2) * (x - 3)) ** 2 - 1, 7 * y - x))
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
        coeffs = umul(coeffs, [-r.numerator, r.denominator])
    for a, b, c in quadratics:
        coeffs = umul(coeffs, [c, b, a])
    assert ureal_root_count(coeffs) == len(roots)
    x, y = x_y()
    f = IntPoly({(i, 0): c for i, c in enumerate(coeffs)})
    if f.degree() > 0:
        assert solve_bivariate(f, (7 * y - x).int()).real_count == len(roots)


# -- real counts from inclusion disks, Sturm as the reference -------------------


def tiers(monkeypatch):
    """Record which of real_root_count's exact tier and Sturm fallback run."""
    used = []
    exact, sturm = roots._exact_magnitude, roots.ureal_root_count
    monkeypatch.setattr(roots, "_exact_magnitude", lambda *args: used.append("exact") or exact(*args))
    monkeypatch.setattr(roots, "ureal_root_count", lambda coeffs: used.append("sturm") or sturm(coeffs))
    return used


def disk_count(coeffs):
    return real_root_count(coeffs, polynomial_roots(coeffs))


@settings(deadline=None, max_examples=150, derandomize=True)
@given(st.lists(st.integers(-60, 60), min_size=2, max_size=14).filter(lambda c: c[-1]))
def test_disk_count_matches_sturm_on_squarefree_parts(coeffs):
    squarefree = [1]
    for factor, _ in usquarefree_int(coeffs):
        squarefree = umul(squarefree, factor)
    assert disk_count(squarefree) == ureal_root_count(squarefree)


@pytest.mark.parametrize("k", range(2, 23, 2))
def test_disk_count_near_the_real_axis(k):
    # 3 +- 10**(-k/2)*i and 3 +- 10**(-k/2)/2, as in the solver test above,
    # next to a real root and a conjugate pair far from them
    near = umul([9 * 10 ** k + 1, -6 * 10 ** k, 10 ** k], [5, 1, 1])
    close = umul([36 * 10 ** k - 1, -24 * 10 ** k, 4 * 10 ** k], [7, 2])
    assert disk_count(near) == ureal_root_count(near) == 0
    assert disk_count(close) == ureal_root_count(close) == 3


def moved_wilkinson():
    """Wilkinson's roots moved to j + 1/b, j = 1, ..., 20, b = 2**60 + 1."""
    b = 2 ** 60 + 1
    coeffs = [1]
    for j in range(1, 21):
        coeffs = umul(coeffs, [-(b * j + 1), b])
    return coeffs


def test_large_coefficients_take_the_exact_tier(monkeypatch):
    # floating-point evaluation cancels far beyond its rounding bound at
    # 1264-bit coefficients, exact values do not
    coeffs = moved_wilkinson()
    used = tiers(monkeypatch)
    assert disk_count(coeffs) == 20
    assert "exact" in used and "sturm" not in used


def test_tight_real_cluster_falls_back_to_sturm(monkeypatch):
    # roots 1 and 1 + 10**-15, a few floats apart, are resolved on the
    # polynomial recentred at them; 1 and 1 + 10**-17 round to the same
    # float, so their disks coincide and Sturm decides
    scale = 10 ** 15
    coeffs = umul([-scale, scale], [-scale - 1, scale])
    assert disk_count(coeffs) == 2
    scale = 10 ** 17
    coeffs = umul([-scale, scale], [-scale - 1, scale])
    used = tiers(monkeypatch)
    assert disk_count(coeffs) == 2
    assert used[-1] == "sturm"


# a degree-22 resultant factor of the benchmark's sparse system sparse-b19-2
# (tests/inputs): 103-bit coefficients, and four roots 1e-4 apart around 8
CLUSTER_FACTOR = [
    5070602400912917605986812821504, 6021398646168166236791070785536,
    3014522848994858971697291814289, 757781066233194384134612189184,
    89045938791923870245915066368, 52480315805508793518134525952,
    -99293140688633151661955678208, -353461623592767822922048162816,
    24946637240882276009246745088, 715007851394052742796884448576,
    442862646631308674535609370848, -409301299553520927769079126452,
    -560086965599791727503569349746, -170847100856308677469130494753,
    29723516981610018959528379484, 17676633665122286233539321270,
    -1505977909758627764240402866, -654166572487270223720053841,
    107261814120045355183208306, -4528451689077322803995473, 4512673855872,
    61987278240, 387420489,
]


def test_cluster_restarts_on_the_recentred_polynomial(monkeypatch):
    # from the companion eigenvalues, the cluster is a square turned by 45
    # degrees; exact Newton ratios took 58 passes and 188 evaluations there
    calls = {"float": 0, "exact": 0}
    horner, exact = roots._horner, roots._horner_exact

    def count(kind, fn):
        return lambda *args: calls.__setitem__(kind, calls[kind] + 1) or fn(*args)

    monkeypatch.setattr(roots, "_horner", count("float", horner))
    monkeypatch.setattr(roots, "_horner_exact", count("exact", exact))
    z = polynomial_roots(CLUSTER_FACTOR)
    assert calls["float"] <= 10 and calls["exact"] <= 10
    reference = mpmath.polyroots(CLUSTER_FACTOR[::-1], maxsteps=200, extraprec=600)
    assert len(z) == len(reference) == 22
    for r in map(complex, reference):
        assert np.abs(z - r).min() <= 1e-12 * abs(r)
    assert sum(abs(v - 8) < 1e-3 for v in z) == 4
    assert real_root_count(CLUSTER_FACTOR, z) == ureal_root_count(CLUSTER_FACTOR)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.integers(2, 5), st.integers(8, 40), st.fractions(16, 64, max_denominator=8), st.booleans(),
       st.lists(st.integers(-9, 9), min_size=1, max_size=7).filter(lambda c: c[-1]))
def test_planted_clusters_are_found(k, j, centre, negative, factor):
    # k roots 2**-j apart, times a factor whose roots lie within 10 of 0
    centre = -centre if negative else centre
    planted = [centre + Fraction(i, 2 ** j) for i in range(k)]
    coeffs = factor
    for r in planted:
        coeffs = umul(coeffs, [-r.numerator, r.denominator])
    squarefree = [1]
    for part, _ in usquarefree_int(coeffs):
        squarefree = umul(squarefree, part)
    z = polynomial_roots(squarefree)
    for r in planted:
        assert np.abs(z - float(r)).min() <= 2.0 ** -30 * abs(r)
    assert real_root_count(squarefree, z) == ureal_root_count(squarefree)


def test_roots_that_never_settle_raise(monkeypatch):
    # the moved Wilkinson roots need a few passes with exact ratios
    monkeypatch.setattr(roots, "_ABERTH_STEPS", 1)
    with pytest.raises(ConvergenceError, match="after 1 Aberth passes"):
        polynomial_roots(moved_wilkinson())


def test_roots_far_inside_the_unit_circle_are_relatively_accurate():
    # a pair of modulus sqrt(5 / 2**190) = 5.6e-29 next to roots near 1e-30
    # and 4e29; an absolute stop test left it at 4.3e-27
    coeffs = umul([5, 1, 2 ** 190 + 1], [1, -(2 ** 100), 3])
    z = polynomial_roots(coeffs)
    with mpmath.workdps(100):
        reference = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=800)
    assert len(z) == len(reference) == 4
    for r in map(complex, reference):
        assert np.abs(z - r).min() <= 2.0 ** -30 * abs(r)
    assert real_root_count(coeffs, z) == ureal_root_count(coeffs) == 2


def test_small_roots_beside_far_ones_are_not_zero():
    # the eigenvalue starts of the three smallest roots coincide at 0, and
    # they restart from the lowest terms at a scale taken from those
    coeffs = umul(umul([5, 1, 2 ** 190 + 1], [1, -(2 ** 100), 3]), [-(2 ** 200) - 7, 2 ** 200 + 3])
    z = polynomial_roots(coeffs)
    with mpmath.workdps(100):
        reference = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=1000)
    assert len(z) == len(reference) == 5
    for r in map(complex, reference):
        assert np.abs(z - r).min() <= roots._RTOL * abs(r)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=9).filter(any),
       st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=9), st.booleans(),
       st.integers(0, 3), st.integers(0, 2))
@example([1.0], [0.0], False, 2, 0)
def test_companion_roots_are_np_roots_bit_for_bit(real, imag, complex_, low, high):
    # zero constants become roots at 0 and leading zeros are dropped, as np.roots
    # does; a companion matrix that is not finite fails in both alike
    def outcome(roots_of):
        try:
            with np.errstate(all="ignore"):
                return roots_of().tobytes()
        except np.linalg.LinAlgError as exc:
            return str(exc)

    asc = np.array(real, dtype=complex) + 1j * np.resize(imag, len(real)) if complex_ else np.array(real)
    asc = np.concatenate([np.zeros(low, dtype=asc.dtype), asc, np.zeros(high, dtype=asc.dtype)])
    assert outcome(lambda: roots._companion_roots(asc)) == outcome(lambda: np.roots(asc[::-1]).astype(complex))


# -- float evaluation from power tables, against exact values ----------------------


def exact_scaled_value(ints, scale, z):
    """p(z) / scale inside the unit circle and p(z) / (scale * z**n) beyond
    it, as _horner scales its value, in Fractions (real, imaginary)."""
    n = len(ints) - 1
    tr, ti = roots._value_exact(ints, z)  # d**n * p(z)
    a, b, d = roots._dyadic(z)
    if abs(z) <= 1:
        return Fraction(tr, scale * d ** n), Fraction(ti, scale * d ** n)
    gr, gi = 1, 0  # (a + b*i)**n = d**n * z**n
    for _ in range(n):
        gr, gi = gr * a - gi * b, gr * b + gi * a
    norm = scale * (gr * gr + gi * gi)
    return Fraction(tr * gr + ti * gi, norm), Fraction(ti * gr - tr * gi, norm)


def fraction_values(ints, z):
    """d**n * p(z) and d**n * p'(z) at the dyadic z = (a + b*i)/d, summed term
    by term in Fractions, as (real, imaginary) pairs."""
    x, y = Fraction(z.real), Fraction(z.imag)
    scale = max(x.denominator, y.denominator) ** (len(ints) - 1)

    def value(coeffs):
        re = im = Fraction(0)
        pr, pi = Fraction(1), Fraction(0)  # z**k
        for c in coeffs:
            re, im = re + c * pr, im + c * pi
            pr, pi = pr * x - pi * y, pr * y + pi * x
        return re * scale, im * scale

    return value(ints), value([k * c for k, c in enumerate(ints)][1:])


def dyadic_points():
    part = st.builds(lambda k, j: k / 2 ** j, st.integers(-(2 ** 10), 2 ** 10), st.integers(0, 16))
    return st.lists(st.builds(complex, part, part), min_size=1, max_size=6)


def coefficient_stacks():
    """1 to 3 rows of n + 1 integers of magnitude up to 2**b, n from 1 to 40
    and b from 4 to 400."""
    return st.tuples(st.integers(1, 3), st.integers(1, 40), st.integers(4, 400)).flatmap(
        lambda s: st.lists(st.lists(st.integers(-(2 ** s[2]), 2 ** s[2]), min_size=s[1] + 1, max_size=s[1] + 1),
                           min_size=s[0], max_size=s[0]))


@settings(deadline=None, max_examples=200, derandomize=True)
@given(coefficient_stacks(), dyadic_points())
@example([[3, -(2 ** 300), 5, 2 ** 300 - 1]], [0.5 + 0.25j, -3 + 0.5j, 0j, 1 + 0j, 2.0 ** -16])
@example([[1] * 41, [(-1) ** k * 7 ** k for k in range(41)]], [1.0009765625 + 0j, -0.99951171875 + 0j])
def test_power_table_values_lie_within_the_rounding_bound(rows, points):
    # the stop test's radius in _ratios: 4*n*_EPS*B, half of what
    # real_root_count allows
    n = len(rows[0]) - 1
    flat = [c for row in rows for c in row]
    scale = max(map(abs, flat)) or 1
    with np.errstate(all="ignore"):  # 1/z at z = 0, as in the callers
        p, _, bound = roots._horner(roots._floats(flat).reshape(len(rows), n + 1), np.array(points))
    for row, values, bounds in zip(rows, p, bound):
        for v, b, point in zip(values, bounds, points):
            er, ei = exact_scaled_value(row, scale, point)
            limit = 4 * n * Fraction(roots._EPS) * Fraction(b)
            assert (Fraction(v.real) - er) ** 2 + (Fraction(v.imag) - ei) ** 2 <= limit ** 2
            assert roots._horner_exact(row, point) == fraction_values(row, point)


def test_quotient_whose_float_denominator_cancels_is_evaluated_exactly():
    # 2**60 + 1 - 2**60*x at x = 1 is 1, but 0 in floats
    values = roots.rational_values([1, 0], [2 ** 60 + 1, -(2 ** 60)], np.array([1 + 0j, 2 + 0j]))
    assert values[0] == 1
    assert values[1] == pytest.approx(-1 / (2 ** 60 - 1), rel=2.0 ** -30)


@settings(deadline=None, max_examples=100, derandomize=True)
@given(coefficient_stacks(), dyadic_points(), st.data())
def test_power_table_values_do_not_depend_on_the_other_points(rows, points, data):
    asc = roots._floats([c for row in rows for c in row]).reshape(len(rows), -1)
    z = np.array(points)
    keep = data.draw(st.lists(st.sampled_from(range(len(z))), min_size=1, unique=True))
    with np.errstate(all="ignore"):
        whole, part, single = roots._horner(asc, z), roots._horner(asc, z[keep]), roots._horner(asc[0], z[keep[:1]])
    for w, p, s in zip(whole, part, single):
        assert w[..., keep].tobytes() == p.tobytes()
        assert w[0, keep[:1]].tobytes() == s.tobytes()


@pytest.mark.parametrize("fixture", ["example22_sparse.json", "example22_master.json", "example3_second.json"])
def test_fixtures_never_reach_the_sturm_fallback(monkeypatch, fixture):
    used = tiers(monkeypatch)
    system = load_system(str(files("galedual") / "fixtures" / fixture))
    sols = (solve_sparse if isinstance(system, SparseSystem) else solve_master)(system)
    assert sols.count == 17
    assert "sturm" not in used


def test_constant_equation_has_no_roots():
    x, y = x_y()
    sols = solve_bivariate(IntPoly({(0, 0): 5}), (x + y).int())
    assert sols.count == 0
    assert sols.diagnostics


def test_disjoint_vertical_lines():
    x, _ = x_y()
    sols = solve_bivariate(*ints(x ** 2 - 1, x ** 2 + x - 6))
    assert sols.count == 0


def test_zero_equation_raises():
    x, y = x_y()
    with pytest.raises(CommonComponentError):
        solve_bivariate(IntPoly({}), (x + y).int())


def test_shared_curve_raises():
    x, y = x_y()
    shared = x - y
    with pytest.raises(CommonComponentError):
        solve_bivariate(*ints(shared * (x + y + 1), shared * (x + 2 * y + 3)))
    with pytest.raises(CommonComponentError):
        solve_bivariate(*ints(x + y - 1, (x + y - 1) * (x - 3)))


def test_shared_vertical_line_raises():
    x, _ = x_y()
    # both equations ignore y and share the root x = 1
    with pytest.raises(CommonComponentError):
        solve_bivariate(*ints(x ** 2 - 1, x ** 2 + x - 2))


def test_unseparated_fiber_is_sheared():
    # both common zeros lie on x = 1, so no first subresultant separates them
    # there; the shear x -> x - y does
    x, y = x_y()
    sols = solve_bivariate(*ints(x - 1, y ** 2 - 4))
    assert [tuple(round(c.real) for c in s.point) for s in sols.solutions] == [(1, -2), (1, 2)]
    assert sols.diagnostics == ("sheared x -> x - 1*y to separate the solutions",)


def test_excluded_zero_sharing_a_fiber_is_not_divided_out_blindly():
    # (1, 0) is on the excluded line y = 0 and (1, 2) is a solution over the
    # same x: dividing x - 1 out of the resultant would lose it
    x, y = x_y()
    sols = solve_bivariate(*ints(x - 1, y * (y - 2) + (x - 1) * (y + 3)), exclude=[(0, 0, 1)])
    assert [tuple(round(c.real) for c in s.point) for s in sols.solutions] == [(1, 2)]
    assert sols.diagnostics == ("sheared x -> x - 1*y to separate the solutions",)


def test_zero_at_a_crossing_of_excluded_lines_sharing_a_fiber():
    # (0, 0) is where the excluded lines y = 0 and y = x cross, and (0, 2) is
    # a solution over the same x: the crossing does not certify the fiber
    x, y = x_y()
    sols = solve_bivariate(*ints(x, y * (y - 2) + x * (y + 3)), exclude=[(0, 0, 1), (0, -1, 1)])
    assert [tuple(round(c.real) for c in s.point) for s in sols.solutions] == [(0, 2)]
    assert sols.diagnostics == ("sheared x -> x - 1*y to separate the solutions",)


def reference_separated_factors(res, s11, rows, lines):
    """solver._separated_factors by gcds alone, its reference: each line's
    excluded part is the gcd of the pair's restrictions to it (the line
    itself if vertical), and each squarefree factor of the whole resultant
    loses its gcd with each part, each fiber taken out certified as there."""
    excluded = []
    for line in lines:
        if line[2]:
            h = polynomials._gcd_int(*(polynomials.line_restriction(r, line) for r in rows))
        else:
            h = polynomials._primitive(list(line[:2]))
        if len(h) > 1:
            excluded.append(h)
    out = []
    for factor, mult in usquarefree_int(res):
        for h in excluded:
            common = polynomials._gcd_int(factor, h)
            if len(common) > 1:
                unseparated = polynomials._gcd_int(common, s11)
                if len(unseparated) > 1 and not solver._only_excluded(unseparated, rows, lines):
                    return None
                factor = polynomials.udivexact(factor, common)
        if len(factor) > 1:
            if len(polynomials._gcd_int(factor, s11)) > 1:
                return None
            out.append((factor, mult))
    return out


PLANTS = ("crossing", "vertical", "axes", "irrational", "fiber")


def planted_pair(seed, plants, lam):
    """(res, s11, rows, lines) of a random integer pair with common zeros
    planted at points of the given kinds, sheared by lam as solve_bivariate
    shears, or None when the pair shares a curve. The lines are the axes, a
    vertical line and two random lines. Kinds: a crossing of two lines; a
    rational point of the vertical line; the origin; the points of a line
    over the roots of an irreducible quadratic in x; and a crossing with a
    second zero on its fiber, on a line or not (so s11 vanishes there)."""
    rng = random.Random(seed)
    x, y = x_y()
    nonzero = [v for v in range(-3, 4) if v]
    lines = [(0, 1, 0), (0, 0, 1), (rng.choice(nonzero), rng.choice(nonzero), 0)]
    while len(lines) < 5:
        line = (rng.randint(-3, 3), rng.choice(nonzero), rng.choice(nonzero))
        if all(line[1] * b != line[2] * a or line[0] * b != c * line[2] for c, a, b in lines):
            lines.append(line)
    form = [Q({(0, 0): c, (1, 0): a, (0, 1): b}) for c, a, b in lines]
    pairs = [(i, j) for i in range(5) for j in range(i) if lines[i][1] * lines[j][2] != lines[j][1] * lines[i][2]]

    def crossing():
        i, j = rng.choice(pairs)
        (c1, a1, b1), (c2, a2, b2) = lines[i], lines[j]
        det = a1 * b2 - a2 * b1
        return i, j, Fraction(b1 * c2 - b2 * c1, det), Fraction(a2 * c1 - a1 * c2, det)

    ideals = []
    for kind in plants:
        if kind == "crossing":
            i, j, _, _ = crossing()
            ideals.append([form[i], form[j]])
        elif kind == "vertical":
            ideals.append([form[2], y - Fraction(rng.randint(-4, 4), rng.randint(1, 3))])
        elif kind == "axes":
            ideals.append([x, y])
        elif kind == "irrational":
            p, q = rng.randint(-3, 3), rng.choice([2, 3, 5, 6, 7])
            ideals.append([form[rng.randint(3, 4)], x * x + p * x + q * rng.choice([1, -1])])
        else:
            i, j, x0, y0 = crossing()
            other = [k for k in range(1, 5) if lines[k][2] and k not in (i, j)]
            k = rng.choice(other + [None])
            y1 = y0 + rng.randint(1, 3) if k is None else -(lines[k][0] + lines[k][1] * x0) / lines[k][2]
            ideals.append([x - x0, (y - y0) * (y - y1)])
    generators = [Q({(0, 0): 1})]
    for ideal in ideals:
        generators = [g * h for g in generators for h in ideal]

    def combination():
        return sum((rng.choice(nonzero) + rng.randint(-2, 2) * x + rng.randint(-2, 2) * y) * g for g in generators)

    rows = [solver._shear(p.int().rows, lam) for p in (combination(), combination())]
    res, _, s11 = polynomials.bivariate_subresultants(*rows)
    if not res:
        return None
    return res, s11, rows, [(c, a, b - a * lam) for c, a, b in lines]


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2 ** 32), st.lists(st.sampled_from(PLANTS), min_size=1, max_size=2), st.integers(0, 1))
@example(0, ["fiber"], 0)
def test_exclusion_matches_its_gcd_reference(seed, plants, lam):
    # the abscissas that the lines fix are divided out before the
    # squarefree split, and gcds see only the rest; the factors, their
    # multiplicities and whether the pair is separated are the reference's
    planted = planted_pair(seed, plants, lam)
    if planted is not None:
        assert solver._separated_factors(*planted) == reference_separated_factors(*planted)


def test_non_curvilinear_zero_cannot_be_separated():
    # every fiber through the origin meets both curves to order two
    x, y = x_y()
    with pytest.raises(SeparationError):
        solve_bivariate(*ints(x ** 2, y ** 2))


def test_degree_cap():
    x, y = x_y()
    with pytest.raises(DegreeCapError):
        solve_bivariate(*ints(x ** 31 - 1, y - x))


def test_dimension_caps():
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


# -- Newton refinement ----------------------------------------------------------


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
    """Newton on the IntPoly pair, each divided by its largest absolute
    coefficient in Fractions, in Python complex arithmetic, at most max_iter
    steps: the reference for refine. Returns (point, residual, converged)."""
    scaled = [Q.of(p) * Fraction(1, max(map(abs, p.terms.values()))) for p in (f, g)]
    polys = [[(m[0], m[1], complex(c)) for m, c in q.terms.items()]
             for p in scaled for q in (p, p.derivative(0), p.derivative(1))]
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
    return [
        tuple(complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius)) for _ in range(2))
        for _ in range(count)
    ]


def worked_pair():
    return cleared_polynomials(worked_sparse())


def solution_starts(f, g):
    """The solutions of the pair f, g as refine's starts."""
    return [s.point for s in solve_bivariate(f, g).solutions]


def test_final_starts_take_no_step(monkeypatch):
    # starts whose backward error is already below the target are accepted
    # by one evaluation of f and g, without building or evaluating a derivative
    def no_derivative(*args):
        raise AssertionError("a final start built or evaluated a derivative")

    f, g = worked_pair()
    config = SolverConfig()
    starts = solution_starts(f, g)
    monkeypatch.setattr("galedual.newton._value", no_derivative)
    monkeypatch.setattr("galedual.newton.CompiledPair.derivatives", no_derivative)
    compiled = compile_pair(f, g)
    for start in starts:
        point, residual, converged = refine(compiled, start, config)
        assert converged
        assert point == start
        assert residual < config.verify_tol * 1e-3


@pytest.mark.parametrize("max_iter", [0, 12, 50])
def test_refinement_matches_scalar_newton(monkeypatch, max_iter):
    # a cap of 12 stops about half the starts short of convergence; the
    # solutions of the pair are already final and take no step
    monkeypatch.setattr("galedual.newton._MAX_ITER", max_iter)
    f, g = worked_pair()
    compiled = compile_pair(f, g)
    config = SolverConfig()
    for start in seeded_starts(300, 5) + solution_starts(f, g):
        assert refine(compiled, start, config) == scalar_newton(f, g, start, config, max_iter)


def bivariate_polys():
    return st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 4).filter(bool),
        min_size=1, max_size=8,
    ).map(Q)


@settings(deadline=None, max_examples=100)
@given(bivariate_polys(), bivariate_polys())
@example(*map(Q.of, cleared_polynomials(worked_sparse())))
def test_compile_pair_divides_by_the_max_norm(f, g):
    # each integer polynomial is divided by its largest absolute coefficient
    # exactly, then rounded once, so it compiles bit for bit as the rational
    # polynomial it was cleared from does when scaled by its own max norm,
    # with the derivatives built in Fractions and rounded from them

    def reference(p):
        p = p * (1 / max(map(abs, p.terms.values())))
        return tuple([(i, j, complex(c)) for (i, j), c in q.terms.items()]
                     for q in (p, p.derivative(0), p.derivative(1)))

    def bits(group):
        return [[(i, j, c.real.hex(), c.imag.hex()) for i, j, c in terms] for terms in group]

    compiled = compile_pair(*ints(f, g))
    f_x, f_y, g_x, g_y = compiled.derivatives()
    groups = [(compiled.f, f_x, f_y), (compiled.g, g_x, g_y)]
    assert list(map(bits, groups)) == [bits(reference(f)), bits(reference(g))]
    exponents = [(i, j) for p in (f, g) for i, j in p.terms]
    assert (compiled.xdeg, compiled.ydeg) == tuple(max(e[k] for e in exponents) for k in (0, 1))
    assert compiled.derivatives() is compiled.derivatives()


@settings(deadline=None, max_examples=100)
@given(bivariate_polys(), st.integers(1, 8))
def test_shear_is_the_substitution(p, lam):
    # p(x - lam*y, y) by substitution; the shear keeps the content 1
    p = p.int()
    x, y = x_y()
    substituted = sum((c * (x - lam * y) ** i * y ** j for (i, j), c in p.terms.items()), Q())
    assert solver._shear(p.rows, lam) == substituted.int().rows
    assert solver._shear(p.rows, 0) is p.rows


def test_overflowing_starts_count_as_diverged():
    # complex powers of the last two starts overflow: an OverflowError or a
    # non-finite iterate counts as diverged, and refine raises nothing
    x, y = x_y()
    f, g = ints(2 * x ** 9 * y ** 2 + 4 * x ** 5 * y - 3,
                2 * x ** 10 * y ** 5 - 3 * x ** 6 * y ** 12 + x + 2 * x ** 11 * y ** 7)
    sols = solve_bivariate(f, g)
    assert sols.count > 0
    assert all(s.residual < sols.config.verify_tol for s in sols.solutions)
    compiled = compile_pair(f, g)
    starts = [sols.solutions[0].point, (1e40, 1e40), (1e300j, 1.0)]
    points, residuals, converged = zip(*(refine(compiled, start, SolverConfig()) for start in starts))
    assert list(converged) == [True, False, False]
    assert residuals[0] < sols.config.verify_tol
    assert all(math.isinf(r) for r in residuals[1:])


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
    assert Q.of(f)(0, 0) == Q.of(g)(0, 0) == 0
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
def test_solve_bivariate_makes_no_fraction(monkeypatch, fixture):
    # the solve works on integers from the cleared pair to Newton: count the
    # Fractions made while solve_bivariate runs, on both sides of the pair
    made, inside = [], []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        if inside:
            made.append(args)
        return new(cls, *args, **kwargs)

    def spied(*args, **kwargs):
        inside.append(1)
        try:
            return solve(*args, **kwargs)
        finally:
            inside.pop()

    solve = solver.solve_bivariate
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(solver, "solve_bivariate", spied)
    system = load_system(str(files("galedual") / "fixtures" / fixture))
    pair = dualize_poly_to_master(system) if isinstance(system, SparseSystem) else dualize_master_to_poly(system)
    assert solve_sparse(pair.poly).count == solve_master(pair.master).count == 17
    assert Fraction(3, 4) == Fraction(6, 8) and not inside  # the spy counts only inside the solve
    assert made == []


@pytest.mark.parametrize("fixture", ["example22_sparse.json", "example22_master.json", "example3_second.json"])
def test_fixtures_eliminate_once_per_shear(monkeypatch, fixture):
    # excluded lines are handled by substitution, never by another
    # elimination, and each elimination runs one subresultant chain
    eliminations, chains = [], []
    eliminate = solver.bivariate_subresultants
    chain = polynomials.usubresultants_int
    monkeypatch.setattr(solver, "bivariate_subresultants", lambda *args: eliminations.append(1) or eliminate(*args))
    # a call with deg a < deg b only swaps its operands and calls again
    monkeypatch.setattr(polynomials, "usubresultants_int", lambda a, b: chains.append(len(a) >= len(b)) or chain(a, b))
    system = load_system(str(files("galedual") / "fixtures" / fixture))
    sols = (solve_sparse if isinstance(system, SparseSystem) else solve_master)(system)
    sheared = [int(d.split(" - ")[1].split("*")[0]) for d in sols.diagnostics if d.startswith("sheared")]
    assert sols.count == 17
    assert len(eliminations) == 1 + sum(sheared)
    assert sum(chains) == 1 + sum(sheared)


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
