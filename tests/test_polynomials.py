"""Sparse multivariate and dense univariate polynomial arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galedual.polynomials import (
    Poly,
    _prem,
    bivariate_resultant,
    poly_equal_up_to_scale,
    udeg,
    uderiv,
    udivmod,
    ueval,
    ugcd,
    uinterpolate,
    umul,
    uresultant_int,
    usquarefree,
    utrim,
)
from galedual.ratlinalg import det_bareiss_int, mat_det


def rand_poly(rng, nvars, max_terms=5, max_exp=3, lo=-5, hi=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[mono] = terms.get(mono, 0) + rng.randint(lo, hi)
    return Poly(nvars, {m: Fraction(c) for m, c in terms.items()})


def rand_ucoeffs(rng, max_deg=4):
    return [Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, max_deg + 1))]


def rand_point(rng, nvars):
    return tuple(Fraction(rng.randint(-7, 7), rng.randint(1, 4)) for _ in range(nvars))


# -- Poly ring operations ---------------------------------------------------


def test_poly_constructors():
    x = Poly.variable(0, 2)
    y = Poly.variable(1, 2)
    assert (x * y).terms == {(1, 1): Fraction(1)}
    assert Poly.constant(2, 0).is_zero()
    lin = Poly.linear(Fraction(-1, 2), [1, -1])
    assert lin.eval_exact((Fraction(3), Fraction(1))) == Fraction(3, 2)
    with pytest.raises(ValueError):
        Poly(2, {(1,): Fraction(1)})
    with pytest.raises(ValueError):
        Poly(2, {(-1, 0): Fraction(1)})


def test_poly_arithmetic_agrees_with_evaluation():
    rng = random.Random(31)
    for _ in range(80):
        nvars = rng.randint(1, 3)
        a = rand_poly(rng, nvars)
        b = rand_poly(rng, nvars)
        p = rand_point(rng, nvars)
        av, bv = a.eval_exact(p), b.eval_exact(p)
        assert (a + b).eval_exact(p) == av + bv
        assert (a - b).eval_exact(p) == av - bv
        assert (a * b).eval_exact(p) == av * bv
        assert (-a).eval_exact(p) == -av
        assert (a ** 3).eval_exact(p) == av ** 3
        assert a.scale(Fraction(2, 3)).eval_exact(p) == av * Fraction(2, 3)


def test_poly_eval_complex_matches_exact():
    rng = random.Random(32)
    for _ in range(30):
        a = rand_poly(rng, 2)
        p = rand_point(rng, 2)
        exact = a.eval_exact(p)
        approx = a.eval_complex((complex(p[0]), complex(p[1])))
        assert abs(approx - complex(exact)) < 1e-9


def test_poly_degree_and_derivative():
    x = Poly.variable(0, 2)
    y = Poly.variable(1, 2)
    f = x ** 2 * y + 3 * y ** 3
    assert f.degree() == 3
    assert f.degree(0) == 2
    assert f.degree(1) == 3
    assert f.derivative(0) == 2 * x * y
    rng = random.Random(33)
    for _ in range(40):
        a = rand_poly(rng, 2)
        b = rand_poly(rng, 2)
        # product rule
        lhs = (a * b).derivative(0)
        rhs = a.derivative(0) * b + a * b.derivative(0)
        assert lhs == rhs


def test_coefficients_in_reconstructs():
    rng = random.Random(34)
    for _ in range(40):
        a = rand_poly(rng, 2)
        for var in (0, 1):
            parts = a.coefficients_in(var)
            xv = Poly.variable(var, 2)
            total = Poly(2)
            for e, coeff in parts.items():
                total = total + coeff * xv ** e
            assert total == a


def test_poly_equal_up_to_scale():
    x = Poly.variable(0, 2)
    y = Poly.variable(1, 2)
    f = x ** 2 - y + 3
    assert poly_equal_up_to_scale(f, f.scale(Fraction(-7, 5)))
    assert not poly_equal_up_to_scale(f, f + x)
    assert not poly_equal_up_to_scale(f, f - 3)
    assert poly_equal_up_to_scale(Poly(2), Poly(2))
    assert not poly_equal_up_to_scale(f, Poly(2))


def test_poly_to_string():
    x = Poly.variable(0, 2)
    y = Poly.variable(1, 2)
    s = (x ** 2 * y - Fraction(1, 2)).to_string(["x", "y"])
    assert "x^2" in s and "y" in s and "1/2" in s
    assert Poly(2).to_string(["x", "y"]) == "0"


# -- dense univariate layer ---------------------------------------------------


def test_univariate_basics():
    assert utrim([Fraction(0), Fraction(1), Fraction(0)]) == [0, 1]
    assert udeg([Fraction(3)]) == 0
    assert udeg([]) == -1
    assert ueval([Fraction(1), Fraction(2), Fraction(1)], Fraction(3)) == 16
    assert uderiv([Fraction(5), Fraction(1), Fraction(2)]) == [1, 4]
    assert umul([Fraction(1), Fraction(1)], [Fraction(-1), Fraction(1)]) == [-1, 0, 1]


def test_udivmod_identity():
    rng = random.Random(35)
    for _ in range(60):
        a = rand_ucoeffs(rng, 6)
        b = utrim(rand_ucoeffs(rng, 3))
        if not b:
            continue
        q, r = udivmod(a, b)
        recombined = [x + y for x, y in zip_pad(umul(q, b), r)]
        assert utrim(recombined) == utrim(a)
        assert udeg(r) < udeg(b) or not utrim(r)


def zip_pad(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return zip(a, b)


def test_ugcd_known_and_random():
    two_roots = umul([Fraction(-1), Fraction(1)], [Fraction(-2), Fraction(1)])
    other = umul([Fraction(-1), Fraction(1)], [Fraction(-3), Fraction(1)])
    assert ugcd(two_roots, other) == [-1, 1]
    assert ugcd([Fraction(2), Fraction(1)], [Fraction(5)]) == [1]
    rng = random.Random(36)
    for _ in range(40):
        common = utrim(rand_ucoeffs(rng, 2))
        if udeg(common) < 1:
            continue
        f = umul(common, rand_ucoeffs(rng, 2))
        g = umul(common, rand_ucoeffs(rng, 2))
        if not f or not g:
            continue
        d = ugcd(f, g)
        # gcd divides both and the planted factor divides the gcd
        assert not utrim(udivmod(f, d)[1])
        assert not utrim(udivmod(g, d)[1])
        assert not utrim(udivmod(d, common)[1])


def test_usquarefree_reconstruction():
    rng = random.Random(37)
    for _ in range(40):
        base = []
        target = [Fraction(1)]
        for mult in (1, 2, 3):
            if rng.random() < 0.6:
                root = Fraction(rng.randint(-3, 3))
                factor = [-root, Fraction(1)]
                base.append((factor, mult))
                for _ in range(mult):
                    target = umul(target, factor)
        if udeg(target) < 1:
            continue
        parts = usquarefree(target)
        rebuilt = [Fraction(1)]
        for factor, mult in parts:
            assert ugcd(factor, uderiv(factor)) == [1]  # squarefree
            for _ in range(mult):
                rebuilt = umul(rebuilt, factor)
        # monic input, monic factors: reconstruction is exact
        assert rebuilt == target
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert ugcd(parts[i][0], parts[j][0]) == [1]


def test_usquarefree_known():
    # (x-1)^2 (x+2)
    f = umul(umul([Fraction(-1), Fraction(1)], [Fraction(-1), Fraction(1)]), [Fraction(2), Fraction(1)])
    parts = usquarefree(f)
    assert sorted((udeg(p), m) for p, m in parts) == [(1, 1), (1, 2)]
    by_mult = {m: p for p, m in parts}
    assert by_mult[2] == [-1, 1]
    assert by_mult[1] == [2, 1]


def test_uinterpolate_round_trip():
    rng = random.Random(38)
    for _ in range(40):
        coeffs = utrim(rand_ucoeffs(rng, 5))
        if not coeffs:
            continue
        pts = [(Fraction(t), ueval(coeffs, Fraction(t))) for t in range(len(coeffs))]
        assert uinterpolate(pts) == coeffs
        halves = [(Fraction(t, 2), ueval(coeffs, Fraction(t, 2))) for t in range(len(coeffs))]
        assert uinterpolate(halves) == coeffs
    with pytest.raises(ValueError):
        uinterpolate([(1, 1), (1, 2)])


# -- resultants ---------------------------------------------------------------


def x_y():
    return Poly.variable(0, 2), Poly.variable(1, 2)


def test_resultant_known_values():
    x, y = x_y()
    # x^2 + y^2 against x - y: common zeros force 2y^2
    assert bivariate_resultant(x ** 2 + y ** 2, x - y, 0) == [0, 0, 2]
    # (x-1)(x-y) against x - 2y: classical product formula gives (1-2y)(y-2y)
    f = (x - 1) * (x - y)
    assert bivariate_resultant(f, x - 2 * y, 0) == [0, -1, 2]


def test_resultant_linear_pair_oracle():
    # for a(y) x + b(y) and c(y) x + d(y) the Sylvester matrix is 2x2,
    # so the resultant must equal ad - bc whatever the coefficient degrees
    rng = random.Random(39)
    x = Poly.variable(0, 2)
    for _ in range(40):
        a, b, c, d = (rand_poly(rng, 2, max_terms=3).coefficients_in(0).get(0, Poly(2)) for _ in range(4))
        if a.is_zero() or c.is_zero():
            continue
        f = a * x + b
        g = c * x + d
        expected = a * d - b * c
        got = bivariate_resultant(f, g, 0)
        want = univar_coeffs(expected, 1)
        assert got == want, (f.terms, g.terms)


def univar_coeffs(p, var):
    out = [Fraction(0)] * (p.degree(var) + 1 if not p.is_zero() else 0)
    for mono, c in p.terms.items():
        out[mono[var]] += c
    return utrim(out)


def test_resultant_swap_sign():
    rng = random.Random(40)
    x, y = x_y()
    for _ in range(25):
        f = rand_poly(rng, 2, max_terms=4, max_exp=2)
        g = rand_poly(rng, 2, max_terms=4, max_exp=2)
        if f.degree(0) < 1 or g.degree(0) < 1:
            continue
        r1 = bivariate_resultant(f, g, 0)
        r2 = bivariate_resultant(g, f, 0)
        sign = (-1) ** (f.degree(0) * g.degree(0))
        assert r2 == [sign * c for c in r1]


def test_resultant_multiplicative():
    rng = random.Random(41)
    x = Poly.variable(0, 2)
    for _ in range(20):
        f1 = rand_poly(rng, 2, max_terms=3, max_exp=2)
        f2 = rand_poly(rng, 2, max_terms=3, max_exp=2)
        g = rand_poly(rng, 2, max_terms=3, max_exp=2)
        if min(f1.degree(0), f2.degree(0), g.degree(0)) < 1:
            continue
        lhs = bivariate_resultant(f1 * f2, g, 0)
        rhs = umul(bivariate_resultant(f1, g, 0), bivariate_resultant(f2, g, 0))
        assert utrim(lhs) == utrim(rhs)


def test_resultant_common_factor_vanishes():
    x, y = x_y()
    shared = x - y
    f = shared * (x + y + 1)
    g = shared * (x + 2 * y + 3)
    assert bivariate_resultant(f, g, 0) == []
    assert bivariate_resultant(f, g, 1) == []


def test_resultant_eliminate_other_axis():
    x, y = x_y()
    # same geometry, eliminating y instead: x^2 + x^2 = 2x^2
    assert bivariate_resultant(x ** 2 + y ** 2, x - y, 1) == [0, 0, 2]


def test_resultant_rejects_bad_input():
    x, y = x_y()
    with pytest.raises(ValueError):
        bivariate_resultant(Poly(2), x - y, 0)
    with pytest.raises(ValueError):
        bivariate_resultant(Poly.variable(0, 1), Poly.variable(0, 1), 0)


# -- integer subresultants and the integer resultant path ----------------------


def int_upoly(max_deg=6, lo=-9, hi=9):
    """Integer coefficient lists (ascending) with a nonzero leading coefficient."""
    return st.lists(st.integers(lo, hi), min_size=0, max_size=max_deg).flatmap(
        lambda low: st.integers(lo, hi).filter(bool).map(lambda lead: low + [lead])
    )


def sylvester(a, b):
    """Sylvester matrix of two ascending coefficient lists, sized by their
    lengths: a zero leading entry gives the padded generic-size matrix."""
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    rows = []
    for i in range(n):
        rows.append([0] * i + a[::-1] + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + b[::-1] + [0] * (size - n - 1 - i))
    return rows


@settings(deadline=None)
@given(int_upoly(), int_upoly())
@example([5], [3])  # two constants
@example([4], [1, 0, -2])  # constant against a quadratic
@example([1, 2, 3], [7])  # quadratic against a constant
@example([1, 1], [0, 0, 0, 1])  # deg a < deg b
@example([2, 0, 0, 1], [-1, 0, 0, 0, 0, 3])  # both degrees odd
@example([-3, 0, 0, 0, 0, 0, 2], [5, 0, 0, 0, 1])  # sparse binomials
def test_uresultant_int_matches_sylvester_determinant(a, b):
    got = uresultant_int(a, b)
    assert isinstance(got, int)
    assert got == det_bareiss_int(sylvester(a, b))


@settings(deadline=None)
@given(int_upoly(max_deg=3), int_upoly(max_deg=4), int_upoly(max_deg=4))
def test_uresultant_int_common_factor_vanishes(common, p, q):
    if len(common) < 2:
        common = common + [1]
    assert uresultant_int(umul(common, p), umul(common, q)) == 0


@settings(deadline=None)
@given(st.integers(1, 9), st.integers(-20, 20).filter(bool),
       st.integers(1, 9), st.integers(-20, 20).filter(bool), st.integers(-5, 5).filter(bool))
def test_uresultant_int_sparse_binomials(m, c, n, d, lead):
    a = [c] + [0] * (m - 1) + [lead]
    b = [d] + [0] * (n - 1) + [1]
    assert uresultant_int(a, b) == det_bareiss_int(sylvester(a, b))
    assert uresultant_int(b, a) == (-1) ** (m * n) * uresultant_int(a, b)


def test_uresultant_int_zero_operand():
    assert uresultant_int([], [1, 2]) == 0
    assert uresultant_int([0, 0], [1, 2]) == 0


@settings(deadline=None)
@given(int_upoly(max_deg=8), int_upoly(max_deg=5))
def test_prem_is_exact(a, b):
    # lc(b)^(deg a - deg b + 1) * a = q * b + prem(a, b), deg prem < deg b
    r = _prem(a, b)
    assert len(r) < len(b)
    assert all(isinstance(c, int) for c in r)
    steps = max(len(a) - len(b) + 1, 0)
    if steps:
        scaled = [Fraction(b[-1] ** steps * c) for c in a]
        _, rem = udivmod(scaled, [Fraction(c) for c in b])
        assert rem == r
    else:
        assert r == a


@settings(deadline=None)
@given(int_upoly(max_deg=7), st.lists(st.integers(-30, 30), min_size=8, max_size=12, unique=True))
def test_uinterpolate_integer_data_stays_integer(coeffs, nodes):
    pts = [(t, ueval(coeffs, t)) for t in nodes]
    got = uinterpolate(pts)
    assert got == coeffs
    assert all(type(c) is int for c in got)


# A reference kept here on purpose: the Sylvester determinant at every node
# (Fraction elimination) and Fraction Newton interpolation, with no integer
# shortcut and no node skipping.


def reference_resultant(f, g, eliminate):
    keep = 1 - eliminate
    fc = {e: univar_coeffs(p, keep) for e, p in f.coefficients_in(eliminate).items()}
    gc = {e: univar_coeffs(p, keep) for e, p in g.coefficients_in(eliminate).items()}
    d1, d2 = max(fc), max(gc)
    if d1 == 0 and d2 == 0:
        return [Fraction(1)]
    bound = d1 * max(udeg(c) for c in gc.values()) + d2 * max(udeg(c) for c in fc.values())
    nodes = [0]
    while len(nodes) < bound + 1:
        v = len(nodes) // 2 + 1
        nodes += [v, -v]
    values = []
    for t in nodes[: bound + 1]:
        fvals = [ueval(fc.get(e, []), Fraction(t)) for e in range(d1 + 1)]
        gvals = [ueval(gc.get(e, []), Fraction(t)) for e in range(d2 + 1)]
        values.append((Fraction(t), mat_det(sylvester(fvals, gvals))))
    return fraction_interpolate(values)


def fraction_interpolate(points):
    xs = [x for x, _ in points]
    coef = [Fraction(y) for _, y in points]
    n = len(points)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - level])
    poly = [coef[-1]]  # Horner on the Newton form
    for i in range(n - 2, -1, -1):
        shifted = [Fraction(0)] + poly
        for j, c in enumerate(poly):
            shifted[j] -= xs[i] * c
        shifted[0] += coef[i]
        poly = shifted
    return utrim(poly)


@st.composite
def bivariate_polys(draw, max_exp=3):
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, max_exp), st.integers(0, max_exp)),
        st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool),
        min_size=1, max_size=6,
    ))
    return Poly(2, terms)


def test_fraction_interpolate_reference():
    assert fraction_interpolate([(Fraction(t), Fraction(t * t - 3)) for t in (0, 1, -1)]) == [-3, 0, 1]


def _check_against_reference(f, g, eliminate):
    got = bivariate_resultant(f, g, eliminate)
    assert got == reference_resultant(f, g, eliminate)
    assert all(type(c) is Fraction for c in got)


@settings(deadline=None, max_examples=60)
@given(bivariate_polys(), bivariate_polys(), st.sampled_from([0, 1]))
def test_resultant_matches_sylvester_reference(f, g, eliminate):
    _check_against_reference(f, g, eliminate)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([0, 1, 2, 3]), st.booleans(),
       bivariate_polys(max_exp=2), bivariate_polys(max_exp=1), st.sampled_from([0, 1]))
def test_resultant_leading_coefficient_vanishing_at_nodes(r, square, f_low, g_low, eliminate):
    # both leading coefficients are t^2 - r^2 or t - r, which vanish at small
    # nodes: the integer path skips those, the reference takes the padded
    # determinant there
    x, y = x_y()
    var, t = (x, y) if eliminate == 0 else (y, x)
    lead = t * t - r * r if square else t - r
    _check_against_reference(lead * var ** 3 + f_low, Fraction(1, 3) * lead * var ** 2 + g_low, eliminate)


def test_resultant_known_vanishing_leading_coefficients():
    x, y = x_y()
    f = (y * y - 1) * x ** 2 + y * x + 3
    g = (y - 2) * x ** 3 + Fraction(1, 2) * x - y
    for e in (0, 1):
        _check_against_reference(f, g, e)
