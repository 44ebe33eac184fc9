"""The integer bivariate form and dense univariate polynomial arithmetic."""

import math
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bivariate import Q, ints, same_up_to_scale
from galedual import polynomials
from galedual.errors import InvariantError
from galedual.polynomials import (
    IntPoly,
    _PRIMES,
    _balanced_digits,
    _coprime_mod,
    _gcd_heuristic,
    _gcd_int,
    _prem,
    _primitive,
    _usub,
    bivariate_resultant,
    bivariate_subresultants,
    line_restriction,
    term_sum,
    transposed,
    uderiv,
    udivexact,
    ueval,
    ugcd,
    uinterpolate,
    umul,
    usquarefree,
    usquarefree_int,
    usubresultants_int,
    utrim,
)
from galedual.ratlinalg import det_bareiss_int, mat_det
from galedual.serialize import parse_system
from galedual.solver import solve_master
from galedual.systems import clear_denominators


def udivmod(a, b):
    """Exact field division with remainder."""
    a = utrim(a)
    b = utrim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = [Fraction(c) for c in a]
    inv = 1 / Fraction(b[-1])
    while len(r) >= len(b):
        factor = r[-1] * inv
        shift = len(r) - len(b)
        q[shift] = factor
        for i, cb in enumerate(b):
            r[shift + i] -= factor * cb
        r = utrim(r)
        if not r:
            break
    return utrim(q), r


def rand_poly(rng, max_terms=5, max_exp=3, lo=-5, hi=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(2))
        terms[mono] = terms.get(mono, 0) + rng.randint(lo, hi)
    return Q(terms)


def rows_in(p, var):
    """The rows of the IntPoly of a Q in variable var, as the elimination reads them."""
    return p.int().rows if var else transposed(p.int().rows)


def udeg(coeffs):
    return len(utrim(coeffs)) - 1


def rand_ucoeffs(rng, max_deg=4):
    return [Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, max_deg + 1))]


def rand_point(rng, nvars):
    return tuple(Fraction(rng.randint(-7, 7), rng.randint(1, 4)) for _ in range(nvars))


# -- the integer form and the test builder ---------------------------------------


def test_poly_constructors():
    x, y = x_y()
    assert (x * y).terms == {(1, 1): Fraction(1)}
    assert not Q({(0, 0): 0}).terms
    lin = Fraction(-1, 2) + x - y
    assert lin(Fraction(3), Fraction(1)) == Fraction(3, 2)
    with pytest.raises(ValueError):
        Q({(1,): Fraction(1)})
    with pytest.raises(ValueError):
        Q({(-1, 0): Fraction(1)})
    # the integer form divides by the content and keeps the terms' order
    p = IntPoly({(2, 1): 6, (0, 0): -4, (1, 0): 0, (0, 2): 2})
    assert list(p.terms.items()) == [((2, 1), 3), ((0, 0), -2), ((0, 2), 1)]
    assert p.rows == [[-2], [0, 0, 3], [1]]
    assert (lin * 6).int().terms == {(0, 0): -1, (1, 0): 2, (0, 1): -2}
    zero = IntPoly({})
    assert (zero.terms, zero.rows, zero.degree()) == ({}, [], -1)


def test_poly_arithmetic_agrees_with_evaluation():
    rng = random.Random(31)
    for _ in range(80):
        a = rand_poly(rng)
        b = rand_poly(rng)
        p = rand_point(rng, 2)
        av, bv = a(*p), b(*p)
        assert (a + b)(*p) == av + bv
        assert (a - b)(*p) == av - bv
        assert (a * b)(*p) == av * bv
        assert (-a)(*p) == -av
        assert (a ** 3)(*p) == av ** 3
        assert (Fraction(2, 3) * a)(*p) == av * Fraction(2, 3)
        # the integer form is the same polynomial times one positive number
        if a.terms:
            scaled = Q.of(a.int())
            mono = next(iter(a.terms))
            ratio = scaled.terms[mono] / a.terms[mono]
            assert ratio > 0 and scaled == ratio * a


def test_poly_degree_and_derivative():
    x, y = x_y()
    f = x ** 2 * y + 3 * y ** 3
    assert f.degree() == f.int().degree() == 3
    assert f.degree(0) == 2
    assert f.degree(1) == 3
    assert f.derivative(0) == 2 * x * y
    rng = random.Random(33)
    for _ in range(40):
        a = rand_poly(rng)
        b = rand_poly(rng)
        assert a.int().degree() == a.degree()
        # product rule
        lhs = (a * b).derivative(0)
        rhs = a.derivative(0) * b + a * b.derivative(0)
        assert lhs == rhs


def test_coefficients_in_reconstructs():
    rng = random.Random(34)
    for _ in range(40):
        a = rand_poly(rng)
        for var in (0, 1):
            parts = a.coefficients_in(var)
            xv = x_y()[var]
            total = Q()
            for e, coeff in parts.items():
                total = total + coeff * xv ** e
            assert total == a
        # the rows in y, and transposed the rows in x, hold every term
        p = a.int()
        assert {(i, j): c for j, row in enumerate(p.rows) for i, c in enumerate(row) if c} == p.terms
        assert {(i, j): c for i, row in enumerate(transposed(p.rows)) for j, c in enumerate(row) if c} == p.terms
        assert all(row == utrim(row) for row in p.rows) and (not p.rows or p.rows[-1])


def test_poly_equal_up_to_scale():
    x, y = x_y()
    f = x ** 2 - y + 3
    assert same_up_to_scale(f.int(), (Fraction(-7, 5) * f).int())
    assert not same_up_to_scale(f.int(), (f + x).int())
    assert not same_up_to_scale(f.int(), (f - 3).int())
    assert same_up_to_scale(IntPoly({}), IntPoly({}))
    assert not same_up_to_scale(f.int(), IntPoly({}))


def test_poly_to_string():
    s = term_sum([(1, "x^2*y"), (Fraction(-1, 2), "1")])
    assert s == "x^2*y - 1/2"
    assert term_sum([(0, "x")]) == "0"


# -- dense univariate layer ---------------------------------------------------


def test_univariate_basics():
    assert utrim([Fraction(0), Fraction(1), Fraction(0)]) == [0, 1]
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
    with pytest.raises(ValueError):
        uinterpolate([(1, 1), (1, 2)])


def test_inexact_data_raises_invariant_error():
    # the divided difference (1 - 0) / (2 - 0) and the leading quotient 1 / 2
    # are not integers, and x + 1 leaves the remainder 3 on 2x^2 + 1
    with pytest.raises(InvariantError):
        uinterpolate([(0, 0), (2, 1)])
    with pytest.raises(InvariantError):
        uinterpolate([(Fraction(t, 2), Fraction(t * t, 4)) for t in range(3)])
    with pytest.raises(InvariantError):
        udivexact([1, 0, 1], [1, 2])
    with pytest.raises(InvariantError):
        udivexact([1, 0, 2], [1, 1])


# -- resultants ---------------------------------------------------------------


def x_y():
    return Q({(1, 0): 1}), Q({(0, 1): 1})


def test_resultant_known_values():
    x, y = x_y()
    # x^2 + y^2 against x - y: common zeros force 2y^2
    assert bivariate_resultant(*ints(x ** 2 + y ** 2, x - y), 0) == [0, 0, 2]
    # (x-1)(x-y) against x - 2y: classical product formula gives (1-2y)(y-2y)
    f = (x - 1) * (x - y)
    assert bivariate_resultant(*ints(f, x - 2 * y), 0) == [0, -1, 2]


def test_resultant_linear_pair_oracle():
    # for a(y) x + b(y) and c(y) x + d(y) the Sylvester matrix is 2x2,
    # so the resultant must equal ad - bc whatever the coefficient degrees
    rng = random.Random(39)
    x = Q({(1, 0): 1})
    for _ in range(40):
        a, b, c, d = (rand_poly(rng, max_terms=3).coefficients_in(0).get(0, Q()) for _ in range(4))
        if not a.terms or not c.terms:
            continue
        f, g = ints(a * x + b, c * x + d)
        # the oracle on the integer pair the resultant receives
        (a, b), (c, d) = ([q.coefficients_in(0).get(e, Q()) for e in (1, 0)] for q in (Q.of(f), Q.of(g)))
        expected = a * d - b * c
        got = bivariate_resultant(f, g, 0)
        want = univar_coeffs(expected, 1)
        assert got == want, (f.terms, g.terms)


def univar_coeffs(p, var):
    out = [Fraction(0)] * (p.degree(var) + 1)
    for mono, c in p.terms.items():
        out[mono[var]] += c
    return utrim(out)


def test_resultant_swap_sign():
    rng = random.Random(40)
    for _ in range(25):
        f = rand_poly(rng, max_terms=4, max_exp=2)
        g = rand_poly(rng, max_terms=4, max_exp=2)
        if f.degree(0) < 1 or g.degree(0) < 1:
            continue
        r1 = bivariate_resultant(*ints(f, g), 0)
        r2 = bivariate_resultant(*ints(g, f), 0)
        sign = (-1) ** (f.degree(0) * g.degree(0))
        assert r2 == [sign * c for c in r1]


def test_resultant_multiplicative():
    # the integer form of f1*f2 is the product of those of f1 and f2 (Gauss's lemma)
    rng = random.Random(41)
    for _ in range(20):
        f1 = rand_poly(rng, max_terms=3, max_exp=2)
        f2 = rand_poly(rng, max_terms=3, max_exp=2)
        g = rand_poly(rng, max_terms=3, max_exp=2)
        if min(f1.degree(0), f2.degree(0), g.degree(0)) < 1:
            continue
        lhs = bivariate_resultant(*ints(f1 * f2, g), 0)
        rhs = umul(bivariate_resultant(*ints(f1, g), 0), bivariate_resultant(*ints(f2, g), 0))
        assert utrim(lhs) == utrim(rhs)


def test_resultant_common_factor_vanishes():
    x, y = x_y()
    shared = x - y
    f, g = ints(shared * (x + y + 1), shared * (x + 2 * y + 3))
    assert bivariate_resultant(f, g, 0) == []
    assert bivariate_resultant(f, g, 1) == []


def test_resultant_eliminate_other_axis():
    x, y = x_y()
    # same geometry, eliminating y instead: x^2 + x^2 = 2x^2
    assert bivariate_resultant(*ints(x ** 2 + y ** 2, x - y), 1) == [0, 0, 2]


def test_resultant_rejects_bad_input():
    x, y = x_y()
    with pytest.raises(ValueError):
        bivariate_resultant(IntPoly({}), (x - y).int(), 0)
    with pytest.raises(ValueError):
        bivariate_resultant((x - y).int(), IntPoly({}), 1)


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
    got = usubresultants_int(a, b)[0]
    assert isinstance(got, int)
    assert got == det_bareiss_int(sylvester(a, b))


@settings(deadline=None)
@given(int_upoly(max_deg=3), int_upoly(max_deg=4), int_upoly(max_deg=4))
def test_uresultant_int_common_factor_vanishes(common, p, q):
    if len(common) < 2:
        common = common + [1]
    assert usubresultants_int(umul(common, p), umul(common, q))[0] == 0


@settings(deadline=None)
@given(st.integers(1, 9), st.integers(-20, 20).filter(bool),
       st.integers(1, 9), st.integers(-20, 20).filter(bool), st.integers(-5, 5).filter(bool))
def test_uresultant_int_sparse_binomials(m, c, n, d, lead):
    a = [c] + [0] * (m - 1) + [lead]
    b = [d] + [0] * (n - 1) + [1]
    assert usubresultants_int(a, b)[0] == det_bareiss_int(sylvester(a, b))
    assert usubresultants_int(b, a)[0] == (-1) ** (m * n) * usubresultants_int(a, b)[0]


def test_uresultant_int_zero_operand():
    assert usubresultants_int([], [1, 2])[0] == 0
    assert usubresultants_int([0, 0], [1, 2])[0] == 0


def first_subresultant(a, b):
    """[S10, S11] of ascending lists a, b (lengths p + 1, q + 1, q >= 2) from the
    determinant definition: the rows x^(q-2)*a, ..., a, x^(p-2)*b, ..., b, the
    columns of x^(p+q-2) down to x^2, then that of x^k for S1k."""
    p, q = len(a) - 1, len(b) - 1
    rows = [[0] * s + a + [0] * (p + q - 1 - s - len(a)) for s in range(q - 2, -1, -1)]
    rows += [[0] * s + b + [0] * (p + q - 1 - s - len(b)) for s in range(p - 2, -1, -1)]
    return [det_bareiss_int([[r[c] for c in range(p + q - 2, 1, -1)] + [r[k]] for r in rows])
            for k in (0, 1)]


@st.composite
def subresultant_pairs(draw):
    """Integer pairs of degrees p >= q >= 2, half of them with a common factor
    or sparse enough that the chain skips degrees (a defective chain)."""
    a, b = draw(int_upoly(max_deg=7)), draw(int_upoly(max_deg=6))
    kind = draw(st.sampled_from(["plain", "common", "sparse"]))
    if kind == "common":
        common = draw(int_upoly(max_deg=2, lo=-3, hi=3))
        a, b = umul(a, common + [1]), umul(b, common + [1])
    elif kind == "sparse":
        a = [c if draw(st.booleans()) else 0 for c in a[:-1]] + a[-1:]
        b = [c if draw(st.booleans()) else 0 for c in b[:-1]] + b[-1:]
    a, b = (a, b) if len(a) >= len(b) else (b, a)
    assume(len(b) >= 3)
    return a, b


@settings(deadline=None, max_examples=300)
@given(subresultant_pairs())
@example(([1, 0, 0, 0, 1], [0, 0, 1]))  # x^4 + 1 against x^2: the chain skips degree 1
@example(([-1, 0, 1], [-1, 0, 1]))  # equal polynomials: everything below vanishes
@example(([2, 3, 1, 0, 0, 1], [1, 0, 0, 1]))  # x^5 ... against x^3 + 1, gap in the middle
def test_first_subresultant_matches_determinants(pair):
    a, b = pair
    res, s1 = usubresultants_int(a, b)
    assert res == det_bareiss_int(sylvester(a, b))
    assert s1 + [0] * (2 - len(s1)) == first_subresultant(a, b)
    # swapping the operands moves q - 1 rows past p - 1 rows
    p, q = len(a) - 1, len(b) - 1
    swapped = usubresultants_int(b, a)[1]
    assert swapped == [(-1) ** ((p - 1) * (q - 1)) * c for c in s1]


def test_first_subresultant_low_degree_conventions():
    # q = 1: the determinants give lc(b)^(p-2) * b; p = q = 1 gives b
    a, b = [1, 0, 0, 1], [3, 2]
    assert usubresultants_int(a, b) == (det_bareiss_int(sylvester(a, b)), [6, 4])
    assert usubresultants_int([5, 7], [3, 2])[1] == [3, 2]
    # q = 0: a linear a is the gcd on every fiber, higher degrees have none
    assert usubresultants_int([1, 2], [4]) == (4, [1, 2])
    assert usubresultants_int([1, 0, 2], [4]) == (16, [])
    assert usubresultants_int([], [1, 2]) == (0, [])


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
    return Q(terms)


def test_fraction_interpolate_reference():
    assert fraction_interpolate([(Fraction(t), Fraction(t * t - 3)) for t in (0, 1, -1)]) == [-3, 0, 1]


def _check_against_reference(f, g, eliminate):
    f, g = ints(f, g)
    got = bivariate_resultant(f, g, eliminate)
    assert got == reference_resultant(Q.of(f), Q.of(g), eliminate)
    assert all(type(c) is int for c in got)


@settings(deadline=None, max_examples=60)
@given(bivariate_polys(), bivariate_polys(), st.sampled_from([0, 1]))
def test_resultant_matches_sylvester_reference(f, g, eliminate):
    _check_against_reference(f, g, eliminate)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([0, 1, 2, 3]), st.booleans(),
       bivariate_polys(max_exp=2), bivariate_polys(max_exp=1), st.sampled_from([0, 1]))
def test_resultant_leading_coefficient_vanishing_at_nodes(r, square, f_low, g_low, eliminate):
    # both leading coefficients are t^2 - r^2 or t - r, which vanish at small
    # integers: the reference takes the padded determinant there, and the
    # one chain at 2**k must keep them nonzero
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


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([0, 1, 2]), bivariate_polys(max_exp=2), bivariate_polys(max_exp=2))
def test_bivariate_subresultants_match_determinants_at_every_x(r, f_low, g_low):
    # leading coefficients in y vanish at x = r and x = -r, where the chain
    # on the specialized rows would drop a degree, yet S1 must match its
    # generic-size determinant there too
    x, y = x_y()
    f = (x * x - r * r) * y ** 4 + f_low * y
    g = (x - r) * y ** 3 + Fraction(2, 5) * g_low
    frows, grows = rows_in(f, 1), rows_in(g, 1)
    res, s10, s11 = bivariate_subresultants(frows, grows)
    for t in range(-3, 4):
        a = [ueval(row, t) for row in frows]
        b = [ueval(row, t) for row in grows]
        assert ueval(res, t) == det_bareiss_int(sylvester(a, b))
        assert [ueval(s10, t), ueval(s11, t)] == first_subresultant(a, b)
    assert res == bivariate_resultant(*ints(f, g), 1)


@settings(deadline=None, max_examples=80)
@given(bivariate_polys(max_exp=4), bivariate_polys(max_exp=4), st.sampled_from([0, 1]))
def test_bivariate_subresultants_interpolate_enough_nodes(f, g, eliminate):
    # a digit read off too small a power of two spills into its neighbours;
    # the values are checked at small t and at t = +-40..45, where every
    # coefficient counts
    frows, grows = rows_in(f, eliminate), rows_in(g, eliminate)
    assume(min(len(frows), len(grows)) >= 3)
    res, s10, s11 = bivariate_subresultants(frows, grows)
    for t in [*range(-6, 7), *range(40, 46), *range(-45, -39)]:
        a = [ueval(row, t) for row in frows]
        b = [ueval(row, t) for row in grows]
        assert ueval(res, t) == det_bareiss_int(sylvester(a, b))
        assert [ueval(s10, t), ueval(s11, t)] == first_subresultant(a, b)


# -- one chain at 2**k (Kronecker substitution) against chains at small nodes --


def chains_at_nodes(f, g, eliminate):
    """(res, s10, s11) as Fraction lists from one usubresultants_int chain at
    each small integer where neither leading row vanishes, interpolated over
    as many nodes as any of the three can have coefficients."""
    frows, grows = rows_in(f, eliminate), rows_in(g, eliminate)
    d1, d2 = len(frows) - 1, len(grows) - 1
    ef, eg = (max(len(row) - 1 for row in rows) for rows in (frows, grows))
    bound = max(d2 * ef + d1 * eg, ef, eg)
    values = []
    for t in range(-bound - ef - eg - 1, bound + ef + eg + 2):
        a = [ueval(row, t) for row in frows]
        b = [ueval(row, t) for row in grows]
        if a[-1] and b[-1]:
            res, s1 = usubresultants_int(a, b)
            values.append((t, res, *s1, *[0] * (2 - len(s1))))
    values = values[: bound + 1]
    assert len(values) == bound + 1
    return tuple(fraction_interpolate([(Fraction(v[0]), v[i]) for v in values]) for i in (1, 2, 3))


def in_t(draw, max_deg, bound):
    """A polynomial in the kept variable t alone, as a bivariate Q."""
    coeffs = draw(st.lists(st.integers(-bound, bound), min_size=1, max_size=max_deg + 1))
    return Q({(e, 0): c for e, c in enumerate(coeffs)})


@st.composite
def elimination_pairs(draw):
    """(f, g), in the variable y eliminated against x: plain pairs, leading
    rows that vanish at the small nodes, one side free of y against large
    coefficients on the other, a side linear in y, and pairs with a common
    factor in y (a zero resultant); f and g in either order."""
    x, y = x_y()
    kind = draw(st.sampled_from(["plain", "vanishing", "free", "linear", "common"]))
    if kind == "plain":
        f, g = draw(bivariate_polys()), draw(bivariate_polys())
    elif kind == "vanishing":
        r = draw(st.integers(0, 3))
        lead = x * x - r * r if draw(st.booleans()) else x - r
        f = lead * y ** draw(st.integers(1, 4)) + draw(bivariate_polys(max_exp=2))
        g = lead * y ** draw(st.integers(1, 3)) + draw(bivariate_polys(max_exp=1))
    elif kind == "free":
        big = 10 ** draw(st.integers(1, 12))
        f = sum((in_t(draw, 2, big) * y ** e for e in range(draw(st.integers(1, 3)) + 1)), Q())
        g = in_t(draw, 2, 9)
    elif kind == "linear":
        f = draw(bivariate_polys())
        g = in_t(draw, 3, 50) * y + in_t(draw, 3, 50)
    else:
        common = y + in_t(draw, 2, 5)
        f, g = common * draw(bivariate_polys(max_exp=2)), common * draw(bivariate_polys(max_exp=2))
    assume(f.terms and g.terms)
    return (f, g) if draw(st.booleans()) else (g, f)


@settings(deadline=None, max_examples=200)
@given(elimination_pairs())
@example((100 * x_y()[1] + 37, Q({(0, 0): 3})))  # |G|_1**d1 alone bounds S1 = F by 1
@example((Q({(0, 0): 3}), 100 * x_y()[1] + 37))  # and the swapped case, S1 = G
@example(((x_y()[0] - 1) * x_y()[1] ** 2 + 5, (x_y()[0] - 1) * x_y()[1] + 2))  # lead vanishes at t = 1
@example((x_y()[1] ** 2 - x_y()[0], x_y()[1] * (x_y()[1] ** 2 - x_y()[0])))  # zero resultant
def test_one_chain_at_a_power_of_two_matches_the_nodes(pair):
    f, g = pair
    packed = bivariate_subresultants(rows_in(f, 1), rows_in(g, 1))
    assert packed == chains_at_nodes(f, g, 1)
    assert all(type(c) is int for part in packed for c in part)


# A planar master dual of a square system in 4 variables: its cleared pair has
# degrees 6 and 11 in t, R of degree 66, and a packed size near 53k bits.
PLANAR_DUAL = {
    "variables": ["s", "t"],
    "forms": [
        {"constant": "24/19", "coeffs": ["-11/19", "6/19"]},
        {"constant": "-135/19", "coeffs": ["283/57", "-106/57"]},
        {"constant": "143/19", "coeffs": ["-332/57", "74/57"]},
        {"constant": "15/19", "coeffs": ["-23/57", "35/57"]},
        {"constant": "0", "coeffs": ["1", "0"]},
        {"constant": "0", "coeffs": ["0", "1"]},
    ],
    "weights": [[1, 2, -4, -2, 2, 1], [3, 2, 0, 0, -4, 6]],
}


def test_large_pair_matches_the_determinants():
    master = parse_system(PLANAR_DUAL)
    f, g = (clear_denominators(master, j).expand_difference(master.arrangement) for j in range(2))
    frows, grows = f.rows, g.rows
    res, s10, s11 = bivariate_subresultants(frows, grows)
    assert len(res) - 1 == 66
    for t in (-2, 1, 7):
        a = [ueval(row, t) for row in frows]
        b = [ueval(row, t) for row in grows]
        assert ueval(res, t) == det_bareiss_int(sylvester(a, b))
        assert [ueval(s10, t), ueval(s11, t)] == first_subresultant(a, b)


def test_large_pair_squarefree_split():
    # R times a sextic power: the gcds of Yun's steps are decided by GCDHEU
    master = parse_system(PLANAR_DUAL)
    f, g = (clear_denominators(master, j).expand_difference(master.arrangement) for j in range(2))
    res = bivariate_subresultants(f.rows, g.rows)[0]
    target = res
    for _ in range(6):
        target = umul(target, [7, -3, 5])
    primitive = _primitive(res) if res[-1] > 0 else [-c for c in _primitive(res)]
    assert usquarefree_int(target) == [(primitive, 1), ([7, -3, 5], 6)]


def test_large_pair_solves_with_every_root():
    sols = solve_master(parse_system(PLANAR_DUAL))
    assert (sols.count, sols.total_multiplicity, sols.real_count) == (66, 66, 2)


# -- integer squarefree decomposition ---------------------------------------------


def fraction_gcd(a, b):
    """Monic Euclidean gcd over Q in Fraction arithmetic."""
    a, b = utrim(a), utrim(b)
    while b:
        a, b = b, utrim(udivmod(a, b)[1])
    return [c / a[-1] for c in a] if a else []


def fraction_yun(coeffs):
    """Yun's algorithm over Q in Fraction arithmetic, the reference for usquarefree."""
    f = utrim([Fraction(c) for c in coeffs])
    if udeg(f) < 1:
        return []

    def minus(p, q):
        n = max(len(p), len(q))
        return utrim([u - v for u, v in zip(p + [0] * (n - len(p)), q + [0] * (n - len(q)))])

    a = fraction_gcd(f, uderiv(f))
    b = udivmod(f, a)[0]
    d = minus(udivmod(uderiv(f), a)[0], uderiv(b))
    out = []
    mult = 1
    while udeg(b) >= 1:
        g = fraction_gcd(b, d)
        if udeg(g) >= 1:
            out.append((g, mult))
        b = udivmod(b, g)[0]
        d = minus(udivmod(d, g)[0], uderiv(b))
        mult += 1
    return out


@settings(deadline=None, max_examples=80)
@given(
    st.lists(st.tuples(int_upoly(max_deg=3, lo=-6, hi=6), st.integers(1, 3)), min_size=1, max_size=4),
    st.fractions(min_value=-20, max_value=20, max_denominator=9).filter(bool),
)
@example([([-1, 1], 2), ([2, 1], 1)], Fraction(1))  # (x-1)^2 (x+2), ints
@example([([1, 0, 1], 3)], Fraction(-5, 3))  # a cube, Fraction coefficients
@example([([3], 2)], Fraction(7))  # a constant
# x**k, split off before Yun's steps: k below, equal to and above the other
# multiplicities, between two of them, and alone
@example([([0, 1], 1), ([-1, 1], 2), ([2, 1], 3)], Fraction(1))
@example([([0, 1], 2), ([-1, 1], 2), ([2, 0, 1], 1)], Fraction(-3))
@example([([0, 1], 3), ([1, 1], 1)], Fraction(2, 7))
@example([([0, 1], 2), ([1, 1], 1), ([3, 1], 3)], Fraction(1))
@example([([0, 1], 3)], Fraction(5))
def test_usquarefree_matches_fraction_reference(factors, scale):
    target = [scale]
    for factor, mult in factors:
        for _ in range(mult):
            target = umul(target, factor)
    if scale.denominator == 1:
        target = [int(c) for c in target]  # integer input
    parts = usquarefree(target)
    assert parts == fraction_yun(target)
    assert all(type(c) is Fraction for factor, _ in parts for c in factor)
    # the integer form: the same factors, primitive with positive leading coefficients
    numerators = [c.numerator * (scale.denominator // c.denominator) for c in map(Fraction, target)]
    int_parts = usquarefree_int(numerators)
    assert [m for _, m in int_parts] == [m for _, m in parts]
    for (g, _), (monic, _) in zip(int_parts, parts):
        assert all(type(c) is int for c in g) and g[-1] > 0 and _primitive(g) == g
        assert [Fraction(c, g[-1]) for c in g] == monic


def reference_usquarefree_int(coeffs):
    """usquarefree_int with Yun's steps run on every input, squarefree or
    not: the reference for its shortcut on squarefree inputs."""
    f = _primitive(coeffs)
    k = next((i for i, c in enumerate(f) if c), 0)
    f = f[k:]
    parts = {}
    if len(f) > 1:
        fp = uderiv(f)
        a = _gcd_int(f, fp)
        b = udivexact(f, a)
        d = _usub(udivexact(fp, a), uderiv(b))
        mult = 1
        while len(b) > 1:
            g = _gcd_int(b, d)
            if len(g) > 1:
                parts[mult] = g
            b = udivexact(b, g)
            d = _usub(udivexact(d, g), uderiv(b))
            mult += 1
    if k:
        parts[k] = [0] + parts.get(k, [1])
    return [(parts[m], m) for m in sorted(parts)]


@settings(deadline=None, max_examples=150)
@given(
    st.lists(st.tuples(int_upoly(max_deg=3, lo=-20, hi=20).filter(lambda c: len(c) > 1), st.integers(1, 3)),
             max_size=3),
    st.integers(0, 3),
    st.integers(-6, 6).filter(bool),
)
@example([([1, 2, -3], 1)], 0, -1)  # squarefree, negative leading coefficient
@example([([1, 2, -3], 1)], 2, 5)  # squarefree times x**2
@example([([1, 2, -3], 1)], 1, 1)  # squarefree times x: x joins the factor
@example([([3, -1], 2), ([1, 0, 1], 1)], 0, -2)  # a planted square
@example([([0, 1], 1)], 0, 1)  # x alone
@example([], 3, -4)  # x**3 alone
def test_usquarefree_int_matches_its_reference(factors, k, lead):
    target = [0] * k + [lead]
    for factor, mult in factors:
        for _ in range(mult):
            target = umul(target, factor)
    assert usquarefree_int(target) == reference_usquarefree_int(target)


# -- integer gcd: coprimality modulo a prime ---------------------------------------


def prs_gcd(f, g):
    """The primitive gcd with a positive leading coefficient by the primitive
    pseudo-remainder sequence alone, the reference for _gcd_int."""
    f, g = _primitive(utrim(f)), _primitive(utrim(g))
    if len(f) < len(g):
        f, g = g, f
    while g:
        f, g = g, _primitive(_prem(f, g))
    return f if not f or f[-1] > 0 else [-c for c in f]


@settings(deadline=None, max_examples=150)
@given(int_upoly(max_deg=6), int_upoly(max_deg=6))
def test_gcd_int_matches_prs_reference(f, g):
    assert _gcd_int(f, g) == prs_gcd(f, g)


@settings(deadline=None, max_examples=150)
@given(int_upoly(max_deg=3, lo=-30, hi=30).filter(lambda c: len(c) > 1),
       int_upoly(max_deg=4), int_upoly(max_deg=4))
def test_planted_common_factor_is_never_coprime(common, u, v):
    f, g = umul(common, u), umul(common, v)
    d = _gcd_int(f, g)
    assert len(d) > 1
    assert d == prs_gcd(f, g)
    # the planted factor divides the gcd
    assert not utrim(udivmod(d, common)[1])


def test_leading_coefficients_divisible_by_a_prime_skip_it(monkeypatch):
    used = []
    coprime_mod = polynomials._coprime_mod

    def spy(f, g, p):
        used.append(p)
        return coprime_mod(f, g, p)

    monkeypatch.setattr(polynomials, "_coprime_mod", spy)
    first, second = _PRIMES[:2]
    f, g = [1, 2, 3 * first], [5, -1, 7]  # coprime; p0 divides lc(f)
    assert _gcd_int(f, g) == [1]
    assert used == [second]
    # a common factor x + 1: the third prime finds it, and the primitive
    # pseudo-remainder sequence returns it
    f, g = umul([1, 1], [2, first * second]), umul([1, 1], [-3, 1])
    used.clear()
    assert _gcd_int(f, g) == [1, 1]
    assert used == [_PRIMES[2]]
    # with lc(f) a multiple of every prime, the sequence alone decides
    f = umul([1, 1], [2, math.prod(_PRIMES)])
    for g in ([5, -1, 7], umul([1, 1], [-3, 1])):
        used.clear()
        assert _gcd_int(f, g) == prs_gcd(f, g)
        assert used == []


def test_unlucky_prime_falls_back_to_prs():
    # x + 1 and x + 1 + p are coprime over Q but equal modulo p
    p = _PRIMES[0]
    assert not polynomials._coprime_mod([1, 1], [1 + p, 1], p)
    assert _gcd_int([1, 1], [1 + p, 1]) == [1]


def reference_coprime_mod(f, g, p):
    """_coprime_mod with each division step rebuilding the remainder's top
    part, zero quotients included: its reference."""
    a, b = [c % p for c in f], [c % p for c in g]
    while len(b) > 1:
        inv, db = pow(b[-1], -1, p), len(b) - 1
        while len(a) > db:
            q = a.pop() * inv % p
            shift = len(a) - db
            a[shift:] = [(u - q * v) % p for u, v in zip(a[shift:], b)]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return len(b) == 1


@settings(deadline=None, max_examples=200)
@given(int_upoly(max_deg=7, lo=-2 ** 40, hi=2 ** 40), int_upoly(max_deg=7, lo=-2 ** 40, hi=2 ** 40),
       int_upoly(max_deg=3).filter(lambda c: len(c) > 1), st.sampled_from(("none", "common", "mod p")),
       st.sampled_from(_PRIMES + (3, 5, 7)), st.integers(-3, 3))
@example([1], [1], [1, 1], "mod p", _PRIMES[0], 1)  # x + 1 against x + 1 + p
@example([1], [1], [0, 1], "mod p", 3, -1)  # x against x - 3
def test_coprime_mod_matches_its_reference(u, v, common, plant, p, shift):
    """Planted common factors are never coprime; a factor common modulo p
    only (its copy in g moved by shift * p) is never coprime modulo p."""
    f, g = u, v
    if plant == "common":
        f, g = umul(common, u), umul(common, v)
    elif plant == "mod p":
        f, g = umul(common, u), umul([c + shift * p for c in common], v)
    assume(f and g and f[-1] % p and g[-1] % p)
    got = _coprime_mod(f, g, p)
    assert got == reference_coprime_mod(f, g, p)
    if plant != "none":
        assert not got


# -- integer gcd: the heuristic gcd (GCDHEU) ---------------------------------------

big = st.integers(-2 ** 200, 2 ** 200)


@settings(deadline=None, max_examples=100)
@given(st.lists(big, min_size=2, max_size=4).filter(lambda c: c[-1]),
       st.lists(big, min_size=1, max_size=4).filter(lambda c: c[-1]),
       st.lists(big, min_size=1, max_size=4).filter(lambda c: c[-1]))
def test_gcd_int_matches_prs_on_planted_factors_with_large_coefficients(common, u, v):
    f, g = umul(common, u), umul(common, v)
    f, g = (p if p[-1] > 0 else [-c for c in p] for p in (f, g))
    d = _gcd_int(f, g)
    assert d == prs_gcd(f, g)
    assert not utrim(udivmod(d, common)[1])


def test_heuristic_gcd_exhausts_its_tries_and_prs_decides(monkeypatch):
    # g = (x + 1)(x**2 + 1) has norm 1, so the evaluation points are 4, 10,
    # 27, ...; f = (x + 1) times x - xi for each of them vanishes at every
    # one, and each candidate is g itself, which does not divide f
    xis = [4]
    while len(xis) < polynomials._HEURISTIC_TRIES:
        xis.append(xis[-1] * 73794 // 27011)
    f, g = [1, 1], umul([1, 1], [1, 0, 1])
    for xi in xis:
        f = umul(f, [-xi, 1])
    bases = []
    digits = polynomials._balanced_digits
    monkeypatch.setattr(polynomials, "_balanced_digits", lambda n, base: bases.append(base) or digits(n, base))
    assert _gcd_heuristic(f, g) is None
    assert bases == xis
    assert _gcd_int(f, g) == prs_gcd(f, g) == [1, 1]


def test_heuristic_gcd_rejects_a_wrong_candidate(monkeypatch):
    # the cofactors x + 1 and 2 - x share the factor 3 at the first point
    # xi = 2**71 + 12, and 3 times the middle coefficient 2**70 is past
    # xi/2, so the first candidate's digits are wrong: division rejects it
    # and a later point gives the gcd
    common = [3, 2 ** 70, 5]
    f, g = umul(common, [1, 1]), umul(common, [2, -1])
    bases = []
    digits = polynomials._balanced_digits
    monkeypatch.setattr(polynomials, "_balanced_digits", lambda n, base: bases.append(base) or digits(n, base))
    assert _gcd_heuristic(f, g) == common == prs_gcd(f, g)
    assert bases[0] == 2 ** 71 + 12 and len(bases) > 1


def reference_balanced_digits(n, base):
    """_balanced_digits by divmod for every base: its reference."""
    digits, half = [], (base + 1) // 2
    while n:
        n, digit = divmod(n, base)
        if digit >= half:
            digit -= base
            n += 1
        digits.append(digit)
    return digits


@settings(deadline=None, max_examples=200)
@given(st.integers(-(2 ** 400), 2 ** 400),
       st.one_of(st.integers(2, 90).map(lambda k: 1 << k), st.integers(3, 2 ** 80)))
@example(0, 1 << 7)
@example(0, 27)
@example(-1, 4)
@example(2 ** 300, 3)
@example(-(2 ** 300) + 1, 1 << 2)
@example(-(2 ** 120), 1 << 40)
@example(2 ** 119, 1 << 40)  # a digit of exactly base/2 carries
def test_balanced_digits_round_trip(n, base):
    digits = _balanced_digits(n, base)
    assert ueval(digits, base) == n
    assert all(-base <= 2 * d < base for d in digits)
    assert not digits or digits[-1]
    assert digits == reference_balanced_digits(n, base)


@pytest.mark.parametrize("base", [2, 1, 0, -4])
def test_balanced_digits_reject_bases_below_3(base):
    # base 2's digits, -1 and 0, cannot write a positive number: the loop used never to end
    with pytest.raises(ValueError, match="at least 3"):
        _balanced_digits(1, base)


# -- restriction to a line ----------------------------------------------------------


def proportional(u, v):
    """Whether u = r * v for one nonzero rational r; the empty list matches itself."""
    if not u or not v:
        return not u and not v
    ratio = Fraction(u[-1]) / v[-1]
    return len(u) == len(v) and all(Fraction(a) == ratio * b for a, b in zip(u, v))


def reference_line_restriction(rows, line):
    """line_restriction with each Horner step a product by the line's form
    and a difference: its reference."""
    var = 1 if line[2] else 0
    c, k, m = line[0], line[2 - var], line[1 + var]
    out, scale = rows[-1], 1
    for row in reversed(rows[:-1]):
        scale *= m
        out = _usub([scale * r for r in row], umul(out, [c, k]))
    return _primitive(out)


lines = st.tuples(
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
).filter(lambda line: line[1] or line[2])


@settings(deadline=None, max_examples=120)
@given(bivariate_polys(), lines, st.booleans())
@example(Q({(2, 0): 1, (0, 0): -3}), (Fraction(1, 2), Fraction(-2, 3), Fraction(5)), False)  # no y
@example(Q({(1, 1): 2, (0, 2): 1}), (Fraction(1), Fraction(3), Fraction(-1)), False)  # sheared
@example(Q({(1, 1): 2, (0, 2): 1}), (Fraction(1), Fraction(3), Fraction(-1)), True)  # component
@example(Q({(1, 2): 1, (0, 0): 4}), (Fraction(-7, 3), Fraction(1), Fraction(0)), False)  # vertical
@example(Q({(1, 2): 1, (0, 0): 4}), (Fraction(0), Fraction(1), Fraction(0)), False)  # x = 0
@example(Q({(1, 2): 3, (2, 0): -1}), (Fraction(0), Fraction(2), Fraction(-5)), False)  # through 0
@example(Q({(1, 2): 3, (2, 0): -1}), (Fraction(0), Fraction(0), Fraction(1)), True)  # y = 0, a component
def test_line_restriction_is_the_resultant_against_the_line(p, line, component):
    den = lcm(*(v.denominator for v in line))
    c, a, b = (int(v * den) for v in line)
    x, y = x_y()
    form = c + a * x + b * y
    if component:
        p = p * form
    eliminate = 1 if b else 0
    got = line_restriction(rows_in(p, eliminate), (c, a, b))
    assert got == reference_line_restriction(rows_in(p, eliminate), (c, a, b))
    assert all(type(v) is int for v in got)
    assert got == _primitive(got)
    assert proportional(got, bivariate_resultant(*ints(p, form), eliminate))
    if component:
        assert got == []
