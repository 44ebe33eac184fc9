"""Exact integer lattice algebra, checked against brute-force oracles."""

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galedual.errors import DependentRowsError, NotPrimitiveError
from galedual.lattice import (
    IntMatrix,
    _lll,
    SystemShape,
    WeightBasis,
    hnf,
    kernel_basis,
    lll_reduce,
    quotient_images,
    saturation_index,
    smith_diagonal,
    snf,
    solve_integer,
)
from galedual.ratlinalg import det_bareiss_int, mat_det, mat_rank, rref


def frac_rows(rows):
    """Copy an iterable of row iterables into Fraction lists."""
    return [[Fraction(v) for v in row] for row in rows]


def solve_linear(rows, rhs):
    """One exact solution of A x = rhs, or None when inconsistent."""
    if not rows:
        return [] if all(v == 0 for v in rhs) else None
    ncols = len(rows[0])
    aug = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


def rand_matrix(rng, rows, cols, lo=-3, hi=3):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def rand_unimodular(rng, n):
    """Random product of elementary row operations applied to the identity."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for t in range(n):
            m[i][t] += c * m[j][t]
    if rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        m[i], m[j] = m[j], m[i]
    return IntMatrix.from_rows(m)


def exact_det(mat):
    return mat_det(frac_rows(mat.to_rows()))


def same_lattice(a, b):
    """Whether two row-generating sets span the same integer lattice: the
    nonzero rows of their Hermite normal forms agree."""
    return [r for r in hnf(a)[0].to_rows() if any(r)] == [r for r in hnf(b)[0].to_rows() if any(r)]


def in_row_lattice(mat, vector):
    """Whether vector is an integer combination of mat's rows."""
    return solve_integer(mat.transpose(), list(vector)) is not None


def test_intmatrix_basics():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert m.at(1, 0) == 3
    assert m.row(1) == (3, 4)
    assert m.column(1) == (2, 4)
    assert m.transpose().to_rows() == [[1, 3], [2, 4]]
    prod = m @ IntMatrix.identity(2)
    assert prod.to_rows() == m.to_rows()
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


@pytest.mark.parametrize("entry", [Fraction(3, 2), 2.9], ids=["fraction", "float"])
def test_from_rows_rejects_non_int_entries_instead_of_truncating(entry):
    with pytest.raises(ValueError, match="must be int"):
        IntMatrix.from_rows([[entry, 2]])


def test_hnf_transform_witness():
    rng = random.Random(11)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        h, u = hnf(m)
        assert (u @ m).to_rows() == h.to_rows()
        assert abs(exact_det(u)) == 1


def test_hnf_canonical_shape():
    rng = random.Random(12)
    for _ in range(150):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        h, _ = hnf(m)
        pivots = []
        for i in range(h.rows):
            row = h.row(i)
            nz = [c for c, v in enumerate(row) if v != 0]
            if not nz:
                # zero rows only at the bottom
                assert all(not any(h.row(t)) for t in range(i, h.rows))
                break
            c = nz[0]
            assert h.at(i, c) > 0
            if pivots:
                assert c > pivots[-1]
            for above in range(i):
                assert 0 <= h.at(above, c) < h.at(i, c)
            pivots.append(c)


def test_hnf_row_lattice_membership():
    # H rows and M rows generate each other over Z
    rng = random.Random(13)
    for _ in range(60):
        m = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 4))
        h, _ = hnf(m)
        for i in range(h.rows):
            assert in_row_lattice(m, h.row(i))
        for i in range(m.rows):
            assert in_row_lattice(h, m.row(i))


def test_hnf_unique_per_row_lattice():
    rng = random.Random(14)
    for _ in range(200):
        n = rng.randint(2, 4)
        m = rand_matrix(rng, n, rng.randint(n, 5))
        p = rand_unimodular(rng, n)
        h1, _ = hnf(m)
        h2, _ = hnf(p @ m)
        assert h1.to_rows() == h2.to_rows()


def test_hnf_known_matrix():
    m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    h, u = hnf(m)
    assert (u @ m).to_rows() == h.to_rows()
    # det preserved up to sign by unimodularity
    assert abs(exact_det(h)) == abs(exact_det(m)) == 624


def minor_gcds(mat):
    """gcd of all k x k minors for each k; the classic divisor oracle."""
    import math

    rows = frac_rows(mat.to_rows())
    m, n = len(rows), len(rows[0])
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                d = mat_det(sub)
                assert d.denominator == 1
                g = math.gcd(g, abs(int(d)))
        out.append(g)
    return out


def assert_smith_form(m):
    """snf(m) meets its contract; returns the nonzero divisors."""
    s, u, v = snf(m)
    assert (u @ m @ v).to_rows() == s.to_rows()
    if u.rows:
        assert abs(exact_det(u)) == 1
    if v.rows:
        assert abs(exact_det(v)) == 1
    diag = [s.at(t, t) for t in range(min(s.rows, s.cols))]
    for i in range(s.rows):
        for j in range(s.cols):
            if i != j:
                assert s.at(i, j) == 0
    nonzero = [d for d in diag if d != 0]
    assert all(d > 0 for d in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # zeros trail the chain
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))
    return nonzero


def test_snf_witnesses_and_chain():
    rng = random.Random(15)
    for _ in range(120):
        assert_smith_form(rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 4)))


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(2, 30), min_size=2, max_size=4), st.integers(0, 1),
       st.randoms(use_true_random=False))
@example([4, 6, 10], 0, random.Random(0))
@example([6, 4], 1, random.Random(1))
def test_snf_repairs_the_divisor_chain(diagonal, pad, rng):
    # d_k = g_k / g_(k-1), g_k the gcd of the products of k diagonal entries
    # (the k x k minors of a diagonal matrix)
    gcds = [1] + [gcd(*(prod(c) for c in combinations(diagonal, k)))
                  for k in range(1, len(diagonal) + 1)]
    n = len(diagonal)
    d = IntMatrix.from_rows([[diagonal[i] if i == j else 0 for j in range(n + pad)] for i in range(n)])
    m = rand_unimodular(rng, n) @ d @ rand_unimodular(rng, n + pad)
    assert assert_smith_form(m) == [b // a for a, b in zip(gcds, gcds[1:])]


def test_snf_divisors_match_minor_gcd_oracle():
    rng = random.Random(16)
    for _ in range(40):
        m = rand_matrix(rng, 3, 3, lo=-4, hi=4)
        gcds = minor_gcds(m)
        divisors = smith_diagonal(m)
        expected = []
        prev = 1
        for g in gcds:
            if g == 0:
                break
            expected.append(g // prev)
            prev = g
        assert divisors == expected, (m.to_rows(), divisors, expected)


def test_smith_diagonal_known():
    assert smith_diagonal(IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])) == [2, 2, 156]
    assert smith_diagonal(IntMatrix.identity(3)) == [1, 1, 1]
    assert smith_diagonal(IntMatrix.from_rows([[2, 4], [4, 8]])) == [2]
    assert smith_diagonal(IntMatrix.from_rows([[6, 0], [0, 10]])) == [2, 30]


@st.composite
def lattice_matrices(draw):
    """Integer matrices of 0 to 5 rows and 1 to 7 columns. A row is often an
    integer combination of earlier rows (so the rows are dependent) or a
    multiple of a fresh row (so the lattice is not primitive)."""
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(1, 7))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["fresh", "combination", "multiple"]))
        if kind == "combination" and rows:
            weights = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
            row = [sum(w * r[j] for w, r in zip(weights, rows)) for j in range(ncols)]
        else:
            row = draw(st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols))
            if kind == "multiple":
                factor = draw(st.integers(2, 6))
                row = [factor * x for x in row]
        rows.append(row)
    return IntMatrix.from_rows(rows, cols=ncols)


@settings(deadline=None, max_examples=300)
@given(lattice_matrices())
@example(IntMatrix.from_rows([[4, 0, 0], [0, 6, 0], [0, 0, 10]]))
@example(IntMatrix.from_rows([], cols=3))
@example(IntMatrix.from_rows([[2, 4, 6], [1, 2, 3]]))
def test_kernel_index_and_smith_agree(m):
    divisors = assert_smith_form(m)
    assert divisors == smith_diagonal(m)
    assert saturation_index(m) == (prod(divisors) if len(divisors) == m.rows else 0)
    k = kernel_basis(m)
    assert k.cols == m.cols
    assert (m @ k.transpose()).is_zero()
    assert k.rows == m.cols - mat_rank(m.to_rows())
    assert saturation_index(k) == 1


def test_kernel_annihilates_and_is_saturated_in_box():
    rng = random.Random(17)
    for _ in range(50):
        m = rand_matrix(rng, 2, 3)
        k = kernel_basis(m)
        assert (m @ k.transpose()).is_zero()
        assert k.rows == 3 - mat_rank(m.to_rows())
        # every kernel vector in the box is an integer combination of the basis
        for v in product(range(-8, 9), repeat=3):
            if any(v) and all(
                sum(m.at(i, j) * v[j] for j in range(3)) == 0 for i in range(m.rows)
            ):
                assert in_row_lattice(k, v), (m.to_rows(), v)


def test_kernel_wider_matrices():
    rng = random.Random(18)
    for _ in range(5):
        m = rand_matrix(rng, 2, 4, lo=-2, hi=2)
        k = kernel_basis(m)
        assert (m @ k.transpose()).is_zero()
        for v in product(range(-4, 5), repeat=4):
            if any(v) and all(
                sum(m.at(i, j) * v[j] for j in range(4)) == 0 for i in range(2)
            ):
                assert in_row_lattice(k, v)


def test_kernel_primitive_single_row():
    k = kernel_basis(IntMatrix.from_rows([[2, 4]]))
    assert same_lattice(k, IntMatrix.from_rows([[2, -1]]))


def test_saturation_index_known():
    assert saturation_index(IntMatrix.from_rows([[1, 0], [0, 1]])) == 1
    assert saturation_index(IntMatrix.from_rows([[2, 0], [0, 2]])) == 4
    assert saturation_index(IntMatrix.from_rows([[2, 4]])) == 2
    assert saturation_index(IntMatrix.from_rows([[-1, 3, 2, -2], [3, -1, 1, -3]])) == 1
    assert saturation_index(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0


def test_saturation_index_against_coordinate_determinant():
    # index of L inside its saturation = |det| of the coordinates of a basis
    # of L expressed in a basis of the saturation
    rng = random.Random(19)
    tried = 0
    while tried < 50:
        b = rand_matrix(rng, 2, 4)
        if mat_rank(b.to_rows()) != 2:
            continue
        tried += 1
        sat = kernel_basis(kernel_basis(b))
        coords = []
        for i in range(2):
            sol = solve_linear(frac_rows(sat.transpose().to_rows()),
                              [Fraction(x) for x in b.row(i)])
            assert sol is not None
            assert all(c.denominator == 1 for c in sol)
            coords.append([c for c in sol])
        assert abs(mat_det(coords)) == saturation_index(b)


def has_reduced_order(rows):
    """Whether some order of rows is size-reduced and meets Lovasz with delta 99/100."""

    def extend(order, star, norms):
        if len(order) == len(rows):
            return True
        for i in set(range(len(rows))) - set(order):
            mu = [sum(Fraction(x) * y for x, y in zip(rows[i], s)) / n for s, n in zip(star, norms)]
            if any(abs(m) > Fraction(1, 2) for m in mu):
                continue
            v = [Fraction(x) for x in rows[i]]
            for m, s in zip(mu, star):
                v = [x - m * y for x, y in zip(v, s)]
            n2 = sum(x * x for x in v)
            if order and n2 < (Fraction(99, 100) - mu[-1] ** 2) * norms[-1]:
                continue
            if extend(order + [i], star + [v], norms + [n2]):
                return True
        return False

    return extend([], [], [])


# 1 to 6 rows of 1 to 10 columns (at least as many as rows), entries in [-20, 20]
INTEGER_ROWS = st.integers(1, 6).flatmap(lambda r: st.integers(r, 10).flatmap(
    lambda c: st.lists(st.lists(st.integers(-20, 20), min_size=c, max_size=c),
                       min_size=r, max_size=r)))


@settings(deadline=None)
@given(INTEGER_ROWS)
def test_lll_reduce_properties(rows):
    matrix = IntMatrix.from_rows(rows)
    if mat_rank(matrix.to_rows()) < matrix.rows:
        with pytest.raises(DependentRowsError):
            lll_reduce(matrix)
        return
    reduced = lll_reduce(matrix)
    out = reduced.to_rows()
    assert same_lattice(reduced, matrix)
    assert all(next(x for x in r if x) > 0 for r in out)
    assert out == sorted(out, key=lambda r: (sum(x * x for x in r), r))
    assert has_reduced_order(out)
    assert lll_reduce(reduced) == reduced


def test_lll_reduce_undoes_what_sorting_breaks():
    # sorted by norm, (5,7,5) comes first and (10,0,0) is no longer size-reduced
    out = lll_reduce(IntMatrix.from_rows([[10, 0, 0], [5, 7, 5]]))
    assert out.to_rows() == [[5, -7, -5], [5, 7, 5]]
    # the worked example's HNF kernel reduces to the published weights
    kernel = kernel_basis(IntMatrix.from_rows([[3, 1, 4, 4], [2, 2, -1, 1]]))
    assert lll_reduce(kernel).to_rows() == [[1, -3, -2, 2], [3, -1, 1, -3]]


def fraction_lll(rows):
    """The Fraction LLL that _lll replaced, kept as its reference.

    star/norm hold the Gram-Schmidt vectors of rows 0..k-1 and their squared
    norms; round() takes a tie to the even neighbor.
    """
    b = [list(r) for r in rows]
    star, norm = [], []
    k = 0
    while k < len(b):
        del star[k:], norm[k:]
        for j in reversed(range(k)):
            r = round(sum(x * y for x, y in zip(b[k], star[j])) / norm[j])
            if r:
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
        v = [Fraction(x) for x in b[k]]
        for j in range(k):
            mu = sum(x * y for x, y in zip(b[k], star[j])) / norm[j]
            v = [x - mu * y for x, y in zip(v, star[j])]
        n2 = sum(x * x for x in v)
        if n2 == 0:
            raise DependentRowsError("rows are dependent over Q")
        if k and n2 < (Fraction(99, 100) - mu * mu) * norm[k - 1]:
            b[k - 1], b[k] = b[k], b[k - 1]
            k -= 1
        else:
            star.append(v)
            norm.append(n2)
            k += 1
    return b


def lll_or_dependent(lll, rows):
    try:
        return lll(rows)
    except DependentRowsError:
        return "dependent"


@st.composite
def lll_inputs(draw):
    """1 to 4 rows of 1 to 10 columns; sometimes one row is an integer
    combination of two others, so the rows are dependent."""
    cols = draw(st.integers(1, 10))
    bound = draw(st.sampled_from([3, 20, 1000]))
    entries = st.integers(-bound, bound)
    rows = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=1, max_size=4))
    if len(rows) > 2 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


@settings(max_examples=300, deadline=None)
@given(lll_inputs())
def test_integer_lll_matches_fraction_lll(rows):
    assert lll_or_dependent(_lll, rows) == lll_or_dependent(fraction_lll, rows)


@pytest.mark.parametrize("rows, reduced", [
    ([[2, 0], [1, 5]], [[2, 0], [1, 5]]),  # mu = 1/2 stays
    ([[2, 0], [-1, 5]], [[2, 0], [-1, 5]]),  # mu = -1/2 stays
    ([[2, 0], [3, 5]], [[2, 0], [-1, 5]]),  # mu = 3/2 rounds to 2
    ([[2, 0], [-3, 5]], [[2, 0], [1, 5]]),  # mu = -3/2 rounds to -2
    ([[2, 0, 0], [0, 2, 0], [1, 3, 5]], [[2, 0, 0], [0, 2, 0], [1, -1, 5]]),  # 3/2, then 1/2
])
def test_integer_lll_rounds_ties_to_even(rows, reduced):
    assert _lll(rows) == fraction_lll(rows) == reduced


def test_quotient_images_properties():
    rng = random.Random(21)
    shape = SystemShape(2, 0, 2)
    done = 0
    while done < 60:
        b = rand_matrix(rng, 2, 4, lo=-4, hi=4)
        if mat_rank(b.to_rows()) != 2 or saturation_index(b) != 1:
            continue
        done += 1
        images = quotient_images(WeightBasis(shape, b))
        w = images.matrix
        assert (w @ b.transpose()).is_zero()
        assert mat_rank(w.to_rows()) == 2
        # the quotient coordinates are onto: image columns generate Z^2
        assert saturation_index(w) == 1
        # double duality: the kernel of the images is exactly the weight lattice
        assert same_lattice(kernel_basis(w), b)


def test_quotient_images_is_the_hnf_kernel():
    rng = random.Random(23)
    done = 0
    while done < 60:
        rows, cols = rng.randint(1, 3), rng.randint(4, 6)
        b = rand_matrix(rng, rows, cols, lo=-4, hi=4)
        if saturation_index(b) != 1:
            continue
        done += 1
        shape = SystemShape(rows, 0, cols - rows)
        assert quotient_images(WeightBasis(shape, b)).matrix == kernel_basis(b)


def test_quotient_images_worked_example():
    shape = SystemShape(2, 0, 2)
    b = IntMatrix.from_rows([[-1, 3, 2, -2], [3, -1, 1, -3]])
    images = quotient_images(WeightBasis(shape, b))
    expected = IntMatrix.from_rows([[3, 1, 4, 4], [2, 2, -1, 1]])
    assert same_lattice(images.matrix, expected)


def test_quotient_images_rejects_bad_bases():
    shape = SystemShape(2, 0, 2)
    doubled = IntMatrix.from_rows([[-2, 6, 4, -4], [3, -1, 1, -3]])
    with pytest.raises(NotPrimitiveError) as err:
        quotient_images(WeightBasis(shape, doubled))
    assert err.value.index == 2
    dependent = IntMatrix.from_rows([[1, 2, 3, 4], [2, 4, 6, 8]])
    with pytest.raises(DependentRowsError):
        quotient_images(WeightBasis(shape, dependent))


def test_solve_integer_round_trip():
    rng = random.Random(22)
    for _ in range(80):
        m = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 4))
        x = [rng.randint(-5, 5) for _ in range(m.cols)]
        rhs = [sum(m.at(i, j) * x[j] for j in range(m.cols)) for i in range(m.rows)]
        sol = solve_integer(m, rhs)
        assert sol is not None
        assert [sum(m.at(i, j) * sol[j] for j in range(m.cols)) for i in range(m.rows)] == rhs


def test_solve_integer_obstructions():
    assert solve_integer(IntMatrix.from_rows([[2]]), [1]) is None
    assert solve_integer(IntMatrix.from_rows([[2, 4]]), [3]) is None
    assert solve_integer(IntMatrix.from_rows([[1, 0], [1, 0]]), [1, 2]) is None
    assert solve_integer(IntMatrix.from_rows([[2, 3]]), [1]) is not None


def test_system_shape_validation():
    shape = SystemShape(2, 0, 2)
    assert shape.num_forms == 4
    assert shape.torus_dim == 2
    assert shape.master_dim == 2
    with pytest.raises(ValueError):
        SystemShape(0, 0, 2).validate()
    with pytest.raises(ValueError):
        SystemShape(1, 0, 0).validate()
    with pytest.raises(ValueError):
        SystemShape(1, -1, 1).validate()


@st.composite
def rational_matrices(draw, square=False, integer=False):
    """Small Fraction and int matrices (int only with ``integer``), often
    with rows that are combinations of earlier rows, so the rank falls
    short, and with zero columns."""
    nrows = draw(st.integers(0, 5 if square else 6))
    ncols = nrows if square else draw(st.integers(1, 8))
    entry, weight = st.integers(-4, 4), st.integers(-3, 3)
    if not integer:
        entry = st.one_of(entry, st.fractions(-4, 4, max_denominator=5))
        weight = st.fractions(-3, 3, max_denominator=4)
    zero = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=ncols))
    rows = []
    for _ in range(nrows):
        if rows and draw(st.booleans()):
            weights = draw(st.lists(weight, min_size=len(rows), max_size=len(rows)))
            row = [sum(w * r[j] for w, r in zip(weights, rows)) for j in range(ncols)]
        else:
            row = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        rows.append([0 if j in zero else v for j, v in enumerate(row)])
    return rows


# References kept here on purpose: Fraction Gauss-Jordan elimination and the
# Leibniz formula, with nothing of ratlinalg's fraction-free elimination.


def gauss_jordan(rows):
    """(R, pivot_columns): the reduced row echelon form over Fractions."""
    a = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def leibniz_det(rows):
    total = 0
    for perm in permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(perm)), 2))
        total += (-1) ** inversions * prod(row[k] for row, k in zip(rows, perm))
    return total


@settings(deadline=None, max_examples=300)
@given(rational_matrices())
@example([])
@example([[0], [0]])
@example([[0], [Fraction(3, 2)], [-2]])
@example([[1, 2, 0, 3], [2, 4, 0, 6], [0, 0, 0, 0]])
def test_mat_rank_matches_rref(rows):
    red, pivots = gauss_jordan(rows)
    assert rref(rows) == (red, pivots)
    assert all(type(v) is Fraction for row in rref(rows)[0] for v in row)
    assert mat_rank(rows) == len(pivots)


@settings(deadline=None, max_examples=200)
@given(rational_matrices(square=True, integer=True))
@example([])
@example([[0]])
@example([[0, 1], [1, 0]])
def test_det_bareiss_int_matches_leibniz(rows):
    assert det_bareiss_int(rows) == leibniz_det(rows)


@settings(deadline=None, max_examples=100)
@given(rational_matrices(square=True))
def test_mat_det_matches_leibniz(rows):
    assert mat_det(rows) == leibniz_det(rows)
