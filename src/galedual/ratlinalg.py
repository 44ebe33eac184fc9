"""Dense exact linear algebra over Fraction, and fraction-free integer
determinants and ranks.

Matrices are plain list-of-lists. They are small here (weight and support
matrices, coordinate changes), so no attempt is made at asymptotic
cleverness. Resultants do not come through this module: ``polynomials``
computes them with an integer subresultant per interpolation node.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def frac_rows(rows):
    """Copy an iterable of row iterables into Fraction lists."""
    return [[Fraction(v) for v in row] for row in rows]


def mat_det(rows):
    """Determinant over Q: det_bareiss_int of the rows scaled to integers."""
    ints, scale = _integer_rows(rows)
    return Fraction(det_bareiss_int(ints), scale)


def _integer_rows(rows):
    """Each row times the lcm of its entries' denominators, and the product
    of those lcms. Entries are ints or Fractions."""
    ints, scale = [], 1
    for row in rows:
        den = lcm(*(v.denominator for v in row))
        ints.append([v.numerator * (den // v.denominator) for v in row])
        scale *= den
    return ints, scale


def det_bareiss_int(rows):
    """Determinant of an integer matrix by fraction-free Bareiss elimination.

    Keeps every intermediate value an integer, which is much faster than
    Fraction arithmetic once entries grow.
    """
    a = [[int(v) for v in row] for row in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for c in range(n - 1):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                a[i][j] = (a[i][j] * a[c][c] - a[i][c] * a[c][j]) // prev
            a[i][c] = 0
        prev = a[c][c]
    return sign * a[n - 1][n - 1]


def rref(rows):
    """Reduced row echelon form.

    Returns (R, pivot_columns). Zero rows are kept at the bottom.
    """
    a = frac_rows(rows)
    if not a:
        return a, []
    ncols = len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                factor = a[i][c]
                a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def mat_rank(rows):
    """Rank over Q by fraction-free (Bareiss) elimination on the rows scaled
    to integers, which keeps the rank. Every entry below the pivot rows is
    then a minor of the scaled matrix, so each division is exact."""
    a, _ = _integer_rows(rows)
    rank, prev = 0, 1
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        for i in range(rank + 1, len(a)):
            lead = a[i][c]
            a[i] = [(top[c] * x - lead * y) // prev for x, y in zip(a[i], top)]
        prev = top[c]
        rank += 1
    return rank


def mat_inverse(rows):
    """Exact inverse; raises ValueError when singular."""
    n = len(rows)
    a = frac_rows(rows)
    if any(len(r) != n for r in a):
        raise ValueError("inverse needs a square matrix")
    aug = [a[i] + [Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def mat_mul(a, b):
    if not a:
        return []
    inner = len(a[0])
    if inner != len(b):
        raise ValueError("shape mismatch in matrix product")
    bcols = len(b[0]) if b else 0
    return [
        [sum(row[t] * b[t][j] for t in range(inner)) for j in range(bcols)]
        for row in a
    ]


def right_kernel(rows, ncols=None):
    """Basis of {v : A v = 0} over Q, one kernel vector per returned row.

    The basis is the standard reduced one: each vector has a 1 in its free
    column and zeros in the other free columns.
    """
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("empty matrix needs an explicit column count")
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def row_space_equal(rows_a, rows_b):
    """Whether two row sets span the same subspace of Q^n."""
    ra, pa = rref(rows_a)
    rb, pb = rref(rows_b)
    keep_a = [row for row in ra if any(row)]
    keep_b = [row for row in rb if any(row)]
    return keep_a == keep_b


def solve_mod2(rows, rhs):
    """One solution of A x = rhs over GF(2), or None.

    Inputs are plain ints; only parity matters.
    """
    m = len(rows)
    a = [[v & 1 for v in row] + [rhs[i] & 1] for i, row in enumerate(rows)]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(m):
            if i != r and a[i][c]:
                a[i] = [x ^ y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    for i in range(r, m):
        if a[i][ncols]:
            return None
    x = [0] * ncols
    for r_i, c in enumerate(pivots):
        x[c] = a[r_i][ncols]
    return x
