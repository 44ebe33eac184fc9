"""Dense exact linear algebra over Q, eliminating in integers.

Matrices are plain list-of-lists of ints and Fractions. They are small here
(weight and support matrices, coordinate changes), so no attempt is made at
asymptotic cleverness. Ranks, determinants and reduced row echelon forms
all come from one fraction-free elimination (_bareiss) on the rows scaled
to integers; Fractions appear only in the results over Q. Resultants do not
come through this module: ``polynomials`` computes them with integer
subresultant chains.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def mat_det(rows):
    """Determinant over Q: det_bareiss_int of the rows scaled to integers."""
    ints, scale = _integer_rows(rows)
    return Fraction(det_bareiss_int(ints), scale)


def _integer_rows(rows):
    """Each row times the lcm of its entries' denominators, and the product
    of those lcms. Entries are ints or Fractions; every denominator that
    galedual clears is cleared here."""
    ints, scale = [], 1
    for row in rows:
        den = lcm(*(v.denominator for v in row))
        ints.append([v.numerator * (den // v.denominator) for v in row])
        scale *= den
    return ints, scale


def det_bareiss_int(rows):
    """Determinant of an integer matrix: the sign of the row swaps times the
    last pivot of _bareiss, or 0 below full rank."""
    a = [[int(v) for v in row] for row in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant needs a square matrix")
    _, pivots, last, sign = _bareiss(a, False)
    return sign * last if len(pivots) == n else 0


def rref(rows):
    """Reduced row echelon form.

    Returns (R, pivot_columns). Zero rows are kept at the bottom. The rows,
    scaled to integers, are eliminated by _bareiss with every other row
    cleared; each pivot entry is then the last pivot d, so R is the integer
    rows divided by d.
    """
    a, pivots, d, _ = _bareiss(_integer_rows(rows)[0], True)
    return [[Fraction(v, d) for v in row] for row in a], pivots


def mat_rank(rows):
    """Rank over Q: the pivots of _bareiss on the rows scaled to integers."""
    return len(_bareiss(_integer_rows(rows)[0], False)[1])


def _bareiss(a, full):
    """Fraction-free elimination of a list of integer rows, in place.

    Returns (rows, pivot_columns, last_pivot, sign), the last pivot 1 when
    there is none and sign that of the row swaps. Each pivot p in column c
    replaces every row below it, and with ``full`` every row above too, by
    (p * row - row[c] * pivot_row) / prev, prev the pivot before p (Bareiss,
    Math. Comp. 22, 1968). Each division is exact: every entry is a minor of
    the input. The rows below the rank end up zero, and with ``full`` every
    pivot entry ends up equal to the last pivot.
    """
    pivots, prev, sign = [], 1, 1
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv], sign = a[piv], a[r], -sign
        top, p = a[r], a[r][c]
        for i in range(0 if full else r + 1, len(a)):
            if i != r:
                lead = a[i][c]
                a[i] = [(p * x - lead * y) // prev for x, y in zip(a[i], top)]
        pivots.append(c)
        prev = p
    return a, pivots, prev, sign


def mat_inverse(rows):
    """Exact inverse; raises ValueError when singular."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("inverse needs a square matrix")
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
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


def right_kernel(rows):
    """Basis of {v : A v = 0} over Q for a nonempty matrix A, one kernel
    vector per returned row.

    The basis is the standard reduced one: each vector has a 1 in its free
    column and zeros in the other free columns.
    """
    ncols = len(rows[0])
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

