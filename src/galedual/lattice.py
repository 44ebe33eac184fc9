"""Exact integer lattice algebra.

Hermite and Smith normal forms with unimodular witnesses, saturated kernel
bases, saturation indices, LLL reduction and quotient-image matrices, all in
Python int; nothing here rounds or overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DependentRowsError, NotPrimitiveError


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major.

    Degenerate shapes (zero rows or zero columns) are allowed; kernel and
    transform bookkeeping needs them.
    """

    rows: int
    cols: int
    data: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.data) != self.rows * self.cols:
            raise ValueError("data length does not match shape")
        if not all(isinstance(v, int) for v in self.data):
            raise ValueError("matrix entries must be int")

    @staticmethod
    def from_rows(rows, cols=None):
        """Build from an iterable of row iterables.

        ``cols`` is required when ``rows`` is empty, so the column count of an
        empty matrix stays meaningful.
        """
        rows = [tuple(int(v) for v in r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        flat = tuple(v for r in rows for v in r)
        return IntMatrix(len(rows), cols, flat)

    @staticmethod
    def identity(n):
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i, j):
        return self.data[i * self.cols + j]

    def row(self, i):
        return self.data[i * self.cols : (i + 1) * self.cols]

    def column(self, j):
        return tuple(self.data[i * self.cols + j] for i in range(self.rows))

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        return IntMatrix(
            self.cols, self.rows, tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows))
        )

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[t] * other.at(t, j) for t in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def is_zero(self):
        return all(v == 0 for v in self.data)

    def submatrix_columns(self, col_indices):
        """New matrix from the given columns, in the given order."""
        idx = list(col_indices)
        return IntMatrix.from_rows(
            [[self.at(i, j) for j in idx] for i in range(self.rows)], cols=len(idx)
        )


class SystemShape(NamedTuple):
    """Dimension bookkeeping shared by both sides of a dual pair.

    num_weights   independent multiplicative relations among the monomials
                  (rows of the weight basis, extra master variables)
    excess_dim    dimension of the common zero scheme
    num_equations sparse equations cutting the scheme out of the torus
    """

    num_weights: int
    excess_dim: int
    num_equations: int

    @property
    def num_forms(self):
        """Count of nonzero support exponents = count of degree-one forms."""
        return self.num_weights + self.excess_dim + self.num_equations

    @property
    def torus_dim(self):
        return self.excess_dim + self.num_equations

    @property
    def master_dim(self):
        return self.num_weights + self.excess_dim

    def validate(self):
        if self.num_weights <= 0:
            raise ValueError(f"num_weights must be positive, got {self.num_weights}")
        if self.num_equations <= 0:
            raise ValueError(f"num_equations must be positive, got {self.num_equations}")
        if self.excess_dim < 0:
            raise ValueError(f"excess_dim must be nonnegative, got {self.excess_dim}")
        return self


@dataclass(frozen=True)
class ExponentMatrix:
    """Nonzero support exponents of a sparse system, one column per monomial.

    The zero exponent (the constant monomial) is implicit and never stored.
    Shape is torus_dim x num_forms. Columns may repeat when the matrix comes
    out of quotient_images on a special weight basis; constructors that need
    distinct columns (sparse systems) enforce that themselves.
    """

    shape: SystemShape
    matrix: IntMatrix

    def __post_init__(self):
        self.shape.validate()
        if self.matrix.rows != self.shape.torus_dim or self.matrix.cols != self.shape.num_forms:
            raise ValueError(
                f"support matrix must be {self.shape.torus_dim}x{self.shape.num_forms}, "
                f"got {self.matrix.rows}x{self.matrix.cols}"
            )

    def exponent(self, j):
        """Exponent vector of monomial j (0-based over the nonzero support)."""
        return self.matrix.column(j)

    def exponents(self):
        return [self.matrix.column(j) for j in range(self.matrix.cols)]


@dataclass(frozen=True)
class WeightBasis:
    """Integer weight vectors, one per row, over num_forms coordinates."""

    shape: SystemShape
    matrix: IntMatrix

    def __post_init__(self):
        self.shape.validate()
        if self.matrix.rows != self.shape.num_weights or self.matrix.cols != self.shape.num_forms:
            raise ValueError(
                f"weight matrix must be {self.shape.num_weights}x{self.shape.num_forms}, "
                f"got {self.matrix.rows}x{self.matrix.cols}"
            )

    def weight(self, j):
        return self.matrix.row(j)


def hnf(mat):
    """Row-style Hermite normal form with a unimodular witness.

    Returns (H, U) with U @ mat == H, |det U| = 1, pivot columns strictly
    increasing left to right, pivots positive, entries above each pivot reduced
    into [0, pivot), zero rows at the bottom. H depends only on the row lattice
    of ``mat``.

    Pivot choice during elimination: the row minimizing |value| in the working
    column, ties broken by lowest row index.
    """
    m, n = mat.rows, mat.cols
    a = mat.to_rows()
    u = IntMatrix.identity(m).to_rows()
    r = 0
    for c in range(n):
        if r == m:
            break
        while True:
            live = [i for i in range(r, m) if a[i][c] != 0]
            if not live:
                break
            piv = min(live, key=lambda i: (abs(a[i][c]), i))
            if piv != r:
                a[r], a[piv] = a[piv], a[r]
                u[r], u[piv] = u[piv], u[r]
            if len(live) == 1:
                break
            p = a[r][c]
            for i in range(r + 1, m):
                if a[i][c] != 0:
                    q = a[i][c] // p
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                        u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        if a[r][c] != 0:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
                u[r] = [-x for x in u[r]]
            p = a[r][c]
            for i in range(r):
                q = a[i][c] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
            r += 1
    return IntMatrix.from_rows(a, cols=n), IntMatrix.from_rows(u, cols=m)


def snf(mat):
    """Smith normal form with unimodular witnesses.

    Returns (S, U, V) with U @ mat @ V == S, S diagonal with nonnegative
    entries d_1 | d_2 | ... and zeros trailing, |det U| = |det V| = 1.
    """
    m, n = mat.rows, mat.cols
    a = mat.to_rows()
    u = IntMatrix.identity(m).to_rows()
    v = IntMatrix.identity(n).to_rows()

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row dst -= q * row src
        a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        # col dst -= q * col src
        for row in a:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    def diagonalize_at(t):
        """Clear row t and column t outside (t, t). Pivot must be nonzero."""
        while True:
            # move the absolutely smallest nonzero of the trailing block to (t, t)
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                return False
            if best[0] != t:
                swap_rows(t, best[0])
            if best[1] != t:
                swap_cols(t, best[1])
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    add_row(i, t, a[i][t] // a[t][t])
                    dirty = dirty or a[i][t] != 0
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    add_col(j, t, a[t][j] // a[t][t])
                    dirty = dirty or a[t][j] != 0
            if not dirty:
                return True

    limit = min(m, n)
    rank = 0
    for t in range(limit):
        if not diagonalize_at(t):
            break
        rank += 1

    # enforce the divisibility chain d_i | d_j for i < j
    t = 0
    while t < rank - 1:
        fixed = True
        for j in range(t + 1, rank):
            if a[j][j] % a[t][t] != 0:
                add_col(t, j, -1)  # col t += col j, brings a[j][j] into column t
                diagonalize_at(t)
                fixed = False
                break
        if fixed:
            t += 1

    for t in range(rank):
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
    return (
        IntMatrix.from_rows(a, cols=n),
        IntMatrix.from_rows(u, cols=m),
        IntMatrix.from_rows(v, cols=n),
    )


def smith_diagonal(mat):
    """Nonzero Smith normal form divisors of ``mat``, in chain order."""
    s, _, _ = snf(mat)
    return [d for d in (s.at(t, t) for t in range(min(s.rows, s.cols))) if d]


def integer_rank(mat):
    """Rank over Q (equivalently over Z up to torsion)."""
    return len(smith_diagonal(mat))


def _smith_kernel(mat):
    """Nonzero Smith divisors of ``mat`` and the Hermite normal form of its
    saturated kernel, both from one snf."""
    s, _, v = snf(mat)
    divisors = [d for d in (s.at(t, t) for t in range(min(s.rows, s.cols))) if d]
    rows = [v.column(j) for j in range(len(divisors), mat.cols)]
    return divisors, hnf(IntMatrix.from_rows(rows, cols=mat.cols))[0]


def _index(divisors, rows):
    """Product of the Smith divisors; 0 when there are fewer than ``rows``."""
    return math.prod(divisors) if len(divisors) == rows else 0


def kernel_basis(mat):
    """Basis of the saturated left-null lattice of the columns.

    Returns an IntMatrix whose rows b satisfy mat @ b^T = 0 and span every
    integer solution (the lattice is saturated: no proper finite-index
    superlattice of the row span solves the same equations). Rows are in
    Hermite normal form, so the result is canonical for the kernel lattice.
    Row count is cols - rank(mat).
    """
    return _smith_kernel(mat)[1]


def saturation_index(mat):
    """Index of the row lattice inside its saturation; 0 when the rows are
    dependent over Q.

    The saturation is (row span over Q) intersected with Z^cols, and the index
    is the product of the Smith divisors. Index 1 means the rows generate a
    primitive lattice.
    """
    return _index(smith_diagonal(mat), mat.rows)


def lattice_equal(a, b):
    """Whether two row-generating sets span the same integer lattice."""
    if a.cols != b.cols:
        return False

    def reduced(mat):
        h, _ = hnf(mat)
        keep = [list(h.row(i)) for i in range(h.rows) if any(h.row(i))]
        return keep

    return reduced(a) == reduced(b)


def _canonical_rows(rows):
    """Rows with first nonzero entry positive, sorted by (squared norm, lex)."""
    signed = [[-x for x in r] if next((x for x in r if x), 0) < 0 else list(r) for r in rows]
    return sorted(signed, key=lambda r: (sum(x * x for x in r), r))


def lll_reduce(mat):
    """LLL-reduced basis of the row lattice of independent rows.

    The result depends on the input basis, not only on its lattice; callers
    that need a function of the lattice pass its Hermite normal form. Rows
    come out with first nonzero entry positive, sorted by (squared norm,
    lex); in some order they are size-reduced and meet the Lovasz condition
    with delta 99/100. Sorting can undo a reduction, so reduce-then-sort passes
    repeat until they cycle (a lattice has finitely many reduced bases), and
    the cycle member of least total squared norm is returned: reducing it
    again returns it. Dependent rows raise DependentRowsError.
    """
    rows = _canonical_rows(mat.to_rows())
    seen = []
    while rows not in seen:
        seen.append(rows)
        rows = _canonical_rows(_lll(rows))
    cycle = seen[seen.index(rows):]
    best = min(cycle, key=lambda r: (sum(x * x for v in r for x in v), r))
    return IntMatrix.from_rows(best, cols=mat.cols)


def _lll(rows):
    """LLL reduction (Lenstra, Lenstra and Lovasz 1982) in integers, after
    Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.6.7.

    d[j] is the Gram determinant of rows 0..j-1 (d[0] = 1), and
    lam[k][j] = d[j + 1] * mu_kj is an integer. Row k's lam and d[k + 1] are
    recomputed from dot products by exact divisions on every visit. Only
    |mu| > 1/2 is rounded away (ties go to even, as round() does), so a
    reduced basis comes back unchanged. The Lovasz test with delta 99/100
    reads 100*d[k+1]*d[k-1] < 99*d[k]**2 - 100*lam[k][k-1]**2.
    """
    b = [list(r) for r in rows]
    lam = [None] * len(b)
    d = [1]
    k = 0
    while k < len(b):
        row = lam[k] = []
        for j in range(k + 1):
            u = _dot(b[k], b[j])
            for i in range(j):
                u = (d[i + 1] * u - row[i] * lam[j][i]) // d[i]
            row.append(u)
        del d[k + 1:]
        d.append(row.pop())
        for j in reversed(range(k)):
            q, rem = divmod(2 * row[j] + d[j + 1], 2 * d[j + 1])
            r = q - 1 if rem == 0 and q % 2 else q
            if r:
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                row[j] -= r * d[j + 1]
                for i in range(j):
                    row[i] -= r * lam[j][i]
        if d[k + 1] == 0:
            raise DependentRowsError("rows are dependent over Q")
        if k and 100 * d[k + 1] * d[k - 1] < 99 * d[k] ** 2 - 100 * row[k - 1] ** 2:
            b[k - 1], b[k] = b[k], b[k - 1]
            k -= 1
        else:
            k += 1
    return b


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def quotient_images(basis):
    """Images of the standard basis vectors in Z^num_forms mod the weight rows.

    For a primitive weight basis B (rows independent, saturation index 1) the
    quotient Z^num_forms / rowspan(B) is free of rank torus_dim; this picks an
    integer coordinate system on it and returns the ExponentMatrix whose column
    j is the image of e_j. The result satisfies W @ B^T = 0 and its columns
    generate Z^torus_dim. Its rows are the Hermite normal form of the saturated
    kernel lattice of B, so W equals kernel_basis(B.matrix) and depends only on
    the weight lattice. Columns can repeat (or vanish) when e_i - e_j (or e_i)
    lies in the row span; downstream constructors that need distinct nonzero
    columns check for themselves.

    Raises DependentRowsError or NotPrimitiveError when B is not a primitive
    basis.
    """
    divisors, kernel = _smith_kernel(basis.matrix)
    index = _index(divisors, basis.shape.num_weights)
    if index == 0:
        raise DependentRowsError("weight rows are dependent over Q")
    if index != 1:
        raise NotPrimitiveError(index, what="weight lattice")
    return ExponentMatrix(basis.shape, kernel)


def solve_integer(mat, rhs):
    """One integer solution x of mat @ x = rhs, or None when none exists."""
    if len(rhs) != mat.rows:
        raise ValueError("rhs length does not match row count")
    s, u, v = snf(mat)
    c = [sum(u.at(i, t) * rhs[t] for t in range(mat.rows)) for i in range(mat.rows)]
    y = [0] * mat.cols
    limit = min(mat.rows, mat.cols)
    for i in range(mat.rows):
        d = s.at(i, i) if i < limit else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    return tuple(sum(v.at(i, j) * y[j] for j in range(mat.cols)) for i in range(mat.cols))
