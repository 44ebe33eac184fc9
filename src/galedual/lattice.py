"""Exact integer lattice algebra.

One Hermite elimination (``_hermite``) serves the Hermite normal form, the
saturated kernel bases, saturation indices and right inverses (one pass on the
transpose gives all three), the quotient-image matrices, and the Smith normal
form (alternating row and column passes). LLL reduction is the other algorithm
here. All in Python int; nothing here rounds or overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
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
        empty matrix stays meaningful. Entries pass through unchanged, so that
        ``__post_init__`` rejects any that is not an int.
        """
        rows = [tuple(r) for r in rows]
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
        columns = [other.data[j :: other.cols] for j in range(other.cols)]
        out = tuple(_dot(self.row(i), col) for i in range(self.rows) for col in columns)
        return IntMatrix(self.rows, other.cols, out)

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


def _hermite(a, u):
    """Reduce the integer rows ``a`` to row-style Hermite normal form in place,
    doing every row operation to the rows of ``u`` too; returns the rank.

    Pivot choice during elimination: the row minimizing |value| in the working
    column, ties broken by lowest row index.
    """
    m, n = len(a), len(a[0]) if a else 0
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
    return r


def hnf(mat):
    """Row-style Hermite normal form with a unimodular witness.

    Returns (H, U) with U @ mat == H, |det U| = 1, pivot columns strictly
    increasing left to right, pivots positive, entries above each pivot reduced
    into [0, pivot), zero rows at the bottom. H depends only on the row lattice
    of ``mat``.
    """
    a, u = mat.to_rows(), IntMatrix.identity(mat.rows).to_rows()
    _hermite(a, u)
    return IntMatrix.from_rows(a, cols=mat.cols), IntMatrix.from_rows(u, cols=mat.rows)


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


def snf(mat):
    """Smith normal form with unimodular witnesses.

    Returns (S, U, V) with U @ mat @ V == S, S diagonal with nonnegative
    entries d_1 | d_2 | ... and zeros trailing, |det U| = |det V| = 1.

    Row and column Hermite passes alternate until the matrix is diagonal. Each
    pass replaces the leading entry by a divisor of it; once a pass leaves it
    unchanged it divides its row and column, which the next pass clears, so
    the passes end one leading entry at a time. Then each pair d_i, d_j that
    breaks the chain becomes (gcd, lcm) by one unimodular 2x2 step.
    """
    m, n = mat.rows, mat.cols
    a, u, vt = mat.to_rows(), IntMatrix.identity(m).to_rows(), IntMatrix.identity(n).to_rows()
    while True:
        _hermite(a, u)
        a = _transpose(a)
        _hermite(a, vt)
        a = _transpose(a)
        if not any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
            break
    v = _transpose(vt)

    rank = sum(1 for t in range(min(m, n)) if a[t][t])
    for i in range(rank):
        for j in range(i + 1, rank):
            x, y = a[i][i], a[j][j]
            if y % x:
                # s*x + t*y = g; rows by [[s, t], [-y/g, x/g]] and columns by
                # [[1, -t*y/g], [1, s*x/g]] send diag(x, y) to diag(g, xy/g)
                pair, st = [[x], [y]], [[1, 0], [0, 1]]
                _hermite(pair, st)
                g, (s, t) = pair[0][0], st[0]
                x, y = x // g, y // g
                ui, uj = u[i], u[j]
                u[i] = [s * p + t * q for p, q in zip(ui, uj)]
                u[j] = [x * q - y * p for p, q in zip(ui, uj)]
                for row in v:
                    row[i], row[j] = row[i] + row[j], s * x * row[j] - t * y * row[i]
                a[i][i], a[j][j] = g, g * x * y
    # from the flat data, since a has lost its rows when n == 0
    smith = IntMatrix(m, n, tuple(x for row in a for x in row))
    return smith, IntMatrix.from_rows(u, cols=m), IntMatrix.from_rows(v, cols=n)


def smith_diagonal(mat):
    """Nonzero Smith normal form divisors of ``mat``, in chain order."""
    s, _, _ = snf(mat)
    return [d for d in (s.at(t, t) for t in range(min(s.rows, s.cols))) if d]


def _kernel_and_index(mat):
    """Saturated kernel rows of ``mat``, the saturation index of its rows and,
    at index 1, a right inverse (else None), from one elimination of mat^T.

    U @ mat^T = H with U unimodular and H of rank r. The rows of U past r
    annihilate mat and span every integer solution. The first r rows of U^-T
    span the saturation, and mat is the transposed leading r x r block of H
    times them, so the index is the product of H's pivots (0 when r is short
    of mat.rows). At index 1 that block is I, so C = U[:r]^T has mat @ C = I.
    """
    a = mat.transpose().to_rows()
    u = IntMatrix.identity(mat.cols).to_rows()
    r = _hermite(a, u)
    index = math.prod(next(x for x in row if x) for row in a[:r]) if r == mat.rows else 0
    inverse = IntMatrix(mat.cols, r, tuple(x for col in zip(*u[:r]) for x in col)) if index == 1 else None
    return IntMatrix.from_rows(u[r:], cols=mat.cols), index, inverse


_DEPENDENT = {"support": "support columns do not span the variable space over Q",
              "weight": "weight rows are dependent over Q"}


def _primitive_kernel(mat, what):
    """_kernel_and_index's kernel and inverse of a primitive support or weight
    matrix; DependentRowsError or NotPrimitiveError for any other."""
    kernel, index, inverse = _kernel_and_index(mat)
    if index == 0:
        raise DependentRowsError(_DEPENDENT[what])
    if index != 1:
        raise NotPrimitiveError(index, what=f"{what} lattice")
    return kernel, inverse


def kernel_basis(mat):
    """Basis of the saturated left-null lattice of the columns.

    Returns an IntMatrix whose rows b satisfy mat @ b^T = 0 and span every
    integer solution (the lattice is saturated: no proper finite-index
    superlattice of the row span solves the same equations). Rows are in
    Hermite normal form, so the result is canonical for the kernel lattice.
    Row count is cols - rank(mat).
    """
    return hnf(_kernel_and_index(mat)[0])[0]


def saturation_index(mat):
    """Index of the row lattice inside its saturation; 0 when the rows are
    dependent over Q.

    The saturation is (row span over Q) intersected with Z^cols, and the index
    is the product of the Smith divisors. Index 1 means the rows generate a
    primitive lattice.
    """
    return _kernel_and_index(mat)[1]


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
    return sum(map(mul, u, v))


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
    kernel, _ = _primitive_kernel(basis.matrix, "weight")
    return ExponentMatrix(basis.shape, hnf(kernel)[0])


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
