"""System models for both sides of the duality.

Sparse Laurent polynomial systems on the torus, hyperplane arrangements with
integer weights on the arrangement complement, exact diagonalization of the
sparse side, and the binomial clearing of the master side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf

from .errors import DependentRowsError, DimensionCapError, NoPivotError
from .lattice import ExponentMatrix, WeightBasis
from .polynomials import IntPoly, monomial_string, term_sum
from .ratlinalg import _integer_rows, mat_rank, rref

# unused here; bench/spans.py looks these names up on this module to count calls
from .lattice import solve_integer  # noqa: F401
from .ratlinalg import mat_det, mat_inverse, mat_mul  # noqa: F401


def torus_variable_names(dim):
    if dim <= 3:
        return tuple("xyz"[:dim])
    return tuple(f"x{i + 1}" for i in range(dim))


def master_variable_names(dim):
    if dim == 2:
        return ("s", "t")
    return tuple(f"y{i + 1}" for i in range(dim))


@dataclass(frozen=True)
class LinearForm:
    """Degree-one function constant + sum(coeffs[i] * y_i)."""

    constant: Fraction
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "constant", _fraction(self.constant))
        object.__setattr__(self, "coeffs", tuple(map(_fraction, self.coeffs)))

    def render(self, names):
        return term_sum([*zip(self.coeffs, names), (self.constant, "1")])


def _fraction(value):
    return value if isinstance(value, Fraction) else Fraction(value)


def _direction(q):
    """The primitive multiple of a nonzero int row whose first nonzero entry
    is positive: the same for the cleared (constant, *coeffs) rows of two
    forms exactly when they are proportional."""
    g = gcd(*q) if next(v for v in q if v) > 0 else -gcd(*q)
    return tuple(v // g for v in q)


@dataclass(frozen=True)
class Arrangement:
    """Finitely many pairwise non-proportional degree-one forms."""

    ambient_dim: int
    forms: tuple
    variables: tuple

    def __post_init__(self):
        object.__setattr__(self, "forms", tuple(self.forms))
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(self.variables) != self.ambient_dim:
            raise ValueError("variable names must match the ambient dimension")
        for i, f in enumerate(self.forms):
            if len(f.coeffs) != self.ambient_dim:
                raise ValueError(f"form {i} has wrong arity")
            if all(c == 0 for c in f.coeffs):
                raise ValueError(f"form {i} has zero gradient; not a hyperplane")
        # proportional forms share a direction; the first class of two or
        # more, by least index, holds the lexicographically first pair
        classes = {}
        for i, q in enumerate(_integer_rows([(f.constant, *f.coeffs) for f in self.forms])[0]):
            classes.setdefault(_direction(q), []).append(i)
        pair = next((c for c in classes.values() if len(c) > 1), None)
        if pair:
            raise ValueError(f"forms {pair[0]} and {pair[1]} are proportional")


def is_essential(arrangement):
    """Whether the forms together with the constant 1 span all of degree one.

    Equivalent to the gradients spanning the ambient space; stated and checked
    as the rank of the stacked (1 | form) matrix.
    """
    return mat_rank(_stacked(arrangement)) == arrangement.ambient_dim + 1


def _stacked(arrangement):
    """The rows (1 | form) transposed: 1 and the constants, then 0 and each coefficient."""
    forms = arrangement.forms
    return [[1, *(f.constant for f in forms)]] + [[0, *col] for col in zip(*(f.coeffs for f in forms))]


@dataclass(frozen=True)
class SparseSystem:
    """Laurent polynomial system with shared support on the torus.

    ``coefficients`` is num_equations x (num_forms + 1) with column 0 the
    constant term; column j + 1 multiplies the monomial whose exponent is
    support column j.
    """

    support: ExponentMatrix
    coefficients: tuple
    variables: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "coefficients",
            tuple(tuple(map(_fraction, row)) for row in self.coefficients),
        )
        object.__setattr__(self, "variables", tuple(self.variables))
        shape = self.support.shape
        if len(self.coefficients) != shape.num_equations:
            raise ValueError(
                f"expected {shape.num_equations} coefficient rows, got {len(self.coefficients)}"
            )
        width = shape.num_forms + 1
        if any(len(row) != width for row in self.coefficients):
            raise ValueError(f"coefficient rows must have length {width}")
        if len(self.variables) != shape.torus_dim:
            raise ValueError("variable names must match the torus dimension")
        cols = self.support.exponents()
        zero = tuple([0] * shape.torus_dim)
        if any(c == zero for c in cols):
            raise ValueError("support columns must be nonzero; the constant slot is implicit")
        if len(set(cols)) != len(cols):
            raise ValueError("support columns must be pairwise distinct")
        if mat_rank(self.coefficients) != shape.num_equations:
            raise DependentRowsError("coefficient rows are dependent over Q")

    @property
    def shape(self):
        return self.support.shape

    def monomial_strings(self):
        return tuple(monomial_string(e, self.variables) for e in self.support.exponents())

    def equation_strings(self):
        monos = self.monomial_strings() + ("1",)
        return tuple(term_sum(zip(row[1:] + row[:1], monos)) + " = 0" for row in self.coefficients)


@dataclass(frozen=True)
class DiagonalizedSystem:
    """Row-equivalent form expressing each pivot monomial in the others.

    ``rhs[i]`` expresses the value of pivot monomial pivots[i] as a
    degree-one function of the non-pivot monomial values, ordered by
    ``nonpivots``.
    """

    pivots: tuple
    nonpivots: tuple
    rhs: tuple


def diagonalize(system):
    """Solve for a pivot set of monomials in terms of the rest.

    One reduced row echelon form of the coefficient rows, with the support
    columns sorted by exponent vector and the constant column last. Its
    pivot columns are the greedy basis, which for a matroid is the
    lexicographically first invertible set of num_equations columns (Gale,
    1968), so the choice does not depend on the storage order of the
    support; its rows are the diagonalized rows. Raises NoPivotError when
    the constant column holds a pivot: then a combination of the equations
    reads 1 = 0, and no set of support columns has an invertible
    coefficient submatrix.
    """
    k = system.shape.num_forms
    # coefficient-row index of each column: monomial j at j + 1, the constant at 0
    columns = [j + 1 for j in sorted(range(k), key=system.support.exponent)] + [0]
    reduced, pivot_cols = rref([[row[c] for c in columns] for row in system.coefficients])
    if columns[pivot_cols[-1]] == 0:
        raise NoPivotError("the equations are inconsistent: a combination of them reads 1 = 0")
    # each reduced row back in coefficient-row order, keyed by its pivot monomial
    rows = {columns[c] - 1: dict(zip(columns, row)) for row, c in zip(reduced, pivot_cols)}
    pivots = tuple(sorted(rows))
    nonpivots = tuple(j for j in range(k) if j not in rows)
    rhs = tuple(LinearForm(-rows[p][0], [-rows[p][j + 1] for j in nonpivots]) for p in pivots)
    return DiagonalizedSystem(pivots=pivots, nonpivots=nonpivots, rhs=rhs)


@dataclass(frozen=True)
class MasterSystem:
    """Arrangement plus integer weights: solutions are the points of the
    complement where every weighted product of the forms equals 1."""

    arrangement: Arrangement
    weights: WeightBasis

    def __post_init__(self):
        shape = self.weights.shape
        if shape.master_dim != self.arrangement.ambient_dim:
            raise ValueError(
                f"weights expect ambient dimension {shape.master_dim}, "
                f"arrangement has {self.arrangement.ambient_dim}"
            )
        if shape.num_forms != len(self.arrangement.forms):
            raise ValueError(
                f"weights have {shape.num_forms} coordinates, "
                f"arrangement has {len(self.arrangement.forms)} forms"
            )
        if mat_rank(self.weights.matrix.to_rows()) != shape.num_weights:
            raise DependentRowsError("weight rows are dependent over Q")

    @property
    def shape(self):
        return self.weights.shape

    def residuals(self, points):
        """max_j |product_i p_i(point)^{weight_ji} - 1| at each complement
        point. Each coefficient of the forms is made a complex once: a
        Fraction meets a complex as complex(float(c)) anyway, so every value
        keeps its bits."""
        forms = [(complex(f.constant), [complex(c) for c in f.coeffs]) for f in self.arrangement.forms]
        weights = [self.weights.weight(j) for j in range(self.shape.num_weights)]
        out = []
        for point in points:
            values = []
            for total, coeffs in forms:
                for c, x in zip(coeffs, point):
                    total += c * x
                values.append(total)
            worst = 0.0
            for weight in weights:
                prod = complex(1)
                try:
                    for v, e in zip(values, weight):
                        if e:
                            prod *= v ** e
                except ZeroDivisionError:  # a form value of 0.0 under a negative weight
                    worst = inf
                    break
                worst = max(worst, abs(prod - 1))
            out.append(worst)
        return out


@dataclass(frozen=True)
class ClearedBinomial:
    """One weight row split into numerator and denominator exponents.

    plus[i] = max(weight[i], 0), minus[i] = max(-weight[i], 0); the cleared
    equation is product(p_i^plus) - product(p_i^minus) = 0.
    """

    plus: tuple
    minus: tuple

    def expand_difference(self, arrangement):
        """The IntPoly of product(p_i^plus) - product(p_i^minus), for an
        arrangement of lines.

        Each form p_i is q_i/d_i with q_i integral and d_i > 0; the multiple
        product(q_i^plus)*product(d_i^minus) - product(q_i^minus)*product(d_i^plus)
        is expanded in ints, one factor q_i at a time, and its terms are
        listed in the order the products first meet their monomials.
        """
        if arrangement.ambient_dim != 2:
            raise DimensionCapError("only arrangements of lines expand to bivariate polynomials")
        plus, minus = {(0, 0): 1}, {(0, 0): 1}
        plus_scale = minus_scale = 1
        for form, up, down in zip(arrangement.forms, self.plus, self.minus):
            [values], den = _integer_rows([(form.constant, *form.coeffs)])
            factor = [(m, v) for m, v in zip(((0, 0), (1, 0), (0, 1)), values) if v]
            for _ in range(up):
                plus = _times(plus, factor)
            for _ in range(down):
                minus = _times(minus, factor)
            plus_scale *= den**down
            minus_scale *= den**up
        terms = {m: c * plus_scale for m, c in plus.items()}
        for m, c in minus.items():
            terms[m] = terms.get(m, 0) - c * minus_scale
        return IntPoly(terms)


def _times(terms, factor):
    """Product of an int term dict and a list of ((i, j), int) terms."""
    out = {}
    for (a, b), c1 in terms.items():
        for (i, j), c2 in factor:
            mono = (a + i, b + j)
            out[mono] = out.get(mono, 0) + c1 * c2
    return out


def clear_denominators(master, row):
    """ClearedBinomial for one weight row of a master system."""
    w = master.weights.weight(row)
    plus = tuple(max(e, 0) for e in w)
    minus = tuple(max(-e, 0) for e in w)
    return ClearedBinomial(plus, minus)


def evaluate_phi(support, point):
    """Monomial-map values x^(support column j) for each j.

    Exact over Fraction when every coordinate is rational, complex otherwise.
    Raises ValueError on a zero coordinate (the map lives on the torus).
    """
    exact = all(isinstance(x, (int, Fraction)) for x in point)
    if exact:
        xs = [Fraction(x) for x in point]
        if any(x == 0 for x in xs):
            raise ValueError("point is not in the torus (zero coordinate)")
    else:
        xs = [complex(x) for x in point]
        if any(x == 0 for x in xs):
            raise ValueError("point is not in the torus (zero coordinate)")
    out = []
    for j in range(support.matrix.cols):
        value = Fraction(1) if exact else complex(1)
        for x, e in zip(xs, support.exponent(j)):
            if e:
                value = value * x**e
        out.append(value)
    return tuple(out)


def cleared_polynomials(system):
    """Laurent rows of a bivariate system as IntPolys.

    Each row is multiplied by the minimal monomial clearing its negative
    exponents and by the lcm of its denominators; torus solutions are
    unchanged, and any extra roots land on coordinate hyperplanes where the
    membership filter discards them. The terms keep the row's order: the
    constant first, then the support columns.
    """
    out = []
    exponents = [(0, 0), *system.support.exponents()]
    for row in _integer_rows(system.coefficients)[0]:
        involved = [(e, c) for e, c in zip(exponents, row) if c]
        if not involved:
            raise ValueError("identically zero equation")
        sx, sy = (min(0, *(e[v] for e, _ in involved)) for v in (0, 1))
        out.append(IntPoly({(a - sx, b - sy): c for (a, b), c in involved}))
    return out
