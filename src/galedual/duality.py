"""Dualization between sparse torus systems and master-function systems.

Either side determines the other up to unimodular coordinate changes: the
sparse support becomes the quotient data for the weights, the diagonalized
coefficient rows become degree-one forms, and back. A GalePair carries both
systems plus the witness linking their coordinates, and maps torus points to
master points exactly (GalePair.to_master); check_gale_pair verifies every
pairing condition exactly and reports rather than throws. A pair that
dualization returns carries the check it passed, right inverses of its
support and weights that the check multiplies instead of eliminating again,
and the rows of (1 | form) whose determinant proves the forms essential.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from math import prod
from operator import mul

from .errors import DegenerateDualError, InvariantError, NotEssentialError
from .lattice import (
    ExponentMatrix,
    IntMatrix,
    WeightBasis,
    _dot,
    _kernel_and_index,
    _primitive_kernel,
    hnf,
    kernel_basis,
    lll_reduce,
    saturation_index,
)
from .ratlinalg import _integer_rows, det_bareiss_int, mat_inverse, mat_rank, right_kernel, rref
from .systems import (
    Arrangement,
    LinearForm,
    MasterSystem,
    SparseSystem,
    _stacked,
    diagonalize,
    is_essential,
    master_variable_names,
    torus_variable_names,
)

# unused here; bench/spans.py looks these names up on this module to count calls
from .lattice import quotient_images, smith_diagonal  # noqa: F401
from .ratlinalg import row_space_equal  # noqa: F401


@dataclass(frozen=True)
class GaleWitness:
    """Coordinate bookkeeping certifying a pair.

    ``z_support_columns``: permutation sending z index (0-based) to the column
    of the sparse support holding that coordinate's monomial. Master form i
    always corresponds to z_{i+1}.

    ``support_inverse``, ``weight_inverse``: integer C with A @ C = I_n for
    the stored support A, and C_W with W @ C_W = I_l for the weights, or
    None. Each proves its lattice primitive. C maps back: with z_c the value
    of stored support column c's monomial, x_i = prod_c z_c ** C[c][i].

    ``essential_rows``: master_dim + 1 indices into (1, form_1..form_k),
    index 0 the constant, whose rows (1 | form) have a nonzero determinant,
    or None. They prove the forms essential and invert the monomial map
    (GalePair.to_master), and a relation among 1 and the forms is fixed by
    its entries at the other num_equations columns.
    """

    z_support_columns: tuple
    support_inverse: IntMatrix | None = None
    weight_inverse: IntMatrix | None = None
    essential_rows: tuple | None = None


@dataclass(frozen=True)
class GalePair:
    """Both systems and the witness linking them.

    ``check`` is the PairCheck that dualization passed the pair with; None on
    a pair built by hand.
    """

    poly: SparseSystem
    master: MasterSystem
    witness: GaleWitness
    check: PairCheck | None = field(default=None, compare=False)

    def to_master(self, points):
        """The master point y of each torus point x: (1, y) = E^-1 v, where E
        is the block of rows (1 | form) at ``essential_rows`` (or at the
        pivots of those rows) and v their values at x: 1 for row 0, and the
        monomial of support column z_support_columns[r - 1] for row r. E^-1
        is exact and computed once. Exact on Fractions, complex otherwise.
        """
        stacked = _stacked(self.master.arrangement)
        rows = self.witness.essential_rows or rref(stacked)[1]
        try:
            inverse = mat_inverse([[col[r] for col in stacked] for r in rows])[1:]
        except ValueError:
            raise NotEssentialError("forms plus the constant do not span degree one") from None
        exact = all(isinstance(v, (int, Fraction)) for x in points for v in x)
        if not exact:
            inverse = [[float(c) for c in row] for row in inverse]
        exponents = [self.poly.support.exponent(self.witness.z_support_columns[r - 1]) if r else () for r in rows]
        out = []
        for x in points:
            x = [Fraction(v) if exact else complex(v) for v in x]
            values = [prod(v**k for v, k in zip(x, e) if k) for e in exponents]
            out.append(tuple(sum(map(mul, row, values)) for row in inverse))
        return out


@dataclass(frozen=True)
class PairCheck:
    """Exact verification results for a GalePair; nothing here throws.

    Every bool field is one check, and the pair passes when all of them
    hold; the two indices are reported beside them. A ``*_primitive`` field
    is false when its carried inverse fails, even at index 1, and
    ``forms_essential`` when its carried rows fail, even on essential forms.
    """

    shapes_consistent: bool
    support_primitive: bool
    support_index: int
    weights_primitive: bool
    weight_index: int
    annihilates: bool
    forms_essential: bool
    relations_vanish: bool
    spans_match: bool

    @property
    def all_pass(self):
        return not self.failures()

    def failures(self):
        """Names of the boolean checks that fail, in field order."""
        return tuple(f.name for f in fields(self) if getattr(self, f.name) is False)


def _checked(pair):
    """The pair with its check attached, once check_gale_pair passes it;
    InvariantError otherwise."""
    check = check_gale_pair(pair)
    if not check.all_pass:
        raise InvariantError(f"dualization produced an inconsistent pair: {check.failures()}")
    return replace(pair, check=check)


def dualize_poly_to_master(system):
    """Master-function system cut out by the same scheme as a sparse system.

    Diagonalizes on a deterministic pivot set, reads the pivot equations as
    degree-one forms in new variables (one per non-pivot monomial), appends
    the coordinate forms, and takes the lll_reduce basis of the support's
    relation lattice as the weights. One Hermite elimination of the support
    gives that lattice (its saturated kernel), its right inverse and the
    index that must be 1: DependentRowsError or NotPrimitiveError is raised
    before the equations are looked at. The z-coordinate order is pivots then
    non-pivots, each in stored support order. Raises DegenerateDualError
    when a pivot monomial equals a constant or a multiple of another's form.
    """
    kernel, support_inverse = _primitive_kernel(system.support.matrix, "support")
    diag = diagonalize(system)
    shape = system.shape
    z_cols = list(diag.pivots) + list(diag.nonpivots)

    names = master_variable_names(shape.master_dim)
    forms = list(diag.rhs)
    for t in range(shape.master_dim):
        forms.append(
            LinearForm(0, tuple(1 if j == t else 0 for j in range(shape.master_dim)))
        )
    try:
        arrangement = Arrangement(shape.master_dim, tuple(forms), names)
    except ValueError as exc:
        raise DegenerateDualError(f"the dual forms are no hyperplane arrangement: {exc}") from None

    # hnf is canonical per lattice: these are kernel_basis's rows for the permuted support
    weights = WeightBasis(shape, lll_reduce(hnf(kernel.submatrix_columns(z_cols))[0]))
    master = MasterSystem(arrangement, weights)

    witness = GaleWitness(
        tuple(z_cols),
        support_inverse,
        _kernel_and_index(weights.matrix)[2],
        # 1 and the coordinate forms
        (0, *range(shape.num_equations + 1, shape.num_forms + 1)),
    )
    return _checked(GalePair(system, master, witness))


def dualize_master_to_poly(master):
    """Sparse torus system cut out by the same scheme as a master system.

    The support is the lll_reduce basis of the quotient-image matrix of the
    weights, which is the Hermite normal form of their saturated kernel. That
    is a GL(Z) change of the torus coordinates: the pair stays a Gale pair,
    the support depends only on the weight lattice, and its exponents are
    short, which keeps the cleared degree the solver sees low. The
    coefficient rows are the reduced basis of linear relations among 1 and
    the forms. There are num_equations of them exactly when the forms and 1
    span degree one, so their count is the essentiality test. Non-primitive
    weights are reported before a non-essential arrangement.
    """
    shape = master.shape
    kernel, weight_inverse = _primitive_kernel(master.weights.matrix, "weight")
    relations = right_kernel(_stacked(master.arrangement))
    if len(relations) != shape.num_equations:
        raise NotEssentialError("forms plus the constant do not span degree one")
    images = ExponentMatrix(shape, lll_reduce(hnf(kernel)[0]))
    reduced, pivots = rref(relations)

    coefficients = [tuple(row) for row in reduced]
    names = torus_variable_names(shape.torus_dim)
    poly = SparseSystem(images, coefficients, names)

    witness = GaleWitness(
        tuple(range(shape.num_forms)),
        _kernel_and_index(images.matrix)[2],
        weight_inverse,
        # a relation supported off the pivots is zero, so these rows are independent
        tuple(c for c in range(shape.num_forms + 1) if c not in pivots),
    )
    return _checked(GalePair(poly, master, witness))


def saturate_weights(master):
    """Same arrangement over the saturation of the weight row lattice.

    A double application of kernel_basis lands on the smallest primitive
    lattice containing the rows. No-op (up to basis choice) when the weights
    are already primitive; on an index-d sublattice the returned system has
    fewer solutions than the original, which is how verification surfaces
    non-primitive inputs as a count mismatch instead of an exception.
    """
    sat = kernel_basis(kernel_basis(master.weights.matrix))
    return MasterSystem(master.arrangement, WeightBasis(master.shape, sat))


def check_gale_pair(pair):
    """Exact certification of every pairing condition; returns a PairCheck.

    The sparse side is checked on its own coefficient rows M, their columns
    permuted to z order, in ints: each row of M and each column of the rows
    (1 | form) is scaled to integers by its own denominators, which changes
    no product's vanishing, and every row must annihilate every column. The
    spans match when the rows of M are also independent: with essential
    forms, num_equations independent relations are all of them. With
    ``essential_rows`` carried, one determinant of those rows proves the
    forms essential, and since a relation is fixed by its entries at the
    other columns P, the rows are independent when det M[:, P] != 0.
    Without them, or when their determinant fails, the forms and M are
    ranked.
    """
    poly = pair.poly
    master = pair.master
    witness = pair.witness
    shape = poly.shape
    k = shape.num_forms
    rows = witness.essential_rows

    shapes_consistent = shape == master.shape and sorted(witness.z_support_columns) == list(range(k))

    support_primitive, support_index = _primitivity(poly.support.matrix, witness.support_inverse)
    weights_primitive, weight_index = _primitivity(master.weights.matrix, witness.weight_inverse)

    annihilates = False
    if shapes_consistent:
        z_support = poly.support.matrix.submatrix_columns(witness.z_support_columns)
        annihilates = (z_support @ master.weights.matrix.transpose()).is_zero()

    columns = _integer_rows(_stacked(master.arrangement))[0]
    if rows is None:
        forms_essential = is_essential(master.arrangement)
    else:
        forms_essential = (
            len(rows) == len(columns)
            and all(0 <= r < len(columns[0]) for r in rows)
            and det_bareiss_int([[col[r] for r in rows] for col in columns]) != 0
        )

    relations_vanish = spans_match = False
    if shapes_consistent:
        permuted = _integer_rows(
            [[row[0]] + [row[col + 1] for col in witness.z_support_columns] for row in poly.coefficients]
        )[0]
        relations_vanish = not any(_dot(row, col) for row in permuted for col in columns)
        if relations_vanish and rows is not None and forms_essential:
            others = [c for c in range(k + 1) if c not in rows]
            spans_match = det_bareiss_int([[row[c] for c in others] for row in permuted]) != 0
        elif relations_vanish:
            spans_match = mat_rank(permuted) == shape.num_equations

    return PairCheck(
        shapes_consistent=shapes_consistent,
        support_primitive=support_primitive,
        support_index=support_index,
        weights_primitive=weights_primitive,
        weight_index=weight_index,
        annihilates=annihilates,
        forms_essential=forms_essential,
        relations_vanish=relations_vanish,
        spans_match=spans_match,
    )


def _primitivity(mat, inverse):
    """(primitive, index), by one product when ``inverse`` is a right inverse."""
    if inverse is not None and inverse.rows == mat.cols and mat @ inverse == IntMatrix.identity(mat.rows):
        return True, 1
    index = saturation_index(mat)
    return index == 1 and inverse is None, index
