"""Dualization between sparse torus systems and master-function systems.

Either side determines the other up to unimodular coordinate changes: the
sparse support becomes the quotient data for the weights, the diagonalized
coefficient rows become degree-one forms, and back. A GalePair carries both
systems plus the witness linking their coordinates; check_gale_pair verifies
every pairing condition exactly and reports rather than throws. A pair that
dualization returns carries the check it passed, right inverses of its
support and weights that the check multiplies instead of eliminating again,
and the rows of (1 | form) whose determinant proves the forms essential.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from math import lcm

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
from .ratlinalg import _integer_rows, det_bareiss_int, right_kernel, row_space_equal, rref
from .systems import (
    Arrangement,
    LinearForm,
    MasterSystem,
    SparseSystem,
    _stacked,
    diagonalize,
    is_essential,
    master_variable_names,
    monomial_string,
    torus_variable_names,
)

# unused here; bench/spans.py looks these names up on this module to count calls
from .lattice import quotient_images, smith_diagonal  # noqa: F401


@dataclass(frozen=True)
class GaleWitness:
    """Coordinate bookkeeping certifying a pair.

    ``linear_forms``: the num_equations relation rows over (1, z_1..z_k);
    pulled back along the monomial map they give back the sparse system, and
    composed with the forms they vanish identically.

    ``z_support_columns``: permutation sending z index (0-based) to the column
    of the sparse support holding that coordinate's monomial. Master form i
    always corresponds to z_{i+1}.

    ``z_monomials``: rendering of each z coordinate's monomial, cosmetic.

    ``support_inverse``, ``weight_inverse``: integer C with A @ C = I_n for
    the stored support A, and C_W with W @ C_W = I_l for the weights, or
    None. Each proves its lattice primitive. C maps back: with z_c the value
    of stored support column c's monomial, x_i = prod_c z_c ** C[c][i].

    ``essential_rows``: master_dim + 1 indices into (1, form_1..form_k),
    index 0 the constant, whose rows (1 | form) have a nonzero determinant,
    or None. They prove the forms essential, and ``linear_forms`` holds the
    identity at the other num_equations columns, which proves the spans
    equal by one product.
    """

    linear_forms: tuple
    z_support_columns: tuple
    z_monomials: tuple
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

    k = shape.num_forms
    relation_rows = []
    for i in range(shape.num_equations):
        row = [Fraction(0)] * (k + 1)
        row[0] = -diag.rhs[i].constant
        row[i + 1] = Fraction(1)
        for t, c in enumerate(diag.rhs[i].coeffs):
            row[shape.num_equations + 1 + t] = -c
        relation_rows.append(tuple(row))
    monomials = system.monomial_strings()
    witness = GaleWitness(
        tuple(relation_rows),
        tuple(z_cols),
        tuple(monomials[j] for j in z_cols),
        support_inverse,
        _kernel_and_index(weights.matrix)[2],
        # 1 and the coordinate forms
        (0, *range(shape.num_equations + 1, k + 1)),
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

    monomials = tuple(
        monomial_string(images.exponent(j), names) for j in range(shape.num_forms)
    )
    witness = GaleWitness(
        tuple(tuple(row) for row in reduced),
        tuple(range(shape.num_forms)),
        monomials,
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

    The relations are checked in ints: each witness row and each column of
    the rows (1 | form) is scaled to integers by its own denominators, which
    changes no product's vanishing, and every row must annihilate every
    column. With ``essential_rows`` carried, one determinant of those rows
    proves the forms essential, and the spans follow from the identity block
    of the relation rows L at the other columns P: the permuted coefficient
    rows M span the same space exactly when M = M[:, P] @ L and
    det M[:, P] != 0. Without them the forms are ranked, and without them or
    that block the spans are eliminated.
    """
    poly = pair.poly
    master = pair.master
    witness = pair.witness
    shape = poly.shape
    k = shape.num_forms
    rows = witness.essential_rows

    shapes_consistent = (
        shape == master.shape
        and sorted(witness.z_support_columns) == list(range(k))
        and len(witness.linear_forms) == shape.num_equations
        and all(len(row) == k + 1 for row in witness.linear_forms)
        and len(witness.z_monomials) == k
    )

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
        relations = _integer_rows(witness.linear_forms)[0]
        relations_vanish = not any(_dot(row, col) for row in relations for col in columns)
        permuted = [
            [row[0]] + [row[col + 1] for col in witness.z_support_columns]
            for row in poly.coefficients
        ]
        pivots = [] if rows is None else [c for c in range(k + 1) if c not in rows]
        if len(pivots) == len(relations) and all(
            row[p] == (i == j) for i, row in enumerate(witness.linear_forms) for j, p in enumerate(pivots)
        ):
            spans_match = _spans_by_product(_integer_rows(permuted)[0], relations, pivots)
        else:
            spans_match = row_space_equal([list(row) for row in witness.linear_forms], permuted)

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


def _spans_by_product(coefficients, relations, pivots):
    """Whether integer rows M span what the integer rows L span, when L is
    d_i times the identity at the columns ``pivots`` (d_i > 0): each row m
    must be sum_i m[p_i] / d_i * L_i, in ints times D = lcm(d_i), and
    det M[:, pivots] nonzero."""
    scales = [row[p] for row, p in zip(relations, pivots)]
    common = lcm(*scales)
    columns = list(zip(*relations))
    for m in coefficients:
        lead = [m[p] * (common // d) for p, d in zip(pivots, scales)]
        if any(common * v != _dot(lead, col) for v, col in zip(m, columns)):
            return False
    return det_bareiss_int([[m[p] for p in pivots] for m in coefficients]) != 0


def _primitivity(mat, inverse):
    """(primitive, index), by one product when ``inverse`` is a right inverse."""
    if inverse is not None and inverse.rows == mat.cols and mat @ inverse == IntMatrix.identity(mat.rows):
        return True, 1
    index = saturation_index(mat)
    return index == 1 and inverse is None, index
