"""Dualization between sparse torus systems and master-function systems.

Either side determines the other up to unimodular coordinate changes: the
sparse support becomes the quotient data for the weights, the diagonalized
coefficient rows become degree-one forms, and back. A GalePair carries both
systems plus the witness linking their coordinates; check_gale_pair verifies
every pairing condition exactly and reports rather than throws. A pair that
dualization returns carries the check it passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import DependentRowsError, InvariantError, NotEssentialError, NotPrimitiveError
from .lattice import (
    WeightBasis,
    kernel_basis,
    lll_reduce,
    quotient_images,
    saturation_index,
    smith_diagonal,
)
from .ratlinalg import right_kernel, row_space_equal, rref
from .systems import (
    Arrangement,
    LinearForm,
    MasterSystem,
    SparseSystem,
    diagonalize,
    is_essential,
    master_variable_names,
    monomial_string,
    torus_variable_names,
)


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
    """

    linear_forms: tuple
    z_support_columns: tuple
    z_monomials: tuple


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
    """Exact verification results for a GalePair; nothing here throws."""

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
        return (
            self.shapes_consistent
            and self.support_primitive
            and self.weights_primitive
            and self.annihilates
            and self.forms_essential
            and self.relations_vanish
            and self.spans_match
        )

    def failures(self):
        names = [
            "shapes_consistent",
            "support_primitive",
            "weights_primitive",
            "annihilates",
            "forms_essential",
            "relations_vanish",
            "spans_match",
        ]
        return tuple(n for n in names if not getattr(self, n))


def _lattice_index(mat, rank):
    """Product of the Smith divisors of ``mat``; 0 when its rank is below ``rank``."""
    divisors = smith_diagonal(mat)
    return math.prod(divisors) if len(divisors) == rank else 0


def require_support_primitive(support):
    """Raise unless the support columns generate all of Z^torus_dim."""
    index = _lattice_index(support.matrix, support.shape.torus_dim)
    if index == 0:
        raise DependentRowsError(
            "support columns do not span the variable space over Q"
        )
    if index != 1:
        raise NotPrimitiveError(index, what="support lattice")


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
    relation lattice as the weights. The z-coordinate order is pivots then
    non-pivots, each in stored support order.
    """
    require_support_primitive(system.support)
    diag = diagonalize(system)
    shape = system.shape
    z_cols = list(diag.pivots) + list(diag.nonpivots)

    names = master_variable_names(shape.master_dim)
    forms = [LinearForm(rhs.constant, rhs.coeffs) for rhs in diag.rhs]
    for t in range(shape.master_dim):
        forms.append(
            LinearForm(0, tuple(1 if j == t else 0 for j in range(shape.master_dim)))
        )
    arrangement = Arrangement(shape.master_dim, tuple(forms), names)

    z_support = system.support.matrix.submatrix_columns(z_cols)
    weights = WeightBasis(shape, lll_reduce(kernel_basis(z_support)))
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
    )
    return _checked(GalePair(system, master, witness))


def dualize_master_to_poly(master):
    """Sparse torus system cut out by the same scheme as a master system.

    The support is the quotient-image matrix of the weights; the coefficient
    rows are the reduced basis of linear relations among 1 and the forms.
    """
    shape = master.shape
    index = saturation_index(master.weights.matrix)
    if index != 1:
        raise NotPrimitiveError(index, what="weight lattice")
    if not is_essential(master.arrangement):
        raise NotEssentialError(
            "forms plus the constant do not span degree one"
        )
    images = quotient_images(master.weights)

    ambient = shape.master_dim
    stacked = [[Fraction(1)] + [f.constant for f in master.arrangement.forms]]
    for r in range(ambient):
        stacked.append([Fraction(0)] + [f.coeffs[r] for f in master.arrangement.forms])
    relations = right_kernel(stacked)
    reduced, _ = rref(relations)
    if len(reduced) != shape.num_equations:
        raise InvariantError(f"{len(reduced)} relations for {shape.num_equations} equations")

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
    """Exact certification of every pairing condition; returns a PairCheck."""
    poly = pair.poly
    master = pair.master
    witness = pair.witness
    shape = poly.shape
    k = shape.num_forms

    shapes_consistent = (
        shape == master.shape
        and sorted(witness.z_support_columns) == list(range(k))
        and len(witness.linear_forms) == shape.num_equations
        and all(len(row) == k + 1 for row in witness.linear_forms)
        and len(witness.z_monomials) == k
    )

    support_index = _lattice_index(poly.support.matrix, shape.torus_dim)
    weight_index = _lattice_index(master.weights.matrix, shape.num_weights)

    annihilates = False
    if shapes_consistent:
        z_support = poly.support.matrix.submatrix_columns(witness.z_support_columns)
        annihilates = (z_support @ master.weights.matrix.transpose()).is_zero()

    forms_essential = is_essential(master.arrangement)

    relations_vanish = True
    forms = master.arrangement.forms
    if shapes_consistent:
        for row in witness.linear_forms:
            constant = row[0] + sum(row[i + 1] * forms[i].constant for i in range(k))
            gradient = [
                sum(row[i + 1] * forms[i].coeffs[r] for i in range(k))
                for r in range(shape.master_dim)
            ]
            if constant != 0 or any(g != 0 for g in gradient):
                relations_vanish = False
                break
    else:
        relations_vanish = False

    spans_match = False
    if shapes_consistent:
        permuted = [
            [row[0]] + [row[col + 1] for col in witness.z_support_columns]
            for row in poly.coefficients
        ]
        spans_match = row_space_equal(
            [list(row) for row in witness.linear_forms], permuted
        )

    return PairCheck(
        shapes_consistent=shapes_consistent,
        support_primitive=support_index == 1,
        support_index=support_index,
        weights_primitive=weight_index == 1,
        weight_index=weight_index,
        annihilates=annihilates,
        forms_essential=forms_essential,
        relations_vanish=relations_vanish,
        spans_match=spans_match,
    )
