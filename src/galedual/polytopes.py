"""Exact lattice polytopes: convex hulls, normalized volumes, and the counting
bounds derived from them.

All hull and volume computations are exact integer/rational arithmetic; float
only appears in the fewnomial bound values, which are transcendental anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantError
from .lattice import IntMatrix, kernel_basis, quotient_images, solve_integer
from .ratlinalg import mat_rank

MAX_AMBIENT_DIM = 6


@dataclass(frozen=True)
class LatticePolytope:
    """Full-dimensional hull of finitely many integer points.

    ``points`` are the deduplicated input points (sorted), ``vertices`` the
    hull vertices: counterclockwise from the lexicographic minimum in two
    dimensions, sorted lexicographically otherwise.
    """

    ambient_dim: int
    points: tuple
    vertices: tuple


def convex_hull(points):
    """Exact convex hull of integer points.

    Supports ambient dimension 1 through 6. Raises ValueError when the points
    do not affinely span the ambient space (the volume of a lower-dimensional
    hull would be 0 and callers that want that should not be here).
    """
    pts = sorted({tuple(int(v) for v in p) for p in points})
    if not pts:
        raise ValueError("no points given")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise ValueError("points of mixed dimension")
    if dim < 1 or dim > MAX_AMBIENT_DIM:
        raise ValueError(f"ambient dimension {dim} outside supported range 1..{MAX_AMBIENT_DIM}")
    if _affine_rank(pts) < dim:
        raise ValueError("points do not affinely span the ambient space")
    if dim == 1:
        verts = (pts[0], pts[-1])
    elif dim == 2:
        verts = tuple(_hull_2d(pts))
    else:
        verts = tuple(sorted(_hull_vertices_nd(pts, dim)))
    return LatticePolytope(dim, tuple(pts), verts)


def _affine_rank(pts):
    base = pts[0]
    diffs = [[Fraction(a - b) for a, b in zip(p, base)] for p in pts[1:]]
    return mat_rank(diffs)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_2d(pts):
    """Monotone chain on presorted distinct points; CCW from the lex minimum."""
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _facets_nd(pts, dim):
    """All facet hyperplanes as (primitive outward normal, offset) pairs.

    Brute force over point subsets of size dim; desk scale by design.
    """
    from itertools import combinations

    found = {}
    for subset in combinations(pts, dim):
        base = subset[0]
        diffs = [[p[i] - base[i] for i in range(dim)] for p in subset[1:]]
        normal = _primitive_normal(diffs, dim)
        if normal is None:
            continue
        offset = sum(n * v for n, v in zip(normal, base))
        side = {_sign(sum(n * v for n, v in zip(normal, p)) - offset) for p in pts}
        if 1 in side and -1 in side:
            continue
        if 1 in side:
            normal = tuple(-n for n in normal)
            offset = -offset
        found[(normal, offset)] = True
    return list(found)


def _sign(v):
    return (v > 0) - (v < 0)


def _primitive_normal(diff_rows, dim):
    """Primitive integer normal of the span of dim-1 difference vectors."""
    if mat_rank([[Fraction(v) for v in row] for row in diff_rows]) != dim - 1:
        return None
    kernel = kernel_basis(IntMatrix.from_rows(diff_rows, cols=dim))
    normal = tuple(kernel.row(0))
    return normal


def _hull_vertices_nd(pts, dim):
    facets = _facets_nd(pts, dim)
    verts = []
    for p in pts:
        tight = [
            normal
            for normal, offset in facets
            if sum(n * v for n, v in zip(normal, p)) == offset
        ]
        if len(tight) >= dim and mat_rank([[Fraction(v) for v in n] for n in tight]) == dim:
            verts.append(p)
    return verts


def normalized_volume(polytope):
    """dim! times the Euclidean volume; always a nonnegative integer.

    Recursive facet decomposition: cone the hull from a fixed vertex and sum
    lattice-height times facet volume, mapping each facet into its own
    (dim-1)-dimensional lattice coordinates exactly.
    """
    vol = _nvol(list(polytope.points), polytope.ambient_dim)
    if not (isinstance(vol, int) and vol >= 0):
        raise InvariantError(f"normalized volume {vol!r} is not a nonnegative integer")
    return vol


def _nvol(pts, dim):
    pts = sorted(set(pts))
    if dim == 1:
        return pts[-1][0] - pts[0][0]
    if dim == 2:
        # fan triangulation from a fixed hull vertex
        hull = _hull_2d(pts)
        apex = hull[0]
        total = 0
        for a, b in zip(hull[1:], hull[2:]):
            total += abs(
                (a[0] - apex[0]) * (b[1] - apex[1]) - (a[1] - apex[1]) * (b[0] - apex[0])
            )
        return total
    apex = pts[0]  # lexicographic minimum is always a hull vertex
    total = 0
    for normal, offset in _facets_nd(pts, dim):
        height = abs(sum(n * v for n, v in zip(normal, apex)) - offset)
        if height == 0:
            continue
        tight = [p for p in pts if sum(n * v for n, v in zip(normal, p)) == offset]
        total += height * _nvol(_facet_coordinates(tight, normal, dim), dim - 1)
    return total


def _facet_coordinates(tight_pts, normal, dim):
    """Map facet points to Z^(dim-1) via a basis of the normal's kernel lattice."""
    basis = kernel_basis(IntMatrix.from_rows([list(normal)], cols=dim))
    base = tight_pts[0]
    bt = basis.transpose()
    out = []
    for p in tight_pts:
        delta = tuple(a - b for a, b in zip(p, base))
        coords = solve_integer(bt, delta)
        if coords is None:
            raise InvariantError("facet point fell outside its own lattice")
        out.append(coords)
    return out


def kouchnirenko_bound(support):
    """Normalized volume of the hull of the support together with the origin.

    Bounds the number of isolated torus solutions of any sparse system with
    this support, with equality for generic coefficients.
    """
    dim = support.matrix.rows
    pts = [tuple([0] * dim)] + [support.exponent(j) for j in range(support.matrix.cols)]
    return normalized_volume(convex_hull(pts))


def euler_from_volume(shape, volume):
    """(-1)^excess * C(torus_dim - 1, num_equations - 1) * volume."""
    sign = -1 if shape.excess_dim % 2 else 1
    return sign * math.comb(shape.torus_dim - 1, shape.num_equations - 1) * volume


def euler_characteristic(basis):
    """Signed Euler characteristic of the arrangement complement cut out by
    the weight quotient, via the volume formula.

    Equals (-1)^excess * C(torus_dim - 1, num_equations - 1) * normalized
    volume of the quotient-image polytope. For excess_dim = 0 this is exactly
    the Kouchnirenko bound of the quotient support.
    """
    shape = basis.shape
    images = quotient_images(basis)
    return euler_from_volume(shape, kouchnirenko_bound(images))


@dataclass(frozen=True)
class BoundValue:
    """A fewnomial-type bound: float value plus its exact symbolic rendering."""

    variant: str
    value: float
    formula: str


def fewnomial_bound(num_weights, num_equations=None, variant="positive", excess_dim=None):
    """Fewnomial-type solution bounds depending only on the shape numbers.

    variant "positive": bound on positive real solutions, needs num_equations.
    variant "all_real": bound on all real solutions, needs num_equations.
    variant "betti": bound on the sum of Betti numbers of the (excess_dim > 0)
    solution set, needs excess_dim.
    """
    l = int(num_weights)
    if l < 0:
        raise ValueError("num_weights must be nonnegative")
    variant = variant.replace("-", "_")
    pairs = math.comb(l, 2)
    if variant in ("positive", "all_real"):
        if num_equations is None:
            raise ValueError(f"variant {variant!r} needs num_equations")
        n = int(num_equations)
        e_power = 2 if variant == "positive" else 4
        value = (math.e**e_power + 3) / 4 * 2**pairs * n**l
        formula = f"(e^{e_power} + 3)/4 * 2^{pairs} * {n}^{l}"
        return BoundValue(variant, value, formula)
    if variant == "betti":
        if excess_dim is None:
            raise ValueError("variant 'betti' needs excess_dim")
        m = int(excess_dim)
        value = (math.e**2 + 3) / 4 * 2**pairs * (m + 1) ** l * 2 ** (m + 1)
        formula = f"(e^2 + 3)/4 * 2^{pairs} * {m + 1}^{l} * 2^{m + 1}"
        return BoundValue(variant, value, formula)
    raise ValueError(f"unknown variant {variant!r}")
