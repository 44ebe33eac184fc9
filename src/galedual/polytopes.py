"""Exact lattice polytopes: convex hulls, normalized volumes, and the counting
bounds derived from them.

Hulls and volumes are computed in Python ints, and the facets of a hull are
found once. The normal of each d-subset of points is its vector of signed
integer cofactors, divided by their gcd; a subset with every point on one
side of its hyperplane spans a facet. ``normalized_volume`` sums |det| over a
pulling triangulation whose faces it reads off those stored facets. Float
only appears in the fewnomial bound values, which are transcendental anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .errors import InvariantError
from .lattice import quotient_images
from .ratlinalg import det_bareiss_int, mat_rank

# unused here; bench/spans.py looks these names up on this module to count calls
from .lattice import kernel_basis, solve_integer  # noqa: F401

MAX_AMBIENT_DIM = 6


@dataclass(frozen=True)
class LatticePolytope:
    """Full-dimensional hull of finitely many integer points.

    ``points`` are the deduplicated input points (sorted), ``vertices`` the
    hull vertices: counterclockwise from the lexicographic minimum in two
    dimensions, sorted lexicographically otherwise. ``facets`` are the
    facet hyperplanes as sorted (primitive outward normal, offset) pairs:
    every point p has normal . p <= offset, with equality on the facet.
    """

    ambient_dim: int
    points: tuple
    vertices: tuple
    facets: tuple


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
    facets = _facets(pts)
    if dim == 2:
        verts = _hull_2d(pts)
    else:
        # a vertex is tight on facets whose normals span the space
        verts = [p for p in pts if mat_rank([n for n, c in facets if _dot(n, p) == c]) == dim]
    return LatticePolytope(dim, tuple(pts), tuple(verts), facets)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _affine_rank(pts):
    return mat_rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]])


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


def _normal(subset):
    """Primitive normal of the hyperplane through d points of Z^d, or None
    when they are affinely dependent.

    The normal is the vector of signed (d-1)-minors of the difference rows,
    the generalized cross product.
    """
    base = subset[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in subset[1:]]
    minors = [
        (-1) ** i * det_bareiss_int([row[:i] + row[i + 1 :] for row in diffs])
        for i in range(len(base))
    ]
    g = math.gcd(*minors)
    return tuple(m // g for m in minors) if g else None


def _facets(pts):
    """All facets as sorted (primitive outward normal, offset) pairs.

    Brute force over point subsets of size dim; desk scale by design.
    """
    found = set()
    for subset in combinations(pts, len(pts[0])):
        normal = _normal(subset)
        if normal is None:
            continue
        offset = _dot(normal, subset[0])
        sides = [_dot(normal, p) - offset for p in pts]
        if min(sides) < 0 < max(sides):
            continue
        if max(sides) > 0:
            normal, offset = tuple(-n for n in normal), -offset
        found.add((normal, offset))
    return tuple(sorted(found))


def normalized_volume(polytope):
    """dim! times the Euclidean volume; always a positive integer.

    The sum of |det| over a pulling triangulation, all in ints. Each face is
    coned from its lexicographically least point over the facets of the face
    that miss that point. The facets of a face are its intersections with the
    hull's ``facets`` whose affine rank is one less than the face's own, so
    no facet search runs here.
    """

    @cache
    def simplices(face, rank):
        if rank == 0:
            return [face]
        apex = face[0]
        out = []
        for sub in {tuple(p for p in face if _dot(n, p) == c) for n, c in polytope.facets}:
            if sub and apex not in sub and _affine_rank(sub) == rank - 1:
                out += [(apex,) + s for s in simplices(sub, rank - 1)]
        return out

    vol = sum(
        abs(det_bareiss_int([[a - b for a, b in zip(p, s[0])] for p in s[1:]]))
        for s in simplices(polytope.points, polytope.ambient_dim)
    )
    if vol <= 0:
        raise InvariantError(f"normalized volume {vol!r} of a full-dimensional hull is not positive")
    return vol


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
