"""Exact lattice polytopes: convex hulls, normalized volumes, and the counting
bounds derived from them.

Hulls and volumes are computed in Python ints, and the facets of a hull are
found once, by beneath-beyond: the first simplex and its normals come from
one fraction-free Gauss-Jordan elimination of the edges from the first
point, as columns beside the identity (the pivot columns pick the simplex,
and the identity block's rows and their sum are the normals), and each
later facet is an integer combination of two earlier ones that meet in a
ridge. The hull keeps each facet's incidence mask; vertices, and the faces
of the pulling triangulation that ``normalized_volume`` sums |det| over,
are read off those masks. Float only appears in the fewnomial bound values,
which are transcendental anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce
from itertools import product
from operator import and_

from .errors import DependentRowsError, DimensionCapError, InvariantError
from .lattice import quotient_images
from .ratlinalg import _bareiss, det_bareiss_int, mat_rank

# unused here; bench/spans.py looks these names up on this module to count calls
from .lattice import kernel_basis, solve_integer  # noqa: F401

MAX_AMBIENT_DIM = 6


@dataclass(frozen=True)
class LatticePolytope:
    """Full-dimensional hull of finitely many integer points.

    ``points`` are the deduplicated input points (sorted), ``vertices`` the
    hull vertices (sorted), and ``facets`` the facet hyperplanes as sorted
    (primitive outward normal, offset) pairs: every point p has
    normal . p <= offset, with equality on the facet. ``masks[i]`` is the
    incidence mask of ``facets[i]``: bit j is set when points[j] lies on it.
    """

    ambient_dim: int
    points: tuple
    vertices: tuple
    facets: tuple
    masks: tuple


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
    facets = _facets(pts)
    # a vertex is the only point on every facet through it
    verts = [
        p for i, p in enumerate(pts)
        if reduce(and_, (m for m in facets.values() if m >> i & 1), -1) == 1 << i
    ]
    keys = tuple(sorted(facets))
    return LatticePolytope(dim, tuple(pts), tuple(verts), keys, tuple(map(facets.get, keys)))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _facets(pts):
    """Beneath-beyond hull of sorted distinct points: a dict from each facet's
    (primitive outward normal, offset) to its incidence mask, whose bit i is
    set when pts[i] lies on the facet.

    The hull starts as a simplex on pts[0] and the first points whose edges
    from it are independent, and takes the others in order. One Gauss-Jordan
    elimination of the edges as columns, beside the identity, gives both:
    its pivot columns are those edges, and the identity block ends as
    c * D^-T, D the simplex's edge rows. A point q drops the facets it lies
    beyond. Each ridge of a dropped facet v and a facet u that q lies
    strictly beneath spans a new facet with q: (-side(u)) * v + side(v) * u,
    zero at q and on the ridge. Two facets meet in a ridge when no third
    holds all their points.
    """
    dim, edges = len(pts[0]), len(pts) - 1
    rows = [[p[r] - pts[0][r] for p in pts[1:]] + [int(r == t) for t in range(dim)] for r in range(dim)]
    reduced, pivots, _, _ = _bareiss(rows, True)
    if pivots[-1] >= edges:
        raise ValueError("points do not affinely span the ambient space")
    # row j of c*D^-T is normal to the facet opposite simplex[j + 1], and
    # the sum of the rows to the one opposite pts[0]
    simplex = [0] + [c + 1 for c in pivots]
    inverse = [row[edges:] for row in reduced]
    facets = {}
    for k, normal in zip(simplex, [[sum(col) for col in zip(*inverse)], *inverse]):
        g = math.gcd(*normal)
        normal = tuple(n // g for n in normal)
        rest = [j for j in simplex if j != k]
        offset = _dot(normal, pts[rest[0]])
        if _dot(normal, pts[k]) > offset:
            normal, offset = tuple(-n for n in normal), -offset
        facets[normal, offset] = sum(1 << j for j in rest)
    for i in (i for i in range(len(pts)) if i not in simplex):
        bit = 1 << i
        side = {f: _dot(f[0], pts[i]) - f[1] for f in facets}
        added = {}
        for v, u in product([f for f in facets if side[f] > 0], [f for f in facets if side[f] < 0]):
            ridge = facets[v] & facets[u]
            if ridge.bit_count() < dim - 1 or sum(m & ridge == ridge for m in facets.values()) > 2:
                continue
            sv, su = side[v], -side[u]
            normal = [su * a + sv * b for a, b in zip(v[0], u[0])]
            g = math.gcd(*normal)
            added[tuple(n // g for n in normal), (su * v[1] + sv * u[1]) // g] = ridge | bit
        facets = {f: m | bit if side[f] == 0 else m for f, m in facets.items() if side[f] <= 0}
        facets.update(added)
    return facets


def normalized_volume(polytope):
    """dim! times the Euclidean volume; always a positive integer.

    The sum of |det| over a pulling triangulation, all in ints. Each face is
    coned from its lexicographically least point over the facets of the face
    that miss that point. A face is an incidence mask over ``points``, and its
    facets are the inclusion-maximal proper nonempty intersections of the
    face with the hull's ``masks``.
    """
    pts, masks = polytope.points, polytope.masks

    @cache
    def simplices(face):
        low = face & -face
        apex = pts[low.bit_length() - 1]
        if face == low:
            return [(apex,)]
        subs = {face & m for m in masks} - {0, face}
        return [
            (apex,) + s
            for sub in subs
            if not sub & low and not any(sub != t and sub & t == sub for t in subs)
            for s in simplices(sub)
        ]

    vol = sum(
        abs(det_bareiss_int([[a - b for a, b in zip(p, s[0])] for p in s[1:]]))
        for s in simplices((1 << len(pts)) - 1)
    )
    if vol <= 0:
        raise InvariantError(f"normalized volume {vol!r} of a full-dimensional hull is not positive")
    return vol


def kouchnirenko_bound(support):
    """Normalized volume of the hull of the support together with the origin.

    Bounds the number of isolated torus solutions of any sparse system with
    this support, with equality for generic coefficients. Raises
    DimensionCapError in more than MAX_AMBIENT_DIM variables and
    DependentRowsError when the support columns do not span Q^dim.
    """
    dim = support.matrix.rows
    if dim > MAX_AMBIENT_DIM:
        raise DimensionCapError(
            f"bounds are capped at {MAX_AMBIENT_DIM} variables, got {dim}"
        )
    pts = [tuple([0] * dim)] + [support.exponent(j) for j in range(support.matrix.cols)]
    try:
        hull = convex_hull(pts)
    except ValueError:
        if mat_rank(support.matrix.to_rows()) < dim:
            raise DependentRowsError("support columns do not span the variable space over Q") from None
        raise
    return normalized_volume(hull)


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


def fewnomial_bound(shape):
    """Fewnomial-type solution bounds that depend only on the shape numbers.

    A list of BoundValues: "positive" bounds the positive real solutions,
    "all_real" all real solutions, and, when excess_dim > 0, "betti" the sum
    of Betti numbers of the solution set.
    """
    l, m, n = shape
    pairs = math.comb(l, 2)
    bounds = []
    for variant, e_power in (("positive", 2), ("all_real", 4)):
        value = (math.e**e_power + 3) / 4 * 2**pairs * n**l
        formula = f"(e^{e_power} + 3)/4 * 2^{pairs} * {n}^{l}"
        bounds.append(BoundValue(variant, value, formula))
    if m > 0:
        value = (math.e**2 + 3) / 4 * 2**pairs * (m + 1) ** l * 2 ** (m + 1)
        formula = f"(e^2 + 3)/4 * 2^{pairs} * {m + 1}^{l} * 2^{m + 1}"
        bounds.append(BoundValue("betti", value, formula))
    return bounds
