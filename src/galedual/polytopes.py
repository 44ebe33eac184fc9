"""Exact lattice polytopes: convex hulls, normalized volumes, and the counting
bounds derived from them.

Hulls and volumes are computed in Python ints, in one beneath-beyond pass:
the first simplex and its normals come from one fraction-free Gauss-Jordan
elimination of the edges from the first point, as columns beside the
identity (the pivot columns pick the simplex, the last pivot is its volume,
and the identity block's rows and their sum are the normals), and each
later facet is an integer combination of two earlier ones that meet in a
ridge. The hull keeps each facet's incidence mask, which gives the vertices,
and a placing triangulation of its boundary, which gives the volume without
a determinant. Float only appears in the fewnomial bound values, which are
transcendental anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import and_

from .errors import DependentRowsError, DimensionCapError, InvariantError
from .lattice import _dot, quotient_images
from .ratlinalg import _bareiss, mat_rank

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
    ``volume`` is the normalized volume, summed while the hull was built.
    """

    ambient_dim: int
    points: tuple
    vertices: tuple
    facets: tuple
    masks: tuple
    volume: int


def convex_hull(points):
    """Exact convex hull of integer points.

    Supports ambient dimension 1 through 6. Raises ValueError when the points
    do not affinely span the ambient space (the volume of a lower-dimensional
    hull would be 0 and callers that want that should not be here), and on
    a coordinate that is not an int, as ``IntMatrix`` does. The volume
    comes from the same pass as the facets (see ``_facets``).
    """
    pts = [tuple(p) for p in points]
    if not all(isinstance(v, int) for p in pts for v in p):
        raise ValueError("point coordinates must be int")
    pts = sorted(set(pts))
    if not pts:
        raise ValueError("no points given")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise ValueError("points of mixed dimension")
    if dim < 1 or dim > MAX_AMBIENT_DIM:
        raise ValueError(f"ambient dimension {dim} outside supported range 1..{MAX_AMBIENT_DIM}")
    facets, volume = _facets(pts)
    # a vertex is the only point on every facet through it
    verts = [
        p for i, p in enumerate(pts)
        if reduce(and_, (m for m in facets.values() if m >> i & 1), -1) == 1 << i
    ]
    keys = tuple(sorted(facets))
    return LatticePolytope(dim, tuple(pts), tuple(verts), keys, tuple(map(facets.get, keys)), volume)


def _facets(pts):
    """Beneath-beyond hull of sorted distinct points: a dict from each facet's
    (primitive outward normal, offset) to its incidence mask, whose bit i is
    set when pts[i] lies on the facet, and the hull's normalized volume.

    The hull starts as a simplex on pts[0] and the first points whose edges
    from it are independent. One Gauss-Jordan elimination of the edges as
    columns, beside the identity, gives both: its pivot columns are those
    edges, its last pivot is +-c, c the simplex's volume, and the identity
    block ends as c * D^-T, D the simplex's edge rows. The other points are
    placed farthest from the simplex's centroid first, as Quickhull inserts
    (Barber, Dobkin and Huhdanpaa, ACM TOMS 22, 1996): the hull grows to
    near its final size early, fewer cells are made only to be dropped, and
    a point strictly inside, which changes nothing, is skipped. Facets,
    masks and volume do not depend on the order.

    The hull keeps a placing triangulation of its boundary: ``cells`` maps
    the bitmask of a cell's d point indices to its facet and nu, its lattice
    volume in its hyperplane, and ``owners`` each ridge (a mask of d - 1
    indices) to the sum of the bits that complete it to its two cells. The
    facet opposite simplex vertex k starts as one cell, nu = c / dist(k). A
    point q beyond a facet v drops v's cells and adds side_v(q) * nu(s) for
    each cell s, the pyramid from q over s. A ridge of s = ridge + a whose
    other cell lies in a facet u that q is not beyond gives the new cell
    ridge + q: in u when side_u(q) = 0, else in the facet
    (-side_u(q)) * v + side_v(q) * u, zero at q and on the ridge. As
    conv(s, q) is also the pyramid from a over the new cell, its nu is
    side_v(q) * nu(s) / dist(a), an exact division.
    """
    dim, edges = len(pts[0]), len(pts) - 1
    rows = [[p[r] - pts[0][r] for p in pts[1:]] + [int(r == t) for t in range(dim)] for r in range(dim)]
    reduced, pivots, last, _ = _bareiss(rows, True)
    if pivots[-1] >= edges:
        raise ValueError("points do not affinely span the ambient space")
    volume = abs(last)
    facets, cells, owners = {}, {}, {}

    def place(cell, facet, nu):
        cells[cell] = facet, nu
        for low in _bits(cell):
            owners[cell ^ low] = owners.get(cell ^ low, 0) ^ low

    # row j of c*D^-T is normal to the facet opposite simplex[j + 1], and
    # the sum of the rows to the one opposite pts[0]
    simplex = [0] + [c + 1 for c in pivots]
    corners = sum(1 << j for j in simplex)
    inverse = [row[edges:] for row in reduced]
    for k, normal in zip(simplex, [[sum(col) for col in zip(*inverse)], *inverse]):
        g = math.gcd(*normal)
        normal = tuple(n // g for n in normal)
        offset = _dot(normal, pts[simplex[k == 0]])
        height = _dot(normal, pts[k]) - offset
        if height > 0:
            normal, offset = tuple(-n for n in normal), -offset
        facets[normal, offset] = corners ^ 1 << k
        place(corners ^ 1 << k, (normal, offset), volume // abs(height))
    # squared distances from the centroid, times (d + 1)^2
    centre = [sum(pts[j][r] for j in simplex) for r in range(dim)]
    spread = [sum(((dim + 1) * x - c) ** 2 for x, c in zip(p, centre)) for p in pts]
    for i in sorted((i for i in range(len(pts)) if not corners >> i & 1), key=lambda i: (-spread[i], i)):
        side = {f: _dot(f[0], pts[i]) - f[1] for f in facets}
        if max(side.values()) < 0:
            continue
        bit = 1 << i
        dropped = [cell for cell, (f, _) in cells.items() if side[f] > 0]
        added, horizon = {}, []
        for cell in dropped:
            v, nu = cells[cell]
            volume += side[v] * nu
            for low in _bits(cell):
                ridge = cell ^ low
                u = cells[ridge | owners[ridge] ^ low][0]  # the ridge's other cell
                if side[u] > 0:
                    continue
                w = u
                if side[u] < 0:
                    sv, su = side[v], -side[u]
                    normal = [su * x + sv * y for x, y in zip(v[0], u[0])]
                    g = math.gcd(*normal)
                    w = tuple(n // g for n in normal), (su * v[1] + sv * u[1]) // g
                    added[w] = facets[v] & facets[u] | bit
                apex = pts[low.bit_length() - 1]
                horizon.append((ridge | bit, w, side[v] * nu // (w[1] - _dot(w[0], apex))))
        for cell in dropped:  # a ridge left with no cell is inside the hull and never read again
            del cells[cell]
            for low in _bits(cell):
                owners[cell ^ low] ^= low
        facets = {f: m | bit if side[f] == 0 else m for f, m in facets.items() if side[f] <= 0}
        facets.update(added)
        for cell in horizon:
            place(*cell)
    return facets, volume


def _bits(mask):
    """The set bits of a nonnegative int, lowest first, each as its own power of two."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def normalized_volume(polytope):
    """dim! times the Euclidean volume; always a positive integer.

    Read off the hull: ``_facets`` sums it while it places the points, as
    the first simplex's volume plus side_v(q) * NVol(v) for each facet v that
    a later point q lies beyond, NVol(v) the sum of the lattice volumes nu of
    v's cells in the boundary triangulation.
    """
    vol = polytope.volume
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
