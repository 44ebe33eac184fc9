"""Hulls, normalized volumes, and the shape-only counting bounds."""

import math
import random
from fractions import Fraction
from functools import cache, cmp_to_key
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from galedual import polytopes, ratlinalg
from galedual.lattice import (
    ExponentMatrix,
    IntMatrix,
    SystemShape,
    WeightBasis,
    kernel_basis,
    solve_integer,
)
from galedual.polytopes import (
    MAX_AMBIENT_DIM,
    convex_hull,
    euler_characteristic,
    euler_from_volume,
    fewnomial_bound,
    kouchnirenko_bound,
    normalized_volume,
)
from galedual.ratlinalg import det_bareiss_int, mat_rank


def rand_points(rng, count, dim, lo=-5, hi=5):
    return [tuple(rng.randint(lo, hi) for _ in range(dim)) for _ in range(count)]


def rand_unimodular2(rng):
    m = [[1, 0], [0, 1]]
    for _ in range(6):
        i = rng.randint(0, 1)
        c = rng.randint(-2, 2)
        for t in range(2):
            m[i][t] += c * m[1 - i][t]
    return m


def apply_affine(points, u, shift):
    return [
        (
            u[0][0] * p[0] + u[0][1] * p[1] + shift[0],
            u[1][0] * p[0] + u[1][1] * p[1] + shift[1],
        )
        for p in points
    ]


def ccw(vertices):
    """Polygon vertices counterclockwise from the lexicographic minimum."""
    o = min(vertices)

    def turn(a, b):
        return (b[0] - o[0]) * (a[1] - o[1]) - (b[1] - o[1]) * (a[0] - o[0])

    return [o] + sorted((v for v in vertices if v != o), key=cmp_to_key(turn))


def edges(hull):
    return list(zip(hull, hull[1:] + hull[:1]))


def contains_2d(hull, p):
    for a, b in edges(hull):
        if (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) < 0:
            return False
    return True


def spanning_2d(points):
    try:
        convex_hull(points)
        return True
    except ValueError:
        return False


# -- hull geometry ------------------------------------------------------------


def test_hull_2d_characterization():
    rng = random.Random(51)
    done = 0
    while done < 120:
        pts = rand_points(rng, rng.randint(3, 12), 2)
        if not spanning_2d(pts):
            continue
        done += 1
        hull = ccw(convex_hull(pts).vertices)
        assert hull[0] == min(pts)
        assert all(v in pts for v in hull)
        # strictly convex counterclockwise walk, no collinear vertices
        n = len(hull)
        for i in range(n):
            a, b, c = hull[i], hull[(i + 1) % n], hull[(i + 2) % n]
            turn = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            assert turn > 0
        for p in pts:
            assert contains_2d(hull, p)


def test_hull_dedupes_and_sorts_points():
    poly = convex_hull([(1, 1), (0, 0), (1, 1), (2, 0), (0, 2)])
    assert poly.points == ((0, 0), (0, 2), (1, 1), (2, 0))
    assert poly.ambient_dim == 2


def test_hull_1d():
    poly = convex_hull([(3,), (-2,), (5,), (0,)])
    assert poly.vertices == ((-2,), (5,))
    assert normalized_volume(poly) == 7


def test_hull_rejects_degenerate_input():
    with pytest.raises(ValueError):
        convex_hull([])
    with pytest.raises(ValueError):
        convex_hull([(0, 0), (1, 1), (2, 2)])  # collinear
    with pytest.raises(ValueError):
        convex_hull([(0, 0), (1, 0)])  # does not span
    with pytest.raises(ValueError):
        convex_hull([(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 1, 0), (0, 2, 5)])  # a plane
    with pytest.raises(ValueError):
        convex_hull([(0, 0), (1,)])
    with pytest.raises(ValueError):
        convex_hull([tuple([0] * 7), tuple([1] * 7)])
    assert MAX_AMBIENT_DIM == 6


def test_hull_rejects_non_int_coordinates():
    # int() would truncate these to (1, 0) and (2, 2), a hull of volume 4
    with pytest.raises(ValueError, match="must be int"):
        convex_hull([(Fraction(3, 2), 0), (0, 1), (0, 0), (2.9, 2.9)])
    with pytest.raises(ValueError, match="must be int"):
        convex_hull([(0, 0), (1, 0), (Fraction(0), 1)])  # equal to an int, still not one


# -- volumes ------------------------------------------------------------------


def test_volume_against_pick_formula():
    # 2 * area = 2 * interior + boundary - 2 for lattice polygons
    rng = random.Random(52)
    done = 0
    while done < 80:
        pts = rand_points(rng, rng.randint(3, 10), 2)
        if not spanning_2d(pts):
            continue
        done += 1
        poly = convex_hull(pts)
        hull = ccw(poly.vertices)
        boundary = sum(math.gcd(abs(b[0] - a[0]), abs(b[1] - a[1])) for a, b in edges(hull))
        xs = [p[0] for p in hull]
        ys = [p[1] for p in hull]
        total = sum(
            contains_2d(hull, (x, y))
            for x in range(min(xs), max(xs) + 1)
            for y in range(min(ys), max(ys) + 1)
        )
        interior = total - boundary
        assert normalized_volume(poly) == 2 * interior + boundary - 2


def test_volume_unimodular_and_translation_invariant():
    rng = random.Random(53)
    done = 0
    while done < 60:
        pts = rand_points(rng, rng.randint(3, 8), 2)
        if not spanning_2d(pts):
            continue
        done += 1
        u = rand_unimodular2(rng)
        shift = (rng.randint(-4, 4), rng.randint(-4, 4))
        moved = apply_affine(pts, u, shift)
        assert normalized_volume(convex_hull(moved)) == normalized_volume(convex_hull(pts))


def test_volume_monotone_under_point_removal():
    rng = random.Random(54)
    done = 0
    while done < 40:
        pts = rand_points(rng, 8, 2)
        sub = pts[:5]
        if not (spanning_2d(pts) and spanning_2d(sub)):
            continue
        done += 1
        assert normalized_volume(convex_hull(sub)) <= normalized_volume(convex_hull(pts))


def test_volume_known_bodies():
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert normalized_volume(convex_hull(square)) == 2
    cube = list(product((0, 1), repeat=3))
    assert normalized_volume(convex_hull(cube)) == 6
    hypercube = list(product((0, 1), repeat=4))
    assert normalized_volume(convex_hull(hypercube)) == 24
    for d in (2, 3, 4, 5):
        simplex = [tuple([0] * d)] + [
            tuple(1 if i == j else 0 for i in range(d)) for j in range(d)
        ]
        assert normalized_volume(convex_hull(simplex)) == 1
    octahedron = [
        tuple(s if i == j else 0 for i in range(3)) for j in range(3) for s in (1, -1)
    ]
    assert normalized_volume(convex_hull(octahedron)) == 8


def test_volume_reeve_tetrahedra():
    # same four lattice points pattern, volume grows with the height parameter
    for q in (1, 2, 5, 12):
        tet = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, q)]
        assert normalized_volume(convex_hull(tet)) == q


def test_volume_scaling_law():
    pts = [(0, 0), (3, 2), (1, 2), (4, -1), (4, 1)]
    base = normalized_volume(convex_hull(pts))
    for k in (2, 3):
        scaled = [(k * x, k * y) for x, y in pts]
        assert normalized_volume(convex_hull(scaled)) == k ** 2 * base
    tet = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 3)]
    assert normalized_volume(convex_hull([(2 * a, 2 * b, 2 * c) for a, b, c in tet])) == 8 * 3


# -- reference: the recursive facet-coordinate volume ---------------------------
#
# Facets by kernel lattices, and the volume as height times facet volume,
# with each facet mapped into its own lattice coordinates. Independent of the
# cofactor normals and the pulling triangulation under test.


def ref_normal(diff_rows, dim):
    if mat_rank(diff_rows) != dim - 1:
        return None
    return tuple(kernel_basis(IntMatrix.from_rows(diff_rows, cols=dim)).row(0))


def ref_facets(pts, dim):
    found = {}
    for subset in combinations(pts, dim):
        base = subset[0]
        normal = ref_normal([[p[i] - base[i] for i in range(dim)] for p in subset[1:]], dim)
        if normal is None:
            continue
        offset = dot(normal, base)
        side = {(v > 0) - (v < 0) for v in (dot(normal, p) - offset for p in pts)}
        if 1 in side and -1 in side:
            continue
        if 1 in side:
            normal, offset = tuple(-n for n in normal), -offset
        found[(normal, offset)] = True
    return list(found)


def ref_vertices(pts, dim):
    facets = ref_facets(pts, dim)
    verts = []
    for p in pts:
        tight = [n for n, offset in facets if dot(n, p) == offset]
        if len(tight) >= dim and mat_rank(tight) == dim:
            verts.append(p)
    return verts


def ref_volume(pts, dim):
    pts = sorted(set(pts))
    if dim == 1:
        return pts[-1][0] - pts[0][0]
    apex = pts[0]
    total = 0
    for normal, offset in ref_facets(pts, dim):
        height = abs(dot(normal, apex) - offset)
        if height:
            tight = [p for p in pts if dot(normal, p) == offset]
            total += height * ref_volume(ref_facet_coordinates(tight, normal, dim), dim - 1)
    return total


def ref_facet_coordinates(tight_pts, normal, dim):
    bt = kernel_basis(IntMatrix.from_rows([list(normal)], cols=dim)).transpose()
    base = tight_pts[0]
    return [solve_integer(bt, tuple(a - b for a, b in zip(p, base))) for p in tight_pts]


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@st.composite
def spanning_points(draw, dims=(1, 2, 3, 4, 5)):
    dim = draw(st.sampled_from(dims))
    coord = st.integers(-3, 3)
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=dim + 1, max_size=dim + 4))
    assume(mat_rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]) == dim)
    return pts


@st.composite
def unimodular(draw, dim):
    """A product of elementary row operations and a signed permutation."""
    u = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                                           st.integers(-2, 2)), max_size=8)):
        if i != j:
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    order = draw(st.permutations(range(dim)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=dim, max_size=dim))
    return [[s * v for v in u[k]] for k, s in zip(order, signs)]


@settings(deadline=None, max_examples=150)
@given(spanning_points())
# the first d + 1 sorted points are collinear, so the starting simplex skips some
@example([(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 1, 1), (0, 2, 2), (1, 0, 0), (1, 1, 1), (2, 1, 0)])
def test_hull_and_volume_match_facet_coordinate_reference(pts):
    poly = convex_hull(pts)
    dim = poly.ambient_dim
    assert poly.points == tuple(sorted(set(pts)))
    assert list(poly.vertices) == ref_vertices(list(poly.points), dim)
    assert sorted(poly.facets) == sorted(ref_facets(list(poly.points), dim))
    assert normalized_volume(poly) == ref_volume(list(poly.points), dim)


@settings(deadline=None, max_examples=60)
@given(st.data(), st.sampled_from([3, 4]))
def test_volume_unimodular_and_translation_invariant_3d_4d(data, dim):
    pts = data.draw(spanning_points(dims=(dim,)))
    u = data.draw(unimodular(dim))
    shift = data.draw(st.tuples(*[st.integers(-4, 4)] * dim))

    def move(p):
        return tuple(dot(row, p) + t for row, t in zip(u, shift))

    poly = convex_hull(pts)
    moved = convex_hull([move(p) for p in pts])
    assert normalized_volume(moved) == normalized_volume(poly)
    assert sorted(moved.vertices) == sorted(move(v) for v in poly.vertices)
    assert len(moved.facets) == len(poly.facets)


@settings(deadline=None, max_examples=150)
@given(spanning_points())
def test_facets_are_primitive_supporting_and_tight_at_vertices(pts):
    poly = convex_hull(pts)
    dim = poly.ambient_dim
    assert list(poly.facets) == sorted(set(poly.facets))
    for normal, offset in poly.facets:
        assert math.gcd(*normal) == 1
        assert all(dot(normal, p) <= offset for p in poly.points)
        tight = [p for p in poly.points if dot(normal, p) == offset]
        assert mat_rank([[a - b for a, b in zip(p, tight[0])] for p in tight[1:]]) == dim - 1
    for v in poly.vertices:
        tight = [n for n, offset in poly.facets if dot(n, v) == offset]
        assert len(tight) >= dim and mat_rank(tight) == dim
    assert poly.masks == tuple(
        sum(1 << i for i, p in enumerate(poly.points) if dot(n, p) == c) for n, c in poly.facets
    )


def test_vertex_needs_tight_normals_of_full_rank():
    # prism over a square pyramid: the edge over the apex lies on four facets,
    # so its lattice midpoint is tight on four facets whose normals have rank 3
    pyramid = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)]
    pts = [(t,) + p for t in (0, 2) for p in pyramid] + [(1, 1, 1, 1)]
    poly = convex_hull(pts)
    assert sum(dot(n, (1, 1, 1, 1)) == c for n, c in poly.facets) == 4
    assert (1, 1, 1, 1) not in poly.vertices
    assert list(poly.vertices) == ref_vertices(list(poly.points), 4)
    assert normalized_volume(poly) == ref_volume(pts, 4) == 64  # 4! * 2 * (4 / 3)


# -- reference: brute-force cofactor facets -------------------------------------
#
# Every d-subset of the points, with the signed-cofactor normal, kept when all
# points lie on one side of its hyperplane; vertices by the rank of their
# tight normals; the volume by the pulling triangulation with faces found by
# affine rank. Exact, but exponential in the number of points.


def brute_facets(pts):
    found = set()
    for subset in combinations(pts, len(pts[0])):
        base = subset[0]
        diffs = [[a - b for a, b in zip(p, base)] for p in subset[1:]]
        minors = [
            (-1) ** i * det_bareiss_int([row[:i] + row[i + 1 :] for row in diffs])
            for i in range(len(base))
        ]
        g = math.gcd(*minors)
        if not g:
            continue
        normal = tuple(m // g for m in minors)
        offset = dot(normal, base)
        sides = [dot(normal, p) - offset for p in pts]
        if min(sides) < 0 < max(sides):
            continue
        if max(sides) > 0:
            normal, offset = tuple(-n for n in normal), -offset
        found.add((normal, offset))
    return sorted(found)


def affine_rank(pts):
    return mat_rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]])


def brute_hull(pts):
    """(facets, vertices, normalized volume) of sorted distinct points."""
    dim = len(pts[0])
    facets = brute_facets(pts)
    verts = [p for p in pts if mat_rank([n for n, c in facets if dot(n, p) == c]) == dim]

    @cache
    def simplices(face, rank):
        if rank == 0:
            return [face]
        out = []
        for sub in {tuple(p for p in face if dot(n, p) == c) for n, c in facets}:
            if sub and face[0] not in sub and affine_rank(sub) == rank - 1:
                out += [(face[0],) + s for s in simplices(sub, rank - 1)]
        return out

    vol = sum(
        abs(det_bareiss_int([[a - b for a, b in zip(p, s[0])] for p in s[1:]]))
        for s in simplices(tuple(pts), dim)
    )
    return facets, verts, vol


@st.composite
def crowded_points(draw):
    """Spanning point sets in dims 1-6 on small grids, where many points are
    coplanar and many facets are not simplices."""
    dim = draw(st.integers(1, 6))
    coord = draw(st.sampled_from([st.integers(0, 2), st.integers(-2, 2)]))
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=dim + 1, max_size=min(dim + 6, 9)))
    assume(affine_rank(pts) == dim)
    return pts


@settings(deadline=None, max_examples=60)
@given(crowded_points())
def test_hull_matches_brute_force_facets_on_crowded_grids(pts):
    poly = convex_hull(pts)
    facets, verts, vol = brute_hull(list(poly.points))
    assert list(poly.facets) == facets
    assert sorted(poly.vertices) == verts
    assert normalized_volume(poly) == vol


# -- reference: the pulling triangulation over the incidence masks ------------
#
# The volume as the sum of |det| over a pulling triangulation, with faces read
# off the hull's incidence masks. It shares the facets with the hull under
# test, but not the placing triangulation or its volume sum, and unlike the
# brute-force references it reaches two dozen points in dimension 6.


def pulling_volume(poly):
    """Each face, an incidence mask over ``points``, is coned from its
    lexicographically least point over the facets of the face that miss that
    point; those are the inclusion-maximal proper nonempty intersections of
    the face with the hull's ``masks``."""
    pts, masks = poly.points, poly.masks

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

    return sum(
        abs(det_bareiss_int([[a - b for a, b in zip(p, s[0])] for p in s[1:]]))
        for s in simplices((1 << len(pts)) - 1)
    )


@st.composite
def larger_points(draw):
    dim = draw(st.integers(2, 6))
    coord = st.integers(-3, 3)
    count = draw(st.integers(dim + 1, 24))
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=count, max_size=count))
    assume(affine_rank(pts) == dim)
    return pts


@settings(deadline=None, max_examples=100)
@given(larger_points())
def test_volume_matches_pulling_triangulation_on_larger_sets(pts):
    poly = convex_hull(pts)
    assert normalized_volume(poly) == pulling_volume(poly)


@pytest.mark.parametrize(
    "pts, facets, vertices, volume",
    [
        (list(product(range(3), repeat=4)), 8, 16, 384),
        (list(product(range(3), repeat=5)), 10, 32, 3840),
        (list(product(range(2), repeat=6)), 12, 64, 720),
        ([tuple(s * (i == j) for i in range(6)) for j in range(6) for s in (1, -1)], 64, 12, 64),
    ],
    ids=["box-0..2^4", "box-0..2^5", "cube-6", "cross-6"],
)
def test_hull_of_boxes_and_cross_polytope(pts, facets, vertices, volume):
    poly = convex_hull(pts)
    assert len(poly.facets) == facets
    assert len(poly.vertices) == vertices
    assert normalized_volume(poly) == volume


# -- counting bounds ----------------------------------------------------------


def pentagon_support():
    shape = SystemShape(2, 0, 2)
    return ExponentMatrix(shape, IntMatrix.from_rows([[3, 1, 4, 4], [2, 2, -1, 1]]))


def test_kouchnirenko_pentagon():
    assert kouchnirenko_bound(pentagon_support()) == 17


def test_kouchnirenko_adds_origin():
    # support columns e1, e2 and a repeat: hull with the implicit origin is
    # the unit triangle, one torus solution at most
    shape = SystemShape(1, 0, 2)
    support = ExponentMatrix(shape, IntMatrix.from_rows([[1, 0, 1], [0, 1, 0]]))
    assert kouchnirenko_bound(support) == 1
    bigger = ExponentMatrix(shape, IntMatrix.from_rows([[1, 0, 1], [0, 1, 1]]))
    assert kouchnirenko_bound(bigger) == 2


def test_kouchnirenko_bound_eliminates_once_and_takes_no_determinant(monkeypatch):
    # the volume is summed while the hull is built: the one elimination of
    # the first simplex and no determinant per cell
    calls = []

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)

        return wrapped

    for module in (polytopes, ratlinalg):
        for name in ("_bareiss", "det_bareiss_int"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    shape = SystemShape(4, 0, 4)
    columns = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
               (1, 1, 1, 1), (2, -1, 0, 1), (-1, 2, 1, 0), (0, 1, -1, 2)]
    support = ExponentMatrix(shape, IntMatrix.from_rows([list(c) for c in zip(*columns)]))
    bound = kouchnirenko_bound(support)
    assert calls == ["_bareiss"]
    assert bound == pulling_volume(convex_hull([(0, 0, 0, 0)] + columns))


def test_euler_from_volume_signs():
    assert euler_from_volume(SystemShape(2, 0, 2), 17) == 17
    assert euler_from_volume(SystemShape(1, 1, 1), 5) == -5
    assert euler_from_volume(SystemShape(2, 1, 2), 5) == -10
    assert euler_from_volume(SystemShape(2, 2, 2), 5) == 15


def test_euler_characteristic_worked_basis():
    shape = SystemShape(2, 0, 2)
    basis = WeightBasis(shape, IntMatrix.from_rows([[-1, 3, 2, -2], [3, -1, 1, -3]]))
    assert euler_characteristic(basis) == 17


def test_fewnomial_positive_two_by_two():
    bound = fewnomial_bound(SystemShape(2, 0, 2))[0]
    assert abs(bound.value / (2 * (math.e ** 2 + 3)) - 1) < 1e-15
    assert bound.variant == "positive"
    assert "e^2" in bound.formula


def test_fewnomial_all_real():
    bounds = fewnomial_bound(SystemShape(2, 0, 2))
    assert [b.variant for b in bounds] == ["positive", "all_real"]
    assert abs(bounds[1].value / (2 * (math.e ** 4 + 3)) - 1) < 1e-15


def test_fewnomial_betti():
    bounds = fewnomial_bound(SystemShape(1, 1, 1))
    assert [b.variant for b in bounds] == ["positive", "all_real", "betti"]
    assert abs(bounds[2].value / (2 * (math.e ** 2 + 3)) - 1) < 1e-15


def test_fewnomial_rejects_bad_arguments():
    with pytest.raises(ValueError):
        fewnomial_bound(SystemShape(-1, 0, 2))
