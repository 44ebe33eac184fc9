"""Seeded instance corpus for the galedual benchmark.

Every instance is one CLI call (`verify`, `dualize` or `bound`) on a JSON
input that this module writes.  Candidates are filtered only on properties
of the input, computed here with small integer routines that share no code
with the package under test:

* primitive: the gcd of the maximal minors of the support (or weight) matrix
  is 1, so the support columns (weight rows) generate a saturated lattice;
* generic coefficients: every coefficient is nonzero, and the dual forms of a
  sparse system are nonzero and pairwise non-proportional (equivalently, no
  combination of the coefficient rows is supported on two columns);
* essential, non-proportional forms for master systems.

Nothing here looks at what the solver does with an instance.  The systems
(supports, coefficients, forms, weights, point sets) come from a catalog
drawn once with a fixed seed, in fixed-size strata of the solution-count
bound or on a fixed grid of dimensions; the run seed draws the order of the
instances and the unimodular changes of the bound checks.  So every seed
measures the same mathematical work, and runs of different seeds are
comparable.  The verify inputs themselves do not change with the seed:
which of them the numeric solver gets wrong depends on the order of a
system's monomials and variables, and a fixed presentation makes the number
of failed instances of a run the same for every seed.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

NONZERO5 = [c for c in range(-5, 6) if c]
NONZERO3 = [c for c in range(-3, 4) if c]


@dataclass
class Instance:
    """One CLI call of the corpus.

    ``payload`` is the input JSON.  A derived instance has ``payload`` None
    and ``derive`` = (iid, key): its input is the ``key`` object of the JSON
    output of instance ``iid``, which always runs earlier in the same pass.
    ``expect`` holds the known answer the checks compare against.
    """

    iid: str
    command: str
    payload: dict | None
    expect: dict = field(default_factory=dict)
    derive: tuple | None = None


# -- integer helpers, independent of the package under test -------------------


def det(m):
    """Exact determinant of a small integer matrix (Bareiss elimination)."""
    a = [list(r) for r in m]
    n = len(a)
    sign, prev = 1, 1
    for c in range(n - 1):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                a[i][j] = (a[i][j] * a[c][c] - a[i][c] * a[c][j]) // prev
        prev = a[c][c]
    return sign * a[n - 1][n - 1] if n else 1


def rank(rows):
    """Rank over Q of a list of integer or Fraction rows."""
    a = [[Fraction(v) for v in r] for r in rows]
    r = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            if a[i][c]:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def minor_gcd(cols, n):
    """gcd of the n x n minors of the n x len(cols) matrix with these columns.

    1 exactly when the columns generate Z^n; 0 when they do not span Q^n.
    """
    g = 0
    for sub in itertools.combinations(cols, n):
        g = math.gcd(g, det([[c[i] for c in sub] for i in range(n)]))
        if g == 1:
            return 1
    return g


def hull_area2(points):
    """Twice the area of the convex hull of 2-D integer points (monotone chain)."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    return abs(sum(cross(hull[0], a, b) for a, b in zip(hull[1:], hull[2:])))


def kouchnirenko2(support):
    """Normalized area of conv(0, support): the torus solution-count bound in 2-D."""
    return hull_area2([(0, 0)] + [tuple(p) for p in support])


def integer_kernel(rows):
    """Basis (as rows) of the integer vectors x with rows @ x = 0.

    Column operations by extended gcd bring the matrix to lower-triangular
    form M @ U = [H | 0] with U unimodular; the columns of U past the rank
    then generate the integer kernel.
    """
    m = [list(r) for r in rows]
    k = len(m[0])
    u = [[int(i == j) for j in range(k)] for i in range(k)]

    def combine(i, j, a, b, c, d):  # columns (i, j) <- (a*i + b*j, c*i + d*j)
        for mat in (m, u):
            for row in mat:
                row[i], row[j] = a * row[i] + b * row[j], c * row[i] + d * row[j]

    pivot = 0
    for r in range(len(m)):
        if pivot == k:
            break
        for j in range(pivot + 1, k):
            x, y = m[r][pivot], m[r][j]
            if y == 0:
                continue
            g, s, t = _xgcd(x, y)
            combine(pivot, j, s, t, -y // g, x // g)
        if m[r][pivot] != 0:
            pivot += 1
    return [[u[i][j] for i in range(k)] for j in range(pivot, k)]


def _xgcd(a, b):
    """(g, s, t) with s*a + t*b = g = gcd(a, b) > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)


def master_bound(weights):
    """Torus solution-count bound of a bivariate master: area of its quotient support."""
    a = integer_kernel(weights)
    return kouchnirenko2([(a[0][j], a[1][j]) for j in range(len(weights[0]))])


def dual_forms_generic(coeff_rows):
    """Whether the dual forms of a sparse system are nonzero and non-proportional.

    Column 0 of the n x (k+1) coefficient matrix is the constant term.  A dual
    form vanishes or two forms are proportional exactly when some combination
    of the rows is supported on two columns, i.e. when deleting two columns
    drops the rank below n.
    """
    n = len(coeff_rows)
    width = len(coeff_rows[0])
    for a, b in itertools.combinations(range(width), 2):
        rest = [[row[j] for j in range(width) if j not in (a, b)] for row in coeff_rows]
        if rank(rest) < n:
            return False
    return True


def unimodular(rng, n):
    """Random integer matrix of determinant +-1: 2n elementary row operations.

    Small multipliers keep the image's exponents, and so the cost of the
    bound on it, close to the original's.
    """
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    if rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        m[i], m[j] = m[j], m[i]
    return m


def transform_support(u, support):
    return [[sum(u[i][t] * p[t] for t in range(len(p))) for i in range(len(u))] for p in support]


def cleared_degree(support):
    """Total degree of a row using every monomial and the constant, negative exponents cleared."""
    points = [(0,) * len(support[0])] + [tuple(p) for p in support]
    shift = [min(p[v] for p in points) for v in range(len(points[0]))]
    return max(sum(e - s for e, s in zip(p, shift)) for p in points)


def sparse_payload(support, coeff_rows, names):
    return {
        "variables": list(names),
        "support": [list(p) for p in support],
        "coefficients": [[str(c) for c in row] for row in coeff_rows],
    }


def random_support(rng, dim, k, reach, primitive=True):
    """k distinct nonzero exponent vectors in [-reach, reach]^dim spanning Q^dim.

    With ``primitive`` they must also generate Z^dim.
    """
    while True:
        pts = set()
        while len(pts) < k:
            p = tuple(rng.randint(-reach, reach) for _ in range(dim))
            if any(p):
                pts.add(p)
        support = sorted(pts)
        rng.shuffle(support)
        if minor_gcd(support, dim) == 1 or (not primitive and rank([list(p) for p in support]) == dim):
            return support


def random_coefficients(rng, n, k, generic=True):
    """n independent rows of k + 1 nonzero integers in [-5, 5] (constant term first).

    With ``generic`` the dual forms must also be nonzero and non-proportional.
    """
    while True:
        rows = [[rng.choice(NONZERO5) for _ in range(k + 1)] for _ in range(n)]
        if rank(rows) == n and (not generic or dual_forms_generic(rows)):
            return rows


def random_weights(rng):
    """Primitive 2 x 4 weights with entries in [-3, 3]."""
    while True:
        weights = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)]
        if minor_gcd([(weights[0][j], weights[1][j]) for j in range(4)], 2) == 1:
            return weights


def random_master(rng, weights):
    """Two generic forms (entries in [-3, 3], nonzero) plus the coordinate forms s, t.

    The coordinate forms make the arrangement essential; no two forms may be
    proportional.
    """
    while True:
        forms = [(rng.choice(NONZERO3), rng.choice(NONZERO3), rng.choice(NONZERO3)) for _ in range(2)]
        forms += [(0, 1, 0), (0, 0, 1)]
        if any(rank([a, b]) < 2 for a, b in itertools.combinations(forms, 2)):
            continue
        return {
            "variables": ["s", "t"],
            "forms": [{"constant": str(c), "coeffs": [str(a), str(b)]} for c, a, b in forms],
            "weights": weights,
        }


def stratified(catalog, draw, key, strata, per_stratum):
    """per_stratum draws whose key falls in each stratum, in the order drawn."""
    need = {s: per_stratum for s in strata}
    out = []
    while any(need.values()):
        item = draw(catalog)
        value = key(item)
        stratum = next((s for s in strata if s[0] <= value <= s[1]), None)
        if stratum is not None and need[stratum]:
            need[stratum] -= 1
            out.append((f"b{stratum[0]}-{per_stratum - need[stratum]}", item, value))
    return out


def fixture(name):
    path = resources.files("galedual") / "fixtures" / f"{name}.json"
    return json.loads(path.read_text())


def verify_sparse_origin(catalog, rng, per_stratum):
    """example22_sparse plus random bivariate sparse systems, stratified by bound.

    Supports: 4 distinct nonzero exponents in [-4, 4]^2, primitive, cleared
    degree 5 to 14.  Coefficients: nonzero integers in [-5, 5], generic.
    """
    base = fixture("example22_sparse")
    out = [Instance("example22_sparse", "verify", base,
                    {"exit": 0, "bound": kouchnirenko2(base["support"])})]

    def draw(r):
        while True:
            support = random_support(r, 2, 4, 4)
            # every coefficient is nonzero, so each row uses every monomial
            if 5 <= cleared_degree(support) <= 14:
                return support

    for tag, support, bound in stratified(catalog, draw, kouchnirenko2, SPARSE_BOUND_STRATA, per_stratum):
        rows = random_coefficients(catalog, 2, 4)
        out.append(Instance(f"sparse-{tag}", "verify",
                            sparse_payload(support, rows, ("x", "y")), {"exit": 0, "bound": bound}))
    rng.shuffle(out)
    return out


def verify_master_origin(catalog, rng, per_stratum):
    """The two master fixtures and random masters by bound, one with doubled weights.

    The first master of the lowest stratum also appears with its first weight
    row doubled: a weight lattice of index 2, so `verify` goes through
    `saturate_weights` and must report a mismatch (exit 4).
    """
    out = [
        Instance(name, "verify", fixture(name),
                 {"exit": 0, "bound": master_bound(fixture(name)["weights"])})
        for name in ("example3_second", "example22_master")
    ]
    for tag, weights, bound in stratified(catalog, random_weights, master_bound, MASTER_BOUND_STRATA, per_stratum):
        payload = random_master(catalog, weights)
        doubled = dict(payload, weights=[[2 * w for w in weights[0]], list(weights[1])])
        out.append(Instance(f"master-{tag}", "verify", payload, {"exit": 0, "bound": bound}))
        if tag == f"b{MASTER_BOUND_STRATA[0][0]}-1":
            out.append(Instance(f"master-{tag}-doubled", "verify", doubled,
                                {"exit": 4, "index": 2, "bound": bound}))
    rng.shuffle(out)
    return out


def structure_highdim(catalog, rng, grid, dense_sizes):
    """Exact commands only: dualize round trips and bounds in dimensions 2 to 4.

    For each (n, l) of the grid: a primitive square sparse system in n
    variables with k = n + l monomials.  Its instances are `dualize` on it,
    `dualize` on the master it dualizes to (the round trip), and `bound` on
    the system, on a unimodular image of it and on the master.  Dense
    supports of 12 to 20 monomials get `bound` on the support and on a
    unimodular image.
    """
    groups = []
    for n, l in grid:
        support = random_support(catalog, n, n + l, 3 if n == 2 else 2)
        rows = random_coefficients(catalog, n, n + l)
        names = [f"x{i + 1}" for i in range(n)]
        base = f"sys-n{n}-l{l}"
        shape = {"num_weights": l, "excess_dim": 0, "num_equations": n}
        u = unimodular(rng, n)
        bound = {"exit": 0, "same_bound": base}
        if n == 2:
            bound["bound"] = kouchnirenko2(support)
        groups.append([
            Instance(f"{base}-dualize", "dualize",
                     sparse_payload(support, rows, names), {"exit": 0, "shape": shape}),
            Instance(f"{base}-dualize-back", "dualize", None,
                     {"exit": 0, "shape": shape}, derive=(f"{base}-dualize", "master")),
            Instance(f"{base}-bound", "bound", sparse_payload(support, rows, names), bound),
            Instance(f"{base}-bound-unimodular", "bound",
                     sparse_payload(transform_support(u, support), rows, names), bound),
            Instance(f"{base}-bound-master", "bound", None,
                     {"exit": 0, "same_bound": base}, derive=(f"{base}-dualize", "master")),
        ])
    for dim, count in dense_sizes:
        support = random_support(catalog, dim, count, 2, primitive=False)
        rows = random_coefficients(catalog, dim, count, generic=False)
        names = [f"x{i + 1}" for i in range(dim)]
        base = f"dense-d{dim}-m{count}"
        u = unimodular(rng, dim)
        groups.append([
            Instance(f"{base}-bound", "bound",
                     sparse_payload(support, rows, names), {"exit": 0, "same_bound": base}),
            Instance(f"{base}-bound-unimodular", "bound",
                     sparse_payload(transform_support(u, support), rows, names),
                     {"exit": 0, "same_bound": base}),
        ])
    rng.shuffle(groups)  # a derived instance stays after the one it derives from
    return [inst for group in groups for inst in group]


# Strata, fixed so that every corpus has the same number of systems in each.
SPARSE_BOUND_STRATA = ((1, 12), (13, 18), (19, 24))
MASTER_BOUND_STRATA = ((1, 10), (11, 16))
STRUCTURE_GRID = tuple((n, l) for n in (2, 3, 4) for l in (2, 3, 4, 5, 6))
DENSE_SIZES = ((3, 12), (3, 20), (4, 12), (4, 20))

WORKLOADS = {
    "verify_sparse_origin": lambda cat, rng: verify_sparse_origin(cat, rng, per_stratum=10),
    "verify_master_origin": lambda cat, rng: verify_master_origin(cat, rng, per_stratum=10),
    "structure_highdim": lambda cat, rng: structure_highdim(cat, rng, STRUCTURE_GRID, DENSE_SIZES),
}


def build(workload, seed):
    """The corpus of a workload for a seed; the same seed gives the same corpus.

    Supports, weights and point sets come from a catalog drawn with a fixed
    seed, so every run measures the same structural mix and the cost of a
    run does not hinge on which shapes a seed happened to draw.  The run
    seed draws the instance order and the unimodular changes.
    """
    catalog = random.Random(f"{workload}:catalog")
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](catalog, rng)
