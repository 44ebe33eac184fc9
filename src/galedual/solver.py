"""Numeric solving of bivariate instances and isomorphism verification.

Elimination is exact and happens once per solve: one subresultant chain in
integers, at a power of two whose digits are the coefficients (Kronecker
substitution), gives the resultant in x and the first subresultant, which
recovers y from x. Excluded points (off the torus or on the arrangement)
are divided out of the resultant, and separation is checked, before any
root is found, so every root of the resultant gives one solution with an
exact multiplicity. Most excluded points sit where excluded lines cross,
at rational abscissas that the lines alone fix, and their linear factors
leave the resultant before its squarefree split. Floats enter only at
root finding (galedual.roots) and Newton polishing (galedual.newton).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, gcd

import numpy as np

from .errors import (
    CommonComponentError,
    DegreeCapError,
    DimensionCapError,
    SeparationError,
)
from .newton import compile_pair, refine
from .polynomials import (
    _gcd_int,
    _primitive,
    bivariate_subresultants,
    line_restriction,
    transposed,
    udivexact,
    umul,
    usquarefree_int,
    utrim,
)
# unused here; bench/spans.py looks these names up on this module to count calls
from .polynomials import bivariate_resultant, ugcd, usquarefree  # noqa: F401
from .systems import cleared_polynomials, clear_denominators, evaluate_phi
from .ratlinalg import _integer_rows
from .roots import polynomial_roots, rational_values, real_root_count


@dataclass(frozen=True)
class SolverConfig:
    verify_tol: float = 1e-9


@dataclass(frozen=True)
class NumericSolution:
    point: tuple
    residual: float
    multiplicity: int
    is_real: bool
    location: str  # ambient | torus | complement | excluded
    flags: tuple = ()


@dataclass(frozen=True)
class SolutionSet:
    solutions: tuple
    excluded: tuple
    diagnostics: tuple
    config: SolverConfig
    # solve_sparse: the monomial-map values at each solution, for the match
    monomials: tuple = field(default=(), repr=False, compare=False)

    @property
    def count(self):
        return len(self.solutions)

    @property
    def real_count(self):
        return sum(1 for s in self.solutions if s.is_real)

    @property
    def total_multiplicity(self):
        return sum(s.multiplicity for s in self.solutions)


# shears x -> x - lam*y tried, lam = 1, 2, ..., before giving up on separating
_MAX_SHEAR = 8

# largest total degree of an equation that solve_bivariate accepts
_DEGREE_CAP = 30


def solve_bivariate(f, g, config=None, exclude=()):
    """All isolated common zeros of two IntPolys off some lines.

    ``exclude`` lists lines (c, a, b) of ints, each the zero set of
    c + a*x + b*y; common zeros on them are not solutions. One integer
    subresultant chain (polynomials.bivariate_subresultants) gives
    R(x) = Res_y(f, g) and the first subresultant S1 = S11(x)*y + S10(x).
    The roots under excluded zeros are divided out of R
    (_separated_factors): those at crossings of the lines, rational, before
    R's squarefree split, and any others from its squarefree factors. Each
    root taken out is certified to carry excluded zeros only, and
    separation is checked exactly: each factor left must be coprime to
    S11. Then every root x0 lies under exactly one common zero,
    (x0, -S10(x0)/S11(x0)), whose intersection multiplicity is x0's
    multiplicity in R. A pair that fails the check is sheared,
    x -> x - lam*y for lam = 1, 2, ..., and eliminated again.

    Roots and the lift to y are computed by roots.polynomial_roots and
    roots.rational_values, and each point is then polished, one at a
    time, by Newton's method on the pair (newton.refine); a point whose
    backward error stays at or above verify_tol is dropped and counted as
    diverged. A factor with r real roots marks its r roots nearest the real
    axis real, and those lift to real points: S10, S11 and lam are
    integral. r is proved from inclusion disks around the roots already
    found (roots.real_root_count), and by Sturm's theorem only where the
    disks overlap.

    Raises CommonComponentError when the pair shares a curve, DegreeCapError
    above _DEGREE_CAP, and SeparationError when no shear up to
    _MAX_SHEAR separates the common zeros.
    """
    config = config or SolverConfig()
    for p in (f, g):
        if not p.terms:
            raise CommonComponentError("an identically zero equation vanishes everywhere")
        if p.degree() > _DEGREE_CAP:
            raise DegreeCapError(f"total degree {p.degree()} exceeds cap {_DEGREE_CAP}")

    # constants (after the zero check) have no roots anywhere
    if f.degree() == 0 or g.degree() == 0:
        return SolutionSet((), (), ("one equation is a nonzero constant",), config)
    if len(f.rows) == 1 and len(g.rows) == 1:
        # two polynomials in x alone: a common root would be a vertical line
        if len(_gcd_int(f.rows[0], g.rows[0])) > 1:
            raise CommonComponentError("both equations vanish on a common vertical line")
        return SolutionSet((), (), (), config)

    diagnostics = []
    for lam in range(_MAX_SHEAR + 1):
        rows = [_shear(p.rows, lam) for p in (f, g)]
        res, s10, s11 = bivariate_subresultants(*rows)
        if not res:
            raise CommonComponentError("resultant vanishes identically; common curve")
        lines = [(c, a, b - a * lam) for c, a, b in exclude]
        factors = _separated_factors(res, s11, rows, lines)
        if factors is not None:
            break
    else:
        raise SeparationError(
            f"no shear x -> x - lam*y with lam <= {_MAX_SHEAR} separates the common zeros"
        )
    if lam:
        diagnostics.append(f"sheared x -> x - {lam}*y to separate the solutions")

    starts, mults, real = [], [], []
    for factor, mult in factors:
        u = polynomial_roots(factor)
        y = -rational_values(s10, s11, u)
        starts.extend(zip((u - lam * y).tolist(), y.tolist()))
        mults.extend([mult] * len(u))
        nearest = np.zeros(len(u), dtype=bool)
        nearest[np.argsort(np.abs(u.imag), kind="stable")[:real_root_count(factor, u)]] = True
        real.extend(nearest.tolist())
    compiled = compile_pair(f, g)
    solutions = []
    for start, mult, is_real in zip(starts, mults, real):
        point, residual, converged = refine(compiled, start, config)
        if not converged:
            continue
        if is_real:
            point = (complex(point[0].real, 0.0), complex(point[1].real, 0.0))
        solutions.append(NumericSolution(point, residual, mult, is_real, "ambient"))
    newton_failures = len(starts) - len(solutions)
    if newton_failures:
        diagnostics.append(f"newton diverged on {newton_failures} candidate(s)")
    solutions.sort(key=_sort_key)
    return SolutionSet(tuple(solutions), (), tuple(diagnostics), config)


def _sort_key(sol):
    x, y = sol.point
    return (round(x.real, 9), round(x.imag, 9), round(y.real, 9), round(y.imag, 9))


def _shear(rows, lam):
    """The rows in y of p(x - lam*y, y), from those of p, by binomial
    expansion of each (x - lam*y)**i."""
    if not lam:
        return rows
    out = [[0] * max(map(len, rows)) for _ in range(max(j + len(row) for j, row in enumerate(rows)))]
    for j, row in enumerate(rows):
        for i, c in enumerate(row):
            if c:
                for k in range(i + 1):
                    out[j + k][i - k] += c * comb(i, k) * (-lam) ** k
    while not any(out[-1]):
        out.pop()
    return [utrim(row) for row in out]


def _separated_factors(res, s11, rows, lines):
    """Squarefree factors of res with their multiplicities, less the roots
    under common zeros on the lines; None unless each factor left is coprime
    to s11 and each root taken out is certified.

    The common zeros on a line c + a*x + b*y = 0 lie over the common roots
    of the pair's restrictions to it (line_restriction), or over x = -c/a
    for a vertical line. Where the lines cross (_crossings), at rational
    abscissas x0 = num/den that the lines alone fix, each line's two
    restrictions are tested exactly, and where both vanish x0 is excluded
    and (den*x - num) is divided out of both; only the rest goes to a gcd,
    whose roots are excluded too. Before the squarefree split, res is
    divided by (den*x - num) as often as it divides at each excluded x0,
    so Yun's steps see no root there. Taking out a root is safe when its
    fiber holds excluded zeros only: so when the fiber is separated there,
    s11(x0) != 0 (one common zero), and _only_excluded checks the other
    roots. The work is in primitive integer lists, and the factors have
    positive leading coefficients; rows are the pair's rows in y, as the
    elimination read them.
    """
    crossings = _crossings(lines)
    excluded = dict.fromkeys(_lowest(-c, a) for c, a, b in lines if not b)
    rest = []  # gcds of the restrictions' parts with no root at a crossing
    for line in lines:
        if line[2]:
            parts = [line_restriction(r, line) for r in rows]
            for x0 in crossings:
                if not any(_scaled_value(p, *x0) for p in parts):
                    excluded[x0] = None
                    parts = [_deflated(p, *x0)[0] for p in parts]
            h = _gcd_int(*parts)
            if len(h) > 1:
                rest.append(h)
    for num, den in excluded:
        res, mult = _deflated(res, num, den)
        if mult and not _scaled_value(s11, num, den) and not _only_excluded([-num, den], rows, lines):
            return None
    out = []
    for factor, mult in usquarefree_int(res):
        for h in rest:
            common = _gcd_int(factor, h)
            if len(common) > 1:
                unseparated = _gcd_int(common, s11)
                if len(unseparated) > 1 and not _only_excluded(unseparated, rows, lines):
                    return None
                factor = udivexact(factor, common)
        if len(factor) > 1:
            if len(_gcd_int(factor, s11)) > 1:
                return None
            out.append((factor, mult))
    return out


def _only_excluded(roots, rows, lines):
    """Whether each fiber x = x0 over a root of the squarefree integer list
    ``roots`` holds zeros of the lines only; rows are the pair's rows in y.

    Decided exactly at each x0 = num/den where two lines cross
    (_crossings): there every common root in y of the pair must be a root
    of some line's form on the fiber (a vertical line through x0 takes the
    whole fiber). Any other root is not certified.
    """
    certified, xrows = 0, None
    for num, den in _crossings(lines):
        if _scaled_value(roots, num, den):
            continue
        on_lines = [1]
        for c, a, b in lines:
            on_lines = umul(on_lines, [c * den + a * num, b * den])
        if on_lines:  # otherwise a vertical line is the fiber
            xrows = xrows or [transposed(r) for r in rows]  # in x, for vertical lines
            common = _gcd_int(*(line_restriction(r, (-num, den, 0)) for r in xrows))
            on_lines = _primitive(on_lines)
            if any(len(_gcd_int(h, on_lines)) < len(h) for h, _ in usquarefree_int(common)):
                return False
        certified += 1
    return certified == len(roots) - 1


def _scaled_value(coeffs, num, den):
    """den**d * p(num/den) for the integer list p of degree d, in integers."""
    value, power = 0, 1
    for c in reversed(coeffs):
        value = value * num + c * power
        power *= den
    return value


def _crossings(lines):
    """The abscissas (num, den) = num/den, in lowest terms with den > 0,
    where two of the lines cross, each once, in the order first met."""
    out = {}
    for i, (c1, a1, b1) in enumerate(lines):
        for c2, a2, b2 in lines[i + 1:]:
            det = a1 * b2 - a2 * b1
            if det:
                out[_lowest(b1 * c2 - b2 * c1, det)] = None
    return list(out)


def _lowest(num, den):
    """(num, den) for num/den in lowest terms with den > 0; den != 0."""
    divisor = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // divisor, den // divisor


def _deflated(coeffs, num, den):
    """(q, m): the integer list coeffs divided by (den*x - num), in lowest
    terms, as often as it divides, and how often: m times."""
    if not num:  # x itself: the zero constants go
        mult = next((i for i, c in enumerate(coeffs) if c), 0)
        return coeffs[mult:], mult
    mult = 0
    while coeffs and not _scaled_value(coeffs, num, den):
        coeffs = udivexact(coeffs, [-num, den])
        mult += 1
    return coeffs, mult


def solve_sparse(system, config=None):
    """Isolated torus solutions of a bivariate sparse system.

    Clears Laurent denominators row by row and solves the integer pair
    off the coordinate axes, then re-verifies each point on the defining
    Laurent system.
    """
    config = config or SolverConfig()
    shape = system.shape
    if shape.torus_dim != 2 or shape.num_equations != 2:
        raise DimensionCapError(
            f"sparse solving is capped at two equations in two torus variables, "
            f"got {shape.num_equations} equations in {shape.torus_dim} variables"
        )
    f, g = cleared_polynomials(system)
    raw = solve_bivariate(f, g, config, exclude=((0, 1, 0), (0, 0, 1)))
    monomials = [evaluate_phi(system.support, s.point) for s in raw.solutions]
    return _reverified(raw, "torus", _sparse_residuals(system, monomials), monomials)


def _sparse_residuals(system, monomials):
    """The largest |equation| at each point, from its monomial-map values,
    with each coefficient made a complex once for all the points."""
    rows = [(complex(row[0]), [(j, complex(c)) for j, c in enumerate(row[1:]) if c])
            for row in system.coefficients]
    out = []
    for values in monomials:
        worst = 0.0
        for total, terms in rows:
            for j, c in terms:
                total += c * values[j]
            worst = max(worst, abs(total))
        out.append(worst)
    return out


def solve_master(master, config=None):
    """Isolated complement solutions of a planar master system.

    Expands each weight row's cleared binomial and solves the polynomial
    pair off the arrangement's lines, then re-verifies each point on the
    defining weighted-product system.
    """
    config = config or SolverConfig()
    shape = master.shape
    if shape.master_dim != 2 or shape.num_weights != 2:
        raise DimensionCapError(
            f"master solving is capped at two weights in two variables, "
            f"got {shape.num_weights} weights in dimension {shape.master_dim}"
        )
    cleared = [clear_denominators(master, j) for j in range(shape.num_weights)]
    f, g = (cb.expand_difference(master.arrangement) for cb in cleared)
    lines = tuple(map(tuple, _integer_rows([(f.constant, *f.coeffs) for f in master.arrangement.forms])[0]))
    raw = solve_bivariate(f, g, config, exclude=lines)
    return _reverified(raw, "complement", master.residuals([s.point for s in raw.solutions]))


def _reverified(raw, location, residuals, monomials=()):
    """Points of raw whose defining residual is below verify_tol, at that
    residual, with their monomial-map values if given; the others are
    excluded with the flag "defining-residual"."""
    solutions, excluded, kept = [], [], []
    for k, (sol, r) in enumerate(zip(raw.solutions, residuals)):
        if r < raw.config.verify_tol:
            solutions.append(NumericSolution(sol.point, r, sol.multiplicity, sol.is_real, location, sol.flags))
            kept.append(k)
        else:
            flags = sol.flags + ("defining-residual",)
            excluded.append(NumericSolution(sol.point, r, sol.multiplicity, sol.is_real, "excluded", flags))
    monomials = tuple(monomials[k] for k in kept) if monomials else ()
    return SolutionSet(tuple(solutions), tuple(excluded), raw.diagnostics, raw.config, monomials)


# largest distance between a torus solution's image and its complement partner
_MATCH_TOL = 1e-6


@dataclass(frozen=True)
class MatchedPair:
    poly_index: int
    master_index: int
    distance: float
    both_real: bool


@dataclass(frozen=True)
class IsomorphismReport:
    """Outcome of matching torus solutions to complement solutions."""

    pairs: tuple
    unmatched_poly: tuple
    unmatched_master: tuple
    poly_count: int
    master_count: int
    max_distance: float
    real_consistent: bool
    poly_solutions: SolutionSet = field(repr=False, default=None)
    master_solutions: SolutionSet = field(repr=False, default=None)

    @property
    def bijective(self):
        return not self.unmatched_poly and not self.unmatched_master

    @property
    def all_pass(self):
        return self.bijective and self.real_consistent


def verify_isomorphism(pair, config=None):
    """Solve both sides of a pair and match solutions through the monomial map.

    Every torus solution x is pushed to z = x^support (in witness z-order,
    from the values solve_sparse kept) and the master point y is recovered
    by least squares from the degree-one system forms(y) = z, all points in
    one solve; the nearest unused complement solution within _MATCH_TOL is
    its partner. Count or realness mismatches are reported, not raised.
    """
    config = config or SolverConfig()
    poly_sol = solve_sparse(pair.poly, config)
    master_sol = solve_master(pair.master, config)

    forms = pair.master.arrangement.forms
    gradient = np.array([f.coeffs for f in forms], dtype=float)
    constants = np.array([float(f.constant) for f in forms], dtype=float)

    z_cols = pair.witness.z_support_columns
    targets = np.array([[complex(z[c]) for c in z_cols] for z in poly_sol.monomials],
                       dtype=complex).reshape(-1, len(z_cols)) - constants
    projected = np.linalg.lstsq(gradient.astype(complex), targets.T, rcond=None)[0].T
    points = np.array([s.point for s in master_sol.solutions], dtype=complex).reshape(-1, 2)
    gaps = projected[:, None, :] - points[None, :, :]
    # np.hypot, as CPython's abs of a complex: np.abs may differ in the last bit
    distance = np.hypot(gaps.real, gaps.imag).max(axis=2)
    edges = sorted((float(distance[i, j]), int(i), int(j))
                   for i, j in zip(*np.nonzero(distance < _MATCH_TOL)))
    used_poly = set()
    used_master = set()
    pairs = []
    for d, i, j in edges:
        if i in used_poly or j in used_master:
            continue
        used_poly.add(i)
        used_master.add(j)
        both_real = poly_sol.solutions[i].is_real and master_sol.solutions[j].is_real
        pairs.append(MatchedPair(i, j, d, both_real))
    unmatched_poly = tuple(i for i in range(poly_sol.count) if i not in used_poly)
    unmatched_master = tuple(
        j for j in range(len(master_sol.solutions)) if j not in used_master
    )
    real_consistent = all(
        poly_sol.solutions[p.poly_index].is_real == master_sol.solutions[p.master_index].is_real
        for p in pairs
    )
    return IsomorphismReport(
        pairs=tuple(pairs),
        unmatched_poly=unmatched_poly,
        unmatched_master=unmatched_master,
        poly_count=poly_sol.count,
        master_count=master_sol.count,
        max_distance=max((p.distance for p in pairs), default=0.0),
        real_consistent=real_consistent,
        poly_solutions=poly_sol,
        master_solutions=master_sol,
    )
