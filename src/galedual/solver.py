"""Numeric solving of bivariate instances and isomorphism verification.

Elimination is exact and happens once per solve: one subresultant chain in
integers gives the resultant in x and the first subresultant, which
recovers y from x. Excluded points (off the torus or on the arrangement)
are divided out of the resultant, and separation is checked, before any
root is found, so every root of the resultant gives one solution with an
exact multiplicity. Floats enter only at root finding (galedual.roots) and
Newton polishing (galedual.newton).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .errors import (
    CommonComponentError,
    DegreeCapError,
    DimensionCapError,
    SeparationError,
)
from .newton import compile_pair, refine
from .polynomials import (
    Poly,
    _gcd_int,
    _to_int_primitive,
    bivariate_subresultants,
    line_restriction,
    udivexact,
    ueval,
    umul,
    usquarefree_int,
)
# unused here; bench/spans.py looks these names up on this module to count calls
from .polynomials import bivariate_resultant, ugcd, usquarefree  # noqa: F401
from .systems import cleared_polynomials, clear_denominators, evaluate_phi
from .ratlinalg import frac_rows
from .roots import polynomial_roots, rational_values, ureal_root_count


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

    @property
    def count(self):
        return len(self.solutions)

    @property
    def real_count(self):
        return sum(1 for s in self.solutions if s.is_real)

    @property
    def total_multiplicity(self):
        return sum(s.multiplicity for s in self.solutions)


def _max_norm(poly):
    m = poly.max_abs_coefficient()
    return m if m != 0 else Fraction(1)


# shears x -> x - lam*y tried, lam = 1, 2, ..., before giving up on separating
_MAX_SHEAR = 8

# largest total degree of an equation that solve_bivariate accepts
_DEGREE_CAP = 30


def solve_bivariate(f, g, config=None, exclude=()):
    """All isolated common zeros of two bivariate polynomials off some lines.

    ``exclude`` lists lines (c, a, b), each the zero set of c + a*x + b*y;
    common zeros on them are not solutions. One integer subresultant chain
    per interpolation node gives R(x) = Res_y(f, g) and the first
    subresultant S1 = S11(x)*y + S10(x). From R's squarefree factors the
    roots under excluded zeros are divided out, and separation is checked
    exactly: each factor must be coprime to S11. Then every root x0 lies
    under exactly one common zero, (x0, -S10(x0)/S11(x0)), whose
    intersection multiplicity is x0's multiplicity in R. A pair that fails
    the check is sheared, x -> x - lam*y for lam = 1, 2, ..., and
    eliminated again.

    Roots and the lift to y are computed by roots.polynomial_roots and
    roots.rational_values, and each point is then polished by Newton's
    method on the pair (newton.refine); a point whose backward error stays
    at or above verify_tol is dropped and counted as diverged. A factor with
    r real roots (roots.ureal_root_count) marks its r roots nearest the real
    axis real, and those lift to real points: S10, S11 and lam are integral.

    Raises CommonComponentError when the pair shares a curve, DegreeCapError
    above _DEGREE_CAP, and SeparationError when no shear up to
    _MAX_SHEAR separates the common zeros.
    """
    config = config or SolverConfig()
    if f.nvars != 2 or g.nvars != 2:
        raise DimensionCapError("solver handles exactly two variables")
    for p in (f, g):
        if p.is_zero():
            raise CommonComponentError("an identically zero equation vanishes everywhere")
        if p.degree() > _DEGREE_CAP:
            raise DegreeCapError(f"total degree {p.degree()} exceeds cap {_DEGREE_CAP}")

    # unit max-norm keeps the float coefficients of Newton's method in range
    f = f.scale(1 / _max_norm(f))
    g = g.scale(1 / _max_norm(g))

    # constants (after the zero check) have no roots anywhere
    if f.degree() == 0 or g.degree() == 0:
        return SolutionSet((), (), ("one equation is a nonzero constant",), config)
    if f.degree(1) == 0 and g.degree(1) == 0:
        # two polynomials in x alone, read on the line y = 0: a common root
        # would be a vertical line
        if len(_gcd_int(*(line_restriction(p, (0, 0, 1)) for p in (f, g)))) > 1:
            raise CommonComponentError("both equations vanish on a common vertical line")
        return SolutionSet((), (), (), config)

    diagnostics = []
    for lam in range(_MAX_SHEAR + 1):
        pair = (_shear(f, lam), _shear(g, lam))
        res, s10, s11 = bivariate_subresultants(*pair, 1)
        if not res:
            raise CommonComponentError("resultant vanishes identically; common curve")
        lines = [(c, a, b - a * lam) for c, a, b in exclude]
        factors = _separated_factors(res, s11, pair, lines)
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
        starts.extend(zip(u - lam * y, y))
        mults.extend([mult] * len(u))
        nearest = np.argsort(np.abs(u.imag), kind="stable")[:ureal_root_count(factor)]
        real.extend(np.isin(np.arange(len(u)), nearest))
    points, residuals, converged = refine(
        compile_pair(f, g), np.array(starts, dtype=complex).reshape(-1, 2).T, config
    )
    newton_failures = len(starts) - int(converged.sum())
    if newton_failures:
        diagnostics.append(f"newton diverged on {newton_failures} candidate(s)")

    solutions = []
    for k in np.flatnonzero(converged):
        point = (complex(points[0, k]), complex(points[1, k]))
        if real[k]:
            point = (complex(point[0].real, 0.0), complex(point[1].real, 0.0))
        solutions.append(
            NumericSolution(point, float(residuals[k]), mults[k], bool(real[k]), "ambient")
        )
    solutions.sort(key=_sort_key)
    return SolutionSet(tuple(solutions), (), tuple(diagnostics), config)


def _sort_key(sol):
    x, y = sol.point
    return (round(x.real, 9), round(x.imag, 9), round(y.real, 9), round(y.imag, 9))


def _shear(p, lam):
    """p(x - lam*y, y)."""
    if not lam:
        return p
    x, y = Poly.variable(0, 2), Poly.variable(1, 2)
    return sum((((x - lam * y) ** i * y ** j).scale(c) for (i, j), c in p.terms.items()), Poly(2))


def _separated_factors(res, s11, pair, lines):
    """Squarefree factors of res with their multiplicities, less the roots
    under common zeros on the lines; None unless each factor left is coprime
    to s11 and each root taken out is certified.

    The common zeros on a line c + a*x + b*y = 0 lie over the roots of the
    gcd of the pair's restrictions to it (line_restriction), or over
    x = -c/a for a vertical line; a line where that gcd is constant is
    skipped. Taking out a root is safe when its fiber holds excluded zeros
    only: so when the fiber is separated there (one common zero), and
    _only_excluded checks the other roots. The work is in primitive integer
    lists, and the factors have positive leading coefficients.
    """
    excluded = []
    for line in lines:
        h = _gcd_int(*(line_restriction(p, line) for p in pair)) if line[2] else _to_int_primitive(line[:2])
        if len(h) > 1:
            excluded.append(h)
    out = []
    for factor, mult in usquarefree_int(res):
        for h in excluded:
            common = _gcd_int(factor, h)
            if len(common) > 1:
                unseparated = _gcd_int(common, s11)
                if len(unseparated) > 1 and not _only_excluded(unseparated, pair, lines):
                    return None
                factor = udivexact(factor, common)
        if len(factor) > 1:
            if len(_gcd_int(factor, s11)) > 1:
                return None
            out.append((factor, mult))
    return out


def _only_excluded(roots, pair, lines):
    """Whether each fiber x = x0 over a root of the squarefree integer list
    ``roots`` holds zeros of the lines only.

    Decided exactly at the rational x0 where two lines cross: there every
    common root in y of the pair must be a root of some line's form on the
    fiber (a vertical line through x0 takes the whole fiber). Any other
    root is not certified.
    """
    certified = set()
    for i, (c1, a1, b1) in enumerate(lines):
        for c2, a2, b2 in lines[i + 1:]:
            det = a1 * b2 - a2 * b1
            if not det:
                continue
            x0 = Fraction(b1 * c2 - b2 * c1) / det
            if x0 in certified or ueval(roots, x0):
                continue
            on_lines = [1]
            for c, a, b in lines:
                on_lines = umul(on_lines, [c + a * x0, b])
            if on_lines:  # otherwise a vertical line is the fiber
                on_lines = _to_int_primitive(on_lines)
                common = _gcd_int(*(line_restriction(p, (-x0, 1, 0)) for p in pair))
                if any(len(_gcd_int(h, on_lines)) < len(h) for h, _ in usquarefree_int(common)):
                    return False
            certified.add(x0)
    return len(certified) == len(roots) - 1


def solve_sparse(system, config=None):
    """Isolated torus solutions of a bivariate sparse system.

    Clears Laurent denominators row by row and solves the polynomial pair
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
    return _reverified(raw, "torus", lambda point: _sparse_residual(system, point))


def _sparse_residual(system, point):
    values = evaluate_phi(system.support, point)
    worst = 0.0
    for row in system.coefficients:
        total = complex(row[0])
        for j, v in enumerate(values):
            if row[j + 1]:
                total += complex(row[j + 1]) * v
        worst = max(worst, abs(total))
    return worst


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
    lines = tuple((form.constant, *form.coeffs) for form in master.arrangement.forms)
    raw = solve_bivariate(f, g, config, exclude=lines)
    return _reverified(raw, "complement", master.residual)


def _reverified(raw, location, residual):
    """Points of raw whose defining residual is below verify_tol, at that
    residual; the others are excluded with the flag "defining-residual"."""
    solutions, excluded = [], []
    for sol in raw.solutions:
        r = residual(sol.point)
        if r < raw.config.verify_tol:
            solutions.append(replace(sol, location=location, residual=r))
        else:
            flags = sol.flags + ("defining-residual",)
            excluded.append(replace(sol, location="excluded", residual=r, flags=flags))
    return SolutionSet(tuple(solutions), tuple(excluded), raw.diagnostics, raw.config)


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

    Every torus solution x is pushed to z = x^support (in witness z-order) and
    the master point y is recovered by least squares from the degree-one
    system forms(y) = z; the nearest unused complement solution within
    _MATCH_TOL is its partner. Count or realness mismatches are reported, not
    raised.
    """
    config = config or SolverConfig()
    poly_sol = solve_sparse(pair.poly, config)
    master_sol = solve_master(pair.master, config)

    forms = pair.master.arrangement.forms
    gradient = np.array(frac_rows([list(f.coeffs) for f in forms]), dtype=float)
    constants = np.array([float(f.constant) for f in forms], dtype=float)

    z_cols = pair.witness.z_support_columns
    projected = []
    for sol in poly_sol.solutions:
        z = evaluate_phi(pair.poly.support, sol.point)
        z_ordered = np.array([complex(z[c]) for c in z_cols])
        target = z_ordered - constants
        y, *_ = np.linalg.lstsq(gradient.astype(complex), target, rcond=None)
        projected.append(tuple(complex(v) for v in y))

    edges = []
    for i, y in enumerate(projected):
        for j, msol in enumerate(master_sol.solutions):
            d = max(abs(a - b) for a, b in zip(y, msol.point))
            if d < _MATCH_TOL:
                edges.append((d, i, j))
    edges.sort()
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
    unmatched_poly = tuple(i for i in range(len(projected)) if i not in used_poly)
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
