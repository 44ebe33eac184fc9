"""Numeric solving of bivariate instances and isomorphism verification.

The elimination layer is exact: both resultants and their squarefree
decompositions are computed in integers, so the multiplicity of each
resultant root is exact. Assigning a multiplicity to a solution is not: a
solution takes the multiplicity of the x- or y-resultant root nearest to it,
and when several solutions share both nearest roots it gets 1 and the flag
"multiplicity-ambiguous". Floats only enter at root finding
(companion-matrix eigenvalues via numpy) and Newton refinement on the pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .errors import CommonComponentError, DegreeCapError, DimensionCapError
from .newton import compile_pair, refine
from .polynomials import bivariate_resultant, udeg, ugcd, usquarefree, utrim
from .systems import cleared_polynomials, clear_denominators, evaluate_phi
from .ratlinalg import frac_rows


@dataclass(frozen=True)
class SolverConfig:
    cluster_tol: float = 1e-6
    membership_tol: float = 1e-8
    verify_tol: float = 1e-9
    match_tol: float = 1e-6
    newton_max_iter: int = 50
    degree_cap: int = 30


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


def _roots_of(coeffs):
    """Complex roots of an ascending Fraction coefficient list via numpy."""
    c = utrim(coeffs)
    if len(c) <= 1:
        return []
    scale = max(abs(v) for v in c)
    floats = [float(v / scale) for v in c]
    arr = np.array(list(reversed(floats)), dtype=float)
    return [complex(r) for r in np.roots(arr)]


def _max_norm(poly):
    m = poly.max_abs_coefficient()
    return m if m != 0 else Fraction(1)


def solve_bivariate(f, g, config=None):
    """All isolated common zeros of two bivariate polynomials.

    Integer resultants in both directions feed the squarefree decomposition
    (multiplicities) and companion-matrix root finding. Each x-root is
    paired with the roots of f and g on its fiber, and all these starts are
    refined together by Newton's method on the pair, in numpy batches.
    Converged points are clustered, and each cluster takes the multiplicity
    of its nearest resultant root. Residuals are measured against
    max-abs-normalized copies of f and g; callers with a defining system
    re-verify on their own scale.

    Raises CommonComponentError when the pair shares a curve (either resultant
    vanishes identically) and DegreeCapError above config.degree_cap.
    """
    config = config or SolverConfig()
    if f.nvars != 2 or g.nvars != 2:
        raise DimensionCapError("solver handles exactly two variables")
    for p in (f, g):
        if p.is_zero():
            raise CommonComponentError("an identically zero equation vanishes everywhere")
        if p.degree() > config.degree_cap:
            raise DegreeCapError(
                f"total degree {p.degree()} exceeds cap {config.degree_cap}"
            )

    f = f.scale(1 / _max_norm(f))
    g = g.scale(1 / _max_norm(g))

    diagnostics = []
    deg_fx, deg_fy = f.degree(0), f.degree(1)
    deg_gx, deg_gy = g.degree(0), g.degree(1)

    # constants (after the zero check) have no roots anywhere
    if deg_fx == 0 and deg_fy == 0:
        return SolutionSet((), (), ("one equation is a nonzero constant",), config)
    if deg_gx == 0 and deg_gy == 0:
        return SolutionSet((), (), ("one equation is a nonzero constant",), config)

    res_x = _resultant_or_none(f, g, eliminate=1)
    res_y = _resultant_or_none(f, g, eliminate=0)
    if res_x is None or res_y is None:
        raise CommonComponentError("resultant vanishes identically; common curve")

    x_roots = _roots_with_multiplicity(res_x)
    y_roots = _roots_with_multiplicity(res_y)

    f_in_y = {e: c for e, c in f.coefficients_in(1).items()}
    g_in_y = {e: c for e, c in g.coefficients_in(1).items()}

    starts = []
    for x0, _ in x_roots:
        ys = _fiber_roots(f_in_y, x0) + _fiber_roots(g_in_y, x0)
        if not ys:
            # both equations independent of y on this fiber; pair with the
            # global y-candidates instead
            ys = [y0 for y0, _ in y_roots]
        starts.extend((x0, y0) for y0 in ys)
    points, residuals, converged = refine(
        compile_pair(f, g), np.array(starts, dtype=complex).reshape(-1, 2).T, config
    )
    candidates = [
        ((complex(points[0, k]), complex(points[1, k])), float(residuals[k]))
        for k in np.flatnonzero(converged)
    ]
    newton_failures = len(starts) - len(candidates)
    if newton_failures:
        diagnostics.append(f"newton diverged on {newton_failures} candidate(s)")

    clusters = _cluster(candidates, config.cluster_tol)

    solutions = []
    ambiguous = 0
    x_assign = _assign_roots(clusters, [r for r, _ in x_roots], axis=0, tol=config.cluster_tol)
    y_assign = _assign_roots(clusters, [r for r, _ in y_roots], axis=1, tol=config.cluster_tol)
    x_share = _share_counts(x_assign)
    y_share = _share_counts(y_assign)
    for idx, (point, residual) in enumerate(clusters):
        flags = []
        xi = x_assign[idx]
        yi = y_assign[idx]
        if xi is not None and x_share[xi] == 1:
            mult = x_roots[xi][1]
        elif yi is not None and y_share[yi] == 1:
            mult = y_roots[yi][1]
        else:
            mult = 1
            flags.append("multiplicity-ambiguous")
            ambiguous += 1
        is_real = max(abs(point[0].imag), abs(point[1].imag)) <= config.cluster_tol
        if is_real:
            point = (complex(point[0].real, 0.0), complex(point[1].real, 0.0))
        solutions.append(
            NumericSolution(point, residual, mult, is_real, "ambient", tuple(flags))
        )
    if ambiguous:
        diagnostics.append(f"{ambiguous} solution(s) with ambiguous multiplicity")

    solutions.sort(key=_sort_key)
    return SolutionSet(tuple(solutions), (), tuple(diagnostics), config)


def _sort_key(sol):
    x, y = sol.point
    return (round(x.real, 9), round(x.imag, 9), round(y.real, 9), round(y.imag, 9))


def _resultant_or_none(f, g, eliminate):
    keep = 1 - eliminate
    if f.degree(eliminate) == 0 and g.degree(eliminate) == 0:
        # no occurrence of the eliminated variable: common roots of two
        # univariate polynomials in the kept variable form vertical lines
        fu = f.coefficients_in(keep)
        gu = g.coefficients_in(keep)
        fl = [Fraction(0)] * (max(fu) + 1)
        for e, p in fu.items():
            fl[e] = p.terms.get((0, 0), Fraction(0))
        gl = [Fraction(0)] * (max(gu) + 1)
        for e, p in gu.items():
            gl[e] = p.terms.get((0, 0), Fraction(0))
        if udeg(ugcd(fl, gl)) >= 1:
            return None
        return [Fraction(1)]
    coeffs = bivariate_resultant(f, g, eliminate)
    if not coeffs:
        return None
    return coeffs


def _roots_with_multiplicity(res_coeffs):
    """(root, multiplicity) pairs from an exact squarefree decomposition."""
    out = []
    for factor, mult in usquarefree(res_coeffs):
        for r in _roots_of(factor):
            out.append((r, mult))
    return out


def _fiber_roots(coeff_map, x0):
    """Roots in y of a polynomial specialized at x = x0 (float arithmetic)."""
    if not coeff_map:
        return []
    top = max(coeff_map)
    values = []
    for e in range(top + 1):
        p = coeff_map.get(e)
        values.append(_eval_univar_complex(p, x0) if p is not None else 0j)
    while values and abs(values[-1]) < 1e-14:
        values.pop()
    if len(values) <= 1:
        return []
    scale = max(abs(v) for v in values)
    arr = np.array(list(reversed([v / scale for v in values])), dtype=complex)
    return [complex(r) for r in np.roots(arr)]


def _eval_univar_complex(poly, x0):
    total = 0j
    for mono, c in poly.terms.items():
        total += complex(c) * x0 ** mono[0]
    return total


def _cluster(candidates, tol):
    """Greedy dedup of refined points; keeps the best residual per cluster."""
    ordered = sorted(
        candidates,
        key=lambda it: (it[1], it[0][0].real, it[0][0].imag, it[0][1].real, it[0][1].imag),
    )
    kept = []
    for point, residual in ordered:
        matched = False
        for i, (kp, kr) in enumerate(kept):
            if (
                abs(point[0] - kp[0]) <= tol
                and abs(point[1] - kp[1]) <= tol
            ):
                matched = True
                break
        if not matched:
            kept.append((point, residual))
    return kept


def _assign_roots(clusters, roots, axis, tol):
    """Index of the nearest resultant root per cluster, None when far."""
    out = []
    for point, _ in clusters:
        coord = point[axis]
        best = None
        best_dist = None
        for i, r in enumerate(roots):
            d = abs(coord - r)
            if best_dist is None or d < best_dist:
                best, best_dist = i, d
        if best is not None and best_dist is not None and best_dist <= max(tol * 100, 1e-4):
            out.append(best)
        else:
            out.append(None)
    return out


def _share_counts(assignment):
    counts = {}
    for a in assignment:
        if a is not None:
            counts[a] = counts.get(a, 0) + 1
    return counts


def solve_sparse(system, config=None):
    """Isolated torus solutions of a bivariate sparse system.

    Clears Laurent denominators row by row, solves the polynomial pair, keeps
    points with every coordinate off zero by membership_tol, and re-verifies
    the residual on the defining Laurent system.
    """
    config = config or SolverConfig()
    shape = system.shape
    if shape.torus_dim != 2 or shape.num_equations != 2:
        raise DimensionCapError(
            f"sparse solving is capped at two equations in two torus variables, "
            f"got {shape.num_equations} equations in {shape.torus_dim} variables"
        )
    f, g = cleared_polynomials(system)
    raw = solve_bivariate(f, g, config)

    solutions = []
    excluded = []
    for sol in raw.solutions:
        if not all(abs(v) > config.membership_tol for v in sol.point):
            excluded.append(replace(sol, location="excluded", flags=sol.flags + ("off-torus",)))
            continue
        residual = _sparse_residual(system, sol.point)
        if residual >= config.verify_tol:
            excluded.append(
                replace(sol, location="excluded", residual=residual,
                        flags=sol.flags + ("defining-residual",))
            )
            continue
        solutions.append(replace(sol, location="torus", residual=residual))
    return SolutionSet(tuple(solutions), tuple(excluded), raw.diagnostics, config)


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

    Expands each weight row's cleared binomial, solves the polynomial pair,
    keeps points with every form value off zero by membership_tol, and
    re-verifies the residual on the defining weighted-product system.
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
    raw = solve_bivariate(f, g, config)

    solutions = []
    excluded = []
    for sol in raw.solutions:
        values = [form.evaluate(sol.point) for form in master.arrangement.forms]
        if not all(abs(v) > config.membership_tol for v in values):
            excluded.append(replace(sol, location="excluded", flags=sol.flags + ("on-arrangement",)))
            continue
        residual = master.residual(sol.point)
        if residual >= config.verify_tol:
            excluded.append(
                replace(sol, location="excluded", residual=residual,
                        flags=sol.flags + ("defining-residual",))
            )
            continue
        solutions.append(replace(sol, location="complement", residual=residual))
    return SolutionSet(tuple(solutions), tuple(excluded), raw.diagnostics, config)


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
    match_tol is its partner. Count or realness mismatches are reported, not
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
            if d < config.match_tol:
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
