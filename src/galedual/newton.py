"""Newton refinement of one start on a bivariate pair, in Python complex arithmetic.

CompiledPair turns two integer polynomials (polynomials.IntPoly) into term
lists. refine evaluates f and g at a start, keeps the start when it already
meets its target, and otherwise runs Newton's method from it; the partial
derivatives' term lists are built at a pair's first step, and evaluated
only where a step is taken.
"""

from __future__ import annotations

import cmath
import math

# Newton steps a start takes at most
_MAX_ITER = 50


class CompiledPair:
    """Two IntPolys as term lists for refine.

    ``xdeg`` and ``ydeg`` are the largest exponents of x and y in f and g,
    and ``f`` and ``g`` are lists of (i, j, c), term c * x**i * y**j with c
    complex, in IntPoly.terms order. Each coefficient is the integer one
    divided by the largest absolute coefficient of its polynomial by an
    int true division, which rounds the exact quotient once, so that the
    coefficients stay in range. The partial derivatives, rounded the same
    way from the integers, are built at the first Newton step of any start
    and kept for the pair's other starts (derivatives).
    """

    __slots__ = ("xdeg", "ydeg", "f", "g", "_scaled", "_derivatives")

    def __init__(self, f, g):
        self._scaled = [(p, max(map(abs, p.terms.values()))) for p in (f, g)]
        self.f, self.g = ([(a, b, complex(c / norm)) for (a, b), c in p.terms.items()] for p, norm in self._scaled)
        self.xdeg = max(len(row) for p in (f, g) for row in p.rows) - 1
        self.ydeg = max(len(f.rows), len(g.rows)) - 1
        self._derivatives = None

    def derivatives(self):
        """(f_x, f_y, g_x, g_y) as term lists, each in the order of its
        polynomial's terms."""
        if self._derivatives is None:
            out = []
            for p, norm in self._scaled:
                d_x, d_y = [], []
                for (a, b), coeff in p.terms.items():
                    if a:
                        d_x.append((a - 1, b, complex(coeff * a / norm)))
                    if b:
                        d_y.append((a, b - 1, complex(coeff * b / norm)))
                out += [d_x, d_y]
            self._derivatives = tuple(out)
        return self._derivatives


def _value(terms, xp, yp):
    """The sum of c * x**i * y**j over the terms in order, from the power lists xp, yp."""
    total = 0j
    for i, j, c in terms:
        total += c * xp[i] * yp[j]
    return total


def _backward_error(terms, xp, yp):
    """The value of the terms, and its backward error |value| / sum |c * x**i * y**j|
    (|value| where every term is 0)."""
    total, size = 0j, 0.0
    for i, j, c in terms:
        term = c * xp[i] * yp[j]
        total += term
        size += abs(term)
    return total, abs(total) / (size if size > 0 else 1)


def refine(compiled, start, config):
    """Newton refinement of the start (x, y) on the pair.

    Returns (point, residual, converged). The residual of a point is its
    backward error, the larger of |f| / sum|terms of f| and
    |g| / sum|terms of g| there: unlike |f| it does not grow with the
    rounding error of evaluating f far out, where an exact point has |f| of
    that size too.

    The first evaluation of f and g is at the start itself: a finite start
    whose residual is already below the target verify_tol*1e-3 is final, and
    keeps its point and that residual. Otherwise Newton's method runs from
    it, keeping the point with the best residual seen. It stops when the
    residual falls below the target, when |det| of the Jacobian is below
    1e-300, after a relative step below 1e-16 (the point reached is
    evaluated once more) or after _MAX_ITER steps; it has converged when its
    best residual is below verify_tol. A non-finite iterate, value or
    Jacobian, or an OverflowError, counts as diverged.
    """
    xdeg, ydeg, f, g = compiled.xdeg, compiled.ydeg, compiled.f, compiled.g
    target = config.verify_tol * 1e-3
    best, best_res = start, math.inf
    x, y = start
    steps, last = 0, False
    try:
        while True:
            if not (cmath.isfinite(x) and cmath.isfinite(y)):
                return best, best_res, False
            xp = [x ** i for i in range(xdeg + 1)]
            yp = [y ** j for j in range(ydeg + 1)]
            fv, f_res = _backward_error(f, xp, yp)
            gv, g_res = _backward_error(g, xp, yp)
            if not (math.isfinite(f_res) and math.isfinite(g_res)):
                return best, best_res, False
            res = max(f_res, g_res)
            if res < best_res:
                best, best_res = (x, y), res
            if last or res < target or steps >= _MAX_ITER:
                break
            a, b, c, d = (_value(terms, xp, yp) for terms in compiled.derivatives())
            det = a * d - b * c
            if not cmath.isfinite(det):
                return best, best_res, False
            if abs(det) < 1e-300:
                break
            dx = (d * fv - b * gv) / det
            dy = (a * gv - c * fv) / det
            x, y = x - dx, y - dy
            last = abs(dx) + abs(dy) < 1e-16 * (1 + abs(x) + abs(y))
            steps += 1
            # the step that reaches the cap is not evaluated, unless it was a last one
            if steps >= _MAX_ITER and not last:
                break
    except OverflowError:
        return best, best_res, False
    return best, best_res, best_res < config.verify_tol
