"""Newton refinement of many starts on a bivariate pair at once, in numpy.

compile_pair turns two integer polynomials (polynomials.IntPoly) and their
partial derivatives into exponent and coefficient arrays. refine first
evaluates f and g alone at every start and accepts the starts that already
meet its target; from the others it runs Newton's method in lockstep over a
window of active starts, so the Python overhead of a step is paid once per
pass instead of once per start. Values are summed term by term and complex
arithmetic is rounded as in CPython, so each start gets the point that a
one-at-a-time loop over Python complex numbers gives.
"""

from __future__ import annotations

import numpy as np


# candidate-term products a refinement pass evaluates at once, in the value
# pass and in each Newton pass: this bounds the (candidates x terms)
# temporaries at 64 KiB each
_BLOCK_ENTRIES = 1 << 12

# Newton steps a start takes at most
_MAX_ITER = 50


def compile_pair(f, g):
    """IntPolys f, g and their partial derivatives as numpy term arrays.

    Returns (xpow, ypow, groups). xpow and ypow hold the exponents 0..max as
    float columns for the power tables. groups holds an (i, j, c) triple for
    f, f_x, f_y and one for g, g_x, g_y: row r of the (3, terms) arrays is
    the r-th polynomial of the group, term k being
    c[r, k] * x**i[r, k] * y**j[r, k], and the derivatives' shorter rows are
    padded with zero terms. The terms are in IntPoly.terms order, and the
    derivatives' terms follow the polynomial's. Each coefficient is divided
    by the largest absolute coefficient of its polynomial by an int true
    division, which rounds the exact quotient once, so that the
    coefficients stay in range.
    """
    groups = []
    for p in (f, g):
        norm = max(map(abs, p.terms.values()))
        rows = ([], [], [])
        for (a, b), coeff in p.terms.items():
            rows[0].append((a, b, coeff / norm))
            if a:
                rows[1].append((a - 1, b, coeff * a / norm))
            if b:
                rows[2].append((a, b - 1, coeff * b / norm))
        i = np.zeros((3, len(p.terms)), dtype=int)
        j = np.zeros((3, len(p.terms)), dtype=int)
        c = np.zeros((3, len(p.terms)))
        for r, terms in enumerate(rows):
            if terms:
                i[r, :len(terms)], j[r, :len(terms)], c[r, :len(terms)] = zip(*terms)
        groups.append((i, j, c[:, :, None]))
    xpow = np.arange(max(len(row) for p in (f, g) for row in p.rows), dtype=float)[:, None]
    ypow = np.arange(max(len(f.rows), len(g.rows)), dtype=float)[:, None]
    return xpow, ypow, tuple(groups)


# Complex products, quotients and moduli below use CPython's formulas with one
# rounding per real operation (numpy's own complex loops may fuse
# multiply-adds), so a refined point is bit for bit the one that scalar Python
# complex arithmetic gives where that arithmetic is unfused, as on x86-64.


def _mul(a, b):
    """a * b, computed in place of a and returned; b is overwritten too."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    ai_bi = ai * bi
    bi *= ar
    ar *= br
    ar -= ai_bi  # ar*br - ai*bi
    ai *= br
    ai += bi  # ai*br + ar*bi: the sum commutes exactly
    return a


def _div(a, b):
    """Smith's quotient, scaled by the larger of b's parts as CPython does."""
    by_real = np.abs(b.real) >= np.abs(b.imag)
    ratio = np.where(by_real, b.imag / b.real, b.real / b.imag)
    denom = np.where(by_real, b.real + b.imag * ratio, b.real * ratio + b.imag)
    out = np.empty(a.shape, dtype=complex)
    out.real = np.where(by_real, a.real + a.imag * ratio, a.real * ratio + a.imag) / denom
    out.imag = np.where(by_real, a.imag - a.real * ratio, a.imag * ratio - a.real) / denom
    return out


def _abs(z):
    return np.hypot(z.real, z.imag)


def _evaluate(compiled, z, rows=3):
    """Rows f, f_x, f_y, g, g_x, g_y of values at the points z[:, k] = (x, y),
    and the rows sum |c * x**i * y**j| over the terms of f and of g.

    With rows=1 only f and g are evaluated, and the values are the rows f, g.
    Each value is c * x**i * y**j summed over the terms in order (a
    cumulative sum), so it does not depend on how many points share the call.
    """
    xpow, ypow, groups = compiled
    xp, yp = z[0] ** xpow, z[1] ** ypow
    values, sizes = [], []
    for i, j, c in groups:
        i, j, c = i[:rows], j[:rows], c[:rows]
        terms = xp[i]
        terms *= c
        _mul(terms, yp[j])
        sizes.append(np.cumsum(_abs(terms[0]), axis=0)[-1])
        np.cumsum(terms, axis=1, out=terms)
        values.append(terms[:, -1])
    return np.concatenate(values), np.array(sizes)


def _backward_error(values, sizes):
    """max(|f| / sum|f's terms|, |g| / sum|g's terms|) from the rows f, g."""
    return (_abs(values) / np.where(sizes > 0, sizes, 1)).max(axis=0)


# Rows of _evaluate whose products make the Newton step: fx*gy - fy*gx is the
# Jacobian determinant, gy*f - fy*g and fx*g - gx*f the numerators of the
# x and y steps.
_LEFT = [1, 2, 5, 2, 1, 4]
_RIGHT = [5, 4, 0, 3, 3, 0]


def refine(compiled, z0, config):
    """Newton refinement of every start z0[:, k] = (x, y) on the pair, in lockstep.

    Returns (points, residuals, converged) with one column or entry per
    start. The residual of a point is its backward error, the larger of
    |f| / sum|terms of f| and |g| / sum|terms of g| there: unlike |f| it
    does not grow with the rounding error of evaluating f far out, where
    an exact point has |f| of that size too.

    A first pass evaluates f and g at every start, _BLOCK_ENTRIES // terms
    starts at a time, terms being the longer equation's count. A finite
    start whose residual is already below the target verify_tol*1e-3 is
    final: it keeps its point and that residual and has converged, whatever
    its Jacobian. Newton's method runs from the other starts. Each keeps the
    point with the best residual seen, and stops when the residual falls
    below the target, when |det| of the Jacobian is below 1e-300, after a
    relative step below 1e-16 (the point reached is evaluated once more) or
    after _MAX_ITER steps; it has converged when its best residual is below
    verify_tol. A non-finite iterate, value or Jacobian counts as diverged.

    Up to _BLOCK_ENTRIES // (3 * terms) of these starts, which also evaluate
    the partial derivatives, are active at once, and each one that finishes
    is replaced by the next waiting start. Every operation acts on each start
    alone, so a start's result does not depend on which others share its
    passes.
    """
    _, _, groups = compiled
    terms = max(c.shape[1] for _, _, c in groups)
    target = config.verify_tol * 1e-3
    best = z0.copy()
    best_res = np.empty(z0.shape[1])
    block = max(1, _BLOCK_ENTRIES // terms)
    with np.errstate(all="ignore"):  # overflow and 0/0 are caught by the finiteness test
        for k in range(0, len(best_res), block):
            best_res[k:k + block] = _backward_error(*_evaluate(compiled, z0[:, k:k + block], rows=1))
    # a residual below the target is finite; the start itself may not be
    converged = np.isfinite(z0).all(axis=0) & (best_res < target)
    best_res[~converged] = np.inf
    pending = np.flatnonzero(~converged)
    width = max(1, _BLOCK_ENTRIES // (3 * terms))
    idx = pending[:width].copy()
    queued = len(idx)
    z = z0[:, idx]
    steps = np.zeros(len(idx), dtype=int)
    last = np.zeros(len(idx), dtype=bool)
    with np.errstate(all="ignore"):
        while len(idx):
            values, sizes = _evaluate(compiled, z)
            res = _backward_error(values[[0, 3]], sizes)
            products = _mul(values[_LEFT], values[_RIGHT])
            differences = products[0::2] - products[1::2]
            det = differences[0]
            finite = np.isfinite(z).all(axis=0) & np.isfinite(res) & np.isfinite(det)
            better = finite & (res < best_res[idx])
            best[:, idx[better]] = z[:, better]
            best_res[idx[better]] = res[better]
            stop = last | ~finite | (res < target) | (steps >= _MAX_ITER) | (_abs(det) < 1e-300)
            step = _div(differences[1:], det)
            z = z - step
            size, scale = _abs(step), _abs(z)
            last = size[0] + size[1] < 1e-16 * (1 + scale[0] + scale[1])
            steps += 1
            # the step that reaches the cap is not evaluated, unless it was a last one
            done = stop | ((steps >= _MAX_ITER) & ~last)
            finished = idx[done]
            converged[finished] = finite[done] & (best_res[finished] < config.verify_tol)
            # refill finished slots from the queue; once it is empty, drop them
            free = np.flatnonzero(done)
            fresh = pending[queued:queued + len(free)]
            queued += len(fresh)
            slots = free[:len(fresh)]
            idx[slots], steps[slots], last[slots] = fresh, 0, False
            z[:, slots] = z0[:, fresh]
            if len(slots) < len(free):
                live = np.ones(len(idx), dtype=bool)
                live[free[len(slots):]] = False
                idx, z, steps, last = idx[live], z[:, live], steps[live], last[live]
    return best, best_res, converged
