"""Roots of exact univariate polynomials, and values of quotients at them.

Floating point does the work, in numpy. Where its rounding error bound
leaves a root or a value uncertain, it is evaluated exactly in integers at
the float's dyadic value instead. How many roots are real is proved from
inclusion disks around the roots found (real_root_count); Sturm's theorem
in integers (ureal_root_count) decides only where the disks overlap.
"""

from __future__ import annotations

import math

import numpy as np

from .polynomials import _prem, _primitive, uderiv


# Aberth passes at most (they converge cubically once the roots separate),
# and the relative uncertainty at which a root or value is final: Newton's
# method on the pair takes it from there
_ABERTH_STEPS = 60
_RTOL = 2.0 ** -30
_EPS = 2.0 ** -52  # the spacing of floats at 1


def polynomial_roots(coeffs):
    """Complex roots of a squarefree ascending list of integers.

    numpy's companion-matrix eigenvalues start Aberth-Ehrlich iterations
    (Bini, Numer. Algorithms 13, 1996) on the list itself: eigenvalues are
    backward stable for the companion matrix only, so where roots crowd
    and the coefficients span many orders of magnitude they can be far off.
    A root iterates in floating point (Horner's rule, with its rounding
    bound) until it stops moving. If the bound then leaves it uncertain to
    more than _RTOL relative, it goes on with Newton ratios evaluated
    exactly, in integers at the iterate's dyadic value.
    """
    n = len(coeffs) - 1
    asc = _floats(coeffs)
    z = np.roots(asc[::-1]).astype(complex)
    state = np.zeros(n, dtype=int)  # 0 floating point, 1 exact, 2 final
    with np.errstate(all="ignore"):
        for _ in range(_ABERTH_STEPS):
            active = np.flatnonzero(state < 2)
            if not len(active):
                break
            p, dp, bound = _horner(asc, z[active])
            ratio, radius = p / dp, 4 * n * _EPS * bound / np.abs(dp)
            exact = state[active] == 1
            radius[exact] = 0
            ratio[exact] = [_quotient(*_horner_exact(coeffs, v)) for v in z[active[exact]]]
            gaps = z[active, None] - z[None, :]
            gaps[np.arange(len(active)), active] = np.inf
            step = ratio / (1 - ratio * (1 / gaps).sum(axis=1))
            step[~np.isfinite(step)] = 0
            z[active] -= step
            tol = _RTOL * np.maximum(1, np.abs(z[active]))
            stopped = np.abs(step) <= np.maximum(radius, tol)
            state[active[stopped]] = np.where(radius <= tol, 2, 1)[stopped]
    return z


def real_root_count(coeffs, z):
    """The number of real roots of a squarefree trimmed ascending list of
    integers p of degree n, given approximations z to all n roots
    (polynomial_roots).

    Around each z_i lies the inclusion disk of radius r_i = n*|p(z_i)| /
    |a_n * prod_{j != i}(z_i - z_j)|: the disks cover the roots, and a
    union of k disks disjoint from the others holds exactly k of them
    (Neumaier, "Enclosing clusters of zeros of polynomials", JCAM 156,
    2003). So when the disks are pairwise disjoint, each holds one root. If
    disk i is moreover disjoint from the mirror image of every other disk,
    the conjugate of its root, a root too, can lie in no other disk, so it
    lies in disk i and is the root itself: the root is real. A disk that
    misses the real axis holds a nonreal root. When every disk that meets
    the axis is also apart from the others' mirror images, the count is the
    number of disks that meet the axis; z need not be closed under
    conjugation. Larger radii keep all of this true, so upper bounds on r_i
    serve.

    The first bounds come from floating-point Horner (_horner), with u =
    _EPS/2 the unit of rounding and B the sum of |terms| it returns. Its
    value is within 8*n*_EPS*B = 16*n*u*B of p(z_i) / (scale *
    max(1, |z_i|)**n), which covers, to first order and with room for the
    second: scaling the coefficients by 1/scale (u*B); beyond the unit
    circle, the reciprocal w = 1/z_i, which numpy's Smith division rounds
    within 6u, so every power of w that Horner forms is within 6*n*u
    (6*n*u*B); and Horner's own complex steps ((sqrt(5) + 1)*n*u*B). The
    factor 1 + 8*n*_EPS on r_i covers the rest: the product of differences,
    kept as frexp mantissas and summed exponents so that nothing overflows,
    at about 3u per factor for the difference, its modulus and the
    product; max(1, |z_i|)**n, within about n*u; a few single roundings;
    and 4u for comparing the disks' distances in floats. Where these bounds
    leave disks in conflict, the disks involved get |p(z_i)| exactly
    (_horner_exact) at the dyadic z_i; where they still conflict, Sturm's
    theorem (ureal_root_count) decides.
    """
    n = len(coeffs) - 1
    asc = _floats(coeffs)
    with np.errstate(all="ignore"):
        p, _, bound = _horner(asc, z)
        mantissa, exponent = np.frexp(np.maximum(1, np.abs(z)))
        value = (np.abs(p) + 8 * n * _EPS * bound) * mantissa ** n
        exponent = n * exponent.astype(np.int64)
        radius = _disk_radii(asc[-1], z, value, exponent)
        count, loose = _disk_count(z, radius)
        if count is None:
            scale = max(map(abs, coeffs))
            for i in np.flatnonzero(loose):
                value[i], exponent[i] = _exact_magnitude(coeffs, z[i], scale)
            count, _ = _disk_count(z, _disk_radii(asc[-1], z, value, exponent))
    return ureal_root_count(coeffs) if count is None else count


def _disk_radii(lead, z, value, exponent):
    """Upper bounds on the inclusion radii n*|p(z_i)| / |lead *
    prod_{j != i}(z_i - z_j)|, where |p(z_i)| <= value_i * 2**exponent_i
    and p and lead are scaled alike; see real_root_count."""
    n = len(z)
    gaps = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(gaps, 1)
    mantissa, shift = np.frexp(gaps)
    radius = n * value * (1 + 8 * n * _EPS) / (abs(lead) * mantissa.prod(axis=1))
    # a radius that underflows is raised to the least normal float, above it
    return np.maximum(np.ldexp(radius, exponent - shift.sum(axis=1)), np.finfo(float).tiny)


def _disk_count(z, radius):
    """(count, None) when the disks settle how many roots are real (see
    real_root_count), else (None, a mask of the disks in some conflict)."""
    reach = radius[:, None] + radius[None, :]
    apart = np.abs(z[:, None] - z[None, :]) > reach
    unmirrored = np.abs(z[:, None] - z[None, :].conj()) > reach
    np.fill_diagonal(apart, True)
    np.fill_diagonal(unmirrored, True)
    nonreal = np.abs(z.imag) > radius
    conflict = ~apart | (~unmirrored & ~nonreal[:, None])
    if not conflict.any():
        return int((~nonreal).sum()), None
    return None, conflict.any(axis=0) | conflict.any(axis=1)


def _exact_magnitude(coeffs, z, scale):
    """(value, exponent) with |p(z)| / scale = value * 2**exponent to within
    a few rounding units, p(z) evaluated exactly at the dyadic z."""
    (tr, ti), _ = _horner_exact(coeffs, z)
    d = max(v.as_integer_ratio()[1] for v in (z.real, z.imag))
    top, low = max(tr.bit_length(), ti.bit_length()), scale.bit_length()
    value = math.hypot(tr / (1 << top), ti / (1 << top)) / (scale / (1 << low))
    return value, top - low - (len(coeffs) - 1) * (d.bit_length() - 1)


def ureal_root_count(coeffs):
    """The number of distinct real roots of a trimmed ascending list of
    integers p: real_root_count's fallback, and its reference in the tests.

    Sturm's theorem (Basu, Pollack and Roy, Algorithms in Real Algebraic
    Geometry, ch. 2): the sign changes of the Sturm sequence p, p', -rem,
    ... at -infinity less those at +infinity. Each remainder is a
    pseudo-remainder by a divisor with positive leading coefficient, made
    primitive: a positive multiple of the true one, with the same signs.
    """
    if len(coeffs) < 2:
        return 0
    a, b, signs = coeffs, _primitive(uderiv(coeffs)), []
    while a:
        # whether a is negative at -infinity and at +infinity; only these
        # are kept, as the remainders' integers grow large
        signs.append(((a[-1] < 0) != (len(a) % 2 == 0), a[-1] < 0))
        r = _prem(a, b if b[-1] > 0 else [-c for c in b]) if b else []
        a, b = b, _primitive([-c for c in r])
    low, high = (sum(s != t for s, t in zip(v, v[1:])) for v in zip(*signs))
    return low - high


def rational_values(num, den, z):
    """num(z)/den(z) for integer lists at the points z: floating-point Horner,
    or exact evaluation where its rounding bound leaves a value uncertain to
    more than _RTOL relative."""
    n = max(len(num), len(den))
    num, den = num + [0] * (n - len(num)), den + [0] * (n - len(den))
    scaled = _floats(num + den)
    with np.errstate(all="ignore"):
        top, _, top_bound = _horner(scaled[:n], z)
        bottom, _, bottom_bound = _horner(scaled[n:], z)
        values = top / bottom
        error = 4 * n * _EPS * (top_bound + np.abs(values) * bottom_bound) / np.abs(bottom)
    for k in np.flatnonzero(~(error <= _RTOL * np.maximum(1, np.abs(values)))):
        values[k] = _quotient(_horner_exact(num, z[k])[0], _horner_exact(den, z[k])[0])
    return values


def _floats(ints):
    scale = max(abs(v) for v in ints) or 1
    return np.array([v / scale for v in ints])


def _horner(asc, z):
    """p(z) and p'(z) for ascending float coefficients at each point, and the
    sum of |terms| that bounds Horner's rounding error in p(z).

    Beyond the unit circle Horner's rule runs on the reversed list at
    w = 1/z, and all three come back divided by z**n: p/p' and the relative
    error are unchanged, and nothing overflows.
    """
    n = len(asc) - 1
    outside = np.abs(z) > 1
    w = np.where(outside, 1 / z, z)
    desc = np.where(outside[None, :], asc[:, None], asc[::-1, None])  # descending in w
    p = np.zeros(len(z), dtype=complex)
    dp = np.zeros(len(z), dtype=complex)
    bound = np.zeros(len(z))
    for row in desc:
        dp = dp * w + p
        p = p * w + row
        bound = bound * np.abs(w) + np.abs(row)
    # p(z) = z**n * q(w) for the reversed list q, so p'(z) / z**n = w * (n*q - w*q')
    return p, np.where(outside, w * (n * p - w * dp), dp), bound


def _horner_exact(ints, z):
    """d**n * p(z) and d**n * p'(z) exactly, as (real, imaginary) integer
    pairs, where z = (a + b*i)/d is the float complex z with d a power of two
    and n + 1 is the length of the list."""
    (ar, dr), (ai, di) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    d = max(dr, di)
    a, b = ar * (d // dr), ai * (d // di)
    tr, ti, ur, ui = ints[-1], 0, 0, 0
    power = 1
    for c in reversed(ints[:-1]):
        power *= d
        ur, ui = ur * a - ui * b + d * tr, ur * b + ui * a + d * ti
        tr, ti = tr * a - ti * b + c * power, tr * b + ti * a
    return (tr, ti), (ur, ui)


def _quotient(num, den):
    """num / den for (real, imaginary) integer pairs, rounded to a complex."""
    (nr, ni), (dr, di) = num, den
    norm = dr * dr + di * di
    if not norm:
        return complex("nan")
    return complex((nr * dr + ni * di) / norm, (ni * dr - nr * di) / norm)
