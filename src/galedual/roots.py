"""Roots of exact univariate polynomials, and values of quotients at them.

Floating point does the work, in numpy: a polynomial's values at many
points at once come from a table of their powers, with a rounding error
bound. Where that bound leaves a root or a value uncertain, it is
evaluated exactly in integers at the float's dyadic value instead. A
cluster of uncertain roots is first recentred: the polynomial is shifted
exactly to a dyadic point at the cluster and scaled to its size (a Taylor
shift in Gaussian integers), and its roots are found there in floating
point again (Bini and Robol, JCAM 272, 2014, restart at clusters). How
many roots are real is proved from inclusion disks around the roots found
(real_root_count); Sturm's theorem in integers (ureal_root_count) decides
only where the disks overlap.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError
from .polynomials import _prem, _primitive, uderiv


# Aberth passes at most (they converge cubically once the roots separate;
# polynomial_roots raises beyond), and the relative uncertainty at which a
# root or value is final: Newton's method on the pair takes it from there
_ABERTH_STEPS = 60
_RTOL = 2.0 ** -30
_EPS = 2.0 ** -52  # the spacing of floats at 1


def polynomial_roots(coeffs):
    """Complex roots of a squarefree ascending list of integers.

    numpy's companion-matrix eigenvalues start Aberth-Ehrlich iterations
    (Bini, Numer. Algorithms 13, 1996) on the list itself: eigenvalues are
    backward stable for the companion matrix only, so where roots crowd
    and the coefficients span many orders of magnitude they can be far off.
    A root iterates in floating point (_horner's power table, with its
    rounding bound) until it stops moving. If the bound then leaves it
    uncertain to more than _RTOL relative, it goes on with Newton ratios
    evaluated exactly, in integers at the iterate's dyadic value.

    Uncertain roots whose rounding disks overlap form a group; a group well
    apart from the other roots is a cluster, and iterating its roots from a
    symmetric start stalls. Such a group restarts on the polynomial
    recentred at it by an exact Taylor shift (_recentre), and only the roots
    that stay uncertain there go on with exact ratios.

    Where the leading coefficient underflows to 0 beside the largest in
    floats, the roots come from p(2**s * t), with 2**s chosen from the end
    coefficients; every other list keeps its floats. Raises
    ConvergenceError when roots still move after _ABERTH_STEPS passes, or
    when that scale leaves them beyond the range of floats.
    """
    n = len(coeffs) - 1
    asc = _floats(coeffs)
    if not asc[-1]:
        # the leading coefficient underflows beside the largest: find the
        # roots t of p(2**s * t), 2**s where the end coefficients balance
        low = next(k for k, c in enumerate(coeffs) if c)
        s = round((abs(coeffs[low]).bit_length() - abs(coeffs[-1]).bit_length()) / (n - low))
        scaled = [c << s * k if s >= 0 else c << -s * (n - k) for k, c in enumerate(coeffs)]
        if not (_floats(scaled)[-1] and -1022 <= s <= 1023):
            raise ConvergenceError("the roots lie beyond the range of floats")
        return math.ldexp(1.0, s) * polynomial_roots(scaled)
    derivative = uderiv(coeffs)  # for exact ratios
    z = _companion_roots(asc)
    state = np.zeros(n, dtype=int)  # 0 floating point, 1 exact, 2 final
    spread = np.zeros(n)  # rounding radius of an uncertain root not yet grouped
    with np.errstate(all="ignore"):
        for _ in range(_ABERTH_STEPS):
            active = np.flatnonzero(state < 2)
            if not len(active):
                return z
            ratio, radius = _ratios(asc, z[active])
            exact = state[active] == 1
            radius[exact] = 0
            ratio[exact] = [_quotient(*_horner_exact(coeffs, derivative, v)) for v in z[active[exact]]]
            stopped = _aberth_step(z, active, ratio, radius, 1)
            state[active[stopped]] = np.where(radius <= _tolerance(z[active], 1), 2, 1)[stopped]
            uncertain = stopped & ~exact & (state[active] == 1)
            if uncertain.any():
                spread[active[uncertain]] = radius[uncertain]
                spread[state == 2] = 0
                for group in _groups(z, spread):
                    spread[group] = 0  # tried once
                    _recentre(coeffs, z, state, group)
    if (state < 2).any():
        raise ConvergenceError(f"roots still move after {_ABERTH_STEPS} Aberth passes")
    return z


def _companion_roots(asc):
    """np.roots(asc[::-1]) as a complex array, bit for bit, for ascending
    float coefficients asc, not all zero: the eigenvalues of the same
    companion matrix of the list stripped of its zero ends, and a 0 for
    each zero constant. It leaves out np.roots' checks and conversions."""
    nonzero = np.flatnonzero(asc)
    low, high = nonzero[0], nonzero[-1]
    desc = asc[low:high + 1][::-1]
    n = len(desc) - 1
    z = np.zeros(n + low, dtype=complex)
    if n:
        companion = np.eye(n, k=-1, dtype=desc.dtype)
        companion[0] = -desc[1:] / desc[0]
        z[:n] = np.linalg.eigvals(companion)
    return z


def _ratios(asc, z):
    """Newton ratios p/p' of float coefficients at the points (_horner), and
    the radius about each that their rounding error leaves uncertain."""
    p, dp, bound = _horner(asc, z)
    return p / dp, 4 * (len(asc) - 1) * _EPS * bound / np.abs(dp)


def _tolerance(z, scale):
    """The relative uncertainty _RTOL at which a root z is final, in units of
    scale."""
    return _RTOL * np.abs(z) / scale


def _aberth_step(z, active, ratio, radius, scale, origin=0):
    """Move the roots z[active] by their Aberth-Ehrlich steps from their
    Newton ratios against all of z, and return which stopped: moved no more
    than the ratio's uncertainty radius or the final tolerance. z is in
    units of scale around origin."""
    gaps = z[active, None] - z[None, :]
    gaps[np.arange(len(active)), active] = np.inf
    step = ratio / (1 - ratio * (1 / gaps).sum(axis=1))
    step[~np.isfinite(step)] = 0
    z[active] -= step
    return np.abs(step) <= np.maximum(radius, _tolerance(origin + scale * z[active], scale))


def _groups(z, spread):
    """Index arrays of the clusters among the roots with a spread: chains of
    two or more disks of that radius that overlap, of diameter below a
    quarter of the distance from their mean to the nearest other root."""
    for group in _chains(z, spread, np.flatnonzero(spread)):
        distance = np.abs(z - z[group].mean())
        extent, distance[group] = distance[group].max(), np.inf
        if 8 * extent < distance.min():
            yield group


def _chains(z, radius, idx):
    """Index arrays, out of idx, of the chains of two or more overlapping
    disks of the radii about z."""
    near = np.abs(z[idx, None] - z[idx]) <= radius[idx, None] + radius[idx]
    label = np.arange(len(idx))
    for _ in idx:  # each takes the least label it overlaps, until none moves
        least = np.where(near, label, len(idx)).min(axis=1)
        if (least == label).all():
            break
        label = least
    return [idx[label == first] for first in np.flatnonzero(np.bincount(label) > 1)]


def _recentre(coeffs, z, state, group):
    """Restart the cluster z[group] on p(c + h*s), and finalise the roots
    that floating point settles there.

    The centre c is the group's mean rounded to a sixteenth of the scale h,
    the power of two at or above its diameter, so that the Taylor shift's
    integers stay short (_shifted). The k roots restart from the k
    eigenvalues of the shifted polynomial nearest 0 and iterate against
    the other roots, held fixed, with the same rounding bound and the same
    stop test in z's units. A Newton step underestimates the distance to
    a root of a k-cluster up to k-fold, so each chain of roots whose disks
    of k times that bound still overlap is recentred again at its own mean
    and diameter, as long as the diameter halves. Where the roots coincide,
    the spacing of floats there stands for the diameter; at 0, where floats
    reach far below that spacing, a bound on the roots of p's lowest k + 1
    terms does (_low_root_bound), and the k roots restart from theirs. A
    group is left to the exact tier when the shifted polynomial divided by
    its leading coefficient is not finite in floats, as when that
    coefficient underflows to 0.
    """
    n = len(coeffs) - 1
    settled, radii = np.zeros(n, dtype=bool), np.zeros(n)  # radii in z's units
    todo = [(group, math.inf)]
    while todo:
        group, diameter = todo.pop()
        k, centre = len(group), z[group].mean()
        width = 2 * np.abs(z[group] - centre).max()
        low = not (width or centre) and coeffs[k] != 0  # k roots at 0 start from p's lowest terms
        if not width:
            width = _low_root_bound(coeffs, k) if low else _EPS * max(1, abs(centre))
        if not width < diameter / 2:
            continue
        m = math.frexp(width)[1]
        e = 4 - m  # c on the grid of h/16
        a = (round(math.ldexp(centre.real, e)), round(math.ldexp(centre.imag, e)))
        c, h = complex(math.ldexp(a[0], -e), math.ldexp(a[1], -e)), math.ldexp(1.0, m)
        shifted = _shifted(coeffs, a, e, 4)
        asc = _floats(*shifted)
        if not np.isfinite(asc[:-1] / asc[-1]).all():
            continue  # the companion matrix would not be finite
        s = (z - c) / h
        eigenvalues = _companion_roots(_floats(*(v[:k + 1] for v in shifted)) if low else asc)
        s[group] = eigenvalues[np.argsort(np.abs(eigenvalues))[:k]]
        moving, radii[group] = group, np.inf
        for _ in range(_ABERTH_STEPS):
            ratio, radius = _ratios(asc, s[moving])
            stopped = _aberth_step(s, moving, ratio, radius, h, c)
            radii[moving[stopped]] = h * radius[stopped]
            moving = moving[~stopped]
            if not len(moving):
                break
        z[group] = c + h * s[group]
        settled[group] = radii[group] <= _tolerance(z[group], 1)
        todo += [(chain, width) for chain in _chains(z, k * radii, group)]
    state[settled] = 2


def _low_root_bound(coeffs, k):
    """A power of two at or above the diameter of the disk about 0 of
    Fujiwara's radius 2 * max_j |a_{k-j} / a_k|**(1/j), which holds the
    roots of the lowest k + 1 terms of the integer list p, a_k != 0. When
    p's other roots lie far out, those terms stand for the k roots near 0.
    Taken from the integers, since p's float coefficients may underflow;
    at this scale a_k's term is the largest of them."""
    top = math.log2(abs(coeffs[k]))
    bound = max((math.log2(abs(c)) - top) / j for j, c in enumerate(reversed(coeffs[:k]), 1) if c)
    return max(math.ldexp(1.0, math.ceil(bound) + 2), np.finfo(float).tiny)


def _shifted(coeffs, a, e, g):
    """Real and imaginary integer lists proportional to the coefficients of
    p(2**-e * (a + 2**g * s)), for a Gaussian integer a = (real, imaginary):
    p's coefficients scaled to those of a multiple of p(2**-e * t), then
    Horner's Taylor shift t -> t + a in O(n**2) additions and products."""
    n = len(coeffs) - 1
    re = [c << e * (n - k) if e >= 0 else c << -e * k for k, c in enumerate(coeffs)]
    im = [0] * (n + 1)
    ar, ai = a
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            re[k], im[k] = re[k] + ar * re[k + 1] - ai * im[k + 1], im[k] + ar * im[k + 1] + ai * re[k + 1]
    return [v << g * k for k, v in enumerate(re)], [v << g * k for k, v in enumerate(im)]


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

    The first bounds come from the floating-point power table (_horner),
    with u = _EPS/2 the unit of rounding and B the sum of |terms| it
    returns. Barring underflow, its value is within 8*n*_EPS*B = 16*n*u*B
    of p(z_i) / (scale * max(1, |z_i|)**n), which covers, to first order
    and with room for the second: scaling the coefficients by 1/scale
    (u*B); beyond the unit circle, the reciprocal w = 1/z_i, which numpy's
    Smith division rounds within 6u, so that w**k is within 6*k*u
    (6*n*u*B); the running product that forms w**k from w, each complex
    product within sqrt(5)*u (Brent, Percival and Zimmermann, Math. Comp.
    76, 2007), so (k - 1)*sqrt(5)*u in all (sqrt(5)*n*u*B); each term's
    product with its real coefficient (u*B); and the sum of the n + 1 terms
    (sqrt(2)*n*u*B). That is about (2 + 9.7*n)*u*B. The
    factor 1 + 8*n*_EPS on r_i covers the rest: the product of differences,
    kept as frexp mantissas and summed exponents so that nothing overflows,
    at about 3u per factor for the difference, its modulus and the
    product; max(1, |z_i|)**n, within about n*u; a few single roundings;
    and 4u for comparing the disks' distances in floats. Where these bounds
    leave disks in conflict, the disks involved get |p(z_i)| exactly
    (_value_exact) at the dyadic z_i; where they still conflict, Sturm's
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
    tr, ti = _value_exact(coeffs, z)
    d = _dyadic(z)[2]
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
    """num(z)/den(z) for integer lists at the points z: both from one float
    power table (_horner), or exact evaluation where its rounding bound
    leaves a value uncertain to more than _RTOL relative."""
    n = max(len(num), len(den))
    num, den = num + [0] * (n - len(num)), den + [0] * (n - len(den))
    with np.errstate(all="ignore"):
        (top, bottom), _, (top_bound, bottom_bound) = _horner(_floats(num + den).reshape(2, n), z)
        values = top / bottom
        error = 4 * n * _EPS * (top_bound + np.abs(values) * bottom_bound) / np.abs(bottom)
    # a denominator that cancels to 0 in floats leaves an infinite value,
    # which the relative test alone would pass
    for k in np.flatnonzero(~(error <= _RTOL * np.maximum(1, np.abs(values))) | np.isinf(values)):
        values[k] = _quotient(_value_exact(num, z[k]), _value_exact(den, z[k]))
    return values


def _floats(ints, imag=()):
    """Integers divided by the largest magnitude among them, as floats;
    complex floats when imaginary parts, not all zero, come too."""
    scale = max(abs(v) for v in [*ints, *imag]) or 1
    if not any(imag):
        return np.array([v / scale for v in ints])
    return np.array([complex(u / scale, v / scale) for u, v in zip(ints, imag)])


def _horner(asc, z):
    """p(z) and p'(z) for ascending float coefficients at each point, and the
    sum of |terms| that bounds the rounding error in p(z). asc may be a
    stack of coefficient rows; the results then have a row for each.

    The terms come from a table of the powers of w = z, or of w = 1/z
    beyond the unit circle, where they run in reverse and all three come
    back divided by z**n: p/p' and the relative error are unchanged, and
    nothing overflows. Each point's powers form one contiguous row, summed
    along itself, so a point's values do not depend on the other points
    evaluated with it.
    """
    n = asc.shape[-1] - 1
    outside = np.abs(z) > 1
    powers = np.empty((len(z), n + 1), dtype=complex)
    powers[:, 0] = 1
    powers[:, 1:] = np.where(outside, 1 / z, z)[:, None]
    np.cumprod(powers, axis=1, out=powers)
    # p(z) / z**n = sum a_k w**(n - k) and p'(z) / z**n = sum k*a_k w**(n + 1 - k)
    powers[outside] = powers[outside, ::-1]
    terms = asc[..., None, :] * powers
    dp = (np.arange(1, n + 1) * asc[..., None, 1:] * powers[:, :-1]).sum(axis=-1)
    return terms.sum(axis=-1), dp, np.abs(terms).sum(axis=-1)


def _horner_exact(ints, derivative, z):
    """d**n * p(z) and d**n * p'(z) exactly, as (real, imaginary) integer
    pairs, where z = (a + b*i)/d is the float complex z with d a power of two,
    n + 1 is the length of the list and derivative is uderiv(ints)."""
    ur, ui = _value_exact(derivative, z)
    d = _dyadic(z)[2]
    return _value_exact(ints, z), (d * ur, d * ui)


def _value_exact(ints, z):
    """d**n * p(z) exactly, as (real, imaginary) integers; see _horner_exact.
    Horner's rule in integers, where the coefficient k places below the top
    enters times d**k = 2**(k*e), as a shift."""
    a, b, d = _dyadic(z)
    e = d.bit_length() - 1
    tr, ti = ints[-1], 0
    shift = 0
    for c in reversed(ints[:-1]):
        shift += e
        tr, ti = tr * a - ti * b + (c << shift), tr * b + ti * a
    return tr, ti


def _dyadic(z):
    """(a, b, d) with z = (a + b*i)/d for the float complex z, d a power of
    two."""
    (ar, dr), (ai, di) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    d = max(dr, di)
    return ar * (d // dr), ai * (d // di), d


def _quotient(num, den):
    """num / den for (real, imaginary) integer pairs, rounded to a complex."""
    (nr, ni), (dr, di) = num, den
    norm = dr * dr + di * di
    if not norm:
        return complex("nan")
    return complex((nr * dr + ni * di) / norm, (ni * dr - nr * di) / norm)
