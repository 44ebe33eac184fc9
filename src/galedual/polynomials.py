"""Integer polynomials: the bivariate form the solver works on, and
univariate helpers on integer lists.

IntPoly holds a bivariate polynomial with integer coefficients, both as
terms and as rows in y. Below it: the univariate helpers (gcd, squarefree
decomposition, integer subresultant chains) behind the bivariate resultant
and first subresultant the solver eliminates with, and behind the
restrictions to lines that it excludes zeros with. The elimination runs
one integer chain at a power of two and reads the coefficients off its
value as digits (Kronecker substitution).
General polynomial algebra (factoring, multivariate division) is out of scope.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InvariantError
from .ratlinalg import _integer_rows
# unused here; bench/spans.py looks these names up on this module to count calls
from .ratlinalg import det_bareiss_int, mat_det  # noqa: F401


class IntPoly:
    """A bivariate polynomial with integer coefficients whose gcd is 1.

    ``terms`` maps the exponents (i, j) of each monomial x**i * y**j that
    occurs to its coefficient, in the order the terms were given:
    newton.CompiledPair sums them in that order. ``rows`` holds the same
    coefficients by powers of y: rows[j] is the dense ascending list in x of
    the coefficient of y**j, trimmed (empty when y**j does not occur), and
    the last row is nonzero. The zero polynomial has no terms and no rows.
    The given coefficients are divided by their gcd, so the polynomial is
    theirs up to a positive factor.
    """

    __slots__ = ("terms", "rows")

    def __init__(self, terms):
        content = gcd(*terms.values()) or 1
        self.terms = {mono: c // content for mono, c in terms.items() if c}
        self.rows = [[] for _ in range(max((j + 1 for _, j in self.terms), default=0))]
        for (i, j), c in self.terms.items():
            row = self.rows[j]
            row.extend([0] * (i + 1 - len(row)))
            row[i] = c

    def degree(self):
        """Total degree; the zero polynomial gives -1."""
        return max((i + j for i, j in self.terms), default=-1)


def transposed(rows):
    """The rows of the same polynomial in the other variable: from rows in
    y (IntPoly.rows) the rows in x, each a list in y, and back."""
    width = max(map(len, rows), default=0)
    return [utrim([row[i] if i < len(row) else 0 for row in rows]) for i in range(width)]


def monomial_string(exponents, names):
    """Render an integer exponent vector as a Laurent monomial."""
    factors = []
    for name, e in zip(names, exponents):
        if e == 1:
            factors.append(name)
        elif e != 0:
            factors.append(f"{name}^{e}")
    return "*".join(factors) if factors else "1"


def term_sum(terms):
    """Render (coefficient, monomial string) pairs as a signed sum, skipping
    zero coefficients; the monomial "1" shows its coefficient alone, and no
    terms give "0"."""
    out = ""
    for c, mono in terms:
        if c:
            mag = abs(c)
            body = str(mag) if mono == "1" else mono if mag == 1 else f"{mag}*{mono}"
            sign = "-" if c < 0 else "+"
            out += f" {sign} {body}" if out else body if c > 0 else f"-{body}"
    return out or "0"


# ---------------------------------------------------------------------------
# univariate helpers: dense coefficient lists in ascending order. Below the
# Q-facing ugcd and usquarefree every list is an int list


def utrim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def ueval(coeffs, x):
    total = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def uderiv(coeffs):
    return [c * i for i, c in enumerate(coeffs)][1:]


def umul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return utrim(out)


def _int_content(coeffs):
    return gcd(*coeffs) or 1


def _to_int_primitive(coeffs):
    """Clear denominators and divide out integer content."""
    [ints], _ = _integer_rows([utrim([Fraction(v) for v in coeffs])])
    return _primitive(ints)


def _prem(a, b):
    """Exact pseudo-remainder of integer coefficient lists.

    The remainder of lc(b)**(deg a - deg b + 1) * a on division by b, which is
    an integer list whenever a and b are.
    """
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    steps = len(r) - db
    while len(r) > db:
        lr = r.pop()
        shift = len(r) - db
        r = [lb * c for c in r]
        for i in range(db):
            r[shift + i] -= lr * b[i]
        steps -= 1
        while r and r[-1] == 0:
            r.pop()
    if steps > 0 and r:
        scale = lb ** steps
        r = [scale * c for c in r]
    return r


def ugcd(a, b):
    """Monic gcd over Q, normalized so gcds are canonical.

    The work is _gcd_int's, on the primitive integer parts of a and b: a
    coprimality test modulo a prime, then the heuristic gcd if that test
    does not settle it, then a primitive pseudo-remainder sequence if
    neither does.
    """
    g = _gcd_int(_to_int_primitive(a), _to_int_primitive(b))
    return _monic(g) if g else []


def _primitive(coeffs):
    content = _int_content(coeffs)
    return [c // content for c in coeffs]


def _monic(coeffs):
    return [Fraction(c, coeffs[-1]) for c in coeffs]


# primes for _gcd_int's coprimality test, tried in order: the four largest
# below 2**30, so that residues are one-digit Python ints
_PRIMES = (2 ** 30 - 35, 2 ** 30 - 41, 2 ** 30 - 83, 2 ** 30 - 101)


# evaluation points _gcd_heuristic tries before the pseudo-remainder sequence
_HEURISTIC_TRIES = 6


def _gcd_int(f, g):
    """The primitive gcd of two trimmed integer lists with a positive
    leading coefficient ([] when both are zero).

    [1] when f and g are coprime modulo the first prime of _PRIMES that
    divides neither leading coefficient: their gcd's leading coefficient
    divides both, so its image keeps its degree and divides both images,
    and gcd 1 mod p proves coprimality (Brown, JACM 18, 1971). Otherwise
    the heuristic gcd (_gcd_heuristic), whose answer is proved by exact
    division, and if that gives none, a primitive pseudo-remainder sequence.
    """
    if f and g:
        p = next((p for p in _PRIMES if f[-1] % p and g[-1] % p), 0)
        if p and _coprime_mod(f, g, p):
            return [1]
        h = _gcd_heuristic(_primitive(f), _primitive(g))
        if h:
            return h
    f, g = _primitive(f), _primitive(g)
    if len(f) < len(g):
        f, g = g, f
    while g:
        f, g = g, _primitive(_prem(f, g))
    return f if not f or f[-1] > 0 else [-c for c in f]


def _gcd_heuristic(f, g):
    """gcd(f, g) for nonzero primitive integer lists by GCDHEU (Char, Geddes
    and Gonnet, JSC 7, 1989), or None.

    At an integer xi >= 2*min(|f|_inf, |g|_inf) + 2, the integer gcd of
    f(xi) and g(xi), written in balanced base-xi digits, gives a candidate
    G. If the primitive part of G divides both f and g, it is their gcd
    (Geddes, Czapor and Labahn, Algorithms for Computer Algebra, Thm 7.7):
    the bound on xi is what makes that division a proof, so it is kept as
    the starting point. A candidate that fails the division is discarded
    and xi grows, _HEURISTIC_TRIES times in all.
    """
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 2
    for _ in range(_HEURISTIC_TRIES):
        h = _primitive(_balanced_digits(gcd(ueval(f, xi), ueval(g, xi)), xi))
        if h[-1] < 0:
            h = [-c for c in h]
        try:
            udivexact(f, h), udivexact(g, h)
            return h
        except InvariantError:
            xi = xi * 73794 // 27011  # growth near 1 + sqrt(3), as in Geddes, Czapor and Labahn
    return None


def _coprime_mod(f, g, p):
    """Whether f and g, whose leading coefficients p does not divide, are
    coprime modulo the prime p: Euclid's algorithm over GF(p). Each
    division updates the remainder's list in place, from its top
    coefficient down, and skips the steps whose quotient is 0. The
    quotient is kept negated, so that each update adds nonnegative ints."""
    a, b = [c % p for c in f], [c % p for c in g]
    while len(b) > 1:
        minus_inv, db = p - pow(b[-1], -1, p), len(b) - 1
        low = b[:-1]
        for top in range(len(a) - 1, db - 1, -1):
            q = a[top] * minus_inv % p
            if q:
                i = top - db
                for v in low:
                    a[i] = (a[i] + q * v) % p
                    i += 1
        del a[db:]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return len(b) == 1


def udivexact(a, b):
    """a / b for integer lists when b divides a, by long division.

    Each quotient of leading coefficients is exact when b is primitive
    (Gauss's lemma). An inexact quotient or a nonzero remainder raises
    InvariantError.
    """
    r = utrim(a)
    db = len(b) - 1
    q = [0] * (len(r) - db)
    for k in range(len(q) - 1, -1, -1):
        qk = q[k] = _exact_quotient(r[k + db], b[-1])
        if qk:
            for i in range(db):
                r[k + i] -= qk * b[i]
    if any(r[:db]):
        raise InvariantError("the divisor leaves a remainder")
    return q


def usquarefree(coeffs):
    """Yun's squarefree decomposition over Q.

    Returns [(factor, multiplicity), ...] with monic squarefree Fraction
    factors of positive degree, multiplicities ascending, and
    product(factor^multiplicity) equal to the input up to a constant. The
    work is usquarefree_int's, on the primitive integer part of the input.
    """
    return [(_monic(g), m) for g, m in usquarefree_int(_to_int_primitive(coeffs))]


def usquarefree_int(coeffs):
    """usquarefree for a trimmed integer list, with each factor the
    primitive integer list with a positive leading coefficient.

    A factor x**k is split off first, and x joins the factor of
    multiplicity k or becomes one. When gcd(f, f') is 1 for the rest f, f
    is squarefree and the only other factor. Otherwise Yun's steps run on
    it, with primitive gcds and exact quotients. Scaling a gcd by a
    constant scales the next b and c alike, so d = c - b' and every factor
    are the rational algorithm's up to a constant.
    """
    f = _primitive(coeffs)
    k = next((i for i, c in enumerate(f) if c), 0)
    f = f[k:]
    parts = {}  # multiplicity -> factor
    if len(f) > 1:
        fp = uderiv(f)
        a = _gcd_int(f, fp)
        if a == [1]:
            parts[1] = f if f[-1] > 0 else [-c for c in f]
        else:
            b = udivexact(f, a)
            d = _usub(udivexact(fp, a), uderiv(b))
            mult = 1
            while len(b) > 1:
                g = _gcd_int(b, d)
                if len(g) > 1:
                    parts[mult] = g
                b = udivexact(b, g)
                d = _usub(udivexact(d, g), uderiv(b))
                mult += 1
    if k:
        parts[k] = [0] + parts.get(k, [1])
    return [(parts[m], m) for m in sorted(parts)]


def _usub(a, b):
    n = max(len(a), len(b))
    return utrim([x - y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))])


def uinterpolate(points):
    """Coefficients of the unique polynomial through the given (x, y) pairs.

    Newton divided differences in ints: for the values of an integer
    polynomial at integer nodes every quotient is exact. Other data raises
    InvariantError.
    """
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    n = len(points)
    coef = [y for _, y in points]
    for level in range(1, n):
        coef[level:] = [
            _exact_quotient(b - a, x1 - x0)
            for a, b, x0, x1 in zip(coef[level - 1:], coef[level:], xs, xs[level:])
        ]
    # expand the Newton form by Horner's rule: each step multiplies by a
    # small node, not by the growing basis polynomial
    poly = [coef[-1]] if n else []
    for i in range(n - 2, -1, -1):
        x = xs[i]
        poly = [coef[i] - x * poly[0]] + [a - x * b for a, b in zip(poly, poly[1:])] + [poly[-1]]
    return utrim(poly)


def _exact_quotient(num, den):
    q, r = divmod(num, den)
    if r:
        raise InvariantError(f"{num} is not a multiple of {den}")
    return q


def usubresultants_int(a, b):
    """Resultant and first subresultant of two integer polynomials.

    For dense ascending lists of degrees p >= q (trimmed) returns (res, s1):
    the Sylvester determinant Res(a, b), and the subresultant of index 1 as
    a dense list, each coefficient the determinant of a Sylvester submatrix
    with q - 1 rows of a and p - 1 of b. When res = 0 and s1 has degree 1,
    -s1[0] / s1[1] is the only common root. For q = 1 those determinants
    give s1 = lc(b)**(p-2) * b (b itself when p = 1); for q = 0, s1 is a
    when p = 1 and 0 otherwise. Swapping a and b multiplies res by
    (-1)**(p*q) and s1 by (-1)**((p-1)*(q-1)). A zero operand gives (0, []).

    Ducos' subresultant chain (JPAA 145, 2000): from S_d and S_{d-1} of
    degree e, Lazard's formula S_e = lc(S_{d-1})**(d-e-1) * S_{d-1} /
    lc(S_d)**(d-e-1) fills a defective gap, where a pseudo-remainder
    sequence would give another multiple of s1 or none, and S_{e-1} =
    prem(S_d, -S_{d-1}) / lc(S_d)**(d-e+1). Every division is exact.
    """
    a = utrim(a)
    b = utrim(b)
    if not a or not b:
        return 0, []
    p, q = len(a) - 1, len(b) - 1
    if p < q:
        res, s1 = usubresultants_int(b, a)
        return (-1) ** (p * q) * res, [(-1) ** ((p - 1) * (q - 1)) * c for c in s1]
    if q == 0:
        return b[0] ** p, (a if p == 1 else [])
    s1 = [] if q > 1 else [b[-1] ** max(p - 2, 0) * c for c in b]
    # S_q = lc(b)**(p-q-1) * b has leading coefficient s, and S_{q-1} = prem(a, -b);
    # the first step divides out lc(b)**(p-q-1) once more by starting from b
    s = b[-1] ** (p - q)
    top, below, d = b, _prem(a, [-c for c in b]), q
    while below:
        e = len(below) - 1
        if d == 2:
            s1 = below
        bottom = below
        if d - e > 1:
            lift, drop = below[-1] ** (d - e - 1), s ** (d - e - 1)
            bottom = [c * lift // drop for c in below]
            if e == 1:
                s1 = bottom
        if e == 0:
            return bottom[0], s1
        divisor = s ** (d - e) * top[-1]
        below = [c // divisor for c in _prem(top, [-c for c in below])]
        top, d, s = bottom, e, bottom[-1]
    return 0, s1


def line_restriction(rows, line):
    """p on the line c + a*x + b*y = 0, for integers (c, a, b), as a
    primitive integer list, from p's rows (IntPoly.rows, or transposed) in
    the variable the line substitutes: y when b != 0, x when b = 0. A
    caller splits p into rows once for all the lines it restricts p to.

    For b != 0 it is b**d * p(x, -(c + a*x)/b), a list in x with d the
    degree of p in y: Res_y(p, line) up to a nonzero rational factor. For
    b = 0 it is a**d * p(-c/a, y), a list in y with d the degree of p in x:
    Res_x(p, line) up to such a factor. Horner's rule runs over the rows.
    The empty list means the line is a component of p.
    """
    var = 1 if line[2] else 0
    c, k, m = line[0], line[2 - var], line[1 + var]
    out, scale = rows[-1], 1
    for row in reversed(rows[:-1]):
        # out <- scale * row - (c + k*v) * out, in one pass over out
        scale *= m
        step = [scale * r for r in row]
        step += [0] * (len(out) + 1 - len(step))
        below = 0
        for i, u in enumerate(out):
            step[i] -= c * u + k * below
            below = u
        step[len(out)] -= k * below
        while step and not step[-1]:
            step.pop()
        out = step
    return _primitive(out)


def bivariate_resultant(f, g, eliminate):
    """Sylvester resultant of two IntPolys, exactly.

    Eliminates variable ``eliminate`` (0 or 1) and returns the resultant as a
    dense ascending int list in the other variable: the determinant of the
    Sylvester matrix of f and g sized by their degrees in the eliminated
    variable.
    """
    if not f.terms or not g.terms:
        raise ValueError("resultant of a zero polynomial")
    return bivariate_subresultants(*(p.rows if eliminate else transposed(p.rows) for p in (f, g)))[0]


def bivariate_subresultants(frows, grows):
    """(res, s10, s11): the resultant and the first subresultant s11*v + s10
    of f and g in the eliminated variable v (see usubresultants_int), up to
    positive rational factors, as dense ascending integer lists, from the
    primitive integer rows of f and g in v (IntPoly.rows), which a
    caller also restricting f and g to lines (line_restriction) splits once.

    The chain runs on the polynomials F and G with those rows, of
    degrees d1 and d2 in v, specialized at an integer t: while neither
    leading row vanishes at t, the chain's determinants are those of the
    generic-size Sylvester matrices, so its values are the three
    polynomials' values at t. If neither f nor g involves v, res is 1 and
    the first subresultant 0.

    One chain at t = 2**k gives all three (Kronecker substitution; von zur
    Gathen and Gerhard, Modern Computer Algebra, 8.4): each value is read
    off as balanced base-2**k digits, which are the coefficients once each
    coefficient is below 2**(k-1) in absolute value. A row of a Sylvester
    matrix holds the rows of F, or of G, once each, so its entries'
    coefficient 1-norms add up to |F|_1, or |G|_1, the sum of the absolute
    coefficients. A determinant's coefficient 1-norm is at most the product
    of its rows' sums, and every coefficient of Res, with d2 rows of F and
    d1 of G, and of S1, with fewer rows of each, is at most
    B = max(|F|_1**d2 * |G|_1**d1, |F|_1, |G|_1). The max covers the
    first subresultant when usubresultants_int returns F or G itself (the
    other has degree 0). Taking k = bitlength(B) + 1 also keeps both
    leading rows nonzero at 2**k, since their coefficients are below
    2**(k-1).

    The one chain works on integers of about k * (deg R + 1) bits, and
    CPython divides long ints by schoolbook long division, so on large
    pairs it costs more than chains at deg R + 1 small integer nodes
    followed by Newton interpolation. Measured once each with CPython 3.11
    on x86-64, on the cleared pairs of planar master duals of random 3- and
    4-variable systems, one chain against the nodes: 4.5k packed bits 0.3
    against 1.0 ms, 11.8k bits 1.6 against 2.6 ms, 25.5k bits 5.5 against
    5.2 ms, 35k bits 14.7 against 7.3 ms, 158k bits 463 against 51 ms. The
    pairs of the verify benchmark workloads stay below 6.3k bits. The digits
    come off by shift and mask (_balanced_digits): the 318 read-outs of one
    seed-1 pass over both verify corpora, of up to 4841 bits, take 0.95 ms
    that way against 2.1-2.7 ms by divmod, measured alike.
    """
    d1, d2 = len(frows) - 1, len(grows) - 1
    fnorm, gnorm = (sum(abs(c) for row in rows for c in row) for rows in (frows, grows))
    k = max(fnorm ** d2 * gnorm ** d1, fnorm, gnorm).bit_length() + 1
    res, s1 = usubresultants_int(*([ueval(row, 1 << k) for row in rows] for rows in (frows, grows)))
    return tuple(_balanced_digits(v, 1 << k) for v in (res, *s1, *[0] * (2 - len(s1))))


def _balanced_digits(n, base):
    """The ascending base-``base`` digits of n, each in [-base/2, base/2):
    by shift and mask for a power of two (the Kronecker read-out), by
    divmod for other bases (GCDHEU's evaluation points). ValueError for a
    base below 3, whose digits cannot write every n: base 2's are -1 and 0."""
    if base < 3:
        raise ValueError(f"balanced digits need a base of at least 3, got {base}")
    digits, half = [], (base + 1) // 2
    if base & (base - 1):
        while n:
            n, digit = divmod(n, base)
            if digit >= half:
                digit -= base
                n += 1
            digits.append(digit)
        return digits
    k, mask = base.bit_length() - 1, base - 1
    while n:
        digit = n & mask
        n >>= k
        if digit >= half:
            digit -= base
            n += 1
        digits.append(digit)
    return digits
