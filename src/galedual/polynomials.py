"""Sparse multivariate polynomials over exact rationals.

Just enough arithmetic for this package: ring operations, exact evaluation,
derivatives, and the univariate helpers (gcd, squarefree decomposition,
interpolation, integer subresultant chains) behind the bivariate resultant
and first subresultant the solver eliminates with, and behind the
restrictions to lines that it excludes zeros with.
General polynomial algebra (factoring, multivariate division) is out of scope.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# unused here; bench/spans.py looks these names up on this module to count calls
from .ratlinalg import det_bareiss_int, mat_det  # noqa: F401


class Poly:
    """Immutable sparse polynomial with Fraction coefficients.

    Terms map exponent tuples (nonnegative ints, one per variable) to nonzero
    Fraction coefficients. Laurent exponents are not allowed here; callers
    clear denominators first.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(int(e) for e in mono)
            if len(mono) != nvars:
                raise ValueError(f"monomial {mono} has wrong arity for {nvars} variables")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}; clear denominators first")
            coeff = Fraction(coeff)
            if coeff != 0:
                clean[mono] = clean.get(mono, Fraction(0)) + coeff
                if clean[mono] == 0:
                    del clean[mono]
        self.terms = clean

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, index, nvars):
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {mono: Fraction(1)})

    @classmethod
    def linear(cls, constant, coeffs):
        """Degree-one polynomial constant + sum(coeffs[i] * x_i)."""
        n = len(coeffs)
        terms = {(0,) * n: Fraction(constant)}
        for i, c in enumerate(coeffs):
            mono = tuple(1 if j == i else 0 for j in range(n))
            terms[mono] = Fraction(c)
        return cls(n, terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + c
        return Poly(self.nvars, out)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                out[mono] = out.get(mono, Fraction(0)) + c1 * c2
        return Poly(self.nvars, out)

    def __rmul__(self, other):
        return self * other

    def __pow__(self, exponent):
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.constant(self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("mixed variable counts")
            return other
        return Poly.constant(self.nvars, other)

    def scale(self, factor):
        factor = Fraction(factor)
        return Poly(self.nvars, {m: c * factor for m, c in self.terms.items()})

    def degree(self, var=None):
        """Total degree, or degree in one variable. Zero polynomial gives -1."""
        if not self.terms:
            return -1
        if var is None:
            return max(sum(m) for m in self.terms)
        return max(m[var] for m in self.terms)

    def derivative(self, var):
        out = {}
        for mono, c in self.terms.items():
            e = mono[var]
            if e:
                lowered = tuple(x - 1 if i == var else x for i, x in enumerate(mono))
                out[lowered] = out.get(lowered, Fraction(0)) + c * e
        return Poly(self.nvars, out)

    def eval_exact(self, point):
        """Evaluate at a tuple of Fractions."""
        total = Fraction(0)
        for mono, c in self.terms.items():
            v = c
            for x, e in zip(point, mono):
                if e:
                    v *= Fraction(x) ** e
            total += v
        return total

    def coefficients_in(self, var):
        """Coefficients as polynomials in the remaining variables.

        Returns a dict exponent -> Poly where the returned polynomials have the
        same arity with the chosen variable's exponent zeroed out.
        """
        buckets = {}
        for mono, c in self.terms.items():
            e = mono[var]
            rest = tuple(0 if i == var else x for i, x in enumerate(mono))
            buckets.setdefault(e, {})[rest] = c
        return {e: Poly(self.nvars, terms) for e, terms in buckets.items()}

    def max_abs_coefficient(self):
        if not self.terms:
            return Fraction(0)
        return max(abs(c) for c in self.terms.values())

    def to_string(self, names):
        """Deterministic human-readable rendering."""
        monos = sorted(self.terms, key=lambda m: (-sum(m), tuple(-e for e in m)))
        return term_sum((self.terms[m], monomial_string(m, names)) for m in monos)

    def __repr__(self):
        names = [f"x{i}" for i in range(self.nvars)]
        return f"Poly({self.to_string(names)})"


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


def poly_equal_up_to_scale(a, b):
    """Whether a == r * b for a single nonzero rational r. Zero matches zero."""
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    if set(a.terms) != set(b.terms):
        return False
    mono = next(iter(a.terms))
    ratio = a.terms[mono] / b.terms[mono]
    return all(c == ratio * b.terms[m] for m, c in a.terms.items())


# ---------------------------------------------------------------------------
# univariate helpers: dense coefficient lists, ascending order, Fraction or
# int entries (the resultant path keeps to ints)


def utrim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def udeg(coeffs):
    return len(utrim(coeffs)) - 1


def ueval(coeffs, x):
    total = 0 if isinstance(x, (int, Fraction)) else 0j
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
    c = utrim([Fraction(v) for v in coeffs])
    if not c:
        return []
    denom = lcm(*(v.denominator for v in c))
    return _primitive([v.numerator * (denom // v.denominator) for v in c])


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
    coprimality test modulo a prime, then a primitive pseudo-remainder
    sequence if that test does not settle it.
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


def _gcd_int(f, g):
    """The primitive gcd of two trimmed integer lists with a positive
    leading coefficient ([] when both are zero).

    [1] when f and g are coprime modulo the first prime of _PRIMES that
    divides neither leading coefficient: their gcd's leading coefficient
    divides both, so its image keeps its degree and divides both images,
    and gcd 1 mod p proves coprimality (Brown, JACM 18, 1971). Otherwise a
    primitive pseudo-remainder sequence.
    """
    if f and g:
        p = next((p for p in _PRIMES if f[-1] % p and g[-1] % p), 0)
        if p and _coprime_mod(f, g, p):
            return [1]
    f, g = _primitive(f), _primitive(g)
    if len(f) < len(g):
        f, g = g, f
    while g:
        f, g = g, _primitive(_prem(f, g))
    return f if not f or f[-1] > 0 else [-c for c in f]


def _coprime_mod(f, g, p):
    """Whether f and g, whose leading coefficients p does not divide, are
    coprime modulo the prime p: Euclid's algorithm over GF(p)."""
    a, b = [c % p for c in f], [c % p for c in g]
    while len(b) > 1:
        inv, db = pow(b[-1], -1, p), len(b) - 1
        while len(a) > db:
            q = a.pop() * inv % p
            shift = len(a) - db
            a[shift:] = [(u - q * v) % p for u, v in zip(a[shift:], b)]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return len(b) == 1


def udivexact(a, b):
    """a / b for dense lists when b divides a, by long division.

    Each quotient of leading coefficients stays an int when it divides
    exactly, as it always does for a primitive integer b (Gauss's lemma);
    other data gets Fraction entries.
    """
    r = utrim(a)
    db = len(b) - 1
    q = [0] * (len(r) - db)
    for k in range(len(q) - 1, -1, -1):
        qk = q[k] = _exact_quotient(r[k + db], b[-1])
        if qk:
            for i in range(db):
                r[k + i] -= qk * b[i]
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
    multiplicity k or becomes one. Yun's steps run on the rest, with
    primitive gcds and exact quotients. Scaling a gcd by a constant scales
    the next b and c alike, so d = c - b' and every factor are the rational
    algorithm's up to a constant.
    """
    f = _primitive(coeffs)
    k = next((i for i, c in enumerate(f) if c), 0)
    f = f[k:]
    parts = {}  # multiplicity -> factor
    if len(f) > 1:
        fp = uderiv(f)
        a = _gcd_int(f, fp)
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

    Newton divided differences, exact. A quotient stays an int whenever the
    division is exact, so the values of an integer polynomial at integer nodes
    are interpolated in ints throughout; other data gets Fraction entries.
    """
    xs = [_exact(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    n = len(points)
    coef = [_exact(y) for _, y in points]
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


def _exact(v):
    """An int for an integral value, a Fraction otherwise."""
    if isinstance(v, int):
        return v
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def _exact_quotient(num, den):
    if type(num) is int and type(den) is int:
        q, r = divmod(num, den)
        if not r:
            return q
    return _exact(Fraction(num) / den)


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


def line_restriction(p, line):
    """p on the line c + a*x + b*y = 0, as a primitive integer list.

    For b != 0 it is b**d * p(x, -(c + a*x)/b), a list in x with d the
    degree of p in y: Res_y(p, line) up to a nonzero rational factor. For
    b = 0 it is a**d * p(-c/a, y), a list in y with d the degree of p in x:
    Res_x(p, line) up to such a factor. The line's denominators are cleared
    first, and Horner's rule runs over the rows of p in the substituted
    variable. The empty list means the line is a component of p.
    """
    var = 1 if line[2] else 0
    den = lcm(*(v.denominator for v in line))
    c, k, m = (line[i].numerator * (den // line[i].denominator) for i in (0, 2 - var, 1 + var))
    _, rows = _primitive_rows(p, var)
    out, scale = rows[-1], 1
    for row in reversed(rows[:-1]):
        scale *= m
        out = _usub([scale * r for r in row], umul(out, [c, k]))
    return _primitive(out)


def bivariate_resultant(f, g, eliminate):
    """Sylvester resultant of two bivariate polynomials, exactly.

    Eliminates variable ``eliminate`` (0 or 1) and returns the resultant as a
    dense ascending list of Fraction coefficients in the other variable: the
    determinant of the Sylvester matrix of f and g sized by their generic
    degrees d1, d2 in the eliminated variable.
    """
    values, scale = _chain_values(f, g, eliminate)
    return [scale * c for c in uinterpolate([v[:2] for v in values])]


def bivariate_subresultants(f, g, eliminate):
    """(res, s10, s11): the resultant and the first subresultant s11*v + s10
    of f and g in the eliminated variable v (see usubresultants_int), up to
    positive rational factors, as dense ascending integer lists."""
    values, _ = _chain_values(f, g, eliminate)
    return tuple(uinterpolate([(v[0], v[k]) for v in values]) for k in (1, 2, 3))


def _chain_values(f, g, eliminate):
    """(node, res, s10, s11) at enough integer nodes, and a scale.

    All the work is in Python ints. Writing f = a*F and g = b*G with
    positive rationals a, b and primitive integer F, G, the chain runs on
    F and G at the nodes 0, 1, -1, 2, ..., and Res(f, g) = scale * Res(F, G)
    with scale = a**d2 * b**d1 (d1, d2 the degrees in v). Nodes where a
    leading coefficient of F or G vanishes are skipped; at every other node
    the chain's determinants are those of the generic-size Sylvester
    matrices, so interpolants are unchanged. If neither f nor g involves v,
    res is 1 and the first subresultant 0.
    """
    if f.nvars != 2 or g.nvars != 2:
        raise ValueError("resultants here are bivariate only")
    fscale, frows = _primitive_rows(f, eliminate)
    gscale, grows = _primitive_rows(g, eliminate)
    d1 = len(frows) - 1
    d2 = len(grows) - 1
    if d1 == 0 and d2 == 0:
        return [(0, 1, 0, 0)], Fraction(1)
    bound = _degree_bound(frows, grows)

    values = []
    for t in _integer_nodes():
        fvals = [ueval(row, t) for row in frows]
        gvals = [ueval(row, t) for row in grows]
        if fvals[-1] and gvals[-1]:
            res, s1 = usubresultants_int(fvals, gvals)
            values.append((t, res, *s1, *[0] * (2 - len(s1))))
            if len(values) > bound:
                break
    return values, fscale ** d2 * gscale ** d1


def _degree_bound(frows, grows):
    """A bound on the degrees of the resultant and first subresultant of
    the rows' polynomials, in the kept variable.

    For a slope b, row i of f has degree at most c_f - b*i where
    c_f = max(deg row_i + b*i), and likewise for g. A term of the Sylvester
    determinant defining S_j takes d2 - j rows of f and d1 - j of g whose
    indices add up to d1*d2 for j = 0, and to d1*d2 - 2 + t for the
    coefficient of v**t in S_1; that bounds its degree. Over b each bound
    is least at b = 0 or at the slope between two rows of f or of g. Where
    f or g stands in for S_1 (one of them lacks v), its rows bound it.
    """
    d1, d2 = len(frows) - 1, len(grows) - 1
    points = [[(i, len(r) - 1) for i, r in enumerate(rows) if r] for rows in (frows, grows)]
    slopes = {(0, 1)} | {(k - l, j - i) for pts in points for i, k in pts for j, l in pts if j > i}

    def at(p, q, j):
        """The bound at slope b = p/q, in integers: q*c_f is max(q*deg + p*i)."""
        cf, cg = (max(q * k + p * i for i, k in pts) for pts in points)
        indices = d1 * d2 if j == 0 else d1 * d2 - 2 + (p < 0)
        return ((d2 - j) * cf + (d1 - j) * cg - p * indices) // q

    subresultants = (0, 1) if min(d1, d2) >= 1 else (0,)
    return max(*(min(at(p, q, j) for p, q in slopes) for j in subresultants),
               *(k for pts in points for _, k in pts))


def _integer_nodes():
    """0, 1, -1, 2, -2, ..."""
    yield 0
    v = 1
    while True:
        yield v
        yield -v
        v += 1


def _primitive_rows(p, var):
    """Split p into a positive rational content and primitive integer rows.

    Returns (content, rows) with p = content * sum(rows[e](t) * x**e), where x
    is variable ``var``, t the other variable, and rows[e] the dense ascending
    integer coefficient list of x**e (empty when x**e does not occur).
    """
    if p.is_zero():
        raise ValueError("resultant of a zero polynomial")
    keep = 1 - var
    # the content of reduced fractions n_i / d_i is gcd(n_i) / lcm(d_i)
    denom = lcm(*(c.denominator for c in p.terms.values()))
    content = gcd(*(c.numerator for c in p.terms.values()))
    rows = [[0] * (p.degree(keep) + 1) for _ in range(p.degree(var) + 1)]
    for mono, c in p.terms.items():
        rows[mono[var]][mono[keep]] = c.numerator * (denom // c.denominator) // content
    return Fraction(content, denom), [utrim(row) for row in rows]
