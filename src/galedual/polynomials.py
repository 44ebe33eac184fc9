"""Sparse multivariate polynomials over exact rationals.

Just enough arithmetic for this package: ring operations, exact and complex
evaluation, derivatives, and the univariate helpers (gcd, squarefree
decomposition, interpolation, integer subresultants) behind the bivariate
resultant the solver needs.
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

    def eval_complex(self, point):
        total = 0j
        for mono, c in self.terms.items():
            v = complex(c)
            for x, e in zip(point, mono):
                if e:
                    v *= complex(x) ** e
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
        if not self.terms:
            return "0"
        monos = sorted(self.terms, key=lambda m: (-sum(m), tuple(-e for e in m)))
        parts = []
        for mono in monos:
            c = self.terms[mono]
            factors = []
            for name, e in zip(names, mono):
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                text = str(abs(c))
            elif abs(c) == 1:
                text = body
            else:
                text = f"{abs(c)}*{body}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, text))
        first_sign, first_text = parts[0]
        out = ("-" if first_sign == "-" else "") + first_text
        for sign, text in parts[1:]:
            out += f" {sign} {text}"
        return out

    def __repr__(self):
        names = [f"x{i}" for i in range(self.nvars)]
        return f"Poly({self.to_string(names)})"


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


def udivmod(a, b):
    """Exact field division with remainder."""
    a = utrim(a)
    b = utrim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = [Fraction(c) for c in a]
    inv = 1 / Fraction(b[-1])
    while len(r) >= len(b):
        factor = r[-1] * inv
        shift = len(r) - len(b)
        q[shift] = factor
        for i, cb in enumerate(b):
            r[shift + i] -= factor * cb
        r = utrim(r)
        if not r:
            break
    return utrim(q), r


def _int_content(coeffs):
    return gcd(*coeffs) or 1


def _to_int_primitive(coeffs):
    """Clear denominators and divide out integer content."""
    c = utrim([Fraction(v) for v in coeffs])
    if not c:
        return []
    denom = lcm(*(v.denominator for v in c))
    ints = [v.numerator * (denom // v.denominator) for v in c]
    content = _int_content(ints)
    return [v // content for v in ints]


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
    """Monic gcd over Q via a primitive pseudo-remainder sequence.

    Taking primitive parts between steps keeps integer coefficient growth
    manageable; the result is normalized monic so gcds are canonical.
    """
    f = _to_int_primitive(a)
    g = _to_int_primitive(b)
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = _prem(f, g)
        f, g = g, _to_int_primitive(r)
    if not f:
        return []
    lead = Fraction(f[-1])
    return [Fraction(c) / lead for c in f]


def usquarefree(coeffs):
    """Yun's squarefree decomposition over Q.

    Returns [(factor, multiplicity), ...] with monic squarefree factors of
    positive degree, multiplicities ascending, and
    product(factor^multiplicity) equal to the input up to a constant.
    """
    f = utrim([Fraction(c) for c in coeffs])
    if udeg(f) < 1:
        return []
    fp = uderiv(f)
    a = ugcd(f, fp)
    b, _ = udivmod(f, a)
    c, _ = udivmod(fp, a)
    d = utrim([x - y for x, y in _pad(c, uderiv(b))])
    out = []
    mult = 1
    while udeg(b) >= 1:
        g = ugcd(b, d)
        if udeg(g) >= 1:
            out.append((g, mult))
        b, _ = udivmod(b, g)
        c_next, _ = udivmod(d, g)
        d = utrim([x - y for x, y in _pad(c_next, uderiv(b))])
        mult += 1
    return out


def _pad(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return zip(a, b)


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
        for i in range(n - 1, level - 1, -1):
            coef[i] = _exact_quotient(coef[i] - coef[i - 1], xs[i] - xs[i - level])
    # expand the Newton form into dense coefficients
    poly = [0]
    basis = [1]
    for i in range(n):
        for j, b in enumerate(basis):
            if len(poly) <= j:
                poly.append(0)
            poly[j] += coef[i] * b
        basis = umul(basis, [-xs[i], 1])
    return utrim(poly)


def _exact(v):
    """An int for an integral value, a Fraction otherwise."""
    if isinstance(v, int):
        return v
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def _exact_quotient(num, den):
    if isinstance(num, int) and isinstance(den, int):
        q, r = divmod(num, den)
        if not r:
            return q
    return _exact(Fraction(num) / den)


def uresultant_int(a, b):
    """Resultant of two integer polynomials given as dense ascending lists.

    Collins' subresultant algorithm (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 3.3.7): O(deg a * deg b) integer operations,
    and every division in it is exact. The degrees are those of the trimmed
    lists; a zero operand gives 0.
    """
    a = utrim(a)
    b = utrim(b)
    if not a or not b:
        return 0
    da, db = len(a) - 1, len(b) - 1
    if da == 0:
        return a[0] ** db
    if db == 0:
        return b[0] ** da
    ca, cb = _int_content(a), _int_content(b)
    a = [c // ca for c in a]
    b = [c // cb for c in b]
    content = ca ** db * cb ** da
    sign = 1
    if da < db:
        a, b, da, db = b, a, db, da
        if da & db & 1:
            sign = -1
    g = h = 1
    while db > 0:
        delta = da - db
        if da & db & 1:
            sign = -sign
        r = _prem(a, b)
        if not r:
            return 0
        divisor = g * h ** delta
        a, b = b, [c // divisor for c in r]
        da, db = db, len(b) - 1
        g = a[-1]
        if delta:
            h = g ** delta // h ** (delta - 1)
    return sign * content * (b[0] ** da // h ** (da - 1))


def bivariate_resultant(f, g, eliminate):
    """Sylvester resultant of two bivariate polynomials, exactly.

    Eliminates variable ``eliminate`` (0 or 1) and returns the resultant as a
    dense ascending list of Fraction coefficients in the other variable: the
    determinant of the Sylvester matrix of f and g sized by their generic
    degrees d1, d2 in the eliminated variable.

    All the work is in Python ints. Writing f = a*F and g = b*G with positive
    rationals a, b and primitive integer F, G gives
    Res(f, g) = a**d2 * b**d1 * Res(F, G). Res(F, G) is interpolated from its
    values at the integer nodes 0, 1, -1, 2, ..., each one univariate
    subresultant computation. Nodes where a leading coefficient of F or G
    vanishes are skipped; at every other node the univariate resultant is the
    generic-size Sylvester determinant, so the interpolant is unchanged.
    """
    if f.nvars != 2 or g.nvars != 2:
        raise ValueError("resultants here are bivariate only")
    fscale, frows = _primitive_rows(f, eliminate)
    gscale, grows = _primitive_rows(g, eliminate)
    d1 = len(frows) - 1
    d2 = len(grows) - 1
    if d1 == 0 and d2 == 0:
        return [Fraction(1)]
    deg_keep_f = max(len(row) for row in frows) - 1
    deg_keep_g = max(len(row) for row in grows) - 1
    bound = d1 * deg_keep_g + d2 * deg_keep_f

    values = []
    for t in _integer_nodes():
        fvals = [ueval(row, t) for row in frows]
        gvals = [ueval(row, t) for row in grows]
        if fvals[-1] and gvals[-1]:
            values.append((t, uresultant_int(fvals, gvals)))
            if len(values) > bound:
                break
    scale = fscale ** d2 * gscale ** d1
    return [scale * c for c in uinterpolate(values)]


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
