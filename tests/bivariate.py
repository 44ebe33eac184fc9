"""A builder of bivariate test polynomials.

Q is a polynomial in x and y with Fraction coefficients, a dict from
exponent pairs (i, j) to nonzero coefficients in the order they were first
met. It supports +, -, * and ** with other Qs and with numbers, so test
inputs and references read as formulas. ``.int()`` gives the IntPoly the
solver takes, the same polynomial up to a positive factor, and ``Q.of``
turns an IntPoly back into a Q.
"""

from fractions import Fraction
from math import lcm

from galedual.polynomials import IntPoly


class Q:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for mono, c in (terms or {}).items():
            if len(mono) != 2 or min(mono) < 0:
                raise ValueError(f"{mono} is not a monomial in x and y")
            total = self.terms.get(mono, 0) + Fraction(c)
            if total:
                self.terms[mono] = total
            else:
                self.terms.pop(mono, None)

    @classmethod
    def of(cls, p):
        return cls(p.terms)

    def int(self):
        den = lcm(*(c.denominator for c in self.terms.values()))
        return IntPoly({m: int(c * den) for m, c in self.terms.items()})

    def __eq__(self, other):
        return self.terms == _lift(other).terms

    __hash__ = None

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in _lift(other).terms.items():
            out[m] = out.get(m, 0) + c
        return Q(out)

    __radd__ = __add__

    def __neg__(self):
        return Q({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -_lift(other)

    def __rsub__(self, other):
        return _lift(other) - self

    def __mul__(self, other):
        out = {}
        for (a, b), c in self.terms.items():
            for (i, j), d in _lift(other).terms.items():
                out[a + i, b + j] = out.get((a + i, b + j), 0) + c * d
        return Q(out)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        out = Q({(0, 0): 1})
        for _ in range(exponent):
            out = out * self
        return out

    def __call__(self, x, y):
        return sum(c * Fraction(x) ** i * Fraction(y) ** j for (i, j), c in self.terms.items())

    def degree(self, var=None):
        """Total degree, or the degree in x (var 0) or y (var 1); -1 for zero."""
        return max((i + j if var is None else (i, j)[var] for i, j in self.terms), default=-1)

    def derivative(self, var):
        return Q({(i - (var == 0), j - (var == 1)): c * (i, j)[var]
                  for (i, j), c in self.terms.items() if (i, j)[var]})

    def coefficients_in(self, var):
        """{e: the coefficient of x**e (var 0) or y**e (var 1), a Q in the other variable}."""
        out = {}
        for (i, j), c in self.terms.items():
            e = (i, j)[var]
            out.setdefault(e, {})[(0, j) if var == 0 else (i, 0)] = c
        return {e: Q(terms) for e, terms in out.items()}


def _lift(value):
    return value if isinstance(value, Q) else Q({(0, 0): value})


x = Q({(1, 0): 1})
y = Q({(0, 1): 1})


def ints(*polys):
    """The IntPolys of some Qs."""
    return tuple(p.int() for p in polys)


def same_up_to_scale(p, q):
    """Whether IntPolys p and q are one polynomial up to a nonzero factor."""
    return p.terms in (q.terms, {m: -c for m, c in q.terms.items()})
