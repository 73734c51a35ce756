"""Univariate polynomials over an exact field, and rational functions.

The coefficient field is duck-typed: anything supporting +, -, *, /, ==,
is_zero() works. Two fields are used in practice: GaussianRational, and
RationalFunction over GaussianRational (for the transcendental family
parameter). Polynomials are coefficient lists with no trailing zeros.
"""
from __future__ import annotations

from .rationals import GaussianRational

_GR_ZERO = GaussianRational(0)
_GR_ONE = GaussianRational(1)


def _is_zero(c) -> bool:
    if hasattr(c, "is_zero"):
        return c.is_zero()
    return c == 0


class Poly:
    """A dense univariate polynomial over an exact field."""

    __slots__ = ("coeffs", "zero", "one")

    def __init__(self, coeffs, zero=_GR_ZERO, one=_GR_ONE):
        cs = list(coeffs)
        while cs and _is_zero(cs[-1]):
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "one", one)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def constant(c, zero=_GR_ZERO, one=_GR_ONE):
        return Poly([c], zero, one)

    @staticmethod
    def variable(zero=_GR_ZERO, one=_GR_ONE):
        return Poly([zero, one], zero, one)

    # -- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def leading(self):
        if self.is_zero():
            return self.zero
        return self.coeffs[-1]

    def constant_term(self):
        return self.coeffs[0] if self.coeffs else self.zero

    def term_count(self) -> int:
        return sum(0 if _is_zero(c) else 1 for c in self.coeffs)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.leading()
        return Poly([c / lead for c in self.coeffs], self.zero, self.one)

    # -- arithmetic ------------------------------------------------------

    def _wrap(self, coeffs):
        return Poly(coeffs, self.zero, self.one)

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else self.zero
            b = other.coeffs[i] if i < len(other.coeffs) else self.zero
            out.append(a + b)
        return self._wrap(out)

    def __sub__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else self.zero
            b = other.coeffs[i] if i < len(other.coeffs) else self.zero
            out.append(a - b)
        return self._wrap(out)

    def __neg__(self):
        return self._wrap([self.zero - c for c in self.coeffs])

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return self._wrap([])
        out = [self.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if _is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return self._wrap(out)

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        return Poly.constant(other, self.zero, self.one)

    def scale(self, c) -> "Poly":
        return self._wrap([x * c for x in self.coeffs])

    def shift(self, k: int) -> "Poly":
        """Multiply by the k-th power of the variable."""
        if self.is_zero():
            return self
        return self._wrap([self.zero] * k + list(self.coeffs))

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [self.zero] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree()
        lead = other.leading()
        while len(rem) - 1 >= d and rem:
            k = len(rem) - 1 - d
            f = rem[-1] / lead
            quo[k] = f
            for i, b in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - f * b
            while rem and _is_zero(rem[-1]):
                rem.pop()
        return self._wrap(quo), self._wrap(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def derivative(self) -> "Poly":
        out = [c * i for i, c in enumerate(self.coeffs[1:], start=1)]
        return self._wrap(out)

    def evaluate(self, x):
        acc = self.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]})"


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the coefficient field (Euclid)."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


class RationalFunction:
    """An element of the fraction field of GaussianRational[t].

    Normalized so the denominator is monic and gcd(num, den) = 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            num = Poly.constant(_coerce_gr(num))
        if den is None:
            den = Poly.constant(GaussianRational(1))
        elif not isinstance(den, Poly):
            den = Poly.constant(_coerce_gr(den))
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Poly.constant(GaussianRational(1))
        else:
            # a constant denominator has gcd 1 with any numerator
            g = gcd(num, den) if den.degree() >= 1 else den
            if g.degree() >= 1:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lead = den.leading()
            num = num.scale(GaussianRational(1) / lead)
            den = den.scale(GaussianRational(1) / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def variable():
        return RationalFunction(Poly([GaussianRational(0), GaussianRational(1)]))

    @staticmethod
    def constant(c):
        return RationalFunction(Poly.constant(_coerce_gr(c)))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other):
        o = _coerce_rf(other)
        return RationalFunction(
            self.num * o.den + o.num * self.den, self.den * o.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce_rf(other)
        return RationalFunction(
            self.num * o.den - o.num * self.den, self.den * o.den
        )

    def __rsub__(self, other):
        return _coerce_rf(other) - self

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other):
        o = _coerce_rf(other)
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce_rf(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return _coerce_rf(other) / self

    def __pow__(self, e: int):
        if e == 0:
            return RationalFunction.constant(1)
        if e < 0:
            return RationalFunction.constant(1) / (self ** (-e))
        out = RationalFunction.constant(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def evaluate(self, t0: GaussianRational) -> GaussianRational:
        d = self.den.evaluate(t0)
        if d.is_zero():
            raise ZeroDivisionError("denominator vanishes at the sample point")
        return self.num.evaluate(t0) / d

    def __eq__(self, other):
        o = _coerce_rf(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"


def _coerce_gr(c):
    if isinstance(c, GaussianRational):
        return c
    return GaussianRational(c)


def _coerce_rf(c):
    if isinstance(c, RationalFunction):
        return c
    if isinstance(c, Poly):
        return RationalFunction(c)
    return RationalFunction.constant(c)
