"""Exact Gaussian-rational arithmetic.

A GaussianRational is a complex number (a + b*i)/d with Python integers a,
b and d. Every value is normalized when it is built: d > 0 and
gcd(a, b, d) = 1, so each element of Q(i) has exactly one triple and
equality is a comparison of triples. The real and imaginary parts are
read as Fractions through the ``re`` and ``im`` properties. This is the
coefficient field for every polynomial in the library; no floating point
is used anywhere.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


class GaussianRational:
    """An element of Q(i), with exact arithmetic."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            # over d = lcm of the two reduced denominators the triple is
            # already normalized: no gcd of a, b and d is needed
            re, im = _as_fraction(re), _as_fraction(im)
            p, q = re.numerator, re.denominator
            r, s = im.numerator, im.denominator
            d = q * s // gcd(q, s)
            a, b = p * (d // q), r * (d // s)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_string(text: str) -> "GaussianRational":
        """Parse 'a', 'a/b', 'a+b*i', 'a-b*i', 'b*i', 'i', '-i'.

        Whitespace is ignored. Raises ValueError on malformed input.
        """
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty coefficient")
        m = re.fullmatch(
            r"(?P<re>(?P<a>[+-]?\d+)(?:/(?P<q>\d+))?)?"
            r"(?P<im>(?P<sign>[+-]|(?<=^))(?:(?P<b>\d+)(?:/(?P<t>\d+))?\*)?i)?",
            s,
        )
        if not m or (m["re"] is None and m["im"] is None):
            raise ValueError(f"malformed Gaussian rational: {text!r}")
        a, q = int(m["a"] or 0), int(m["q"] or 1)
        b, t = (int(m["b"] or 1), int(m["t"] or 1)) if m["im"] else (0, 1)
        for num, den in ((a, q), (b, t)):
            if den == 0:  # as Fraction(text) raises
                raise ZeroDivisionError(f"Fraction({num}, 0)")
        return _reduced(a * t, (-b if m["sign"] == "-" else b) * q, q * t)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, d1 = self._a, self._b, self._d
        a2, b2, d2 = o
        if d1 == d2:
            return _reduced(a1 + a2, b1 + b2, d1)
        return _reduced(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, d1 = self._a, self._b, self._d
        a2, b2, d2 = o
        if d1 == d2:
            return _reduced(a1 - a2, b1 - b2, d1)
        return _reduced(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _make(*o) - self

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, d1 = self._a, self._b, self._d
        a2, b2, d2 = o
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, d1 = self._a, self._b, self._d
        a2, b2, d2 = o
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i)/(a2^2 + b2^2)
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                        d1 * n)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _make(*o) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent == 0:
            return GaussianRational(1)
        base = self
        if exponent < 0:
            base = GaussianRational(1) / self
            exponent = -exponent
        # square-and-multiply from the lowest set bit, with no squaring
        # after the last one
        result = None
        while True:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if not exponent:
                return result
            base = base * base

    def norm(self) -> Fraction:
        """The field norm re^2 + im^2 (a nonnegative rational)."""
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o[0] and self._b == o[1] and self._d == o[2]

    def __hash__(self):
        # a real value hashes as the int or Fraction a/d that it equals
        return hash(Fraction(self._a, self._d) if self._b == 0
                    else (self._a, self._b, self._d))

    # -- rendering -------------------------------------------------------

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        im_text = f"{abs(im)}*i" if abs(im) != 1 else "i"
        sign = "+" if im > 0 else "-"
        if re == 0:
            return im_text if im > 0 else f"-{im_text}"
        return f"{re}{sign}{im_text}"


_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b*i)/d from a triple that is already normalized."""
    z = object.__new__(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b*i)/d for any d > 0, normalized."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _make(a, b, d)


def _coerce(x):
    """The normalized triple of an operand, or None for a foreign type."""
    if isinstance(x, GaussianRational):
        return x._a, x._b, x._d
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def _fraction_sqrt(q: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def gaussian_sqrt(z: GaussianRational):
    """A square root of z inside Q(i), or None if no such root exists."""
    if z.is_zero():
        return GaussianRational(0)
    if z.im == 0:
        r = _fraction_sqrt(z.re)
        if r is not None:
            return GaussianRational(r)
        r = _fraction_sqrt(-z.re)
        if r is not None:
            return GaussianRational(0, r)
        return None
    # w = c + d*i with c^2 - d^2 = re, 2cd = im requires |z| rational.
    mod = _fraction_sqrt(z.norm())
    if mod is None:
        return None
    c2 = (z.re + mod) / 2
    c = _fraction_sqrt(c2)
    if c is None or c == 0:
        return None
    d = z.im / (2 * c)
    return GaussianRational(c, d)


def gaussian_nth_root(z: GaussianRational, n: int):
    """Some n-th root of z in Q(i), or None.

    Exact for n in {1, 2} and for rational z; otherwise higher n is
    attempted by iterated square roots and a small search over Gaussian
    integers, which is enough for the lattice indices that occur in
    practice.
    """
    if n <= 0:
        raise ValueError("root order must be positive")
    if n == 1:
        return z
    if z.is_zero():
        return GaussianRational(0)
    if n == 2:
        return gaussian_sqrt(z)
    if n % 2 == 0:
        s = gaussian_sqrt(z)
        if s is not None:
            r = gaussian_nth_root(s, n // 2)
            if r is not None:
                return r
            return gaussian_nth_root(-s, n // 2)
        return None
    a, b, d = z._a, z._b, z._d
    if b == 0:
        # for odd n the only n-th root of a rational inside Q(i) is real;
        # gcd(a, d) = 1, so it exists iff |a| and d are n-th powers
        ra, rd = _integer_root(abs(a), n), _integer_root(d, n)
        if ra is None or rd is None:
            return None
        return _make(ra if a > 0 else -ra, 0, rd)
    for re_part in range(-2, 3):
        for im_part in range(-2, 3):
            cand = GaussianRational(re_part, im_part)
            if not cand.is_zero() and cand ** n == z:
                return cand
    return None


def _integer_root(x: int, n: int):
    """The integer r >= 0 with r**n == x, or None (x >= 0, n >= 1).

    Newton's iteration on integers, as in math.isqrt: the start 2**k with
    k = ceil(bits(x)/n) is above the root, and every step stays at or
    above floor(x ** (1/n)) until it stops decreasing.
    """
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            break
        r = s
    return r if r ** n == x else None
