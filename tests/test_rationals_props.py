"""Property tests of GaussianRational against a pair-of-Fractions model.

The model is the value as (re, im) Fractions; its renderer is the
rendering of the Fraction-pair class this one replaced, so the reports
built from these strings stay byte-identical.
"""
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from toricsing.rationals import GaussianRational

# applied to each test, so the settings of other Hypothesis tests stay as
# they are
reproducible = settings(max_examples=100, deadline=None, derandomize=True,
                        database=None)

small = st.integers(-50, 50)
big = st.integers(-(10 ** 30), 10 ** 30)
fractions = st.builds(Fraction, small | big,
                      st.integers(1, 60) | st.integers(1, 10 ** 20))
parts = small | fractions
values = st.builds(lambda re, im: (Fraction(re), Fraction(im)), parts, parts)
operands = st.one_of(small.map(int), fractions)  # int and Fraction operands


def gr(model):
    return GaussianRational(*model)


def m_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def m_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def m_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def m_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n,
            (x[1] * y[0] - x[0] * y[1]) / n)


def m_pow(x, e):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(e)):
        out = m_mul(out, x)
    return m_div((Fraction(1), Fraction(0)), out) if e < 0 else out


def m_str(x):
    re, im = x
    if im == 0:
        return str(re)
    s = f"{abs(im)}*i" if abs(im) != 1 else "i"
    sign = "+" if im > 0 else "-"
    if re == 0:
        return s if im > 0 else f"-{s}"
    return f"{re}{sign}{s}"


def m_repr(x):
    return f"GaussianRational({x[0]!r}, {x[1]!r})"


def agrees(z, model):
    return z.re == model[0] and z.im == model[1]


def normalized(z):
    return z._d > 0 and gcd(z._a, z._b, z._d) == 1


@reproducible
@given(values, values)
def test_field_operations_agree_with_model(x, y):
    zx, zy = gr(x), gr(y)
    for z, model in ((zx + zy, m_add(x, y)), (zx - zy, m_sub(x, y)),
                     (zx * zy, m_mul(x, y)), (-zx, (-x[0], -x[1]))):
        assert agrees(z, model) and normalized(z)
    if any(y):
        q = zx / zy
        assert agrees(q, m_div(x, y)) and normalized(q)


@reproducible
@given(values, operands)
def test_int_and_fraction_operands(x, c):
    z, m = gr(x), (Fraction(c), Fraction(0))
    for got, model in ((z + c, m_add(x, m)), (c + z, m_add(m, x)),
                       (z - c, m_sub(x, m)), (c - z, m_sub(m, x)),
                       (z * c, m_mul(x, m)), (c * z, m_mul(m, x))):
        assert agrees(got, model) and normalized(got)
    if c:
        assert agrees(z / c, m_div(x, m))
    if any(x):
        assert agrees(c / z, m_div(m, x))


@reproducible
@given(values, st.integers(-6, 6))
def test_powers_agree_with_model(x, e):
    if e < 0 and not any(x):
        with pytest.raises(ZeroDivisionError):
            gr(x) ** e
        return
    z = gr(x) ** e
    assert agrees(z, m_pow(x, e)) and normalized(z)


@reproducible
@given(values, values)
def test_equality_and_hash(x, y):
    zx, zy = gr(x), gr(y)
    assert (zx == zy) == (x == y)
    assert (zx != zy) == (x != y)
    if zx == zy:
        assert hash(zx) == hash(zy)
    # a real value equals the Fraction of its real part, so it hashes as one
    if x[1] == 0:
        assert hash(zx) == hash(x[0])


@reproducible
@given(values, operands)
def test_equality_and_hash_with_int_and_fraction(x, c):
    z = gr(x)
    equal = x == (Fraction(c), Fraction(0))
    assert (z == c) == equal and (c == z) == equal
    assert (z != c) == (not equal)
    as_gr = GaussianRational(c)
    assert as_gr == c and as_gr == GaussianRational(Fraction(c))
    assert hash(as_gr) == hash(GaussianRational(Fraction(c)))
    assert hash(as_gr) == hash(c)


@reproducible
@given(values)
def test_constructor_normalizes(x):
    z = gr(x)
    assert normalized(z) and agrees(z, x)
    assert isinstance(z.re, Fraction) and isinstance(z.im, Fraction)
    from_str = GaussianRational(str(x[0]), str(x[1]))
    assert from_str == z and normalized(from_str)


@reproducible
@given(values)
def test_rendering_and_norm_match_model(x):
    z = gr(x)
    assert str(z) == m_str(x)
    assert repr(z) == m_repr(x)
    assert z.norm() == x[0] * x[0] + x[1] * x[1]
    assert isinstance(z.norm(), Fraction)
    assert GaussianRational.from_string(str(z)) == z


@reproducible
@given(values)
def test_immutable(x):
    z = gr(x)
    for attr in ("re", "im", "_a", "_b", "_d", "other"):
        with pytest.raises(AttributeError):
            setattr(z, attr, 1)
    assert agrees(z, x)


@reproducible
@given(values)
def test_zero_division(x):
    z = gr(x)
    for zero in (0, Fraction(0), GaussianRational(0)):
        with pytest.raises(ZeroDivisionError):
            z / zero
    with pytest.raises(ZeroDivisionError):
        x[0] / GaussianRational(0)
    with pytest.raises(ZeroDivisionError):
        GaussianRational(0) ** -1


def test_constructor_rejects_other_types():
    for bad in (1.5, 1j, None, [1]):
        with pytest.raises(TypeError):
            GaussianRational(bad)
        with pytest.raises(TypeError):
            GaussianRational(0, bad)
    assert GaussianRational(1).__eq__(1.0) is NotImplemented
    assert GaussianRational(1).__add__(1.0) is NotImplemented


def _fraction_from_string(text):
    """The value of a coefficient string as the parser read it when it went
    through Fraction(str): the reference for the integer parser."""
    import re
    s = text.replace(" ", "")
    m = re.fullmatch(r"(?P<re>[+-]?\d+(?:/\d+)?)?"
                     r"(?P<im>(?:[+-]|(?<=^))(?:\d+(?:/\d+)?\*)?i)?", s)
    if not s or not m or (m.group("re") is None and m.group("im") is None):
        raise ValueError(text)
    re_part = Fraction(m.group("re")) if m.group("re") else Fraction(0)
    im_part = Fraction(0)
    if m.group("im"):
        body = m.group("im").lstrip("+-")[:-1].rstrip("*")
        im_part = Fraction(body) if body else Fraction(1)
        if m.group("im").startswith("-"):
            im_part = -im_part
    return re_part, im_part


def _digits(draw, lo):
    return draw(st.sampled_from(["", "0", "00"])) + str(
        draw(st.integers(lo, 10 ** 25) | st.integers(lo, 60)))


@st.composite
def coefficient_strings(draw):
    """Every shape from_string accepts: unreduced fractions, leading
    zeros, explicit signs, a bare or scaled i, and spaces anywhere."""
    def ratio():
        den = "/" + _digits(draw, 1) if draw(st.booleans()) else ""
        return _digits(draw, 0) + den

    real = draw(st.sampled_from(["", "+", "-"])) + ratio() \
        if draw(st.booleans()) else ""
    imag = ""
    if not real or draw(st.booleans()):
        sign = draw(st.sampled_from(["+", "-"] + ([""] if not real else [])))
        imag = sign + (ratio() + "*" if draw(st.booleans()) else "") + "i"
    text = real + imag
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(text)))
        text = text[:k] + " " + text[k:]
    return text


@reproducible
@given(coefficient_strings())
def test_from_string_agrees_with_fraction_parsing(text):
    z = GaussianRational.from_string(text)
    assert agrees(z, _fraction_from_string(text)) and normalized(z)


@reproducible
@given(values)
def test_from_string_inverts_str(x):
    z = gr(x)
    assert GaussianRational.from_string(str(z)) == z


MALFORMED = ["", " ", "2x", "x", "2i", "i2", "*i", "2**i", "i*i", "2*i*i",
             "1/", "/2", "1//2", "++1", "+-1", "1+", "1-", "1+2", "1.5",
             "1e3", "1_000", "0x10", "(1)", "1+i+i", "1*i+2", "1/2/3",
             "\t1", "1\n"]


def test_from_string_rejects_malformed_strings():
    for text in MALFORMED:
        with pytest.raises(ValueError):
            _fraction_from_string(text)  # rejected before, too
        with pytest.raises(ValueError):
            GaussianRational.from_string(text)
    for text in ("1/0", "-3/0+i", "2+1/0*i", "-0/0*i"):
        with pytest.raises(ZeroDivisionError) as new:
            GaussianRational.from_string(text)
        with pytest.raises(ZeroDivisionError) as old:
            _fraction_from_string(text)
        assert str(new.value) == str(old.value)
