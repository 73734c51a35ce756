import random
from fractions import Fraction

import pytest

from toricsing.rationals import (
    GaussianRational,
    gaussian_nth_root,
    gaussian_sqrt,
)


def gr(x, y=0):
    return GaussianRational(x, y)


def test_field_axioms_spotcheck():
    rng = random.Random(3)
    for _ in range(200):
        a = gr(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        b = gr(rng.randint(-9, 9), rng.randint(-9, 9))
        assert a + b == b + a
        assert a * b == b * a
        assert a - a == gr(0)
        if not b.is_zero():
            assert (a / b) * b == a
    assert gr(0, 1) * gr(0, 1) == gr(-1)


def test_int_and_fraction_keys_find_equal_values():
    # equal values hash equally, so dict and set lookups agree with ==
    for key, value in ((1, gr(1)), (-3, gr(-3)), (Fraction(1, 2), gr("1/2")),
                       (Fraction(-7, 3), gr(Fraction(-7, 3)))):
        assert value == key
        assert {key: "x"}.get(value) == "x"
        assert {value: "x"}.get(key) == "x"
        assert value in {key} and key in {value}
    assert {gr(1, 1): "x"}.get(gr(1, 1)) == "x"
    assert {1: "x"}.get(gr(1, 1)) is None


def test_powers_including_negative():
    z = gr(Fraction(1, 2), 1)
    assert z ** 0 == gr(1)
    assert z ** 3 == z * z * z
    assert z ** -2 == gr(1) / (z * z)


def test_string_roundtrip():
    samples = [
        gr(0), gr(5), gr(-3), gr(Fraction(2, 7)),
        gr(0, 1), gr(0, -1), gr(0, Fraction(5, 3)),
        gr(1, 1), gr(1, -1), gr(Fraction(-1, 2), Fraction(3, 4)),
        gr(-2, -2),
    ]
    for z in samples:
        assert GaussianRational.from_string(str(z)) == z


def test_from_string_forms():
    assert GaussianRational.from_string("2+3*i") == gr(2, 3)
    assert GaussianRational.from_string("1/2") == gr(Fraction(1, 2))
    assert GaussianRational.from_string("-i") == gr(0, -1)
    assert GaussianRational.from_string("i") == gr(0, 1)
    assert GaussianRational.from_string("7/2*i") == gr(0, Fraction(7, 2))
    with pytest.raises(ValueError):
        GaussianRational.from_string("2x")


def test_gaussian_sqrt():
    # 2i = (1+i)^2
    assert gaussian_sqrt(gr(0, 2)) in (gr(1, 1), gr(-1, -1))
    assert gaussian_sqrt(gr(Fraction(9, 4))) == gr(Fraction(3, 2))
    assert gaussian_sqrt(gr(-4)) in (gr(0, 2), gr(0, -2))
    assert gaussian_sqrt(gr(2)) is None
    assert gaussian_sqrt(gr(0, 1)) is None  # sqrt(i) is not in Q(i)
    rng = random.Random(7)
    for _ in range(100):
        w = gr(rng.randint(-6, 6), rng.randint(-6, 6))
        s = gaussian_sqrt(w * w)
        assert s is not None and s * s == w * w


def test_gaussian_nth_root():
    assert gaussian_nth_root(gr(8), 3) == gr(2)
    assert gaussian_nth_root(gr(-8), 3) == gr(-2)
    assert gaussian_nth_root(gr(16), 4) in (gr(2), gr(-2))
    r = gaussian_nth_root(gr(0, -8), 2)
    assert r is not None and r * r == gr(0, -8)
    assert gaussian_nth_root(gr(2), 2) is None


def test_nth_root_of_huge_rational_is_exact():
    # a float estimate of the root overflows (10**900) or loses the
    # digits that decide it (the other two); integer roots do neither
    assert gaussian_nth_root(gr(10 ** 900), 3) == gr(10 ** 300)
    assert gaussian_nth_root(gr(7 * 10 ** 100) ** 3, 3) == gr(7 * 10 ** 100)
    assert gaussian_nth_root(gr(Fraction(7 ** 3 * 10 ** 60, 11 ** 3)), 3) \
        == gr(Fraction(7 * 10 ** 20, 11))
    assert gaussian_nth_root(gr(-(10 ** 900)), 5) == gr(-(10 ** 180))
    assert gaussian_nth_root(gr(10 ** 900 + 1), 3) is None
    assert gaussian_nth_root(gr(Fraction(8, 10 ** 900 + 1)), 3) is None


def test_power_by_square_and_multiply(monkeypatch):
    base = gr(Fraction(2, 3), -1)
    for e in range(-8, 21):
        want = gr(1)
        for _ in range(abs(e)):
            want = want * base
        if e < 0:
            want = gr(1) / want
        assert base ** e == want
    # c**7 = c * c^2 * c^4: two squarings and two products
    calls = []
    original = GaussianRational.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(GaussianRational, "__mul__", counting)
    base ** 7
    assert len(calls) == 4
    calls.clear()
    base ** 1
    base ** -1
    assert calls == []
