"""Exact arithmetic in the fraction field of Laurent polynomials."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeval.scalars import (
    GF,
    RATIONAL,
    BaseField,
    LaurentPoly,
    ValuedScalar,
    poly_gcd,
)

INF = float("inf")


def vs(pairs, den_pairs=None, field=RATIONAL):
    num = LaurentPoly(field, {e: field.from_int(c) for e, c in pairs})
    den = None
    if den_pairs is not None:
        den = LaurentPoly(field, {e: field.from_int(c) for e, c in den_pairs})
    return ValuedScalar(num, den)


def test_base_field_modes():
    assert RATIONAL.is_rational
    f5 = GF(5)
    assert f5.inv(2) == 3
    assert f5.add(3, 4) == 2
    assert RATIONAL.inv(Fraction(2)) == Fraction(1, 2)
    assert RATIONAL.sign(Fraction(-3)) == -1
    with pytest.raises(ValueError):
        f5.sign(2)
    with pytest.raises(ValueError):
        BaseField(6)


def test_prime_modulus_validation():
    trial = [p for p in range(2, 3000) if all(p % q for q in range(2, int(p**0.5) + 1))]
    accepted = []
    for p in range(-2, 3000):
        try:
            BaseField(p)
        except ValueError:
            continue
        accepted.append(p)
    assert accepted == trial
    # Strong pseudoprimes to small bases, a Carmichael number, and primes
    # too large for trial division.
    for composite in (2047, 561, 3215031751, 3825123056546413051, (2**31 - 1) ** 2):
        with pytest.raises(ValueError):
            BaseField(composite)
    assert BaseField(2**61 - 1).p == 2**61 - 1
    assert BaseField(2**64 - 59).p == 2**64 - 59
    for too_large in (2**64 + 13, 10**400 + 1):
        with pytest.raises(ValueError, match="below 2\\^64"):
            BaseField(too_large)


def test_valuation_basics():
    assert vs([]).valuation() == INF
    assert vs([(0, 1)]).valuation() == 0
    assert vs([(-2, 3), (5, 1)]).valuation() == -2
    assert vs([(0, 1)], [(1, 1), (0, 1)]).valuation() == 0
    assert vs([(2, 1)], [(0, 1), (1, -1)]).valuation() == 2


def test_canonical_equality():
    # (1 - t^2)/(1 + t) == 1 - t structurally after reduction.
    a = vs([(0, 1), (2, -1)], [(0, 1), (1, 1)])
    b = vs([(0, 1), (1, -1)])
    assert a == b
    assert hash(a) == hash(b)
    # Denominator scaling is normalized away.
    c = vs([(0, 2)], [(0, 2), (1, 4)])
    d = vs([(0, 1)], [(0, 1), (1, 2)])
    assert c == d


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        vs([(0, 1)], [])
    with pytest.raises(ZeroDivisionError):
        vs([]).invert()


def test_gcd_reduction():
    f = RATIONAL
    x = LaurentPoly(f, {0: Fraction(1), 1: Fraction(1)})
    y = LaurentPoly(f, {0: Fraction(1), 2: Fraction(-1)})
    g = poly_gcd(y, x)
    assert g == x  # 1 + t divides 1 - t^2


def test_series_truncate():
    # 1/(1-t) = 1 + t + t^2 + ...
    s = vs([(0, 1)], [(0, 1), (1, -1)])
    trunc = s.series_truncate(4)
    assert trunc.coeffs == {e: Fraction(1) for e in range(4)}
    # Truncation below the valuation is empty.
    assert vs([(3, 1)]).series_truncate(2).is_zero()


def test_leading_coefficient():
    s = vs([(1, 6), (3, 5)], [(0, 2)])
    assert s.leading_coefficient() == Fraction(3)
    with pytest.raises(ValueError):
        vs([]).leading_coefficient()


@st.composite
def scalars(draw, field=RATIONAL):
    lo = draw(st.integers(-2, 0))
    hi = draw(st.integers(0, 2))
    num = {e: field.from_int(draw(st.integers(-4, 4))) for e in range(lo, hi + 1)}
    den = {e: field.from_int(draw(st.integers(-4, 4))) for e in range(0, draw(st.integers(0, 2)) + 1)}
    den_poly = LaurentPoly(field, den)
    if den_poly.is_zero():
        den_poly = LaurentPoly.one(field)
    return ValuedScalar(LaurentPoly(field, num), den_poly)


@settings(max_examples=150, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms_rational(a, b, c):
    zero = ValuedScalar.zero(RATIONAL)
    one = ValuedScalar.one(RATIONAL)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a + b) * c == a * c + b * c
    assert a - a == zero
    if not a.is_zero():
        assert a * a.invert() == one
        assert (b / a) * a == b


@settings(max_examples=100, deadline=None)
@given(scalars(GF(5)), scalars(GF(5)))
def test_field_axioms_prime(a, b):
    assert a + b == b + a
    assert a * b == b * a
    if not b.is_zero():
        assert (a / b) * b == a


def test_ultrametric_inequality():
    rng = random.Random(0)
    for _ in range(200):
        coeffs = lambda: {e: Fraction(rng.randint(-3, 3)) for e in range(-2, 3)}
        a = ValuedScalar(LaurentPoly(RATIONAL, coeffs()))
        b = ValuedScalar(LaurentPoly(RATIONAL, coeffs()))
        assert (a + b).valuation() >= min(a.valuation(), b.valuation())
        assert (a * b).valuation() == a.valuation() + b.valuation()


def test_monomial_products_match_generic_path():
    rng = random.Random(1)
    for _ in range(100):
        e = rng.randint(-3, 3)
        mono = ValuedScalar.t_power(RATIONAL, e, Fraction(rng.randint(1, 4)))
        s = vs(
            [(i, rng.randint(-3, 3)) for i in range(-1, 2)],
            [(0, 1), (1, rng.randint(-2, 2))],
        )
        via_fast = s * mono
        via_slow = ValuedScalar(s.num * mono.num, s.den * mono.den)
        assert via_fast == via_slow
