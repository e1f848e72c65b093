"""Exact arithmetic in the fraction field of Laurent polynomials."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeval.densepoly import conv, from_poly
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


# -- LaurentPoly arithmetic: one loop over BaseField operations per field ----

POLY_FIELDS = [RATIONAL, GF(2), GF(3), GF(101)]


@st.composite
def polys(draw, field, nonzero=False, max_len=5):
    """A Laurent polynomial with up to max_len terms on consecutive exponents;
    rational coefficients have small numerators and denominators."""
    lo = draw(st.integers(-3, 3))
    length = draw(st.integers(1 if nonzero else 0, max_len))
    if field.is_rational:
        coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    else:
        coeff = st.integers(0, field.p - 1)
    coeffs = draw(st.lists(coeff, min_size=length, max_size=length))
    poly = LaurentPoly(field, {lo + k: c for k, c in enumerate(coeffs)})
    if nonzero and poly.is_zero():
        poly = LaurentPoly.t_power(field, lo)
    return poly


def cleared(poly):
    """(valuation, integer coefficient list, common denominator) of a nonzero
    polynomial."""
    v, coeffs = from_poly(poly)
    den = math.lcm(*(Fraction(c).denominator for c in coeffs))
    return v, [int(c * den) for c in coeffs], den


def monic(poly):
    """The ordinary polynomial of poly (t-power stripped), scaled monic."""
    f = poly.field
    p = poly.shift(-poly.valuation())
    return p.scale(f.inv(p.coeffs[max(p.coeffs)]))


@pytest.mark.parametrize("field", POLY_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_products_match_conv(field, data):
    a = data.draw(polys(field, nonzero=True))
    b = data.draw(polys(field, nonzero=True))
    (va, la, da), (vb, lb, db) = cleared(a), cleared(b)
    out = conv(la, lb, 1)
    if field.is_rational:
        expected = {va + vb + k: Fraction(c, da * db) for k, c in enumerate(out)}
    else:
        expected = {va + vb + k: c % field.p for k, c in enumerate(out)}
    assert a * b == LaurentPoly(field, expected)
    assert (a * LaurentPoly.zero(field)).is_zero()


@pytest.mark.parametrize("field", POLY_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_divexact_inverts_products(field, data):
    a = data.draw(polys(field))
    b = data.draw(polys(field, nonzero=True))
    assert (a * b).divexact(b) == a
    if not a.is_zero():
        assert (a * b).divexact(a) == b


@pytest.mark.parametrize("field", POLY_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_inexact_division_raises(field, data):
    """a*b + c*t^k is not a multiple of b when b is no monomial: modulo b it
    is c*t^k, and t is a unit modulo b."""
    a = data.draw(polys(field, nonzero=True))
    b = data.draw(polys(field, nonzero=True))
    if b.is_monomial():
        b = b + b.shift(1)
    k = data.draw(st.integers(-4, 4))
    c = field.one if field.is_rational else data.draw(st.integers(1, field.p - 1))
    with pytest.raises(ValueError):
        (a * b + LaurentPoly.t_power(field, k, c)).divexact(b)


@pytest.mark.parametrize("field", POLY_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gcd_of_common_multiples(field, data):
    a = data.draw(polys(field, nonzero=True, max_len=4))
    b = data.draw(polys(field, max_len=4))
    g = data.draw(polys(field, nonzero=True, max_len=3))
    d = poly_gcd(a * g, b * g)
    assert d.valuation() == 0 and d.coeffs[max(d.coeffs)] == field.one
    d.divexact(g)  # raises unless g divides d
    assert poly_gcd(b * g, a * g) == d


@pytest.mark.parametrize("field", POLY_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gcd_of_coprime_pairs_is_one(field, data):
    """a and a*q + c*t^k share no factor but units, so the gcd is 1, and the
    gcd of their multiples by g is monic(g)."""
    one = LaurentPoly.one(field)
    a = data.draw(polys(field, nonzero=True))
    q = data.draw(polys(field))
    k = data.draw(st.integers(-4, 4))
    c = field.one if field.is_rational else data.draw(st.integers(1, field.p - 1))
    b = a * q + LaurentPoly.t_power(field, k, c)
    assert poly_gcd(a, b) == one
    assert poly_gcd(b, a) == one
    g = data.draw(polys(field, nonzero=True, max_len=3))
    assert poly_gcd(a * g, b * g) == monic(g)
