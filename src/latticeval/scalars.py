"""Exact arithmetic in the Laurent field F((t)) and its fraction closure.

Scalars are fractions of finitely supported Laurent polynomials over a base
field F, which is either the rationals or a prime field F_p.  Every scalar has
an exactly computable valuation (lowest t-exponent of its series expansion)
and leading coefficient; there is no floating point, and series are truncated
only at a proven exact bound (see ``truncated``).

Each ``LaurentPoly`` operation is one loop over ``BaseField`` operations,
shared by Q and F_p.  The one rational-only piece is the primitive PRS gcd
(Brown 1971) that ``poly_gcd`` uses over Q to reduce fractions without
coefficient growth.  The library's hot paths run on the ``truncated`` and
``densepoly`` kernels; this module carries input fractions and the reference
implementations that the tests compare those kernels against.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the bases 2..37, which is deterministic for n < 2^64."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class BaseField:
    """The coefficient field: rationals (p is None) or integers mod a prime."""

    __slots__ = ("p", "zero", "one")

    def __init__(self, p: int | None = None):
        if p is not None:
            if p >= 1 << 64:
                raise ValueError("modulus must be below 2^64")
            if not _is_prime(p):
                raise ValueError(f"modulus must be prime, got {p}")
        self.p = p
        self.zero = Fraction(0) if p is None else 0
        self.one = Fraction(1) if p is None else 1

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def from_int(self, k):
        if self.p is None:
            return Fraction(k)
        return k % self.p

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero in base field")
        if self.p is None:
            return 1 / a
        return pow(a, self.p - 2, self.p)

    def sign(self, a) -> int:
        """Sign predicate; only the rational mode is ordered."""
        if self.p is not None:
            raise ValueError("prime fields have no order; sign is undefined")
        return (a > 0) - (a < 0)

    def format(self, a) -> str:
        return str(a)

    def parse(self, s: str):
        if self.p is None:
            return Fraction(s)
        return int(s) % self.p

    def __eq__(self, other):
        return isinstance(other, BaseField) and self.p == other.p

    def __hash__(self):
        return hash(("BaseField", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


RATIONAL = BaseField()


def GF(p: int) -> BaseField:
    return BaseField(p)


class LaurentPoly:
    """A finitely supported Laurent polynomial; zero is the empty support."""

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field: BaseField, coeffs: dict):
        self.field = field
        self.coeffs = {e: c for e, c in coeffs.items() if c}
        self._hash = None

    @classmethod
    def zero(cls, field: BaseField) -> "LaurentPoly":
        return cls(field, {})

    @classmethod
    def one(cls, field: BaseField) -> "LaurentPoly":
        return cls(field, {0: field.one})

    @classmethod
    def t_power(cls, field: BaseField, e: int, coeff=None) -> "LaurentPoly":
        c = field.one if coeff is None else coeff
        return cls(field, {e: c})

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    def valuation(self):
        """Lowest exponent, or +inf for the zero polynomial."""
        return min(self.coeffs) if self.coeffs else INF

    def leading_coefficient(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[min(self.coeffs)]

    def coefficient(self, e: int):
        return self.coeffs.get(e, self.field.zero)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        f = self.field
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = f.add(out.get(e, f.zero), c)
        return LaurentPoly(f, out)

    def __neg__(self) -> "LaurentPoly":
        f = self.field
        return LaurentPoly(f, {e: f.neg(c) for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        f = self.field
        add, mul, zero = f.add, f.mul, f.zero
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = add(out.get(e, zero), mul(c1, c2))
        return LaurentPoly(f, out)

    def scale(self, c) -> "LaurentPoly":
        f = self.field
        return LaurentPoly(f, {e: f.mul(v, c) for e, v in self.coeffs.items()})

    def shift(self, k: int) -> "LaurentPoly":
        return LaurentPoly(self.field, {e + k: c for e, c in self.coeffs.items()})

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises if the division leaves a remainder."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(self.field)
        f = self.field
        vs, vo = self.valuation(), other.valuation()
        rem = {e - vs: c for e, c in self.coeffs.items()}
        quot = _divide(rem, {e - vo: c for e, c in other.coeffs.items()}, f)
        if rem:
            raise ValueError("inexact polynomial division")
        return LaurentPoly(f, {e + vs - vo: c for e, c in quot.items()})

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, frozenset(self.coeffs.items())))
        return self._hash

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = [f"({self.field.format(c)})*t^{e}" for e, c in sorted(self.coeffs.items())]
        return " + ".join(parts)


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd of the ordinary-polynomial parts (t-powers stripped first)."""
    f = a.field
    a = a.shift(-a.valuation()) if not a.is_zero() else a
    b = b.shift(-b.valuation()) if not b.is_zero() else b
    if f.is_rational:
        return _gcd_rational(a, b)
    while not b.is_zero():
        rem = dict(a.coeffs)
        _divide(rem, b.coeffs, f)
        a, b = b, LaurentPoly(f, rem)
    if a.is_zero():
        return a
    return a.scale(f.inv(a.coeffs[max(a.coeffs)]))


def _gcd_rational(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Primitive-PRS gcd over Z (avoids Fraction coefficient blowup)."""
    pa, pb = _primitive_int(a), _primitive_int(b)
    while pb:
        pa, pb = pb, _primitive(_pseudo_rem(pa, pb))
    if not pa:
        return LaurentPoly.zero(a.field)
    lead = pa[-1]
    return LaurentPoly(a.field, {e: Fraction(c, lead) for e, c in enumerate(pa) if c})


def _primitive_int(p: LaurentPoly) -> list[int]:
    """Integer coefficient list (ascending degree) of a rational poly, made
    primitive; empty list for zero."""
    if p.is_zero():
        return []
    deg = max(p.coeffs)
    lcm = 1
    for c in p.coeffs.values():
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(p.coeffs.get(e, Fraction(0)) * lcm) for e in range(deg + 1)]
    return _primitive(ints)


def _primitive(ints: list[int]) -> list[int]:
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return []
    g = 0
    for c in ints:
        g = math.gcd(g, c)
    return [c // g for c in ints]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of integer polynomials (ascending coefficient lists)."""
    a = a[:]
    db = len(b) - 1
    lb = b[-1]
    while len(a) - 1 >= db and a:
        da = len(a) - 1
        coef = a[-1]
        a = [c * lb for c in a]
        for i, bc in enumerate(b):
            a[da - db + i] -= coef * bc
        while a and a[-1] == 0:
            a.pop()
    return a


def _divide(rem: dict, b: dict, f: BaseField) -> dict:
    """Long division by the nonzero b, as ordinary polynomials in t: returns
    the quotient and leaves the remainder in ``rem``."""
    sub, mul, zero = f.sub, f.mul, f.zero
    db = max(b)
    inv_lead = f.inv(b[db])
    quot: dict = {}
    while rem and max(rem) >= db:
        da = max(rem)
        q = mul(rem[da], inv_lead)
        quot[da - db] = q
        for e, c in b.items():
            k = e + da - db
            s = sub(rem.get(k, zero), mul(c, q))
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return quot


class ValuedScalar:
    """An element of the fraction field of Laurent polynomials, kept canonical.

    The canonical form divides out the polynomial gcd, pushes the net t-power
    into the numerator, and normalizes the denominator's lowest coefficient
    to 1, so equality of values is structural equality.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        field = num.field
        if den is None:
            den = LaurentPoly.one(field)
        if den.is_zero():
            raise ZeroDivisionError("scalar with zero denominator")
        if num.is_zero():
            self.num = LaurentPoly.zero(field)
            self.den = LaurentPoly.one(field)
        elif den.coeffs == {0: field.one}:
            self.num = num
            self.den = den
        else:
            vn, vd = num.valuation(), den.valuation()
            n0 = num.shift(-vn)
            d0 = den.shift(-vd)
            g = poly_gcd(n0, d0)
            if g.coeffs != {0: field.one}:
                n0 = n0.divexact(g)
                d0 = d0.divexact(g)
            c = field.inv(d0.coefficient(0))
            self.num = n0.scale(c).shift(vn - vd)
            self.den = d0.scale(c)
        self._hash = None

    @classmethod
    def _reduced(cls, num: LaurentPoly, den: LaurentPoly) -> "ValuedScalar":
        """Canonicalize a fraction already known to be in lowest terms
        (skips the gcd step of the full constructor)."""
        out = cls.__new__(cls)
        field = num.field
        if num.is_zero():
            out.num = num
            out.den = LaurentPoly.one(field)
        elif den.coeffs == {0: field.one}:
            out.num = num
            out.den = den
        else:
            vn, vd = num.valuation(), den.valuation()
            d0 = den.shift(-vd)
            c = field.inv(d0.coefficient(0))
            out.num = num.scale(c).shift(-vd)
            out.den = d0.scale(c)
        out._hash = None
        return out

    @classmethod
    def zero(cls, field: BaseField) -> "ValuedScalar":
        return cls(LaurentPoly.zero(field))

    @classmethod
    def one(cls, field: BaseField) -> "ValuedScalar":
        return cls(LaurentPoly.one(field))

    @classmethod
    def from_int(cls, field: BaseField, k: int) -> "ValuedScalar":
        return cls(LaurentPoly(field, {0: field.from_int(k)}))

    @classmethod
    def t_power(cls, field: BaseField, e: int, coeff=None) -> "ValuedScalar":
        return cls(LaurentPoly.t_power(field, e, coeff))

    @property
    def field(self) -> BaseField:
        return self.num.field

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def valuation(self):
        """val(num) - val(den); +inf exactly for the zero scalar."""
        if self.num.is_zero():
            return INF
        return self.num.valuation() - self.den.valuation()

    def leading_coefficient(self):
        """Coefficient of t^valuation in the series expansion."""
        if self.is_zero():
            raise ValueError("zero scalar has no leading coefficient")
        f = self.field
        return f.mul(self.num.leading_coefficient(), f.inv(self.den.leading_coefficient()))

    def __add__(self, other: "ValuedScalar") -> "ValuedScalar":
        if self.den == other.den:
            return ValuedScalar(self.num + other.num, self.den)
        f = self.field
        if self.den.coeffs == {0: f.one}:
            return ValuedScalar._reduced(self.num * other.den + other.num, other.den)
        if other.den.coeffs == {0: f.one}:
            return ValuedScalar._reduced(self.num + other.num * self.den, self.den)
        g = poly_gcd(self.den, other.den)
        if g.coeffs == {0: f.one}:
            # Coprime reduced denominators: the sum is already in lowest terms.
            return ValuedScalar._reduced(
                self.num * other.den + other.num * self.den,
                self.den * other.den,
            )
        q1 = self.den.divexact(g)
        q2 = other.den.divexact(g)
        return ValuedScalar(self.num * q2 + other.num * q1, self.den * q2)

    def __sub__(self, other: "ValuedScalar") -> "ValuedScalar":
        return self + (-other)

    def __neg__(self) -> "ValuedScalar":
        return ValuedScalar(-self.num, self.den)

    def __mul__(self, other: "ValuedScalar") -> "ValuedScalar":
        # A monomial factor cannot create a common divisor, so renormalizing
        # without a gcd is safe in that case.
        if other._is_monomial_unit():
            ((e, c),) = other.num.coeffs.items()
            return ValuedScalar._reduced(self.num.scale(c).shift(e), self.den)
        if self._is_monomial_unit():
            ((e, c),) = self.num.coeffs.items()
            return ValuedScalar._reduced(other.num.scale(c).shift(e), other.den)
        return ValuedScalar(self.num * other.num, self.den * other.den)

    def _is_monomial_unit(self) -> bool:
        return self.num.is_monomial() and self.den.coeffs == {0: self.field.one}

    def invert(self) -> "ValuedScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        return ValuedScalar._reduced(self.den, self.num)

    def __truediv__(self, other: "ValuedScalar") -> "ValuedScalar":
        return self * other.invert()

    def series_truncate(self, bound: int) -> LaurentPoly:
        """The series expansion of this scalar, keeping exponents < bound."""
        if self.is_zero():
            return LaurentPoly.zero(self.field)
        f = self.field
        vn = self.num.valuation()
        order = bound - vn
        if order <= 0:
            return LaurentPoly.zero(f)
        # Denominator has lowest coefficient 1 at exponent 0; invert as a series.
        d = self.den.coeffs
        inv = [f.one]
        for k in range(1, order):
            s = f.zero
            for e, c in d.items():
                if 1 <= e <= k:
                    s = f.add(s, f.mul(c, inv[k - e]))
            inv.append(f.neg(s))
        out: dict = {}
        for e, c in self.num.coeffs.items():
            for k, ic in enumerate(inv):
                ee = e + k
                if ee >= bound:
                    continue
                s = f.add(out.get(ee, f.zero), f.mul(c, ic))
                if s:
                    out[ee] = s
                else:
                    out.pop(ee, None)
        return LaurentPoly(f, out)

    def is_integral(self) -> bool:
        """True iff this scalar lies in the valuation ring (valuation >= 0)."""
        return self.is_zero() or self.valuation() >= 0

    def __eq__(self, other):
        return (
            isinstance(other, ValuedScalar)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __repr__(self):
        if self.den.coeffs == {0: self.field.one}:
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"
