"""Exact arithmetic in the Laurent field F((t)) and its fraction closure.

Scalars are fractions of finitely supported Laurent polynomials over a base
field F, which is either the rationals or a prime field F_p.  Every scalar has
an exactly computable valuation (lowest t-exponent of its series expansion)
and leading coefficient; there is no floating point, and series are truncated
only at a proven exact bound (see ``truncated``).
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

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if p >= 1 << 64:
                raise ValueError("modulus must be below 2^64")
            if not _is_prime(p):
                raise ValueError(f"modulus must be prime, got {p}")
        self.p = p

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def from_int(self, k):
        if self.p is None:
            return Fraction(k)
        return k % self.p

    @property
    def zero(self):
        return Fraction(0) if self.p is None else 0

    @property
    def one(self):
        return Fraction(1) if self.p is None else 1

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
            s = f.add(out.get(e, f.zero), c)
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly(f, out)

    def __neg__(self) -> "LaurentPoly":
        f = self.field
        return LaurentPoly(f, {e: f.neg(c) for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        f = self.field
        if f.is_rational and len(self.coeffs) > 1 and len(other.coeffs) > 1:
            return self._mul_rational(other)
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = f.add(out.get(e, f.zero), f.mul(c1, c2))
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPoly(f, out)

    def _mul_rational(self, other: "LaurentPoly") -> "LaurentPoly":
        """Convolution with denominators cleared, so the inner loop runs over
        machine integers instead of fractions."""
        da = math.lcm(*(c.denominator for c in self.coeffs.values()))
        db = math.lcm(*(c.denominator for c in other.coeffs.values()))
        a = {e: int(c * da) for e, c in self.coeffs.items()}
        b = {e: int(c * db) for e, c in other.coeffs.items()}
        out: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        den = da * db
        return LaurentPoly(
            self.field,
            {e: Fraction(c, den) for e, c in out.items() if c},
        )

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
        if f.is_rational:
            return self._divexact_rational(other)
        vs, vo = self.valuation(), other.valuation()
        a = {e - vs: c for e, c in self.coeffs.items()}
        b = {e - vo: c for e, c in other.coeffs.items()}
        db = max(b)
        inv_lead = f.inv(b[db])
        quot: dict = {}
        while a:
            da = max(a)
            if da < db:
                raise ValueError("inexact polynomial division")
            q = f.mul(a[da], inv_lead)
            quot[da - db] = q
            for e, c in b.items():
                k = e + da - db
                s = f.sub(a.get(k, f.zero), f.mul(c, q))
                if s:
                    a[k] = s
                else:
                    a.pop(k, None)
        return LaurentPoly(f, {e + vs - vo: c for e, c in quot.items()})

    def _divexact_rational(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division over the rationals via integer pseudo-division:
        clear denominators, run the remainder loop over machine integers, and
        restore the scale factors at the end."""
        vs, vo = self.valuation(), other.valuation()
        da = math.lcm(*(c.denominator for c in self.coeffs.values()))
        db = math.lcm(*(c.denominator for c in other.coeffs.values()))
        a = {e - vs: int(c * da) for e, c in self.coeffs.items()}
        b = {e - vo: int(c * db) for e, c in other.coeffs.items()}
        dega, degb = max(a), max(b)
        if dega < degb:
            raise ValueError("inexact polynomial division")
        lb = b[degb]
        quot: dict = {}
        # Invariant after s steps: lb^s * a0 = quot * b + a.
        steps_left = dega - degb + 1
        while a:
            d = max(a)
            if d < degb:
                raise ValueError("inexact polynomial division")
            c = a[d]
            for k in quot:
                quot[k] *= lb
            quot[d - degb] = quot.get(d - degb, 0) + c
            nxt = {k: v * lb for k, v in a.items()}
            for k, v in b.items():
                kk = k + d - degb
                s = nxt.get(kk, 0) - c * v
                if s:
                    nxt[kk] = s
                else:
                    nxt.pop(kk, None)
            a = nxt
            steps_left -= 1
        # Bring the quotient to the uniform scale lb^(dega-degb+1).
        extra = lb ** steps_left
        den = lb ** (dega - degb + 1) * da
        return LaurentPoly(
            self.field,
            {
                k + vs - vo: Fraction(v * extra * db, den)
                for k, v in quot.items()
                if v
            },
        )

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
        a, b = b, _poly_mod(a, b)
    if a.is_zero():
        return a
    return a.scale(f.inv(a.coeffs[max(a.coeffs)]))


def _gcd_rational(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Primitive-PRS gcd over Z (avoids Fraction coefficient blowup)."""
    pa, pb = _primitive_int(a), _primitive_int(b)
    if pa and pb and _coprime_mod_p(pa, pb):
        return LaurentPoly.one(a.field)
    while pb:
        pa, pb = pb, _primitive(_pseudo_rem(pa, pb))
    if not pa:
        return LaurentPoly.zero(a.field)
    lead = pa[-1]
    return LaurentPoly(a.field, {e: Fraction(c, lead) for e, c in enumerate(pa) if c})


_GCD_PRIMES = (2147483647, 2147483629, 2147483587)


def _coprime_mod_p(a: list[int], b: list[int]) -> bool:
    """True if the integer polynomials are provably coprime over Q: for a
    prime p not dividing either leading coefficient, deg gcd(a, b) over Q is
    at most deg gcd(a mod p, b mod p), so a constant modular gcd certifies
    coprimality.  False means unknown (the caller falls back to the PRS)."""
    for p in _GCD_PRIMES:
        if a[-1] % p == 0 or b[-1] % p == 0:
            continue
        ra = [c % p for c in a]
        rb = [c % p for c in b]
        while rb and any(rb):
            lead_inv = pow(rb[-1], p - 2, p)
            db = len(rb) - 1
            while len(ra) - 1 >= db:
                coef = ra[-1] * lead_inv % p
                for i in range(db + 1):
                    ra[len(ra) - 1 - db + i] = (ra[len(ra) - 1 - db + i] - coef * rb[i]) % p
                while ra and ra[-1] == 0:
                    ra.pop()
                if not ra:
                    break
            ra, rb = rb, ra
        return len(ra) == 1
    return False


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


def _poly_mod(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    f = a.field
    rem = dict(a.coeffs)
    db = max(b.coeffs)
    inv_lead = f.inv(b.coeffs[db])
    while rem and max(rem) >= db:
        da = max(rem)
        q = f.mul(rem[da], inv_lead)
        for e, c in b.coeffs.items():
            k = e + da - db
            s = f.sub(rem.get(k, f.zero), f.mul(c, q))
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return LaurentPoly(f, rem)


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
