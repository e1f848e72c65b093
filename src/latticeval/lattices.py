"""Lattices: full-rank modules over F[[t]] inside the Laurent vector space.

A lattice is stored through its unique canonical basis: a lower-triangular
column-echelon form whose pivots are pure powers t^{d_i} on the diagonal, with
every other entry in a pivot's row reduced modulo t^{d_i}.  Its entries are
Laurent polynomials (``basis``, a tuple of columns), so every operation here
stays polynomial: a division by a pivot is a shift.  ``ValuedScalar`` is
needed only for a generator entry with a denominator, which
``truncated.canonical_basis`` clears column by column; JSON entries without
one are read as Laurent polynomials.  It also appears in the ``columns`` view
(a fresh tuple of wrappers built on each access and never stored) and in
``solve``, ``basis_inverse`` and ``transform``, which no library operation
calls.

Equal modules have equal canonical bases, so each lattice carries ``key``, a
tuple of plain ints built once: (n, p, then per entry its sorted (exponent,
coefficient) pairs, a coefficient over Q being its numerator and
denominator).  Equality and hashing are one tuple comparison.

``dual`` is an involution, so each lattice remembers its dual once computed
and the dual points back to it: ``intersect``, which is the dual of the sum of
the duals, canonicalises only the sum and its dual when it meets lattices it
has met before.  The memo is a slot of the object, not a process-wide cache:
it lives and dies with the lattice and has no bound to tune.  The reference
cycle between a lattice and its dual is freed by the cyclic garbage collector.
"""

from __future__ import annotations

from .densepoly import forward_substitute, from_poly, to_poly
from .scalars import BaseField, LaurentPoly, ValuedScalar
from .truncated import SingularMatrixError, canonical_basis, polynomial_column

Column = tuple[LaurentPoly, ...]


def _entry_key(poly: LaurentPoly, rational: bool) -> tuple:
    if rational:
        return tuple(sorted((k, c.numerator, c.denominator) for k, c in poly.coeffs.items()))
    return tuple(sorted(poly.coeffs.items()))


def _integral(columns) -> bool:
    return all(e.valuation() >= 0 for col in columns for e in col)


class Lattice:
    """Immutable lattice; two instances are equal iff the modules coincide."""

    __slots__ = ("n", "field", "basis", "pivots", "key", "_hash", "_below", "_dual")

    def __init__(self, n: int, field: BaseField, basis: tuple[Column, ...]):
        self.n = n
        self.field = field
        self.basis = basis
        # Diagonal exponents d_i of the canonical pivots t^{d_i}.
        self.pivots = tuple(min(basis[i][i].coeffs) for i in range(n))
        rational = field.p is None
        self.key = (n, field.p, tuple(_entry_key(e, rational) for col in basis for e in col))
        self._hash = None
        # Row i of the basis left of its pivot as densepoly pairs, built on
        # the first call to ``pair_coordinates``.
        self._below = None
        # The dual lattice, set by the first call to ``dual`` on either side.
        self._dual = None

    @classmethod
    def from_columns(cls, columns) -> "Lattice":
        """Canonical lattice generated by exactly n independent columns."""
        n = len(columns[0])
        if len(columns) != n:
            raise ValueError("from_columns expects a square generator matrix")
        return cls.from_generators(columns, n)

    @classmethod
    def from_generators(cls, columns, n: int) -> "Lattice":
        """Canonical lattice generated by any spanning set of columns, whose
        entries are ``LaurentPoly`` or ``ValuedScalar``."""
        if not columns:
            raise SingularMatrixError("no generators")
        if any(len(c) != n for c in columns):
            raise ValueError("generator length mismatch")
        return cls(n, columns[0][0].field, canonical_basis(columns, n))

    @classmethod
    def standard(cls, n: int, field: BaseField) -> "Lattice":
        """The elementary lattice spanned by the unit vectors over F[[t]]."""
        if n < 1:
            raise ValueError("rank must be positive")
        return cls(n, field, _unit_columns(n, field))

    @property
    def columns(self) -> tuple[tuple[ValuedScalar, ...], ...]:
        """The canonical basis as ``ValuedScalar`` columns, built afresh."""
        return tuple(tuple(ValuedScalar(e) for e in col) for col in self.basis)

    def unary_f(self) -> int:
        """-val(det basis); the unary determinantal valuation f^t_n."""
        return -sum(self.pivots)

    def solve(self, v) -> list[ValuedScalar]:
        """Coordinates x with basis . x = v over the fraction field, by forward
        substitution (the canonical basis is lower triangular)."""
        cols = self.columns
        x: list[ValuedScalar] = []
        for i in range(self.n):
            acc = v[i]
            for j in range(i):
                if not cols[j][i].is_zero():
                    acc = acc - cols[j][i] * x[j]
            x.append(acc / cols[i][i])
        return x

    def contains(self, v) -> bool:
        """Membership of a vector of ``ValuedScalar`` or ``LaurentPoly``
        entries.  Multiplying v by the product of its denominators, a unit,
        keeps it in or out of the lattice; then its coordinates must be
        integral."""
        if len(v) != self.n:
            raise ValueError("vector length mismatch")
        return _integral(self.coordinates([polynomial_column(v)]))

    def contains_lattice(self, other: "Lattice") -> bool:
        return _integral(self.coordinates(other.basis))

    def sum(self, *others: "Lattice") -> "Lattice":
        gens = list(self.basis)
        for m in others:
            if m.n != self.n:
                raise ValueError("rank mismatch")
            gens.extend(m.basis)
        return Lattice.from_generators(gens, self.n)

    def dual(self) -> "Lattice":
        """Dual lattice under the standard bilinear form: the inverse
        transpose, whose columns are the rows of basis^{-1}.  Computed once per
        object; since dual(dual L) = L, the result remembers L as its own dual,
        so a second call on either returns the stored lattice."""
        if self._dual is None:
            inv = self.coordinates(_unit_columns(self.n, self.field))
            d = Lattice.from_columns([[col[i] for col in inv] for i in range(self.n)])
            d._dual = self
            self._dual = d
        return self._dual

    def intersect(self, *others: "Lattice") -> "Lattice":
        """Largest common submodule, via dual(intersection) = sum of duals.
        The duals of the inputs are the ones ``dual`` stored on them, so
        intersecting lattices met before canonicalises only the sum and its
        dual."""
        return self.dual().sum(*(m.dual() for m in others)).dual()

    def scale(self, c: int) -> "Lattice":
        """The lattice t^c . L, whose canonical basis is t^c times that of L
        (pivots and reductions shift together), so nothing is recomputed."""
        return Lattice(self.n, self.field,
                       tuple(tuple(e.shift(c) for e in col) for col in self.basis))

    def coordinates(self, columns) -> list[list[LaurentPoly]]:
        """basis^{-1} . c for each column c of Laurent polynomials, by forward
        substitution.  The basis is lower triangular with pivots t^{d_i}, so
        each division by a pivot is a shift and the result stays polynomial."""
        field = self.field
        zero = LaurentPoly.zero(field)
        return [[zero if e is None else to_poly(field, e) for e in x]
                for x in self.pair_coordinates([[from_poly(e) for e in col]
                                                for col in columns])]

    def pair_coordinates(self, columns) -> list[list]:
        """``coordinates`` on columns of ``densepoly`` pairs, giving pairs."""
        if self._below is None:
            self._below = tuple(
                tuple((j, from_poly(self.basis[j][i])) for j in range(i)
                      if self.basis[j][i].coeffs)
                for i in range(self.n))
        p = self.field.p
        return [forward_substitute(self._below, self.pivots, col, p) for col in columns]

    def pair_basis(self) -> list[list]:
        """The canonical basis as columns of ``densepoly`` pairs."""
        return [[from_poly(e) for e in col] for col in self.basis]

    def basis_inverse(self) -> list[list[ValuedScalar]]:
        """basis^{-1} as a row-major matrix (lower triangular, like basis)."""
        inv_cols = self.coordinates(_unit_columns(self.n, self.field))
        return [[ValuedScalar(col[i]) for col in inv_cols] for i in range(self.n)]

    def transform(self, g: list[list[ValuedScalar]]) -> "Lattice":
        """The lattice g . L for a row-major nonsingular matrix g."""
        zero = ValuedScalar.zero(self.field)
        return Lattice.from_columns([[sum((g[i][r] * col[r] for r in range(self.n)), zero)
                                      for i in range(self.n)] for col in self.columns])

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.key == other.key

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key)
        return self._hash

    def __repr__(self):
        return f"Lattice(n={self.n}, pivots={self.pivots})"


def _unit_columns(n: int, field: BaseField) -> tuple[Column, ...]:
    one, zero = LaurentPoly.one(field), LaurentPoly.zero(field)
    return tuple(tuple(one if i == j else zero for i in range(n)) for j in range(n))


def matmul(a: list[list[ValuedScalar]], b: list[list[ValuedScalar]]) -> list[list[ValuedScalar]]:
    """Row-major product of exact matrices."""
    n, m, k = len(a), len(b[0]), len(b)
    field = a[0][0].field
    zero = ValuedScalar.zero(field)
    return [
        [sum((a[i][r] * b[r][j] for r in range(k)), zero) for j in range(m)]
        for i in range(n)
    ]


def identity_matrix(n: int, field: BaseField) -> list[list[ValuedScalar]]:
    return [list(col) for col in Lattice.standard(n, field).columns]
