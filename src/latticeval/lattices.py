"""Lattices: full-rank modules over F[[t]] inside the Laurent vector space.

A lattice is stored through its unique canonical basis: a lower-triangular
column-echelon form whose pivots are pure powers t^{d_i} on the diagonal, with
every other entry in a pivot's row reduced modulo t^{d_i}.  Its entries are
``densepoly`` pairs (``basis``, a tuple of n columns of n pairs or None), the
representation that ``truncated``, ``detval``, ``metric``, the apartment
search and the close case all work on, so every operation here stays
polynomial and no entry changes representation: a division by a pivot is a
shift of the pair's valuation.  ``LaurentPoly`` and ``ValuedScalar`` columns
are accepted by ``from_generators`` and ``from_columns``, which convert each
such column once (``truncated.polynomial_column``), and are built on request
by ``poly_basis`` and ``columns``, views made afresh on each access and never
stored; ``solve``, ``basis_inverse`` and ``transform`` also work on them, and
no library operation calls those.

Equal modules have equal canonical bases, so each lattice carries ``key``, a
tuple of plain ints built once from the pairs: (n, p, then per entry its
valuation and coefficients, or () for zero, a coefficient over Q being its
numerator and denominator).  Equality and hashing are one tuple comparison.

``dual`` is an involution, so each lattice remembers its dual once computed
and the dual points back to it: ``intersect``, which is the dual of the sum of
the duals, canonicalises only the sum and its dual when it meets lattices it
has met before.  The memo is a slot of the object, not a process-wide cache:
it lives and dies with the lattice and has no bound to tune.  The reference
cycle between a lattice and its dual is freed by the cyclic garbage collector.
``closecase.residue_subspace`` keeps its results the same way, in a slot
keyed by the base lattice.
"""

from __future__ import annotations

from functools import reduce
from operator import add

from .densepoly import forward_substitute, shift, to_poly
from .scalars import BaseField, LaurentPoly, ValuedScalar
from .truncated import SingularMatrixError, canonical_basis, column_field, polynomial_column

# A column of n ``densepoly`` pairs (v, coefficients), None for zero.
Column = tuple


def _entry_key(pair, rational: bool) -> tuple:
    if pair is None:
        return ()
    if rational:
        return (pair[0], *[x for c in pair[1] for x in (c.numerator, c.denominator)])
    return (pair[0], *pair[1])


def _integral(columns) -> bool:
    return all(e is None or e[0] >= 0 for col in columns for e in col)


class Lattice:
    """Immutable lattice; two instances are equal iff the modules coincide."""

    __slots__ = ("n", "field", "basis", "pivots", "key", "_hash", "_below", "_dual",
                 "_residues")

    def __init__(self, n: int, field: BaseField, basis: tuple[Column, ...]):
        self.n = n
        self.field = field
        self.basis = basis
        # Diagonal exponents d_i of the canonical pivots t^{d_i}.
        self.pivots = tuple(basis[i][i][0] for i in range(n))
        rational = field.p is None
        self.key = (n, field.p, tuple(_entry_key(e, rational) for col in basis for e in col))
        self._hash = None
        # Row i of the basis left of its pivot, built on the first call to
        # ``pair_coordinates``.
        self._below = None
        # The dual lattice, set by the first call to ``dual`` on either side.
        self._dual = None
        # {base: closecase.residue_subspace(base, self)}, filled on demand.
        self._residues = None

    @classmethod
    def from_columns(cls, columns, field: BaseField | None = None, *,
                     det: int | None = None) -> "Lattice":
        """Canonical lattice generated by exactly n independent columns."""
        n = len(columns[0])
        if len(columns) != n:
            raise ValueError("from_columns expects a square generator matrix")
        return cls.from_generators(columns, n, field, det=det)

    @classmethod
    def from_generators(cls, columns, n: int, field: BaseField | None = None, *,
                        det: int | None = None) -> "Lattice":
        """Canonical lattice generated by any spanning set of columns, whose
        entries are ``densepoly`` pairs, ``LaurentPoly`` or ``ValuedScalar``.
        ``field`` may be left out unless every entry is a pair or None.  A
        caller that knows v(det) of the lattice passes it as ``det``, which
        lets ``truncated.canonical_basis`` start at the precision it proves;
        a wrong value raises ``ValueError``."""
        if not columns:
            raise SingularMatrixError("no generators")
        if any(len(c) != n for c in columns):
            raise ValueError("generator length mismatch")
        if field is None:
            field = column_field(columns)
        p = field.p
        return cls(n, field, canonical_basis([polynomial_column(c, p) for c in columns], n, field,
                                             det))

    @classmethod
    def standard(cls, n: int, field: BaseField) -> "Lattice":
        """The elementary lattice spanned by the unit vectors over F[[t]]."""
        if n < 1:
            raise ValueError("rank must be positive")
        return cls(n, field, _unit_columns(n, field))

    @property
    def poly_basis(self) -> tuple[tuple[LaurentPoly, ...], ...]:
        """The canonical basis as ``LaurentPoly`` columns, built afresh."""
        field = self.field
        return tuple(tuple(to_poly(field, e) for e in col) for col in self.basis)

    @property
    def columns(self) -> tuple[tuple[ValuedScalar, ...], ...]:
        """The canonical basis as ``ValuedScalar`` columns, built afresh."""
        return tuple(tuple(ValuedScalar(e) for e in col) for col in self.poly_basis)

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
        """Membership of a vector of pair, ``ValuedScalar`` or ``LaurentPoly``
        entries.  Multiplying v by the product of its denominators, a unit,
        keeps it in or out of the lattice; then its coordinates must be
        integral."""
        if len(v) != self.n:
            raise ValueError("vector length mismatch")
        return _integral(self.pair_coordinates([polynomial_column(v, self.field.p)]))

    def contains_lattice(self, other: "Lattice") -> bool:
        return _integral(self.pair_coordinates(other.basis))

    def sum(self, *others: "Lattice") -> "Lattice":
        gens = list(self.basis)
        for m in others:
            if m.n != self.n:
                raise ValueError("rank mismatch")
            gens.extend(m.basis)
        return Lattice.from_generators(gens, self.n, self.field)

    def dual(self) -> "Lattice":
        """Dual lattice under the standard bilinear form: the inverse
        transpose, whose columns are the rows of basis^{-1}, with v(det) =
        -sum(pivots).  Computed once per object; since dual(dual L) = L, the
        result remembers L as its own dual, so a second call on either returns
        the stored lattice."""
        if self._dual is None:
            inv = self.pair_coordinates(_unit_columns(self.n, self.field))
            d = Lattice.from_columns(list(zip(*inv)), self.field, det=-sum(self.pivots))
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
                       tuple(tuple(shift(e, c) for e in col) for col in self.basis))

    def pair_coordinates(self, columns) -> list[list]:
        """basis^{-1} . c for each column c of ``densepoly`` pairs, by forward
        substitution.  The basis is lower triangular with pivots t^{d_i}, so
        each division by a pivot is a shift and the result stays polynomial."""
        if self._below is None:
            basis = self.basis
            self._below = tuple(
                tuple((j, basis[j][i]) for j in range(i) if basis[j][i] is not None)
                for i in range(self.n))
        p = self.field.p
        return [forward_substitute(self._below, self.pivots, col, p) for col in columns]

    def basis_inverse(self) -> list[list[ValuedScalar]]:
        """basis^{-1} as a row-major matrix (lower triangular, like basis)."""
        field = self.field
        inv_cols = self.pair_coordinates(_unit_columns(self.n, field))
        return [[ValuedScalar(to_poly(field, col[i])) for col in inv_cols]
                for i in range(self.n)]

    def transform(self, g: list[list[ValuedScalar]]) -> "Lattice":
        """The lattice g . L for a row-major nonsingular matrix g."""
        return Lattice.from_columns([[reduce(add, (g[i][r] * col[r] for r in range(self.n)))
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
    one = (0, [field.one])
    return tuple(tuple(one if i == j else None for i in range(n)) for j in range(n))


def matmul(a: list[list[ValuedScalar]], b: list[list[ValuedScalar]]) -> list[list[ValuedScalar]]:
    """Row-major product of exact matrices."""
    n, m, k = len(a), len(b[0]), len(b)
    return [
        [reduce(add, (a[i][r] * b[r][j] for r in range(k))) for j in range(m)]
        for i in range(n)
    ]


def identity_matrix(n: int, field: BaseField) -> list[list[ValuedScalar]]:
    return [list(col) for col in Lattice.standard(n, field).columns]
