"""Lattices: full-rank modules over F[[t]] inside the Laurent vector space.

A lattice is stored through its unique canonical basis: a lower-triangular
column-echelon form whose pivots are pure powers t^{d_i} on the diagonal, with
every other entry in a pivot's row reduced modulo t^{d_i}.  Its entries are
``densepoly`` pairs (``basis``, a tuple of n columns of n pairs or None), the
representation that ``truncated``, ``detval``, ``metric``, the apartment
search and the close case all work on, so every operation here stays
polynomial and no entry changes representation: a division by a pivot is a
shift of the pair's valuation and, over Q, a division by an integer s_j.
Over Q the stored column j is the canonical column times its pivot
coefficient s_j > 0, the one multiple that is a primitive integer column
(``truncated``, Coefficients); over F_p, s_j = 1.
``LaurentPoly``, ``ValuedScalar`` and rational pair columns are accepted at
this boundary only: ``polynomial_column`` converts each once to pairs, with
integer coefficients over Q (for ``from_generators``, ``from_columns``,
``contains``, ``Apartment`` and the harness), and ``column_field`` reads
their field; ``from_pairs`` takes columns that need no conversion.  The
canonical view divides each stored column by s_j and is built afresh where
a reader asks for it (``canonical_pairs``, ``poly_basis``, ``columns`` and
the JSON output); ``solve``, ``basis_inverse`` and ``transform`` work on
it, and no library operation calls those.

Equal modules have equal canonical bases, so each lattice carries ``key``, a
tuple of plain ints built once from the stored pairs: (n, p, then per entry
its valuation and coefficients, or () for zero).  Equality and hashing are
one tuple comparison.

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

from fractions import Fraction
from functools import reduce
from operator import add

from .densepoly import addmul, forward_substitute, from_poly, integer_column, shift, to_poly
from .scalars import BaseField, LaurentPoly, ValuedScalar
from .truncated import SingularMatrixError, canonical_basis

# A column of n ``densepoly`` pairs (v, coefficients), None for zero.
Column = tuple


def _integral(columns) -> bool:
    return all(e is None or e[0] >= 0 for col in columns for e in col)


def column_field(columns):
    """The field of the first ``LaurentPoly`` or ``ValuedScalar`` entry;
    columns of pairs alone do not name it."""
    for col in columns:
        for e in col:
            if e is not None and type(e) is not tuple:
                return e.field
    raise ValueError("columns of densepoly pairs need their field")


def polynomial_column(col, p) -> list:
    """A column of pair, ``LaurentPoly`` and ``ValuedScalar`` entries as
    pairs, multiplied by a unit of O: the product of its distinct
    denominators (each has valuation 0 and constant term 1), and over Q then
    the lcm of its coefficient denominators (``densepoly.integer_column``),
    so that its coefficients are integers; no gcd is taken.  Over F_p a
    column of pairs is returned as it is."""
    if all(e is None or type(e) is tuple for e in col):
        return integer_column(col, p)[0]
    out = [e if e is None or type(e) is tuple else
           from_poly(e.num if type(e) is ValuedScalar else e) for e in col]
    for d in {e.den for e in col if type(e) is ValuedScalar and len(e.den.coeffs) > 1}:
        pd = from_poly(d)
        out = [x if x is None or (type(e) is ValuedScalar and e.den == d) else
               addmul(None, x, pd, 1, p) for x, e in zip(out, col)]
    return integer_column(out, p)[0]


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
        self.key = (n, field.p, tuple(() if e is None else (e[0], *e[1])
                                      for col in basis for e in col))
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
        return cls.from_pairs([polynomial_column(c, p) for c in columns], n, field, det=det)

    @classmethod
    def from_pairs(cls, columns, n: int, field: BaseField, *, det: int | None = None) -> "Lattice":
        """``from_generators`` for columns that need no conversion: pairs
        whose coefficients are integers over Q, as stored bases, frames and
        ``polynomial_column`` give them."""
        return cls(n, field, canonical_basis(columns, n, field, det))

    @classmethod
    def standard(cls, n: int, field: BaseField) -> "Lattice":
        """The elementary lattice spanned by the unit vectors over F[[t]]."""
        if n < 1:
            raise ValueError("rank must be positive")
        return cls(n, field, _unit_columns(n, field))

    @property
    def canonical_pairs(self) -> tuple[Column, ...]:
        """The canonical basis in pairs: over Q each stored column divided
        by its pivot coefficient s_j, built afresh; over F_p the stored basis."""
        if self.field.p is not None:
            return self.basis
        return tuple(tuple(None if e is None else (e[0], [Fraction(c, col[j][1][0]) for c in e[1]])
                           for e in col)
                     for j, col in enumerate(self.basis))

    @property
    def poly_basis(self) -> tuple[tuple[LaurentPoly, ...], ...]:
        """The canonical basis as ``LaurentPoly`` columns, built afresh."""
        field = self.field
        return tuple(tuple(to_poly(field, e) for e in col) for col in self.canonical_pairs)

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
        return Lattice.from_pairs(gens, self.n, self.field)

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
        substitution, in the coordinates of the stored basis (over Q, column
        j is s_j times the canonical one).  The basis is lower triangular
        with pivots s_i t^{d_i}, so each division by a pivot is a shift (and
        over Q a division by s_i) and the result stays polynomial."""
        if self._below is None:
            basis = self.basis
            self._below = tuple(
                tuple((j, basis[j][i]) for j in range(i) if basis[j][i] is not None)
                for i in range(self.n))
        p = self.field.p
        diagonal = [col[i] for i, col in enumerate(self.basis)]
        return [forward_substitute(self._below, diagonal, col, p) for col in columns]

    def basis_inverse(self) -> list[list[ValuedScalar]]:
        """basis^{-1} as a row-major matrix (lower triangular, like basis)."""
        field = self.field
        inv_cols = self.pair_coordinates(_unit_columns(self.n, field))
        # Row i of the stored basis's inverse is 1/s_i times the canonical one.
        return [[ValuedScalar(to_poly(field, col[i]).scale(self.basis[i][i][1][0]))
                 for col in inv_cols] for i in range(self.n)]

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
    one = (0, [1])
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
