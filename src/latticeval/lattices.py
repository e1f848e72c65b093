"""Lattices: full-rank modules over F[[t]] inside the Laurent vector space.

A lattice is stored through its unique canonical basis: a lower-triangular
column-echelon form whose pivots are pure powers t^{d_i} on the diagonal, with
every other entry in a pivot's row reduced modulo t^{d_i}.  Its entries are
``densepoly`` pairs (``basis``, a tuple of n columns of n pairs or None), the
representation that ``truncated``, ``detval``, ``metric``, the apartment
search and the close case all work on.  Over Q the stored column j is the
canonical column times its pivot coefficient s_j > 0, the one multiple that is
a primitive integer column (``truncated``, Coefficients); over F_p, s_j = 1.
Coordinates (``pair_coordinates``) are taken S times, S the product of the
s_j, so that over Q they too are integer pairs.  Only this boundary accepts
``LaurentPoly``, ``ValuedScalar`` and rational pair columns:
``polynomial_column`` converts each to pairs in one pass over its
coefficients, with integer coefficients over Q (an ``int`` is kept, an
integral ``Fraction`` becomes its numerator, and only a column with a
non-integral coefficient or a denominator of more than one term takes a
second step), and ``column_field`` reads their field;
``from_pairs`` takes the columns that the library builds itself.  The
canonical view divides each stored column by s_j and is built afresh where a
reader asks for it (``canonical_pairs``, ``poly_basis``, ``columns`` and the
JSON output); ``solve``, ``basis_inverse`` and ``transform`` work on it, and
no library operation calls those.

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

import math
from fractions import Fraction
from functools import reduce
from operator import add

from .densepoly import addmul, forward_substitute, from_poly, shift, to_poly
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


def integer_column(col, p):
    """(col . m, m) for a column of pairs: over Q, m is the lcm of the
    coefficient denominators, so every coefficient of col . m is an integer;
    over F_p, m = 1 and the column is returned as it is."""
    if p is not None:
        return col, 1
    m = math.lcm(*(x.denominator for e in col if e is not None for x in e[1]))
    return [None if e is None else (e[0], [x.numerator * (m // x.denominator) for x in e[1]])
            for e in col], m


def polynomial_column(col, p) -> list:
    """A column of pair, ``LaurentPoly`` and ``ValuedScalar`` entries as
    pairs, multiplied by a unit of O, in one pass over the coefficients: an
    ``int`` is kept and any other coefficient is read once with
    ``as_integer_ratio``, so over Q an integral ``Fraction`` becomes its
    numerator.  Over F_p pairs are kept as they are.  Only a column with a
    denominator of more than one term (each has valuation 0 and constant
    term 1) is then multiplied by the product of its distinct denominators,
    and only one with a coefficient that is not an integer by the lcm of its
    coefficient denominators (``integer_column``); no gcd is taken."""
    out = []
    exact = True
    dens = set()
    for e in col:
        if e is None or (p is not None and type(e) is tuple):
            out.append(e)
            continue
        if type(e) is tuple:
            lo, items, size = e[0], enumerate(e[1], e[0]), len(e[1])
        else:
            if type(e) is ValuedScalar:
                if len(e.den.coeffs) > 1:
                    dens.add(e.den)
                e = e.num
            co = e.coeffs
            if not co:
                out.append(None)
                continue
            lo = min(co)
            items, size = co.items(), max(co) - lo + 1
        dense = [0] * size
        for k, c in items:
            if type(c) is not int:
                n, d = c.as_integer_ratio()
                if d == 1:
                    c = n
                else:
                    exact = False
            dense[k - lo] = c
        out.append((lo, dense))
    for d in dens:
        pd = from_poly(d)
        out = [x if x is None or (type(e) is ValuedScalar and e.den == d) else
               addmul(None, x, pd, 1, p) for x, e in zip(out, col)]
    return out if exact and not dens else integer_column(out, p)[0]


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
    def from_columns(cls, columns, field: BaseField | None = None) -> "Lattice":
        """Canonical lattice generated by exactly n independent columns."""
        n = len(columns[0])
        if len(columns) != n:
            raise ValueError("from_columns expects a square generator matrix")
        return cls.from_generators(columns, n, field)

    @classmethod
    def from_generators(cls, columns, n: int, field: BaseField | None = None) -> "Lattice":
        """Canonical lattice generated by any spanning set of columns, whose
        entries are ``densepoly`` pairs, ``LaurentPoly`` or ``ValuedScalar``.
        ``field`` may be left out unless every entry is a pair or None."""
        if not columns:
            raise SingularMatrixError("no generators")
        if any(len(c) != n for c in columns):
            raise ValueError("generator length mismatch")
        if field is None:
            field = column_field(columns)
        p = field.p
        return cls.from_pairs([polynomial_column(c, p) for c in columns], n, field)

    @classmethod
    def from_pairs(cls, columns, n: int, field: BaseField, *, det: int | None = None) -> "Lattice":
        """``from_generators`` for columns that need no conversion: pairs
        whose coefficients are integers over Q, as stored bases, frames and
        ``polynomial_column`` give them.  A caller that knows v(det) of the
        lattice passes it as ``det``, which lets ``truncated.canonical_basis``
        start at the precision it proves; a wrong value raises
        ``ValueError``."""
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
            d = Lattice.from_pairs(list(zip(*inv)), self.n, self.field, det=-sum(self.pivots))
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
        """S . basis^{-1} . c for each column c of ``densepoly`` pairs (with
        integer coefficients over Q) in the stored basis, S the product of
        its pivot coefficients s_i (1 over F_p): integer pairs, by
        fraction-free forward substitution (``densepoly.forward_substitute``).
        S, one nonzero rational per call, is a unit of O: it moves no
        valuation, span or generated lattice that a caller reads."""
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
        # Row i of the canonical inverse is s_i / S times that of S . stored^{-1}.
        scales = [col[i][1][0] for i, col in enumerate(self.basis)]
        unit = field.inv(math.prod(scales))
        return [[ValuedScalar(to_poly(field, col[i]).scale(s * unit)) for col in inv_cols]
                for i, s in enumerate(scales)]

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
