"""Lattices: full-rank modules over F[[t]] inside the Laurent vector space.

A lattice is stored through its unique canonical basis: a lower-triangular
column-echelon form whose pivots are pure powers t^{d_i} on the diagonal, with
every other entry in a pivot's row reduced modulo t^{d_i}.  Structural
equality of canonical bases is equality of the generated modules.
"""

from __future__ import annotations

from .scalars import BaseField, LaurentPoly, ValuedScalar
from .truncated import SingularMatrixError, canonical_basis

Column = tuple[ValuedScalar, ...]


class Lattice:
    """Immutable lattice; two instances are equal iff the modules coincide."""

    __slots__ = ("n", "field", "columns", "pivots", "_hash")

    def __init__(self, n: int, field: BaseField, columns: tuple[Column, ...]):
        self.n = n
        self.field = field
        self.columns = columns
        # Diagonal exponents d_i of the canonical pivots t^{d_i}.
        self.pivots = tuple(int(columns[i][i].valuation()) for i in range(n))
        self._hash = None

    @classmethod
    def from_columns(cls, columns) -> "Lattice":
        """Canonical lattice generated by exactly n independent columns."""
        n = len(columns[0])
        if len(columns) != n:
            raise ValueError("from_columns expects a square generator matrix")
        return cls.from_generators(columns, n)

    @classmethod
    def from_generators(cls, columns, n: int) -> "Lattice":
        """Canonical lattice generated by any spanning set of columns."""
        if not columns:
            raise SingularMatrixError("no generators")
        if any(len(c) != n for c in columns):
            raise ValueError("generator length mismatch")
        canon = canonical_basis(columns, n)
        return cls(n, columns[0][0].field, tuple(tuple(c) for c in canon))

    @classmethod
    def standard(cls, n: int, field: BaseField) -> "Lattice":
        """The elementary lattice spanned by the unit vectors over F[[t]]."""
        if n < 1:
            raise ValueError("rank must be positive")
        one = ValuedScalar.one(field)
        zero = ValuedScalar.zero(field)
        cols = tuple(
            tuple(one if i == j else zero for i in range(n)) for j in range(n)
        )
        return cls(n, field, cols)

    def unary_f(self) -> int:
        """-val(det basis); the unary determinantal valuation f^t_n."""
        return -sum(self.pivots)

    def solve(self, v) -> list[ValuedScalar]:
        """Coordinates x with basis . x = v, by forward substitution (the
        canonical basis is lower triangular)."""
        n = self.n
        x: list[ValuedScalar] = []
        for i in range(n):
            acc = v[i]
            for j in range(i):
                if not self.columns[j][i].is_zero():
                    acc = acc - self.columns[j][i] * x[j]
            x.append(acc / self.columns[i][i])
        return x

    def contains(self, v) -> bool:
        """Membership of a vector: all solved coordinates lie in F[[t]]."""
        if len(v) != self.n:
            raise ValueError("vector length mismatch")
        return all(c.is_integral() for c in self.solve(v))

    def contains_lattice(self, other: "Lattice") -> bool:
        return all(self.contains(list(c)) for c in other.columns)

    def sum(self, *others: "Lattice") -> "Lattice":
        gens = [list(c) for c in self.columns]
        for m in others:
            if m.n != self.n:
                raise ValueError("rank mismatch")
            gens.extend(list(c) for c in m.columns)
        return Lattice.from_generators(gens, self.n)

    def dual(self) -> "Lattice":
        """Dual lattice under the standard bilinear form (inverse transpose)."""
        inv = self.basis_inverse()
        # inv is rows-by-columns of basis^{-1}; dual basis columns are its rows.
        cols = [[inv[i][r] for r in range(self.n)] for i in range(self.n)]
        return Lattice.from_columns(cols)

    def intersect(self, *others: "Lattice") -> "Lattice":
        """Largest common submodule, via dual(intersection) = sum of duals."""
        return self.dual().sum(*(m.dual() for m in others)).dual()

    def scale(self, c: int) -> "Lattice":
        """The lattice t^c . L, whose canonical basis is t^c times that of L
        (pivots and reductions shift together), so nothing is recomputed."""
        cols = tuple(tuple(ValuedScalar(e.num.shift(c)) for e in col)
                     for col in self.columns)
        return Lattice(self.n, self.field, cols)

    def coordinates(self, columns) -> list[list[LaurentPoly]]:
        """basis^{-1} . c for each column c of Laurent polynomials, by forward
        substitution.  The basis is lower triangular with pivots t^{d_i}, so
        each division by a pivot is a shift and the result stays polynomial."""
        n = self.n
        below = [
            [(j, self.columns[j][i].num) for j in range(i)
             if not self.columns[j][i].is_zero()]
            for i in range(n)
        ]
        out = []
        for col in columns:
            x: list[LaurentPoly] = []
            for i in range(n):
                acc = col[i]
                for j, b in below[i]:
                    if not x[j].is_zero():
                        acc = acc - b * x[j]
                x.append(acc.shift(-self.pivots[i]))
            out.append(x)
        return out

    def basis_inverse(self) -> list[list[ValuedScalar]]:
        """basis^{-1} as a row-major matrix (basis is lower triangular)."""
        n = self.n
        one, zero = LaurentPoly.one(self.field), LaurentPoly.zero(self.field)
        inv_cols = self.coordinates(
            [[one if i == k else zero for i in range(n)] for k in range(n)]
        )
        return [[ValuedScalar(inv_cols[j][i]) for j in range(n)] for i in range(n)]

    def transform(self, g: list[list[ValuedScalar]]) -> "Lattice":
        """The lattice g . L for a row-major nonsingular matrix g."""
        cols = [
            [
                sum(
                    (g[i][r] * col[r] for r in range(self.n)),
                    ValuedScalar.zero(self.field),
                )
                for i in range(self.n)
            ]
            for col in self.columns
        ]
        return Lattice.from_columns(cols)

    def poly_columns(self) -> list[list[LaurentPoly]]:
        """Canonical basis as Laurent polynomials (denominators are 1)."""
        out = []
        for col in self.columns:
            assert all(e.den.coeffs == {0: self.field.one} for e in col)
            out.append([e.num for e in col])
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.n == other.n
            and self.field == other.field
            and self.columns == other.columns
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.field, self.columns))
        return self._hash

    def __repr__(self):
        return f"Lattice(n={self.n}, pivots={self.pivots})"


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
    one = ValuedScalar.one(field)
    zero = ValuedScalar.zero(field)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]
