"""Linear algebra over the base field: subspaces in reduced row-echelon form.

Ranks, echelon forms and membership tests all run on one forward
elimination, ``_echelon``, which reduces v by a row b with lead column q as
b[q]*v - v[q]*b (mod p over F_p).  It takes no inverse, so it is exact over
Q as over F_p.  Over Q it works on integers and divides each row it keeps by
its content: up to sign, that row is the primitive part of the row of minors
that Bareiss's elimination (Math. Comp. 22, 1968) holds, so entries grow
polynomially in the rank instead of doubling in length with each row."""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .scalars import BaseField


def _echelon(vectors, n: int, p):
    """(lead column, row) pairs whose rows span the span of vectors, with
    distinct leads: each vector is reduced by the rows found so far, and the
    scan stops at n rows, which span F^n."""
    rows: list = []
    for v in vectors:
        if p is None:
            den = math.lcm(*(x.denominator for x in v))
            v = [x.numerator * (den // x.denominator) for x in v]
        for q, b in rows:
            c = v[q]
            if c:
                d = b[q]
                v = ([d * x - c * y for x, y in zip(v, b)] if p is None
                     else [(d * x - c * y) % p for x, y in zip(v, b)])
        lead = next((i for i, c in enumerate(v) if c), None)
        if lead is not None:
            if p is None:
                g = math.gcd(*v)
                v = [x // g for x in v]
            rows.append((lead, v))
            if len(rows) == n:
                break
    return rows


def rref(vectors, n: int, field: BaseField):
    """Reduced row-echelon basis (tuple of tuples) of the span of vectors: the
    rows of ``_echelon`` in lead order, each divided by its lead and cleared
    from the rows before it.  Each row operation is one list comprehension,
    reduced mod p over F_p, with no field call per entry."""
    p = field.p
    basis: list[list] = []
    for q, row in sorted(_echelon(vectors, n, p)):
        inv = field.inv(row[q])
        row = [c * inv for c in row] if p is None else [c * inv % p for c in row]
        for i, b in enumerate(basis):
            c = b[q]
            if c:
                basis[i] = ([x - c * y for x, y in zip(b, row)] if p is None
                            else [(x - c * y) % p for x, y in zip(b, row)])
        basis.append(row)
    return tuple(map(tuple, basis))


class Subspace:
    """A subspace of F^n held as its unique reduced row-echelon basis."""

    __slots__ = ("n", "field", "rows", "_hash")

    def __init__(self, n: int, field: BaseField, rows):
        self.n = n
        self.field = field
        self.rows = rows
        self._hash = None

    @classmethod
    def span(cls, vectors, n: int, field: BaseField) -> "Subspace":
        return cls(n, field, rref(vectors, n, field))

    @classmethod
    def zero(cls, n: int, field: BaseField) -> "Subspace":
        return cls(n, field, ())

    @classmethod
    def full(cls, n: int, field: BaseField) -> "Subspace":
        eye = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
        return cls(n, field, tuple(tuple(r) for r in eye))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        return rank_of([*self.rows, v], self.n, self.field) == self.dim

    @lru_cache(maxsize=65536)
    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace.span(list(self.rows) + list(other.rows), self.n, self.field)

    @lru_cache(maxsize=65536)
    def intersect(self, other: "Subspace") -> "Subspace":
        """U ∩ W by Zassenhaus's algorithm: in the reduced echelon form of the
        rows (u | u), u in U, and (w | 0), w in W, the rows whose left half is
        zero carry the reduced echelon basis of U ∩ W in their right half."""
        n, f = self.n, self.field
        zero = (f.zero,) * n
        rows = [u + u for u in self.rows] + [w + zero for w in other.rows]
        echelon = rref(rows, 2 * n, f)
        return Subspace(n, f, tuple(r[n:] for r in echelon if not any(r[:n])))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.n == other.n
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.field, self.rows))
        return self._hash

    def __repr__(self):
        return f"Subspace(n={self.n}, dim={self.dim})"


def rank_of(vectors, n: int, field: BaseField) -> int:
    """The dimension of the span of vectors of length n."""
    return len(_echelon(vectors, n, field.p))


def all_subspaces(n: int, field: BaseField):
    """Every subspace of F_p^n, enumerated through canonical RREF matrices."""
    if field.is_rational:
        raise ValueError("subspace enumeration requires a finite base field")
    p = field.p
    out = [Subspace.zero(n, field)]
    for d in range(1, n + 1):
        for pivots in itertools.combinations(range(n), d):
            free_cols = [
                c
                for c in range(n)
                if c not in pivots
            ]
            # Free entries: (row r, column c) with c > pivots[r] and c not a pivot.
            slots = [
                (r, c)
                for r in range(d)
                for c in free_cols
                if c > pivots[r]
            ]
            for fill in itertools.product(range(p), repeat=len(slots)):
                rows = [[field.zero] * n for _ in range(d)]
                for r, pc in enumerate(pivots):
                    rows[r][pc] = field.one
                for (r, c), v in zip(slots, fill):
                    rows[r][c] = field.from_int(v)
                out.append(Subspace(n, field, tuple(tuple(r) for r in rows)))
    return out
