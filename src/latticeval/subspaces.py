"""Linear algebra over the base field: subspaces in reduced row-echelon form."""

from __future__ import annotations

import itertools
from functools import lru_cache

from .scalars import BaseField


def rref(vectors, n: int, field: BaseField):
    """Reduced row-echelon basis (tuple of tuples) of the span of vectors.

    Rows are plain lists of field elements and each row operation is one list
    comprehension, reduced mod p over F_p, with no field call per entry.  Once
    n rows are found they span F^n, and the remaining vectors are skipped."""
    p = field.p
    basis: list[list] = []
    pivots: list[int] = []
    for v in vectors:
        if not any(v):
            continue
        row = _reduce(v, basis, pivots, p)
        lead = next((i for i, c in enumerate(row) if c), None)
        if lead is None:
            continue
        inv = field.inv(row[lead])
        row = [c * inv for c in row] if p is None else [c * inv % p for c in row]
        for k, b in enumerate(basis):
            if b[lead]:
                basis[k] = _axpy(b, b[lead], row, p)
        basis.append(row)
        pivots.append(lead)
        if len(basis) == n:
            break
    order = sorted(range(len(basis)), key=lambda k: pivots[k])
    return tuple(tuple(basis[k]) for k in order)


def _axpy(x, c, y, p):
    """The list x - c*y, reduced mod p unless p is None."""
    if p is None:
        return [a - c * b for a, b in zip(x, y)]
    return [(a - c * b) % p for a, b in zip(x, y)]


def _reduce(row, basis, pivots, p):
    """row minus its multiples of the echelon rows in basis (lists or
    tuples, with the given pivot columns); row itself if none applies."""
    for b, q in zip(basis, pivots):
        if row[q]:
            row = _axpy(row, row[q], b, p)
    return row


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
        pivots = [next(i for i, c in enumerate(r) if c) for r in self.rows]
        return not any(_reduce(v, self.rows, pivots, self.field.p))

    @lru_cache(maxsize=65536)
    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace.span(list(self.rows) + list(other.rows), self.n, self.field)

    @lru_cache(maxsize=65536)
    def intersect(self, other: "Subspace") -> "Subspace":
        """U ∩ W by Zassenhaus's algorithm: in the reduced echelon form of the
        rows (u | u), u in U, and (w | 0), w in W, the rows whose left half is
        zero carry a basis of U ∩ W in their right half."""
        n, f = self.n, self.field
        zero = (f.zero,) * n
        rows = [u + u for u in self.rows] + [w + zero for w in other.rows]
        echelon = rref(rows, 2 * n, f)
        return Subspace.span([r[n:] for r in echelon if not any(r[:n])], n, f)

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
    """The dimension of the span of vectors of length n, by forward
    elimination only: each vector is reduced by the echelon rows found so far
    (each with pivot 1 and zero at the earlier pivots), and the scan stops
    at rank n."""
    p = field.p
    basis: list[list] = []
    pivots: list[int] = []
    for v in vectors:
        row = _reduce(v, basis, pivots, p)
        lead = next((i for i, c in enumerate(row) if c), None)
        if lead is not None:
            inv = field.inv(row[lead])
            basis.append([c * inv for c in row] if p is None else [c * inv % p for c in row])
            pivots.append(lead)
            if len(basis) == n:
                break
    return len(basis)


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
