"""Apartments: families of lattices diagonal in one frame, exact maximal
assignments with integer dual potentials, and the resulting witness lattices."""

from __future__ import annotations

from dataclasses import dataclass

from .densepoly import addmul, cross, from_poly, to_poly
from .detval import det_poly
from .lattices import Lattice, SingularMatrixError, identity_matrix
from .scalars import BaseField, LaurentPoly, ValuedScalar
from .truncated import polynomial_column


@dataclass(frozen=True)
class AssignmentResult:
    """A maximal transversal with its certifying dual potentials.

    Feasibility a_i + b_j >= c_ij, value = sum of c_{i, sigma(i)} = sum(a)
    + sum(b), and complementary slackness along sigma are all asserted at
    construction time.
    """

    permutation: tuple[int, ...]
    a: tuple[int, ...]
    b: tuple[int, ...]
    value: int

    def check(self, c) -> None:
        n = len(self.permutation)
        assert sorted(self.permutation) == list(range(n))
        for i in range(n):
            for j in range(n):
                assert self.a[i] + self.b[j] >= c[i][j], "infeasible potentials"
        total = sum(c[i][self.permutation[i]] for i in range(n))
        assert total == self.value
        assert sum(self.a) + sum(self.b) == self.value, "duality gap"
        for i in range(n):
            assert self.a[i] + self.b[self.permutation[i]] == c[i][self.permutation[i]]


def kuhn_munkres(c) -> AssignmentResult:
    """Maximal transversal sum of an integer matrix, with integer potentials.

    Runs the O(n^3) potential-maintaining Hungarian method on the negated
    matrix (which minimizes), then flips sign conventions so that
    a_i + b_j >= c_ij with equality along the optimal permutation.
    """
    n = len(c)
    if n == 0:
        return AssignmentResult((), (), (), 0)
    if any(len(row) != n for row in c):
        raise ValueError("cost matrix must be square")
    cost = [[-int(x) for x in row] for row in c]
    inf = float("inf")
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)  # p[j] = row matched to column j (1-based; 0 = free)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0, delta, j1 = p[j0], inf, 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    perm = [0] * n
    for j in range(1, n + 1):
        perm[p[j] - 1] = j - 1
    a = tuple(-u[i] for i in range(1, n + 1))
    b = tuple(-v[j] for j in range(1, n + 1))
    value = sum(c[i][perm[i]] for i in range(n))
    result = AssignmentResult(tuple(perm), a, b, value)
    result.check(c)
    return result


class Apartment:
    """A frame x_1..x_n of linearly independent columns; the lattices diagonal
    in this frame with integer exponents form the apartment."""

    def __init__(self, basis):
        n = len(basis)
        if any(len(col) != n for col in basis):
            raise ValueError("frame must be square")
        self.n = n
        self.field = basis[0][0].field
        # Columns of ValuedScalar or LaurentPoly entries, stored as Laurent
        # polynomials; clearing a column's denominators multiplies x_i by a
        # unit, which changes no lattice of the apartment.
        self.basis = tuple(tuple(polynomial_column(col)) for col in basis)
        det = det_poly(self.basis)
        if det.is_zero():
            raise SingularMatrixError("frame columns are dependent")
        self.det_valuation = det.valuation()

    @classmethod
    def standard(cls, n: int, field: BaseField) -> "Apartment":
        return cls(Lattice.standard(n, field).basis)

    def lattice(self, point) -> Lattice:
        """The lattice <t^{-c_1} x_1, ..., t^{-c_n} x_n>."""
        return Lattice.from_columns([[e.shift(-c) for e in col]
                                     for col, c in zip(self.basis, point.c)])


@dataclass(frozen=True)
class ApartmentPoint:
    """Integer exponents c relative to the apartment frame."""

    c: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(int(x) for x in self.c))


def _replicated_matrix(points, idx, n: int):
    rows = []
    for point, mult in zip(points, idx):
        rows.extend([list(point.c)] * mult)
    if len(rows) != n:
        raise ValueError("index vector must sum to the rank")
    return rows


def apartment_multi_f(apt: Apartment, points, idx) -> int:
    """multi_f of the lattices realized from the apartment: the maximal
    transversal of the replicated exponent matrix, offset by -val det(frame)."""
    rows = _replicated_matrix(points, idx, apt.n)
    return kuhn_munkres(rows).value - apt.det_valuation


def apartment_witness(apt: Apartment, points, idx):
    """A witness lattice P = <t^{-b_1} x_1, ..., t^{-b_n} x_n> built from the
    dual potentials, with min(b) shifted to 0; returns (P, value)."""
    rows = _replicated_matrix(points, idx, apt.n)
    result = kuhn_munkres(rows)
    shift = min(result.b)
    b = tuple(x - shift for x in result.b)
    p = apt.lattice(ApartmentPoint(b))
    return p, result.value - apt.det_valuation


def invert_matrix(m: list[list[ValuedScalar]]) -> list[list[ValuedScalar]]:
    """Exact inverse by Gauss-Jordan elimination (min-valuation pivoting)."""
    n = len(m)
    field = m[0][0].field
    aug = [list(row) + unit for row, unit in zip(m, identity_matrix(n, field))]
    for i in range(n):
        piv, best = None, None
        for r in range(i, n):
            if aug[r][i].is_zero():
                continue
            v = aug[r][i].valuation()
            if best is None or v < best:
                piv, best = r, v
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        aug[i], aug[piv] = aug[piv], aug[i]
        inv = aug[i][i].invert()
        aug[i] = [e * inv for e in aug[i]]
        for r in range(n):
            if r == i or aug[r][i].is_zero():
                continue
            q = aug[r][i]
            aug[r] = [x - q * y for x, y in zip(aug[r], aug[i])]
    return [row[n:] for row in aug]


def relative_position(first: Lattice, second: Lattice) -> list[list[LaurentPoly]]:
    """basis(first)^{-1} basis(second) as a row-major matrix of Laurent
    polynomials."""
    return [[to_poly(first.field, e) for e in row]
            for row in _relative_pairs(first, second)]


def _relative_pairs(first: Lattice, second: Lattice) -> list[list]:
    """``relative_position`` in ``densepoly`` pairs."""
    cols = first.pair_coordinates(second.pair_basis())
    return [list(row) for row in zip(*cols)]


def smith_transform(m: list[list[LaurentPoly]]):
    """Fraction-free Smith diagonalization over O = F[[t]].

    Returns (exps, C) with C a row-major matrix in GL_n(O) such that
    R . m . C = diag(t^{e_i} w_i) for some R in GL_n(O) and units w_i; see
    ``_smith_pairs``, which does the work in ``densepoly`` pairs.
    """
    field = m[0][0].field
    exps, c = _smith_pairs([[from_poly(e) for e in row] for row in m], field)
    return exps, [[to_poly(field, e) for e in row] for row in c]


def _smith_pairs(m, field):
    """``smith_transform`` on a row-major matrix of ``densepoly`` pairs.

    The pivots are chosen as in ``smith_form`` (minimal valuation, ties
    broken by lowest (row, column)), but a step multiplies by the pivot unit
    u instead of dividing by it, so every entry stays a Laurent polynomial.
    Each row and column is then a unit multiple of the one ``smith_form`` has
    at the same step: the valuations and pivots agree, and C differs from its
    column transform only by a diagonal of units.
    """
    n = len(m)
    m = [row[:] for row in m]
    p = field.p
    one = (0, [field.one])
    c = [[one if i == j else None for j in range(n)] for i in range(n)]
    exps: list[int] = []
    for i in range(n):
        pos = best = None
        for rr in range(i, n):
            for cc in range(i, n):
                e = m[rr][cc]
                if e is not None and (best is None or e[0] < best):
                    best, pos = e[0], (rr, cc)
        if pos is None:
            raise SingularMatrixError("singular matrix in Smith form")
        rr, cc = pos
        m[i], m[rr] = m[rr], m[i]
        for row in m + c:
            row[i], row[cc] = row[cc], row[i]
        u = (0, m[i][i][1])
        for rr in range(i + 1, n):
            x = m[rr][i]
            if x is not None:
                q = (x[0] - best, x[1])
                m[rr] = [cross(u, z, q, y, p) for z, y in zip(m[rr], m[i])]
        # Column i is now zero below the pivot, so a column step clears row i
        # and scales the rest of column cc by u.
        for cc in range(i + 1, n):
            x = m[i][cc]
            if x is not None:
                q = (x[0] - best, x[1])
                for row in c:
                    row[cc] = cross(u, row[cc], q, row[i], p)
                for row in m[i + 1:]:
                    row[cc] = cross(u, row[cc], None, None, p)
                m[i][cc] = None
        exps.append(best)
    return exps, c


def _smith_frame(first: Lattice, second: Lattice) -> list[list]:
    """Columns x_i = (basis(second) . C)_i t^{-e_i} of the Smith frame of the
    pair, in ``densepoly`` pairs.  basis(first)^{-1} x_i is column i of
    R^{-1} diag(w), so the frame spans first, and v(det frame) is the pivot
    sum of first."""
    p = first.field.p
    exps, c = _smith_pairs(_relative_pairs(first, second), first.field)
    b = second.pair_basis()
    frame = []
    for j, e in enumerate(exps):
        col = [None] * first.n
        for k, bk in enumerate(b):
            ckj = c[k][j]
            if ckj is not None:
                col = [x if y is None else addmul(x, y, ckj, 1, p)
                       for x, y in zip(col, bk)]
        frame.append([None if x is None else (x[0] - e, x[1]) for x in col])
    return frame


def _frame_points(frame, det_valuation: int, lattices):
    """The point of each lattice in the frame of ``densepoly`` pair columns,
    or None if one is not in it.

    For a lattice K let Y = basis(K)^{-1} X and m_i the least valuation in
    column i of Y.  K = <t^{-c_i} x_i> iff Y diag(t^{-c}) lies in GL_n(O).
    Integral columns need c <= m, and a column with c_i < m_i is divisible
    by t, so det has positive valuation.  Hence K lies in the frame iff
    v(det Y) = v(det X) - sum(pivots(K)) equals sum(m), and then c = m.
    """
    points = []
    for lat in lattices:
        least = [min(e[0] for e in col if e is not None)
                 for col in lat.pair_coordinates(frame)]
        if det_valuation - sum(lat.pivots) != sum(least):
            return None
        points.append(ApartmentPoint(tuple(least)))
    return points


def common_apartment(lattices):
    """Best-effort search for a frame containing all given lattices.

    For each ordered pair (L, M) of the inputs, the Smith frame of their
    relative position is one apartment through L and M, and it is accepted
    iff every input is diagonal in it.  Two lattices lie in many apartments,
    so this can miss a common apartment even when the pair has distinct
    relative invariants.  Returns (Apartment, [ApartmentPoint]) or None.
    """
    lattices = list(lattices)
    if not lattices:
        return None
    if len(lattices) == 1:
        pairs = [(0, 0)]
    else:
        pairs = [
            (i, j)
            for i in range(len(lattices))
            for j in range(len(lattices))
            if i != j
        ]
    for i, j in pairs:
        first = lattices[i]
        if i == j:
            frame = first.pair_basis()
        else:
            frame = _smith_frame(first, lattices[j])
        points = _frame_points(frame, sum(first.pivots), lattices)
        if points is not None:
            apt = Apartment([[to_poly(first.field, e) for e in col] for col in frame])
            return apt, points
    return None
