"""Apartments: families of lattices diagonal in one frame, exact maximal
assignments with integer dual potentials, and the resulting witness lattices."""

from __future__ import annotations

from dataclasses import dataclass

from .lattices import Lattice, SingularMatrixError, matmul
from .metric import smith_form
from .scalars import BaseField, ValuedScalar


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

    def __init__(self, basis: list[list[ValuedScalar]]):
        n = len(basis)
        if any(len(col) != n for col in basis):
            raise ValueError("frame must be square")
        self.n = n
        self.field = basis[0][0].field
        self.basis = tuple(tuple(col) for col in basis)  # columns
        # Nonsingularity check (and the valuation offset used throughout).
        from .detval import det_scalar

        d = det_scalar([[self.basis[j][i] for j in range(n)] for i in range(n)])
        if d.is_zero():
            raise SingularMatrixError("frame columns are dependent")
        self.det_valuation = int(d.valuation())

    @classmethod
    def standard(cls, n: int, field: BaseField) -> "Apartment":
        one = ValuedScalar.one(field)
        zero = ValuedScalar.zero(field)
        return cls([[one if i == j else zero for i in range(n)] for j in range(n)])

    def lattice(self, point) -> Lattice:
        """The lattice <t^{-c_1} x_1, ..., t^{-c_n} x_n>."""
        cols = [
            [e * ValuedScalar.t_power(self.field, -c) for e in col]
            for col, c in zip(self.basis, point.c)
        ]
        return Lattice.from_columns(cols)


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
    aug = [
        list(row)
        + [
            ValuedScalar.one(field) if i == j else ValuedScalar.zero(field)
            for j in range(n)
        ]
        for i, row in enumerate(m)
    ]
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


def relative_position(first: Lattice, second: Lattice) -> list[list[ValuedScalar]]:
    """basis(first)^{-1} basis(second) as a row-major matrix."""
    cols = first.coordinates(second.poly_columns())
    n = first.n
    return [[ValuedScalar(cols[c][r]) for c in range(n)] for r in range(n)]


def common_apartment(lattices):
    """Best-effort search for a frame containing all given lattices.

    Each pair of lattices is diagonalized simultaneously through the Smith
    form of their relative position; a candidate frame is accepted iff every
    lattice is monomial-diagonal in it.  Pairs with distinct relative
    invariants determine their apartment uniquely, so this succeeds whenever
    some pair of the inputs does; degenerate configurations can still slip
    through undetected.  Returns (Apartment, [ApartmentPoint]) or None.
    """
    lattices = list(lattices)
    if not lattices:
        return None
    n = lattices[0].n
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
        b = [[first.columns[c][r] for c in range(n)] for r in range(n)]
        if i == j:
            frame_rows = b
        else:
            _, _, rinv = smith_form(relative_position(first, lattices[j]))
            frame_rows = matmul(b, rinv)
        found = _points_in_frame(frame_rows, lattices)
        if found is not None:
            return found
    return None


def _points_in_frame(frame_rows, lattices):
    n = len(frame_rows)
    field = frame_rows[0][0].field
    frame_cols = [[frame_rows[i][j] for i in range(n)] for j in range(n)]
    apt = Apartment(frame_cols)
    frame_inv = invert_matrix(frame_rows)
    points = []
    for lat in lattices:
        coords = matmul(
            frame_inv, [[lat.columns[j][i] for j in range(n)] for i in range(n)]
        )
        try:
            diag = Lattice.from_columns(
                [[coords[i][j] for i in range(n)] for j in range(n)]
            )
        except SingularMatrixError:
            return None
        cexp = []
        for j in range(n):
            for i in range(n):
                e = diag.columns[j][i]
                if i == j:
                    if not (e - ValuedScalar.t_power(field, int(e.valuation()))).is_zero():
                        return None
                    cexp.append(-int(e.valuation()))
                elif not e.is_zero():
                    return None
        points.append(ApartmentPoint(tuple(cexp)))
    return apt, points

