"""Apartments: families of lattices diagonal in one frame, exact maximal
assignments with integer dual potentials, and the resulting witness lattices.

A frame is stored as columns of ``densepoly`` pairs, like a lattice basis,
integer over Q.  The frame of a pair comes from ``densepoly.smith``, the Smith
elimination that also gives ``metric.relative_invariants``, and that
elimination already places the two lattices of the pair in it.  The
common-apartment search tests the other lattices with the row steps of that
elimination alone, on their coordinates, and builds the one frame that passes.
The test reference ``invert_matrix`` reads its inverse off ``metric.smith_elimination``."""

from __future__ import annotations

from dataclasses import dataclass

from .densepoly import shift, smith
from .detval import det_poly
from .lattices import Lattice, SingularMatrixError, column_field, matmul, polynomial_column
from .metric import over_diagonal, smith_elimination
from .scalars import BaseField, ValuedScalar


@dataclass(frozen=True)
class AssignmentResult:
    """A maximal transversal with its certifying dual potentials.

    Feasibility a_i + b_j >= c_ij, value = sum of c_{i, sigma(i)} = sum(a)
    + sum(b), and complementary slackness along sigma are all checked by
    ``check``, which ``kuhn_munkres`` runs on its result; a failure raises
    ``AssertionError``, under ``python -O`` too.
    """

    permutation: tuple[int, ...]
    a: tuple[int, ...]
    b: tuple[int, ...]
    value: int

    def check(self, c) -> None:
        n = len(self.permutation)
        if sorted(self.permutation) != list(range(n)):
            raise AssertionError("not a permutation")
        for i in range(n):
            for j in range(n):
                if self.a[i] + self.b[j] < c[i][j]:
                    raise AssertionError("infeasible potentials")
        if sum(c[i][self.permutation[i]] for i in range(n)) != self.value:
            raise AssertionError("value is not the transversal sum")
        if sum(self.a) + sum(self.b) != self.value:
            raise AssertionError("duality gap")
        for i in range(n):
            if self.a[i] + self.b[self.permutation[i]] != c[i][self.permutation[i]]:
                raise AssertionError("complementary slackness fails")


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

    def __init__(self, basis, field: BaseField | None = None, det_valuation: int | None = None):
        """A frame of pair, ``ValuedScalar`` or ``LaurentPoly`` columns;
        ``field`` may be left out unless every entry is a pair or None.  A
        caller that knows v(det frame) passes it with a frame of pairs with
        integer coefficients over Q, and neither is checked; otherwise the
        determinant is computed and a dependent frame rejected.  Clearing a
        column's denominators multiplies x_i by a unit, which changes no
        lattice of the apartment."""
        n = len(basis)
        if any(len(col) != n for col in basis):
            raise ValueError("frame must be square")
        if field is None:
            field = column_field(basis)
        if det_valuation is None:
            basis = [polynomial_column(col, field.p) for col in basis]
            det = det_poly(basis, field)
            if det is None:
                raise SingularMatrixError("frame columns are dependent")
            det_valuation = det[0]
        self.n = n
        self.field = field
        self.basis = tuple(map(tuple, basis))
        self.det_valuation = det_valuation

    @classmethod
    def standard(cls, n: int, field: BaseField) -> "Apartment":
        return cls(Lattice.standard(n, field).basis, field, 0)

    def lattice(self, point) -> Lattice:
        """The lattice <t^{-c_1} x_1, ..., t^{-c_n} x_n>, with v(det) =
        v(det frame) - sum(c)."""
        return Lattice.from_pairs([[shift(e, -c) for e in col]
                                   for col, c in zip(self.basis, point.c)], self.n, self.field,
                                  det=self.det_valuation - sum(point.c))


@dataclass(frozen=True)
class ApartmentPoint:
    """Integer exponents c relative to the apartment frame."""

    c: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(int(x) for x in self.c))


def replicated_matrix(points, idx, n: int):
    """The exponent rows of the points, point j repeated idx[j] times: the
    n x n matrix whose maximal transversal is the apartment's multi_f."""
    rows = []
    for point, mult in zip(points, idx):
        rows.extend([list(point.c)] * mult)
    if len(rows) != n:
        raise ValueError("index vector must sum to the rank")
    return rows


def apartment_multi_f(apt: Apartment, points, idx) -> int:
    """multi_f of the lattices realized from the apartment: the maximal
    transversal of the replicated exponent matrix, offset by -val det(frame)."""
    rows = replicated_matrix(points, idx, apt.n)
    return kuhn_munkres(rows).value - apt.det_valuation


def apartment_witness(apt: Apartment, points, idx):
    """A witness lattice P = <t^{-b_1} x_1, ..., t^{-b_n} x_n> built from the
    dual potentials, with min(b) shifted to 0; returns (P, value)."""
    rows = replicated_matrix(points, idx, apt.n)
    result = kuhn_munkres(rows)
    shift = min(result.b)
    b = tuple(x - shift for x in result.b)
    p = apt.lattice(ApartmentPoint(b))
    return p, result.value - apt.det_valuation


def invert_matrix(m: list[list[ValuedScalar]]) -> list[list[ValuedScalar]]:
    """Exact inverse C . D^{-1} . R from the Smith elimination R . m . C = D;
    a singular m raises ``SingularMatrixError``."""
    exps, r, c, _ = smith_elimination(m)
    return matmul(over_diagonal(c, exps), r)


def _smith_frame(rel, second: Lattice):
    """(frame, e): the columns x_i = (basis(second) . C)_i t^{-e_i} of the
    Smith frame of a pair (first, second), in ``densepoly`` pairs, and the
    Smith exponents e.  ``densepoly.smith`` on the rows ``rel`` of the
    relative position basis(first)^{-1} basis(second), as ``common_apartment``
    holds it from ``pair_coordinates``, gives e and, carrying the rows of
    basis(second), basis(second) . C.  basis(first)^{-1} x_i is column i of
    R^{-1} diag(w), so first is the point 0 of the frame, second the point
    -e, and v(det frame) is the pivot sum of first.  ``common_apartment``
    calls it once, for the pair whose frame holds every input."""
    exps, bc = smith(rel, second.field.p, [list(row) for row in zip(*second.basis)])
    return [[shift(x, -e) for x in col] for col, e in zip(zip(*bc), exps)], exps


def common_apartment(lattices):
    """Best-effort search for a frame containing all given lattices.

    For each ordered pair (L, M) of the inputs, the Smith frame of their
    relative position is one apartment through L and M, and it is accepted
    iff every other input is diagonal in it; L and M need no test, since
    the elimination places them at the points 0 and -e.  Two lattices lie
    in many apartments, so this can miss a common apartment even when the
    pair has distinct relative invariants.  Returns (Apartment,
    [ApartmentPoint]) or None.

    The test needs no frame.  With G_K = basis(L)^{-1} basis(K), the frame
    in L's coordinates is X = R^{-1} diag(w), where R . G_M . C = diag(t^e
    w).  K = <t^{-c_i} x_i> iff X diag(t^{-c}) = G_K U with U in GL_n(O),
    that is iff R . G_K = diag(w t^{-c}) U^{-1}.  Let c'_i be the least
    valuation in row i of R . G_K; then R . G_K = diag(t^{c'}) V with V
    integral, and V is in GL_n(O) iff v(det V) = 0.  So K lies in the frame
    iff sum(c') = v(det G_K) = sum(pivots(K)) - sum(pivots(L)), and then c =
    -c'.  So the columns of every other G_K are appended to the rows of
    G_M, and ``smith`` with no carry runs only its row steps on them.  Each
    G_K is computed once per L (``Lattice.pair_coordinates``, times a unit
    S).  Skipped column steps multiply later columns by units: the pivots
    stay, and each row of R changes by a unit, which moves no row minimum.
    ``_smith_frame`` builds only the frame that passes, from the same G_M.
    """
    lattices = list(lattices)
    if not lattices:
        return None
    n = lattices[0].n
    zero = ApartmentPoint((0,) * n)
    if len(lattices) == 1:
        lat = lattices[0]
        return Apartment(lat.basis, lat.field, sum(lat.pivots)), [zero]
    for i, first in enumerate(lattices):
        det_valuation = sum(first.pivots)
        coords = [None if k == i else list(zip(*first.pair_coordinates(lat.basis)))
                  for k, lat in enumerate(lattices)]
        for j, second in enumerate(lattices):
            if i == j:
                continue
            rest = [k for k in range(len(lattices)) if k != i and k != j]
            rows = smith([[*coords[j][r], *(x for k in rest for x in coords[k][r])]
                          for r in range(n)], first.field.p, [])[1] if rest else []
            points = {i: zero}
            for t, k in enumerate(rest, 1):
                least = [min(e[0] for e in row[t * n:(t + 1) * n] if e is not None)
                         for row in rows]
                if sum(least) != sum(lattices[k].pivots) - det_valuation:
                    break
                points[k] = ApartmentPoint(tuple(-c for c in least))
            else:
                frame, exps = _smith_frame(coords[j], second)
                points[j] = ApartmentPoint(tuple(-e for e in exps))
                return (Apartment(frame, first.field, det_valuation),
                        [points[k] for k in range(len(lattices))])
    return None
