"""Relative invariant factors, the coweight-valued distance, and f^t_{ij}.

The distance d(L, M) is the unique weakly decreasing integer vector
(a_1, ..., a_n) such that some g carries L to the elementary lattice and M to
<t^{-a_1}e_1, ..., t^{-a_n}e_n>.  It is computed from the Smith form of
basis(L)^{-1} basis(M) over the valuation ring.  That product times a unit
S (``Lattice.pair_coordinates``) has integer Laurent polynomial entries over
Q, and its exponents come from ``densepoly.smith``, the fraction-free
elimination that also gives the frame of the apartment search.

That elimination runs at a bounded precision.  Let the relative position A
have least entry valuation e_1 and v(det A) = D = f_n(L) - f_n(M), which the
canonical pivots give.  Every Smith exponent is at least e_1 and all n sum
to D, so the largest is at most top = D - (n-1) e_1.  For K > top and any
integral X, A^{-1} t^K X has valuation >= 1, so A + t^K X = A (I + A^{-1}
t^K X) has A's exponents, and ``smith`` drops every term above t^top at the
start and after each step (the valuation ring analogue of Hermite form
modulo the determinant: Domich, Kannan and Trotter, Math. Oper. Res. 12,
1987).  ``smith_elimination`` is the one fraction-field elimination; the
library no longer calls it, and the tests read it as the reference for the
kernels through ``smith_form``, ``detval.det_scalar`` and ``invert_matrix``.
"""

from __future__ import annotations

from functools import lru_cache

from .densepoly import smith
from .lattices import Lattice, SingularMatrixError, identity_matrix, matmul
from .scalars import ValuedScalar

Coweight = tuple[int, ...]


def fundamental_weight(n: int, i: int) -> tuple[int, ...]:
    """omega_i: i ones followed by n - i zeros."""
    if not 0 <= i <= n:
        raise ValueError("weight index out of range")
    return tuple(1 if k < i else 0 for k in range(n))


def pair(w: tuple[int, ...], mu: Coweight) -> int:
    """Pairing of a weight functional with a coweight (dot product)."""
    if len(w) != len(mu):
        raise ValueError("length mismatch")
    return sum(a * b for a, b in zip(w, mu))


def dominance_leq(mu: Coweight, lam: Coweight) -> bool:
    """mu <= lam in dominance order: lam - mu has nonnegative partial sums
    and total sum zero."""
    if len(mu) != len(lam):
        raise ValueError("length mismatch")
    acc = 0
    for a, b in zip(lam, mu):
        acc += a - b
        if acc < 0:
            return False
    return acc == 0


def reverse_negate(mu: Coweight) -> Coweight:
    """The longest-Weyl-element involution (-a_n, ..., -a_1)."""
    return tuple(-a for a in reversed(mu))


def smith_elimination(a: list[list[ValuedScalar]]):
    """Diagonalize over the valuation ring: R . a . C = diag(t^{e_i}).

    Returns (exps, R, C, det a) with exps weakly increasing and R, C in
    GL_n(F[[t]]).  Pivots are chosen by minimal valuation, ties broken by
    lowest (row, column); a matrix with no pivot left raises
    ``SingularMatrixError``.  det a is the signed product of the pivots
    before normalisation: row and column steps keep the determinant, each
    swap flips its sign, and the diagonal left is t^{e_i}.
    """
    n = len(a)
    field = a[0][0].field
    m = [row[:] for row in a]
    r = identity_matrix(n, field)
    c = identity_matrix(n, field)
    det = ValuedScalar.one(field)
    exps: list[int] = []
    for i in range(n):
        pos = None
        best = None
        for rr in range(i, n):
            for cc in range(i, n):
                if m[rr][cc].is_zero():
                    continue
                v = m[rr][cc].valuation()
                if best is None or v < best:
                    best, pos = v, (rr, cc)
        if pos is None:
            raise SingularMatrixError("singular matrix in Smith form")
        rr, cc = pos
        if rr != i:
            m[i], m[rr] = m[rr], m[i]
            r[i], r[rr] = r[rr], r[i]
            det = -det
        if cc != i:
            for row in m + c:
                row[i], row[cc] = row[cc], row[i]
            det = -det
        det = det * m[i][i]
        tpow = ValuedScalar.t_power(field, best)
        unit_inv = tpow / m[i][i]  # a unit of the valuation ring
        m[i] = [e * unit_inv for e in m[i]]
        r[i] = [e * unit_inv for e in r[i]]
        for rr in range(i + 1, n):
            if m[rr][i].is_zero():
                continue
            q = -m[rr][i] / tpow  # negated once: one product and one sum per entry
            m[rr] = [x + q * y for x, y in zip(m[rr], m[i])]
            r[rr] = [x + q * y for x, y in zip(r[rr], r[i])]
        # On m the column steps would only clear row i, which is not read
        # again (column i is zero below the pivot), so only C takes them.
        for cc in range(i + 1, n):
            if m[i][cc].is_zero():
                continue
            q = -m[i][cc] / tpow
            for row in c:
                row[cc] = row[cc] + q * row[i]
        exps.append(best)
    return exps, r, c, det


def over_diagonal(mat: list[list[ValuedScalar]], exps) -> list[list[ValuedScalar]]:
    """mat . diag(t^{-e_i}): column i divided by t^{e_i}."""
    field = mat[0][0].field
    scales = [ValuedScalar.t_power(field, -e) for e in exps]
    return [[x * s for x, s in zip(row, scales)] for row in mat]


def smith_form(a: list[list[ValuedScalar]]):
    """(exps, R, R^{-1}) of ``smith_elimination``: R . a . C = D =
    diag(t^{e_i}) gives R^{-1} = a . C . D^{-1}."""
    exps, r, c, _ = smith_elimination(a)
    return exps, r, over_diagonal(matmul(a, c), exps)


@lru_cache(maxsize=1 << 18)
def relative_invariants(l: Lattice, m: Lattice) -> Coweight:
    """The dominant coweight (a_1 >= ... >= a_n) of M relative to L."""
    l.check_same_space(m)
    # The columns of S . basis(L)^{-1} basis(M), read as rows: transposing,
    # the unit S and the column scales of the stored bases over Q (against
    # the canonical ones) move no invariant factor.
    rel = l.pair_coordinates(m.basis)
    # v(det rel) is the difference of the two pivot sums.
    det = l.unary_f() - m.unary_f()
    low = min(e[0] for row in rel for e in row if e is not None)
    exps, _ = smith(rel, l.field.p, [], det - (l.n - 1) * low)
    if sum(exps) != det:
        raise ValueError("determinant valuation does not match the matrix")
    return tuple(sorted((-e for e in exps), reverse=True))


def distance(l: Lattice, m: Lattice) -> Coweight:
    """d(L, M); alias of the relative invariant factors."""
    return relative_invariants(l, m)


def binary_f(i: int, j: int, l: Lattice, m: Lattice) -> int:
    """f^t_{ij}(L, M) for i + j = n, by the invariant-factor formula."""
    n = l.n
    if i + j != n:
        raise ValueError("binary indices must sum to the rank")
    a = relative_invariants(l, m)
    head = sum(a[:j])
    num = i * l.unary_f() + j * (m.unary_f() - sum(a))
    if num % n:
        raise AssertionError("binary_f correction term is not integral")
    return head + num // n
