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
1987).  ``smith_form`` is the fraction-field
elimination with both row transforms; the library no longer calls it, and
the tests keep it as the reference for both.
"""

from __future__ import annotations

from functools import lru_cache

from .densepoly import smith
from .lattices import Lattice, identity_matrix
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


def smith_form(a: list[list[ValuedScalar]]):
    """Diagonalize over the valuation ring: R . a . C = diag(t^{e_i}).

    Returns (exps, R, Rinv) with exps weakly increasing and R, Rinv inverse
    row-transform matrices in GL_n(F[[t]]).  Pivots are chosen by minimal
    valuation, ties broken by lowest (row, column).
    """
    n = len(a)
    field = a[0][0].field
    m = [row[:] for row in a]
    r = identity_matrix(n, field)
    rinv = identity_matrix(n, field)
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
            raise ValueError("singular matrix in Smith form")
        rr, cc = pos
        if rr != i:
            m[i], m[rr] = m[rr], m[i]
            r[i], r[rr] = r[rr], r[i]
            for row in rinv:
                row[i], row[rr] = row[rr], row[i]
        if cc != i:
            for row in m:
                row[i], row[cc] = row[cc], row[i]
        tpow = ValuedScalar.t_power(field, best)
        unit = m[i][i] / tpow  # a unit of the valuation ring
        unit_inv = unit.invert()
        m[i] = [e * unit_inv for e in m[i]]
        r[i] = [e * unit_inv for e in r[i]]
        for row in rinv:
            row[i] = row[i] * unit
        for rr in range(i + 1, n):
            if m[rr][i].is_zero():
                continue
            q = m[rr][i] / tpow
            m[rr] = [x - q * y for x, y in zip(m[rr], m[i])]
            r[rr] = [x - q * y for x, y in zip(r[rr], r[i])]
            for row in rinv:
                row[i] = row[i] + q * row[rr]
        for cc in range(i + 1, n):
            if m[i][cc].is_zero():
                continue
            q = m[i][cc] / tpow
            for row in m:
                row[cc] = row[cc] - q * row[i]
        exps.append(best)
    return exps, r, rinv


@lru_cache(maxsize=1 << 18)
def relative_invariants(l: Lattice, m: Lattice) -> Coweight:
    """The dominant coweight (a_1 >= ... >= a_n) of M relative to L."""
    if l.n != m.n:
        raise ValueError("rank mismatch")
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
