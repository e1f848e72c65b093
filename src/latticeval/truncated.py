"""Exact column elimination in (F[t]/t^N)^n: canonical bases and Smith
exponents without the fraction field.

Notation: O = F[[t]], v the t-adic valuation, and for a full-rank lattice L
in F((t))^n, D(L) = v(det B) for any basis B of L.

Canonical bases.  Let A be an n x m generator matrix of L and s the least
valuation of its entries, so L' = t^{-s} L lies in O^n; the canonical basis of
L is that of L' multiplied by t^s.  Every entry of A is num/den with den of
valuation 0 and constant term 1 (see ``ValuedScalar``), a unit of O, so each
entry has a t-adic series, which ``series_truncate`` reads modulo t^N.

1. Elimination modulo t^N.  Work on columns of polynomials of degree < N.
   Every step adds an O-multiple of one column to another, multiplies a
   column by a unit of O, or drops multiples of t^N.  So the final matrix is
   A U + t^N X with U in GL_m(O), and with t^N O^n its columns generate
   H = L' + t^N O^n.  It is [h | 0] modulo t^N, where h is lower triangular
   with diagonal t^{d_i} and row i reduced below t^{d_i}.
2. Acceptance.  The maximal minors of A U generate the same ideal as those of
   A, namely t^{D(L')} O.  If some row finds no pivot, or sum(d_i) >= N,
   every maximal minor of A U vanishes modulo t^N, so D(L') >= N.  If
   sum(d_i) < N, the minor on the pivot columns is t^{sum(d_i)} modulo t^N,
   so D(L') <= sum(d_i) < N.  Then t^N O^n lies in L' (t^{D(L')} A'^{-1} is
   integral for a basis A' of L'), so H = L'; and t^N O^n lies in
   t^{sum(d_i)} O^n, which lies in span(h), so H = span(h).  Thus h is a
   basis of L' in canonical form: the canonical basis, exactly.
3. Bound.  Multiplying column j by the product of its distinct denominators
   (a unit) leaves the lattice alone and makes its entries polynomials of
   degree at most delta_j = max(deg num - deg den) - s + sum(deg den over the
   distinct denominators).  A nonzero maximal minor then has degree at most
   B = the sum of the n largest delta_j, so D(L') <= B when A has full rank,
   and by step 2 every N > B is accepted.  The search starts at a small N
   and doubles it, never beyond B + 1; failing at N = B + 1 proves that no
   maximal minor is nonzero, and ``SingularMatrixError`` is raised.

Smith exponents.  If A is integral and N > D = v(det A), then A and A + t^N X
have the same invariant factors for every integral X, because t^D A^{-1} is
integral and so I + t^N A^{-1} X lies in GL_n(O).  ``smith_exponents`` takes
columns of Laurent polynomials (a relative position basis(L)^{-1} basis(M) has
them, since canonical pivots are monomials) and v(det) (there, the difference
of two pivot sums), shifts the matrix to be integral, and runs the
min-valuation elimination modulo t^{D+1}; the exponents it finds must sum to
D.

Coefficients.  Over F_p a series is a list of N residues.  Over Q it is a list
of N integers: a column may be multiplied by any nonzero rational, a unit, so
each column is kept integral and primitive and is divided by its pivot
coefficient only when the basis is read out.  No polynomial gcd is taken.
Keeping Fraction coefficients instead (dividing by the pivot as over F_p) is
simpler but slower: on the ``generic-q`` benchmark workload (2-vCPU Xeon,
Python 3.11, five paired runs) it gave 52.8 ops/s against 69.1.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import LaurentPoly, ValuedScalar

# First precision tried.  On the benchmark workloads N = 4 accepts 97% of the
# canonicalisations of generic-q (pivot sums 0..6, bounds B 9..16) and all of
# close-f3; verify-cli-fp needs 1-4 passes (B up to 62).  Against one pass at
# N = B + 1, doubling from 4 gave 69.1 vs 52.2 ops/s on generic-q and 14.1 vs
# 13.4 on verify-cli-fp (2-vCPU Xeon, Python 3.11, five paired runs).
_START_PRECISION = 4


class SingularMatrixError(ValueError):
    """Raised when generators fail to span a full-rank module."""


def _valuation(series):
    for k, c in enumerate(series):
        if c:
            return k
    return None


def _terms(series, start=0):
    """Nonzero (exponent - start, coefficient) pairs from exponent start on."""
    return [(k - start, c) for k, c in enumerate(series[start:], start) if c]


def _combine(c, y, q, x, prec, p):
    """c*y - q*x modulo t^prec (and p), with q given as terms."""
    out = [c * e for e in y] if c != 1 else y[:]
    xs = _terms(x)
    for a, qa in q:
        for b, xb in xs:
            if a + b >= prec:
                break
            out[a + b] -= qa * xb
    return [e % p for e in out] if p else out


def _unit_inverse(u, prec, p):
    """(w, d) with u*w = d modulo t^prec, for a series u with u[0] != 0.

    Over F_p, d = 1.  Over Q, d = u[0]^prec and w is integral: the recurrence
    keeps w_k = u[0]^(k+1) (1/u)_k, which is an integer.  Each step sums over
    the nonzero terms u[j], j >= 1, only, so a sparse u costs O(prec) steps.
    """
    u0 = u[0]
    if p:
        inv0 = pow(u0, p - 2, p)
        terms = _terms(u[:prec], 1)
    else:
        # u[j] * u0^(j-1), with j counted from 1.
        terms = [(j, uj * u0 ** j) for j, uj in _terms(u[:prec], 1)]
    w = [inv0 if p else 1]
    for k in range(1, prec):
        s = 0
        for j, a in terms:
            if j >= k:
                break
            s += a * w[k - 1 - j]
        w.append(-s * inv0 % p if p else -s)
    if p:
        return w, 1
    return [wk * u0 ** (prec - 1 - k) for k, wk in enumerate(w)], u0 ** prec


def _primitive(col):
    """An integer column divided by the gcd of its coefficients."""
    g = math.gcd(*(e for row in col for e in row))
    if g > 1:
        return [[e // g for e in row] for row in col]
    return col


def _normalize_pivot(col, i, v, prec, p):
    """Multiply a column (zero above row i) by a unit of O so that its row-i
    entry becomes exactly d*t^v."""
    w, d = _unit_inverse(col[i][v:], prec - v, p)
    minus_w = [(k, -c) for k, c in _terms(w)]
    zero = [0] * prec
    pivot = zero[:]
    pivot[v] = d
    out = col[:i] + [pivot]
    # row * w, written as 0 * zero - (-w) * row.
    out += [_combine(0, zero, minus_w, row, prec, p) for row in col[i + 1:]]
    return out if p else _primitive(out)


def _reduce_by(cols, j, i, v, prec, p):
    """Subtract from column j the O-multiple of pivot column i (entry c*t^v in
    row i, zero above) that removes the exponents >= v of its row-i entry."""
    y = cols[j]
    q = _terms(y[i], v)
    if not q:
        return
    piv = cols[i]
    c = piv[i][v]
    out = [[c * e for e in row] for row in y[:i]] if c != 1 else y[:i]
    out += [_combine(c, y[r], q, piv[r], prec, p) for r in range(i, len(y))]
    cols[j] = out if p else _primitive(out)


def _hermite(cols, n, prec, p):
    """Column-reduce in place to the canonical form modulo t^prec; returns the
    pivot exponents, or None when some row has no pivot modulo t^prec."""
    pivots = []
    for i in range(n):
        at = v = None
        for j in range(i, len(cols)):
            vj = _valuation(cols[j][i])
            if vj is not None and (v is None or vj < v):
                at, v = j, vj
        if at is None:
            return None
        cols[i], cols[at] = cols[at], cols[i]
        cols[i] = _normalize_pivot(cols[i], i, v, prec, p)
        for j in range(len(cols)):
            if j != i:
                _reduce_by(cols, j, i, v, prec, p)
        pivots.append(v)
    return pivots


def _smith(cols, n, prec, p):
    """Smith exponents modulo t^prec by min-valuation full pivoting; None
    when the remaining block vanishes modulo t^prec."""
    exps = []
    for i in range(n):
        at = v = None
        for j in range(i, n):
            for r in range(i, n):
                vr = _valuation(cols[j][r])
                if vr is not None and (v is None or vr < v):
                    at, v = (j, r), vr
        if at is None:
            return None
        j, r = at
        cols[i], cols[j] = cols[j], cols[i]
        for col in cols[i:]:
            col[i], col[r] = col[r], col[i]
        cols[i] = _normalize_pivot(cols[i], i, v, prec, p)
        for j in range(i + 1, n):
            _reduce_by(cols, j, i, v, prec, p)
        exps.append(v)
    return exps


def _series_columns(columns, shift, prec, p):
    """Columns of Laurent polynomials as series of t^{-shift} * entry modulo
    t^prec; over Q each column is scaled by a nonzero rational to primitive
    integers."""
    out = []
    for col in columns:
        rows = []
        for poly in col:
            row = [0] * prec
            for k, c in poly.coeffs.items():
                if k - shift < prec:
                    row[k - shift] = c
            rows.append(row)
        if p is None:
            den = math.lcm(*(c.denominator for row in rows for c in row if c))
            rows = _primitive([[c.numerator * (den // c.denominator) if c else 0
                                for c in row] for row in rows])
        out.append(rows)
    return out


def _polynomials(columns, bound):
    """Scalar entries as Laurent polynomials that agree with them below
    t^bound: a scalar with denominator 1 is its numerator, any other is
    expanded as a series."""
    return [[e.num if len(e.den.coeffs) == 1 else e.series_truncate(bound)
             for e in col] for col in columns]


def _least_valuation(matrix):
    vals = [e.valuation() for vec in matrix for e in vec if not e.is_zero()]
    return min(vals) if vals else None


def _degree_bound(columns, n, shift):
    """B of step 3 of the module docstring: an upper bound on v(det) of the
    shifted lattice whenever the generators have full rank."""
    deltas = []
    for col in columns:
        nonzero = [e for e in col if not e.is_zero()]
        if not nonzero:
            continue
        dens = {e.den for e in nonzero}
        deltas.append(max(max(e.num.coeffs) - max(e.den.coeffs) for e in nonzero)
                      - shift + sum(max(d.coeffs) for d in dens))
    return sum(sorted(deltas, reverse=True)[:n])


def canonical_basis(columns, n: int) -> list[list[ValuedScalar]]:
    """The canonical basis (lower-triangular column echelon form, pivots
    t^{d_i}, row i of earlier columns reduced below t^{d_i}) of the lattice
    generated by the given columns of length n."""
    field = columns[0][0].field
    p = field.p
    shift = _least_valuation(columns)
    if shift is None or len(columns) < n:
        raise SingularMatrixError(f"generators have rank < {n}")
    bound = _degree_bound(columns, n, shift)
    prec = min(_START_PRECISION, bound + 1)
    while True:
        cols = _series_columns(_polynomials(columns, shift + prec), shift, prec, p)
        pivots = _hermite(cols, n, prec, p)
        if pivots is not None and sum(pivots) < prec:
            return _read_basis(cols, pivots, shift, field)
        if prec > bound:
            raise SingularMatrixError(f"generators have rank < {n}")
        prec = min(2 * prec, bound + 1)


def _read_basis(cols, pivots, shift, field):
    """The first n columns as scalars, shifted back by t^shift and divided by
    their pivot coefficients (always 1 over F_p)."""
    zero = ValuedScalar.zero(field)
    one = field.one
    basis = []
    for j, d in enumerate(pivots):
        col = cols[j]
        c = col[j][d]
        entries = [zero] * j
        entries.append(ValuedScalar(LaurentPoly(field, {d + shift: one})))
        for row in col[j + 1:]:
            coeffs = {
                k + shift: e if field.p else Fraction(e, c)
                for k, e in enumerate(row) if e
            }
            entries.append(ValuedScalar(LaurentPoly(field, coeffs)) if coeffs else zero)
        basis.append(entries)
    return basis


def smith_exponents(columns, val_det: int) -> list[int]:
    """Weakly increasing Smith exponents of a nonsingular square matrix,
    given as columns of Laurent polynomials, whose determinant has valuation
    val_det."""
    n = len(columns)
    p = columns[0][0].field.p
    shift = _least_valuation(columns)
    if shift is None:
        raise SingularMatrixError("zero matrix has no Smith form")
    prec = val_det - n * shift + 1
    exps = _smith(_series_columns(columns, shift, prec, p), n, prec, p)
    if exps is None or sum(exps) != prec - 1:
        raise ValueError("determinant valuation does not match the matrix")
    return sorted(e + shift for e in exps)
