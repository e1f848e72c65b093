"""Exact column elimination in (F[t]/t^N)^n: canonical bases without the
fraction field.

Notation: O = F[[t]], v the t-adic valuation, and for a full-rank lattice L
in F((t))^n, D(L) = v(det B) for any basis B of L.

Canonical bases.  Let A be an n x m generator matrix of L.
``canonical_basis`` takes its columns as ``densepoly`` pairs, the
representation ``Lattice.basis`` stores, and returns the canonical basis in
pairs too.  A generator entry given as a ``ValuedScalar`` num/den has den of
valuation 0 and constant term 1, a unit of O; ``polynomial_column``, which
``Lattice.from_generators`` applies to each column once, multiplies the
column by the product of its distinct denominators, an exact polynomial
product and again a unit, which leaves the lattice alone and makes every
entry a Laurent polynomial pair; from there on everything is polynomial.  Let s be the least valuation of the
entries, so L' = t^{-s} L lies in O^n; the canonical basis of L is that of L'
multiplied by t^s, and each entry is read as a series modulo t^N.

0. Already canonical.  If there are exactly n columns, zero above the
   diagonal, with each pivot exactly t^{d_i} and every entry in row i of an
   earlier column supported below t^{d_i}, they are returned unchanged.  Such
   a basis is unique: if B and B' = B U are two, U in GL_n(O), then U is
   lower triangular and its diagonal entries t^{d'_i - d_i} are units, so
   d' = d and u_ii = 1; by induction on i - j, B'_ij - B_ij = t^{d_i} u_ij
   is both supported below t^{d_i} and divisible by it, hence zero.  So the
   pass accepts exactly the fixed points of the elimination below.
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
3. Bound.  After the denominators are cleared, the entries of column j of
   t^{-s} A are polynomials of degree at most delta_j = max(deg) - s.  A
   nonzero maximal minor then has degree at most B = the sum of the n
   largest delta_j, so D(L') <= B when A has full rank, and by step 2 every
   N > B is accepted.  The search starts at a small N
   and doubles it, never beyond B + 1; failing at N = B + 1 proves that no
   maximal minor is nonzero, and ``SingularMatrixError`` is raised.

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

from .densepoly import SingularMatrixError, addmul, from_poly, strip
from .scalars import LaurentPoly, ValuedScalar

# First precision tried.  On the benchmark workloads N = 4 accepts 97% of the
# canonicalisations of generic-q (pivot sums 0..6, bounds B 9..16) and all of
# close-f3; verify-cli-fp needs 1-4 passes (B up to 62).  Against one pass at
# N = B + 1, doubling from 4 gave 69.1 vs 52.2 ops/s on generic-q and 14.1 vs
# 13.4 on verify-cli-fp (2-vCPU Xeon, Python 3.11, five paired runs).
_START_PRECISION = 4


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


def _series_columns(columns, shift, prec, p):
    """Columns of pairs as series of t^{-shift} * entry modulo t^prec; over Q
    each column is scaled by a nonzero rational to primitive integers."""
    out = []
    for col in columns:
        rows = []
        for e in col:
            row = [0] * prec
            if e is not None and e[0] - shift < prec:
                off = e[0] - shift
                c = e[1][:prec - off]
                row[off:off + len(c)] = c
            rows.append(row)
        if p is None:
            den = math.lcm(*(c.denominator for row in rows for c in row if c))
            rows = _primitive([[c.numerator * (den // c.denominator) if c else 0
                                for c in row] for row in rows])
        out.append(rows)
    return out


def column_field(columns):
    """The field of the first ``LaurentPoly`` or ``ValuedScalar`` entry;
    columns of pairs alone do not name it."""
    for col in columns:
        for e in col:
            if e is not None and type(e) is not tuple:
                return e.field
    raise ValueError("columns of densepoly pairs need their field")


def polynomial_column(col, p) -> list:
    """A column of pair, ``LaurentPoly`` and ``ValuedScalar`` entries as
    pairs, multiplied by the product of its distinct denominators (a unit of
    O); no gcd is taken.  A column of pairs is returned as it is."""
    if all(e is None or type(e) is tuple for e in col):
        return col
    dens = {e.den for e in col if type(e) is ValuedScalar and len(e.den.coeffs) > 1}
    dens = {d: from_poly(d) for d in dens}
    out = []
    for e in col:
        if type(e) is ValuedScalar:
            x, own = from_poly(e.num), e.den
        else:
            x, own = (from_poly(e) if type(e) is LaurentPoly else e), None
        for d, pd in dens.items():
            if x is not None and d != own:
                x = addmul(None, x, pd, 1, p)
        out.append(x)
    return out


def _least_valuation(matrix):
    vals = [e[0] for vec in matrix for e in vec if e is not None]
    return min(vals) if vals else None


def _degree_bound(columns, n, shift):
    """B of step 3 of the module docstring: an upper bound on v(det) of the
    shifted lattice whenever the generators have full rank."""
    deltas = [max(e[0] + len(e[1]) for e in col if e is not None) - 1 - shift
              for col in columns if any(e is not None for e in col)]
    return sum(sorted(deltas, reverse=True)[:n])


def _is_canonical(columns):
    """Step 0 of the module docstring: whether the columns are canonical."""
    for i, col in enumerate(columns):
        pivot = col[i]
        if pivot is None or len(pivot[1]) != 1 or any(e is not None for e in col[:i]):
            return False
        d = pivot[0]
        if pivot[1][0] != 1 or any(prev[i] is not None and prev[i][0] + len(prev[i][1]) > d
                                   for prev in columns[:i]):
            return False
    return True


def canonical_basis(columns, n: int, field) -> tuple[tuple, ...]:
    """The canonical basis (lower-triangular column echelon form, pivots
    t^{d_i}, row i of earlier columns reduced below t^{d_i}) of the lattice
    over ``field`` generated by the given columns of n ``densepoly`` pairs,
    as a tuple of columns of pairs."""
    if len(columns) == n and _is_canonical(columns):
        return tuple(map(tuple, columns))
    p = field.p
    shift = _least_valuation(columns)
    if shift is None or len(columns) < n:
        raise SingularMatrixError(f"generators have rank < {n}")
    bound = _degree_bound(columns, n, shift)
    prec = min(_START_PRECISION, bound + 1)
    while True:
        cols = _series_columns(columns, shift, prec, p)
        pivots = _hermite(cols, n, prec, p)
        if pivots is not None and sum(pivots) < prec:
            return _read_basis(cols, pivots, shift, field)
        if prec > bound:
            raise SingularMatrixError(f"generators have rank < {n}")
        prec = min(2 * prec, bound + 1)


def _read_basis(cols, pivots, shift, field):
    """The first n columns as pairs, shifted back by t^shift and divided by
    their pivot coefficients (always 1 over F_p)."""
    basis = []
    for j, d in enumerate(pivots):
        col = cols[j]
        c = col[j][d]
        entries = [None] * j
        entries.append((d + shift, [field.one]))
        for row in col[j + 1:]:
            e = strip(shift, row)
            if e is not None and not field.p:
                e = e[0], [Fraction(x, c) for x in e[1]]
            entries.append(e)
        basis.append(tuple(entries))
    return tuple(basis)
