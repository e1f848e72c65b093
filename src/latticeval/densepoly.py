"""Laurent polynomials as (valuation, dense coefficient list) pairs.

A nonzero Laurent polynomial c_0 t^v + c_1 t^{v+1} + ... + c_d t^{v+d} is the
pair (v, [c_0, ..., c_d]) with c_0 and c_d nonzero; ``None`` stands for zero.
Over F_p (p a prime) the coefficients are residues in [0, p).  Over Q (p is
None) they are integers everywhere in this module: stored bases, frames,
coordinates (``forward_substitute`` returns them scaled by the product S of
the pivot coefficients) and the rows ``smith`` takes; rational input becomes
integer pairs at the ``Lattice`` boundary.  A shift by t^k only moves v, and
the inner loops run over plain lists, with no dict and no field object per
coefficient.  No function here mutates a pair it is given, so pairs and their
lists may be shared.

This is the one column representation of the library: ``Lattice.basis``
holds the canonical basis as columns of pairs (over Q each column scaled to
a primitive integer column, see ``truncated``), ``truncated`` reads and
returns them, and ``LaurentPoly`` is built only where a caller hands one in
or asks for one (``from_poly``, ``to_poly``).  The module is also the
arithmetic kernel of ``detval.det_poly`` (fraction-free Bareiss on integer
lists), of ``Lattice.pair_coordinates`` (fraction-free forward
substitution), of changes of coordinates (``combine``) and of the library's
two bounded-precision eliminations: the one Smith elimination (``smith``),
which gives the invariant factors of ``metric.relative_invariants``, the
membership test of the apartment search (row steps only) and the frame it
finds, and ``truncated``'s Hermite elimination for canonical bases.  Both
step through ``eliminate`` (u*y - q*x entrywise) and cut their rows or
columns above a power of t with ``cut``, which over Q also divides out their
content.  ``divexact`` needs integer coefficients over Q.
"""

from __future__ import annotations

import math

from .scalars import LaurentPoly


class SingularMatrixError(ValueError):
    """Raised when generators fail to span a full-rank module."""


def from_terms(co: dict):
    """The pair of an {exponent: coefficient} dict without zero values, or
    None for the empty dict."""
    if not co:
        return None
    if len(co) == 1:
        ((lo, x),) = co.items()
        return lo, [x]
    lo = min(co)
    dense = [0] * (max(co) - lo + 1)
    for e, x in co.items():
        dense[e - lo] = x
    return lo, dense


def from_poly(poly: LaurentPoly):
    """The pair of a ``LaurentPoly``, or None for zero."""
    return from_terms(poly.coeffs)


def to_poly(field, pair) -> LaurentPoly:
    """The ``LaurentPoly`` over ``field`` of a pair or None."""
    if pair is None:
        return LaurentPoly.zero(field)
    v, coeffs = pair
    return LaurentPoly(field, {v + k: c for k, c in enumerate(coeffs)})


def strip(v, coeffs):
    """The pair of t^v (c_0 + c_1 t + ...) for a list that may have zero end
    coefficients, or None when all are zero."""
    lo, hi = 0, len(coeffs)
    while lo < hi and not coeffs[lo]:
        lo += 1
    if lo == hi:
        return None
    while not coeffs[hi - 1]:
        hi -= 1
    return v + lo, coeffs[lo:hi]


def shift(pair, k):
    """t^k times a pair or None."""
    return None if pair is None else (pair[0] + k, pair[1])


def cross(a, z, x, y, p):
    """a*z - x*y for a nonzero a; any of z, x, y may be None.  The result is
    reduced mod p when p is set and stripped of zero end coefficients, or
    None."""
    if x is None or y is None:
        if z is None:
            return None
        v, out = a[0] + z[0], conv(a[1], z[1], 1)
    elif z is None:
        v, out = x[0] + y[0], conv(x[1], y[1], -1)
    else:
        return _merge(a[0] + z[0], conv(a[1], z[1], 1), x[0] + y[0],
                      conv(x[1], y[1], -1), p)
    # One product of stripped polynomials over a domain needs no stripping.
    if p is not None:
        out = [c % p for c in out]
    return v, out


def addmul(acc, f, g, s, p):
    """acc + s*f*g for nonzero f and g and an integer s; acc may be None.
    Reduced and stripped as in ``cross``."""
    v, out = f[0] + g[0], conv(f[1], g[1], s)
    if acc is None:
        if p is not None:
            out = [c % p for c in out]
        return v, out
    return _merge(v, out, acc[0], acc[1], p)


def combine(cols, coeffs, p):
    """sum_k coeffs[k] * cols[k] for columns of pairs and pair (or None)
    coefficients, as a column of pairs."""
    out = [None] * len(cols[0])
    for col, c in zip(cols, coeffs):
        if c is not None:
            out = [x if y is None else addmul(x, y, c, 1, p) for x, y in zip(out, col)]
    return out


def cut(row, top, p):
    """A row or column of pairs without its terms above t^top; over Q, with
    integer coefficients, also divided by their gcd, a unit of O."""
    end = top + 1
    out = [e if e is None or e[0] + len(e[1]) <= end else
           None if e[0] > top else strip(e[0], e[1][:end - e[0]]) for e in row]
    if p is None:
        g = 0
        for e in out:
            if e is not None:
                g = math.gcd(g, *e[1])
                if g == 1:
                    return out
        if g > 1:
            out = [None if e is None else (e[0], [c // g for c in e[1]]) for e in out]
    return out


def eliminate(u, y, q, x, top, p):
    """u*y - q*x entrywise for rows or columns y and x of pairs, a nonzero
    pair u and a pair (or None) q: the step of both eliminations, ``smith``
    and ``truncated``'s canonical bases.  With ``top`` the result is
    ``cut`` above t^top (and, over Q, made primitive); ``top`` None leaves
    it whole."""
    out = [cross(u, z, q, w, p) for z, w in zip(y, x)]
    return out if top is None else cut(out, top, p)


def smith(m, p, carry, top=None):
    """A fraction-free Smith diagonalization over O = F[[t]] of a nonsingular
    row-major matrix of pairs, with integer coefficients over Q.

    Returns (exps, carry . C) with C in GL_n(O) such that R . m . C =
    diag(t^{e_i} w_i) for some R in GL_n(O) and units w_i; the e_i are the
    Smith exponents, weakly increasing.  The column swaps and steps that
    build C act in place on ``carry``, a list of rows of n pairs: identity
    rows give C itself.  An empty ``carry`` runs only the row steps and
    returns (exps, R . m . P), P a permutation of the first n columns; the n
    rows of m may be wider than n.  The pivot search and the column swaps
    touch only the first n columns and the row steps act on whole rows, so
    columns appended to m come out as R times them.  The pivots are chosen
    as in ``metric.smith_elimination`` (minimal valuation, ties broken by
    lowest (row, column)), but a step multiplies by the pivot unit u instead
    of dividing by it, so every entry stays a Laurent polynomial.  Each row
    and column is then a unit multiple of the one ``smith_elimination`` has
    at the same step: the valuations and pivots agree, and the two column
    transforms differ only by a diagonal of units.

    ``top``, legal only with an empty ``carry``, is a bound e_n <= top on the
    largest exponent; ``metric.relative_invariants`` passes D - (n-1) e_1,
    with D = v(det m) and e_1 the least entry valuation (the other exponents
    are at least e_1 and all n sum to D).  With it, every entry is cut above
    t^top at the start and after each row step, and over Q each row is kept
    primitive.  This is exact.  For K = top + 1 > e_n, A^{-1} t^K X has
    valuation >= 1 for every integral X, so A + t^K X = A (I + A^{-1} t^K X)
    is A times an element of GL_n(O) and has A's exponents.  The steps are
    O-unimodular (a nonzero rational is a unit of O), so the matrix stays R
    . m + t^K X throughout, and its exponents are m's.  It is the
    valuation-ring analogue of Hermite form modulo the determinant (Domich,
    Kannan and Trotter, Math. Oper. Res. 12, 1987).

    The column steps, which only build C, are skipped whenever ``carry`` is
    empty: after the row steps at step i the pivot has the least valuation in
    its row, and clearing that row would only scale later columns by u,
    which moves no valuation, no pivot and no exponent.  The later pivot
    units and row multipliers then differ by units, so each row of R is a
    unit multiple of the one the full elimination builds.
    """
    n = len(m)
    if carry and top is not None:
        raise ValueError("a Smith elimination cut at top carries no rows")
    m = [list(row) if top is None else cut(row, top, p) for row in m]
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
        for row in m + carry:
            row[i], row[cc] = row[cc], row[i]
        u = (0, m[i][i][1])
        # A row step computes only the columns after i: the earlier ones are
        # None in both rows, and column i becomes zero.
        head, pivot_row = [None] * (i + 1), m[i][i + 1:]
        for rr in range(i + 1, n):
            x = m[rr][i]
            if x is not None:
                m[rr] = head + eliminate(u, m[rr][i + 1:], (x[0] - best, x[1]), pivot_row, top, p)
        exps.append(best)
        if not carry:
            continue
        # Column i is now zero below the pivot, so a column step clears row i
        # and scales the rest of column cc by u.
        for cc in range(i + 1, n):
            x = m[i][cc]
            if x is not None:
                q = (x[0] - best, x[1])
                for row in carry:
                    row[cc] = cross(u, row[cc], q, row[i], p)
                for row in m[i + 1:]:
                    row[cc] = cross(u, row[cc], None, None, p)
                m[i][cc] = None
    return exps, carry or m


def _merge(v, out, w, low, p):
    """t^v out + t^w low, reduced and stripped; out is consumed, low only
    read."""
    if v > w:
        out[:0] = [0] * (v - w)
        v = w
    w -= v
    out.extend([0] * (w + len(low) - len(out)))
    for k, c in enumerate(low, w):
        out[k] += c
    if p is not None:
        out = [c % p for c in out]
    return strip(v, out)


def conv(f, g, s):
    """The coefficient list of s * f * g."""
    if len(f) == 1:
        c = s * f[0]
        return [c * x for x in g]
    if len(g) == 1:
        c = s * g[0]
        return [c * x for x in f]
    out = [0] * (len(f) + len(g) - 1)
    for j, c in enumerate(f):
        if c:
            c *= s
            for k, x in enumerate(g, j):
                out[k] += c * x
    return out


def divexact(a, b, p):
    """Exact quotient a / b of nonzero pairs over Z (p is None) or F_p, by
    long division from the top coefficient.  Raises ``ValueError`` if the
    division leaves a remainder."""
    av, al = a
    bv, bl = b
    nb = len(bl)
    nq = len(al) - nb + 1
    if nq < 1:
        raise ValueError("inexact polynomial division")
    lead = bl[-1]
    inv = None if p is None else pow(lead, -1, p)
    rem = list(al)
    q = [0] * nq
    for k in range(nq - 1, -1, -1):
        c = rem[k + nb - 1]
        if p is None:
            c, r = divmod(c, lead)
            if r:
                raise ValueError("inexact polynomial division")
        else:
            c = c * inv % p
        if c:
            q[k] = c
            for j in range(nb - 1):
                rem[k + j] -= c * bl[j]
    if any(rem[:nb - 1] if p is None else (c % p for c in rem[:nb - 1])):
        raise ValueError("inexact polynomial division")
    return av - bv, q


def forward_substitute(below, diagonal, col, p):
    """S x with T x = col, T lower triangular with the nonzero entries left of
    the diagonal in row i given as (j, pair) in below[i], the monomial
    diagonal[i] = s_i t^{d_i} as a pair, and S the product of the s_i (1
    over F_p).  Over Q, with integer T and col, S T^{-1} = adj(T) t^{-D} is
    integral (fraction-free elimination: Bareiss, Math. Comp. 22, 1968), so
    each division by s_i t^{d_i} is a shift and an exact ``divexact``, which
    raises ``ValueError`` on a remainder that a non-integer col leaves."""
    scale = 1 if p is not None else math.prod(s for _, (s,) in diagonal)
    x = []
    for i, pivot in enumerate(diagonal):
        acc = col[i]
        if acc is not None and scale != 1:
            acc = acc[0], [c * scale for c in acc[1]]
        for j, b in below[i]:
            if x[j] is not None:
                acc = addmul(acc, b, x[j], -1, p)
        if acc is not None:
            acc = (acc[0] - pivot[0], acc[1]) if pivot[1][0] == 1 else divexact(acc, pivot, p)
        x.append(acc)
    return x
