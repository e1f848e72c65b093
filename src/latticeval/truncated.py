"""Exact column elimination in (F[t]/t^N)^n: canonical bases without the
fraction field.

Notation: O = F[[t]], v the t-adic valuation, and for a full-rank lattice L
in F((t))^n, D(L) = v(det B) for any basis B of L.

Canonical bases.  Let A be an n x m generator matrix of L.
``canonical_basis`` takes its columns as ``densepoly`` pairs with integer
coefficients over Q, the representation ``Lattice.basis`` stores, and
returns the canonical basis in that stored form (see Coefficients), so
everything here is polynomial.  ``LaurentPoly``, ``ValuedScalar`` and
rational generators become integer pairs at the ``Lattice`` boundary
(``lattices.polynomial_column``), before they reach this module.
Let s be the least valuation of the entries, so L' = t^{-s} L lies in O^n;
the canonical basis of L is that of L' multiplied by t^s, and each entry of
t^{-s} A is a polynomial pair cut above t^{N-1} (``densepoly.cut``).

0. Already canonical.  If there are exactly n columns, zero above the
   diagonal, with each pivot exactly t^{d_i} (in the stored form of
   Coefficients) and every entry in row i of an earlier column supported
   below t^{d_i}, they are returned unchanged (a ``det`` given with them
   must equal sum(d_i), as in step 3).  Such
   a basis is unique: if B and B' = B U are two, U in GL_n(O), then U is
   lower triangular and its diagonal entries t^{d'_i - d_i} are units, so
   d' = d and u_ii = 1; by induction on i - j, B'_ij - B_ij = t^{d_i} u_ij
   is both supported below t^{d_i} and divisible by it, hence zero.  So the
   pass accepts exactly the fixed points of the elimination below.
1. Elimination modulo t^N.  Work on columns of pairs of degree < N.  The
   pivot column is multiplied by the inverse of its pivot unit modulo
   t^{N-v}, and every other step is ``densepoly.eliminate``, the step that
   ``densepoly.smith`` also takes: c*y - q*x for the pivot column x, its
   pivot coefficient c and a polynomial q, cut above t^{N-1}.  So every step
   adds an O-multiple of one column to another, multiplies a column by a
   unit of O, or drops multiples of t^N, and the final matrix is
   A U + t^N X with U in GL_m(O), and with t^N O^n its columns generate
   H = L' + t^N O^n.  It is [h | 0] modulo t^N, where h is lower triangular
   with diagonal t^{d_i} and row i reduced below t^{d_i}.
   The residue rung N = 1 needs no elimination.  There h = I exactly when
   the residues of the shifted generators (their t^0 coefficients) span
   F^n, and then D(L') = 0: L' + tO^n = O^n, so L' = O^n by Nakayama's
   lemma, and the basis is t^s I.  The rung is one rank test
   (``subspaces.rank_of``), exact over Q, on the integer columns (below),
   as over F_p: its elimination takes no inverse.
2. Acceptance.  The maximal minors of A U generate the same ideal as those of
   A, namely t^{D(L')} O.  If some row finds no pivot, or sum(d_i) >= N,
   every maximal minor of A U vanishes modulo t^N, so D(L') >= N.  If
   sum(d_i) < N, the minor on the pivot columns is t^{sum(d_i)} modulo t^N,
   so D(L') <= sum(d_i) < N.  Then t^N O^n lies in L' (t^{D(L')} A'^{-1} is
   integral for a basis A' of L'), so H = L'; and t^N O^n lies in
   t^{sum(d_i)} O^n, which lies in span(h), so H = span(h).  Thus h is a
   basis of L' in canonical form: the canonical basis, exactly.
3. Bound.  The entries of column j of t^{-s} A are polynomials of degree
   at most delta_j = max(deg) - s.  A nonzero maximal minor then has
   degree at most B = the sum of the n largest delta_j, so D(L') <= B when
   A has full rank, and by step 2 every N > B is accepted.  The ladder
   starts at the residue rung N = 1 and doubles N, never beyond B + 1;
   failing at N = B + 1 proves that no maximal minor is nonzero, and
   ``SingularMatrixError`` is raised.  A caller that knows D(L) = D(L') + ns
   passes it as ``det``, and the ladder starts at N = D(L') + 1, which step
   2 accepts in one pass with sum(d_i) = D(L'); a pass that accepts with
   another sum proves the value wrong and raises ``ValueError``.  This is
   the Hermite analogue of working modulo the determinant (Domich, Kannan
   and Trotter, Math. Oper. Res. 12, 1987), which ``densepoly.smith`` cites
   too.

Coefficients.  Over F_p the coefficients of a pair are residues.  Over Q they
are integers: a nonzero rational is a unit, so ``lattices.polynomial_column``
writes each input column as integers in one pass (an integral coefficient is
read as an int, and a column is scaled by the lcm of its denominators only
when one is not 1), every column an elimination step writes is divided by
the gcd of its coefficients (``densepoly.cut``), and no polynomial gcd is
taken.  A canonical column over Q is stored as
its primitive integer multiple with a positive pivot coefficient s_j (the
canonical column divided by s_j is ``Lattice.canonical_pairs``).  That
multiple is unique, so equal lattices store equal bases, and step 0 accepts
exactly a single positive pivot coefficient and content 1 (pivot
coefficient 1 over F_p, where s_j = 1).  ``_hermite`` writes only primitive
columns, so the read-out just negates a column with a negative pivot.
Keeping Fraction coefficients instead (dividing by the pivot as over F_p) is
simpler but was slower on the ``generic-q`` benchmark workload.
"""

from __future__ import annotations

import math

from .densepoly import SingularMatrixError, addmul, cut, eliminate, strip
from .subspaces import rank_of


def _unit_inverse(u, prec, p):
    """(w, d) with u*w = d modulo t^prec, for the coefficient list u of a
    unit of O (u[0] != 0); w is a coefficient list of length prec.

    Over F_p, d = 1.  Over Q, d = u[0]^prec and w is integral: the recurrence
    keeps w_k = u[0]^(k+1) (1/u)_k, which is an integer.  Each step sums over
    the nonzero terms u[e], e >= 1, only, so a sparse u costs O(prec) steps.
    """
    u0 = u[0]
    terms = [(e, c) for e, c in enumerate(u[1:prec], 1) if c]
    if p:
        inv0 = pow(u0, -1, p)
    else:
        # w_k = -sum_e u[e] u0^(e-1) w_{k-e}.
        terms = [(e, c * u0 ** (e - 1)) for e, c in terms]
    w = [inv0 if p else 1]
    for k in range(1, prec):
        s = 0
        for e, a in terms:
            if e > k:
                break
            s += a * w[k - e]
        w.append(-s * inv0 % p if p else -s)
    if p:
        return w, 1
    return [wk * u0 ** (prec - 1 - k) for k, wk in enumerate(w)], u0 ** prec


def _normalize_pivot(col, i, prec, p):
    """Multiply a column (zero above row i, cut above t^(prec-1)) by a unit
    of O so that its row-i entry t^v u becomes exactly d*t^v: by w with u*w =
    d modulo t^(prec-v).  A constant unit needs no inverse: over Q it is the
    d, over F_p the column is scaled by its inverse."""
    v, u = col[i]
    if len(u) == 1:
        if p is None or u[0] == 1:
            return col
        inv = pow(u[0], -1, p)
        return [None if e is None else (e[0], [c * inv % p for c in e[1]]) for e in col]
    w, d = _unit_inverse(u, prec - v, p)
    w = strip(0, w)
    return cut(col[:i] + [(v, [d])] + [None if e is None else addmul(None, e, w, 1, p)
                                       for e in col[i + 1:]], prec - 1, p)


def _hermite(cols, prec, n, p):
    """Column-reduce in place to the canonical form modulo t^prec; returns the
    pivot exponents, or None when some row has no pivot modulo t^prec.

    After the pivot column x is normalized, its row i is c*t^v, and every
    other column y with a term of exponent >= v in row i becomes c*y - q*x
    (``densepoly.eliminate``, cut above t^(prec-1)), with q those terms
    divided by t^v.  For a later column, q is the whole entry over t^v (the
    pivot has the least valuation); for an earlier one, q is its terms from
    t^v on, and its row i keeps c times its part below t^v."""
    pivots = []
    for i in range(n):
        at = v = None
        for j in range(i, len(cols)):
            e = cols[j][i]
            if e is not None and (v is None or e[0] < v):
                at, v = j, e[0]
        if at is None:
            return None
        cols[i], cols[at] = cols[at], cols[i]
        x = cols[i] = _normalize_pivot(cols[i], i, prec, p)
        c = 0, x[i][1]
        for j, y in enumerate(cols):
            e = y[i]
            if j == i or e is None:
                continue
            q = (e[0] - v, e[1]) if e[0] >= v else strip(0, e[1][v - e[0]:])
            if q is not None:
                cols[j] = eliminate(c, y, q, x, prec - 1, p)
        pivots.append(v)
    return pivots


def _residues_span(columns, n, field):
    """The residue rung of step 1: whether the t^0 coefficients of the
    shifted generators span F^n, that is whether D(L') = 0."""
    rows = [[e[1][0] if e is not None and not e[0] else 0 for e in col] for col in columns]
    return rank_of(rows, n, field) == n


def _least_valuation(matrix):
    vals = [e[0] for vec in matrix for e in vec if e is not None]
    return min(vals) if vals else None


def _degree_bound(columns, n):
    """B of step 3 of the module docstring for the shifted generators: an
    upper bound on v(det) whenever they have full rank."""
    deltas = [max(e[0] + len(e[1]) for e in col if e is not None) - 1
              for col in columns if any(e is not None for e in col)]
    return sum(sorted(deltas, reverse=True)[:n])


def _is_canonical(columns, p):
    """Step 0 of the module docstring: whether the columns are canonical,
    in their stored form over Q (see Coefficients)."""
    for i, col in enumerate(columns):
        pivot = col[i]
        if pivot is None or len(pivot[1]) != 1 or any(e is not None for e in col[:i]):
            return False
        d, s = pivot[0], pivot[1][0]
        if (s != 1 if p else s < 0 or math.gcd(*(c for e in col[i:] if e is not None
                                                 for c in e[1])) != 1):
            return False
        if any(prev[i] is not None and prev[i][0] + len(prev[i][1]) > d for prev in columns[:i]):
            return False
    return True


def canonical_basis(columns, n: int, field, det: int | None = None) -> tuple[tuple, ...]:
    """The canonical basis (lower-triangular column echelon form, pivots
    t^{d_i}, row i of earlier columns reduced below t^{d_i}) of the lattice
    over ``field`` generated by the given columns of n ``densepoly`` pairs,
    with integer coefficients over Q, as a tuple of columns of pairs in the
    stored form of Coefficients.  ``det``, when the caller knows it, is
    v(det) of that lattice: the ladder then starts where step 3 of the
    module docstring says, and ``ValueError`` is raised if it is wrong."""
    p = field.p
    if len(columns) == n and _is_canonical(columns, p):
        if det is not None and sum(col[i][0] for i, col in enumerate(columns)) != det:
            raise ValueError(f"v(det) of the lattice is not {det}")
        return tuple(map(tuple, columns))
    low = _least_valuation(columns)
    if low is None or len(columns) < n:
        raise SingularMatrixError(f"generators have rank < {n}")
    columns = [[None if e is None else (e[0] - low, e[1]) for e in col] for col in columns]
    target = None if det is None else det - n * low
    prec = 1 if target is None else max(1, target + 1)
    bound = None
    while True:
        if prec == 1:
            cols = None
            pivots = [0] * n if _residues_span(columns, n, field) else None
        else:
            cols = [cut(col, prec - 1, p) for col in columns]
            pivots = _hermite(cols, prec, n, p)
        if pivots is not None and sum(pivots) < prec:
            if target is not None and sum(pivots) != target:
                raise ValueError(f"v(det) of the lattice is {sum(pivots) + n * low}, not {det}")
            return _read_basis(cols, pivots, low)
        if bound is None:
            bound = _degree_bound(columns, n)
        if prec > bound:
            raise SingularMatrixError(f"generators have rank < {n}")
        prec = min(2 * prec, bound + 1)


def _read_basis(cols, pivots, low):
    """The first n columns, shifted back by t^low, in the stored form: every
    column that ``_hermite`` writes is already primitive over Q, so it is
    only negated when its pivot coefficient is negative (which
    ``_unit_inverse`` allows); t^low I after the residue rung, which leaves
    cols None."""
    n = len(pivots)
    if cols is None:
        one = (low, [1])
        return tuple(tuple(one if i == j else None for i in range(n)) for j in range(n))
    basis = []
    for j in range(n):
        neg = cols[j][j][1][0] < 0
        basis.append(tuple(None if e is None else (e[0] + low, [-c for c in e[1]] if neg else e[1])
                           for e in cols[j]))
    return tuple(basis)
