"""The k-ary determinantal valuation f^t_{i_1,...,i_k} and network costs.

The valuation is an exact maximum of -val(det) over all choices of i_j
vectors from the j-th lattice.  By multilinearity of the determinant and the
ultrametric inequality, the maximum over module elements is attained on
subsets of any fixed generating basis, so the search space collapses to
prod_j C(n, i_j) exact determinant evaluations over Laurent polynomials.

Each determinant is fraction-free Bareiss elimination on plain integers in
the (valuation, coefficient list) pairs of ``densepoly``.  ``multi_f_detail``
runs it on the stored bases as they are: over Q each stored column is an
integer multiple s_j of its canonical column, and scaling columns by
nonzero rationals moves no valuation.  ``det_poly``, for pairs that callers
supply, multiplies each row over Q by the lcm of its entries' denominators
(``lattices.integer_column``) and divides the result by the product of
those lcms; over F_p the coefficients stay residues.  Every Bareiss quotient
is a minor of the integer matrix, so each division by the previous pivot is
exact and its long division from the top coefficient stays in the integers;
a remainder can only mean a fault and raises ``ValueError``.  The test
reference ``det_scalar`` reads the determinant off ``metric.smith_elimination``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .densepoly import cross, divexact, from_poly, to_poly
from .lattices import Lattice, SingularMatrixError, integer_column
from .metric import binary_f, distance, fundamental_weight, pair, smith_elimination
from .scalars import ValuedScalar


def det_poly(mat, field=None):
    """Fraction-free (Bareiss) determinant of a row-major matrix.

    With ``field`` the entries are ``densepoly`` pairs and the result is a
    pair, or None for zero; over Q each row is first multiplied by the lcm
    of its entries' denominators and the result divided by the product of
    those lcms.  Without ``field`` the entries are ``LaurentPoly`` and so is
    the result.  The divisions by the previous pivot are exact because each
    quotient is a minor; a remainder raises ``ValueError``.  The pivot is
    the first nonzero entry at or below the diagonal, with a sign flip for
    each row swap.
    """
    if field is None:
        field = mat[0][0].field
        return to_poly(field, det_poly([[from_poly(e) for e in row] for row in mat], field))
    rows, mults = zip(*(integer_column(row, field.p) for row in mat))
    d = _bareiss([list(row) for row in rows], field.p)
    scale = math.prod(mults)
    if d is None or scale == 1:
        return d
    return d[0], [Fraction(c, scale) for c in d[1]]


def _bareiss(m, p):
    """The determinant of a square matrix of pairs (integers over Q), as a
    pair or None; the rows of m are overwritten."""
    n = len(m)
    if n == 1:
        return m[0][0]
    sign = 1
    prev = None
    for i in range(n - 1):
        if m[i][i] is None:
            for r in range(i + 1, n):
                if m[r][i] is not None:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return None
        piv, row_i = m[i][i], m[i]
        for row in m[i + 1:]:
            x = row[i]
            for c in range(i + 1, n):
                z, y = row[c], row_i[c]
                if z is None and (x is None or y is None):
                    continue
                num = cross(piv, z, x, y, p)
                row[c] = num if prev is None or num is None else divexact(num, prev, p)
            row[i] = None
        prev = piv
    d = m[n - 1][n - 1]
    if d is None or sign == 1:
        return d
    v, coeffs = d
    return v, [-c if p is None else -c % p for c in coeffs]


def det_scalar(mat: list[list[ValuedScalar]]) -> ValuedScalar:
    """Determinant of a general exact-scalar matrix, read from its Smith
    elimination; zero when the elimination finds the matrix singular."""
    try:
        return smith_elimination(mat)[3]
    except SingularMatrixError:
        return ValuedScalar.zero(mat[0][0].field)


def _check_index(idx, n: int):
    if any(i < 0 for i in idx):
        raise ValueError("indices must be nonnegative")
    if sum(idx) != n:
        raise ValueError(f"indices must sum to the rank {n}, got {tuple(idx)}")


def multi_f_detail(idx, lattices: list[Lattice]):
    """f^t_{i_1,...,i_k} together with a maximizing basis-subset selection.

    Returns (value, selection) where selection[j] is the tuple of canonical
    column indices chosen from the j-th lattice.
    """
    n = lattices[0].n
    if any(l.n != n for l in lattices):
        raise ValueError("rank mismatch")
    if len(idx) != len(lattices):
        raise ValueError("one index per lattice required")
    _check_index(idx, n)
    p = lattices[0].field.p
    bases = [l.basis for l in lattices]
    col_vals = [[min(e[0] for e in col if e is not None) for col in b] for b in bases]
    best = None
    best_sel = None
    choices = [
        list(itertools.combinations(range(n), i)) for i, _ in zip(idx, lattices)
    ]
    for sel in itertools.product(*choices):
        # -val(det) <= -sum of columnwise minimal valuations; prune early.
        ub = -sum(col_vals[j][c] for j, cols in enumerate(sel) for c in cols)
        if best is not None and ub <= best:
            continue
        cols = [bases[j][c] for j, chosen in enumerate(sel) for c in chosen]
        d = _bareiss([list(row) for row in zip(*cols)], p)
        if d is None:
            continue
        v = -d[0]
        if best is None or v > best:
            best, best_sel = v, sel
    if best is None:
        raise AssertionError("no nonsingular selection exists; lattices degenerate")
    return best, best_sel


def multi_f(idx, lattices: list[Lattice]) -> int:
    """The k-ary determinantal valuation f^t_{i_1,...,i_k}(L_1,...,L_k)."""
    # The value is symmetric under jointly permuting indices and lattices,
    # so cache it under a sorted key.
    key = tuple(sorted(zip(idx, lattices), key=lambda p: (p[0], hash(p[1]))))
    try:
        return _MULTI_F_CACHE[key]
    except KeyError:
        pass
    value = multi_f_detail(idx, lattices)[0]
    if len(_MULTI_F_CACHE) >= 1 << 17:
        _MULTI_F_CACHE.clear()
    _MULTI_F_CACHE[key] = value
    return value


_MULTI_F_CACHE: dict = {}


def star_cost(idx, lattices: list[Lattice], p: Lattice) -> int:
    """Cost of the star network through internal lattice P:
    sum_j f^t_{i_j, n-i_j}(L_j, P) - (k-1) f^t_n(P)."""
    n = lattices[0].n
    _check_index(idx, n)
    k = len(lattices)
    total = sum(binary_f(i, n - i, l, p) for i, l in zip(idx, lattices))
    return total - (k - 1) * p.unary_f()


def edge_reduction_check(i: int, j: int, l: Lattice, m: Lattice) -> bool:
    """Edge functions recover the distance: the brute-force binary valuation,
    the invariant-factor formula, and the weight pairing (plus the f^t_n(L)
    normalization correction) must all agree."""
    n = l.n
    if i + j != n:
        raise ValueError("indices must sum to the rank")
    brute = multi_f((i, j), [l, m])
    formula = binary_f(i, j, l, m)
    paired = pair(fundamental_weight(n, j), distance(l, m)) + l.unary_f()
    return brute == formula == paired
