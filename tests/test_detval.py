"""Determinant valuations: multi-lattice tropical functions and star costs."""

import itertools
import random
from fractions import Fraction

import pytest

from latticeval.densepoly import divexact as _divexact
from latticeval.densepoly import from_poly, to_poly
from latticeval.detval import (
    det_poly,
    det_scalar,
    edge_reduction_check,
    multi_f,
    multi_f_detail,
    star_cost,
)
from latticeval.lattices import Lattice, SingularMatrixError, integer_column
from latticeval.randgen import random_lattice
from latticeval.scalars import GF, RATIONAL, LaurentPoly, ValuedScalar

FIELDS = [RATIONAL, GF(2), GF(3), GF(101)]
FIELD_IDS = ["QQ", "GF2", "GF3", "GF101"]
RATIONAL_COEFFS = [Fraction(c) for c in (1, -1, 2, -3)] + [
    Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(1, 9), Fraction(-4, 9)]


def S(e, c=1, field=RATIONAL):
    return ValuedScalar.t_power(field, e, field.from_int(c))


def Z(field=RATIONAL):
    return ValuedScalar.zero(field)


def line_lattice(vec, n, field=RATIONAL):
    """E + t^-1 <vec> for an integer vector."""
    e = Lattice.standard(n, field)
    gens = [list(c) for c in e.columns]
    gens.append([S(-1, c, field) if c else Z(field) for c in vec])
    return Lattice.from_generators(gens, n)


def reference_det_poly(mat):
    """Bareiss on LaurentPoly entries (the elimination det_poly replaced):
    every product and exact division is LaurentPoly arithmetic."""
    n = len(mat)
    field = mat[0][0].field
    if n == 1:
        return mat[0][0]
    m = [row[:] for row in mat]
    sign = 1
    prev = LaurentPoly.one(field)
    for i in range(n - 1):
        if m[i][i].is_zero():
            for r in range(i + 1, n):
                if not m[r][i].is_zero():
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return LaurentPoly.zero(field)
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[i][i] * m[r][c] - m[r][i] * m[i][c]).divexact(prev)
            m[r][i] = LaurentPoly.zero(field)
        prev = m[i][i]
    d = m[n - 1][n - 1]
    return d if sign == 1 else -d


def random_poly(rng, field, density=0.4):
    """A sparse Laurent polynomial on exponents [-2, 2]; over Q the
    coefficients have denominators 1, 2, 3, 7 and 9."""
    coeffs = {}
    for e in range(-2, 3):
        if rng.random() < density:
            coeffs[e] = (rng.choice(RATIONAL_COEFFS) if field.is_rational
                         else field.from_int(rng.randint(1, 200)))
    return LaurentPoly(field, coeffs)


def random_matrix(rng, field, n, density=0.4):
    return [[random_poly(rng, field, density) for _ in range(n)] for _ in range(n)]


def permuted_triangular(rng, field, n):
    """Rows of an upper-triangular matrix with nonzero diagonal, shuffled, so
    the (0, 0) entry and later pivots are often zero; returns the matrix and
    its determinant sign(perm) * prod(diagonal)."""
    diag = []
    while len(diag) < n:
        d = random_poly(rng, field, 0.6)
        if not d.is_zero():
            diag.append(d)
    upper = [[diag[r] if r == c else random_poly(rng, field) if c > r
              else LaurentPoly.zero(field) for c in range(n)] for r in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(n), 2))
    det = LaurentPoly.one(field)
    for d in diag:
        det = det * d
    return [upper[r] for r in perm], det if inversions % 2 == 0 else -det


def singular_matrix(rng, field, n):
    """A zero row, or a column that is a combination of two others."""
    mat = random_matrix(rng, field, n)
    if n == 1 or rng.random() < 0.5:
        mat[rng.randrange(n)] = [LaurentPoly.zero(field)] * n
        return mat
    *others, c = rng.sample(range(n), min(n, 3))
    weights = [random_poly(rng, field, 0.6) for _ in others]
    for row in mat:
        row[c] = LaurentPoly.zero(field)
        for j, w in zip(others, weights):
            row[c] = row[c] + row[j] * w
    return mat


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_det_poly_matches_reference(field):
    rng = random.Random(41 + (field.p or 0))
    for trial in range(150):
        n = 1 + trial % 5
        mat = random_matrix(rng, field, n, density=rng.choice((0.2, 0.4, 0.7)))
        assert det_poly(mat) == reference_det_poly(mat)
        mat, det = permuted_triangular(rng, field, n)
        assert det_poly(mat) == reference_det_poly(mat) == det
        mat = singular_matrix(rng, field, n)
        assert det_poly(mat).is_zero() and reference_det_poly(mat).is_zero()


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_det_poly_on_stored_pairs_matches_reference(field):
    """det_poly on densepoly pairs as lattices store them (over Q, Fraction
    coefficients with denominators 2, 3, 7 and 9) scales them itself and
    returns the exact determinant, leaving its input as it was."""
    rng = random.Random(47 + (field.p or 0))
    for trial in range(150):
        n = 1 + trial % 5
        mats = [random_matrix(rng, field, n, density=rng.choice((0.2, 0.4, 0.7))),
                permuted_triangular(rng, field, n)[0], singular_matrix(rng, field, n)]
        for mat in mats:
            pairs = [[from_poly(e) for e in row] for row in mat]
            given = [list(row) for row in pairs]
            d = det_poly(pairs, field)
            assert to_poly(field, d) == reference_det_poly(mat)
            assert pairs == given
        assert d is None


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_det_poly_swaps_rows_with_a_sign_flip(field):
    one, t = LaurentPoly.one(field), LaurentPoly.t_power(field, 1)
    zero = LaurentPoly.zero(field)
    # One swap at the first pivot: det [[0, 1], [t, 0]] = -t.
    assert det_poly([[zero, one], [t, zero]]) == -t
    # Zero (0, 0) entry and a zero second pivot: two swaps, det = t^-1 * t^3.
    tinv = LaurentPoly.t_power(field, -1)
    mat = [[zero, zero, tinv], [zero, t, one], [t * t, one, t]]
    assert det_poly(mat) == reference_det_poly(mat) == -(tinv * t * t * t)
    mat = [[zero, zero, zero, one], [zero, zero, t, one],
           [zero, tinv, one, one], [t, one, one, one]]
    assert det_poly(mat) == reference_det_poly(mat) == t * t * tinv


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_det_poly_laurent_matches_pair_bareiss(field):
    """det_poly on a LaurentPoly matrix equals det_poly on the same matrix in
    densepoly pairs, its columns made integral by ``integer_column``,
    divided by the product of the column multipliers."""
    rng = random.Random(45 + (field.p or 0))
    for trial in range(100):
        n = 1 + trial % 4
        mat = (random_matrix(rng, field, n, density=rng.choice((0.3, 0.7))) if trial % 3
               else singular_matrix(rng, field, n))
        cols = [integer_column([from_poly(row[c]) for row in mat], field.p) for c in range(n)]
        scale = 1
        for _, m in cols:
            scale *= m
        pair = det_poly([list(r) for r in zip(*(col for col, _ in cols))], field)
        got = to_poly(field, pair)
        if field.p is None:
            got = got.scale(Fraction(1, scale))
        assert got == det_poly(mat) == reference_det_poly(mat)
        if trial % 3 == 0:
            assert pair is None


def test_det_poly_elimination_uses_no_laurentpoly_arithmetic(monkeypatch):
    def forbidden(*args):
        raise AssertionError("LaurentPoly arithmetic inside det_poly")

    rng = random.Random(43)
    mats = [random_matrix(rng, field, 4, 0.6) for field in FIELDS]
    expected = [reference_det_poly(mat) for mat in mats]
    for name in ("__mul__", "__sub__", "__add__", "__neg__", "divexact"):
        monkeypatch.setattr(LaurentPoly, name, forbidden)
    assert [det_poly(mat) for mat in mats] == expected


def test_det_poly_matches_det_scalar():
    rng = random.Random(31)
    for field in FIELDS:
        for _ in range(20):
            n = rng.randint(2, 4)
            mat = [[LaurentPoly(field, {e: field.from_int(rng.randint(-2, 2))
                                        for e in range(-1, 2)})
                    for _ in range(n)] for _ in range(n)]
            d1 = det_poly(mat)
            d2 = det_scalar([[ValuedScalar(x) for x in row] for row in mat])
            assert ValuedScalar(d1) == d2


@pytest.mark.parametrize("p", [None, 2, 3, 101])
def test_divexact_quotients(p):
    """(t^-1 + 1)(t^2 - t + 1) / (t^2 - t + 1) and a monomial divisor."""
    red = (lambda c: c) if p is None else (lambda c: c % p)
    b = (0, [red(1), red(-1), red(1)])
    assert _divexact((-1, [red(1), 0, 0, red(1)]), b, p) == (-1, [red(1), red(1)])
    a = (2, [red(5), 0, red(7)])
    assert _divexact(a, (1, [red(-1)]), p) == (1, [red(-5), 0, red(-7)])


@pytest.mark.parametrize("p, a, b", [
    (None, [1, 0, 1], [1, 1]),          # (t^2 + 1) / (t + 1) leaves 2
    (None, [1, 0, 1], [1, 2]),          # the top quotient 1/2 is no integer
    (None, [2, 3], [2, 2]),             # 3/2 floors to 1, which leaves 0 below
    (None, [1, 2], [1, 0, 1]),          # a dividend shorter than the divisor
    (None, [1] + [0] * 199 + [1], [1, 1]),  # t^200 + 1 leaves 2
    (3, [1] + [0] * 199 + [1], [1, 1]),  # t^200 + 1 leaves 2 mod 3
    (2, [1, 1, 1], [1, 1]),
    (101, [5, 0, 0, 7], [1, 0, 1]),
])
def test_divexact_rejects_a_remainder(p, a, b):
    with pytest.raises(ValueError):
        _divexact((0, a), (0, b), p)


def test_divexact_exact_over_gf2():
    # t^200 + 1 = (t + 1)(1 + t + ... + t^199) over F_2.
    q = _divexact((0, [1] + [0] * 199 + [1]), (0, [1, 1]), 2)
    assert q == (0, [1] * 200)


def reference_multi_f_detail(idx, lattices):
    """Every selection in product order, determinants by reference_det_poly;
    the first selection of maximal -val(det) wins, as in multi_f_detail."""
    n = lattices[0].n
    best = best_sel = None
    choices = [itertools.combinations(range(n), i) for i in idx]
    for sel in itertools.product(*choices):
        cols = [lat.poly_basis[c] for lat, chosen in zip(lattices, sel) for c in chosen]
        d = reference_det_poly([[col[r] for col in cols] for r in range(n)])
        if not d.is_zero() and (best is None or -d.valuation() > best):
            best, best_sel = -d.valuation(), sel
    return best, best_sel


def sparse_lattice(rng, field, n):
    """Generator columns with sparse entries on exponents [-2, 2] and
    coefficients in +-{1, 2, 3}, the shape of the generic-q benchmark."""
    while True:
        cols = [[ValuedScalar(LaurentPoly(field, {
            e: field.from_int(rng.choice((-3, -2, -1, 1, 2, 3)))
            for e in range(-2, 3) if rng.random() < 0.5}))
            for _ in range(n)] for _ in range(n)]
        try:
            return Lattice.from_columns(cols)
        except SingularMatrixError:
            continue


@pytest.mark.parametrize("field", [RATIONAL, GF(3)], ids=["QQ", "GF3"])
def test_multi_f_detail_matches_reference_enumeration(field):
    rng = random.Random(57)
    for n in (3, 4):
        for _ in range(6):
            lats = [sparse_lattice(rng, field, n) for _ in range(3)]
            cuts = sorted(rng.randint(0, n) for _ in range(2))
            idx = (cuts[0], cuts[1] - cuts[0], n - cuts[1])
            assert multi_f_detail(idx, lats) == reference_multi_f_detail(idx, lats)
            i = rng.randint(0, n)
            pair = lats[:2]
            assert multi_f_detail((i, n - i), pair) == reference_multi_f_detail((i, n - i), pair)


def test_multi_f_distinct_lines():
    l1 = line_lattice((1, 0, 0), 3)
    l2 = line_lattice((0, 1, 0), 3)
    l3 = line_lattice((0, 0, 1), 3)
    assert multi_f((1, 1, 1), [l1, l2, l3]) == 3


def test_multi_f_same_line():
    lat = line_lattice((1, 0, 0), 3)
    assert multi_f((1, 1, 1), [lat, lat, lat]) == 1


def test_multi_f_detail_selection():
    l1 = line_lattice((1, 0, 0), 3)
    l2 = line_lattice((0, 1, 0), 3)
    l3 = line_lattice((0, 0, 1), 3)
    value, selection = multi_f_detail((1, 1, 1), [l1, l2, l3])
    assert value == 3
    assert len(selection) == 3 and all(len(s) == 1 for s in selection)


def test_multi_f_index_validation():
    e = Lattice.standard(2, RATIONAL)
    with pytest.raises(ValueError):
        multi_f((1, 2), [e, e])
    with pytest.raises(ValueError):
        multi_f((1, -1, 2), [e, e, e])


def test_multi_f_single_is_unary():
    rng = random.Random(32)
    for _ in range(10):
        n = rng.randint(2, 4)
        lat = random_lattice(rng, n, RATIONAL, -2, 2)
        assert multi_f((n,), [lat]) == lat.unary_f()


def test_star_cost_distinct_lines_at_tE():
    l1 = line_lattice((1, 0, 0), 3)
    l2 = line_lattice((0, 1, 0), 3)
    l3 = line_lattice((0, 0, 1), 3)
    te = Lattice.standard(3, RATIONAL).scale(1)
    assert star_cost((1, 1, 1), [l1, l2, l3], te) == 3


def test_star_cost_one_direction():
    rng = random.Random(33)
    for field in (RATIONAL, GF(2)):
        for _ in range(25):
            n = rng.randint(2, 3)
            lats = [random_lattice(rng, n, field, -2, 2) for _ in range(3)]
            while True:
                idx = [rng.randint(0, n) for _ in range(3)]
                if sum(idx) == n:
                    break
            p = random_lattice(rng, n, field, -2, 2)
            assert star_cost(idx, lats, p) >= multi_f(idx, lats)


def test_edge_reduction():
    rng = random.Random(34)
    for _ in range(10):
        n = rng.randint(2, 3)
        l1 = random_lattice(rng, n, RATIONAL, -1, 1)
        l2 = random_lattice(rng, n, RATIONAL, -1, 1)
        for i in range(n + 1):
            assert edge_reduction_check(i, n - i, l1, l2)
