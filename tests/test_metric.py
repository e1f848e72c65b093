"""Invariant-factor distance and the two-lattice tropical function."""

import random

import pytest

from latticeval import metric
from latticeval.detval import multi_f
from latticeval.lattices import Lattice
from latticeval.metric import (
    binary_f,
    distance,
    dominance_leq,
    relative_invariants,
    reverse_negate,
    smith_form,
)
from latticeval.randgen import random_apartment_instance, random_lattice, random_valdet0
from latticeval.scalars import GF, RATIONAL, ValuedScalar


def S(e, c=1, field=RATIONAL):
    return ValuedScalar.t_power(field, e, field.from_int(c))


def Z(field=RATIONAL):
    return ValuedScalar.zero(field)


def test_distance_examples():
    e = Lattice.standard(2, RATIONAL)
    m = Lattice.from_columns([[S(-2), Z()], [Z(), S(1)]])
    assert distance(e, e) == (0, 0)
    assert distance(e, m) == (2, -1)
    assert distance(m, e) == (1, -2)


@pytest.mark.parametrize("field", [RATIONAL, GF(2), GF(3), GF(101)], ids=repr)
def test_distance_in_one_frame_is_the_sorted_difference(field):
    # An oracle independent of any elimination: for L = <t^{-a_i} x_i> and
    # M = <t^{-b_i} x_i>, basis(L)^{-1} basis(M) is diag(t^{a - b}) up to
    # GL_n(O) on both sides, so d(L, M) is b - a in decreasing order.
    rng = random.Random(field.p or 0)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            apt, (a, b), _ = random_apartment_instance(rng, n, 2, field, window=5)
            expected = tuple(sorted((y - x for x, y in zip(a.c, b.c)), reverse=True))
            assert distance(apt.lattice(a), apt.lattice(b)) == expected


def test_relative_invariants_reject_wrong_determinant_valuation(monkeypatch):
    e = Lattice.standard(2, RATIONAL)
    m = Lattice.from_columns([[S(-2), Z()], [Z(), S(1)]])
    relative_invariants.cache_clear()
    # The true exponents are (-2, 1), which sum to v(det) = -1.
    monkeypatch.setattr(metric, "smith", lambda rel, p, carry, top=None: ([-2, 2], carry))
    with pytest.raises(ValueError):
        relative_invariants(e, m)
    monkeypatch.undo()
    assert relative_invariants(e, m) == (2, -1)


def test_antisymmetry_reverse_negate():
    rng = random.Random(21)
    for field in (RATIONAL, GF(2)):
        for _ in range(25):
            n = rng.randint(2, 4)
            l1 = random_lattice(rng, n, field, -2, 2)
            l2 = random_lattice(rng, n, field, -2, 2)
            assert distance(l2, l1) == reverse_negate(distance(l1, l2))


def test_dominance_order():
    assert dominance_leq((1, 0, -1), (2, 0, -2))
    assert not dominance_leq((2, 0, -2), (1, 0, -1))
    assert dominance_leq((0, 0), (0, 0))
    # Unequal totals are incomparable.
    assert not dominance_leq((0, 0), (1, 0))


def test_triangle_inequality_dominance():
    # d(L,N) <= d(L,M) + d(M,N) in the dominance order, after sorting.
    rng = random.Random(22)
    for _ in range(40):
        n = rng.randint(2, 3)
        l1, l2, l3 = (random_lattice(rng, n, RATIONAL, -2, 2) for _ in range(3))
        lhs = distance(l1, l3)
        a = distance(l1, l2)
        b = distance(l2, l3)
        total = tuple(sorted((x + y for x, y in zip(a, b)), reverse=True))
        assert dominance_leq(lhs, total)


def test_smith_form_certificate():
    rng = random.Random(23)
    from latticeval.lattices import identity_matrix, matmul

    for _ in range(15):
        n = rng.randint(2, 3)
        lat = random_lattice(rng, n, RATIONAL, -1, 1)
        mat = [[lat.columns[j][i] for j in range(n)] for i in range(n)]
        exps, r, rinv = smith_form(mat)
        assert exps == sorted(exps)
        prod = matmul(r, rinv)
        assert prod == identity_matrix(n, RATIONAL)


def test_binary_f_example():
    e = Lattice.standard(2, RATIONAL)
    m = Lattice.from_columns([[S(-2), Z()], [Z(), S(1)]])
    assert binary_f(1, 1, e, m) == 2
    assert binary_f(2, 0, e, m) == e.unary_f()
    assert binary_f(0, 2, e, m) == m.unary_f()
    with pytest.raises(ValueError):
        binary_f(1, 2, e, m)


def test_binary_f_matches_determinant_oracle():
    rng = random.Random(24)
    for field in (RATIONAL, GF(3)):
        for _ in range(20):
            n = rng.randint(2, 3)
            l1 = random_lattice(rng, n, field, -2, 2)
            l2 = random_lattice(rng, n, field, -2, 2)
            for i in range(n + 1):
                assert binary_f(i, n - i, l1, l2) == multi_f((i, n - i), [l1, l2])


def test_translation_invariance():
    rng = random.Random(25)
    for _ in range(20):
        n = rng.randint(2, 3)
        l1 = random_lattice(rng, n, RATIONAL, -2, 2)
        l2 = random_lattice(rng, n, RATIONAL, -2, 2)
        g = random_valdet0(rng, n, RATIONAL, window=1)
        assert distance(l1.transform(g), l2.transform(g)) == distance(l1, l2)


def test_relative_invariants_vs_unary():
    rng = random.Random(26)
    for _ in range(15):
        n = rng.randint(2, 4)
        l1 = random_lattice(rng, n, RATIONAL, -2, 2)
        l2 = random_lattice(rng, n, RATIONAL, -2, 2)
        a = relative_invariants(l1, l2)
        # Determinant additivity: sum of invariants = f_n(L) - f_n(M).
        assert sum(a) == l2.unary_f() - l1.unary_f()


# The three fraction-field eliminations as they stood when each ran its own
# loop: the Smith form with its row transform and in-loop inverse, the
# determinant by partial-pivot Gauss and the inverse by Gauss-Jordan, both
# with minimal-valuation pivots.  The library's versions must agree with
# them value for value.

def _previous_smith_form(a):
    from latticeval.lattices import identity_matrix

    n = len(a)
    field = a[0][0].field
    m = [row[:] for row in a]
    r = identity_matrix(n, field)
    rinv = identity_matrix(n, field)
    exps = []
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
        unit = m[i][i] / tpow
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


def _previous_det_scalar(mat):
    n = len(mat)
    field = mat[0][0].field
    m = [row[:] for row in mat]
    det = ValuedScalar.one(field)
    for i in range(n):
        piv = None
        best = None
        for r in range(i, n):
            if m[r][i].is_zero():
                continue
            v = m[r][i].valuation()
            if best is None or v < best:
                piv, best = r, v
        if piv is None:
            return ValuedScalar.zero(field)
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            det = -det
        det = det * m[i][i]
        for r in range(i + 1, n):
            if m[r][i].is_zero():
                continue
            q = m[r][i] / m[i][i]
            m[r] = [x - q * y for x, y in zip(m[r], m[i])]
    return det


def _previous_invert_matrix(m):
    from latticeval.lattices import SingularMatrixError, identity_matrix

    n = len(m)
    field = m[0][0].field
    aug = [list(row) + unit for row, unit in zip(m, identity_matrix(n, field))]
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


def _fraction_matrix(rng, n, field, singular):
    """An n x n matrix of scalars, zero a fifth of the time and otherwise
    t^u (a_0 + a_1 t) / t^s (c_0 + c_1 t) with a_0, c_0 != 0, so most
    denominators are not constants.  When ``singular``,
    the last row is a combination of the others (zero for n = 1)."""
    from latticeval.scalars import LaurentPoly

    def coeff(nonzero=False):
        if field.is_rational:
            c = rng.choice((-2, -1, 1, 2) if nonzero else (-2, -1, 0, 1, 2))
        else:
            c = rng.randrange(1 if nonzero else 0, field.p)
        return field.from_int(c)

    def entry():
        if rng.random() < 0.2:
            return ValuedScalar.zero(field)
        u, s = rng.randint(-1, 1), rng.randint(-1, 1)
        num = LaurentPoly(field, {u: coeff(nonzero=True), u + 1: coeff()})
        den = LaurentPoly(field, {s: coeff(nonzero=True), s + 1: coeff()})
        return ValuedScalar(num, den)

    rows = [[entry() for _ in range(n)] for _ in range(n)]
    if singular:
        last = [ValuedScalar.zero(field)] * n
        for row in rows[:-1]:
            q = entry()
            last = [x + q * y for x, y in zip(last, row)]
        rows[-1] = last
    return rows


@pytest.mark.parametrize("field", [RATIONAL, GF(2), GF(3), GF(101)], ids=repr)
def test_reference_eliminations_match_their_previous_forms(field):
    from latticeval.apartment import invert_matrix
    from latticeval.detval import det_scalar
    from latticeval.lattices import SingularMatrixError

    rng = random.Random(2500 + (field.p or 0))
    regular = 0
    for n, count in ((1, 10), (2, 10), (3, 5), (4, 3)):
        for k in range(count):
            mat = _fraction_matrix(rng, n, field, singular=k % 5 == 2)
            det = _previous_det_scalar(mat)
            assert det_scalar(mat) == det
            # A random draw may be singular too, most often over GF(2).
            if det.is_zero():
                with pytest.raises(ValueError):
                    _previous_smith_form(mat)
                with pytest.raises(ValueError):
                    smith_form(mat)
                with pytest.raises(SingularMatrixError):
                    _previous_invert_matrix(mat)
                with pytest.raises(SingularMatrixError):
                    invert_matrix(mat)
                continue
            regular += 1
            assert smith_form(mat) == _previous_smith_form(mat)
            assert invert_matrix(mat) == _previous_invert_matrix(mat)
    assert regular >= 15
