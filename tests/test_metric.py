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
