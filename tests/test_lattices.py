"""Canonical bases, module operations, and lattice invariants."""

import random

import pytest

from latticeval.lattices import Lattice, SingularMatrixError
from latticeval.randgen import random_lattice, random_scalar, random_unimodular
from latticeval.scalars import GF, RATIONAL, LaurentPoly, ValuedScalar


def S(e, c=1, field=RATIONAL):
    return ValuedScalar.t_power(field, e, field.from_int(c))


def Z(field=RATIONAL):
    return ValuedScalar.zero(field)


def test_standard_lattice():
    e = Lattice.standard(3, RATIONAL)
    assert e.pivots == (0, 0, 0)
    assert e.unary_f() == 0
    assert e.contains([S(0), S(1), S(2)])
    assert not e.contains([S(-1), Z(), Z()])


def test_pivots_and_unary_f():
    lat = Lattice.from_columns([[S(-2), Z()], [Z(), S(1)]])
    assert lat.pivots == (-2, 1)
    assert lat.unary_f() == 1


def test_generators_reduce_to_canonical():
    # <e1, e1 + t e2, t^2 e2> has the same module as <e1, t e2>.
    gens = [
        [S(0), Z()],
        [S(0), S(1)],
        [Z(), S(2)],
    ]
    lat = Lattice.from_generators(gens, 2)
    assert lat == Lattice.from_columns([[S(0), Z()], [Z(), S(1)]])


def test_singular_generators_rejected():
    with pytest.raises(SingularMatrixError):
        Lattice.from_columns([[S(0), Z()], [S(1), Z()]])


def test_canonicity_under_unimodular_mixes():
    rng = random.Random(11)
    for field in (RATIONAL, GF(3)):
        for _ in range(25):
            n = rng.randint(2, 4)
            lat = random_lattice(rng, n, field, -2, 2)
            cols = [list(col) for col in lat.columns]
            for _ in range(4):
                a, b = rng.sample(range(n), 2)
                m = random_scalar(rng, field, 0, 2)
                for i in range(n):
                    cols[a][i] = cols[a][i] + m * cols[b][i]
            rng.shuffle(cols)
            assert Lattice.from_columns(cols) == lat


def test_containment_and_sum():
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(2, 3)
        l1 = random_lattice(rng, n, RATIONAL, -2, 2)
        l2 = random_lattice(rng, n, RATIONAL, -2, 2)
        s = l1.sum(l2)
        assert s.contains_lattice(l1) and s.contains_lattice(l2)
        m = l1.intersect(l2)
        assert l1.contains_lattice(m) and l2.contains_lattice(m)
        # Modularity at the ends: sum and intersection bracket both inputs.
        assert s.contains_lattice(m)


def test_intersection_is_largest_common():
    # <e1, e2> meet <t^-1 e1, t e2> = <e1, t e2>.
    e = Lattice.standard(2, RATIONAL)
    other = Lattice.from_columns([[S(-1), Z()], [Z(), S(1)]])
    meet = e.intersect(other)
    assert meet == Lattice.from_columns([[S(0), Z()], [Z(), S(1)]])


def test_variadic_intersection_matches_pairwise():
    rng = random.Random(14)
    for trial in range(12):
        field = (RATIONAL, GF(3))[trial % 2]
        n = rng.randint(2, 3)
        lats = [random_lattice(rng, n, field, -2, 2) for _ in range(3)]
        assert lats[0].intersect(*lats[1:]) == lats[0].intersect(lats[1]).intersect(lats[2])
        assert lats[0].intersect() == lats[0]


def test_scale_shifts_the_canonical_basis():
    rng = random.Random(15)
    for trial in range(12):
        field = (RATIONAL, GF(2))[trial % 2]
        n = rng.randint(2, 4)
        lat = random_lattice(rng, n, field, -2, 2)
        c = rng.randint(-3, 3)
        t = ValuedScalar.t_power(field, c)
        assert lat.scale(c) == Lattice.from_columns([[t * e for e in col] for col in lat.columns])


def test_scale_and_dual():
    lat = Lattice.from_columns([[S(-2), Z()], [Z(), S(1)]])
    assert lat.scale(2).pivots == (0, 3)
    assert lat.dual().pivots == (2, -1)
    assert lat.dual().dual() == lat


def test_transform_by_valdet0_preserves_unary_f():
    from latticeval.randgen import random_valdet0

    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(2, 3)
        lat = random_lattice(rng, n, RATIONAL, -2, 2)
        g = random_valdet0(rng, n, RATIONAL, window=1)
        assert lat.transform(g).unary_f() == lat.unary_f()


def test_solve_forward_substitution():
    lat = Lattice.from_columns([[S(1), S(0)], [Z(), S(2)]])
    v = [S(1), S(0)]
    coords = lat.solve(v)
    # Reconstruct v from the solved coordinates.
    for i in range(2):
        acc = Z()
        for j, c in enumerate(coords):
            acc = acc + c * lat.columns[j][i]
        assert acc == v[i]


def test_hashable_and_cacheable():
    rng = random.Random(14)
    lat = random_lattice(rng, 3, RATIONAL)
    copy = Lattice.from_columns([list(c) for c in lat.columns])
    assert hash(lat) == hash(copy)
    assert len({lat, copy}) == 1
