"""Unit-ball triples: subspace extraction, quiver multiplicities, flows,
the eight-cut formula, and witness selection."""

import itertools
import random

import pytest

from latticeval.closecase import (
    SubspaceTriple,
    build_network,
    close_candidates,
    close_witness,
    decompose,
    extract_triple,
    max_flow,
    min_formula,
)
from latticeval.detval import multi_f, star_cost
from latticeval.lattices import Lattice
from latticeval.randgen import random_close_triple
from latticeval.scalars import GF, RATIONAL, ValuedScalar
from latticeval.subspaces import Subspace


def S(e, c=1, field=RATIONAL):
    return ValuedScalar.t_power(field, e, field.from_int(c))


def Z(field=RATIONAL):
    return ValuedScalar.zero(field)


def span(vecs, n, field=RATIONAL):
    return Subspace.span([[field.from_int(c) for c in v] for v in vecs], n, field)


def test_extract_triple_examples():
    e = Lattice.standard(3, RATIONAL)
    t = extract_triple(e, e, e)
    assert t.u1.dim == t.u2.dim == t.u3.dim == 0

    l1 = Lattice.from_columns(
        [[S(-1), Z(), Z()], [Z(), S(0), Z()], [Z(), Z(), S(0)]]
    )
    t = extract_triple(l1, e, e)
    assert t.u1 == span([(1, 0, 0)], 3)

    l2 = Lattice.from_generators(
        [list(c) for c in e.columns] + [[S(-1), S(-1), Z()]], 3
    )
    t = extract_triple(l2, e, e)
    assert t.u1 == span([(1, 1, 0)], 3)


def test_extract_triple_range_error():
    e = Lattice.standard(2, RATIONAL)
    far = Lattice.from_columns([[S(-2), Z()], [Z(), S(0)]])
    with pytest.raises(ValueError):
        extract_triple(far, e, e)


def test_triple_rejects_mixed_fields_and_dimensions():
    with pytest.raises(ValueError, match="base fields differ"):
        SubspaceTriple(Subspace.full(2, GF(2)), Subspace.full(2, GF(3)), Subspace.zero(2, GF(2)))
    with pytest.raises(ValueError, match="base fields differ"):
        SubspaceTriple(Subspace.zero(2, RATIONAL), Subspace.zero(2, RATIONAL), Subspace.zero(2, GF(2)))
    with pytest.raises(ValueError, match="ambient dimensions differ"):
        SubspaceTriple(Subspace.zero(2, GF(2)), Subspace.zero(3, GF(2)), Subspace.zero(2, GF(2)))
    # Equal fields that are distinct objects are one field.
    assert SubspaceTriple(Subspace.zero(2, GF(2)), Subspace.zero(2, GF(2)), Subspace.zero(2, GF(2))).n == 2


def test_decompose_type_d():
    u1 = span([(1, 0)], 2)
    u2 = span([(0, 1)], 2)
    u3 = span([(1, 1)], 2)
    m = decompose(SubspaceTriple(u1, u2, u3))
    d = m.as_dict()
    assert d["D"] == 1
    assert sum(v for k, v in d.items() if k != "D") == 0


def test_decompose_type_c():
    u = span([(1, 0, 0)], 3)
    m = decompose(SubspaceTriple(u, u, u)).as_dict()
    assert m["C"] == 1 and m["S"] == 2
    assert sum(m.values()) == 3


def test_decompose_all_zero():
    z = Subspace.zero(4, RATIONAL)
    m = decompose(SubspaceTriple(z, z, z)).as_dict()
    assert m["S"] == 4 and sum(m.values()) == 4


def test_dimension_equations():
    rng = random.Random(41)
    f2 = GF(2)
    from latticeval.randgen import random_subspace

    for _ in range(40):
        n = rng.randint(1, 4)
        t = SubspaceTriple(
            random_subspace(rng, n, f2),
            random_subspace(rng, n, f2),
            random_subspace(rng, n, f2),
        )
        m = decompose(t).as_dict()
        assert m["A"] + m["B"] + m["B'"] + m["C"] + m["D"] == t.u1.dim
        assert m["A'"] + m["B"] + m["B''"] + m["C"] + m["D"] == t.u2.dim
        assert m["A''"] + m["B'"] + m["B''"] + m["C"] + m["D"] == t.u3.dim
        assert sum(m.values()) + m["D"] == n
        assert m["B"] + m["C"] == t.u1.intersect(t.u2).dim
        assert m["C"] == t.u1.intersect(t.u2).intersect(t.u3).dim


def test_network_flow_examples():
    z = Subspace.zero(2, RATIONAL)
    m_s_only = decompose(SubspaceTriple(z, z, z))
    assert max_flow(build_network(m_s_only, 1, 1, 0)) == 0

    u1 = span([(1, 0)], 2)
    u2 = span([(0, 1)], 2)
    u3 = span([(1, 1)], 2)
    m_d = decompose(SubspaceTriple(u1, u2, u3))
    assert max_flow(build_network(m_d, 1, 1, 0)) == 2

    u = span([(1, 0, 0)], 3)
    m_c = decompose(SubspaceTriple(u, u, u))
    assert max_flow(build_network(m_c, 1, 1, 1)) == 1


def test_min_formula_examples():
    u = span([(1, 0, 0)], 3)
    same = SubspaceTriple(u, u, u)
    assert min_formula(same, 1, 1, 1) == 1

    distinct = SubspaceTriple(
        span([(1, 0, 0)], 3), span([(0, 1, 0)], 3), span([(0, 0, 1)], 3)
    )
    assert min_formula(distinct, 1, 1, 1) == 3

    z = Subspace.zero(3, RATIONAL)
    assert min_formula(SubspaceTriple(z, z, z), 1, 1, 1) == 0


def test_min_formula_symmetry():
    rng = random.Random(42)
    f2 = GF(2)
    from latticeval.randgen import random_subspace

    for _ in range(20):
        n = rng.randint(2, 3)
        subs = [random_subspace(rng, n, f2) for _ in range(3)]
        while True:
            idx = [rng.randint(0, n) for _ in range(3)]
            if sum(idx) == n:
                break
        base = min_formula(SubspaceTriple(*subs), *idx)
        for perm in itertools.permutations(range(3)):
            t = SubspaceTriple(*(subs[p] for p in perm))
            assert min_formula(t, *(idx[p] for p in perm)) == base


def test_close_witness_examples():
    f = RATIONAL
    e = Lattice.standard(3, f)

    def line(vec):
        gens = [list(c) for c in e.columns]
        gens.append([S(-1, c) if c else Z() for c in vec])
        return Lattice.from_generators(gens, 3)

    same = [line((1, 0, 0)) for _ in range(3)]
    p, value = close_witness(*same, 1, 1, 1)
    assert value == 1
    assert p == same[0]  # L = M = N = L+M+N
    assert star_cost((1, 1, 1), same, p) == 1

    distinct = [line((1, 0, 0)), line((0, 1, 0)), line((0, 0, 1))]
    p, value = close_witness(*distinct, 1, 1, 1)
    assert value == 3
    assert p == e.scale(1)  # tE is examined first
    assert star_cost((1, 1, 1), distinct, p) == 3

    p, value = close_witness(e, e, e, 1, 1, 1)
    assert value == 0


def test_three_way_agreement_random_rational():
    rng = random.Random(43)
    for _ in range(25):
        n = rng.randint(2, 4)
        lats = random_close_triple(rng, n, RATIONAL)
        triple = extract_triple(*lats)
        mult = decompose(triple)
        while True:
            idx = [rng.randint(0, n) for _ in range(3)]
            if sum(idx) == n:
                break
        value = min_formula(triple, *idx)
        assert max_flow(build_network(mult, *idx)) == value
        assert multi_f(idx, list(lats)) == value
        p, wvalue = close_witness(*lats, *idx)
        assert wvalue == value
        assert star_cost(idx, list(lats), p) == value
        # One direction: no candidate beats the minimum.
        for _, cand in close_candidates(*lats):
            assert star_cost(idx, list(lats), cand) >= value
