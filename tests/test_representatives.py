"""Independent representatives of set systems and subspace families."""

import itertools
import random

import pytest

from latticeval.closecase import SubspaceTriple, min_formula
from latticeval.randgen import random_subspace
from latticeval.representatives import (
    _min_subset,
    coordinate_subspace,
    konig_linear_value,
    konig_linear_witness,
    konig_set_formula,
    konig_set_max,
    moshonkin_check,
    multiset_g,
)
from latticeval.scalars import GF, RATIONAL
from latticeval.subspaces import Subspace, all_subspaces, rank_of

F2 = GF(2)


def span(vecs, n, field=F2):
    return Subspace.span([[field.from_int(c) for c in v] for v in vecs], n, field)


def test_set_max_examples():
    assert konig_set_max([{1}, {1}, {2}]) == 2
    assert konig_set_max([]) == 0
    assert konig_set_max([{i} for i in range(7)]) == 7


def test_set_max_matches_formula():
    rng = random.Random(51)
    for _ in range(60):
        r = rng.randint(0, 6)
        sets = [
            set(rng.sample(range(5), rng.randint(0, 4))) for _ in range(r)
        ]
        assert konig_set_max(sets) == konig_set_formula(sets)


def test_linear_value_examples():
    e1 = span([(1, 0)], 2)
    e2 = span([(0, 1)], 2)
    assert konig_linear_value([e1, e1, e2]) == 2
    assert konig_linear_value([Subspace.full(4, F2)] * 3) == 3
    assert konig_linear_value([]) == 0


def test_witness_examples():
    e1 = span([(1, 0)], 2)
    e2 = span([(0, 1)], 2)
    w = konig_linear_witness([e1, e1, e2])
    assert len(w) == 2
    assert konig_linear_witness([Subspace.zero(3, F2)] * 2) == []
    w = konig_linear_witness([e1, e2])
    assert [(i, tuple(v)) for i, v in w] == [(1, (1, 0)), (2, (0, 1))]


def test_moshonkin():
    e1 = span([(1, 0)], 2)
    e2 = span([(0, 1)], 2)
    assert not moshonkin_check([e1, e1])
    assert moshonkin_check([e1, e2])
    assert moshonkin_check([])


def brute_force_max(subs, n, field):
    best = 0

    def go(i, vecs):
        nonlocal best
        best = max(best, len(vecs))
        if i == len(subs):
            return
        go(i + 1, vecs)
        for row in subs[i].rows:
            if rank_of(vecs + [row], n, field) == len(vecs) + 1:
                go(i + 1, vecs + [row])

    go(0, [])
    return best


def test_exhaustive_small_families():
    rng = random.Random(52)
    for n in (1, 2, 3):
        subs_all = all_subspaces(n, F2)
        for _ in range(30):
            r = rng.randint(1, 4)
            fam = [rng.choice(subs_all) for _ in range(r)]
            v = konig_linear_value(fam)
            assert v == brute_force_max(fam, n, F2)
            w = konig_linear_witness(fam)
            assert len(w) == v
            assert rank_of([vec for _, vec in w], n, F2) == v
            for i, vec in w:
                assert fam[i - 1].contains(vec)
            assert moshonkin_check(fam) == (v == r)


def test_multiset_matches_eight_cut_formula():
    rng = random.Random(53)
    for n in (2, 3):
        for _ in range(15):
            u1, u2, u3 = (random_subspace(rng, n, F2) for _ in range(3))
            for i, j, k in itertools.product(range(n + 1), repeat=3):
                if i + j + k != n:
                    continue
                assert multiset_g(u1, u2, u3, i, j, k) == min_formula(
                    SubspaceTriple(u1, u2, u3), i, j, k
                )


def reference_min_subset(subspaces):
    """The enumeration ``_min_subset`` replaced: one rank per subset."""
    r = len(subspaces)
    n, field = subspaces[0].n, subspaces[0].field
    best, best_set = r, ()
    for size in range(1, r + 1):
        for idx in itertools.combinations(range(r), size):
            vecs = [row for i in idx for row in subspaces[i].rows]
            d = rank_of(vecs, n, field) + r - size
            if d < best:
                best, best_set = d, idx
    return best, best_set


@pytest.mark.parametrize("p", [2, 3])
def test_min_subset_on_multisets_matches_reference(p):
    # One rank per distinct set of subspaces gives the value and the
    # tie-broken minimizing set of the enumeration with one rank per subset,
    # also when equal subspaces are distinct objects.
    field = GF(p)
    rng = random.Random(1900 + p)
    for _ in range(150):
        n = rng.randint(1, 4)
        distinct = [random_subspace(rng, n, field) for _ in range(rng.randint(1, 3))]
        fam = []
        for _ in range(rng.randint(1, 6)):
            u = rng.choice(distinct)
            fam.append(u if rng.random() < 0.5 else Subspace.span(u.rows, n, field))
        assert _min_subset(fam) == reference_min_subset(fam)


def test_multiset_examples():
    u = span([(1, 0, 0)], 3)
    assert multiset_g(u, u, u, 1, 1, 1) == 1
    d = [span([v], 3) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    assert multiset_g(*d, 1, 1, 1) == 3
    assert multiset_g(u, u, u, 0, 0, 0) == 0
    with pytest.raises(ValueError):
        multiset_g(u, u, u, -1, 1, 0)


def test_coordinate_consistency():
    rng = random.Random(54)
    for _ in range(25):
        n = rng.randint(1, 4)
        r = rng.randint(0, 4)
        sets = [
            sorted(rng.sample(range(n), rng.randint(0, n))) for _ in range(r)
        ]
        fam = [coordinate_subspace(s, n, F2) for s in sets]
        assert konig_set_max(sets) == konig_linear_value(fam)


def test_subset_cap():
    with pytest.raises(ValueError):
        konig_linear_value([Subspace.full(2, F2)] * 21)


def _check_intersection(u, w):
    """Every row of U ∩ W lies in U and in W, and its dimension is
    dim U + dim W - dim(U + W): together these determine U ∩ W."""
    both = u.intersect(w)
    assert all(u.contains(v) and w.contains(v) for v in both.rows)
    assert both.dim == u.dim + w.dim - u.sum(w).dim
    assert Subspace.span(both.rows, u.n, u.field) == both


@pytest.mark.parametrize("n, p", [(3, 2), (3, 3), (4, 2)])
def test_intersection_of_all_subspace_pairs(n, p):
    subspaces = all_subspaces(n, GF(p))
    for u, w in itertools.product(subspaces, repeat=2):
        _check_intersection(u, w)


@pytest.mark.parametrize("field", [RATIONAL, GF(101)], ids=repr)
def test_intersection_of_random_subspace_pairs(field):
    rng = random.Random(field.p or 0)
    for _ in range(300):
        n = rng.randint(1, 5)
        _check_intersection(random_subspace(rng, n, field), random_subspace(rng, n, field))
