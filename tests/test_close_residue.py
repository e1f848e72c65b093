"""The close case in residue space against the lattice path it replaced.

``reference_verify_close`` is the earlier ``verify --strategy close`` route:
move the triple by the inverse basis of the meet, test containment in the
ball t^{-1}E, pick the witness by lattice star costs among
``close_candidates`` and move it back.  The library now reads the triple as
subspaces of t^{-1}meet/meet and prices the candidates in closed form.
"""

import itertools
import random
import time

from latticeval import serialize
from latticeval.closecase import (
    SubspaceTriple,
    residue_subspace,
    build_network,
    candidate_costs,
    close_candidates,
    close_witness,
    decompose,
    max_flow,
    min_formula,
)
from latticeval.densepoly import to_poly
from latticeval.detval import multi_f, star_cost
from latticeval.harness import ConjectureReport, _scan, verify_star
from latticeval.lattices import Lattice
from latticeval.randgen import random_close_triple, random_index, random_lattice
from latticeval.scalars import GF, RATIONAL, LaurentPoly, ValuedScalar
from latticeval.subspaces import Subspace, all_subspaces

FIELDS = (RATIONAL, GF(2), GF(3))


def lattice_from_subspace(u, field):
    """E + t^{-1}U for a subspace U of the residue space."""
    gens = [list(c) for c in Lattice.standard(u.n, field).columns]
    for row in u.rows:
        gens.append([ValuedScalar(LaurentPoly(field, {-1: c})) for c in row])
    return Lattice.from_generators(gens, u.n)


def reference_projection(lat):
    """U with lat = E + t^{-1}U, read from the canonical columns after a
    ``contains_lattice`` test and a valuation test."""
    n, field = lat.n, lat.field
    if not lat.contains_lattice(Lattice.standard(n, field)):
        raise ValueError("lattice does not contain the elementary lattice")
    vectors = []
    for col in lat.columns:
        if any(not x.is_zero() and x.valuation() < -1 for x in col):
            raise ValueError("lattice is not contained in t^{-1}E")
        vectors.append([x.num.coefficient(-1) for x in col])
    return Subspace.span(vectors, n, field)


def reference_close_witness(l, m, n_lat, i, j, k):
    """The first of the eight candidate lattices whose lattice star cost
    equals the eight-cut minimum."""
    triple = SubspaceTriple(*(reference_projection(x) for x in (l, m, n_lat)))
    value = min_formula(triple, i, j, k)
    for _, cand in close_candidates(l, m, n_lat):
        if star_cost((i, j, k), [l, m, n_lat], cand) == value:
            return cand, value
    raise AssertionError("no candidate achieves the minimum")


def reference_verify_close(idx, lattices, lhs):
    n, field = lattices[0].n, lattices[0].field
    meet = lattices[0].intersect(lattices[1]).intersect(lattices[2])
    ginv = meet.basis_inverse()
    moved = [lat.transform(ginv) for lat in lattices]
    tinv = ValuedScalar.t_power(field, -1)
    zero = ValuedScalar.zero(field)
    ball = Lattice.from_columns(
        [[tinv if r == c else zero for r in range(n)] for c in range(n)])
    if not all(ball.contains_lattice(lat) for lat in moved):
        return ConjectureReport(lhs, None, "inconclusive", 0, "close")
    p_moved, _ = reference_close_witness(*moved, *idx)
    g = [[meet.columns[j][i] for j in range(n)] for i in range(n)]
    return _scan(lhs, [p_moved.transform(g)], idx, lattices, "close")


def _same_report(idx, lattices):
    new = verify_star(idx, lattices, "close")
    ref = reference_verify_close(idx, lattices, new.lhs)
    assert new.status == ref.status
    assert new.candidates_examined == ref.candidates_examined
    if new.status == "verified":
        assert new.best_candidate[1] == ref.best_candidate[1]
        assert (serialize.lattice_to_json(new.witness())
                == serialize.lattice_to_json(ref.witness()))
    return new.status


def test_verify_close_matches_reference_on_moved_close_triples():
    rng = random.Random(601)
    for trial in range(90):
        field = FIELDS[trial % 3]
        n = 2 + trial % 3
        g_lat = random_lattice(rng, n, field, -2, 2)
        g = [[g_lat.columns[j][i] for j in range(n)] for i in range(n)]
        lats = [lat.transform(g) for lat in random_close_triple(rng, n, field)]
        assert _same_report(random_index(rng, n, 3), lats) == "verified"


def test_verify_close_matches_reference_on_random_triples():
    rng = random.Random(602)
    statuses = set()
    for trial in range(90):
        field = FIELDS[trial % 3]
        n = 2 + trial % 3
        lats = [random_lattice(rng, n, field, -2, 2) for _ in range(3)]
        statuses.add(_same_report(random_index(rng, n, 3), lats))
    assert statuses == {"verified", "inconclusive"}


def reference_residue_subspace(base, lat):
    """``residue_subspace`` on the ``LaurentPoly`` coordinates of lat."""
    vectors = []
    for col in base.pair_coordinates(lat.basis):
        col = [to_poly(base.field, x) for x in col]
        if any(x.valuation() < -1 for x in col):
            return None
        vectors.append([x.coefficient(-1) for x in col])
    return Subspace.span(vectors, base.n, base.field)


def test_residue_subspace_matches_laurent_route():
    rng = random.Random(604)
    results = set()
    for trial in range(120):
        field = (RATIONAL, GF(2), GF(3), GF(101))[trial % 4]
        n = 1 + trial % 4
        if trial % 3 == 0:
            g_lat = random_lattice(rng, n, field, -2, 2)
            g = [[g_lat.columns[j][i] for j in range(n)] for i in range(n)]
            lats = [lat.transform(g) for lat in random_close_triple(rng, n, field)]
        else:
            lats = [random_lattice(rng, n, field, -2, 2) for _ in range(3)]
        meet = lats[0].intersect(*lats[1:])
        for base in (meet, meet.scale(1)):
            for lat in lats:
                got = residue_subspace(base, lat)
                assert got == reference_residue_subspace(base, lat)
                if got is not None:
                    assert [[type(x) for x in r] for r in got.rows] == [
                        [type(field.zero)] * n for _ in got.rows]
                results.add(got is None)
    assert results == {True, False}
    # t^{-2} e_1 is not inside t^{-1}E.
    e = Lattice.standard(2, GF(3))
    far = Lattice.from_generators([[LaurentPoly.t_power(GF(3), -2), LaurentPoly.zero(GF(3))]]
                                  + list(e.basis), 2)
    assert residue_subspace(e, far) is None and reference_residue_subspace(e, far) is None


def test_memoised_residue_subspace_matches_fresh_lattice():
    rng = random.Random(605)
    for trial in range(80):
        field = (RATIONAL, GF(2), GF(3), GF(101))[trial % 4]
        n = 1 + trial % 4
        if trial % 2:
            lats = random_close_triple(rng, n, field)
            bases = [Lattice.standard(n, field)]
        else:
            lats = [random_lattice(rng, n, field, -2, 2) for _ in range(3)]
            bases = []
        meet = lats[0].intersect(*lats[1:])
        for base in bases + [meet, meet.scale(1)]:
            for lat in lats:
                got = residue_subspace(base, lat)
                # An equal base hits the memo; a fresh lattice object has none.
                assert residue_subspace(Lattice(n, field, base.basis), lat) is got
                assert residue_subspace(base, Lattice(n, field, lat.basis)) == got


def test_close_witness_matches_reference():
    rng = random.Random(603)
    for trial in range(60):
        field = FIELDS[trial % 3]
        n = 2 + trial % 3
        lats = random_close_triple(rng, n, field)
        idx = random_index(rng, n, 3)
        assert close_witness(*lats, *idx) == reference_close_witness(*lats, *idx)


def test_closed_form_costs_equal_lattice_star_costs_f2():
    """Every candidate of every F_2 triple (as a multiset) with n = 2, 3, for
    every index vector: 66,960 costs."""
    f2 = GF(2)
    checked = 0
    for n in (2, 3):
        subs = all_subspaces(n, f2)
        lats = {u: lattice_from_subspace(u, f2) for u in subs}
        indices = [idx for idx in itertools.product(range(n + 1), repeat=3)
                   if sum(idx) == n]
        for us in itertools.combinations_with_replacement(subs, 3):
            config = [lats[u] for u in us]
            cands = close_candidates(*config)
            for idx in indices:
                costs = candidate_costs(SubspaceTriple(*us), *idx)
                assert [c[0] for c in costs] == [c[0] for c in cands]
                for (_, _, cost), (_, cand) in zip(costs, cands):
                    assert cost == star_cost(idx, config, cand)
                    checked += 1
    assert checked == 66960


def test_close_case_exhaustive_f3():
    """All 4,060 multisets of the 28 subspaces of F_3^3 with all 10 index
    vectors: the closed-form minimum, the eight-cut formula and the max-flow
    agree; on a seeded sample of 300 the built witness is re-checked by the
    determinant value and its lattice star cost."""
    start = time.monotonic()
    f3 = GF(3)
    subs = all_subspaces(3, f3)
    assert len(subs) == 28
    indices = [idx for idx in itertools.product(range(4), repeat=3) if sum(idx) == 3]
    cases = []
    for us in itertools.combinations_with_replacement(subs, 3):
        triple = SubspaceTriple(*us)
        mult = decompose(triple)
        for idx in indices:
            value = min_formula(triple, *idx)
            assert min(c[2] for c in candidate_costs(triple, *idx)) == value
            assert max_flow(build_network(mult, *idx)) == value
            cases.append((us, idx, value))
    assert len(cases) == 40600
    lats = {u: lattice_from_subspace(u, f3) for u in subs}
    for us, idx, value in random.Random(604).sample(cases, 300):
        config = [lats[u] for u in us]
        p, wvalue = close_witness(*config, *idx)
        assert wvalue == value
        assert multi_f(idx, config) == value
        assert star_cost(idx, config, p) == value
    elapsed = time.monotonic() - start
    print(f"close case, exhaustive F3 n=3: PASS ({elapsed:.1f}s / limit 30s)")
    assert elapsed < 30, f"runtime {elapsed:.1f}s exceeds 30s"
