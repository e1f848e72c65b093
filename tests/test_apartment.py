"""Assignment certificates and witness lattices inside a frame."""

import itertools
import random

import pytest

from latticeval.apartment import (
    Apartment,
    ApartmentPoint,
    apartment_multi_f,
    apartment_witness,
    common_apartment,
    invert_matrix,
    kuhn_munkres,
    relative_position,
    smith_transform,
)
from latticeval.detval import det_scalar, multi_f, star_cost
from latticeval.lattices import Lattice, SingularMatrixError, identity_matrix, matmul
from latticeval.metric import binary_f, smith_form
from latticeval.randgen import random_apartment_instance, random_scalar, random_unimodular
from latticeval.scalars import GF, RATIONAL, LaurentPoly, ValuedScalar


def test_kuhn_munkres_examples():
    r = kuhn_munkres([[0, 2], [1, 3]])
    assert r.value == 3
    assert kuhn_munkres([[0, 0], [0, 0]]).value == 0
    r = kuhn_munkres([[5, 0], [0, 5]])
    assert r.value == 10 and r.permutation == (0, 1)
    assert kuhn_munkres([]).value == 0
    with pytest.raises(ValueError):
        kuhn_munkres([[1, 2]])


def test_kuhn_munkres_vs_exhaustive():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(1, 6)
        c = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        value = kuhn_munkres(c).value  # certificate asserted internally
        brute = max(
            sum(c[i][p[i]] for i in range(n))
            for p in itertools.permutations(range(n))
        )
        assert value == brute


def test_apartment_multi_f_example():
    apt = Apartment.standard(2, RATIONAL)
    pts = [ApartmentPoint((0, 0)), ApartmentPoint((2, 0))]
    assert apartment_multi_f(apt, pts, (1, 1)) == 2


def test_apartment_single_index_is_unary():
    rng = random.Random(62)
    for _ in range(10):
        n = rng.randint(2, 4)
        apt = Apartment(random_unimodular(rng, n, RATIONAL))
        pt = ApartmentPoint(tuple(rng.randint(-3, 3) for _ in range(n)))
        lat = apt.lattice(pt)
        assert apartment_multi_f(apt, [pt], (n,)) == lat.unary_f()


@pytest.mark.parametrize("field", [RATIONAL, GF(2), GF(101)], ids=repr)
def test_frame_det_valuation_matches_canonical_pivots(field):
    """det_valuation is v(det frame): the pivot sum of the frame's lattice;
    dependent columns raise SingularMatrixError."""
    rng = random.Random(64)
    for _ in range(10):
        n = rng.randint(1, 4)
        shifts = [rng.randint(-3, 3) for _ in range(n)]
        frame = [[e * ValuedScalar.t_power(field, k) for e in col]
                 for col, k in zip(random_unimodular(rng, n, field), shifts)]
        apt = Apartment(frame)
        assert apt.det_valuation == sum(shifts)
        assert apt.det_valuation == sum(Lattice.from_columns(apt.basis).pivots)
        with pytest.raises(SingularMatrixError):
            Apartment([frame[0]] * n if n > 1 else [[ValuedScalar.zero(field)]])


def test_witness_example():
    apt = Apartment.standard(2, RATIONAL)
    e = Lattice.standard(2, RATIONAL)
    pts = [ApartmentPoint((0, 0)), ApartmentPoint((2, 0))]
    lats = [apt.lattice(p) for p in pts]
    p, value = apartment_witness(apt, pts, (1, 1))
    assert value == 2
    assert p == e
    assert (
        binary_f(1, 1, lats[0], p) + binary_f(1, 1, lats[1], p) - p.unary_f()
        == 2
    )


def test_witness_all_points_equal():
    rng = random.Random(63)
    apt = Apartment(random_unimodular(rng, 3, RATIONAL))
    pt = ApartmentPoint((2, 1, -1))
    lats = [apt.lattice(pt)] * 3
    p, value = apartment_witness(apt, [pt] * 3, (1, 1, 1))
    assert value == lats[0].unary_f()
    assert star_cost((1, 1, 1), lats, p) == value


def test_witness_matches_oracle_randomly():
    rng = random.Random(64)
    for field in (RATIONAL, GF(2)):
        for _ in range(12):
            n = rng.randint(2, 4)
            k = rng.randint(1, 4)
            apt, pts, idx = random_apartment_instance(rng, n, k, field, window=4)
            lats = [apt.lattice(p) for p in pts]
            value = apartment_multi_f(apt, pts, idx)
            assert value == multi_f(idx, lats)
            p, wvalue = apartment_witness(apt, pts, idx)
            assert wvalue == value
            assert star_cost(idx, lats, p) == value


def test_replication_consistency():
    rng = random.Random(65)
    for _ in range(10):
        n = rng.randint(2, 4)
        apt = Apartment(random_unimodular(rng, n, RATIONAL))
        pt = ApartmentPoint(tuple(rng.randint(-3, 3) for _ in range(n)))
        other = ApartmentPoint(tuple(rng.randint(-3, 3) for _ in range(n)))
        split = rng.randint(1, n - 1)
        merged = apartment_multi_f(apt, [pt, other], (split, n - split))
        replicated = apartment_multi_f(
            apt, [pt] * split + [other], (1,) * split + (n - split,)
        )
        assert merged == replicated


def test_invert_matrix():
    rng = random.Random(66)
    for _ in range(10):
        n = rng.randint(2, 4)
        cols = random_unimodular(rng, n, RATIONAL)
        rows = [[cols[j][i] for j in range(n)] for i in range(n)]
        inv = invert_matrix(rows)
        assert matmul(rows, inv) == identity_matrix(n, RATIONAL)


def test_common_apartment_round_trip():
    rng = random.Random(67)
    found_count = 0
    for _ in range(15):
        n = rng.randint(2, 3)
        apt = Apartment(random_unimodular(rng, n, RATIONAL))
        # Distinct exponents in every coordinate keep the apartment unique.
        pts = [
            ApartmentPoint(tuple(rng.sample(range(-9 + 3 * s, -3 + 3 * s), n)))
            for s in range(3)
        ]
        lats = [apt.lattice(p) for p in pts]
        found = common_apartment(lats)
        if found is None:
            continue
        found_count += 1
        apt2, pts2 = found
        for lat, p2 in zip(lats, pts2):
            assert apt2.lattice(p2) == lat
    assert found_count >= 10


def test_common_apartment_rejects_generic_triples():
    # A triple with no common frame must never produce one that fails the
    # round-trip; None is the expected answer for most random triples.
    rng = random.Random(68)
    from latticeval.randgen import random_lattice

    for _ in range(10):
        lats = [random_lattice(rng, 2, GF(2), -2, 2) for _ in range(3)]
        found = common_apartment(lats)
        if found is not None:
            apt, pts = found
            for lat, p in zip(lats, pts):
                assert apt.lattice(p) == lat


def _reference_point(frame_inv, lat):
    """The point of lat in the frame, from the canonical basis of lat in
    frame coordinates, or None unless that basis is diagonal with monomial
    pivots."""
    n, field = lat.n, lat.field
    coords = matmul(frame_inv, [[lat.columns[c][r] for c in range(n)] for r in range(n)])
    diag = Lattice.from_columns([[coords[r][c] for r in range(n)] for c in range(n)])
    point = []
    for c, col in enumerate(diag.columns):
        if any(not e.is_zero() for r, e in enumerate(col) if r != c):
            return None
        v = int(col[c].valuation())
        if col[c] != ValuedScalar.t_power(field, v):
            return None
        point.append(-v)
    return ApartmentPoint(tuple(point))


def reference_common_apartment(lattices):
    """The fraction-field frame search that ``common_apartment`` replaced:
    the frame basis(L) R^{-1} from ``smith_form``, membership by inverting
    the frame, and v(det frame) from ``det_scalar``.  Returns (v(det frame),
    frame columns, points) or None."""
    n = lattices[0].n
    if len(lattices) == 1:
        pairs = [(0, 0)]
    else:
        pairs = [(i, j) for i in range(len(lattices))
                 for j in range(len(lattices)) if i != j]
    for i, j in pairs:
        first = lattices[i]
        b = [[first.columns[c][r] for c in range(n)] for r in range(n)]
        if i == j:
            frame_rows = b
        else:
            rel = [[ValuedScalar(e) for e in row]
                   for row in relative_position(first, lattices[j])]
            _, _, rinv = smith_form(rel)
            frame_rows = matmul(b, rinv)
        frame_inv = invert_matrix(frame_rows)
        points = [_reference_point(frame_inv, lat) for lat in lattices]
        if None not in points:
            frame = [[frame_rows[r][c] for r in range(n)] for c in range(n)]
            return int(det_scalar(frame_rows).valuation()), frame, points
    return None


def _perturbed(rng, lat):
    """The lattice of lat's basis with a multiple of valuation -1 or -2 of
    one column added to another; it usually leaves the apartment."""
    cols = [list(c) for c in lat.columns]
    a, b = rng.sample(range(lat.n), 2)
    m = ValuedScalar.t_power(lat.field, -rng.randint(1, 2)) + random_scalar(rng, lat.field, 0, 1)
    cols[a] = [x + m * y for x, y in zip(cols[a], cols[b])]
    try:
        return Lattice.from_columns(cols)
    except SingularMatrixError:
        return lat


def test_common_apartment_matches_reference():
    rng = random.Random(69)
    outcomes = {True: 0, False: 0}
    for field in (RATIONAL, GF(2), GF(3), GF(101)):
        for _ in range(24):
            n = rng.randint(2, 4)
            k = min(rng.choice((1, 2, 3, 3, 4)), 3 if n == 4 else 4)
            apt, pts, idx = random_apartment_instance(rng, n, k, field, window=3)
            lats = [apt.lattice(p) for p in pts]
            # Any two lattices share an apartment, so perturb only triples on.
            if k >= 3 and rng.random() < 1 / 2:
                s = rng.randrange(k)
                lats[s] = _perturbed(rng, lats[s])
            found = common_apartment(lats)
            expected = reference_common_apartment(lats)
            assert (found is None) == (expected is None)
            outcomes[found is not None] += 1
            if found is None:
                continue
            apt2, pts2 = found
            det_val, frame, ref_points = expected
            assert pts2 == ref_points
            assert apt2.det_valuation == det_val
            ref_apt = Apartment(frame)
            assert ref_apt.det_valuation == det_val
            assert (apartment_witness(apt2, pts2, idx)
                    == apartment_witness(ref_apt, ref_points, idx))
    assert outcomes[True] and outcomes[False]


def reference_smith_transform(m):
    """The Laurent-polynomial body that ``smith_transform`` had before it ran
    on densepoly pairs: the same pivots, tie-break and u*x - q*y steps, in
    ``LaurentPoly`` arithmetic."""
    n = len(m)
    m = [row[:] for row in m]
    field = m[0][0].field
    one, zero = LaurentPoly.one(field), LaurentPoly.zero(field)
    c = [[one if i == j else zero for j in range(n)] for i in range(n)]
    exps = []
    for i in range(n):
        pos = best = None
        for rr in range(i, n):
            for cc in range(i, n):
                if m[rr][cc].is_zero():
                    continue
                v = m[rr][cc].valuation()
                if best is None or v < best:
                    best, pos = v, (rr, cc)
        if pos is None:
            raise SingularMatrixError("singular matrix in Smith form")
        rr, cc = pos
        m[i], m[rr] = m[rr], m[i]
        for row in m + c:
            row[i], row[cc] = row[cc], row[i]
        u = m[i][i].shift(-best)
        for rr in range(i + 1, n):
            if not m[rr][i].is_zero():
                q = m[rr][i].shift(-best)
                m[rr] = [u * x - q * y for x, y in zip(m[rr], m[i])]
        for cc in range(i + 1, n):
            if not m[i][cc].is_zero():
                q = m[i][cc].shift(-best)
                for row in c:
                    row[cc] = u * row[cc] - q * row[i]
                for row in m[i + 1:]:
                    row[cc] = u * row[cc]
                m[i][cc] = zero
        exps.append(best)
    return exps, c


def _random_poly(rng, field, density):
    """Zero with probability 1 - density, else a sparse polynomial on
    exponents -1..2, so equal valuations (ties) are common."""
    if rng.random() > density:
        return LaurentPoly.zero(field)
    coeffs = {e: field.from_int(rng.randint(-3, 3)) for e in range(-1, 3)
              if rng.random() < 0.5}
    poly = LaurentPoly(field, coeffs)
    return poly if not poly.is_zero() else LaurentPoly.t_power(field, rng.randint(-1, 2))


@pytest.mark.parametrize("field", [RATIONAL, GF(2), GF(3), GF(101)], ids=repr)
def test_smith_transform_matches_reference(field):
    rng = random.Random(field.p or 0)
    singular = 0
    for n in (1, 2, 3, 4):
        for trial in range(30):
            m = [[_random_poly(rng, field, (0.4, 0.7, 1.0)[trial % 3]) for _ in range(n)]
                 for _ in range(n)]
            if n > 1 and trial % 5 == 4:
                # A row that is a multiple of another makes m singular.
                a, b = rng.sample(range(n), 2)
                f = _random_poly(rng, field, 1.0)
                m[a] = [f * x for x in m[b]]
            try:
                expected = reference_smith_transform(m)
            except SingularMatrixError:
                singular += 1
                with pytest.raises(SingularMatrixError):
                    smith_transform(m)
                continue
            assert smith_transform(m) == expected
    assert singular >= 10


def test_common_apartment_uses_no_laurentpoly_arithmetic(monkeypatch):
    def forbidden(*args):
        raise AssertionError("LaurentPoly arithmetic inside common_apartment")

    rng = random.Random(71)
    configs = []
    for field in (RATIONAL, GF(2), GF(3), GF(101)):
        for n, k in ((2, 2), (3, 3), (4, 3)):
            apt, pts, _ = random_apartment_instance(rng, n, k, field, window=3)
            lats = [apt.lattice(p) for p in pts]
            if rng.random() < 1 / 2:
                lats[0] = _perturbed(rng, lats[0])
            configs.append(lats)

    def run():
        out = []
        for lats in configs:
            found = common_apartment(lats)
            out.append(None if found is None else (found[0].basis, found[1]))
        return out

    expected = run()
    assert any(r is None for r in expected) and any(r is not None for r in expected)
    for name in ("__mul__", "__sub__", "__add__", "__neg__", "divexact"):
        monkeypatch.setattr(LaurentPoly, name, forbidden)
    assert run() == expected
