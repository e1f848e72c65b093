"""Assignment certificates and witness lattices inside a frame."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from latticeval import apartment, randgen
from latticeval.apartment import (
    Apartment,
    ApartmentPoint,
    _smith_frame,
    apartment_multi_f,
    apartment_witness,
    common_apartment,
    invert_matrix,
    kuhn_munkres,
)
from latticeval.densepoly import combine, from_poly, smith, to_poly
from latticeval.detval import det_scalar, multi_f, star_cost
from latticeval.lattices import (Lattice, SingularMatrixError, identity_matrix, integer_column,
                                 matmul)
from latticeval.metric import binary_f, smith_form
from latticeval.randgen import (
    random_apartment_instance,
    random_index,
    random_lattice,
    random_scalar,
    random_unimodular,
)
from latticeval.scalars import GF, RATIONAL, LaurentPoly, ValuedScalar
from test_truncated import canonical_coordinates


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


def test_certificate_check_survives_python_dash_o():
    # -O strips assert statements; the dual certificate check must still
    # reject infeasible potentials.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(apartment.__file__)))
    code = ("from latticeval.apartment import AssignmentResult\n"
            "AssignmentResult((0, 1), (0, 0), (0, 0), 0).check([[1, 0], [0, 1]])\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.rstrip().endswith("AssertionError: infeasible potentials")


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
        assert apt.det_valuation == sum(Lattice.from_columns(apt.basis, field).pivots)
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
            rel = [[ValuedScalar(to_poly(first.field, e)) for e in row]
                   for row in zip(*canonical_coordinates(first, lattices[j].canonical_pairs))]
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


def frame_points(frame, det_valuation: int, lattices):
    """The point of each lattice in the frame of ``densepoly`` pair columns,
    or None if one is not in it: the membership test that
    ``common_apartment`` ran on each built frame before it tested the
    relative positions with row steps only.

    For a lattice K let Y = basis(K)^{-1} X and m_i the least valuation in
    column i of Y.  K = <t^{-c_i} x_i> iff Y diag(t^{-c}) lies in GL_n(O).
    Integral columns need c <= m, and a column with c_i < m_i is divisible
    by t, so det has positive valuation.  Hence K lies in the frame iff
    v(det Y) = v(det X) - sum(pivots(K)) equals sum(m), and then c = m.
    """
    points = []
    for lat in lattices:
        least = [min(e[0] for e in col if e is not None)
                 for col in lat.pair_coordinates(frame)]
        if det_valuation - sum(lat.pivots) != sum(least):
            return None
        points.append(ApartmentPoint(tuple(least)))
    return points


def smith_frame(first, second):
    """``_smith_frame`` of the pair, from the relative position that
    ``common_apartment`` hands it."""
    return _smith_frame(list(zip(*first.pair_coordinates(second.basis))), second)


def full_check_common_apartment(lattices, smith_frame=smith_frame):
    """``common_apartment`` as it ran before it read the pair's own points
    from the Smith elimination: every input, the pair included, is tested
    for membership in the frame, and the Apartment is built from
    ``LaurentPoly`` columns, which computes its determinant."""
    if len(lattices) == 1:
        pairs = [(0, 0)]
    else:
        pairs = [(i, j) for i in range(len(lattices))
                 for j in range(len(lattices)) if i != j]
    for i, j in pairs:
        first = lattices[i]
        frame = first.basis if i == j else smith_frame(first, lattices[j])[0]
        points = frame_points(frame, sum(first.pivots), lattices)
        if points is not None:
            return Apartment([[to_poly(first.field, e) for e in col] for col in frame]), points
    return None


@pytest.mark.parametrize("field", [RATIONAL, GF(2), GF(3), GF(101)], ids=repr)
def test_common_apartment_matches_full_check(field):
    """The same frame, points and v(det frame) as the full-check route, on
    apartment configurations (perturbed or not) and on random lattices."""
    rng = random.Random(79 + (field.p or 0))
    outcomes = {True: 0, False: 0}
    for trial in range(40):
        n = rng.randint(2, 4)
        k = rng.randint(1, 3 if n == 4 else 4)
        if trial % 4 == 3:
            lats = [random_lattice(rng, n, field, -2, 2) for _ in range(k)]
        else:
            apt, pts, _ = random_apartment_instance(rng, n, k, field, window=3)
            lats = [apt.lattice(p) for p in pts]
            if k >= 3 and rng.random() < 1 / 2:
                s = rng.randrange(k)
                lats[s] = _perturbed(rng, lats[s])
        outcomes[assert_matches_full_check(lats)] += 1
    assert outcomes[True] and outcomes[False]


def assert_matches_full_check(lats):
    """Asserts that ``common_apartment`` and the full-check route agree on
    None versus found, and on the points, frame and v(det frame) of a found
    apartment; returns whether one was found."""
    found = common_apartment(lats)
    expected = full_check_common_apartment(lats)
    assert (found is None) == (expected is None)
    if found is not None:
        assert found[1] == expected[1]
        assert found[0].basis == expected[0].basis
        assert found[0].det_valuation == expected[0].det_valuation
        assert (found[0].n, found[0].field) == (expected[0].n, expected[0].field)
    return found is not None


def apartment_lattices(rng, n, k, field, window, perturb):
    """The k lattices of a random apartment instance, one of them
    ``_perturbed`` when ``perturb`` is set."""
    apt, pts, _ = random_apartment_instance(rng, n, k, field, window=window)
    lats = [apt.lattice(p) for p in pts]
    if perturb:
        s = rng.randrange(k)
        lats[s] = _perturbed(rng, lats[s])
    return lats


@pytest.mark.parametrize("field, shapes", [
    (GF(101), ((3, 3), (3, 4), (4, 3))),
    (RATIONAL, ((5, 3), (3, 5))),
    (GF(2), ((5, 3), (3, 5))),
], ids=["GF(101)-workload", "QQ-wide", "GF(2)-wide"])
def test_common_apartment_matches_full_check_on_larger_shapes(field, shapes):
    """The (n, k) shapes and window 2 of the ``verify-cli-fp`` bench
    workload, and rank 5 or five lattices, perturbed and not."""
    rng = random.Random(89 + (field.p or 0))
    outcomes = {True: 0, False: 0}
    for trial in range(24):
        n, k = shapes[trial % len(shapes)]
        lats = apartment_lattices(rng, n, k, field, 2, trial % 2 == 1)
        outcomes[assert_matches_full_check(lats)] += 1
    assert outcomes[True] and outcomes[False]


@pytest.mark.parametrize("field", [RATIONAL, GF(2), GF(3), GF(101)], ids=repr)
def test_common_apartment_builds_at_most_one_frame(field, monkeypatch):
    """A search that returns None builds no Smith frame, and one that finds a
    frame builds exactly that one."""
    calls = []

    def counted(rel, second):
        calls.append(second)
        return _smith_frame(rel, second)

    monkeypatch.setattr(apartment, "_smith_frame", counted)
    rng = random.Random(97 + (field.p or 0))
    outcomes = {True: 0, False: 0}
    for trial in range(16):
        lats = apartment_lattices(rng, rng.randint(2, 4), rng.randint(2, 4), field, 3,
                                  trial % 2 == 1)
        calls.clear()
        found = common_apartment(lats) is not None
        assert len(calls) == found
        outcomes[found] += 1
    assert outcomes[True] and outcomes[False]


def canonical_smith_frame(first, second):
    """``_smith_frame`` as it ran while a lattice stored its canonical basis
    over Q with ``Fraction`` coefficients: the relative position in
    canonical coordinates, carrying the rows of the canonical basis of
    second.  Each frame column is then scaled to integers (by a unit), as
    ``pair_coordinates`` in the membership test needs."""
    b = second.canonical_pairs
    rel = [list(row) for row in zip(*canonical_coordinates(first, b))]
    exps, bc = smith(rel, first.field.p, [list(row) for row in zip(*b)])
    return [integer_column([None if x is None else (x[0] - e, x[1]) for x in col],
                           first.field.p)[0]
            for col, e in zip(zip(*bc), exps)], exps


def column_ratio(a, b):
    """The rational r with column a = r * column b of pairs, or None."""
    ratios = set()
    for x, y in zip(a, b):
        if (x is None) != (y is None):
            return None
        if x is not None:
            if x[0] != y[0] or [not c for c in x[1]] != [not d for d in y[1]]:
                return None
            ratios.update(Fraction(c) / d for c, d in zip(x[1], y[1]) if d)
    return ratios.pop() if len(ratios) == 1 else None


def test_common_apartment_matches_canonical_route_over_q():
    """Over Q the frame comes from stored integer columns: the points, v(det
    frame) and witness are those of the canonical route, and each frame
    column is a nonzero rational multiple of that route's column."""
    rng = random.Random(83)
    outcomes = {True: 0, False: 0}
    for trial in range(40):
        n = rng.randint(2, 4)
        k = rng.randint(1, 3 if n == 4 else 4)
        if trial % 4 == 3:
            lats = [random_lattice(rng, n, RATIONAL, -2, 2) for _ in range(k)]
            idx = random_index(rng, n, k)
        else:
            apt, pts, idx = random_apartment_instance(rng, n, k, RATIONAL, window=3)
            lats = [apt.lattice(p) for p in pts]
            if k >= 3 and rng.random() < 1 / 2:
                s = rng.randrange(k)
                lats[s] = _perturbed(rng, lats[s])
        found = common_apartment(lats)
        expected = full_check_common_apartment(lats, canonical_smith_frame)
        assert (found is None) == (expected is None)
        outcomes[found is not None] += 1
        if found is None:
            continue
        (apt, points), (ref_apt, ref_points) = found, expected
        assert points == ref_points
        assert all(type(c) is int for col in apt.basis for e in col if e is not None
                   for c in e[1])
        assert all(column_ratio(a, b) for a, b in zip(apt.basis, ref_apt.basis))
        assert apt.det_valuation == ref_apt.det_valuation
        assert apartment_witness(apt, points, idx) == apartment_witness(ref_apt, points, idx)
    assert outcomes[True] and outcomes[False]


def identity_pairs(n):
    """The n x n identity in ``densepoly`` pairs: carried through
    ``densepoly.smith``, it comes out as the column transform C."""
    return [[(0, [1]) if i == j else None for j in range(n)] for i in range(n)]


def smith_transform(m):
    """``densepoly.smith`` on a row-major matrix of Laurent polynomials."""
    field = m[0][0].field
    exps, c = smith([[from_poly(e) for e in row] for row in m], field.p, identity_pairs(len(m)))
    return exps, [[to_poly(field, e) for e in row] for row in c]


def reference_smith_transform(m):
    """The Laurent-polynomial body that the fraction-free Smith transform had
    before it ran on densepoly pairs: the same pivots, tie-break and
    u*x - q*y steps, in ``LaurentPoly`` arithmetic."""
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


@pytest.mark.parametrize("field", [RATIONAL, GF(2), GF(3), GF(101)], ids=repr)
def test_smith_without_carry_returns_row_transformed_rows(field):
    """With an empty carry, ``smith`` of [m | I] returns [R . m . P | R] for
    a column permutation P of the first n columns: R lies in GL_n(O), the
    exponents are those of the full elimination, and R . m . P is upper
    triangular with row i least at its pivot t^{e_i}."""
    def scalars(rows):
        return [[ValuedScalar(to_poly(field, e)) for e in row] for row in rows]

    rng = random.Random(101 + (field.p or 0))
    for n in (1, 2, 3, 4, 5):
        for _ in range(4):
            first, second = (random_lattice(rng, n, field, -2, 2) for _ in range(2))
            m = [list(row) for row in zip(*first.pair_coordinates(second.basis))]
            exps, rows = smith([row + unit for row, unit in zip(m, identity_pairs(n))],
                               field.p, [])
            assert exps == smith(m, field.p, identity_pairs(n))[0]
            r = [row[n:] for row in rows]
            assert all(e is None or e[0] >= 0 for row in r for e in row)
            assert det_scalar(scalars(r)).valuation() == 0
            for i, row in enumerate(rows):
                assert all(e is None for e in row[:i])
                assert min(e[0] for e in row[:n] if e is not None) == row[i][0] == exps[i]
            rm = matmul(scalars(r), scalars(m))
            assert set(zip(*rm)) == set(zip(*scalars(row[:n] for row in rows)))


def reference_smith_frame(first, second):
    """The Smith frame as ``_smith_frame`` built it before ``smith`` carried
    the basis: C from an identity carry, then column j of basis(second) . C
    by ``combine``, shifted by t^{-e_j}."""
    p = first.field.p
    b = second.basis
    rel = [list(row) for row in zip(*first.pair_coordinates(b))]
    exps, c = smith(rel, p, identity_pairs(first.n))
    frame = []
    for j, e in enumerate(exps):
        col = combine(b, [row[j] for row in c], p)
        frame.append([None if x is None else (x[0] - e, x[1]) for x in col])
    return frame, exps


@pytest.mark.parametrize("field", [RATIONAL, GF(2), GF(3), GF(101)], ids=repr)
def test_smith_frame_carry_matches_combine(field):
    rng = random.Random(73 + (field.p or 0))
    for n in (1, 2, 3, 4):
        for _ in range(5):
            first, second = (random_lattice(rng, n, field, -2, 2) for _ in range(2))
            assert smith_frame(first, second) == reference_smith_frame(first, second)
            apt, pts, _ = random_apartment_instance(rng, n, 2, field, window=3)
            first, second = (apt.lattice(pt) for pt in pts)
            assert smith_frame(first, second) == reference_smith_frame(first, second)


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


def test_random_frames_hand_densepoly_integers_over_q(monkeypatch):
    """Over Q ``densepoly`` takes integer coefficients: the column steps of
    ``random_unimodular``, and so of ``random_apartment_instance``, run on
    int pairs, with no ``Fraction``."""
    seen = set()

    def record(*pairs):
        seen.update(type(c) for e in pairs if e is not None for c in e[1])

    addmul, to_poly = randgen.addmul, randgen.to_poly
    monkeypatch.setattr(randgen, "addmul",
                        lambda acc, f, g, s, p: record(acc, f, g) or addmul(acc, f, g, s, p))
    monkeypatch.setattr(randgen, "to_poly",
                        lambda field, pair: record(pair) or to_poly(field, pair))
    rng = random.Random(2802)
    for n in range(1, 5):
        for _ in range(5):
            random_unimodular(rng, n, RATIONAL)
            random_apartment_instance(rng, n, 3, RATIONAL)
    assert seen == {int}
