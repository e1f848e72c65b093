"""Canonical bases, module operations, and lattice invariants."""

import json
import math
import random
from fractions import Fraction

import pytest

from latticeval import densepoly, lattices, serialize
from latticeval.densepoly import addmul, from_poly, to_poly
from latticeval.lattices import Lattice, SingularMatrixError, integer_column, polynomial_column
from latticeval.randgen import random_lattice, random_scalar, random_unimodular
from latticeval.scalars import GF, RATIONAL, LaurentPoly, ValuedScalar
from test_truncated import reference_canonicalize


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


# -- the polynomial storage against the ValuedScalar reference route ---------

FIELDS = (RATIONAL, GF(2), GF(3), GF(101))


def sparse_scalar(rng, field, denominators):
    """A Laurent polynomial on exponents [-2, 2], each kept with probability
    1/2 with a nonzero coefficient; with denominators, sometimes divided by
    1 + c t^k (valuation 0, constant term 1)."""
    nonzero = (-3, -2, -1, 1, 2, 3) if field.is_rational else range(1, field.p)
    num = LaurentPoly(field, {e: field.from_int(rng.choice(nonzero))
                              for e in range(-2, 3) if rng.random() < 0.5})
    if denominators and rng.random() < 0.5:
        den = LaurentPoly(field, {0: field.one, rng.randint(1, 2): field.from_int(rng.choice(nonzero))})
        return ValuedScalar(num, den)
    return ValuedScalar(num)


def sparse_generators(rng, field, n, denominators):
    """n to n + 2 sparse generator columns of length n (any rank)."""
    return [[sparse_scalar(rng, field, denominators) for _ in range(n)]
            for _ in range(n + rng.randint(0, 2))]


def ref_canonical(gens, n):
    try:
        return reference_canonicalize(gens, n)
    except SingularMatrixError:
        return None


def ref_solve(basis, v):
    """basis^{-1} v over the fraction field, for a lower-triangular basis."""
    x = []
    for i in range(len(v)):
        acc = v[i]
        for j in range(i):
            acc = acc - basis[j][i] * x[j]
        x.append(acc / basis[i][i])
    return x


def ref_dual(basis):
    n = len(basis)
    field = basis[0][0].field
    units = [[ValuedScalar.one(field) if i == k else ValuedScalar.zero(field)
              for i in range(n)] for k in range(n)]
    inv_cols = [ref_solve(basis, u) for u in units]
    return reference_canonicalize([[col[i] for col in inv_cols] for i in range(n)], n)


def ref_contains(basis, v):
    return all(x.is_integral() for x in ref_solve(basis, v))


def sample_cases():
    """(field, n, generators, reference basis, rng, denominators) for three
    nonsingular draws over each field, rank 1-4, with and without
    denominators; singular draws must raise on both routes."""
    rng = random.Random(21)
    for field in FIELDS:
        for n in range(1, 5):
            for denominators in (False, True):
                found = 0
                while found < 3:
                    gens = sparse_generators(rng, field, n, denominators)
                    ref = ref_canonical(gens, n)
                    if ref is None:
                        with pytest.raises(SingularMatrixError):
                            Lattice.from_generators(gens, n)
                        continue
                    found += 1
                    yield field, n, gens, ref, rng, denominators


def draw_lattice(rng, field, n, denominators):
    while True:
        gens = sparse_generators(rng, field, n, denominators)
        ref = ref_canonical(gens, n)
        if ref is not None:
            return Lattice.from_generators(gens, n), ref


def as_lists(lat):
    return [list(col) for col in lat.columns]


def test_operations_match_scalar_reference():
    for field, n, gens, ref, rng, dens in sample_cases():
        lat = Lattice.from_generators(gens, n)
        assert as_lists(lat) == ref
        other, ref_other = draw_lattice(rng, field, n, dens)
        third, ref_third = draw_lattice(rng, field, n, dens)
        assert as_lists(lat.sum(other)) == reference_canonicalize(ref + ref_other, n)
        assert as_lists(lat.dual()) == ref_dual(ref)
        meet = ref_dual(reference_canonicalize(
            ref_dual(ref) + ref_dual(ref_other) + ref_dual(ref_third), n))
        assert as_lists(lat.intersect(other, third)) == meet
        c = rng.randint(-3, 3)
        t = ValuedScalar.t_power(field, c)
        assert as_lists(lat.scale(c)) == reference_canonicalize(
            [[t * e for e in col] for col in ref], n)
        # Vectors in the lattice (integral combinations of the generators),
        # and the same vectors moved by t^-1 along one axis.
        for _ in range(3):
            coeffs = [sparse_scalar(rng, field, dens) for _ in gens]
            coeffs = [x if x.is_integral() else ValuedScalar.zero(field) for x in coeffs]
            v = [sum((a * col[i] for a, col in zip(coeffs, gens)), ValuedScalar.zero(field))
                 for i in range(n)]
            assert lat.contains(v) and ref_contains(ref, v)
            v[rng.randrange(n)] += ValuedScalar.t_power(field, lat.pivots[0] - 1)
            assert lat.contains(v) == ref_contains(ref, v)
        for a, b, ra, rb in ((lat, other, ref, ref_other), (other, lat, ref_other, ref)):
            assert a.contains_lattice(b) == all(ref_contains(ra, col) for col in rb)
        s, m = lat.sum(other), lat.intersect(other)
        assert s.contains_lattice(lat) and lat.contains_lattice(m)
        assert not lat.contains_lattice(lat.scale(-1))


def test_contains_clears_the_whole_vector():
    # L = <(1, 1), (0, t^2)> holds (1, 1 + t^2/(1+t)) = (1, 1) + (0, t^2)/(1+t).
    # Clearing each entry's denominator on its own gives (1, 1 + t + t^2),
    # which is not in L; the vector must be multiplied by one unit.
    f = RATIONAL
    lat = Lattice.from_columns([[S(0), S(0)], [Z(), S(2)]])
    one_plus_t = LaurentPoly(f, {0: f.one, 1: f.one})
    v = [S(0), ValuedScalar(LaurentPoly(f, {0: f.one, 1: f.one, 2: f.one}), one_plus_t)]
    assert lat.contains(v)
    assert not lat.contains([S(0), ValuedScalar(v[1].num)])


def test_equality_key_matches_modules():
    for field, n, gens, ref, rng, dens in sample_cases():
        lat = Lattice.from_generators(gens, n)
        # The same module from other generators: integral column operations,
        # a unit multiple of one column, a redundant column and a shuffle.
        cols = [list(col) for col in gens]
        for _ in range(4):
            if len(cols) > 1:
                a, b = rng.sample(range(len(cols)), 2)
                m = random_scalar(rng, field, 0, 2)
                cols[a] = [x + m * y for x, y in zip(cols[a], cols[b])]
        unit = ValuedScalar(LaurentPoly(field, {0: field.one, 1: field.one}),
                            LaurentPoly(field, {0: field.one, 2: field.one}))
        cols[0] = [unit * x for x in cols[0]]
        r = random_scalar(rng, field, 0, 1)
        cols.append([r * x for x in cols[-1]])
        rng.shuffle(cols)
        same = Lattice.from_generators(cols, n)
        assert same == lat and hash(same) == hash(lat) and same is not lat
        assert all(type(x) is int for x in _flatten(lat.key[2]))
        other, ref_other = draw_lattice(rng, field, n, dens)
        assert (other == lat) == (ref_other == ref)
        assert lat.scale(1) != lat and lat.dual().dual() == lat


def test_pair_laurent_and_scalar_generators_give_one_lattice():
    """The generators of each sample case, handed in as ``ValuedScalar``,
    ``LaurentPoly`` and ``densepoly`` pair columns, as a mix of the three by
    column and as fractions over 1 + t, give one lattice: the same key,
    hash and basis, and the reference canonical basis."""
    for field, n, gens, ref, rng, dens in sample_cases():
        lat = Lattice.from_generators(gens, n)
        assert as_lists(lat) == ref
        # Each column times the product of its distinct denominators, in
        # LaurentPoly arithmetic: a unit multiple of the column.
        polys = []
        for col in gens:
            denominators = {e.den for e in col}
            polys.append([e.num for e in col])
            for d in denominators:
                polys[-1] = [x if e.den == d else x * d for x, e in zip(polys[-1], col)]
        pairs = [[from_poly(e) for e in col] for col in polys]
        mixed = [(gens, polys, pairs)[j % 3][j] for j in range(len(gens))]
        one_plus_t = LaurentPoly(field, {0: field.one, 1: field.one})
        over = [[ValuedScalar(e, one_plus_t) for e in col] for col in polys]
        for cols in (polys, pairs, mixed, over):
            same = Lattice.from_generators(cols, n, field)
            assert same.key == lat.key and hash(same) == hash(lat)
            assert same.basis == lat.basis


def rational_generator_forms(rng, n):
    """(name, generator columns) of one random module over Q, whose
    coefficients are not all integers, handed in as ``ValuedScalar``,
    ``LaurentPoly``, ``densepoly`` pair and JSON columns; entries with a
    denominator stay ``ValuedScalar`` in the LaurentPoly and pair forms."""
    gens = []
    for col in sparse_generators(rng, RATIONAL, n, True):
        c = ValuedScalar.t_power(RATIONAL, 0, Fraction(rng.choice((-1, 1, 2, 3)),
                                                       rng.choice((1, 2, 5, 6))))
        gens.append([c * e for e in col])

    def plain(convert):
        return [[e if len(e.den.coeffs) > 1 else convert(e.num) for e in col] for col in gens]

    yield "scalar", gens
    yield "LaurentPoly", plain(lambda poly: poly)
    yield "pair", plain(from_poly)
    data = {"n": n, "columns": [[serialize.scalar_to_json(e) for e in col] for col in gens]}
    yield "JSON", json.loads(json.dumps(data))


def test_rational_bases_are_stored_as_primitive_integer_columns():
    # Over Q a stored column is the primitive integer multiple of the
    # canonical column with a positive pivot coefficient s_j; the canonical
    # view divides by s_j, and the key holds only ints.
    rng = random.Random(2101)
    checked = 0
    while checked < 40:
        n = rng.randint(1, 4)
        forms = list(rational_generator_forms(rng, n))
        ref = ref_canonical(forms[0][1], n)
        if ref is None:
            continue
        checked += 1
        lattices = []
        for name, cols in forms:
            if name == "JSON":
                lat = serialize.lattice_from_json(cols, RATIONAL)
            else:
                lat = Lattice.from_generators(cols, n, RATIONAL)
            for j, col in enumerate(lat.basis):
                coeffs = [c for e in col if e is not None for c in e[1]]
                assert all(type(c) is int for c in coeffs), name
                assert col[j][1][0] > 0 and len(col[j][1]) == 1, name
                assert math.gcd(*coeffs) == 1, name
            assert as_lists(lat) == ref, name
            assert all(type(x) is int for x in _flatten(lat.key[2])), name
            lattices.append(lat)
        assert all(lat == lattices[0] and lat.basis == lattices[0].basis for lat in lattices)
        # The canonical view written as JSON reads back to the same basis.
        back = serialize.lattice_from_json(serialize.lattice_to_json(lattices[0]), RATIONAL)
        assert back.basis == lattices[0].basis


def _flatten(key):
    for x in key:
        if isinstance(x, tuple):
            yield from _flatten(x)
        else:
            yield x


def test_random_lattice_is_not_a_multiple_of_e():
    """The generator must not collapse to t^low E: dense entries made the
    t^low coefficient matrix almost always invertible (0 of 20 draws over
    GF(101) and 2 of 20 over Q differed from t^-3 E)."""
    for field in (GF(101), RATIONAL):
        rng = random.Random(1)
        e = Lattice.standard(3, field)
        draws = [random_lattice(rng, 3, field) for _ in range(20)]
        assert sum(lat != e.scale(lat.pivots[0]) for lat in draws) >= 8


# -- the memoised dual against the unmemoised route ---------------------------

def unmemoised_dual(lat):
    """The dual as ``Lattice.dual`` computes it on a first call: the
    coordinates of the unit columns, transposed and canonicalised."""
    n, field = lat.n, lat.field
    inv = lat.pair_coordinates([[(0, [field.one]) if i == j else None for i in range(n)]
                                for j in range(n)])
    return Lattice.from_columns([[col[i] for col in inv] for i in range(n)], field)


def fresh_lattices(rng, field, n, count):
    out = []
    while len(out) < count:
        try:
            out.append(Lattice.from_generators(
                sparse_generators(rng, field, n, rng.random() < 0.5), n))
        except SingularMatrixError:
            continue
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_memoised_dual_and_intersect_match_unmemoised_route(field):
    rng = random.Random(field.p or 0)
    for n in range(1, 5):
        for _ in range(4):
            lats = fresh_lattices(rng, field, n, 3)
            a, b, c = lats
            refs = [unmemoised_dual(x) for x in lats]
            assert [unmemoised_dual(r) for r in refs] == lats
            meet = unmemoised_dual(refs[0].sum(refs[1], refs[2]))
            pair = unmemoised_dual(refs[0].sum(refs[1]))
            # The second round reads the duals stored by the first.
            for _ in range(2):
                assert [x.dual() for x in lats] == refs
                assert all(x.dual().dual() is x for x in lats)
                assert a.intersect(b, c) == meet and c.intersect(a, b) == meet
                assert a.intersect(b, a, b) == pair and b.intersect(a) == pair
                assert a.intersect(a) == a and a.intersect() == a
            # The memo belongs to the object: an equal lattice built apart
            # computes its own dual, equal to the stored one.
            twin = Lattice(n, field, a.basis)
            assert twin.dual() == a.dual() and twin.dual() is not a.dual()
            # A dual reached from the dual side links back the same way.
            d = unmemoised_dual(b)
            assert d.dual() == b and d.dual().dual() is d


# -- fraction-free coordinates over Q ------------------------------------------

def big_pivot_lattice(rng, n):
    """A lattice over Q given by its canonical basis, whose entries below the
    pivots t^{d_i} have denominators up to 10^6, so that its stored pivot
    coefficients s_i (the lcm of each canonical column's denominators, up
    to its content) reach about 10^6."""
    d = [rng.randint(1, 3) for _ in range(n)]
    return Lattice.from_columns([
        [S(d[j]) if i == j else Z() if i < j else
         ValuedScalar.t_power(RATIONAL, rng.randrange(d[i]),
                              Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)))
         for i in range(n)] for j in range(n)])


def scalar_column(col):
    return [ValuedScalar(to_poly(RATIONAL, e)) for e in col]


def test_coordinates_are_integral_and_exact_with_large_pivot_coefficients():
    """``pair_coordinates`` over Q returns S . basis^{-1} . c with integer
    coefficients, S the product of the stored pivot coefficients; in
    canonical coordinates (``solve``) that is S / s_i times coordinate i.
    ``basis_inverse`` and ``dual`` agree with ``solve``, and a column with a
    non-integer coefficient raises ``ValueError``."""
    rng = random.Random(1871)
    largest = 0
    for n in (2, 3, 4):
        for _ in range(3):
            lat = big_pivot_lattice(rng, n)
            scales = [col[i][1][0] for i, col in enumerate(lat.basis)]
            total = math.prod(scales)
            largest = max(largest, *scales)
            for other in (big_pivot_lattice(rng, n), random_lattice(rng, n, RATIONAL, -2, 2)):
                coords = lat.pair_coordinates(other.basis)
                assert all(type(c) is int for x in coords for e in x if e is not None
                           for c in e[1])
                for x, col in zip(coords, other.basis):
                    expected = [v * S(0, Fraction(total, s))
                                for v, s in zip(lat.solve(scalar_column(col)), scales)]
                    assert scalar_column(x) == expected
            # The canonical basis^{-1}, column by column, and the dual from its rows.
            inverse = [list(row) for row in zip(*(lat.solve(col) for col in
                                                   Lattice.standard(n, RATIONAL).columns))]
            assert lat.basis_inverse() == inverse
            assert lat.dual() == Lattice.from_columns(inverse)
            # One non-integer coefficient, in the row of a pivot coefficient
            # s_i > 1, with a denominator prime to S.
            i = max(range(n), key=scales.__getitem__)
            col = [(0, [Fraction(1, total + 1)]) if r == i else None for r in range(n)]
            with pytest.raises(ValueError):
                lat.pair_coordinates([col])
    assert largest > 10**5


# -- the input boundary against the two-step route -----------------------------

def reference_polynomial_column(col, p):
    """The two-step route to pairs: each entry as a pair of its raw
    coefficients (``from_poly``), times the product of the distinct
    denominators of more than one term, then times the lcm of the
    coefficient denominators (``integer_column``)."""
    out = [e if e is None or type(e) is tuple else
           from_poly(e.num if type(e) is ValuedScalar else e) for e in col]
    for d in {e.den for e in col if type(e) is ValuedScalar and len(e.den.coeffs) > 1}:
        pd = from_poly(d)
        out = [x if x is None or (type(e) is ValuedScalar and e.den == d) else
               addmul(None, x, pd, 1, p) for x, e in zip(out, col)]
    return integer_column(out, p)[0]


def boundary_entry(rng, field, kind, coefficients, dens):
    """One column entry of the given kind ("pair", "poly", "scalar", "zero"
    or "none") on exponents [-2, 2], its coefficients drawn from
    ``coefficients`` and, for "scalar", its denominator from ``dens``."""
    terms = {e: rng.choice(coefficients) for e in range(-2, 3) if rng.random() < 0.6}
    poly = LaurentPoly(field, terms)
    if kind == "none" or (kind == "pair" and poly.is_zero()):
        return None
    if kind == "zero":
        return rng.choice((LaurentPoly.zero(field), ValuedScalar.zero(field)))
    if kind == "pair":
        return from_poly(poly)
    if kind == "poly":
        return poly
    return ValuedScalar(poly, rng.choice(dens))


def boundary_columns(rng, field):
    """Random columns mixing every entry kind, over ``field``: over Q with
    int, integral ``Fraction`` and non-integral ``Fraction`` coefficients
    (JSON pairs hold ``Fraction``s), and denominators 1, 1 + t, (1 + t)^2
    and 1 - t/3 in one column."""
    one = LaurentPoly.one(field)
    one_plus_t = LaurentPoly(field, {0: field.one, 1: field.one})
    dens = [one, one_plus_t, one_plus_t * one_plus_t]
    if field.is_rational:
        dens.append(LaurentPoly(field, {0: 1, 1: Fraction(-1, 3)}))
        pools = ([-3, -1, 2, 5], [Fraction(c) for c in (-2, 1, 3)],
                 [Fraction(c, d) for c, d in ((1, 2), (-5, 6), (7, 4), (3, 1))],
                 [1, Fraction(-2), Fraction(2, 9)])
    else:
        pools = (range(1, field.p),)
    kinds = ("pair", "poly", "scalar", "zero", "none")
    for coefficients in pools:
        for _ in range(60):
            n = rng.randint(1, 5)
            yield [boundary_entry(rng, field, rng.choice(kinds), coefficients, dens)
                   for _ in range(n)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_polynomial_column_matches_two_step_route(field):
    rng = random.Random(2027 + (field.p or 0))
    checked = 0
    for col in boundary_columns(rng, field):
        out = polynomial_column(col, field.p)
        assert out == reference_polynomial_column(col, field.p), col
        if field.is_rational:
            # A Fraction or a bool in a stored basis would break the
            # content gcd of ``densepoly.cut``.
            assert all(type(c) is int for e in out if e is not None for c in e[1]), col
        checked += any(e is not None for e in out)
    assert checked > 50


def test_rational_columns_need_no_from_poly(monkeypatch):
    """Over Q ``LaurentPoly`` columns and ``ValuedScalar`` columns with unit
    denominators become integer pairs in one pass, with no ``from_poly``
    list of ``Fraction``s in between."""
    rng = random.Random(2701)
    cases = []
    while len(cases) < 12:
        n = rng.randint(1, 4)
        gens = sparse_generators(rng, RATIONAL, n, False)
        polys = [[e.num for e in col] for col in gens]
        try:
            cases.append((n, gens, polys, Lattice.from_generators(gens, n)))
        except SingularMatrixError:
            continue

    def refuse(poly):
        raise AssertionError("from_poly called")

    monkeypatch.setattr(densepoly, "from_poly", refuse)
    monkeypatch.setattr(lattices, "from_poly", refuse, raising=False)
    for n, gens, polys, lat in cases:
        assert Lattice.from_generators(gens, n).basis == lat.basis
        assert Lattice.from_generators(polys, n, RATIONAL).basis == lat.basis
