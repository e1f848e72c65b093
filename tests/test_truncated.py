"""Differential tests of the truncated F[t]/t^N kernel (its one-pass
recognition of canonical input included), of the polynomial relative position,
of ``relative_invariants`` and of the fraction-free Smith elimination
``densepoly.smith`` against the fraction-field routes they replaced, which are
kept here as the references."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latticeval import truncated
from latticeval.densepoly import combine, cut, from_poly, shift, smith, to_poly
from latticeval.detval import det_poly
from latticeval.lattices import (Lattice, SingularMatrixError, integer_column, matmul,
                                 polynomial_column)
from latticeval.metric import relative_invariants, smith_form
from latticeval.randgen import (random_apartment_instance, random_lattice, random_subspace,
                                random_unimodular)
from latticeval.scalars import GF, RATIONAL, LaurentPoly, ValuedScalar
from latticeval.truncated import canonical_basis

FIELDS = (RATIONAL, GF(2), GF(3), GF(101))


def reference_canonicalize(columns, n):
    """Reduce generating columns to the canonical lower-triangular basis.

    At step i the minimal-valuation entry of row i among the not-yet-pivoted
    columns becomes the pivot t^{d_i}; row i of the remaining columns is
    cleared (their quotients are integral by pivot minimality), and row i of
    the earlier pivot columns is reduced to its series truncated below t^{d_i}.
    """
    cols = [list(c) for c in columns]
    field = cols[0][0].field
    zero = ValuedScalar.zero(field)
    for i in range(n):
        pivot_at = None
        pivot_val = None
        for j in range(i, len(cols)):
            if cols[j][i].is_zero():
                continue
            v = cols[j][i].valuation()
            if pivot_val is None or v < pivot_val:
                pivot_at, pivot_val = j, v
        if pivot_at is None:
            raise SingularMatrixError(f"generators have rank < {n}")
        cols[i], cols[pivot_at] = cols[pivot_at], cols[i]
        # Scale the pivot column by a unit so the pivot becomes exactly t^d.
        tpow = ValuedScalar.t_power(field, pivot_val)
        unit_inv = tpow / cols[i][i]
        cols[i] = [e * unit_inv for e in cols[i]]
        for j in range(i + 1, len(cols)):
            if cols[j][i].is_zero():
                continue
            q = cols[j][i] / tpow
            cols[j] = [a - q * b for a, b in zip(cols[j], cols[i])]
            cols[j][i] = zero
        for j in range(i):
            e = cols[j][i]
            if e.is_zero():
                continue
            r = ValuedScalar(e.series_truncate(pivot_val))
            q = (e - r) / tpow
            if not q.is_zero():
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[i])]
                cols[j][i] = r
    return [c[:] for c in cols[:n]]


def reference_inverse(lat):
    """basis^{-1} as a row-major matrix of scalars, solving basis . x = e_k
    over the fraction field."""
    n, field = lat.n, lat.field
    e = [[ValuedScalar.one(field) if i == k else ValuedScalar.zero(field)
          for i in range(n)] for k in range(n)]
    inv_cols = [lat.solve(col) for col in e]
    return [[inv_cols[j][i] for j in range(n)] for i in range(n)]


def reference_relative_position(l, m):
    """basis(l)^{-1} basis(m), row-major, by fraction-field matmul."""
    n = l.n
    return matmul(reference_inverse(l), [[m.columns[j][i] for j in range(n)] for i in range(n)])


@st.composite
def polys(draw, field, low=-2, high=2):
    coeff = st.integers(-3, 3) if field.is_rational else st.integers(0, field.p - 1)
    exps = draw(st.lists(st.integers(low, high), max_size=3, unique=True))
    return LaurentPoly(field, {e: field.from_int(draw(coeff)) for e in exps})


@st.composite
def scalars(draw, field):
    """Zero, a Laurent polynomial, or a rational function."""
    num = draw(polys(field))
    if draw(st.booleans()):
        return ValuedScalar(num)
    den = draw(polys(field, 0, 2))
    return ValuedScalar(num, den) if not den.is_zero() else ValuedScalar(num)


def columns(draw, field, n):
    """Square or over-complete generators of length n, any rank."""
    m = n + draw(st.integers(0, 2))
    return [[draw(scalars(field)) for _ in range(n)] for _ in range(m)]


@st.composite
def generator_sets(draw):
    """(field, n, columns)."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    return field, n, columns(draw, field, n)


@st.composite
def generator_pairs(draw):
    """(n, columns, columns): two generator sets over one field."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    return n, columns(draw, field, n), columns(draw, field, n)


@st.composite
def singular_sets(draw):
    """(field, n, columns) whose columns span a module of rank < n: every
    column is a combination of n - 1 seed columns."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    seeds = [[draw(scalars(field)) for _ in range(n)] for _ in range(n - 1)]
    cols = []
    for _ in range(n + draw(st.integers(0, 1))):
        coeffs = [draw(scalars(field)) for _ in seeds]
        cols.append([
            sum((c * s[i] for c, s in zip(coeffs, seeds)), ValuedScalar.zero(field))
            for i in range(n)
        ])
    return field, n, cols


def pair_canonical_basis(cols, n):
    """canonical_basis of scalar generator columns, each converted once to
    ``densepoly`` pairs as ``Lattice.from_generators`` does."""
    field = cols[0][0].field
    return canonical_basis([polynomial_column(col, field.p) for col in cols], n, field)


def wrapped_canonical_basis(cols, n):
    """The canonical view of pair_canonical_basis (over Q each stored column
    divided by its pivot coefficient) as scalar columns, for comparison with
    the reference."""
    field = cols[0][0].field
    return [list(col) for col in Lattice(n, field, pair_canonical_basis(cols, n)).columns]


def canonical_coordinates(lat, columns):
    """basis^{-1} . c for the canonical basis of lat and columns c of pairs
    with rational coefficients: each column is scaled to integers by m
    (``integer_column``), and its S-scaled coordinates in the stored basis
    are multiplied by s_i / (S m), where s_i are the pivot coefficients and S
    their product (all 1 over F_p)."""
    if lat.field.p is not None:
        return lat.pair_coordinates(columns)
    scales = [col[i][1][0] for i, col in enumerate(lat.basis)]
    total = math.prod(scales)
    out = []
    for col in columns:
        col, m = integer_column(col, None)
        x = lat.pair_coordinates([col])[0]
        out.append([None if e is None else (e[0], [Fraction(c * s, total * m) for c in e[1]])
                    for e, s in zip(x, scales)])
    return out


def outcome(canonicalize, cols, n):
    try:
        return canonicalize(cols, n)
    except SingularMatrixError:
        return "singular"


@settings(max_examples=300, deadline=None)
@given(generator_sets())
def test_canonical_basis_matches_reference(case):
    _, n, cols = case
    assert outcome(wrapped_canonical_basis, cols, n) == outcome(reference_canonicalize, cols, n)


@settings(max_examples=100, deadline=None)
@given(singular_sets())
def test_singular_generators_raise(case):
    _, n, cols = case
    with pytest.raises(SingularMatrixError):
        pair_canonical_basis(cols, n)
    with pytest.raises(SingularMatrixError):
        reference_canonicalize(cols, n)


@settings(max_examples=150, deadline=None)
@given(generator_pairs())
def test_relative_invariants_match_smith_form(case):
    n, first, second = case
    try:
        l = Lattice.from_generators(first, n)
        m = Lattice.from_generators(second, n)
    except SingularMatrixError:
        return
    rel = reference_relative_position(l, m)
    exps, _, _ = smith_form(rel)
    assert l.basis_inverse() == reference_inverse(l)
    rel_poly = [[to_poly(l.field, e) for e in row]
                for row in zip(*canonical_coordinates(l, m.canonical_pairs))]
    assert [[ValuedScalar(e) for e in row] for row in rel_poly] == rel
    assert relative_invariants(l, m) == tuple(-e for e in exps)
    # The fraction-free transform: same exponents, C in GL_n(O), and column j
    # of rel . C has least valuation e_j, so rel . C . diag(t^{-e}) is in GL_n(O).
    eye = [[(0, [1]) if i == j else None for j in range(n)] for i in range(n)]
    ff_exps, c = smith([[from_poly(e) for e in row] for row in rel_poly], l.field.p, eye)
    c = [[to_poly(l.field, e) for e in row] for row in c]
    assert ff_exps == exps
    assert all(e.valuation() >= 0 for row in c for e in row)
    assert det_poly(c).valuation() == 0
    zero = LaurentPoly.zero(l.field)
    for j, e in enumerate(exps):
        col = [sum((rel_poly[r][k] * c[k][j] for k in range(n)), zero) for r in range(n)]
        assert min(x.valuation() for x in col) == e


def counted_hermite(mp):
    """Record the precision of each pass ``canonical_basis`` runs while mp is
    active: the residue rung's rank test is the pass at N = 1."""
    calls = []
    hermite, residues_span = truncated._hermite, truncated._residues_span

    def counted(*args):
        calls.append(args[1])
        return hermite(*args)

    def counted_rung(*args):
        calls.append(1)
        return residues_span(*args)

    mp.setattr(truncated, "_hermite", counted)
    mp.setattr(truncated, "_residues_span", counted_rung)
    return calls


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_canonical_input_is_returned_without_elimination(field, data):
    n = data.draw(st.integers(1, 4))
    try:
        lat = Lattice.from_generators(columns(data.draw, field, n), n)
    except SingularMatrixError:
        return
    # The stored basis, and the canonical view as JSON gives it (rational
    # coefficients, scaled to the stored form at the input boundary).
    with pytest.MonkeyPatch.context() as mp:
        calls = counted_hermite(mp)
        basis = canonical_basis(lat.basis, n, field)
        viewed = pair_canonical_basis(lat.columns, n)
    assert calls == []
    assert basis == viewed == lat.basis
    assert wrapped_canonical_basis(lat.columns, n) == reference_canonicalize(lat.columns, n)


PERTURBATIONS = ("unreduced entry", "pivot coefficient", "two-term pivot",
                 "above the diagonal", "redundant column", "denominator")


def perturbed(kind, lat):
    """The canonical basis of lat as scalar columns with one perturbation
    that breaks the canonical shape, or None where the kind cannot apply."""
    f, n, d = lat.field, lat.n, lat.pivots
    cols = [list(col) for col in lat.columns]
    one = ValuedScalar.one(f)
    t = LaurentPoly.t_power(f, 1)
    if kind == "unreduced entry":
        cols[0][n - 1] = cols[0][n - 1] + ValuedScalar.t_power(f, d[n - 1])
    elif kind == "pivot coefficient":
        # Over Q a positive rational pivot coefficient only scales the
        # column's stored form, so the perturbation takes a negative one.
        if f.p == 2:
            return None
        c = Fraction(-1, 2) if f.is_rational else f.from_int(2)
        cols[0][0] = ValuedScalar.t_power(f, d[0], c)
    elif kind == "two-term pivot":
        cols[n - 1][n - 1] = cols[n - 1][n - 1] * (one + ValuedScalar(t))
    elif kind == "above the diagonal":
        cols[1][0] = ValuedScalar.t_power(f, d[0])
    elif kind == "redundant column":
        cols.append([a + b for a, b in zip(cols[0], cols[n - 1])])
    else:
        # A nonzero entry left of a pivot; dividing it by 1 + t turns the
        # pivot of its column into t^{d_j} (1 + t) once denominators are
        # cleared, unless 1 + t divides the entry.
        fractions = [(j, i, ValuedScalar(cols[j][i].num, LaurentPoly.one(f) + t))
                     for j in range(n) for i in range(j + 1, n)]
        found = next((x for x in fractions if x[2].den.coeffs != {0: f.one}), None)
        if found is None:
            return None
        j, i, e = found
        cols[j][i] = e
    return cols


@pytest.mark.parametrize("kind", PERTURBATIONS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_near_canonical_input_is_eliminated(kind, data):
    field = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(2, 4))
    try:
        lat = Lattice.from_generators(columns(data.draw, field, n), n)
    except SingularMatrixError:
        return
    cols = perturbed(kind, lat)
    assume(cols is not None)
    with pytest.MonkeyPatch.context() as mp:
        calls = counted_hermite(mp)
        got = outcome(wrapped_canonical_basis, cols, n)
    assert calls, "a perturbed basis passed the canonical-shape check"
    assert got == outcome(reference_canonicalize, cols, n)
    if kind == "redundant column":
        assert pair_canonical_basis(cols, n) == lat.basis


def test_high_valuation_pivots_need_doubling():
    # det = t^20 exceeds the first precision, so the search must double it.
    f = GF(3)
    t = [ValuedScalar.t_power(f, e) for e in range(21)]
    gens = [[t[0], t[1]], [t[1], t[2] + t[20]]]
    assert wrapped_canonical_basis(gens, 2) == reference_canonicalize(gens, 2)
    assert pair_canonical_basis(gens, 2)[1][1] == (20, [1])
    # Over Q, the first pivot t^3 u has a dense unit u with u(0) = 2, whose
    # integral inverse fills row 1 of the first column up to the second pivot:
    # det = t^23 u, so D(L') = 21 and the ladder must pass N = 16.
    t = [ValuedScalar.t_power(RATIONAL, e) for e in range(21)]
    u = ValuedScalar(LaurentPoly(RATIONAL, {e: Fraction(c) for e, c in
                                            enumerate((2, 3, 1, 0, -1, 4, 1)) if c}))
    gens = [[t[3] * u, t[1]], [t[4] * u, t[2] + t[20]]]
    with pytest.MonkeyPatch.context() as mp:
        calls = counted_hermite(mp)
        got = wrapped_canonical_basis(gens, 2)
    assert max(calls) >= 16
    assert got == reference_canonicalize(gens, 2)
    assert pair_canonical_basis(gens, 2)[1][1] == (20, [1])


def ladder_from_one(columns, n, field):
    """The ladder that the residue rung and ``det`` replaced: a Hermite pass
    at N = 1, 2, 4, ..., B + 1 until one is accepted."""
    p = field.p
    low = truncated._least_valuation(columns)
    if low is None or len(columns) < n:
        raise SingularMatrixError(f"generators have rank < {n}")
    columns = [[None if e is None else (e[0] - low, e[1]) for e in col] for col in columns]
    bound = truncated._degree_bound(columns, n)
    prec = 1
    while True:
        cols = [cut(col, prec - 1, p) for col in columns]
        pivots = truncated._hermite(cols, prec, n, p)
        if pivots is not None and sum(pivots) < prec:
            return truncated._read_basis(cols, pivots, low)
        if prec > bound:
            raise SingularMatrixError(f"generators have rank < {n}")
        prec = min(2 * prec, bound + 1)


def ladder_cases(rng, field, n):
    """(name, generator columns of pairs, v(det) or None) for the callers of
    ``canonical_basis``: window-5 apartment lattices with the frame's v(det),
    their duals with -sum(pivots), residue witnesses base + t^{-1} base.W with
    sum(pivots(base)) - dim W, and sums of 3n generators."""
    apt, points, _ = random_apartment_instance(rng, n, 3, field, window=5)
    lats = []
    for pt in points:
        cols = [[shift(e, -c) for e in col] for col, c in zip(apt.basis, pt.c)]
        yield "apartment", cols, apt.det_valuation - sum(pt.c)
        lats.append(Lattice.from_columns(cols, field))
    units = [[(0, [field.one]) if i == j else None for i in range(n)] for j in range(n)]
    for lat in lats:
        yield "dual", [list(c) for c in zip(*lat.pair_coordinates(units))], -sum(lat.pivots)
        w = random_subspace(rng, n, field)
        gens = list(lat.basis) + [combine(lat.basis, [(-1, [c]) if c else None for c in row],
                                          field.p) for row in w.rows]
        yield "residue witness", gens, sum(lat.pivots) - w.dim
    yield "sum", [list(col) for lat in lats for col in lat.basis], None


@pytest.mark.parametrize("field", FIELDS)
def test_ladder_matches_ladder_from_one(field):
    # The residue rung and a known v(det) give the basis of the ladder from
    # N = 1, and the callers' v(det) formulas are right; a wrong v(det) is an
    # error.
    rng = random.Random(1901)
    names = set()
    for n in range(1, 6):
        for _ in range(3):
            for name, cols, det in ladder_cases(rng, field, n):
                names.add(name)
                # Over Q the dual and residue-witness generators hold
                # fractions; the input boundary scales them to integers.
                cols = [polynomial_column(col, field.p) for col in cols]
                want = ladder_from_one(cols, n, field)
                assert canonical_basis(cols, n, field) == want, name
                true_det = sum(col[j][0] for j, col in enumerate(want))
                assert det in (None, true_det), name
                assert canonical_basis(cols, n, field, det=true_det) == want, name
                for wrong in (true_det - 1, true_det + 1):
                    with pytest.raises(ValueError):
                        canonical_basis(cols, n, field, det=wrong)
    assert names == {"apartment", "dual", "residue witness", "sum"}


def test_residue_rung_over_q_is_exact():
    # Residues singular modulo q = 2^31 - 1 but not over Q: the rung is exact
    # over Q and accepts D(L') = 0 without a Hermite pass.  The first case has
    # constant entries, so B = 0; in the last, the integer column of 2q/3
    # holds 2q.
    q = 2**31 - 1
    f = RATIONAL
    zero = ValuedScalar.zero(f)
    t = [ValuedScalar.t_power(f, e) for e in range(2)]
    big = ValuedScalar.t_power(f, 0, Fraction(q))
    for gens in ([[big, zero], [zero, t[0]]],
                 [[big + t[1], t[1]], [t[1], t[0]]],
                 [[ValuedScalar.t_power(f, 0, Fraction(2 * q, 3)), t[1]], [t[1], t[0]]]):
        cols = [polynomial_column(col, None) for col in gens]
        assert truncated._residues_span(cols, 2, f)
        for det in (None, 0):
            with pytest.MonkeyPatch.context() as mp:
                calls = counted_hermite(mp)
                got = canonical_basis(cols, 2, f, det=det)
            assert calls == [1]
            assert got == (((0, [1]), None), (None, (0, [1])))
        with pytest.raises(ValueError):
            canonical_basis(cols, 2, f, det=1)


@pytest.mark.parametrize("field", FIELDS)
def test_singular_residues_with_constant_entries_raise_after_the_rung(field):
    # B = 0 and the residues have rank 1: the rung proves the generators
    # singular over Q exactly as over F_p, with no Hermite pass.
    two = ValuedScalar.from_int(field, 2)
    one = ValuedScalar.one(field)
    cols = [polynomial_column(col, field.p) for col in ([one, two], [two, two + two])]
    assert not truncated._residues_span(cols, 2, field)
    with pytest.MonkeyPatch.context() as mp:
        calls = counted_hermite(mp)
        with pytest.raises(SingularMatrixError):
            canonical_basis(cols, 2, field)
    assert calls == [1]


def unit_cases(rng, p):
    """Dense and sparse coefficient lists of units of O: every coefficient
    nonzero, or zeros between u[0] and the last term; u[0] is not 0 or +-1
    wherever the field has such an element.  Lengths run past 12."""
    first = (2, -3, 5) if p is None else tuple(range(2, p - 1)) or tuple(range(1, p))
    nonzero = (lambda: rng.choice((-3, -2, -1, 1, 2, 3))) if p is None else (
        lambda: rng.randrange(1, p))
    for length in (1, 2, 3, 5, 8, 13, 16):
        yield [rng.choice(first)] + [nonzero() for _ in range(length - 1)]
        if length > 2:
            sparse = [rng.choice(first)] + [0] * (length - 2) + [nonzero()]
            sparse[rng.randrange(1, length - 1)] = nonzero()
            yield sparse


@pytest.mark.parametrize("field", FIELDS)
def test_unit_inverse_of_pair_coefficients(field):
    # u*w = d modulo t^prec, with d = u[0]^prec and integral w over Q, d = 1
    # over F_p; w has exactly prec coefficients.
    p = field.p
    rng = random.Random(1701)
    for u in unit_cases(rng, p):
        for prec in range(1, 13):
            w, d = truncated._unit_inverse(u, prec, p)
            assert len(w) == prec
            if p is None:
                assert d == u[0] ** prec and all(type(x) is int for x in w)
            else:
                assert d == 1 and all(0 <= x < p for x in w)
            for k in range(prec):
                s = sum(u[e] * w[k - e] for e in range(min(k + 1, len(u))))
                assert (s if p is None else s % p) == (d if k == 0 else 0), (u, prec, k)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("shift", (0, -2))
def test_precision_ladder_starts_at_one(field, shift):
    t = [ValuedScalar.t_power(field, e + shift) for e in range(3)]
    # det = t^{2 shift} (1 + t - t^3): D(L') = 0, one residue pass.
    unit = [[t[0] + t[1], t[1]], [t[2], t[0]]]
    # det = t^{2 shift} t: D(L') = 1, no pivot in row 1 modulo t.
    step = [[t[0], t[0]], [t[0], t[0] + t[1]]]
    for gens, passes in ((unit, [1]), (step, [1, 2])):
        with pytest.MonkeyPatch.context() as mp:
            calls = counted_hermite(mp)
            got = wrapped_canonical_basis(gens, 2)
        assert calls == passes
        assert got == reference_canonicalize(gens, 2)


def poly_matrix(field, rel):
    return [[to_poly(field, e) for e in row] for row in rel]


def poly_product(a, b):
    zero = LaurentPoly.zero(a[0][0].field)
    return [[sum((x * y for x, y in zip(row, col)), zero) for col in zip(*b)] for row in a]


def smith_cases(rng, field, n):
    """Relative positions (row-major pairs) of a window-5 apartment pair and
    of two random lattices, and a random-unimodular image U . A . V of the
    latter."""
    apt, points, _ = random_apartment_instance(rng, n, 2, field, window=5)
    l, m = (apt.lattice(pt) for pt in points)
    yield l.pair_coordinates(m.basis)
    a = random_lattice(rng, n, field, -2, 2).pair_coordinates(
        random_lattice(rng, n, field, -2, 2).basis)
    yield a
    u, v = ([[c.num for c in row] for row in zip(*random_unimodular(rng, n, field))]
            for _ in range(2))
    image = poly_product(poly_product(u, poly_matrix(field, a)), v)
    # Over Q each row is scaled to integers, by a unit of O, as smith needs.
    yield [integer_column([from_poly(e) for e in row], field.p)[0] for row in image]


@pytest.mark.parametrize("field", FIELDS)
def test_smith_cut_at_top_matches_uncut(field):
    # The bound of relative_invariants: e_n <= v(det) - (n - 1) e_1.
    rng = random.Random(1601)
    for n in range(1, 6):
        for _ in range(2):
            for rel in smith_cases(rng, field, n):
                det = det_poly(poly_matrix(field, rel)).valuation()
                low = min(e[0] for row in rel for e in row if e is not None)
                exps, _ = smith(rel, field.p, [], det - (n - 1) * low)
                assert exps == smith(rel, field.p, [])[0]
                assert sum(exps) == det
