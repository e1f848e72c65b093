"""Differential tests of the truncated F[t]/t^N kernel against the
fraction-field elimination it replaced, which is kept here as the reference."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeval.lattices import Lattice, SingularMatrixError, matmul
from latticeval.metric import relative_invariants, smith_form
from latticeval.scalars import GF, RATIONAL, LaurentPoly, ValuedScalar
from latticeval.truncated import canonical_basis, smith_exponents

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


def outcome(canonicalize, cols, n):
    try:
        return canonicalize(cols, n)
    except SingularMatrixError:
        return "singular"


@settings(max_examples=300, deadline=None)
@given(generator_sets())
def test_canonical_basis_matches_reference(case):
    _, n, cols = case
    assert outcome(canonical_basis, cols, n) == outcome(reference_canonicalize, cols, n)


@settings(max_examples=100, deadline=None)
@given(singular_sets())
def test_singular_generators_raise(case):
    _, n, cols = case
    with pytest.raises(SingularMatrixError):
        canonical_basis(cols, n)
    with pytest.raises(SingularMatrixError):
        reference_canonicalize(cols, n)


@settings(max_examples=150, deadline=None)
@given(generator_pairs())
def test_smith_exponents_match_smith_form(case):
    n, first, second = case
    try:
        l = Lattice.from_generators(first, n)
        m = Lattice.from_generators(second, n)
    except SingularMatrixError:
        return
    rel = matmul(l.basis_inverse(), [[m.columns[j][i] for j in range(n)] for i in range(n)])
    exps, _, _ = smith_form(rel)
    assert smith_exponents(rel, l.unary_f() - m.unary_f()) == exps
    assert relative_invariants(l, m) == tuple(-e for e in exps)


def test_high_valuation_pivots_need_doubling():
    # det = t^20 exceeds the first precision, so the search must double it.
    f = GF(3)
    t = [ValuedScalar.t_power(f, e) for e in range(21)]
    gens = [[t[0], t[1]], [t[1], t[2] + t[20]]]
    basis = canonical_basis(gens, 2)
    assert basis == reference_canonicalize(gens, 2)
    assert basis[1][1] == ValuedScalar.t_power(f, 20)


def test_smith_exponents_reject_wrong_determinant_valuation():
    one = ValuedScalar.one(RATIONAL)
    t = ValuedScalar.t_power(RATIONAL, 1)
    with pytest.raises(ValueError):
        smith_exponents([[one, ValuedScalar.zero(RATIONAL)], [ValuedScalar.zero(RATIONAL), t]], 2)
