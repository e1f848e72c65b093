"""Row operations over the residue field against the element-wise route.

``reference_rref`` and ``reference_contains`` are the elimination as it was
written with one ``field.mul``/``field.sub`` call per entry; ``rref`` and
``Subspace.contains`` now do each row operation as one list comprehension.
The outputs must agree entry for entry, element types included."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeval.scalars import GF, RATIONAL
from latticeval.subspaces import Subspace, rank_of, rref

FIELDS = (RATIONAL, GF(2), GF(3), GF(101))


def _reference_reduce(row, basis, pivots, field):
    row = list(row)
    for b, p in zip(basis, pivots):
        if row[p]:
            coef = row[p]
            for i in range(len(row)):
                row[i] = field.sub(row[i], field.mul(coef, b[i]))
    return row


def reference_rref(vectors, n, field):
    rows = [list(v) for v in vectors if any(v)]
    basis, pivots = [], []
    for row in rows:
        row = _reference_reduce(row, basis, pivots, field)
        lead = next((i for i, c in enumerate(row) if c), None)
        if lead is None:
            continue
        inv = field.inv(row[lead])
        row = [field.mul(c, inv) for c in row]
        for b in basis:
            if b[lead]:
                coef = b[lead]
                for i in range(n):
                    b[i] = field.sub(b[i], field.mul(coef, row[i]))
        basis.append(row)
        pivots.append(lead)
    order = sorted(range(len(basis)), key=lambda k: pivots[k])
    return tuple(tuple(basis[k]) for k in order)


def reference_contains(sub, v):
    pivots = [next(i for i, c in enumerate(r) if c) for r in sub.rows]
    return not any(_reference_reduce(v, [list(r) for r in sub.rows], pivots, sub.field))


def random_rows(rng, field, n):
    """Rows with entries in {-2, ..., 2} (or F_p), some zero rows, some
    duplicates and some combinations of earlier rows."""
    rows = []
    for _ in range(rng.randint(0, n + 2)):
        kind = rng.random()
        if kind < 0.15:
            rows.append([field.zero] * n)
        elif kind < 0.3 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.45 and len(rows) > 1:
            u, w = rng.sample(rows, 2)
            c = field.from_int(rng.randint(-2, 2))
            rows.append([field.add(x, field.mul(c, y)) for x, y in zip(u, w)])
        else:
            rows.append([field.from_int(rng.randint(-2, 2)) if rng.random() < 0.6
                         else field.zero for _ in range(n)])
    return rows


def typed(rows):
    return [[(type(x), x) for x in r] for r in rows]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rref_matches_elementwise_reference(field):
    rng = random.Random(field.p or 0)
    for _ in range(400):
        n = rng.randint(1, 5)
        rows = random_rows(rng, field, n)
        got = rref(rows, n, field)
        assert isinstance(got, tuple) and all(isinstance(r, tuple) for r in got)
        assert typed(got) == typed(reference_rref(rows, n, field))
        # Zassenhaus input: (u | u) and (w | 0) rows on 2n columns.
        other = random_rows(rng, field, n)
        zassenhaus = [u + u for u in rows] + [w + [field.zero] * n for w in other]
        assert typed(rref(zassenhaus, 2 * n, field)) == typed(
            reference_rref(zassenhaus, 2 * n, field))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_contains_matches_elementwise_reference(field):
    rng = random.Random(7 + (field.p or 0))
    for _ in range(300):
        n = rng.randint(1, 5)
        sub = Subspace.span(random_rows(rng, field, n), n, field)
        for v in random_rows(rng, field, n) + [list(r) for r in sub.rows]:
            assert sub.contains(v) == reference_contains(sub, v)
            assert sub.contains(tuple(v)) == sub.contains(v)
        assert sub.contains([field.zero] * n)


RANK_FIELDS = FIELDS + (GF(2**31 - 1),)


@pytest.mark.parametrize("field", RANK_FIELDS, ids=repr)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rank_of_matches_rref(field, data):
    # rank_of eliminates forward only and stops at rank n; the element-wise
    # reference_rref is the independent route.  Over Q the rows may hold
    # plain ints, as residue coordinates do.
    n = data.draw(st.integers(1, 5))
    entry = st.integers(-3, 3) if field.is_rational else st.integers(0, min(field.p - 1, 5))
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n + 2))
    for _ in range(data.draw(st.integers(0, 3)) if rows else 0):
        # A combination of two earlier rows, so that ranks below n are common.
        u, w = data.draw(st.sampled_from(rows)), data.draw(st.sampled_from(rows))
        c = data.draw(entry)
        rows.append([x + c * y for x, y in zip(u, w)])
    if not field.is_rational or data.draw(st.booleans()):
        rows = [[field.from_int(x) for x in row] for row in rows]
    assert rank_of(rows, n, field) == len(reference_rref(rows, n, field))


def dense_rows(rng, field, n, entry):
    """Up to 2n dense rows of entry() values (mapped into F_p), with a
    planted rank deficit in most cases: beyond a random number r <= n of
    rows, every row is a combination of earlier ones."""
    r = rng.randint(0, n)
    rows = [[entry() for _ in range(n)] for _ in range(r)]
    for _ in range(rng.randint(0, 2 * n - r)):
        if rows and rng.random() < 0.8:
            coefs = [rng.randint(-3, 3) for _ in rows]
            rows.insert(rng.randint(0, len(rows)),
                        [sum(c * row[i] for c, row in zip(coefs, rows)) for i in range(n)])
        else:
            rows.append([entry() for _ in range(n)])
    if field.p is not None:
        rows = [[field.from_int(x) for x in row] for row in rows]
    return rows


DENSE_CASES = [(RATIONAL, "int"), (RATIONAL, "Fraction")] + [
    (field, "int") for field in RANK_FIELDS[1:]]


@pytest.mark.parametrize("field, kind", DENSE_CASES,
                         ids=[f"{field!r}-{kind}" for field, kind in DENSE_CASES])
def test_dense_rank_and_rref_match_elementwise_reference(field, kind):
    # Entries up to +-50, ranks up to n = 10: over Q both the int rows of
    # residue coordinates and Fraction rows with non-unit denominators.
    rng = random.Random(2603 + (field.p or 0) + len(kind))
    if kind == "int":
        entry = lambda: rng.randint(-50, 50)  # noqa: E731
    else:
        entry = lambda: Fraction(rng.randint(-50, 50), rng.randint(1, 7))  # noqa: E731
    for n in range(1, 11):
        for _ in range(10):
            rows = dense_rows(rng, field, n, entry)
            want = reference_rref(rows, n, field)
            assert typed(rref(rows, n, field)) == typed(want)
            assert rank_of(rows, n, field) == len(want)


@pytest.mark.parametrize("field", RANK_FIELDS, ids=repr)
def test_intersect_matches_span_of_zassenhaus_right_halves(field):
    # The route of Zassenhaus's algorithm written out with the reference:
    # the span of the right halves of the zero-left rows of the echelon form
    # of (u | u) and (w | 0).
    rng = random.Random(31 + (field.p or 0))
    for _ in range(200):
        n = rng.randint(1, 5)
        u = Subspace.span(random_rows(rng, field, n), n, field)
        w = Subspace.span(random_rows(rng, field, n), n, field)
        zero = (field.zero,) * n
        echelon = reference_rref([r + r for r in u.rows] + [r + zero for r in w.rows],
                                 2 * n, field)
        want = reference_rref([r[n:] for r in echelon if not any(r[:n])], n, field)
        got = u.intersect(w)
        assert typed(got.rows) == typed(want)
        assert got == Subspace.span([r[n:] for r in echelon if not any(r[:n])], n, field)
        assert got.dim == u.dim + w.dim - u.sum(w).dim
