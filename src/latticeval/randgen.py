"""Seeded random instances: scalars, lattices, frames, close triples, and
apartment configurations for sweeps and the CLI generator."""

from __future__ import annotations

from .apartment import Apartment, ApartmentPoint
from .densepoly import addmul, strip, to_poly
from .lattices import Lattice, SingularMatrixError
from .scalars import BaseField, LaurentPoly, ValuedScalar
from .subspaces import Subspace


def random_coefficient(rng, field: BaseField):
    if field.is_rational:
        return field.from_int(rng.randint(-3, 3))
    return field.from_int(rng.randrange(field.p))


def random_scalar(rng, field: BaseField, low: int = -2, high: int = 2) -> ValuedScalar:
    """Random scalar with a dense Laurent polynomial on [low, high]."""
    coeffs = {e: random_coefficient(rng, field) for e in range(low, high + 1)}
    return ValuedScalar(LaurentPoly(field, coeffs))


def random_lattice(rng, n: int, field: BaseField, low: int = -3, high: int = 3) -> Lattice:
    """Random lattice from random generator columns (redrawn if singular).
    Each entry keeps each exponent in [low, high] with probability 1/2 and a
    nonzero coefficient: dense entries make the t^low coefficient matrix
    almost always invertible, and the lattice then is just t^low E."""
    nonzero = (-3, -2, -1, 1, 2, 3) if field.is_rational else range(1, field.p)
    while True:
        cols = [
            [LaurentPoly(field, {e: field.from_int(rng.choice(nonzero))
                                 for e in range(low, high + 1) if rng.random() < 0.5})
             for _ in range(n)]
            for _ in range(n)
        ]
        try:
            return Lattice.from_columns(cols)
        except SingularMatrixError:
            continue


def random_unimodular(rng, n: int, field: BaseField):
    """Random integral matrix of determinant-valuation zero, built from 2n
    elementary column operations on the identity (column-major), each adding
    a multiple of degree at most 1 in t.  The operations run on ``densepoly``
    pairs; the columns are returned as ``ValuedScalar`` entries."""
    cols = [[(0, [field.one]) if i == j else None for i in range(n)] for j in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        a, b = rng.sample(range(n), 2)
        m = strip(0, [random_coefficient(rng, field) for _ in range(2)])
        if m is not None:
            cols[a] = [x if y is None else addmul(x, m, y, 1, field.p)
                       for x, y in zip(cols[a], cols[b])]
    return [[ValuedScalar(to_poly(field, e)) for e in col] for col in cols]


def random_valdet0(rng, n: int, field: BaseField, window: int = 2):
    """Random transformation matrix with determinant valuation zero: a
    unimodular product twisted by a diagonal of t-powers summing to zero."""
    cols = random_unimodular(rng, n, field)
    shifts = [rng.randint(-window, window) for _ in range(n - 1)]
    shifts.append(-sum(shifts))
    # Row-major g with column j of the unimodular part scaled by t^{shift_j}.
    return [[ValuedScalar(cols[j][i].num.shift(shifts[j])) for j in range(n)]
            for i in range(n)]


def random_subspace(rng, n: int, field: BaseField) -> Subspace:
    d = rng.randint(0, n)
    vecs = [
        [random_coefficient(rng, field) for _ in range(n)] for _ in range(d)
    ]
    return Subspace.span(vecs, n, field)


def random_close_triple(rng, n: int, field: BaseField):
    """Three lattices between the standard lattice and its t^{-1} dilate,
    realized from three random subspaces of the quotient."""
    e = Lattice.standard(n, field)
    lats = []
    for _ in range(3):
        u = random_subspace(rng, n, field)
        gens = list(e.basis)
        gens += [[LaurentPoly(field, {-1: c}) for c in row] for row in u.rows]
        lats.append(Lattice.from_generators(gens, n, field))
    return tuple(lats)


def random_index(rng, n: int, k: int):
    """Random nonnegative index vector of length k summing to n."""
    cuts = sorted(rng.randint(0, n) for _ in range(k - 1))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(n - prev)
    return tuple(parts)


def random_apartment_instance(rng, n: int, k: int, field: BaseField, window: int = 5):
    """A random frame, k random exponent points, and a valid index vector."""
    apt = Apartment(random_unimodular(rng, n, field))
    points = [
        ApartmentPoint(tuple(rng.randint(-window, window) for _ in range(n)))
        for _ in range(k)
    ]
    idx = random_index(rng, n, k)
    return apt, points, idx
