"""The library's operations make no ``LaurentPoly`` product or division, no
``poly_gcd`` call and no ``ValuedScalar`` arithmetic on inputs like those of
the three benchmark workloads: those run on the ``truncated`` and
``densepoly`` kernels, and ``scalars`` only carries input fractions and the
test references."""

import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

from latticeval import closecase, detval, metric, scalars, subspaces
from latticeval.cli import main
from latticeval.detval import multi_f, star_cost
from latticeval.harness import verify_star
from latticeval.lattices import Lattice, SingularMatrixError
from latticeval.metric import distance
from latticeval.randgen import random_apartment_instance
from latticeval.scalars import GF, RATIONAL, LaurentPoly, ValuedScalar
from latticeval.serialize import instance_to_json

FORBIDDEN = (
    (ValuedScalar, "__add__"),
    (ValuedScalar, "__mul__"),
    (ValuedScalar, "__truediv__"),
    (ValuedScalar, "invert"),
    (LaurentPoly, "__mul__"),
    (LaurentPoly, "divexact"),
    (scalars, "poly_gcd"),
)


def clear_caches():
    detval._MULTI_F_CACHE.clear()
    for fn in (metric.relative_invariants, closecase.extract_triple,
               closecase.close_candidates, subspaces.Subspace.sum,
               subspaces.Subspace.intersect):
        fn.cache_clear()


def generic_lattices(rng, field, n, count=3):
    """Random lattices from column generators with sparse Laurent entries on
    exponents [-2, 2] and coefficients in +-{1, 2, 3}."""
    out = []
    while len(out) < count:
        cols = [[ValuedScalar(LaurentPoly(field, {
            e: field.from_int(rng.choice((-3, -2, -1, 1, 2, 3)))
            for e in range(-2, 3) if rng.random() < 0.5}))
            for _ in range(n)] for _ in range(n)]
        try:
            out.append(Lattice.from_columns(cols))
        except SingularMatrixError:
            continue
    return out


def close_lattices(rng, field, count=3):
    """E + t^{-1}U for subspaces U of F^3 spanned by random vectors with
    entries in {-1, 0, 1}."""
    e = Lattice.standard(3, field)
    out = []
    for _ in range(count):
        gens = [list(c) for c in e.columns]
        gens += [[ValuedScalar(LaurentPoly(field, {-1: field.from_int(rng.randint(-1, 1))}))
                  for _ in range(3)] for _ in range(rng.randint(0, 3))]
        out.append(Lattice.from_generators(gens, 3))
    return out


def composition(rng, n, k):
    cuts = sorted(rng.randint(0, n) for _ in range(k - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))


def operations(tmp_path):
    """(name, thunk) pairs; each call builds its inputs afresh from fixed
    seeds, so no lattice carries state from an earlier run."""
    ops = []
    for field in (RATIONAL, GF(3), GF(101)):
        for n in (3, 4):
            rng = random.Random(n)
            lats = generic_lattices(rng, field, n)
            idx = composition(rng, n, 3)
            ops.append((f"generic-{field!r}-{n}", lambda lats=lats, idx=idx: (
                distance(lats[0], lats[1]), distance(lats[1], lats[0]),
                multi_f(idx, lats), star_cost(idx, lats, lats[0]))))
        rng = random.Random(5)
        for k in range(4):
            lats = close_lattices(rng, field)
            idx = composition(rng, 3, 3)
            ops.append((f"close-{field!r}-{k}", lambda lats=lats, idx=idx: (
                verify_star(idx, lats, "close"), multi_f(idx, lats))))
        rng = random.Random(11)
        for n, k in ((3, 3), (3, 4), (4, 3)):
            apt, points, idx = random_apartment_instance(rng, n, k, field, window=2)
            lats = [apt.lattice(pt) for pt in points]
            path = tmp_path / f"apt-{field!r}-{n}-{k}.json"
            path.write_text(json.dumps(instance_to_json(lats, idx)))
            ops.append((f"apartment-{field!r}-{n}-{k}", lambda lats=lats, idx=idx, path=path: (
                verify_star(idx, lats, "apartment"), run_cli(path))))
    return ops


def run_cli(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path), "--strategy", "apartment", "--json"])
    return code, out.getvalue(), err.getvalue()


def test_operations_make_no_scalar_arithmetic(monkeypatch, tmp_path):
    def forbidden(*args):
        raise AssertionError("scalar arithmetic inside a library operation")

    clear_caches()
    expected = {name: op() for name, op in operations(tmp_path)}
    statuses = {res[0].status for name, res in expected.items()
                if not name.startswith("generic")}
    assert statuses == {"verified", "inconclusive"}
    clear_caches()
    ops = operations(tmp_path)
    for owner, name in FORBIDDEN:
        monkeypatch.setattr(owner, name, forbidden)
    assert {name: op() for name, op in ops} == expected


def test_forbidden_methods_are_reached_by_fractions(monkeypatch):
    """The guard is live: an input fraction with a denominator still goes
    through ValuedScalar and LaurentPoly arithmetic."""
    def forbidden(*args):
        raise AssertionError("scalar arithmetic")

    one = ValuedScalar.one(RATIONAL)
    den = LaurentPoly(RATIONAL, {0: Fraction(1), 1: Fraction(1)})
    cols = [[ValuedScalar(LaurentPoly.one(RATIONAL), den), one], [one, one + one]]
    Lattice.from_columns(cols)
    monkeypatch.setattr(LaurentPoly, "__mul__", forbidden)
    with pytest.raises(AssertionError):
        Lattice.from_columns(cols)
