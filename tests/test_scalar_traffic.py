"""The library's operations make no ``LaurentPoly`` product or division, no
``poly_gcd`` call and no ``ValuedScalar`` arithmetic on inputs like those of
the three benchmark workloads, nor does ``latticeval gen --kind apartment``
or ``verify --strategy random``: those run on the ``truncated`` and
``densepoly`` kernels, and ``scalars`` only carries input fractions and the
test references.  A canonical instance file loads without building any
``ValuedScalar`` or running an elimination, and the relative invariants of two
canonical lattices build no ``LaurentPoly`` and call nothing in
``truncated``.  A lattice computes its dual once, and the residue subspace of
the close case is read from ``densepoly`` pairs.  Lattices hold those pairs
from the kernels to the JSON boundary, so operations on stored lattices and
a CLI verification build no ``LaurentPoly`` at all."""

import contextlib
import inspect
import io
import json
import random
import sys
from fractions import Fraction

import pytest

from latticeval import (cli, closecase, densepoly, detval, lattices, metric, scalars, subspaces,
                        truncated)
from latticeval.cli import main
from latticeval.closecase import residue_subspace
from latticeval.detval import multi_f, star_cost
from latticeval.harness import verify_star
from latticeval.lattices import Lattice, SingularMatrixError
from latticeval.metric import distance
from latticeval.randgen import random_apartment_instance
from latticeval.scalars import GF, RATIONAL, LaurentPoly, ValuedScalar
from latticeval.serialize import field_to_str, instance_to_json

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
        # The CLI's random instances and random frames.
        gen = ["gen", "--kind", "apartment", "--field", field_to_str(field), "--seed", "3"]
        path = tmp_path / f"gen-{field!r}.json"
        path.write_text(cli_output(gen)[1])
        ops.append((f"cli-gen-{field!r}", lambda gen=gen: cli_output(gen)))
        ops.append((f"cli-random-{field!r}", lambda path=path: cli_output(
            ["verify", str(path), "--strategy", "random", "--budget", "10", "--json"])))
    return ops


def cli_output(argv):
    """(exit code, stdout, stderr) of an in-process ``latticeval`` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_cli(path):
    return cli_output(["verify", str(path), "--strategy", "apartment", "--json"])


def counted(monkeypatch, owner, name, calls):
    """Replace owner.name by a wrapper that records each call's arguments in
    calls."""
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_operations_make_no_scalar_arithmetic(monkeypatch, tmp_path):
    def forbidden(*args):
        raise AssertionError("scalar arithmetic inside a library operation")

    clear_caches()
    expected = {name: op() for name, op in operations(tmp_path)}
    statuses = {res[0].status for name, res in expected.items()
                if name.startswith(("close", "apartment"))}
    assert statuses == {"verified", "inconclusive"}
    assert {res[0] for name, res in expected.items() if name.startswith("cli-random")} == {0, 2}
    clear_caches()
    ops = operations(tmp_path)
    for owner, name in FORBIDDEN:
        monkeypatch.setattr(owner, name, forbidden)
    assert {name: op() for name, op in ops} == expected


def test_canonical_instance_loads_in_one_pass(monkeypatch, tmp_path, capsys):
    """A ``gen`` instance holds canonical bases without denominators, so
    loading it builds no ``ValuedScalar`` and runs no elimination."""
    assert main(["gen", "--kind", "apartment", "--field", "prime:101", "--seed", "1"]) == 0
    path = tmp_path / "inst.json"
    path.write_text(capsys.readouterr().out)
    scalars_built, eliminations = [], []
    counted(monkeypatch, ValuedScalar, "__init__", scalars_built)
    counted(monkeypatch, truncated, "_hermite", eliminations)
    counted(monkeypatch, truncated, "_residues_span", eliminations)
    lattices, _, _ = cli._load_instance(str(path))
    assert len(lattices) == 3
    assert scalars_built == [] and eliminations == []
    # The counters are live: a scalar entry is still built as one.
    ValuedScalar.one(lattices[0].field)
    assert scalars_built


def test_forbidden_methods_are_reached_by_fractions(monkeypatch):
    """The guard is live: an input fraction with a denominator is still
    reduced by ``poly_gcd`` when it is built, and ValuedScalar arithmetic
    reaches the guarded methods."""
    def forbidden(*args):
        raise AssertionError("scalar arithmetic")

    def lattice():
        one = ValuedScalar.one(RATIONAL)
        den = LaurentPoly(RATIONAL, {0: Fraction(1), 1: Fraction(1)})
        return Lattice.from_columns([[ValuedScalar(LaurentPoly.one(RATIONAL), den), one],
                                     [one, one + one]])

    lattice()
    for owner, name in ((scalars, "poly_gcd"), (ValuedScalar, "__add__")):
        with monkeypatch.context() as mp:
            mp.setattr(owner, name, forbidden)
            with pytest.raises(AssertionError):
                lattice()


def test_relative_invariants_stay_on_pairs(monkeypatch):
    """The Smith elimination reads the lattices' canonical bases as
    ``densepoly`` pairs, with no ``LaurentPoly`` round trip and no
    ``truncated`` kernel."""
    rng = random.Random(7)
    pairs = [generic_lattices(rng, field, n, count=2)
             for field in (RATIONAL, GF(2), GF(101)) for n in (2, 3, 4)]
    pairs += [close_lattices(rng, GF(3), count=2)]
    metric.relative_invariants.cache_clear()
    expected = [distance(l, m) for l, m in pairs]
    metric.relative_invariants.cache_clear()
    polys_built, kernel_calls = [], []
    counted(monkeypatch, LaurentPoly, "__init__", polys_built)
    for name, fn in inspect.getmembers(truncated, inspect.isfunction):
        if fn.__module__ == truncated.__name__:
            counted(monkeypatch, truncated, name, kernel_calls)
    assert [distance(l, m) for l, m in pairs] == expected
    assert polys_built == [] and kernel_calls == []
    # The counters are live: a generator matrix is canonicalised by the kernel.
    Lattice.from_generators([list(c) for c in pairs[0][0].columns][::-1], pairs[0][0].n)
    assert polys_built and kernel_calls


def test_stored_lattices_build_no_laurent_poly(monkeypatch, tmp_path, capsys):
    """Lattices hold ``densepoly`` pairs from the kernel to the JSON boundary:
    with ``LaurentPoly.__init__``, ``densepoly.from_poly`` and
    ``densepoly.to_poly`` raising, operations on stored lattices, the close
    and apartment strategies and ``latticeval verify --strategy apartment``
    on a ``gen`` instance give the unpatched results."""
    paths = []
    for seed in (0, 1):
        assert main(["gen", "--kind", "apartment", "--field", "prime:101", "--seed", str(seed)]) == 0
        paths.append(tmp_path / f"inst-{seed}.json")
        paths[-1].write_text(capsys.readouterr().out)

    def inputs():
        # Fresh lattices on each call, so no stored dual carries over.
        rng = random.Random(23)
        cases = []
        for field in (RATIONAL, GF(2), GF(3), GF(101)):
            for n in (3, 4):
                cases.append((generic_lattices(rng, field, n), composition(rng, n, 3)))
            cases.append((close_lattices(rng, field), composition(rng, 3, 3)))
            apt, points, idx = random_apartment_instance(rng, 3, 3, field, window=2)
            cases.append(([apt.lattice(pt) for pt in points], idx))
        return cases

    def run(cases):
        out = []
        for (l, m, k), idx in cases:
            out.append((distance(l, m), multi_f(idx, [l, m, k]), star_cost(idx, [l, m, k], m),
                        l.sum(m, k), l.intersect(m, k), m.dual(), k.scale(-2),
                        verify_star(idx, [l, m, k], "close"),
                        verify_star(idx, [l, m, k], "apartment")))
        out += [run_cli(path) for path in paths]
        return out

    clear_caches()
    expected = run(inputs())
    assert [res[0] for res in expected[-2:]] == [0, 2]
    assert {res[-1].status for res in expected[:-2]} == {"verified", "inconclusive"}
    clear_caches()
    cases = inputs()

    def forbidden(*args, **kwargs):
        raise AssertionError("LaurentPoly built or converted inside a library operation")

    monkeypatch.setattr(LaurentPoly, "__init__", forbidden)
    for name, module in list(sys.modules.items()):
        if name.startswith("latticeval"):
            for attr in ("from_poly", "to_poly"):
                if getattr(module, attr, None) is getattr(densepoly, attr):
                    monkeypatch.setattr(module, attr, forbidden)
    assert run(cases) == expected
    # The guard is live: the LaurentPoly view of a basis converts its pairs.
    with pytest.raises(AssertionError):
        cases[0][0][0].poly_basis


def test_intersect_canonicalises_stored_duals_once(monkeypatch):
    """The meet of three lattices is dual(dual L + dual M + dual N): the first
    call canonicalises three duals, the sum and its dual; a second call on the
    same lattices finds their duals stored and canonicalises only the sum and
    its dual."""
    for field in (RATIONAL, GF(3), GF(101)):
        lats = generic_lattices(random.Random(13), field, 3)
        canonicalised = []
        counted(monkeypatch, lattices, "canonical_basis", canonicalised)
        first = lats[0].intersect(*lats[1:])
        assert len(canonicalised) == 5
        canonicalised.clear()
        assert lats[0].intersect(*lats[1:]) == first
        assert len(canonicalised) == 2
        monkeypatch.undo()


def test_residue_subspace_builds_no_laurent_poly(monkeypatch):
    """The residue coordinates are read from ``pair_coordinates``, with no
    ``LaurentPoly`` per entry."""
    rng = random.Random(17)
    cases = []
    for field in (RATIONAL, GF(3), GF(101)):
        for lats in (close_lattices(rng, field), generic_lattices(rng, field, 3)):
            cases.append((lats[0].intersect(*lats[1:]), lats))
    expected = [[residue_subspace(meet, lat) for lat in lats] for meet, lats in cases]
    assert None in expected[1] and None not in expected[0]
    polys_built = []
    counted(monkeypatch, LaurentPoly, "__init__", polys_built)
    assert [[residue_subspace(meet, lat) for lat in lats] for meet, lats in cases] == expected
    assert polys_built == []
    # The counter is live.
    LaurentPoly.zero(RATIONAL)
    assert polys_built
