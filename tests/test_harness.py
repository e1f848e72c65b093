"""Witness-search strategies, two-internal-node networks, scaling, and
positivity."""

import itertools
import random

import pytest

from latticeval.detval import det_poly, det_scalar, multi_f, star_cost
from latticeval.harness import (
    SHAPE_12_34,
    SHAPE_41_23,
    NetworkShape,
    asymptotic_check,
    positivity_check,
    scale_config,
    sl4_network_cost,
    two_node_cost,
    verify_star,
)
from latticeval.lattices import Lattice
from latticeval.randgen import (
    random_apartment_instance,
    random_close_triple,
    random_index,
    random_lattice,
)
from latticeval.scalars import GF, RATIONAL, LaurentPoly, ValuedScalar
from latticeval.truncated import polynomial_column

F2 = GF(2)


def std_basis(n, field=RATIONAL):
    one = ValuedScalar.one(field)
    zero = ValuedScalar.zero(field)
    return [[one if i == j else zero for i in range(n)] for j in range(n)]


def test_shape_validation():
    with pytest.raises(ValueError):
        NetworkShape("two_node", ((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        NetworkShape("ring")
    assert NetworkShape("star").kind == "star"


def test_verify_close_strategy():
    rng = random.Random(71)
    for _ in range(8):
        n = rng.randint(2, 4)
        lats = list(random_close_triple(rng, n, RATIONAL))
        idx = random_index(rng, n, 3)
        report = verify_star(idx, lats, "close")
        assert report.status == "verified"
        assert report.best_candidate[1] == report.lhs
        assert star_cost(idx, lats, report.witness()) == report.lhs


def test_verify_close_abstains_when_not_close():
    e = Lattice.standard(2, RATIONAL)
    far = Lattice.from_columns(
        [
            [ValuedScalar.t_power(RATIONAL, -2), ValuedScalar.zero(RATIONAL)],
            [ValuedScalar.zero(RATIONAL), ValuedScalar.one(RATIONAL)],
        ]
    )
    report = verify_star((1, 1, 0), [far, e, e], "close")
    assert report.status == "inconclusive"
    assert report.candidates_examined == 0


def test_verify_apartment_strategy():
    rng = random.Random(72)
    verified = 0
    for _ in range(10):
        n = rng.randint(2, 3)
        apt, pts, idx = random_apartment_instance(rng, n, 3, RATIONAL, window=4)
        lats = [apt.lattice(p) for p in pts]
        report = verify_star(idx, lats, "apartment")
        verified += report.status == "verified"
    assert verified >= 6  # the frame search is best-effort


def test_verify_enumerate_sl2():
    rng = random.Random(73)
    for _ in range(10):
        lats = [random_lattice(rng, 2, F2, -3, 3) for _ in range(3)]
        idx = random_index(rng, 2, 3)
        report = verify_star(idx, lats, "enumerate")
        assert report.status == "verified"


def test_verify_enumerate_needs_prime_field():
    e = Lattice.standard(2, RATIONAL)
    with pytest.raises(ValueError):
        verify_star((1, 1), [e, e], "enumerate")


def test_verify_zero_budget_is_inconclusive():
    e = Lattice.standard(2, F2)
    report = verify_star((1, 1, 0), [e, e, e], "enumerate", budget=0)
    assert report.status == "inconclusive"
    assert report.candidates_examined == 0


@pytest.mark.parametrize("budget", [0, 1, 7, 40])
def test_enumerate_budget_bounds_membership_tests(monkeypatch, budget):
    """The budget counts every fill tested for membership, accepted or not;
    the floor of this rank-3 apartment instance over F_2 has pivot sum 18,
    so the unbounded enumeration tests far more than 40 fills."""
    apt, points, idx = random_apartment_instance(random.Random(4), 3, 3, F2)
    lats = [apt.lattice(pt) for pt in points]
    calls = []
    contains = Lattice.contains_lattice

    def counted(self, other):
        calls.append(other)
        assert len(calls) <= budget, "membership test beyond the budget"
        return contains(self, other)

    monkeypatch.setattr(Lattice, "contains_lattice", counted)
    report = verify_star(idx, lats, "enumerate", budget=budget)
    assert report.candidates_examined <= len(calls)
    if report.status == "inconclusive":
        assert len(calls) == budget


def test_verify_random_is_deterministic():
    rng = random.Random(74)
    lats = [random_lattice(rng, 2, RATIONAL, -1, 1) for _ in range(3)]
    idx = (1, 1, 0)
    a = verify_star(idx, lats, "random", seed=5, budget=15)
    b = verify_star(idx, lats, "random", seed=5, budget=15)
    assert (a.status, a.candidates_examined, a.best_candidate) == (
        b.status,
        b.candidates_examined,
        b.best_candidate,
    )


def test_two_node_reduces_to_star_when_merged():
    rng = random.Random(75)
    for _ in range(8):
        lats = [random_lattice(rng, 4, RATIONAL, -2, 2) for _ in range(4)]
        idx = random_index(rng, 4, 4)
        p = random_lattice(rng, 4, RATIONAL, -2, 2)
        sc = star_cost(idx, lats, p)
        assert two_node_cost(idx, lats, SHAPE_12_34, p, p) == sc
        assert two_node_cost(idx, lats, SHAPE_41_23, p, p) == sc


def test_two_node_one_direction():
    rng = random.Random(76)
    for _ in range(8):
        lats = [random_lattice(rng, 4, RATIONAL, -2, 2) for _ in range(4)]
        idx = random_index(rng, 4, 4)
        p = random_lattice(rng, 4, RATIONAL, -2, 2)
        q = random_lattice(rng, 4, RATIONAL, -2, 2)
        mf = multi_f(idx, lats)
        assert two_node_cost(idx, lats, SHAPE_12_34, p, q) >= mf
        assert two_node_cost(idx, lats, SHAPE_41_23, p, q) >= mf


def test_sl4_network_cost():
    e = Lattice.standard(4, RATIONAL)
    assert sl4_network_cost([e] * 4, SHAPE_12_34, e, e) == 0
    assert sl4_network_cost([e] * 4, SHAPE_41_23, e, e) == 0
    rng = random.Random(77)
    lats = [random_lattice(rng, 4, RATIONAL, -1, 1) for _ in range(4)]
    p = random_lattice(rng, 4, RATIONAL, -1, 1)
    q = random_lattice(rng, 4, RATIONAL, -1, 1)
    # Both expressions are well-defined integers on arbitrary instances.
    sl4_network_cost(lats, SHAPE_12_34, p, q)
    sl4_network_cost(lats, SHAPE_41_23, p, q)
    with pytest.raises(ValueError):
        sl4_network_cost([Lattice.standard(3, RATIONAL)] * 4, SHAPE_12_34, e, e)


def test_scale_config():
    bases = [std_basis(3) for _ in range(3)]
    lats = scale_config(bases, [(0, 0, 0)] * 3)
    assert all(lat == Lattice.standard(3, RATIONAL) for lat in lats)
    lats = scale_config(bases, [(2, 2, 2), (0, 0, 0), (1, 1, 1)])
    assert lats[0] == Lattice.standard(3, RATIONAL).scale(-2)
    assert lats[2] == Lattice.standard(3, RATIONAL).scale(-1)
    with pytest.raises(ValueError):
        scale_config(bases, [(0, 1, 0)] * 3)


def test_asymptotic_check_trivial():
    bases = [std_basis(2) for _ in range(3)]
    schedule = [[(0, 0)] * 3]
    assert asymptotic_check(bases, schedule, (1, 1, 0))


def test_positivity_vacuous_and_flip():
    b = std_basis(2)
    assert positivity_check([b, b])  # no triples: vacuously positive

    # A generic positive-looking configuration; negating one vector flips a
    # leading determinant sign.
    f = RATIONAL
    one = ValuedScalar.one(f)
    zero = ValuedScalar.zero(f)
    tinv = ValuedScalar.t_power(f, -1)
    b1 = [[one, zero], [zero, one]]
    b2 = [[tinv, one], [zero, one]]
    b3 = [[tinv, tinv], [one * tinv, zero - tinv]]
    config = [b1, b2, b3]
    verdict = positivity_check(config)
    flipped = [b1, b2, [[zero - e for e in b3[0]], b3[1]]]
    assert positivity_check(flipped) != verdict or not verdict


def test_positivity_requires_rationals():
    one = ValuedScalar.one(F2)
    zero = ValuedScalar.zero(F2)
    b = [[one, zero], [zero, one]]
    with pytest.raises(ValueError):
        positivity_check([b, b, b])


def reference_positivity_check(bases):
    """The scalar route: det_scalar of each leading-subset matrix of the
    bases as given, denominators and all."""
    n = len(bases[0])
    lattices = [Lattice.from_columns(basis) for basis in bases]
    for p, q, r in itertools.combinations(range(len(bases)), 3):
        for i in range(n + 1):
            for j in range(n - i + 1):
                cols = list(bases[p][:i]) + list(bases[q][:j]) + list(bases[r][:n - i - j])
                det = det_scalar([[cols[c][row] for c in range(n)] for row in range(n)])
                target = multi_f((i, j, n - i - j), [lattices[p], lattices[q], lattices[r]])
                if det.is_zero() or -det.valuation() != target or det.leading_coefficient() <= 0:
                    return False
    return True


def with_unit_columns(rng, bases):
    """Each column times a random unit u/w of F[[t]], u and w with constant
    term 1; the configuration keeps its lattices, determinant valuations and
    leading coefficients."""
    f = RATIONAL

    def unit():
        return LaurentPoly(f, {0: f.one, rng.randint(1, 2): f.from_int(rng.choice((-2, -1, 1, 2)))})

    return [[[ValuedScalar(unit()) / ValuedScalar(unit()) * e for e in col] for col in basis]
            for basis in bases]


def test_positivity_matches_det_scalar_route():
    """positivity_check takes det_poly of columns cleared of denominators;
    each determinant keeps the valuation and leading coefficient of the
    det_scalar route, and the verdicts agree, positive or not."""
    rng = random.Random(7)
    f = RATIONAL

    def entry():
        if rng.random() < 0.25:
            return ValuedScalar.zero(f)
        return ValuedScalar.t_power(f, rng.randint(-1, 1), f.from_int(rng.choice((1, 2, -1))))

    verdicts = []
    for _ in range(5000):
        if verdicts.count(True) == 3 and verdicts.count(False) == 10:
            break
        n = rng.choice((2, 2, 3))
        bases = [[[entry() for _ in range(n)] for _ in range(n)] for _ in range(3)]
        if any(det_poly([[e.num for e in r] for r in zip(*b)]).is_zero() for b in bases):
            continue
        verdict = positivity_check(bases)
        if verdicts.count(verdict) >= (3 if verdict else 10):
            continue
        verdicts.append(verdict)
        scaled = with_unit_columns(rng, bases)
        assert positivity_check(scaled) == verdict
        assert reference_positivity_check(bases) == reference_positivity_check(scaled) == verdict
        # One column from each of the first n bases, denominators and all.
        for cols in itertools.product(*scaled[:n]):
            d = det_scalar([list(r) for r in zip(*cols)])
            p = det_poly([list(r) for r in zip(*map(polynomial_column, cols))])
            assert d.is_zero() == p.is_zero()
            if not d.is_zero():
                assert (d.valuation(), d.leading_coefficient()) == (p.valuation(), p.leading_coefficient())
    assert verdicts.count(True) == 3 and verdicts.count(False) == 10
