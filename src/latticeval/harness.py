"""Verification harness: witness search for the star identities, the
four-leaf two-internal-node networks, scaling experiments, and positivity."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .apartment import (
    Apartment,
    ApartmentPoint,
    apartment_witness,
    common_apartment,
)
from .closecase import SubspaceTriple, residue_subspace, residue_witness
from .detval import det_poly, multi_f, star_cost
from .lattices import Lattice
from .metric import binary_f
from .scalars import LaurentPoly
from .truncated import polynomial_column


@dataclass
class ConjectureReport:
    """Outcome of a bounded witness search for one star identity."""

    lhs: int
    best_candidate: tuple | None  # (Lattice, cost)
    status: str  # "verified" | "inconclusive"
    candidates_examined: int
    strategy: str
    seed: int | None = None

    def witness(self):
        return self.best_candidate[0] if self.status == "verified" else None


@dataclass(frozen=True)
class NetworkShape:
    """A tree descriptor: a k-leaf star, or two internal nodes P and Q with
    the four leaves split between them as ((a, b), (c, d)) (0-based)."""

    kind: str  # "star" | "two_node"
    groups: tuple = ()

    def __post_init__(self):
        if self.kind == "two_node":
            (a, b), (c, d) = self.groups
            if sorted((a, b, c, d)) != [0, 1, 2, 3]:
                raise ValueError("leaf groups must partition {0,1,2,3}")
        elif self.kind != "star":
            raise ValueError(f"unknown shape kind {self.kind!r}")


SHAPE_12_34 = NetworkShape("two_node", ((0, 1), (2, 3)))
SHAPE_41_23 = NetworkShape("two_node", ((3, 0), (1, 2)))


def _finish(lhs, best, examined, strategy, seed, idx, lattices):
    status = "inconclusive"
    if best is not None and best[1] == lhs:
        # Soundness: re-check the winning candidate independently.
        assert star_cost(idx, lattices, best[0]) == lhs
        status = "verified"
    return ConjectureReport(lhs, best, status, examined, strategy, seed)


def _scan(lhs, candidates, idx, lattices, strategy, seed=None, budget=None):
    best = None
    examined = 0
    for cand in candidates:
        if budget is not None and examined >= budget:
            break
        cost = star_cost(idx, lattices, cand)
        assert cost >= lhs, "one-direction inequality violated"
        examined += 1
        if best is None or cost < best[1]:
            best = (cand, cost)
        if cost == lhs:
            break
    return _finish(lhs, best, examined, strategy, seed, idx, lattices)


def verify_star(idx, lattices, strategy: str, seed: int = 0, budget: int = 100000) -> ConjectureReport:
    """Search for a witness lattice P with star_cost(idx, lattices, P) equal
    to the determinant value multi_f(idx, lattices).

    Strategies: "close" (the eight unit-ball candidates, after a common
    change of coordinates; abstains when the triple is not close), "apartment"
    (assignment witness when a common frame is found), "enumerate" (every
    lattice between the intersection and the sum, prime fields only), and
    "random" (seeded random diagonal candidates in random frames).  The
    budget bounds the work of the two searches: "enumerate" tests at most
    ``budget`` triangular fills for membership, accepted or not, and
    "random" draws at most ``budget`` candidates; "close" and "apartment"
    examine one candidate each and ignore it.
    """
    idx = tuple(idx)
    lattices = list(lattices)
    n = lattices[0].n
    if sum(idx) != n:
        raise ValueError("index vector must sum to the rank")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    lhs = multi_f(idx, lattices)
    if strategy == "close":
        return _verify_close(idx, lattices, lhs)
    if strategy == "apartment":
        return _verify_apartment(idx, lattices, lhs)
    if strategy == "enumerate":
        return _scan(lhs, _between_lattices(lattices, budget), idx, lattices,
                     "enumerate", budget=budget)
    if strategy == "random":
        return _verify_random(idx, lattices, lhs, seed, budget)
    raise ValueError(f"unknown strategy {strategy!r}")


def _verify_close(idx, lattices, lhs):
    """Read the triple as three subspaces of t^{-1}meet/meet, with meet the
    common intersection, and apply the eight-candidate theorem if the triple
    is close."""
    if len(lattices) != 3:
        return ConjectureReport(lhs, None, "inconclusive", 0, "close")
    meet = lattices[0].intersect(*lattices[1:])
    spans = [residue_subspace(meet, lat) for lat in lattices]
    if None in spans:
        return ConjectureReport(lhs, None, "inconclusive", 0, "close")
    p, _ = residue_witness(meet, SubspaceTriple(*spans), *idx)
    return _scan(lhs, [p], idx, lattices, "close")


def _verify_apartment(idx, lattices, lhs):
    found = common_apartment(lattices)
    if found is None:
        return ConjectureReport(lhs, None, "inconclusive", 0, "apartment")
    apt, points = found
    p, _ = apartment_witness(apt, points, idx)
    return _scan(lhs, [p], idx, lattices, "apartment")


def _between_lattices(lattices, budget):
    """Every lattice Q with intersect(all) <= Q <= sum(all), generated through
    canonical triangular matrices in the coordinates of the sum (prime field
    required); at most ``budget`` fills are tested for membership."""
    total = lattices[0].sum(*lattices[1:])
    meet = lattices[0].intersect(*lattices[1:])
    field = lattices[0].field
    if field.is_rational:
        raise ValueError("enumeration requires a prime base field")
    n = lattices[0].n
    g = [list(row) for row in zip(*total.columns)]
    floor = Lattice.from_columns(total.coordinates(meet.basis))  # standard(n) contains floor
    # Any intermediate lattice has nonnegative pivots summing to at most
    # val det(floor), so this pivot scan (with the membership filter) is
    # exhaustive.
    bound = sum(floor.pivots)
    tested = 0
    for pivots in itertools.product(range(bound + 1), repeat=n):
        if sum(pivots) > bound:
            continue
        for fill in _triangular_fills(n, pivots, field):
            if tested >= budget:
                return
            tested += 1
            cand = Lattice.from_columns(fill)
            if cand.contains_lattice(floor):
                yield cand.transform(g)


def _triangular_fills(n, pivots, field):
    """All canonical lower-triangular matrices with the given pivot exponents
    and integral below-diagonal entries reduced modulo the row pivot, in
    lexicographic order of the slot coefficients."""
    slots = [(i, j) for j in range(n) for i in range(j + 1, n) if pivots[i] > 0]
    zero = LaurentPoly.zero(field)
    for flat in itertools.product(range(field.p), repeat=sum(pivots[i] for i, _ in slots)):
        cols = [
            [
                LaurentPoly.t_power(field, pivots[j]) if i == j else zero
                for i in range(n)
            ]
            for j in range(n)
        ]
        start = 0
        for i, j in slots:
            coeffs = flat[start:start + pivots[i]]
            start += pivots[i]
            cols[j][i] = LaurentPoly(field, dict(enumerate(coeffs)))
        yield cols


def _verify_random(idx, lattices, lhs, seed, budget):
    from .randgen import random_unimodular

    rng = random.Random(seed)
    n = lattices[0].n
    field = lattices[0].field
    window = 0
    for lat in lattices:
        window = max(window, max(abs(d) for d in lat.pivots))

    def candidates():
        for _ in range(budget):
            frame = Apartment(random_unimodular(rng, n, field, degree=1))
            point = ApartmentPoint(
                tuple(rng.randint(-window - 1, window + 1) for _ in range(n))
            )
            yield frame.lattice(point)

    return _scan(lhs, candidates(), idx, lattices, "random", seed=seed,
                 budget=budget)


def two_node_cost(idx, lattices, shape: NetworkShape, p: Lattice, q: Lattice) -> int:
    """Cost of the four-leaf network with internal nodes P and Q: the leaves
    of the first group attach to P, the rest to Q, with the P-Q edge carrying
    the summed group index and corrections -2 f_n(P) - 2 f_n(Q)."""
    if shape.kind != "two_node":
        raise ValueError("shape must have two internal nodes")
    idx = tuple(idx)
    if len(idx) != 4 or len(lattices) != 4:
        raise ValueError("two-node networks have exactly four leaves")
    n = lattices[0].n
    if sum(idx) != n:
        raise ValueError("index vector must sum to the rank")
    (a, b), (c, d) = shape.groups
    total = 0
    for leaf in (a, b):
        total += binary_f(idx[leaf], n - idx[leaf], lattices[leaf], p)
    total += binary_f(idx[a] + idx[b], idx[c] + idx[d], p, q)
    for leaf in (c, d):
        total += binary_f(idx[leaf], n - idx[leaf], lattices[leaf], q)
    return total - 2 * p.unary_f() - 2 * q.unary_f()


def sl4_network_cost(lattices, shape: NetworkShape, p: Lattice, q: Lattice) -> int:
    """The two rank-4 spin-network expressions with leaf weights (2, 1, 2, 3),
    implemented exactly as displayed."""
    if len(lattices) != 4 or lattices[0].n != 4:
        raise ValueError("expected four lattices of rank 4")
    l1, l2, l3, l4 = lattices
    if shape.groups == SHAPE_12_34.groups:
        return (
            binary_f(2, 2, l1, p)
            + binary_f(1, 3, l2, p)
            + binary_f(3, 1, p, q)
            + binary_f(2, 2, l3, q)
            + binary_f(3, 1, l4, q)
            - 2 * p.unary_f()
            - q.unary_f()
        )
    if shape.groups == SHAPE_41_23.groups:
        return (
            binary_f(3, 1, l4, p)
            + binary_f(2, 2, l1, p)
            + binary_f(1, 3, p, q)
            + binary_f(1, 3, l2, q)
            + binary_f(2, 2, l3, q)
            - p.unary_f()
            - 2 * q.unary_f()
        )
    raise ValueError("unsupported shape for the rank-4 network")


def scale_config(bases, coweights):
    """Scale each ordered basis by its dominant coweight: basis i becomes the
    lattice generated by t^{-lambda_im} v_im."""
    if len(bases) != len(coweights):
        raise ValueError("one coweight per basis")
    out = []
    for basis, lam in zip(bases, coweights):
        lam = tuple(int(x) for x in lam)
        if any(lam[m] < lam[m + 1] for m in range(len(lam) - 1)):
            raise ValueError("coweights must be dominant (weakly decreasing)")
        out.append(Lattice.from_columns([[e.shift(-c) for e in polynomial_column(vec)]
                                         for vec, c in zip(basis, lam)]))
    return out


def asymptotic_check(bases, schedule, idx, seed: int = 0) -> bool:
    """True iff some scheduled coweight scaling of the configuration is
    verified by verify_star (apartment strategy, plus enumeration over prime
    fields); scalings are tried in schedule order."""
    field = bases[0][0][0].field
    strategies = ["apartment"] if field.is_rational else ["apartment", "enumerate"]
    for coweights in schedule:
        lattices = scale_config(bases, coweights)
        for strategy in strategies:
            if verify_star(idx, lattices, strategy, seed=seed).status == "verified":
                return True
    return False


def positivity_check(bases) -> bool:
    """Whether the ordered bases form a positive configuration: for every
    triple p < q < r and every index split (i, j, k), the leading-subset
    determinant attains the tropical value and has positive leading
    coefficient.  Defined over the rationals only.  Each column is multiplied
    by the product of its denominators, which have valuation 0 and constant
    term 1, so no determinant changes its valuation or leading coefficient."""
    if not bases:
        return True
    field = bases[0][0][0].field
    if not field.is_rational:
        raise ValueError("positivity needs an ordered base field")
    n = len(bases[0])
    bases = [[polynomial_column(vec) for vec in basis] for basis in bases]
    lattices = [Lattice.from_columns(basis) for basis in bases]
    for p, q, r in itertools.combinations(range(len(bases)), 3):
        for i in range(n + 1):
            for j in range(n - i + 1):
                k = n - i - j
                cols = bases[p][:i] + bases[q][:j] + bases[r][:k]
                det = det_poly([[cols[c][row] for c in range(n)] for row in range(n)])
                target = multi_f((i, j, k), [lattices[p], lattices[q], lattices[r]])
                if det.is_zero() or -det.valuation() != target:
                    return False
                if field.sign(det.leading_coefficient()) <= 0:
                    return False
    return True
