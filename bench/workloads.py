"""The three benchmark workloads.

Each workload draws its inputs from one ``random.Random(seed)`` stream, in
operation order, so a seed fixes the whole input sequence.  The input of
operation i is generated just before it, outside its timed region.  An
operation is ``run(inp)``, the only timed code, which calls the library and
nothing else; ``check(inp, out)`` then compares the result with an
independent oracle and returns a JSON-able record of it for the result
digest, or raises ``Mismatch``.

Library calls go through the module objects at call time (``lv.distance``,
not a name bound at import), so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction
from random import Random

import latticeval as lv
from latticeval import cli, closecase, detval, representatives, serialize, subspaces


class Mismatch(Exception):
    """A result disagrees with its oracle."""


def _expect(cond, what):
    if not cond:
        raise Mismatch(what)


def _composition(rng, n, k):
    """Random nonnegative vector of length k summing to n."""
    cuts = sorted(rng.randint(0, n) for _ in range(k - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))


def _star_cost_by_determinants(idx, lattices, p):
    """Star cost through P from determinant enumerations alone (multi_f_detail
    on each edge), independent of the invariant-factor route and its caches."""
    n = p.n
    edges = sum(detval.multi_f_detail((i, n - i), [lat, p])[0]
                for i, lat in zip(idx, lattices))
    return edges - (len(lattices) - 1) * p.unary_f()


# -- generic-q ---------------------------------------------------------------

_MOD = (1 << 61) - 1


def _det_mod(rows):
    """Determinant of an integer matrix modulo _MOD (Gaussian elimination)."""
    m = [[x % _MOD for x in row] for row in rows]
    n = len(m)
    det = 1
    for i in range(n):
        piv = next((r for r in range(i, n) if m[r][i]), None)
        if piv is None:
            return 0
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            det = -det
        det = det * m[i][i] % _MOD
        inv = pow(m[i][i], _MOD - 2, _MOD)
        for r in range(i + 1, n):
            q = m[r][i] * inv % _MOD
            if q:
                m[r] = [(x - q * y) % _MOD for x, y in zip(m[r], m[i])]
    return det % _MOD


class GenericQ:
    """Three random rank-3 lattices over Q and then three rank-4 ones per
    operation; for each triple: canonicalise, distance both ways, binary_f
    against the multi_f oracle on one pair, multi_f on the triple, and a star
    cost through one lattice.  Both ranks in every operation make the
    latency unimodal, so its median is steady across seeds."""

    name = "generic-q"

    def __init__(self, seed, workdir):
        self.rng = Random(seed)

    def _matrix(self, n):
        """Column-major generators with sparse Laurent entries on exponents
        [-2, 2] and coefficients in +-{1, 2, 3}; nonsingular because the
        determinant of t^2 M is nonzero at a random point mod _MOD."""
        rng = self.rng
        while True:
            cols = [[{e: rng.choice((-3, -2, -1, 1, 2, 3))
                      for e in range(-2, 3) if rng.random() < 0.5}
                     for _ in range(n)] for _ in range(n)]
            t0 = rng.randrange(2, _MOD)
            values = [[sum(c * pow(t0, e + 2, _MOD) for e, c in cols[j][i].items())
                       for j in range(n)] for i in range(n)]
            if _det_mod(values):
                break
        q = lv.RATIONAL
        return [[lv.ValuedScalar(lv.LaurentPoly(q, {e: Fraction(c) for e, c in entry.items()}))
                 for entry in col] for col in cols]

    def next_input(self):
        return [(n, [self._matrix(n) for _ in range(3)], self.rng.randint(0, n),
                 _composition(self.rng, n, 3)) for n in (3, 4)]

    def run(self, inp):
        return [self._run_triple(case) for case in inp]

    def check(self, inp, out):
        return [self._check_triple(case, res) for case, res in zip(inp, out)]

    def _run_triple(self, case):
        n, mats, i, idx = case
        lats = [lv.Lattice.from_columns(m) for m in mats]
        d = lv.distance(lats[0], lats[1])
        r = lv.distance(lats[1], lats[0])
        b = lv.binary_f(i, n - i, lats[0], lats[1])
        m = lv.multi_f((i, n - i), lats[:2])
        mf = lv.multi_f(idx, lats)
        sc = lv.star_cost(idx, lats, lats[0])
        return lats, d, r, b, m, mf, sc

    def _check_triple(self, case, res):
        n, mats, i, idx = case
        lats, d, r, b, m, mf, sc = res
        for gens, lat in zip(mats, lats):
            # Same module: the generators lie in the canonical lattice and
            # both have the same determinant valuation.
            _expect(all(lat.contains(col) for col in gens), "generator not in lattice")
            det = detval.det_poly([[gens[j][row].num for j in range(n)] for row in range(n)])
            _expect(det.valuation() == -lat.unary_f(), "canonical determinant valuation")
            for j, col in enumerate(lat.columns):
                _expect(all(col[row].is_zero() for row in range(j)), "basis not triangular")
                _expect(col[j].num.is_monomial() and col[j].num.leading_coefficient() == 1
                        and col[j].den.coeffs == {0: 1}, "pivot is not a t-power")
        _expect(list(d) == sorted(d, reverse=True), "distance not dominant")
        _expect(tuple(r) == tuple(-a for a in reversed(d)), "distance not antisymmetric")
        _expect(sum(d) == lats[1].unary_f() - lats[0].unary_f(), "distance total")
        _expect(b == m, "binary_f disagrees with multi_f")
        _expect(sc >= mf, "one-direction inequality violated")
        return [n, [serialize.lattice_to_json(x) for x in lats], list(d), list(r), b, mf, sc]

    def inconclusive(self, out):
        return False


# -- close-f3 ----------------------------------------------------------------

class CloseF3:
    """verify_star(..., "close") on triples E + t^{-1}U drawn with replacement
    from the 28 subspaces U of F_3^3, cross-checked by the eight-cut formula,
    max-flow, Koenig representatives and the determinant value."""

    name = "close-f3"

    def __init__(self, seed, workdir):
        self.rng = Random(seed)
        field = lv.GF(3)
        self.subspaces = subspaces.all_subspaces(3, field)
        e = lv.Lattice.standard(3, field)
        self.lattices = []
        for u in self.subspaces:
            gens = [list(c) for c in e.columns]
            gens += [[lv.ValuedScalar(lv.LaurentPoly(field, {-1: c} if c else {})) for c in row]
                     for row in u.rows]
            self.lattices.append(lv.Lattice.from_generators(gens, 3))

    def next_input(self):
        picks = tuple(self.rng.randrange(len(self.lattices)) for _ in range(3))
        return picks, _composition(self.rng, 3, 3)

    def run(self, inp):
        picks, idx = inp
        lats = [self.lattices[p] for p in picks]
        us = [self.subspaces[p] for p in picks]
        report = lv.verify_star(idx, lats, "close")
        triple = closecase.SubspaceTriple(*us)
        cut = lv.min_formula(triple, *idx)
        flow = lv.max_flow(lv.build_network(lv.decompose(triple), *idx))
        konig = representatives.multiset_g(*us, *idx)
        value = lv.multi_f(idx, lats)
        return report, cut, flow, konig, value

    def check(self, inp, out):
        picks, idx = inp
        report, cut, flow, konig, value = out
        lats = [self.lattices[p] for p in picks]
        _expect(cut == flow == konig == value, "close-case values disagree")
        _expect(report.lhs == value, "verified lhs differs from multi_f")
        _expect(report.status == "verified", "close triple not verified")
        witness = report.witness()
        _expect(_star_cost_by_determinants(idx, lats, witness) == value,
                "witness star cost differs from the value")
        return [list(picks), list(idx), value, report.candidates_examined,
                serialize.lattice_to_json(witness)]

    def inconclusive(self, out):
        return out[0].status != "verified"


# -- verify-cli-fp -----------------------------------------------------------

class VerifyCliFp:
    """`latticeval verify --strategy apartment --json` in-process on
    gen-style apartment instances over F_101.

    The (n, k) shapes cycle through (3, 3), (3, 4), (4, 3) and the points lie
    in [-2, 2]^n rather than gen's [-5, 5]^n: (4, 4) instances and wider
    windows are several times slower and so bimodal that the latency metrics
    of a 30 s run vary across seeds by more than their bound (see README).
    """

    name = "verify-cli-fp"
    field_name = "prime:101"
    window = 2
    shapes = ((3, 3), (3, 4), (4, 3))

    def __init__(self, seed, workdir):
        self.rng = Random(seed)
        self.field = serialize.field_from_str(self.field_name)
        self.workdir = workdir
        self.count = 0

    def _frame(self, n):
        """Unimodular frame from 2n elementary column operations with
        multipliers of degree <= 1 (as the instance generator builds it)."""
        p = self.field.p
        cols = [[{0: 1} if i == j else {} for i in range(n)] for j in range(n)]
        for _ in range(2 * n):
            a, b = self.rng.sample(range(n), 2)
            mult = {e: self.rng.randrange(p) for e in (0, 1)}
            for i in range(n):
                acc = dict(cols[a][i])
                for e1, c1 in mult.items():
                    for e2, c2 in cols[b][i].items():
                        acc[e1 + e2] = (acc.get(e1 + e2, 0) + c1 * c2) % p
                cols[a][i] = {e: c for e, c in acc.items() if c}
        return [[lv.ValuedScalar(lv.LaurentPoly(self.field, entry)) for entry in col]
                for col in cols]

    def next_input(self):
        # A fixed cycle over (n, k) keeps the mix identical across seeds.
        n, k = self.shapes[self.count % len(self.shapes)]
        apt = lv.Apartment(self._frame(n))
        points = [lv.ApartmentPoint(tuple(self.rng.randint(-self.window, self.window)
                                          for _ in range(n))) for _ in range(k)]
        idx = _composition(self.rng, n, k)
        lats = [apt.lattice(pt) for pt in points]
        payload = serialize.instance_to_json(lats, idx)
        payload["seed"] = self.count
        path = os.path.join(self.workdir, "instance.json")
        with open(path, "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        self.count += 1
        return path, apt, points, idx, lats

    def run(self, inp):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", inp[0], "--strategy", "apartment", "--json"])
        return code, out.getvalue(), err.getvalue()

    def check(self, inp, out):
        path, apt, points, idx, lats = inp
        code, text, err = out
        _expect(code in (0, 2), f"exit code {code}: {err.strip()}")
        payload = json.loads(text)
        _expect(payload["lhs"] == lv.apartment_multi_f(apt, points, idx),
                "lhs differs from the assignment value of the frame")
        _expect((code == 0) == (payload["status"] == "verified"), "exit code and status disagree")
        if code == 0:
            witness = serialize.lattice_from_json(payload["witness"], self.field)
            _expect(_star_cost_by_determinants(idx, lats, witness) == payload["lhs"],
                    "witness star cost differs from lhs")
        return [code, text]

    def inconclusive(self, out):
        return out[0] == 2


WORKLOADS = {w.name: w for w in (GenericQ, CloseF3, VerifyCliFp)}
