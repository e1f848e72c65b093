"""The close-triple case: E <= L, M, N <= t^{-1}E.

Such a lattice is determined by its projection to t^{-1}E / E = F^n, so a
triple reduces to three subspaces of F^n.  The triple decomposes as a
D4-quiver representation into nine indecomposable types; the maximum number of
independently choosable vectors is a max-flow in a small four-layer network,
and its min cut is an eight-term minimum.  The eight cuts are the eight
subsets S of {U1, U2, U3}: the cut of S costs the dimension of the sum of S
(0 for the empty set) plus the indices of the U_j outside S.  Each cut names
a witness lattice among tE, L, M, N and their sums.

Every candidate is tE or E + t^{-1}W with W one of U1, U2, U3 or a sum of
them, so its star cost needs only subspace dimensions.  Write u_j = dim U_j,
w = dim W and c_j = dim(U_j & W), and let (i_1, i_2, i_3) be the indices:

    cost(tE)            = sum_j min(u_j, i_j)
    cost(E + t^{-1}W)   = sum_j [u_j + min(n - i_j, w - c_j)
                                 - max(0, u_j - c_j - i_j)] - 2w

Derivation: U_j and W have a common adapted basis, so the relative
invariants of P against L_j = E + t^{-1}U_j are w - c_j entries +1, u_j - c_j
entries -1 and zeros (for P = tE: u_j entries -2, n - u_j entries -1).  Since
f_{i, n-i}(L, P) = f_n(L) + (sum of the n - i largest invariants), with
f_n(L_j) = u_j and f_n(P) = w (or -n), the star cost sum_j f_{i_j, n-i_j}(L_j,
P) - 2 f_n(P) is the expression above.  As c_j = u_j + w - dim(U_j + W), every
cost is a function of seven dimensions: those of the sums over the seven
nonempty subsets of {U1, U2, U3}, the same ones the eight-cut minimum reads.
Both closed forms take them from one table of those sums indexed by bitmask
(``_sum_spans``: bit 1 for U1, 2 for U2, 4 for U3), so the dimension of
U_j + W is the slot of the mask of W with the bit of U_j set.

A lattice is built only for the witness.  Any lattice B = gE can stand in for
E (``harness`` uses the meet of the triple): moving everything by g shifts
every star cost by f_n(B), so the first candidate at the minimum is the same,
and it is tB or B + t^{-1} g W.  Nothing is transformed or tested for
containment.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .densepoly import combine
from .lattices import Lattice, polynomial_column
from .subspaces import Subspace

# Which of U1, U2, U3 each indecomposable type meets (cf. the nine-type table).
REP_TYPES = (
    ("A", (1, 0, 0)),
    ("A'", (0, 1, 0)),
    ("A''", (0, 0, 1)),
    ("B", (1, 1, 0)),
    ("B'", (1, 0, 1)),
    ("B''", (0, 1, 1)),
    ("C", (1, 1, 1)),
    ("D", (1, 1, 1)),
    ("S", (0, 0, 0)),
)


@dataclass(frozen=True)
class SubspaceTriple:
    u1: Subspace
    u2: Subspace
    u3: Subspace

    def __post_init__(self):
        if not (self.u1.n == self.u2.n == self.u3.n):
            raise ValueError("ambient dimensions differ")
        field = self.u1.field
        if any(u.field is not field and u.field != field for u in (self.u2, self.u3)):
            raise ValueError("base fields differ")

    @property
    def n(self) -> int:
        return self.u1.n


@dataclass(frozen=True)
class QuiverMultiplicities:
    m_a: int
    m_a1: int
    m_a2: int
    m_b: int
    m_b1: int
    m_b2: int
    m_c: int
    m_d: int
    m_s: int

    def as_dict(self) -> dict[str, int]:
        return dict(
            zip(
                ("A", "A'", "A''", "B", "B'", "B''", "C", "D", "S"),
                (self.m_a, self.m_a1, self.m_a2, self.m_b, self.m_b1, self.m_b2, self.m_c, self.m_d, self.m_s),
            )
        )


@dataclass(frozen=True)
class FlowNetwork:
    """Source -> representation vertices -> U-vertices -> sink, with integer
    capacities; multiplicities are absorbed into capacities."""

    edges: tuple[tuple[str, str, int], ...]
    source: str = "src"
    sink: str = "sink"


@lru_cache(maxsize=65536)
def extract_triple(l: Lattice, m: Lattice, n_lat: Lattice) -> SubspaceTriple:
    """Project a close lattice triple to its three subspaces of t^{-1}E/E."""
    spans = []
    for lat in (l, m, n_lat):
        e = Lattice.standard(lat.n, lat.field)
        if not lat.contains_lattice(e):
            raise ValueError("lattice does not contain the elementary lattice")
        u = residue_subspace(e, lat)
        if u is None:
            raise ValueError("lattice is not contained in t^{-1}E")
        spans.append(u)
    return SubspaceTriple(*spans)


def residue_subspace(base: Lattice, lat: Lattice) -> Subspace | None:
    """The image of lat in t^{-1}base / base = F^n, in the coordinates of the
    stored basis of base (``Lattice.pair_coordinates``), or None when lat is
    not inside t^{-1}base.  The caller guarantees base <= lat.  The
    coordinates are ``densepoly`` pairs (v, c): the residue coefficient is
    c[0] when v = -1 and zero when v >= 0.  The result is remembered on lat
    per base, as ``Lattice.dual`` remembers the dual."""
    memo = lat._residues
    if memo is None:
        memo = lat._residues = {}
    elif base in memo:
        return memo[base]
    zero = base.field.zero
    vectors = []
    for col in base.pair_coordinates(lat.basis):
        if any(x is not None and x[0] < -1 for x in col):
            memo[base] = None
            return None
        vectors.append([x[1][0] if x is not None and x[0] == -1 else zero for x in col])
    memo[base] = span = Subspace.span(vectors, base.n, base.field)
    return span


def decompose(triple: SubspaceTriple) -> QuiverMultiplicities:
    """Multiplicities of the nine indecomposable types, from the triangular
    closed-form dimension system (no basis chasing)."""
    u1, u2, u3 = triple.u1, triple.u2, triple.u3
    n = triple.n
    m_c = u1.intersect(u2).intersect(u3).dim
    m_b = u1.intersect(u2).dim - m_c
    m_b1 = u1.intersect(u3).dim - m_c
    m_b2 = u2.intersect(u3).dim - m_c
    m_d = u1.sum(u2).intersect(u3).dim - m_b1 - m_b2 - m_c
    m_a = u1.dim - m_b - m_b1 - m_c - m_d
    m_a1 = u2.dim - m_b - m_b2 - m_c - m_d
    m_a2 = u3.dim - m_b1 - m_b2 - m_c - m_d
    m_s = n - (m_a + m_a1 + m_a2 + m_b + m_b1 + m_b2 + m_c + 2 * m_d)
    mult = QuiverMultiplicities(m_a, m_a1, m_a2, m_b, m_b1, m_b2, m_c, m_d, m_s)
    if any(v < 0 for v in mult.as_dict().values()):
        raise AssertionError(f"inconsistent quiver multiplicities: {mult}")
    return mult


def build_network(mult: QuiverMultiplicities, i: int, j: int, k: int) -> FlowNetwork:
    """The four-layer flow network; a representation vertex of multiplicity mu
    is one vertex with all incident capacities scaled by mu."""
    counts = mult.as_dict()
    edges = []
    for name, touches in REP_TYPES:
        mu = counts[name]
        if mu == 0:
            continue
        v_dim = 2 if name == "D" else 1
        edges.append(("src", name, mu * v_dim))
        for u_idx, touch in enumerate(touches):
            if touch:
                edges.append((name, f"U{u_idx + 1}", mu))
    for u_idx, cap in enumerate((i, j, k)):
        edges.append((f"U{u_idx + 1}", "sink", cap))
    return FlowNetwork(tuple(edges))


def max_flow(net: FlowNetwork) -> int:
    """Exact integer maximum flow by BFS augmenting paths (Edmonds-Karp)."""
    cap: dict[tuple[str, str], int] = {}
    adj: dict[str, list[str]] = {}
    for u, v, c in net.edges:
        cap[(u, v)] = cap.get((u, v), 0) + c
        cap.setdefault((v, u), 0)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if net.source not in adj or net.sink not in adj:
        return 0
    total = 0
    while True:
        parent = {net.source: None}
        queue = deque([net.source])
        while queue and net.sink not in parent:
            u = queue.popleft()
            for v in adj[u]:
                if v not in parent and cap[(u, v)] > 0:
                    parent[v] = u
                    queue.append(v)
        if net.sink not in parent:
            return total
        bottleneck = None
        v = net.sink
        while parent[v] is not None:
            u = parent[v]
            c = cap[(u, v)]
            bottleneck = c if bottleneck is None else min(bottleneck, c)
            v = u
        v = net.sink
        while parent[v] is not None:
            u = parent[v]
            cap[(u, v)] -= bottleneck
            cap[(v, u)] += bottleneck
            v = u
        total += bottleneck


# The seven candidates E + t^{-1}W after tE, in examination order, as (mask
# of the U_j summed into W, label); bit 1 is U1 (L), 2 is U2 (M), 4 is U3 (N).
_CANDIDATES = ((1, "L"), (2, "M"), (4, "N"), (3, "L+M"), (5, "L+N"), (6, "M+N"), (7, "L+M+N"))


def _sum_spans(triple: SubspaceTriple) -> tuple:
    """The sums of the eight subsets of {U1, U2, U3}, indexed by mask (bit 1
    for U1, 2 for U2, 4 for U3); slot 0, the empty sum, is None."""
    u1, u2, u3 = triple.u1, triple.u2, triple.u3
    u12 = u1.sum(u2)
    return (None, u1, u2, u12, u3, u1.sum(u3), u2.sum(u3), u12.sum(u3))


def min_formula(triple: SubspaceTriple, i: int, j: int, k: int) -> int:
    """The eight-cut minimum: over the eight subsets of {U1, U2, U3}, in mask
    order, the dimension of their sum plus the indices of the U_j outside it."""
    n = triple.n
    if i + j + k != n:
        raise ValueError("indices must sum to the ambient dimension")
    _, u1, u2, u12, u3, u13, u23, u123 = _sum_spans(triple)
    return min(n, j + k + u1.dim, i + k + u2.dim, k + u12.dim,
               i + j + u3.dim, j + u13.dim, i + u23.dim, u123.dim)


def candidate_costs(triple: SubspaceTriple, i: int, j: int, k: int):
    """(label, W, star cost) of the eight candidates in the fixed examination
    order tE, L, M, N, L+M, L+N, M+N, L+M+N, from the closed form of the
    module docstring; W is None for tE.  Every dimension it reads, u_j, w and
    dim(U_j + W), is one slot of ``_sum_spans``."""
    n = triple.n
    spans = _sum_spans(triple)
    dims = (0, *[w.dim for w in spans[1:]])
    idx = ((1, i), (2, j), (4, k))
    out = [("tE", None, sum(min(dims[bit], i_x) for bit, i_x in idx))]
    for mask, label in _CANDIDATES:
        w = dims[mask]
        cost = -2 * w
        for bit, i_x in idx:
            u = dims[bit]
            c = u + w - dims[mask | bit]
            cost += u + min(n - i_x, w - c) - max(0, u - c - i_x)
        out.append((label, spans[mask], cost))
    return out


def residue_witness(base: Lattice, triple: SubspaceTriple, i: int, j: int, k: int):
    """Witness lattice P and the value for the triple base + t^{-1}U_j: the
    first candidate whose closed-form cost equals the eight-cut minimum, built
    over base (tE becomes t.base, E + t^{-1}W becomes base + t^{-1} base.W)."""
    value = min_formula(triple, i, j, k)
    for _, w, cost in candidate_costs(triple, i, j, k):
        if cost == value:
            break
    else:
        raise AssertionError("no candidate achieves the minimum; theorem violated")
    if w is None:
        return base.scale(1), value
    # Each row c of W gives the generator t^{-1} base . c, a combination of
    # the stored basis columns (the coordinates of ``residue_subspace``) with
    # the constant pairs t^{-1} c_k; over Q it is scaled to integers.  In the
    # coordinates of base the lattice is O^n + t^{-1}W, of v(det) -dim W.
    p = base.field.p
    gens = list(base.basis)
    gens += [polynomial_column(combine(base.basis, [(-1, [c]) if c else None for c in row], p), p)
             for row in w.rows]
    return Lattice.from_pairs(gens, base.n, base.field, det=sum(base.pivots) - w.dim), value


@lru_cache(maxsize=4096)
def close_candidates(l: Lattice, m: Lattice, n_lat: Lattice):
    """The eight witness candidates as lattices, in the fixed examination
    order; the lattice-level reference for ``candidate_costs``."""
    e = Lattice.standard(l.n, l.field)
    return (
        ("tE", e.scale(1)),
        ("L", l),
        ("M", m),
        ("N", n_lat),
        ("L+M", l.sum(m)),
        ("L+N", l.sum(n_lat)),
        ("M+N", m.sum(n_lat)),
        ("L+M+N", l.sum(m, n_lat)),
    )


def close_witness(l: Lattice, m: Lattice, n_lat: Lattice, i: int, j: int, k: int):
    """Witness lattice P and the value for a close triple: the first of the
    eight candidates whose star cost equals the eight-cut minimum."""
    e = Lattice.standard(l.n, l.field)
    return residue_witness(e, extract_triple(l, m, n_lat), i, j, k)
