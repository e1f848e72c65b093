"""Systems of representatives: set-system Koenig, its linear-algebra analogue,
and independent-representative witnesses for subspace families."""

from __future__ import annotations

import itertools

from .scalars import BaseField
from .subspaces import Subspace, rank_of

MAX_SUBSET_SCAN = 20


def konig_set_max(sets) -> int:
    """Maximum number of distinct representatives of a family of finite sets
    (at most one representative per set), by augmenting-path matching."""
    sets = [frozenset(s) for s in sets]
    match: dict = {}  # element -> set index

    def try_assign(i, seen):
        for x in sets[i]:
            if x in seen:
                continue
            seen.add(x)
            if x not in match or try_assign(match[x], seen):
                match[x] = i
                return True
        return False

    size = 0
    for i in range(len(sets)):
        if try_assign(i, set()):
            size += 1
    return size


def konig_set_formula(sets) -> int:
    """min over I of |union of S_i, i in I| + r - |I| (subset enumeration)."""
    sets = [frozenset(s) for s in sets]
    r = len(sets)
    if r > MAX_SUBSET_SCAN:
        raise ValueError(f"subset enumeration capped at r <= {MAX_SUBSET_SCAN}")
    best = r  # I = empty set
    for size in range(1, r + 1):
        for idx in itertools.combinations(range(r), size):
            union = frozenset().union(*(sets[i] for i in idx))
            best = min(best, len(union) + r - size)
    return best


def konig_linear_value(subspaces) -> int:
    """Maximum number of linearly independent representatives, one from each
    of at most r subspaces: min over I of dim(sum of V_i, i in I) + r - |I|."""
    subspaces = list(subspaces)
    r = len(subspaces)
    if r == 0:
        return 0
    if r > MAX_SUBSET_SCAN:
        raise ValueError(f"subset enumeration capped at r <= {MAX_SUBSET_SCAN}")
    value, _ = _min_subset(subspaces)
    return value


def _min_subset(subspaces):
    """The minimum of dim(sum over I) + r - |I| together with the minimizing
    set I, ties broken by smallest cardinality then lexicographic order.

    dim(sum over I) depends only on the distinct subspaces that I picks, so
    it is computed once per distinct set (a multiset such as that of
    ``multiset_g`` repeats each span many times); the ranks live only for
    this call."""
    r = len(subspaces)
    n = subspaces[0].n
    field = subspaces[0].field
    # The index of the first equal subspace stands for each one.
    first = [subspaces.index(u) for u in subspaces]
    ranks: dict = {}
    best = r
    best_set: tuple = ()
    for size in range(1, r + 1):
        for idx in itertools.combinations(range(r), size):
            key = frozenset(first[i] for i in idx)
            rank = ranks.get(key)
            if rank is None:
                rank = ranks[key] = rank_of([row for i in key for row in subspaces[i].rows], n, field)
            d = rank + r - size
            if d < best:
                best, best_set = d, idx
    return best, best_set


def konig_linear_witness(subspaces):
    """A maximal system of linearly independent representatives: a list of
    (index, vector) pairs, at most one per subspace, of cardinality
    konig_linear_value, each vector lying in its subspace.

    Found by a deterministic backtracking search over the echelon bases of
    the subspaces (a maximum system can always be exchanged into one drawn
    from basis vectors), certified by a final rank check.
    """
    subspaces = list(subspaces)
    r = len(subspaces)
    if r == 0:
        return []
    n = subspaces[0].n
    field = subspaces[0].field
    target = konig_linear_value(subspaces)
    chosen: list = []

    def independent(vecs):
        return rank_of(vecs, n, field) == len(vecs)

    def search(i):
        if len(chosen) == target:
            return True
        if len(chosen) + (r - i) < target:
            return False
        if i == r:
            return False
        for row in subspaces[i].rows:
            vecs = [v for _, v in chosen] + [row]
            if independent(vecs):
                chosen.append((i + 1, row))
                if search(i + 1):
                    return True
                chosen.pop()
        return search(i + 1)

    found = search(0)
    if not found:
        raise AssertionError("witness search failed to reach the certified value")
    if not independent([v for _, v in chosen]):
        raise AssertionError("witness representatives are dependent")
    return list(chosen)


def moshonkin_check(subspaces) -> bool:
    """True iff a full system of linearly independent representatives exists:
    dim(sum of V_i, i in I) >= |I| for every subset I."""
    subspaces = list(subspaces)
    return konig_linear_value(subspaces) == len(subspaces)


def multiset_g(u1: Subspace, u2: Subspace, u3: Subspace, i: int, j: int, k: int) -> int:
    """Maximum number of independent representatives from the multiset with
    u1 repeated i times, u2 repeated j times, u3 repeated k times."""
    if min(i, j, k) < 0:
        raise ValueError("multiplicities must be nonnegative")
    return konig_linear_value([u1] * i + [u2] * j + [u3] * k)


def coordinate_subspace(indices, n: int, field: BaseField) -> Subspace:
    """Span of the standard basis vectors e_i for i in indices."""
    vecs = [
        [field.one if c == i else field.zero for c in range(n)] for i in indices
    ]
    return Subspace.span(vecs, n, field)
