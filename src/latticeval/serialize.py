"""JSON encoding of scalars, lattices, instances, and verification reports."""

from __future__ import annotations

from functools import lru_cache

from .apartment import Apartment, ApartmentPoint
from .densepoly import from_terms
from .harness import ConjectureReport
from .lattices import Lattice
from .scalars import BaseField, LaurentPoly, RATIONAL, ValuedScalar
from .subspaces import Subspace


class InstanceError(ValueError):
    """JSON input whose shape or field types do not match the schema."""


def _check(ok, message):
    if not ok:
        raise InstanceError(message)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def field_to_str(field: BaseField) -> str:
    return "rational" if field.is_rational else f"prime:{field.p}"


_prime_field = lru_cache(maxsize=32)(BaseField)


def field_from_str(s: str) -> BaseField:
    """The field named by ``field_to_str``; one ``BaseField`` per prime."""
    if s == "rational":
        return RATIONAL
    if isinstance(s, str) and s.startswith("prime:"):
        try:
            return _prime_field(int(s.split(":", 1)[1]))
        except ValueError as exc:
            raise InstanceError(str(exc)) from None
    raise InstanceError(f"unknown field {s!r}")


def poly_to_json(p: LaurentPoly):
    """Sorted [exponent, coefficient-string] pairs."""
    return [[e, p.field.format(c)] for e, c in sorted(p.coeffs.items())]


def _coefficient(data, field: BaseField):
    # The messages of the two per-entry checks are formatted only on failure.
    if not isinstance(data, (str, int, float)) or isinstance(data, bool):
        raise InstanceError(f"bad coefficient {data!r}: expected a number or a string")
    try:
        return field.parse(str(data))
    except (ValueError, ZeroDivisionError):
        raise InstanceError(f"bad coefficient {data!r} for field {field!r}") from None


def _terms_from_json(data, field: BaseField) -> dict:
    """The {exponent: coefficient} dict of a JSON polynomial, zero
    coefficients dropped."""
    _check(isinstance(data, list), "a polynomial must be a list of [exponent, coefficient] pairs")
    coeffs = {}
    for term in data:
        if not (isinstance(term, list) and len(term) == 2 and _is_int(term[0])):
            raise InstanceError(f"bad polynomial term {term!r}: expected [integer, coefficient]")
        if term[0] in coeffs:
            raise InstanceError(f"duplicate exponent {term[0]} in a polynomial")
        coeffs[term[0]] = _coefficient(term[1], field)
    return {e: c for e, c in coeffs.items() if c}


def poly_from_json(data, field: BaseField) -> LaurentPoly:
    return LaurentPoly(field, _terms_from_json(data, field))


def scalar_to_json(s: ValuedScalar):
    out = {"num": poly_to_json(s.num)}
    if s.den.coeffs != {0: s.field.one}:
        out["den"] = poly_to_json(s.den)
    return out


def _entry_from_json(data, field: BaseField):
    """A matrix entry: a ``densepoly`` pair (or None) when it has no "den",
    else a ``ValuedScalar``.  Over Q the pair holds ``Fraction``s, which
    ``lattices.polynomial_column`` reads in its one pass; when one is not an
    integer, it multiplies the column by the lcm of their denominators.
    That turns a canonical column (pivot coefficient 1) into its stored
    form, a primitive integer column, so a canonical basis is recognised
    without elimination."""
    _check(isinstance(data, dict) and "num" in data,
           'a scalar must be an object with a "num" polynomial')
    if "den" not in data:
        return from_terms(_terms_from_json(data["num"], field))
    num = poly_from_json(data["num"], field)
    den = poly_from_json(data["den"], field)
    _check(not den.is_zero(), "a scalar has a zero denominator")
    return ValuedScalar(num, den)


def _pair_to_json(pair, field: BaseField):
    """``poly_to_json`` of a ``densepoly`` pair or None."""
    if pair is None:
        return []
    return [[e, field.format(c)] for e, c in enumerate(pair[1], pair[0]) if c]


def lattice_to_json(lat: Lattice):
    """The canonical basis (``Lattice.canonical_pairs``): over Q each
    stored column divided by its pivot coefficient."""
    field = lat.field
    return {
        "n": lat.n,
        "columns": [[{"num": _pair_to_json(e, field)} for e in col] for col in lat.canonical_pairs],
    }


def lattice_from_json(data, field: BaseField) -> Lattice:
    _check(isinstance(data, dict), "a lattice must be an object")
    n = data.get("n")
    _check(_is_int(n) and n >= 1, 'a lattice needs a positive integer "n"')
    columns = data.get("columns")
    _check(isinstance(columns, list)
           and all(isinstance(col, list) and len(col) == n for col in columns),
           f'lattice "columns" must be a list of lists of {n} scalars')
    return Lattice.from_generators([[_entry_from_json(e, field) for e in col]
                                    for col in columns], n, field)


def instance_to_json(lattices, indices):
    field = lattices[0].field
    return {
        "n": lattices[0].n,
        "field": field_to_str(field),
        "lattices": [lattice_to_json(lat) for lat in lattices],
        "indices": list(indices),
    }


def instance_from_json(data):
    """Returns (lattices, indices, field); raises InstanceError on input that
    does not have the shape ``instance_to_json`` writes."""
    _check(isinstance(data, dict), "an instance must be a JSON object")
    field = field_from_str(data.get("field"))
    _check(isinstance(data.get("lattices"), list) and data["lattices"],
           'instance "lattices" must be a non-empty list')
    indices = data.get("indices")
    _check(isinstance(indices, list) and all(_is_int(i) for i in indices),
           'instance "indices" must be a list of integers')
    lattices = [lattice_from_json(d, field) for d in data["lattices"]]
    n = data.get("n", lattices[0].n)
    _check(_is_int(n) and all(lat.n == n for lat in lattices),
           'the lattices of an instance must all have its rank "n"')
    return lattices, tuple(indices), field


def apartment_from_json(data):
    """Returns (Apartment, points, indices) of an ``apartment`` input: a
    square "frame" of scalar columns, integer "points" and one nonnegative
    "indices" entry per point.  Raises InstanceError on any other shape."""
    _check(isinstance(data, dict), "an apartment input must be a JSON object")
    field = field_from_str(data.get("field"))
    frame = data.get("frame")
    _check(isinstance(frame, list) and frame
           and all(isinstance(col, list) and len(col) == len(frame) for col in frame),
           'apartment "frame" must be a non-empty square list of columns')
    n = len(frame)
    points = data.get("points")
    _check(isinstance(points, list)
           and all(isinstance(p, list) and len(p) == n and all(_is_int(c) for c in p)
                   for p in points),
           f'apartment "points" must be a list of lists of {n} integers')
    indices = data.get("indices")
    _check(isinstance(indices, list) and len(indices) == len(points)
           and all(_is_int(i) and i >= 0 for i in indices),
           'apartment "indices" must hold one nonnegative integer per point')
    apt = Apartment([[_entry_from_json(e, field) for e in col] for col in frame], field)
    return apt, [ApartmentPoint(tuple(p)) for p in points], tuple(indices)


def subspaces_from_json(data):
    """Returns (subspaces, field) of a ``konig`` input: a positive rank "n"
    and "subspaces", each a list of spanning vectors of length n.  Raises
    InstanceError on any other shape."""
    _check(isinstance(data, dict), "a konig input must be a JSON object")
    field = field_from_str(data.get("field"))
    n = data.get("n")
    _check(_is_int(n) and n >= 1, 'a konig input needs a positive integer "n"')
    subspaces = data.get("subspaces")
    _check(isinstance(subspaces, list)
           and all(isinstance(mat, list)
                   and all(isinstance(vec, list) and len(vec) == n for vec in mat)
                   for mat in subspaces),
           f'"subspaces" must be a list of lists of vectors of length {n}')
    return [Subspace.span([[_coefficient(c, field) for c in vec] for vec in mat], n, field)
            for mat in subspaces], field


def matrix_from_json(data):
    """A square integer matrix (the ``hungarian`` input); raises
    InstanceError on any other shape."""
    _check(isinstance(data, list)
           and all(isinstance(row, list) and len(row) == len(data)
                   and all(_is_int(x) for x in row) for row in data),
           "the matrix must be a square list of lists of integers")
    return data


def report_to_json(report: ConjectureReport):
    out = {
        "lhs": report.lhs,
        "status": report.status,
        "witness": None,
        "candidates": [],
        "strategy": report.strategy,
        "seed": report.seed,
    }
    if report.best_candidate is not None:
        lat, cost = report.best_candidate
        out["candidates"].append({"lattice": lattice_to_json(lat), "cost": cost})
        if report.status == "verified":
            out["witness"] = lattice_to_json(lat)
    out["candidates_examined"] = report.candidates_examined
    return out
