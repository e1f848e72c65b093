"""JSON encoding of scalars, lattices, instances, and verification reports."""

from __future__ import annotations

from .harness import ConjectureReport
from .lattices import Lattice
from .scalars import BaseField, LaurentPoly, RATIONAL, ValuedScalar


class InstanceError(ValueError):
    """JSON input whose shape or field types do not match the schema."""


def _check(ok, message):
    if not ok:
        raise InstanceError(message)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def field_to_str(field: BaseField) -> str:
    return "rational" if field.is_rational else f"prime:{field.p}"


def field_from_str(s: str) -> BaseField:
    if s == "rational":
        return RATIONAL
    if isinstance(s, str) and s.startswith("prime:"):
        try:
            return BaseField(int(s.split(":", 1)[1]))
        except ValueError as exc:
            raise InstanceError(str(exc)) from None
    raise InstanceError(f"unknown field {s!r}")


def poly_to_json(p: LaurentPoly):
    """Sorted [exponent, coefficient-string] pairs."""
    return [[e, p.field.format(c)] for e, c in sorted(p.coeffs.items())]


def poly_from_json(data, field: BaseField) -> LaurentPoly:
    _check(isinstance(data, list), "a polynomial must be a list of [exponent, coefficient] pairs")
    coeffs = {}
    for term in data:
        _check(isinstance(term, list) and len(term) == 2 and _is_int(term[0])
               and isinstance(term[1], (str, int, float)) and not isinstance(term[1], bool),
               f"bad polynomial term {term!r}: expected [integer, coefficient]")
        try:
            coeffs[term[0]] = field.parse(str(term[1]))
        except (ValueError, ZeroDivisionError):
            raise InstanceError(f"bad coefficient {term[1]!r} for field {field!r}") from None
    return LaurentPoly(field, coeffs)


def scalar_to_json(s: ValuedScalar):
    out = {"num": poly_to_json(s.num)}
    if s.den.coeffs != {0: s.field.one}:
        out["den"] = poly_to_json(s.den)
    return out


def scalar_from_json(data, field: BaseField) -> ValuedScalar:
    _check(isinstance(data, dict) and "num" in data,
           'a scalar must be an object with a "num" polynomial')
    num = poly_from_json(data["num"], field)
    den = poly_from_json(data["den"], field) if "den" in data else None
    _check(den is None or not den.is_zero(), "a scalar has a zero denominator")
    return ValuedScalar(num, den)


def lattice_to_json(lat: Lattice):
    return {
        "n": lat.n,
        "columns": [[scalar_to_json(e) for e in col] for col in lat.columns],
    }


def lattice_from_json(data, field: BaseField) -> Lattice:
    _check(isinstance(data, dict), "a lattice must be an object")
    n = data.get("n")
    _check(_is_int(n) and n >= 1, 'a lattice needs a positive integer "n"')
    columns = data.get("columns")
    _check(isinstance(columns, list)
           and all(isinstance(col, list) and len(col) == n for col in columns),
           f'lattice "columns" must be a list of lists of {n} scalars')
    cols = [[scalar_from_json(e, field) for e in col] for col in columns]
    if len(cols) == n:
        return Lattice.from_columns(cols)
    return Lattice.from_generators(cols, n)


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
