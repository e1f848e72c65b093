"""Command-line front end: exact computations, verification sweeps, and
random instance generation over JSON files."""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import serialize
from .apartment import apartment_witness, kuhn_munkres
from .closecase import candidate_costs, close_witness, decompose, extract_triple, min_formula
from .detval import multi_f_detail
from .harness import verify_star
from .metric import distance, reverse_negate
from .randgen import (
    random_apartment_instance,
    random_close_triple,
    random_index,
    random_lattice,
)
from .representatives import konig_linear_witness

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_instance(path):
    return serialize.instance_from_json(_load_json(path))


def cmd_compute_f(args) -> int:
    lattices, indices, _ = _load_instance(args.instance)
    if args.indices:
        indices = tuple(int(x) for x in args.indices.split(","))
    value, selection = multi_f_detail(indices, lattices)
    print(value)
    if args.json:
        print(_dump({"value": value, "indices": list(indices),
                     "selection": [list(s) for s in selection]}))
    return EXIT_OK


def cmd_distance(args) -> int:
    lattices, _, _ = _load_instance(args.instance)
    if len(lattices) != 2:
        raise ValueError("distance expects exactly two lattices")
    d = distance(*lattices)
    rev = distance(lattices[1], lattices[0])
    print(list(d))
    print("reversed:", list(rev), "antisymmetry:", rev == reverse_negate(d))
    if args.json:
        print(_dump({"distance": list(d), "reversed": list(rev)}))
    return EXIT_OK


def cmd_verify(args) -> int:
    lattices, indices, _ = _load_instance(args.instance)
    report = verify_star(indices, lattices, args.strategy, seed=args.seed,
                         budget=args.budget)
    payload = serialize.report_to_json(report)
    if args.json:
        print(_dump(payload))
    else:
        print(f"{report.status}: lhs={report.lhs} "
              f"candidates={report.candidates_examined}")
    return EXIT_OK if report.status == "verified" else EXIT_INCONCLUSIVE


def cmd_close_case(args) -> int:
    lattices, indices, _ = _load_instance(args.instance)
    if len(lattices) != 3 or len(indices) != 3:
        raise ValueError("close-case expects three lattices and three indices")
    triple = extract_triple(*lattices)
    mult = decompose(triple)
    value = min_formula(triple, *indices)
    witness, _ = close_witness(*lattices, *indices)
    costs = {label: cost for label, _, cost in candidate_costs(triple, *indices)}
    print(_dump({
        "value": value,
        "witness": serialize.lattice_to_json(witness),
        "candidates": costs,
        "multiplicities": mult.as_dict(),
    }))
    return EXIT_OK


def cmd_apartment(args) -> int:
    apt, points, indices = serialize.apartment_from_json(_load_json(args.instance))
    witness, value = apartment_witness(apt, points, indices)
    rows = []
    for point, mult in zip(points, indices):
        rows.extend([list(point.c)] * mult)
    cert = kuhn_munkres(rows)
    print(_dump({
        "value": value,
        "witness": serialize.lattice_to_json(witness),
        "certificate": {
            "permutation": list(cert.permutation),
            "a": list(cert.a),
            "b": list(cert.b),
            "assignment_value": cert.value,
        },
    }))
    return EXIT_OK


def cmd_konig(args) -> int:
    subspaces, field = serialize.subspaces_from_json(_load_json(args.instance))
    witness = konig_linear_witness(subspaces)
    print(_dump({
        "value": len(witness),
        "witness": [
            {"index": i, "vector": [field.format(c) for c in vec]}
            for i, vec in witness
        ],
    }))
    return EXIT_OK


def cmd_hungarian(args) -> int:
    result = kuhn_munkres(serialize.matrix_from_json(json.loads(args.matrix)))
    print(_dump({
        "value": result.value,
        "permutation": list(result.permutation),
        "a": list(result.a),
        "b": list(result.b),
    }))
    return EXIT_OK


def cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    field = serialize.field_from_str(args.field)
    n = args.n
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    if args.kind == "close":
        if args.k != 3:
            raise ValueError(f"--kind close writes three lattices, so --k must be 3, "
                             f"got {args.k}")
    elif args.k < 1:
        raise ValueError(f"--k must be at least 1, got {args.k}")
    if args.kind == "triple":
        lattices = [random_lattice(rng, n, field) for _ in range(args.k)]
        indices = random_index(rng, n, args.k)
    elif args.kind == "close":
        lattices = list(random_close_triple(rng, n, field))
        indices = random_index(rng, n, 3)
    elif args.kind == "apartment":
        apt, points, indices = random_apartment_instance(rng, n, args.k, field)
        lattices = [apt.lattice(p) for p in points]
    else:
        raise ValueError(f"unknown kind {args.kind!r}")
    payload = serialize.instance_to_json(lattices, indices)
    payload["seed"] = args.seed
    print(_dump(payload))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # Exit code 2 means an inconclusive verification, so a usage error
    # becomes one "error:" line and exit code 1 in main.
    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` fills a
    fresh namespace on each call, so nothing carries over between calls."""
    parser = _Parser(
        prog="latticeval",
        description="Exact lattice-valuation computations and conjecture checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute-f", help="determinant valuation of an instance")
    p.add_argument("instance")
    p.add_argument("--indices", help="comma-separated override")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_compute_f)

    p = sub.add_parser("distance", help="coweight distance of a lattice pair")
    p.add_argument("instance")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("verify", help="witness search for the star identity")
    p.add_argument("instance")
    p.add_argument("--strategy", default="close",
                   choices=["close", "apartment", "enumerate", "random"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=100000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("close-case", help="unit-ball triple analysis")
    p.add_argument("instance")
    p.set_defaults(func=cmd_close_case)

    p = sub.add_parser("apartment", help="assignment witness in a frame")
    p.add_argument("instance")
    p.set_defaults(func=cmd_apartment)

    p = sub.add_parser("konig", help="independent representatives of subspaces")
    p.add_argument("instance")
    p.set_defaults(func=cmd_konig)

    p = sub.add_parser("hungarian", help="maximal transversal with certificate")
    p.add_argument("matrix", help="JSON square integer matrix")
    p.set_defaults(func=cmd_hungarian)

    p = sub.add_parser("gen", help="emit a random instance")
    p.add_argument("--kind", default="triple",
                   choices=["triple", "close", "apartment"])
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--field", default="rational")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
