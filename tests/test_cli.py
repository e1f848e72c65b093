"""CLI subcommands: outputs, exit codes, and byte-for-byte determinism."""

import json

import pytest

from latticeval.cli import main
from latticeval import serialize
from latticeval.lattices import Lattice
from latticeval.scalars import RATIONAL, ValuedScalar


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_instance(tmp_path, lattices, indices, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(serialize.instance_to_json(lattices, indices)))
    return str(path)


def S(e):
    return ValuedScalar.t_power(RATIONAL, e)


def Z():
    return ValuedScalar.zero(RATIONAL)


def test_compute_f_trivial(capsys, tmp_path):
    e = Lattice.standard(3, RATIONAL)
    path = write_instance(tmp_path, [e, e, e], (1, 1, 1))
    code, out, _ = run(capsys, "compute-f", path)
    assert code == 0
    assert out.splitlines()[0] == "0"


def test_compute_f_binary_matches_distance(capsys, tmp_path):
    e = Lattice.standard(2, RATIONAL)
    m = Lattice.from_columns([[S(-2), Z()], [Z(), S(1)]])
    path = write_instance(tmp_path, [e, m], (1, 1))
    code, out, _ = run(capsys, "compute-f", path)
    assert code == 0 and out.splitlines()[0] == "2"
    code, out, _ = run(capsys, "distance", path)
    assert code == 0
    assert out.splitlines()[0] == "[2, -1]"
    assert "antisymmetry: True" in out


def test_verify_exit_codes(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "--kind", "close", "--n", "3",
                       "--seed", "9", "--field", "rational")
    assert code == 0
    inst = tmp_path / "close.json"
    inst.write_text(out)
    code, out, _ = run(capsys, "verify", str(inst), "--strategy", "close")
    assert code == 0
    # Zero budget on the enumerate strategy cannot verify anything.
    code, out, _ = run(capsys, "gen", "--kind", "triple", "--n", "2",
                       "--field", "prime:2", "--seed", "1")
    inst2 = tmp_path / "triple.json"
    inst2.write_text(out)
    code, _, _ = run(capsys, "verify", str(inst2), "--strategy", "enumerate",
                     "--budget", "0")
    assert code == 2


def test_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "distance", str(tmp_path / "missing.json"))
    assert code == 1


def test_close_case_output(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "--kind", "close", "--n", "3", "--seed", "2")
    inst = tmp_path / "c.json"
    inst.write_text(out)
    code, out, _ = run(capsys, "close-case", str(inst))
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"value", "witness", "candidates", "multiplicities"}
    assert len(payload["candidates"]) == 8
    assert min(payload["candidates"].values()) == payload["value"]


def test_apartment_subcommand(capsys, tmp_path):
    e = Lattice.standard(2, RATIONAL)
    data = {
        "n": 2,
        "field": "rational",
        "frame": [
            [serialize.scalar_to_json(c) for c in col] for col in e.columns
        ],
        "points": [[0, 0], [2, 0]],
        "indices": [1, 1],
    }
    inst = tmp_path / "ap.json"
    inst.write_text(json.dumps(data))
    code, out, _ = run(capsys, "apartment", str(inst))
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 2
    cert = payload["certificate"]
    assert sorted(cert["permutation"]) == [0, 1]
    assert sum(cert["a"]) + sum(cert["b"]) == cert["assignment_value"]


def test_konig_subcommand(capsys, tmp_path):
    data = {
        "n": 2,
        "field": "prime:2",
        "subspaces": [[[1, 0]], [[1, 0]], [[0, 1]]],
    }
    inst = tmp_path / "k.json"
    inst.write_text(json.dumps(data))
    code, out, _ = run(capsys, "konig", str(inst))
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 2
    assert len(payload["witness"]) == 2


def test_hungarian_subcommand(capsys):
    code, out, _ = run(capsys, "hungarian", "[[0,2],[1,3]]")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 3


def test_gen_deterministic(capsys):
    _, out1, _ = run(capsys, "gen", "--kind", "apartment", "--n", "3",
                     "--k", "3", "--seed", "17")
    _, out2, _ = run(capsys, "gen", "--kind", "apartment", "--n", "3",
                     "--k", "3", "--seed", "17")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["seed"] == 17
    # Round-trip through the schema.
    lattices, indices, field = serialize.instance_from_json(payload)
    assert serialize.instance_to_json(lattices, indices) == {
        k: v for k, v in payload.items() if k != "seed"
    }


def test_oversized_prime_field_is_an_error(capsys):
    code, out, err = run(capsys, "gen", "--field", f"prime:{10**400 + 1}",
                         "--kind", "apartment")
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_index_sum_mismatch_is_an_error(capsys, tmp_path):
    e = Lattice.standard(2, RATIONAL)
    path = write_instance(tmp_path, [e, e], (1, 2))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 1 and "error:" in err
