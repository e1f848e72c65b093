"""CLI subcommands: outputs, exit codes, and byte-for-byte determinism."""

import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import latticeval
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


@pytest.mark.parametrize("strategy", ["enumerate", "random"])
def test_negative_budget_is_an_error(capsys, tmp_path, strategy):
    # Exit code 2 means an honest "inconclusive", never a rejected input.
    code, out, _ = run(capsys, "gen", "--kind", "triple", "--n", "2",
                       "--field", "prime:2", "--seed", "1")
    inst = tmp_path / "triple.json"
    inst.write_text(out)
    code, out, err = run(capsys, "verify", str(inst), "--strategy", strategy,
                         "--budget", "-5")
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_wide_exponent_spread_is_fast(capsys, tmp_path):
    """A single entry 3t^-6000 makes the canonical basis run at a precision
    of thousands of terms; inverting the (sparse) pivot units must stay
    linear in it.  The quadratic unit inverse took about 6.5 s here."""
    one = {"num": [[0, "1"]]}
    data = {"n": 2, "field": "prime:101", "indices": [1, 1], "lattices": [
        {"n": 2, "columns": [[one, {"num": []}], [{"num": []}, one]]},
        {"n": 2, "columns": [[{"num": [[-6000, "3"]]}, one],
                             [one, {"num": [[0, "1"], [1, "1"]]}]]},
    ]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data))
    start = time.monotonic()
    code, out, _ = run(capsys, "distance", str(path))
    elapsed = time.monotonic() - start
    assert code == 0 and out.splitlines()[0] == "[6000, 0]"
    assert elapsed < 1.0, f"distance took {elapsed:.2f}s"


def test_enumerate_budget_bounds_run_time(capsys, tmp_path):
    """The floor of this instance has pivots (8, 6, 4), so the enumeration
    scans pivot vectors up to a sum of 18 over F_2; with the budget counting
    only accepted candidates this run did not finish in 20 s."""
    _, out, _ = run(capsys, "gen", "--kind", "apartment", "--field", "prime:2",
                    "--seed", "4", "--n", "3")
    inst = tmp_path / "apt.json"
    inst.write_text(out)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(latticeval.__file__)))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "latticeval.cli", "verify", str(inst),
                           "--strategy", "enumerate", "--budget", "300"],
                          capture_output=True, text=True, env=env, timeout=20)
    elapsed = time.monotonic() - start
    assert proc.returncode == 2 and proc.stdout.startswith("inconclusive:")
    assert elapsed < 10.0, f"enumerate took {elapsed:.2f}s"


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


@pytest.mark.parametrize("argv", [
    ["--n", "0"],
    ["--n", "-2"],
    ["--k", "0"],
    ["--kind", "apartment", "--k", "0"],
    ["--kind", "close", "--n", "0"],
    ["--kind", "close", "--k", "0"],
    ["--kind", "close", "--k", "7"],
], ids=["n0", "n-2", "k0", "apartment-k0", "close-n0", "close-k0", "close-k7"])
def test_gen_rejects_bad_sizes(capsys, argv):
    code, out, err = run(capsys, "gen", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_repeated_main_calls_match_fresh_processes(capsys, tmp_path):
    """The parser is built once per process; calls in one process give the
    output and exit code of separate processes, and no option carries over."""
    _, out, _ = run(capsys, "gen", "--kind", "apartment", "--field", "prime:3",
                    "--seed", "1")
    inst = tmp_path / "apt.json"
    inst.write_text(out)
    calls = [
        ["verify", str(inst), "--json", "--strategy", "apartment", "--seed", "4"],
        ["verify", str(inst)],
        ["verify", str(inst), "--bogus"],
        ["gen", "--kind", "close", "--n", "2", "--seed", "8"],
        ["gen"],
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(latticeval.__file__)))
    in_process = [run(capsys, *argv) for argv in calls]
    for argv, (code, out, err) in zip(calls, in_process):
        fresh = subprocess.run([sys.executable, "-m", "latticeval.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=60)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    (json_code, json_out, _), (_, text_out, _), (code, out, err), _, (_, gen_out, _) = in_process
    assert json_code == 0 and json.loads(json_out)["status"] == "verified"
    assert text_out.startswith(("verified:", "inconclusive:"))
    assert code == 1 and out == "" and len(err.strip().splitlines()) == 1
    assert err.startswith("error:")
    payload = json.loads(gen_out)
    assert payload["seed"] == 0 and payload["field"] == "rational"


@pytest.mark.parametrize("argv", [
    ["compute-f", "inst.json", "--indices", "-1,2,2"],
    [],
], ids=["option-like-value", "no-subcommand"])
def test_usage_error_exits_1(capsys, argv):
    # Exit code 2 is reserved for an inconclusive verification.
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_index_sum_mismatch_is_an_error(capsys, tmp_path):
    e = Lattice.standard(2, RATIONAL)
    path = write_instance(tmp_path, [e, e], (1, 2))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("mangle", [
    lambda d: d["lattices"][0].update(columns=5),
    lambda d: d.update(lattices=7),
    lambda d: d.update(indices=[1, None, 1]),
    lambda d: [1, 2, 3],
], ids=["columns-int", "lattices-int", "indices-null", "top-level-list"])
def test_malformed_instance_is_an_error(capsys, tmp_path, mangle):
    e = Lattice.standard(2, RATIONAL)
    data = serialize.instance_to_json([e, e, e], (1, 1, 0))
    data = mangle(data) or data
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command, data", [
    ("apartment", {"field": "rational", "frame": 5, "points": [], "indices": []}),
    ("konig", {"field": "prime:2", "n": 2, "subspaces": 7}),
    ("hungarian", 5),
    ("apartment", {"field": "prime:3", "points": [[0, 1]], "indices": [2], "frame": [
        [{"num": [[0, "1"]]}, {"num": [[0, "2"]]}],
        [{"num": [[0, "2"]]}, {"num": [[0, "1"]]}]]}),
], ids=["apartment-frame-int", "konig-subspaces-int", "hungarian-int", "apartment-singular"])
def test_malformed_frame_input_is_an_error(capsys, tmp_path, command, data):
    if command == "hungarian":
        arg = json.dumps(data)
    else:
        arg = str(tmp_path / "bad.json")
        (tmp_path / "bad.json").write_text(json.dumps(data))
    code, out, err = run(capsys, command, arg)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def corrupter(draw):
    """part(valid) returns valid, except that one call picked at random (or
    none) returns arbitrary shallow JSON instead."""
    target = draw(st.integers(1, 100)) if draw(st.booleans()) else 0
    calls = 0

    def part(valid):
        nonlocal calls
        calls += 1
        return draw(json_values) if calls == target else valid

    return part


def fuzzed_field(draw):
    field = draw(st.sampled_from(["rational", "prime:2", "prime:3"]))
    return field, ["1", "-2", "3"] + (["1/2"] if field == "rational" else [])


def fuzzed_offset(draw):
    """Where a lattice or frame sits: its exponents are offset + [-2, 2], so
    two lattices of one instance may lie up to 6000 apart."""
    return draw(st.sampled_from([-3000, 0, 3000]) | st.integers(-3000, 3000))


def fuzzed_scalar(draw, part, coeffs, diagonal, offset):
    size = draw(st.integers(1 if diagonal else 0, 2))
    terms = [part([offset + draw(st.integers(-2, 2)), draw(st.sampled_from(coeffs))])
             for _ in range(size)]
    out = {"num": part(terms)}
    if draw(st.integers(0, 3)) == 0:
        out["den"] = part([[0, "1"], [1, "1"]])
    return part(out)


def fuzzed_indices(draw, part, n, count):
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=count - 1, max_size=count - 1)))
    return part([part(b - a) for a, b in zip([0] + cuts, cuts + [n])])


@st.composite
def fuzzed_instances(draw):
    """An instance of rank n <= 4, each lattice at its own offset in
    [-3000, 3000], in which at most one part, picked at random, is replaced
    by arbitrary shallow JSON."""
    part = corrupter(draw)
    n = draw(st.integers(1, 4))
    count = draw(st.integers(1, 3))
    field, coeffs = fuzzed_field(draw)

    def lattice():
        offset = fuzzed_offset(draw)
        cols = [part([fuzzed_scalar(draw, part, coeffs, i == j, offset) for i in range(n)])
                for j in range(n + draw(st.integers(0, 1)))]
        return part({"n": part(n), "columns": part(cols)})

    return part({
        "n": part(n),
        "field": part(field),
        "lattices": part([lattice() for _ in range(count)]),
        "indices": fuzzed_indices(draw, part, n, count),
    })


@st.composite
def fuzzed_apartments(draw):
    """An ``apartment`` input (frame, points, indices) of rank n <= 4, with at
    most one part replaced by arbitrary shallow JSON."""
    part = corrupter(draw)
    n = draw(st.integers(1, 4))
    count = draw(st.integers(1, 3))
    field, coeffs = fuzzed_field(draw)
    offset = fuzzed_offset(draw)
    frame = [part([fuzzed_scalar(draw, part, coeffs, i == j, offset) for i in range(n)])
             for j in range(n)]
    points = [part([part(draw(st.integers(-3, 3))) for _ in range(n)])
              for _ in range(count)]
    return part({
        "field": part(field),
        "frame": part(frame),
        "points": part(points),
        "indices": fuzzed_indices(draw, part, n, count),
    })


@st.composite
def fuzzed_konig(draw):
    """A ``konig`` input of up to three subspaces of F^n, n <= 3, with at most
    one part replaced by arbitrary shallow JSON."""
    part = corrupter(draw)
    n = draw(st.integers(1, 3))
    field, coeffs = fuzzed_field(draw)
    subspaces = [
        part([part([part(draw(st.sampled_from(coeffs + ["0"]))) for _ in range(n)])
              for _ in range(draw(st.integers(0, 2)))])
        for _ in range(draw(st.integers(0, 3)))
    ]
    return part({"n": part(n), "field": part(field), "subspaces": part(subspaces)})


@st.composite
def fuzzed_matrices(draw):
    """A square integer matrix of size <= 4 for ``hungarian``, with at most
    one part replaced by arbitrary shallow JSON."""
    part = corrupter(draw)
    n = draw(st.integers(0, 4))
    return part([part([part(draw(st.integers(-3, 3))) for _ in range(n)])
                 for _ in range(n)])


def inputs_for(commands, strategy):
    return st.tuples(st.sampled_from(commands), strategy | json_values)


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=inputs_for(["verify", "compute-f", "distance", "close-case"], fuzzed_instances())
       | inputs_for(["apartment"], fuzzed_apartments())
       | inputs_for(["konig"], fuzzed_konig())
       | inputs_for(["hungarian"], fuzzed_matrices()))
def test_fuzzed_instances_never_raise(capsys, tmp_path, case):
    command, data = case
    if command == "hungarian":
        code, _, err = run(capsys, command, json.dumps(data))
    else:
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, command, str(path))
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
