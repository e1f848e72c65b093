"""Self-test of the benchmark at a tiny size: python3 bench/selftest.py

Runs every workload briefly with tracing off and on and checks that
- the last stdout line has exactly the keys correct/attempted/failed/metrics,
  with correct true and no failed operation;
- every end-to-end metric (trace 0) or per-layer metric (trace 1) named in
  BENCHMARK.json is emitted with its unit, and no other metric is;
- the human-readable lines name error_ratio and inconclusive_ratio;
- the traced run writes spans whose parent links point at recorded spans;
- a second run with the same seed reproduces the result digests;
- in a directory holding only BENCHMARK.json and bench/, the benchmark exits
  non-zero without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

SEED = 5


def _bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _run(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(args)
    return code, out.getvalue().strip().splitlines()


def _check_result(lines, expected, failures, label):
    final = json.loads(lines[-1])
    if sorted(final) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{label}: result keys {sorted(final)}")
        return
    if not final["correct"] or final["failed"] or final["attempted"] < 1:
        failures.append(f"{label}: correct={final['correct']} failed={final['failed']}")
    got = {k: v["unit"] for k, v in final["metrics"].items()}
    if got != expected:
        failures.append(f"{label}: metrics/units differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}, "
                        f"units {[k for k in got if k in expected and got[k] != expected[k]]}")
    text = "\n".join(lines)
    for name in ("error_ratio", "inconclusive_ratio"):
        if name not in text:
            failures.append(f"{label}: {name} not printed")


def _check_spans(path, failures, label):
    with open(path) as fh:
        data = json.load(fh)
    spans = data["spans"]
    ids = {s[0] for s in spans}
    linked = [s for s in spans if s[1] is not None]
    if not linked:
        failures.append(f"{label}: no span has a parent")
    if any(s[1] not in ids for s in linked):
        failures.append(f"{label}: a parent link points at no recorded span")
    if any(s[4] > s[5] for s in spans):
        failures.append(f"{label}: a span ends before it starts")


def _check_bare_directory(failures):
    bare = os.path.join(run.OUT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "close-f3",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("bare directory: expected a non-zero exit and no result")


def main():
    end_to_end, per_layer = _bench_spec()
    # Own output directory, so real runs' results and digests stay untouched.
    run.OUT = os.path.join(run.OUT, "selftest")
    # Tiny size: a handful of operations per workload and two set-ups.
    run.WORKLOADS = {w: (12, 50) for w in run.WORKLOADS}
    run.SETUP_RUNS = 2
    failures = []
    for workload in sorted(run.WORKLOADS):
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            label = f"{workload} trace={trace}"
            args = ["--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
                    "--trace", str(trace)]
            code, lines = _run(args)
            if code != 0:
                failures.append(f"{label}: exit code {code}")
                continue
            _check_result(lines, expected, failures, label)
            if trace:
                _check_spans(os.path.join(run.OUT, f"trace-{workload}-{SEED}.json"),
                             failures, label)
        # Same code and seed again: run.py marks the result incorrect if any
        # operation's digest differs from the first run's.
        code, lines = _run(["--workload", workload, "--seed", str(SEED), "--seconds", "0.5"])
        if code != 0 or not json.loads(lines[-1])["correct"]:
            failures.append(f"{workload}: repeated run is not reproducible")
    _check_bare_directory(failures)
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
