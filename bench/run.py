"""Layered benchmark for latticeval.

Usage (from the repository root):

    python3 bench/run.py --workload generic-q|close-f3|verify-cli-fp|all \
        [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in fresh worker processes (worker.py), so caches start
cold and peak memory belongs to that workload.  With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it reports the per-layer
metrics of a traced run plus the tracing overhead.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Run files (results, traces, digests) go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import calib
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "latticeval")
OUT = os.path.join(ROOT, ".bench_out")
# Operation floor and tail percentile of each workload.  The percentile is
# fixed, not the highest one with 10 samples beyond it, so that a faster
# program (more operations in the same time) is not measured at a higher
# percentile; the floor leaves at least 10 samples beyond it.  close-f3 uses
# p95 rather than p99, which across seeds spread up to twice as much.
WORKLOADS = {"generic-q": (100, 90), "close-f3": (1000, 95), "verify-cli-fp": (100, 90)}
SETUP_RUNS = 5  # set-ups per run, before and after the timed worker
CHILD_WALL_CAP = 140.0  # seconds a worker may run before it stops early
END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _spawn(job, timeout):
    """Run one worker; return (seconds from spawn to ready, result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker for {job['workload']} timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"worker for {job['workload']} exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready_s, (json.loads(lines[-1]) if lines else None)


def _job(workload, seed, seconds, **kw):
    job = dict(workload=workload, seed=seed, seconds=seconds, trace=False,
               setup_only=False, min_ops=0, max_ops=None, trace_out=None,
               wall_cap=CHILD_WALL_CAP)
    job.update(kw)
    return job


def _source_facts():
    """Hash of the library and benchmark sources (digests are compared only
    between runs of identical code) and the line count of the library."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(glob.glob(os.path.join(SRC, "*.py")) + glob.glob(os.path.join(HERE, "*.py"))):
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0" + data)
        if path.startswith(SRC):
            lines += data.count(b"\n")
    return digest.hexdigest()[:16], lines


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _check_digests(workload, seed, code_hash, digests):
    """Compare per-operation result digests with earlier runs of the same
    code and seed; return the number of operations that differ."""
    path = os.path.join(OUT, "digests", f"{workload}-{seed}-{code_hash}.json")
    old = []
    if os.path.exists(path):
        with open(path) as fh:
            old = json.load(fh)
    differ = sum(a != b for a, b in zip(old, digests))
    if len(digests) > len(old):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(digests, fh)
    return differ


def _tail(latencies, pct):
    """Nearest-rank pct-th percentile and the number of samples beyond it."""
    srt = sorted(latencies)
    rank = max(1, -(-pct * len(srt) // 100))
    return srt[rank - 1], len(srt) - rank


def _scaled(res):
    """Operation latencies at the reference host speed (see calib.py)."""
    return [lat * f for lat, f in zip(res["latencies"], res["factors"])]


def _end_to_end(workload, seed, seconds):
    min_ops, pct = WORKLOADS[workload]
    setups = []

    def probe():
        setups.append(_spawn(_job(workload, seed, seconds, setup_only=True), 60)[0])

    # Probes on both sides of the timed worker sample the host at two times.
    for _ in range((SETUP_RUNS - 1) // 2):
        probe()
    ready_s, res = _spawn(_job(workload, seed, seconds, min_ops=min_ops), 170)
    setups.append(ready_s)
    while len(setups) < SETUP_RUNS:
        probe()
    lat, raw = _scaled(res), res["latencies"]
    tail, beyond = _tail(lat, pct)
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_tail_ms": tail * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "ops_per_s": f"unscaled {len(raw) / sum(raw):.4g}",
        "op_p50_ms": f"unscaled {statistics.median(raw) * 1000:.4g}",
        "op_tail_ms": f"p{pct} of {len(lat)} ops, {beyond} beyond; "
                      f"unscaled {_tail(raw, pct)[0] * 1000:.4g}",
        "setup_s": f"median of {len(setups)} set-ups",
        "peak_rss_mb": f"after {res['rss_ops']} ops",
    }
    return metrics, {k: END_TO_END_UNITS[k] for k in metrics}, notes, [res]


def _per_layer(workload, seed, seconds):
    os.makedirs(OUT, exist_ok=True)
    trace_out = os.path.join(OUT, f"trace-{workload}-{seed}.json")
    _, traced = _spawn(_job(workload, seed, seconds / 2, trace=True, trace_out=trace_out,
                            wall_cap=CHILD_WALL_CAP / 2), 85)
    n = len(traced["latencies"])
    _, plain = _spawn(_job(workload, seed, seconds, max_ops=n, wall_cap=CHILD_WALL_CAP / 2), 85)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = sum(_scaled(traced)) / sum(_scaled(plain)[:n])
    notes = {"trace.overhead_ratio": f"traced / untraced time on the same {n} ops, "
                                     f"both at the reference host speed"}
    shares = ", ".join(f"{k} {v:.1%}" for k, v in
                       sorted(traced["shares"].items(), key=lambda kv: -kv[1]) if v >= 0.005)
    notes["self-time shares"] = shares
    notes["spans"] = trace_out
    return metrics, {k: spans.PER_LAYER_UNITS[k] for k in metrics}, notes, [traced, plain]


def run_workload(workload, seed, seconds, trace):
    calib_before = calib.median_s() * 1000
    code_hash, src_lines = _source_facts()
    measure = _per_layer if trace else _end_to_end
    metrics, units, notes, results = measure(workload, seed, seconds)
    attempted = sum(len(r["latencies"]) for r in results)
    failed = sum(r["failed"] for r in results)
    differ = sum(_check_digests(workload, seed, code_hash, r["digests"]) for r in results)
    inconclusive = sum(r["inconclusive"] for r in results)
    meta = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "code_hash": code_hash,
        "src_lines": src_lines,
        "calibration_ms": [round(calib_before, 3), round(calib.median_s() * 1000, 3)],
        "kernel_ms_in_run": [round(statistics.median(r["kernel_s"]) * 1000, 3) for r in results],
        "digest_first_ops": hashlib.sha256("".join(results[0]["digests"][:50]).encode()).hexdigest()[:16],
        "digest_mismatches": differ,
    }
    print(f"{workload} seed={seed} trace={int(trace)}: {attempted} ops, {failed} failed")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {value:14.6g} {units[name]}{note}")
    print(f"  {'error_ratio':32s} {failed / attempted:14.6g} ratio")
    print(f"  {'inconclusive_ratio':32s} {inconclusive / attempted:14.6g} ratio")
    for key in ("self-time shares", "spans"):
        if key in notes:
            print(f"  {key}: {notes[key]}")
    for err in (e for r in results for e in r["errors"]):
        print(f"  error: {err}")
    print("  meta " + json.dumps(meta, sort_keys=True))
    summary = {
        "correct": failed == 0 and differ == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{workload}-{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(dict(summary, meta=meta, notes=notes,
                       error_ratio=failed / attempted,
                       inconclusive_ratio=inconclusive / attempted,
                       latencies=results[0]["latencies"]), fh)
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"error: no latticeval sources at {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
