"""One workload in one fresh process: set up, report readiness, then run
operations one after another in a closed loop (one caller, one thread).

Run by run.py as ``python3 worker.py '<job json>'``.  Writes ``ready`` to
stdout when set-up is done, then (unless the job is set-up only) a single
JSON result line.  The library is imported from the checkout's ``src``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

import calib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(record):
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(job):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import latticeval

    src = os.path.realpath(os.path.join(ROOT, "src", "latticeval"))
    if os.path.dirname(os.path.realpath(latticeval.__file__)) != src:
        raise SystemExit(f"latticeval imported from {latticeval.__file__}, not {src}")
    import workloads

    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    workdir = os.path.join(ROOT, ".bench_out", f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[job["workload"]](job["seed"], workdir)
        print("ready", flush=True)
        if job["setup_only"]:
            return None
        return _loop(wl, job, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _loop(wl, job, tracer):
    """Run operations until `seconds` of wall time have passed and at least
    `min_ops` are done, or `max_ops` are done, or the wall cap is reached.
    The calibration kernel runs between operations, every calib.EVERY_S."""
    clock = time.perf_counter
    start = clock()
    latencies, midpoints, digests, errors = [], [], [], []
    samples = [calib.sample()]
    failed = inconclusive = 0
    rss = None
    min_ops, max_ops = job["min_ops"], job["max_ops"]
    while True:
        done = len(latencies)
        now = clock() - start
        if max_ops is not None and done >= max_ops:
            break
        if max_ops is None and now >= job["seconds"] and done >= min_ops:
            break
        if now >= job["wall_cap"]:
            break
        if clock() - samples[-1][0] >= calib.EVERY_S:
            samples.append(calib.sample())
        inp = wl.next_input()
        t0 = tracer.begin_op(done) if tracer else clock()
        try:
            out, err = wl.run(inp), None
        except Exception:
            out, err = None, traceback.format_exc()
        if tracer:
            tracer.end_op(t0)
        t1 = clock()
        latencies.append(t1 - t0)
        midpoints.append((t0 + t1) / 2)
        if err is None:
            try:
                record = wl.check(inp, out)
                inconclusive += wl.inconclusive(out)
            except Exception:
                err = traceback.format_exc()
        if err is not None:
            failed += 1
            if len(errors) < 3:
                errors.append(f"op {done}: {err.strip().splitlines()[-1]}")
            record = ["failed"]
        digests.append(_digest(record))
        if len(latencies) == min_ops:
            rss = _peak_rss_mb()
    samples.append(calib.sample())
    result = {
        "latencies": latencies,
        "factors": calib.factors(midpoints, samples),
        "kernel_s": [d for _, d in samples],
        "failed": failed,
        "inconclusive": inconclusive,
        "digests": digests,
        "errors": errors,
        "peak_rss_mb": rss if rss is not None else _peak_rss_mb(),
        "rss_ops": min(len(latencies), min_ops),
    }
    if tracer:
        result["layers"] = tracer.metrics()
        result["shares"] = tracer.shares(sum(latencies))
        if job["trace_out"]:
            tracer.write(job["trace_out"])
    return result


if __name__ == "__main__":
    res = main(json.loads(sys.argv[1]))
    if res is not None:
        print(json.dumps(res), flush=True)
