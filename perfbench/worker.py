"""One workload process: set up, run jobs in a closed loop, check, report.

Started by ``run.py`` (timed and traced runs, ``PYTHONHASHSEED=0``) and by
``determinism.py`` (digest runs under other hash seeds). It imports the
library from ``src/`` next to this directory and nowhere else, caps its own
address space so that a runaway job fails with MemoryError instead of being
killed, and prints one JSON object as its last line of standard output.

Modes:
  timed   jobs until ``--seconds`` have passed (and at least MIN_JOBS ran);
          end-to-end metrics with tracing off
  traced  a fixed job list per workload, run untraced and then traced, so
          the per-layer counts repeat exactly for a seed
  digest  a fixed job list; sha256 of the sorted-key JSON artefacts
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import os
import resource
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PACKAGE = "radograph"
MODULES = ("bignat", "errors", "graph", "partial", "oracle", "splitting",
           "triple", "translate", "sampler")

AS_LIMIT_BYTES = 2 * 1024 ** 3
SETUP_REPEATS = 3
MIN_JOBS = 100        # so that at least ten latency samples lie beyond p90
HARD_STOP_S = 150.0   # the whole run must end well within 180 s
# fixed job counts (whole rounds) for the traced and digest modes
TRACE_JOBS = {"develop": 48, "translate": 20, "verify": 120, "sample": 24}
DIGEST_JOBS = {"develop": 12, "translate": 10, "verify": 60, "sample": 12}

sys.path.insert(0, HERE)
from workloads import WORKLOADS, dumps, jobs  # noqa: E402


def limit_memory():
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = AS_LIMIT_BYTES if hard == resource.RLIM_INFINITY else min(hard, AS_LIMIT_BYTES)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def load():
    """Fresh import of the library from src/, as a namespace of its modules."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if not os.path.isdir(os.path.join(SRC, PACKAGE)):
        raise SystemExit(f"library source not found: {os.path.join(SRC, PACKAGE)}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    origin = os.path.abspath(sys.modules[PACKAGE].__file__)
    if not origin.startswith(SRC + os.sep):
        raise ImportError(f"{PACKAGE} imported from {origin}, not from {SRC}")
    return types.SimpleNamespace(**mods)


def run_job(wl, rg, state, job, tracer=None):
    """(seconds, artefact text or None, live objects, failure reason or None)."""
    gc.collect()
    start = time.perf_counter()
    try:
        artefact, live = wl.run(rg, state, job)
        text = dumps(artefact)
    except Exception as exc:  # a failed job is counted, never fatal
        return time.perf_counter() - start, None, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.paused += 1
    try:
        err = wl.check(rg, state, job, artefact, live)
    except Exception as exc:
        err = f"check raised {type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.paused -= 1
    return elapsed, text, live, err


def _report_failure(job, err, failures):
    failures.append(err)
    if len(failures) <= 5:
        print(f"job {dumps(job)} failed: {err}", file=sys.stderr)


def timed(wl, seed, seconds):
    setup = []
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        start = time.perf_counter()
        rg = load()
        state = wl.setup(rg, seed)
        stream = jobs(wl, seed, state)
        setup.append(time.perf_counter() - start)
    # the set-up's objects live for the whole run; freezing them keeps the
    # gc.collect() between jobs, which the loop's wall time includes, short
    gc.collect()
    gc.freeze()

    latencies, sizes, failures = [], [], []
    busy = 0.0
    attempted = 0
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and attempted >= MIN_JOBS):
            break
        job = next(stream)
        attempted += 1
        dt, text, _, err = run_job(wl, rg, state, job)
        busy += dt
        if err is not None:
            _report_failure(job, err, failures)
            continue
        latencies.append(dt * 1000.0)
        sizes.append(len(text))

    wall = time.perf_counter() - begin
    completed = len(latencies)
    print(f"{wl.name} seed={seed}: {completed} jobs completed, {len(failures)} failed, "
          f"{completed} latency samples, busy {busy:.2f}s, wall {wall:.2f}s")
    if completed < 2:
        raise SystemExit(f"{wl.name}: too few jobs completed to report latency")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (completed / wall, "1/s"),
        "job_p50_ms": (statistics.median(latencies), "ms"),
        "job_p90_ms": (statistics.quantiles(latencies, n=10)[-1], "ms"),
        "ok_ratio": (completed / attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "out_kb": (statistics.fmean(sizes) / 1000.0, "kB"),
    }
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced(wl, seed):
    """Set-up and a fixed job list, first untraced, then again traced.

    The set-up spans (the verify pool: truss runs, to_json, replay) are
    reported under ``setup.``; every other per-layer metric covers the jobs.
    """
    from tracer import Tracer

    rg = load()
    start = time.perf_counter()
    state = wl.setup(rg, seed)
    plain = time.perf_counter() - start
    job_list = list(itertools.islice(jobs(wl, seed, state), TRACE_JOBS[wl.name]))
    failures = []
    for job in job_list:
        dt, _, _, err = run_job(wl, rg, state, job)
        plain += dt
        if err is not None:
            _report_failure(job, err, failures)

    tracer = Tracer()
    tracer.install(rg)
    if tracer.missing:
        print(f"not traced (absent): {', '.join(tracer.missing)}", file=sys.stderr)
    state = None
    gc.collect()
    tracer.job = -1
    start = time.perf_counter()
    state = wl.setup(rg, seed)
    busy = time.perf_counter() - start
    setup = tracer.metrics()
    covered = tracer.covered_time()
    tracer.reset()
    for i, job in enumerate(job_list):
        tracer.job = i
        dt, _, _, err = run_job(wl, rg, state, job, tracer)
        busy += dt
        if err is not None:
            _report_failure(job, err, failures)
    covered += tracer.covered_time()

    metrics = tracer.metrics()
    for name in ("oracle.replay.self_s", "oracle.replay.total_s", "oracle.to_json.self_s",
                 "oracle.log_entries", "bignat.encode.self_s"):
        metrics["setup." + name] = setup[name]
    keys = [dumps(job) for job in job_list]
    targets = [job.get("target") for job in job_list]
    extra = {
        "input.repeat_share": (_repeat_share(keys), "ratio"),
        "input.target_repeat_share": (
            _repeat_share(targets) if any(t is not None for t in targets) else 0.0, "ratio"),
        "trace.jobs": (len(job_list), "count"),
        "trace.overhead": (busy / plain, "ratio"),
        "trace.coverage": (covered / (busy - tracer.own), "ratio"),
    }
    metrics.update({k: {"value": v, "unit": u} for k, (v, u) in extra.items()})
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{wl.name}.json")
    tracer.dump(path, {"workload": wl.name, "seed": seed, "jobs": keys})
    print(f"{wl.name} seed={seed}: set-up and {len(job_list)} jobs traced, overhead "
          f"{busy / plain:.2f}x, spans written to {os.path.relpath(path)}")
    return {
        "correct": not failures,
        "attempted": 2 * len(job_list),
        "failed": len(failures),
        "metrics": metrics,
    }


def _repeat_share(keys):
    """Share of jobs whose key already occurred earlier in the run."""
    seen = set()
    repeats = 0
    for k in keys:
        if k in seen:
            repeats += 1
        seen.add(k)
    return repeats / len(keys)


def digest(wl, seed):
    rg = load()
    state = wl.setup(rg, seed)
    h = hashlib.sha256(dumps(wl.state_fingerprint(state)).encode())
    failures = []
    job_list = list(itertools.islice(jobs(wl, seed, state), DIGEST_JOBS[wl.name]))
    for job in job_list:
        _, text, live, err = run_job(wl, rg, state, job)
        if err is not None:
            _report_failure(job, err, failures)
            h.update(b"failed")
            continue
        h.update(text.encode())
        h.update(dumps(wl.fingerprint(state, job, live)).encode())
    return {
        "workload": wl.name,
        "seed": seed,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "jobs": len(job_list),
        "failed": len(failures),
        "digest": h.hexdigest(),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--mode", choices=("timed", "traced", "digest"), default="timed")
    args = p.parse_args(argv)
    limit_memory()
    wl = WORKLOADS[args.workload]
    if args.mode == "timed":
        result = timed(wl, args.seed, args.seconds)
    elif args.mode == "traced":
        result = traced(wl, args.seed)
    else:
        result = digest(wl, args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
