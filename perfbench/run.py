"""radograph benchmark: one workload per call, in a fresh worker process.

    python3 perfbench/run.py --workload develop --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics of a separate traced run. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Workloads are described in
perfbench/README.md.

The worker runs with ``PYTHONHASHSEED=0`` so the same seed repeats the same
work (the sampler's output depends on set iteration order; see
determinism.py). Exit status is non-zero, with no result printed, when the
worker fails, times out or returns a malformed result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


def main(argv=None):
    p = argparse.ArgumentParser(description="radograph benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", "traced" if args.trace else "timed"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {TIMEOUT_S}s and was killed", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"worker exited with status {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        print("worker printed no well-formed result", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
