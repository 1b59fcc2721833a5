"""Determinism check: per-workload output digests under two hash seeds.

    python3 perfbench/determinism.py [--seed 1]

For each workload, runs a fixed job list in two worker processes with
``PYTHONHASHSEED`` 1 and 2 and compares the sha256 digests of the jobs'
sorted-key JSON artefacts (plus hash-seed independent vertex digests where
the artefact alone would not show the vertices). Prints one line per
workload and a JSON summary; exits 1 if any workload's digests differ, so an
unstable workload is reported, never hidden.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
HASH_SEEDS = ("1", "2")
TIMEOUT_S = 175

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


def digest(workload, seed, hash_seed):
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", "digest"]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description="per-workload digests under two hash seeds")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    summary = {}
    for name in WORKLOADS:
        runs = [digest(name, args.seed, hs) for hs in HASH_SEEDS]
        digests = {r["hash_seed"]: r["digest"] for r in runs}
        stable = len(set(digests.values())) == 1 and not any(r["failed"] for r in runs)
        summary[name] = {"stable": stable, "jobs": runs[0]["jobs"], "digests": digests}
        shown = "  ".join(f"PYTHONHASHSEED={hs}: {d[:16]}" for hs, d in digests.items())
        print(f"{name:<10} {'stable' if stable else 'UNSTABLE':<9} {shown}", flush=True)
    print(json.dumps({"seed": args.seed, "workloads": summary}))
    return 0 if all(v["stable"] for v in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
