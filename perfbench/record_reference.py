"""Record the reference values the benchmark checks against.

    python3 perfbench/record_reference.py [--seeds 64]

Run once on the commit that defines the baseline.  For seeds 0..N-1 it
runs one unit of desk-greedy and of ablate-wide and writes
``reference.json``:

* ``descent`` per workload: for each block (of each ablation row), the
  mean total loss of every epoch after the first minus that of the first.
  A unit with a recorded seed must match it within ``descent_rtol``
  (relative L2 error per block), which leaves room for reordered
  arithmetic: rounding-level jitter of the float32 desk-greedy inputs moved
  these vectors by at most 0.02 on seeds 0-8.
* ``param_checksums``: the float64 ablate-wide parameter checksums per
  seed, one per ablation row.  The benchmark reports whether a run matches
  them; a mismatch is information, not a failure.
"""

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import ROOT, child_env  # noqa: E402

DESCENT_RTOL = 0.1
JOBS = 2  # units run at once


def unit(workload, seed):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "unit.py"), "--workload", workload,
                           "--seed", str(seed)], cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, check=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if res["failures"]:
        raise SystemExit(f"{workload} seed {seed} failed on the baseline: {res['failures']}")
    return res


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=64)
    args = p.parse_args()
    jobs = [(w, s) for s in range(args.seeds) for w in ("desk-greedy", "ablate-wide")]
    with ThreadPoolExecutor(JOBS) as pool:
        results = dict(zip(jobs, pool.map(lambda job: unit(*job), jobs)))
    ref = {
        "descent_rtol": DESCENT_RTOL,
        "desk-greedy": {"descent": {str(s): results["desk-greedy", s]["descent"]
                                    for s in range(args.seeds)}},
        "ablate-wide": {"descent": {str(s): results["ablate-wide", s]["descent"]
                                    for s in range(args.seeds)},
                        "param_checksums": {str(s): results["ablate-wide", s]["param_checksums"]
                                            for s in range(args.seeds)}},
    }
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
