"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload, with tracing off and on, runs ``run.py --tiny`` and
checks that the last output line is the result object and names every
metric of BENCHMARK.json with its unit.  Then checks that the benchmark
fails without printing a result in a directory that holds only
BENCHMARK.json and the benchmark's own files.  Exits non-zero on the
first mismatch.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 170


def bench(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(proc, expected):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result["attempted"]
    assert isinstance(result["failed"], int), result["failed"]
    assert set(result["metrics"]) == set(expected), set(result["metrics"]) ^ set(expected)
    for name, unit in expected.items():
        m = result["metrics"][name]
        assert m["unit"] == unit, (name, m["unit"], unit)
        assert isinstance(m["value"], (int, float)), (name, m["value"])


def check_bare_directory():
    bare = os.path.join(ROOT, ".perfbench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = bench(bare, "desk-greedy", 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0, "benchmark succeeded without the sphere sources"
    assert '"metrics"' not in proc.stdout, proc.stdout[-2000:]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            check_result(bench(ROOT, w["name"], trace), expected)
            print(f"ok  {w['name']} --trace {trace}: {len(expected)} metrics")
    check_bare_directory()
    print("ok  bare directory: non-zero exit, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
