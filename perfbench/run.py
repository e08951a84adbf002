"""Benchmark of the sphere library: greedy block training, the loss
ablation and the linear lemma, end to end and layer by layer.

    python3 perfbench/run.py --workload desk-greedy --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The benchmark is a closed loop driven
from this single process: it starts one unit (``unit.py``, a fresh
process) at a time, waits for it, and starts the next until ``--seconds``
have passed and a whole round of variants has run.  Every unit sets up
from scratch, so set-up time is sampled once per unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it are JSON records: machine facts, one line per unit, one
line per failure.  Each metric is the median over the run's units.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# lemma-linear trains one output width M per unit, taking M in turn
VARIANTS = {"desk-greedy": (None,), "ablate-wide": (None,), "lemma-linear": (4, 8, 16)}
BLAS_THREADS = 1  # single-threaded units: never more BLAS threads than nproc
# A run ends with a whole round of units (every M, plain and traced); the
# round that starts just before --seconds have passed may take this long.
ROUND_MARGIN_S = 140.0
FAIL_EXIT = 2


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """sha256 over src/sphere/*.py, which identifies the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "sphere")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing code, crash, timeout)."""


def run_unit(workload, seed, scale, variant, traced, index, deadline):
    """Start one unit process, wait for it and return its result record."""
    cmd = [sys.executable, os.path.join(HERE, "unit.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--scale", scale]
    if variant is not None:
        cmd += ["--variant", str(variant)]
    if traced:
        cmd += ["--spans", os.path.join(OUT, f"{workload}-u{index}.npz")]
    spawn = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(deadline - spawn, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"unit {index} did not finish within the run limit") from exc
    wall = perf_counter() - spawn
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"unit {index} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    res = json.loads(lines[-1])
    if not res["sphere_file"].startswith(SRC + os.sep):
        raise BenchError(f"unit imported sphere from {res['sphere_file']}, not from {SRC}")
    # the unit's own checks after the workload are not part of its wall time
    res.update(index=index, traced=traced, variant=variant, wall_s=wall - res["check_s"],
               setup_s=res["train_start"] - spawn)
    return res


def median(units, key):
    return statistics.median(u[key] for u in units)


def end_to_end(units):
    return {
        "setup_s": median(units, "setup_s"),
        "train_steps_per_s": statistics.median(u["steps"] / u["train_s"] for u in units),
        "eval_s": median(units, "eval_s"),
        "wall_s": median(units, "wall_s"),
        "peak_rss_mb": median(units, "peak_rss_mb"),
    }


def per_layer(traced, plain, names):
    out = {n: statistics.median(u["layers"][n] for u in traced)
           for n in names if not n.startswith("trace.overhead")}
    overhead = median(traced, "wall_s") - median(plain, "wall_s")
    out["trace.overhead_s"] = overhead
    out["trace.overhead_frac"] = overhead / median(plain, "wall_s")
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(VARIANTS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="self-test scale: tiny inputs, no oracle or recorded-seed gates")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sphere", "__init__.py")):
        print(json.dumps({"error": "MissingSource", "message": f"no sphere package under {SRC}"}),
              file=sys.stderr)
        return FAIL_EXIT
    e2e_units, layer_units = load_spec()
    os.makedirs(OUT, exist_ok=True)
    start = perf_counter()
    deadline = start + args.seconds + ROUND_MARGIN_S
    scale = "tiny" if args.tiny else "full"
    modes = (False, True) if args.trace else (False,)
    units = []
    variants = VARIANTS[args.workload]
    try:
        # whole rounds only, so every run covers each variant equally
        while not units or perf_counter() - start < args.seconds or len(units) % (
                len(modes) * len(variants)):
            variant = variants[len(units) // len(modes) % len(variants)]
            for traced in modes:
                units.append(run_unit(args.workload, args.seed, scale, variant, traced,
                                      len(units), deadline))
    except BenchError as exc:
        print(json.dumps({"error": "BenchError", "message": str(exc)}), file=sys.stderr)
        return FAIL_EXIT

    first = units[0]
    print(json.dumps({"machine": first["machine"] | {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "git_revision": git_revision(),
        "src_sha256": source_digest()}}))
    drop = ("machine", "layers", "failures", "sphere_file", "train_start")
    for u in units:
        print(json.dumps({"unit": {k: v for k, v in u.items() if k not in drop}}))
        for f in u["failures"]:
            print(json.dumps({"failure": f, "unit": u["index"]}))

    attempted = sum(u["ops"] for u in units)
    failed = sum(len(u["failures"]) for u in units)
    plain = [u for u in units if not u["traced"]]
    values = end_to_end(plain)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "units": len(units),
                      "ops": attempted, "ops_failed_frac": failed / attempted,
                      "end_to_end": values}))
    if args.trace:
        values = per_layer([u for u in units if u["traced"]], plain, layer_units)
        names = layer_units
    else:
        names = e2e_units
    metrics = {n: {"value": values[n], "unit": names[n]} for n in names}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
