"""One workload unit in a fresh process: set up, train, evaluate, check.

    python3 perfbench/unit.py --workload desk-greedy --seed 3 --trace 0 [--scale full]

``run.py`` starts this script once per unit and reads the JSON object it
prints as its last line.  The unit builds its inputs from ``--seed`` and
hands the library only the generated arrays.  A typed ``sphere`` error
becomes a failure record in that object; any other exception is a defect
of the library or of the benchmark and ends the process with a traceback.
"""

import argparse
import ctypes
import json
import math
import os
import resource
from time import perf_counter

import numpy as np

import sphere
from sphere import data, losses, oracle, trainer
from sphere import network as net
from sphere.linalg import NumericsError

from spans import Tracer, layer_metrics

TYPED_ERRORS = (trainer.TrainingDivergedError, trainer.OptimizerError, NumericsError,
                net.MemoryConstraintError)

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "reference.json")) as fh:
    REFERENCE = json.load(fh)

# Scales of each workload.  "reference" is the traffic a workload stands
# for: the criterion-6 gap run (5000 train / 1000 test images, 18 epochs)
# and `sphere ablate` at its defaults (5000 / 1000, 12 epochs).  "full",
# what the benchmark runs, shrinks the image counts and keeps the epochs
# per block and the test/train ratio, so the shares of block steps,
# re-forward and evaluation stay those of the reference (README.md has
# both profiles).  "tiny" is the self-test scale.
SCALE = {
    "desk-greedy": {"reference": dict(n_per_class=500, n_test_per_class=100, epochs=18),
                    "full": dict(n_per_class=13, n_test_per_class=3, epochs=18),
                    "tiny": dict(n_per_class=2, n_test_per_class=1, epochs=3)},
    "ablate-wide": {"reference": dict(n_per_class=500, n_test_per_class=100, epochs=12),
                    "full": dict(n_per_class=7, n_test_per_class=1, epochs=12),
                    "tiny": dict(n_per_class=1, n_test_per_class=1, epochs=3)},
    "lemma-linear": {"reference": dict(steps=30000), "full": dict(steps=30000),
                     "tiny": dict(steps=200)},
}
LEMMA_RATIO_MAX = 1.05
# Recorded seeds: each block's per-epoch loss descent must match the
# baseline's within DESCENT_RTOL (relative L2 error of the descent vector).
DESCENT_RTOL = REFERENCE["descent_rtol"]
CHECK_BATCH = 16  # images of the fixed batch the own-loss check uses

# the library's functions as imported, before any wrapper is installed
FEATURES, BUILD_BLOCKS, BLOCK_BACKWARD = trainer.features, trainer.build_blocks, net.block_backward


class Unit:
    """Counts operations and failures of one unit."""

    def __init__(self):
        self.ops = 0
        self.failures = []
        self.checks = {}
        self.deferred = []

    def later(self, fn, *args):
        """Run a check after the workload and after tracing has ended."""
        self.deferred.append((fn, args))

    def run_deferred(self):
        for fn, args in self.deferred:
            fn(self, *args)

    def op(self, name, fn, *args, **kwargs):
        """Run one library operation; a typed error becomes a failure record."""
        self.ops += 1
        try:
            return fn(*args, **kwargs)
        except TYPED_ERRORS as exc:
            self.failures.append({"op": name, "error": type(exc).__name__, "message": str(exc)})
            return None

    def skip(self, name, reason):
        """Count an operation that could not run because an earlier one failed."""
        self.ops += 1
        self.failures.append({"op": name, "error": "Skipped", "message": reason})

    def check(self, name, ok, detail):
        self.ops += 1
        self.checks[name] = bool(ok)
        if not ok:
            self.failures.append({"op": name, "error": "CheckFailed", "message": detail})


class Phases:
    """Wall time of the trainer entry points, taken at the names that
    ``trainer`` and the workloads look up.  Also keeps the arguments and
    results of every train_greedy call, so the workloads can check them."""

    NAMES = ("train_greedy", "features", "train_probe")

    def __init__(self):
        self.seconds = {n: 0.0 for n in self.NAMES}
        self.trained = []  # (config, images, blocks, records) per train_greedy call
        for name in self.NAMES:
            setattr(trainer, name, self._timed(name, getattr(trainer, name)))

    def _timed(self, name, fn):
        def timed(*args, **kwargs):
            t = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.seconds[name] += perf_counter() - t
            if name == "train_greedy":
                self.trained.append((*args, *out))
            return out
        return timed

    @property
    def eval_s(self):
        return self.seconds["features"] + self.seconds["train_probe"]


def descents(records):
    """Per block: each later epoch's mean total loss minus the first epoch's."""
    out = []
    for bi in sorted({r["block"] for r in records}):
        tot = [r["total"] for r in records if r["block"] == bi]
        out.append([t - tot[0] for t in tot[1:]])
    return out


def own_loss_drops(unit, name, config, images, blocks):
    """Check that holds for any seed: each block's own loss on a fixed
    batch (the first CHECK_BATCH images through the trained earlier
    blocks) is lower with its trained parameters than with its initial
    ones, which train_greedy draws from config.seed."""
    initial = BUILD_BLOCKS(config, images.shape[1], np.random.default_rng(config.seed))
    lam = config.lam if config.use_orth else 0.0
    x = images[:CHECK_BATCH]
    for bi, (trained, start) in enumerate(zip(blocks, initial)):
        if bi:
            c, h = config.channels[bi - 1], images.shape[2] >> bi
            x = FEATURES(blocks[bi - 1:bi], x).reshape(len(x), c, h, h)
        try:
            before, after = (BLOCK_BACKWARD(f, phi, x, lam, use_sphere=config.use_sphere,
                                            use_oja=config.use_oja)[1].total
                             for f, phi in (start, trained))
        except TYPED_ERRORS as exc:
            unit.check(f"own_loss_drops{name}.b{bi}", False, f"{type(exc).__name__}: {exc}")
            return
        unit.check(f"own_loss_drops{name}.b{bi}", after < before,
                   f"block {bi}: own loss on a fixed batch went from {before:.6g} "
                   f"to {after:.6g} in training")


def check_training(unit, name, trained, recorded):
    """Checks on one train_greedy call: finite losses and a lower own loss
    for any seed, the loss descents for a seed recorded in reference.json."""
    config, images, blocks, records = trained
    unit.check(f"losses_finite{name}", losses_finite(records), "non-finite block loss")
    unit.later(own_loss_drops, name, config, images, blocks)
    if recorded is not None:
        for bi, (d, ref) in enumerate(zip(descents(records), recorded)):
            err = float(np.linalg.norm(np.subtract(d, ref)) / np.linalg.norm(ref))
            unit.check(f"loss_descent{name}.b{bi}", err <= DESCENT_RTOL,
                       f"block {bi}: per-epoch loss descent differs from the baseline by "
                       f"{err:.3g} (relative), more than {DESCENT_RTOL}")


def recorded(workload, seed, scale_name):
    """Baseline loss descents of a recorded seed at full scale, else None."""
    if scale_name != "full":
        return None
    return REFERENCE[workload]["descent"].get(str(seed))


def greedy_steps(config, n):
    """Optimizer steps train_greedy takes on n images (short batch dropped)."""
    return len(config.channels) * config.epochs_per_block * max(n // config.batch_size, 1)


def image_split(seed, n_per_class, n_test_per_class, dtype):
    train_seed, test_seed = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    tr = data.make_synthetic_images(n_per_class, seed=train_seed, noise=2.2, split="train")
    te = data.make_synthetic_images(n_test_per_class, seed=test_seed, noise=2.2, split="test")
    mean, std = data.channel_stats(tr)
    return (data.to_float(tr, mean, std, dtype), tr.labels,
            data.to_float(te, mean, std, dtype), te.labels)


def checksum(blocks):
    return trainer.param_checksum({f"b{i}.{k}": v for i, (f, phi) in enumerate(blocks)
                                   for k, v in net.block_params(f, phi).items()})


def losses_finite(records):
    return all(math.isfinite(r[k]) for r in records for k in ("sphere", "orth", "total"))


def desk_greedy(unit, seed, scale_name, variant):
    scale = SCALE["desk-greedy"][scale_name]
    xtr, ytr, xte, yte = image_split(seed, scale["n_per_class"], scale["n_test_per_class"],
                                     np.float32)
    config = trainer.TrainConfig(channels=(48, 96, 192), batch_size=128, d_proj=256,
                                 phi_depth=1, dtype="float32", epochs=scale["epochs"], seed=seed)
    phases = Phases()
    train_start = perf_counter()
    trained = unit.op("train_greedy", trainer.train_greedy, config, xtr)
    result = {"train_start": train_start, "train_s": phases.seconds["train_greedy"],
              "steps": greedy_steps(config, len(xtr))}
    if trained is None:
        for name in ("features", "features", "train_probe"):
            unit.skip(name, "train_greedy failed")
        return result | {"eval_s": phases.eval_s}
    blocks, records = trained
    ftr = unit.op("features", trainer.features, blocks, xtr)
    fte = unit.op("features", trainer.features, blocks, xte)
    accs = None
    if ftr is None or fte is None:
        unit.skip("train_probe", "features failed")
    else:
        accs = unit.op("train_probe", trainer.train_probe, ftr, ytr, fte, yte, seed=seed)
    result["eval_s"] = phases.eval_s
    if accs is not None:
        result["test_acc"] = accs[1]  # information: near chance at this size
    result["descent"] = descents(records)
    check_training(unit, "", phases.trained[0], recorded("desk-greedy", seed, scale_name))
    return result


def ablate_wide(unit, seed, scale_name, variant):
    scale = SCALE["ablate-wide"][scale_name]
    xtr, ytr, xte, yte = image_split(seed, scale["n_per_class"], scale["n_test_per_class"],
                                     np.float64)
    base = trainer.TrainConfig(channels=(16, 32, 64), batch_size=64, dtype="float64",
                               epochs=scale["epochs"], seed=seed)
    grid = tuple(row for row in trainer.ABLATION_GRID if not row["use_phi"])
    phases = Phases()
    train_start = perf_counter()
    rows = unit.op("run_ablation", trainer.run_ablation, base, xtr, ytr, xte, yte, grid=grid)
    result = {"train_start": train_start, "train_s": phases.seconds["train_greedy"],
              "eval_s": phases.eval_s, "steps": len(grid) * greedy_steps(base, len(xtr))}
    if rows is None:
        return result
    result["test_acc"] = {r["combo"]: r["test_acc"] for r in rows}  # information
    ref = recorded("ablate-wide", seed, scale_name)
    result["descent"] = {}
    for r, trained in zip(rows, phases.trained):
        result["descent"][r["combo"]] = descents(trained[3])
        check_training(unit, f".{r['combo']}", trained, None if ref is None else ref[r["combo"]])
    sums = [checksum(blocks) for _, _, blocks, _ in phases.trained]
    baseline = REFERENCE["ablate-wide"]["param_checksums"].get(str(seed))
    result["param_checksums"] = sums
    # information only: reordered arithmetic within DESCENT_RTOL is allowed
    result["param_checksum_identical"] = (None if baseline is None or scale_name != "full"
                                          else sums == baseline)
    return result


def lemma_linear(unit, seed, scale_name, variant):
    scale = SCALE["lemma-linear"][scale_name]
    m = variant
    x = data.synth_gaussian(data.SyntheticSpec(b=64, n=32, spectrum=data.harmonic_spectrum(32),
                                               seed=seed))
    train_start = perf_counter()
    trained = unit.op("train_linear_block", trainer.train_linear_block, x, m,
                      steps=scale["steps"], seed=seed)
    train_s = perf_counter() - train_start
    result = {"train_start": train_start, "train_s": train_s, "steps": scale["steps"], "M": m}
    t = perf_counter()
    best = unit.op("principal_projection", oracle.principal_projection, x, m)
    if trained is None:
        unit.skip("sphere_loss", "train_linear_block failed")
        return result | {"eval_s": perf_counter() - t}
    w, history = trained
    achieved = unit.op("sphere_loss", losses.sphere_loss, x @ w, x, normalize=False)
    result["eval_s"] = perf_counter() - t
    unit.check("history_finite", all(math.isfinite(v) for v in history), "non-finite loss")
    if best is not None and achieved is not None:
        ratio = achieved / best.min_loss
        result["ratio"] = ratio
        if scale_name != "tiny":  # 200 steps do not converge
            unit.check(f"oracle_ratio.M{m}", ratio <= LEMMA_RATIO_MAX,
                       f"M={m}: achieved/oracle loss ratio {ratio:.4f} > {LEMMA_RATIO_MAX}")
    return result


WORKLOADS = {"desk-greedy": desk_greedy, "ablate-wide": ablate_wide, "lemma-linear": lemma_linear}


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when unknown."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads()}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--variant", type=int, default=None, help="lemma-linear: output width M")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny", "reference"), default="full",
                   help="full: the benchmark; tiny: self-test; reference: the traffic "
                        "a workload stands for, for profiling")
    p.add_argument("--spans", help="trace: write the spans to this .npz file")
    args = p.parse_args()
    if (args.variant is None) != (args.workload != "lemma-linear"):
        p.error("--variant is required for lemma-linear and only for it")

    tracer = None
    if args.trace:
        tracer = Tracer(f"{args.workload}:{args.seed}:{args.variant}")
        tracer.install()
    unit = Unit()
    result = WORKLOADS[args.workload](unit, args.seed, args.scale, args.variant)
    if tracer is not None:
        tracer.uninstall()
        arrays = tracer.arrays()
        result["layers"] = layer_metrics(tracer.names, arrays)
        if args.workload != "lemma-linear":
            unit.check("traced_steps", result["layers"]["trainer.greedy_steps"] == result["steps"],
                       f"traced {result['layers']['trainer.greedy_steps']} greedy optimizer "
                       f"steps, expected {result['steps']}")
        if args.spans:
            tracer.save(args.spans)
    check_start = perf_counter()
    unit.run_deferred()
    result["check_s"] = perf_counter() - check_start
    result.update(ops=unit.ops, failures=unit.failures, checks=unit.checks,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  sphere_file=sphere.__file__, machine=machine())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
