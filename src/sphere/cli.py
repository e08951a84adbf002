"""Command-line entry point: every experiment as a subcommand.

Config files are flat ``key = value`` text with ``[section]`` headers; a
``#`` starts a comment at a line's start or after whitespace, as in
configparser's inline comments, so ``dir = run#1`` keeps its ``#``.
Command-line ``--set section.key=value`` overrides win over file values.
The ``train.*`` keys are the fields of ``trainer.TrainConfig``, parsed by
the type of each field's default; SETTINGS declares the ``data.*`` and
``probe.*`` keys.  ``data.dataset=cifar10`` reads the binary layout from
the directory that ``data.dir``, else SPHERE_DATA_DIR, names; synthetic
and texture are generated and never read ``data.dir``.
Each ``cmd_*`` prints its line and returns (exit code, summary payload,
metrics records); ``main`` then writes into ``--out``, manifest last:

  metrics.jsonl  the records, one per line (empty but for train, verify-lemma)
  summary.json   the payload with ``schema`` and ``command``; no timestamps,
                 so runs with identical manifests are byte-identical (64-bit,
                 at one BLAS thread count)
  manifest.txt   resolved config, code version, seed (identity of the run)

A run that ends in a SphereError (bad input, a diverged run, an artifact it
cannot write) or a MemoryError makes no directory and writes no artifact:
it prints a one-line JSON error and exits 2.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import fields

import numpy as np

from . import data as datamod
from . import network as net
from .linalg import SphereError, svd
from .losses import sphere_grad_linear, sphere_loss
from .oracle import principal_projection
from .plasticity import oja_step
from .trainer import (PROBE_EPOCHS, TrainConfig, blocks_checksum, features, knn_eval,
                      probe_blocks, run_ablation, run_linearity_study, run_transfer, train_greedy,
                      train_linear_block)


class ConfigError(SphereError, ValueError):
    """Unparseable, unknown or out-of-range configuration input."""


def _int_tuple(s):
    return tuple(int(v) for v in s.replace("(", "").replace(")", "").split(",") if v.strip())


def _bool(s):
    if str(s).lower() in ("1", "true", "yes"):
        return True
    if str(s).lower() in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


_PARSERS = {tuple: _int_tuple, bool: _bool, int: int, float: float, str: str}

# every data and probe key but data.dir (unset until given, any path): its
# default, and its lowest accepted value or its allowed choices
SETTINGS = {
    "data.dataset": ("synthetic", ("synthetic", "texture", "cifar10")),
    "data.n_per_class": (500, 1),
    "data.n_test_per_class": (100, 1),
    "data.noise": (2.2, 0),
    "data.seed": (100, 0),
    "probe.epochs": (PROBE_EPOCHS, 1),
}

# every accepted key with its parser; unknown keys are rejected
CONFIG_SCHEMA = {**{f"train.{f.name}": _PARSERS[type(f.default)] for f in fields(TrainConfig)},
                 "data.dir": str,
                 **{key: _PARSERS[type(default)] for key, (default, _) in SETTINGS.items()}}


def _parse_value(cfg: dict, key: str, val: str, key_at: str, val_at: str) -> None:
    """Store CONFIG_SCHEMA[key](val) in cfg if it is within the key's
    SETTINGS bound; `key_at` and `val_at` prefix the errors with the
    position of the key and of the value."""
    if key not in CONFIG_SCHEMA:
        raise ConfigError(f"{key_at}: unknown key {key!r}")
    try:
        value = CONFIG_SCHEMA[key](val.strip())
    except ValueError as exc:
        raise ConfigError(f"{val_at}: bad value for {key}: {exc}") from exc
    bound = SETTINGS[key][1] if key in SETTINGS else None
    if isinstance(bound, tuple) and value not in bound:
        raise ConfigError(f"{val_at}: {key} must be one of {', '.join(bound)}, got {value!r}")
    if isinstance(bound, (int, float)) and not (math.isfinite(value) and value >= bound):
        raise ConfigError(f"{val_at}: {key} must be finite and >= {bound}, got {value}")
    cfg[key] = value


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Flat key=value parser with [section] headers.

    Raises ConfigError with line/column on malformed lines and on keys
    outside CONFIG_SCHEMA.
    """
    out = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = re.split(r"(?<!\S)#", raw, maxsplit=1)[0].rstrip()
        if not line.strip():
            continue
        if line.strip().startswith("[") and line.strip().endswith("]"):
            section = line.strip()[1:-1].strip()
            continue
        if "=" not in line:
            col = len(raw) - len(raw.lstrip()) + 1
            raise ConfigError(f"{source}:{lineno}:{col}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        _parse_value(out, f"{section}.{key}" if section else key, val,
                     f"{source}:{lineno}:{raw.index(key) + 1}",
                     f"{source}:{lineno}:{len(raw) - len(raw.partition('=')[2].lstrip()) + 1}")
    return out


def load_config(path, overrides):
    cfg = {key: default for key, (default, _) in SETTINGS.items()}
    if path:
        try:
            with open(path) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"--config {path}: cannot read the file: {exc}") from exc
        cfg.update(parse_config_text(text, source=path))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected section.key=value")
        key, _, val = item.partition("=")
        _parse_value(cfg, key.strip(), val, "override", f"override {item!r}")
    return cfg


def train_config_from(cfg: dict, seed=None) -> TrainConfig:
    kw = {k.split(".", 1)[1]: v for k, v in cfg.items() if k.startswith("train.")}
    if seed is not None:
        kw["seed"] = seed
    return TrainConfig(**kw)


# ---------------------------------------------------------------------------
# run artifacts


def _git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=os.path.dirname(os.path.abspath(__file__)),
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):  # no git, or one that hangs
        pass
    return "unknown"


def _nearest_existing(path: str) -> str:
    """The absolute `path` if it exists, else its nearest existing ancestor."""
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    return path


def _write_run(out: str, artifacts: dict) -> None:
    """Write each text of `artifacts` to a temp file in the nearest existing
    directory at or above `out`, then make `out`, drop the last one's old copy
    and rename the temps into it in order; on failure, unlink those left."""
    tmps = {}  # artifact name -> its temp file, until renamed
    try:
        for name, text in artifacts.items():
            fd, tmps[name] = tempfile.mkstemp(dir=_nearest_existing(out), prefix=".tmp-")
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
        os.makedirs(out, exist_ok=True)
        last = os.path.join(out, [*artifacts][-1])  # no old manifest vouches for new files
        if os.path.lexists(last):
            os.unlink(last)
        for name in artifacts:
            os.replace(tmps[name], os.path.join(out, name))
            del tmps[name]
    except BaseException:
        for tmp in tmps.values():
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# datasets


def load_datasets(cfg: dict):
    """(train Dataset, test Dataset): CIFAR-10 from the directory that
    data.dir, else SPHERE_DATA_DIR, names, or a synthetic generator's."""
    npc = cfg["data.n_per_class"]
    ntest = cfg["data.n_test_per_class"]
    seed = cfg["data.seed"]
    if cfg["data.dataset"] == "cifar10":
        path = cfg.get("data.dir") or os.environ.get("SPHERE_DATA_DIR")
        if not (path and os.path.isdir(path)):
            raise ConfigError(f"data.dataset=cifar10: data.dir, else SPHERE_DATA_DIR, must name "
                              f"the directory of the CIFAR-10 binary layout, got {path!r}")
        return (datamod.subset(datamod.load_cifar10(path, "train"), npc, seed),
                datamod.subset(datamod.load_cifar10(path, "test"), ntest, seed))
    make = (datamod.make_texture_images if cfg["data.dataset"] == "texture"
            else datamod.make_synthetic_images)
    return (make(npc, seed=seed, noise=cfg["data.noise"], split="train"),
            make(ntest, seed=seed + 1, noise=cfg["data.noise"], split="test"))


def check_data_fits(cfg: dict, dtype, source: bool = False) -> None:
    """Refuse, before any image is made, a run whose image arrays alone
    outgrow physical memory: the uint8 and to_float arrays of both splits
    and channel_stats' float64 copy of the train split, and with `source`
    the same three of transfer's source split, as large as the train one."""
    n_train, n_test = (cfg[k] * datamod.N_CLASSES for k in ("data.n_per_class",
                                                             "data.n_test_per_class"))
    n_fit = n_train * (1 + source)  # the images channel_stats reads
    need = 3 * datamod.SIZE ** 2 * ((n_fit + n_test) * (1 + np.dtype(dtype).itemsize)
                                    + 8 * n_fit)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(f"data.n_per_class and data.n_test_per_class: the image arrays need "
                          f"{need / 2 ** 30:.1f} GiB, more than the {have / 2 ** 30:.1f} GiB "
                          f"of physical memory")


def config_and_data(cfg: dict, seed: int, source: bool = False):
    """(TrainConfig, xtr, ytr, xte, yte): the run's training config and its
    datasets standardized by the train split's channel stats, in the
    config's dtype.  `source` counts transfer's source split in the memory
    check."""
    config = train_config_from(cfg, seed=seed)
    check_data_fits(cfg, config.np_dtype, source)
    tr, te = load_datasets(cfg)
    mean, std = datamod.channel_stats(tr)
    return (config, datamod.to_float(tr, mean, std, config.np_dtype), tr.labels,
            datamod.to_float(te, mean, std, config.np_dtype), te.labels)


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify_lemma(args, cfg):
    if not 1 <= args.M < args.N:
        raise ConfigError(f"--M must be in [1, --N), got M={args.M}, N={args.N}")
    if args.B <= args.M:
        raise ConfigError(f"--B must be > --M, got B={args.B}, M={args.M}")
    if args.steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {args.steps}")
    if args.B * max(args.B, args.N) * 8 > np.iinfo(np.intp).max:  # X and its B x B Grams
        raise ConfigError(f"--B and --N: a float64 array of --B x max(--B, --N) entries is "
                          f"larger than numpy can make, got B={args.B}, N={args.N}")
    spec = datamod.SyntheticSpec(b=args.B, n=args.N,
                                 spectrum=datamod.harmonic_spectrum(args.N), seed=args.seed)
    x = datamod.synth_gaussian(spec)
    oracle = principal_projection(x, args.M)
    w, history = train_linear_block(x, args.M, steps=args.steps, seed=args.seed)
    achieved = sphere_loss(x @ w, x, normalize=False)
    ratio = achieved / oracle.min_loss if oracle.min_loss > 0 else float("inf")
    print(f"achieved {achieved:.6e}  oracle {oracle.min_loss:.6e}  ratio {ratio:.4f}")
    converged = bool(ratio <= 1.05)
    return (0 if converged else 1,
            {"B": args.B, "N": args.N, "M": args.M, "achieved_loss": achieved,
             "oracle_loss": oracle.min_loss, "ratio": ratio, "converged": converged},
            [{"step": i, "sphere": v} for i, v in enumerate(history) if i % 100 == 0])


def _fd_rel_err(fun, param, grad, h=1e-5, probes=6, seed=0):
    rng = np.random.default_rng(seed)
    worst = 0.0
    idx = rng.choice(param.size, size=min(probes, param.size), replace=False)
    for i in zip(*np.unravel_index(idx, param.shape)):  # param in place, whatever its layout
        orig = param[i]
        param[i] = orig + h
        fp = fun()
        param[i] = orig - h
        fm = fun()
        param[i] = orig
        fd = (fp - fm) / (2 * h)
        g = grad[i]
        denom = max(abs(fd), abs(g), 1e-12)
        worst = max(worst, abs(fd - g) / denom)
    return worst


def cmd_gradcheck(args, cfg):
    rng = np.random.default_rng(args.seed)
    rows = []

    x = rng.standard_normal((12, 6))
    w = rng.standard_normal((6, 3)) * 0.3
    g = sphere_grad_linear(x, w)
    err = _fd_rel_err(lambda: sphere_loss(x @ w, x, normalize=False), w, g, seed=args.seed)
    rows.append({"op": "sphere_grad_linear", "max_rel_err": err})

    f = net.init_main_block(3, 8, rng, activation="leaky_relu")
    phi = net.init_aux_block(8, d_proj=16, depth=1, rng=rng)
    xin = rng.standard_normal((6, 3, 8, 8))
    grads, _ = net.block_backward(f, phi, xin, lam=0.8)
    params = net.block_params(f, phi)
    for name in sorted(params):
        def loss():
            _, bundle = net.block_backward(f, phi, xin, lam=0.8)
            return bundle.total
        err = _fd_rel_err(loss, params[name], grads[name], h=1e-5, probes=4, seed=args.seed)
        rows.append({"op": f"block_backward/{name}", "max_rel_err": err})

    worst = max(r["max_rel_err"] for r in rows)
    for r in rows:
        print(f"{r['op']:<32s} {r['max_rel_err']:.3e}")
    passed = bool(worst <= 1e-4)
    return 0 if passed else 1, {"ops": rows, "worst": worst, "pass": passed}, []


def cmd_train(args, cfg):
    config, xtr, ytr, xte, yte = config_and_data(cfg, args.seed)
    t0 = time.time()
    stage = []
    blocks, records = train_greedy(config, xtr, last_input=stage)
    checksum = blocks_checksum(blocks)
    payload = {"param_checksum": checksum, "final_total": records[-1]["total"],
               "n_train": len(ytr)}
    if args.probe:
        tr_acc, te_acc = probe_blocks(config, blocks, stage[0], ytr, xte, yte,
                                      cfg["probe.epochs"])
        payload.update(train_acc=tr_acc, test_acc=te_acc)
        print(f"probe train {tr_acc:.3f}  test {te_acc:.3f}")
    print(f"trained {len(blocks)} blocks in {time.time() - t0:.1f}s  checksum {checksum[:12]}")
    return 0, payload, records


def cmd_knn(args, cfg):
    config, xtr, ytr, xte, yte = config_and_data(cfg, args.seed)
    if not 1 <= args.k <= len(ytr):
        raise ConfigError(f"--k must be in [1, {len(ytr)}] (the training images), got {args.k}")
    stage = []
    blocks, _ = train_greedy(config, xtr, last_input=stage)
    acc = knn_eval(features(blocks[-1:], stage[0]), ytr, features(blocks, xte), yte, k=args.k)
    print(f"knn@{args.k} {acc:.3f}")
    return 0, {"k": args.k, "test_acc": acc}, []


def cmd_ablate(args, cfg):
    config, xtr, ytr, xte, yte = config_and_data(cfg, args.seed)
    rows = run_ablation(config, xtr, ytr, xte, yte, probe_epochs=cfg["probe.epochs"])
    for r in rows:
        print(f"{r['combo']:<24s} {r['test_acc']:.3f}")
    return 0, {"rows": rows}, []


def cmd_transfer(args, cfg):
    config, xtr, ytr, xte, yte = config_and_data(cfg, args.seed, source=True)
    # source: texture statistics; target: the configured dataset
    src = datamod.make_texture_images(cfg["data.n_per_class"], seed=cfg["data.seed"] + 7)
    mean, std = datamod.channel_stats(src)
    xsrc = datamod.to_float(src, mean, std, config.np_dtype)
    res = run_transfer(xsrc, xtr, ytr, xte, yte, config, cfg["probe.epochs"])
    print(f"transfer {res['transfer_acc']:.3f}  direct {res['direct_acc']:.3f}  "
          f"gap {res['gap']:.3f}")
    return 0, res, []


def cmd_linearity(args, cfg):
    if args.epochs < 1:
        raise ConfigError(f"--epochs must be >= 1, got {args.epochs}")
    curve, align = run_linearity_study(seed=args.seed, epochs=args.epochs)
    diag = float(np.mean(np.diag(align)[:20]))
    off = float((align.sum() - np.trace(align)) / (align.size - align.shape[0]))
    print(f"final cka {curve[-1]:.4f}  diag20 {diag:.3f}  offdiag {off:.3f}")
    return 0, {"cka_curve": [float(c) for c in curve], "diag20_mean": diag,
               "offdiag_mean": off}, []


def cmd_oja_demo(args, cfg):
    spec = datamod.SyntheticSpec(b=64, n=16, spectrum=np.array([3.0, 1.0, 0.3] + [0.0] * 13),
                                 seed=args.seed)
    x = datamod.synth_gaussian(spec)
    v1 = svd(x).v[:, 0]
    rng = np.random.default_rng(args.seed)
    w = rng.standard_normal((16, 1)) * 0.1
    cos = 0.0
    for step in range(2000):
        w = oja_step(w, x, eta=1e-3)
        cos = abs(float(v1 @ w[:, 0]) / (np.linalg.norm(w) + 1e-12))
        if cos >= 0.99:
            break
    print(f"|cos(w, v1)| = {cos:.4f} after {step + 1} steps")
    return 0 if cos >= 0.99 else 1, {"steps": step + 1, "abs_cos": cos}, []


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a bad command line is a ConfigError, not usage text
        raise ConfigError(message)


def build_parser():
    p = _Parser(prog="sphere", description="structural-matching representation learning")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VAL", dest="overrides",
                   help="override a config value (repeatable)")
    p.add_argument("--out", default="runs/last", help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="run seed (default: train.seed, else 0)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify-lemma", help="single linear block vs closed-form optimum")
    sp.add_argument("--B", type=int, default=64)
    sp.add_argument("--N", type=int, default=32)
    sp.add_argument("--M", type=int, default=8)
    sp.add_argument("--steps", type=int, default=30000)
    sp.set_defaults(fn=cmd_verify_lemma)

    sp = sub.add_parser("gradcheck", help="finite-difference check of analytic gradients")
    sp.set_defaults(fn=cmd_gradcheck)

    sp = sub.add_parser("train", help="greedy block-wise unsupervised training")
    sp.add_argument("--probe", action="store_true", help="also fit a linear probe")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("knn", help="train blocks then KNN-evaluate features")
    sp.add_argument("--k", type=int, default=5)
    sp.set_defaults(fn=cmd_knn)

    sp = sub.add_parser("ablate", help="loss/architecture combination table")
    sp.set_defaults(fn=cmd_ablate)

    sp = sub.add_parser("transfer", help="train on one dataset, probe on another")
    sp.set_defaults(fn=cmd_transfer)

    sp = sub.add_parser("linearity", help="linear vs nonlinear branch comparison")
    sp.add_argument("--epochs", type=int, default=30)
    sp.set_defaults(fn=cmd_linearity)

    sp = sub.add_parser("oja-demo", help="Oja rule converging to the top component")
    sp.set_defaults(fn=cmd_oja_demo)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config, args.overrides)
        if args.seed is None:
            args.seed = cfg.get("train.seed", 0)
        if args.seed < 0:
            raise ConfigError(f"the run seed (--seed, else train.seed) must be >= 0, "
                              f"got {args.seed}")
        out = os.path.abspath(args.out)
        if not args.out or not os.path.isdir(_nearest_existing(out)):
            raise ConfigError(f"--out {args.out!r}: no directory can be made there")
        code, summary, records = args.fn(args, cfg)
        manifest = [f"command = {args.command}", f"seed = {args.seed}",
                    f"version = {_git_describe()}", *(f"{k} = {cfg[k]}" for k in sorted(cfg))]
        artifacts = {  # the manifest last: it marks a complete run
            "metrics.jsonl": "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records),
            "summary.json": json.dumps({"schema": 1, "command": args.command, **summary},
                                       indent=1, sort_keys=True) + "\n",
            "manifest.txt": "\n".join(manifest) + "\n"}
        try:
            _write_run(out, artifacts)
        except OSError as exc:
            raise ConfigError(f"--out {args.out!r}: cannot write the run there: {exc}") from exc
        return code
    except (SphereError, MemoryError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
