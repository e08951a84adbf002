"""Acceptance suite: the headline quantitative properties, one test per
criterion, each printing a single PASS/FAIL line.

Criterion 6 retrains blocks repeatedly and takes about 130 s on a 2-core
machine with OpenBLAS; everything else finishes in about 30 s total.  When
SPHERE_DATA_DIR points at a real CIFAR-10 binary layout, criteria 6 and 8
use it; otherwise they run on the synthetic generators (same formats,
same code paths).
"""

import json
import os
import time

import numpy as np
import pytest

from sphere import network as net
from sphere import data as datamod
from sphere.cli import main as cli_main
from sphere.data import (SyntheticSpec, channel_stats, harmonic_spectrum,
                         load_cifar10, make_synthetic_images,
                         serialize_cifar10, subset, synth_gaussian, to_float)
from sphere.linalg import frob_norm_sq, svd
from sphere.losses import orth_grad_linear, orth_loss, sphere_grad_linear, sphere_loss
from sphere.oracle import principal_projection
from sphere.plasticity import oja_step
from sphere.trainer import (AdamW, TrainConfig, build_blocks, evaluate_config,
                            features, param_checksum, run_linearity_study,
                            train_greedy, train_linear_block, train_probe)


def report(criterion, ok, detail):
    line = f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print("\n" + line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_1_lemma_convergence():
    """Single linear block reaches within 5% of the closed-form optimum."""
    details = []
    ok = True
    for m in (4, 8, 16):
        spec = SyntheticSpec(b=64, n=32, spectrum=harmonic_spectrum(32), seed=1)
        x = synth_gaussian(spec)
        oracle = principal_projection(x, m)
        t0 = time.monotonic()
        w, _ = train_linear_block(x, m, seed=1)
        elapsed = time.monotonic() - t0
        achieved = sphere_loss(x @ w, x, normalize=False)
        ratio = achieved / oracle.min_loss
        details.append(f"M={m}: ratio {ratio:.4f} in {elapsed:.0f}s")
        ok = ok and ratio <= 1.05 and elapsed <= 60
    report(1, ok, "; ".join(details))


def test_criterion_2_gram_approximation():
    """Y* reproduces the best rank-M Gram to relative 1e-8, 20 seeds."""
    worst = 0.0
    for seed in range(20):
        spec = SyntheticSpec(b=48, n=24, spectrum=harmonic_spectrum(24), seed=seed)
        x = synth_gaussian(spec)
        for m in (4, 8):
            res = principal_projection(x, m)
            err = np.linalg.norm(res.y_star @ res.y_star.T - res.gram_rank_m)
            rel = err / np.linalg.norm(x @ x.T)
            worst = max(worst, rel)
    report(2, worst <= 1e-8, f"worst relative Gram error {worst:.2e} over 20 seeds")


def _fd(fun, arr, i, h):
    orig = arr[i]
    arr[i] = orig + h
    fp = fun()
    arr[i] = orig - h
    fm = fun()
    arr[i] = orig
    return (fp - fm) / (2 * h)


def test_criterion_3_gradient_fidelity():
    """Analytic gradients vs central finite differences at pinned tolerances."""
    rng = np.random.default_rng(3)

    # sphere gradient, rel err <= 1e-5
    x = rng.standard_normal((10, 6))
    w = rng.standard_normal((6, 3)) * 0.5
    g = sphere_grad_linear(x, w)
    worst_s = 0.0
    for fi in range(w.size):
        i = np.unravel_index(fi, w.shape)
        fd = _fd(lambda: sphere_loss(x @ w, x, normalize=False), w, i, 1e-6)
        worst_s = max(worst_s, abs(fd - g[i]) / max(abs(fd), abs(g[i]), 1e-10))
    ok_s = worst_s <= 1e-5

    # orth gradient: direction cosine >= 1 - 1e-8 and exactly 1/4 magnitude
    go = orth_grad_linear(x, w)
    fd_full = np.zeros_like(w)
    for fi in range(w.size):
        i = np.unravel_index(fi, w.shape)
        fd_full[i] = _fd(lambda: orth_loss(x @ w, normalize=False), w, i, 1e-6)
    cos = float(np.sum(go * fd_full) / (np.linalg.norm(go) * np.linalg.norm(fd_full)))
    ratio = np.linalg.norm(fd_full) / np.linalg.norm(go)
    ok_o = cos >= 1 - 1e-8 and abs(ratio - 4.0) < 1e-4

    # block_backward on every parameter of a small block, h=1e-4, float64
    f = net.init_main_block(3, 8, rng, activation="leaky_relu", use_skip=True)
    phi = net.init_aux_block(8, d_proj=12, depth=1, rng=rng, activation="leaky_relu")
    xin = rng.standard_normal((5, 3, 8, 8))
    grads, _ = net.block_backward(f, phi, xin, lam=0.8)
    worst_b = 0.0
    for name, arr in net.block_params(f, phi).items():
        probe = np.random.default_rng(7).choice(arr.size, size=min(8, arr.size), replace=False)
        for fi in probe:
            i = np.unravel_index(fi, arr.shape)
            def total():
                _, b = net.block_backward(f, phi, xin, lam=0.8)
                return b.total
            fd = _fd(total, arr, i, 1e-4)
            gg = grads[name][i]
            worst_b = max(worst_b, abs(fd - gg) / max(abs(fd), abs(gg), 1e-10))
    ok_b = worst_b <= 1e-4

    report(3, ok_s and ok_o and ok_b,
           f"sphere rel {worst_s:.1e} (<=1e-5); orth cos {1-cos:.1e} from 1, "
           f"magnitude ratio {ratio:.6f} (=4); block rel {worst_b:.1e} (<=1e-4)")


def test_criterion_4_oja_fixed_point():
    """M=1 Oja iteration aligns with the top right singular vector."""
    spec = SyntheticSpec(b=64, n=16, spectrum=np.array([3.0, 1.0, 0.3] + [0.0] * 13), seed=4)
    x = synth_gaussian(spec)
    v1 = svd(x).v[:, 0]
    rng = np.random.default_rng(4)
    w = rng.standard_normal((16, 1)) * 0.1
    cos = 0.0
    steps = 0
    for steps in range(1, 2001):
        w = oja_step(w, x, eta=1e-3)
        cos = abs(float(v1 @ w[:, 0])) / np.linalg.norm(w)
        if cos >= 0.99:
            break
    report(4, cos >= 0.99, f"|cos| = {cos:.4f} after {steps} steps (limit 2000)")


def test_criterion_5_linearity_study():
    """A linear branch and a 3-layer tanh branch, an AuxBlock on 1x1 images,
    converge to similar representations."""
    curve, align = run_linearity_study(seed=0, epochs=25)
    cka20 = curve[min(20, len(curve) - 1)]
    diag = float(np.mean(np.diag(align)[:20]))
    off = float((align.sum() - np.trace(align)) / (align.size - align.shape[0]))
    ok = cka20 >= 0.85 and diag > off
    report(5, ok, f"CKA at epoch 20 = {cka20:.3f} (>=0.85); "
                  f"first-20 diag mean {diag:.3f} vs off-diag mean {off:.3f}")


# ---------------------------------------------------------------------------
# criterion 6: classification substitute properties


def _real_cifar():
    path = os.environ.get("SPHERE_DATA_DIR")
    if path and os.path.isdir(path) and \
            set(datamod.CIFAR_TRAIN_FILES) <= set(os.listdir(path)):
        return path
    return None


def _gap_data():
    path = _real_cifar()
    if path:
        tr = subset(load_cifar10(path, "train"), 500, seed=100)
        te = subset(load_cifar10(path, "test"), 100, seed=100)
    else:
        tr = make_synthetic_images(500, seed=100, noise=2.2, split="train")
        te = make_synthetic_images(100, seed=101, noise=2.2, split="test")
    mean, std = channel_stats(tr)
    return (to_float(tr, mean, std, np.float32), tr.labels,
            to_float(te, mean, std, np.float32), te.labels)


def _ordering_data():
    path = _real_cifar()
    if path:
        tr = subset(load_cifar10(path, "train"), 200, seed=100)
        te = subset(load_cifar10(path, "test"), 300, seed=100)
    else:
        tr = make_synthetic_images(200, seed=100, noise=2.2, split="train")
        te = make_synthetic_images(300, seed=101, noise=2.2, split="test")
    mean, std = channel_stats(tr)
    return (to_float(tr, mean, std, np.float32), tr.labels,
            to_float(te, mean, std, np.float32), te.labels)


def test_criterion_6_classification():
    """Trained-vs-random probe gap >= 8 points at desk scale, and the
    qualitative loss-ablation ordering across 3 seeds (1-point ties)."""
    t0 = time.monotonic()

    # part 1: probe gap at the 5000-sample / [48,96,192] scale
    xtr, ytr, xte, yte = _gap_data()
    cfg = TrainConfig(channels=(48, 96, 192), epochs=18, batch_size=128,
                      dtype="float32", seed=0)
    res = evaluate_config(cfg, xtr, ytr, xte, yte)
    rng = np.random.default_rng(cfg.seed)
    random_blocks = build_blocks(cfg, xtr.shape[1], rng)
    fr_tr = features(random_blocks, xtr)
    fr_te = features(random_blocks, xte)
    _, rand_acc = train_probe(fr_tr, ytr, fr_te, yte, seed=cfg.seed)
    gap = (res["test_acc"] - rand_acc) * 100
    ok_gap = gap >= 8.0

    # part 2: ablation ordering at reduced width (fits the CPU budget)
    xtr2, ytr2, xte2, yte2 = _ordering_data()
    combos = (
        ("sphere+orth+phi", dict(use_sphere=True, use_orth=True, use_phi=True)),
        ("sphere+phi", dict(use_sphere=True, use_orth=False, use_phi=True)),
        ("sphere", dict(use_sphere=True, use_orth=False, use_phi=False)),
    )
    rows = {}
    for seed in (0, 1, 2):
        accs = []
        for _, flags in combos:
            c = TrainConfig(channels=(16, 32, 64), epochs=12, batch_size=64,
                            dtype="float32", d_proj=128, seed=seed,
                            use_oja=False, **flags)
            accs.append(evaluate_config(c, xtr2, ytr2, xte2, yte2)["test_acc"] * 100)
        rows[seed] = accs
    tol = 1.0
    ok_order = all(a >= b - tol and b >= c - tol for a, b, c in rows.values())
    elapsed = time.monotonic() - t0

    order_txt = "; ".join(f"seed{s}: " + "/".join(f"{a:.1f}" for a in v)
                          for s, v in rows.items())
    report(6, ok_gap and ok_order and elapsed <= 1800,
           f"gap {gap:.1f} pts (>=8, trained {res['test_acc']:.3f} vs random "
           f"{rand_acc:.3f}); ordering s+o+phi/s+phi/s {order_txt}; "
           f"total {elapsed:.0f}s (<=1800)")


def test_criterion_7_locality_and_determinism(tmp_path):
    """Per-block checksum locality; byte-identical summaries for identical
    manifests on the float64 path."""
    ds = make_synthetic_images(20, seed=7, noise=0.3)
    mean, std = channel_stats(ds)
    x = to_float(ds, mean, std)
    cfg = TrainConfig(channels=(8, 16), epochs=4, batch_size=32, d_proj=16,
                      dtype="float64", seed=0)
    blocks, _ = train_greedy(cfg, x)
    sums = [param_checksum(net.block_params(f, phi)) for f, phi in blocks]
    # retrain block 1 further; block 0 must be untouched
    f1, phi1 = blocks[1]
    f0, _ = blocks[0]
    feats0, _ = net._main_forward(f0, x[:32])
    opt = AdamW(net.block_params(f1, phi1), lr=1e-3)
    for _ in range(5):
        grads, _ = net.block_backward(f1, phi1, feats0, lam=0.8)
        opt.step(grads)
    ok_local = (param_checksum(net.block_params(*blocks[0])) == sums[0]
                and param_checksum(net.block_params(*blocks[1])) != sums[1])

    # identical manifests -> byte-identical summary.json
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        code = cli_main(["--out", out, "--seed", "5", "--set", "train.channels=8,16",
                         "--set", "train.epochs=4", "--set", "train.batch_size=32",
                         "--set", "train.d_proj=16", "--set", "train.dtype=float64",
                         "--set", "data.n_per_class=20", "--set", "data.n_test_per_class=10",
                         "train"])
        assert code == 0
        outs.append(out)
    ma = open(os.path.join(outs[0], "manifest.txt"), "rb").read()
    mb = open(os.path.join(outs[1], "manifest.txt"), "rb").read()
    sa = open(os.path.join(outs[0], "summary.json"), "rb").read()
    sb = open(os.path.join(outs[1], "summary.json"), "rb").read()
    ok_det = ma == mb and sa == sb
    report(7, ok_local and ok_det,
           f"locality {'ok' if ok_local else 'VIOLATED'}; "
           f"summaries byte-identical: {sa == sb}")


def test_criterion_8_ingestion_exactness(tmp_path):
    """Loader reproduces source bytes; 1000-per-class histogram on a
    full-size test batch."""
    path = _real_cifar()
    if path and os.path.exists(os.path.join(path, "test_batch.bin")):
        batch_path = os.path.join(path, "test_batch.bin")
        raw = open(batch_path, "rb").read()
    else:
        # constructed full-size batch in the exact binary format
        rng = np.random.default_rng(8)
        records = []
        for c in range(10):
            for _ in range(1000):
                records.append(bytes([c]) + rng.integers(0, 256, 3072, dtype=np.uint8).tobytes())
        order = rng.permutation(len(records))
        raw = b"".join(records[i] for i in order)
        batch_path = str(tmp_path / "test_batch.bin")
        with open(batch_path, "wb") as fh:
            fh.write(raw)
    ds = load_cifar10(batch_path, split="test")
    round_trip = serialize_cifar10(ds) == raw
    hist = np.bincount(ds.labels, minlength=10)
    ok = round_trip and len(ds) == 10000 and np.array_equal(hist, [1000] * 10)
    report(8, ok, f"round-trip bytes: {round_trip}; n={len(ds)}; "
                  f"histogram {'uniform 1000/class' if np.array_equal(hist, [1000]*10) else hist.tolist()}")
