"""Greedy block-wise unsupervised training: AdamW, cosine learning-rate
annealing, the block training loop, a supervised linear probe on frozen
features, KNN evaluation, and the experiment drivers (lemma verification,
linear-vs-nonlinear study, ablation grid, transfer)."""

import hashlib
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import data as datamod
from . import network as net
from .linalg import NumericsError, SphereError, as_matrix
from .losses import input_gram, raw_sphere_grads
from .oracle import cka, svd_alignment


class OptimizerError(SphereError, RuntimeError):
    """Non-finite gradients reached the optimizer."""


class TrainingDivergedError(SphereError, RuntimeError):
    """Loss or parameters became non-finite during training."""


class FrozenBlocksMutatedError(SphereError, RuntimeError):
    """Probe training changed the parameters of the frozen blocks."""


# ---------------------------------------------------------------------------
# optimizer and schedule


class AdamW:
    """Decoupled-weight-decay Adam over a dict of named parameter arrays.

    Parameters are updated in place; moments are keyed by parameter name.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict, lr: float, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict, lr: float | None = None):
        lr = self.lr if lr is None else lr
        for k, g in grads.items():
            if not np.isfinite(g).all():
                raise OptimizerError(f"non-finite gradient for parameter {k!r}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for k, g in grads.items():
            p = self.params[k]
            m = self.m[k]
            v = self.v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            if self.weight_decay:
                p *= 1.0 - lr * self.weight_decay
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Cosine annealing from base_lr to 0 over total_steps (>= 1)."""
    frac = min(max(step / total_steps, 0.0), 1.0)
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * frac))


# ---------------------------------------------------------------------------
# configuration


@dataclass
class TrainConfig:
    """Full experiment description; defaults are the desk-scale setup
    (channel widths 1/8 of the full-scale architecture)."""

    channels: tuple = (48, 96, 192)
    activation: str = "leaky_relu"
    lam: float = 0.8
    lr: float = 1e-3
    weight_decay: float = 0.05
    batch_size: int = 128
    epochs: int = 12          # total, split equally across blocks
    seed: int = 0
    use_sphere: bool = True
    use_oja: bool = False
    use_orth: bool = True
    use_phi: bool = True
    phi_depth: int = 1
    d_proj: int = 256
    dtype: str = "float64"

    def __post_init__(self):
        if not (self.use_sphere or self.use_oja):
            raise NumericsError("at least one matching loss must be enabled")
        if self.batch_size < 2:
            raise NumericsError("batch_size must be >= 2")
        if self.dtype not in ("float32", "float64"):
            raise NumericsError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if self.activation not in net.ACTIVATIONS:
            raise NumericsError(f"activation must be one of {net.ACTIVATIONS}, "
                                f"got {self.activation!r}")
        if not self.channels:
            raise NumericsError("channels must list at least one block width")
        if min(self.channels) < 1:
            raise NumericsError(f"channels must all be >= 1, got {self.channels}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise NumericsError(f"lr must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise NumericsError(f"lambda (lam) must be finite and >= 0, got {self.lam}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise NumericsError(f"weight_decay must be finite and >= 0, "
                                f"got {self.weight_decay}")
        if self.epochs < 1 or self.epochs % len(self.channels):
            raise NumericsError(f"epochs must be n * len(channels) with n >= 1, got {self.epochs}")
        if self.d_proj < 1:
            raise NumericsError(f"d_proj must be >= 1, got {self.d_proj}")
        if self.phi_depth < 0:
            raise NumericsError(f"phi_depth must be >= 0, got {self.phi_depth}")
        # an upper bound on a block's largest parameter array (its conv kernel, its
        # head's first 1x1 conv or fc weight): refuse a size numpy cannot shape at
        # all, and leave one that only outgrows memory to end in MemoryError
        largest = max(c * max(9 * c_in, self.use_phi * max(c, self.d_proj))
                      for c_in, c in zip((3, *self.channels), self.channels))
        if largest * np.dtype(self.dtype).itemsize > np.iinfo(np.intp).max:
            raise NumericsError(f"channels and d_proj: a parameter array of up to {largest} "
                                f"{self.dtype} entries, more than numpy can make")

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32

    @property
    def epochs_per_block(self):
        return self.epochs // len(self.channels)


def param_checksum(params: dict) -> str:
    """Stable digest of a parameter dict, used for frozen-feature and
    locality assertions."""
    h = hashlib.sha256()
    for k in sorted(params):
        h.update(k.encode())
        h.update(np.ascontiguousarray(params[k], dtype=np.float64).tobytes())
    return h.hexdigest()


def blocks_checksum(blocks) -> str:
    """param_checksum over every block's parameters, keyed "b<i>.<name>"."""
    return param_checksum({f"b{i}.{k}": v for i, (f, phi) in enumerate(blocks)
                           for k, v in net.block_params(f, phi).items()})


# ---------------------------------------------------------------------------
# block-wise training


def build_blocks(config: TrainConfig, in_channels: int, rng):
    blocks = []
    c_in = in_channels
    for i, c_out in enumerate(config.channels):
        use_skip = i == len(config.channels) - 1
        f = net.init_main_block(c_in, c_out, rng, activation=config.activation,
                                use_skip=use_skip, dtype=config.np_dtype)
        phi = None
        if config.use_phi:
            phi = net.init_aux_block(c_out, d_proj=config.d_proj, depth=config.phi_depth,
                                     rng=rng, activation=config.activation,
                                     dtype=config.np_dtype)
        blocks.append((f, phi))
        c_in = c_out
    return blocks


def _forward(blocks, x):
    """Output of `blocks` applied in turn to x, the NCHW view of a channels-last
    array; no cache.  The stack runs over 4 * network.CHUNK images at a time, so
    each conv sees the same CHUNK images and only one group's maps exist at once."""
    out, group = None, 4 * net.CHUNK
    for i in range(0, max(len(x), 1), group):  # an empty x runs once, for its shape
        y = x[i:i + group]
        for f, _ in blocks:
            y, _ = net._main_forward(f, y, train=False)
        if out is None:
            out = np.empty((len(x), *y.shape[2:], y.shape[1]), y.dtype)
        out[i:i + group] = y.transpose(0, 2, 3, 1)
    return out.transpose(0, 3, 1, 2)


def train_greedy(config: TrainConfig, images: np.ndarray, *, last_input=None):
    """Train blocks strictly in sequence, each against its own local loss.

    `images` is a normalized float array (n, C, H, W) whose sides each
    block's 2x2 max-pool can halve.  Returns (blocks, records) where
    records holds one metrics dict per (block, epoch).  A `last_input`
    list gets the last block's stage input appended, so that a probe can
    run only the last block over `images`.
    """
    feats = np.asarray(images, dtype=config.np_dtype)
    depth = len(config.channels)
    if feats.shape[2] % 2 ** depth or feats.shape[3] % 2 ** depth:
        raise NumericsError(f"channels: {depth} blocks each halve the image, so its sides must "
                            f"be divisible by {2 ** depth}, got {feats.shape[2]}x{feats.shape[3]}")
    rng = np.random.default_rng(config.seed)
    blocks = build_blocks(config, feats.shape[1], rng)
    records = []
    lam = config.lam if config.use_orth else 0.0
    for bi, (f, phi) in enumerate(blocks):
        if bi:
            # stage bi's input is the frozen output of block bi-1 on stage bi-1's input
            feats = _forward(blocks[bi - 1 : bi], feats)
        params = net.block_params(f, phi)
        opt = AdamW(params, lr=config.lr, weight_decay=config.weight_decay)
        epochs = config.epochs_per_block
        n_batches = max(len(feats) // config.batch_size, 1)
        total_steps = epochs * n_batches
        step = 0
        batch_rng = np.random.default_rng(config.seed + 1000 * (bi + 1))
        for epoch in range(epochs):
            t0 = time.monotonic()
            sums = np.zeros(3)
            batches = datamod.batch_indices(len(feats), min(config.batch_size, len(feats)),
                                            batch_rng, drop_last=len(feats) > config.batch_size)
            for idx in batches:
                # errstate sees only this thread's FP flags, so the isfinite checks stay
                try:
                    with np.errstate(over="raise", invalid="raise", divide="raise"):
                        grads, bundle = net.block_backward(
                            f, phi, feats[idx], lam,
                            use_sphere=config.use_sphere, use_oja=config.use_oja)
                        if not math.isfinite(bundle.total):
                            raise TrainingDivergedError(f"non-finite loss at block {bi}, step {step}")
                        opt.step(grads, lr=cosine_lr(step, total_steps, config.lr))
                except FloatingPointError as e:
                    raise TrainingDivergedError(f"{e} at block {bi}, step {step}") from None
                sums += (bundle.sphere, bundle.orth, bundle.total)
                step += 1
            nb = len(batches)
            records.append({
                "block": bi,
                "epoch": epoch,
                "sphere": sums[0] / nb,
                "orth": sums[1] / nb,
                "total": sums[2] / nb,
                "lr": cosine_lr(step, total_steps, config.lr),
                "wall_ms": (time.monotonic() - t0) * 1e3,
            })
        for name, v in params.items():  # the loss check above never sees the last step
            if not math.isfinite(float(np.vdot(v, v))):
                raise TrainingDivergedError(f"parameter {name!r} of block {bi} has a non-finite "
                                            "squared norm after the stage's last step")
    if last_input is not None:
        last_input.append(feats)
    return blocks, records


def features(blocks, images) -> np.ndarray:
    """Post-pool output of the final block, flattened in NCHW column order
    (the probe's initial weights pair with these columns).  The blocks run
    over one group of images at a time (see _forward)."""
    return _forward(blocks, images).reshape(len(images), -1)


# ---------------------------------------------------------------------------
# supervised probe and KNN on frozen features

PROBE_EPOCHS = 20  # of the linear probe, unless the probe.epochs setting says otherwise


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def train_probe(train_feats, train_labels, test_feats, test_labels,
                epochs: int = PROBE_EPOCHS, seed: int = 0):
    """Linear softmax probe on frozen features, trained with AdamW (lr 1e-3,
    weight decay 0.05, batches of 128); returns (train_acc, test_acc)."""
    if len(train_feats) != len(train_labels):
        raise NumericsError("feature/label count mismatch")
    n_classes = int(max(train_labels.max(), test_labels.max())) + 1
    d = train_feats.shape[1]
    rng = np.random.default_rng(seed)
    mu = train_feats.mean(axis=0)
    sd = train_feats.std(axis=0) + 1e-8
    xtr = (train_feats - mu) / sd
    xte = (test_feats - mu) / sd
    params = {"w": (rng.standard_normal((d, n_classes)) * 0.01).astype(xtr.dtype),
              "b": np.zeros(n_classes, dtype=xtr.dtype)}
    opt = AdamW(params, lr=1e-3, weight_decay=0.05)
    onehot = np.eye(n_classes, dtype=xtr.dtype)[train_labels]
    for epoch in range(epochs):
        for idx in datamod.batch_indices(len(xtr), min(128, len(xtr)), rng, drop_last=False):
            xb = xtr[idx]
            p = _softmax(xb @ params["w"] + params["b"])
            g = (p - onehot[idx]) / len(idx)
            opt.step({"w": xb.T @ g, "b": g.sum(axis=0)})

    def acc(x, y):
        pred = (x @ params["w"] + params["b"]).argmax(axis=1)
        return float(np.mean(pred == y))

    return acc(xtr, train_labels), acc(xte, test_labels)


def knn_eval(train_feats, train_labels, test_feats, test_labels, k: int = 5) -> float:
    """Cosine-distance KNN with majority vote; ties break to the nearest
    neighbor among the tied classes."""
    if k < 1 or k > len(train_feats):
        raise NumericsError(f"k={k} out of range for {len(train_feats)} train samples")
    tr = train_feats / (np.linalg.norm(train_feats, axis=1, keepdims=True) + 1e-12)
    te = test_feats / (np.linalg.norm(test_feats, axis=1, keepdims=True) + 1e-12)
    sims = te @ tr.T
    nn = np.argsort(-sims, axis=1)[:, :k]
    correct = 0
    for i in range(len(te)):
        labs = train_labels[nn[i]]
        counts = np.bincount(labs)
        best = counts.max()
        tied = np.nonzero(counts == best)[0]
        pred = next(l for l in labs if l in tied)
        correct += pred == test_labels[i]
    return correct / len(te)


# ---------------------------------------------------------------------------
# full-batch linear training (verify-lemma and the linearity study's linear branch)


def _linear_steps(x, w, lr: float, steps: int):
    """Full-batch AdamW on the raw structural loss of Z = X W, cosine lr from
    `lr`: updates w in place and yields the loss each step's gradient was
    taken at.  A step is four small GEMMs plus the AdamW update."""
    # X^T X = R^T R, so the loss and X^T dL/dZ at Z = R W equal those at Z = X W,
    # while each step forms min(B, N)^2 Grams instead of B x B ones
    r = np.linalg.qr(x, mode="r")
    kr = input_gram(r)
    opt = AdamW({"w": w}, lr=lr)
    for step in range(steps):
        loss, dz = raw_sphere_grads(r @ w, kr)
        opt.step({"w": r.T @ dz}, lr=cosine_lr(step, steps, lr))
        yield loss


def train_linear_block(x: np.ndarray, m: int, steps: int = 30000, seed: int = 0):
    """Train a dense linear map W, from the orthonormal Q of a Gaussian draw,
    against the raw structural loss: full-batch AdamW, cosine lr from 1e-2.

    Returns (w, history): history[i] is the raw sphere loss at the weights
    that step i's gradient was taken at.  A non-finite step raises TrainingDivergedError.
    """
    x = as_matrix(x, dtype=np.float64)
    w = np.linalg.qr(np.random.default_rng(seed).standard_normal((x.shape[1], m)))[0]
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return w, list(_linear_steps(x, w, 1e-2, steps))
    except FloatingPointError as e:
        raise TrainingDivergedError(f"{e} during linear block training") from None


# ---------------------------------------------------------------------------
# linear-vs-nonlinear branch study


def run_linearity_study(epochs: int, seed: int):
    """Train a linear branch (64 -> 40) and a nonlinear branch, an AuxBlock
    with two tanh 1x1 convs (64 -> 128 -> 128) and fc 128 -> 40 run on the
    input rows as 1x1 images, on the same 256 x 64 harmonic-spectrum input
    under the raw structural-matching loss; log CKA between their outputs
    per epoch and the final alignment of the top 36 SVD components
    (computed in sample space, where the two branches are comparable).

    Returns (cka_curve, alignment_matrix).
    """
    n, m = 64, 40
    spec = datamod.SyntheticSpec(b=256, n=n, spectrum=datamod.harmonic_spectrum(n), seed=seed)
    x = datamod.synth_gaussian(spec)
    rng = np.random.default_rng(seed + 1)

    w_lin = rng.standard_normal((n, m)) / math.sqrt(n)
    w0, w1, w2 = (rng.standard_normal((i, o)) / math.sqrt(i)
                  for i, o in ((n, 128), (128, 128), (128, m)))
    phi = net.AuxBlock(conv_kernels=[w0.T, w1.T],
                       conv_biases=[np.zeros(128), np.zeros(128)],
                       fc_w=w2, fc_b=np.zeros(m), activation="tanh")
    nl_opt = AdamW({f"aux.{k}": v for k, v in phi.params().items()}, lr=3e-3)

    kx = input_gram(x)
    cka_curve = []
    steps_per_epoch = 40
    total = epochs * steps_per_epoch
    lin_steps = _linear_steps(x, w_lin, 2e-2, total)
    for step in range(total):
        g, cache = net._aux_forward(phi, x, 1)
        z = g @ phi.fc_w + phi.fc_b
        if step % steps_per_epoch == 0:  # both branches as they enter the epoch
            cka_curve.append(cka(x @ w_lin, z))
        next(lin_steps)
        _, dz = raw_sphere_grads(z, kx)
        grads = {"aux.fc_w": g.T @ dz, "aux.fc_b": dz.sum(axis=0)}
        net._aux_backward(phi, cache, dz @ phi.fc_w.T, 1, grads)
        nl_opt.step(grads, lr=cosine_lr(step, total, 3e-3))

    z_lin = x @ w_lin
    z_nl = net._aux_forward(phi, x, 1)[0] @ phi.fc_w + phi.fc_b
    cka_curve.append(cka(z_lin, z_nl))
    return cka_curve, svd_alignment(z_lin.T, z_nl.T, k=36)


# ---------------------------------------------------------------------------
# ablation and transfer drivers

ABLATION_GRID = (
    {"use_oja": True, "use_sphere": False, "use_orth": False, "use_phi": False},
    {"use_oja": True, "use_sphere": False, "use_orth": False, "use_phi": True},
    {"use_oja": True, "use_sphere": False, "use_orth": True, "use_phi": True},
    {"use_oja": False, "use_sphere": True, "use_orth": False, "use_phi": False},
    {"use_oja": False, "use_sphere": True, "use_orth": False, "use_phi": True},
    {"use_oja": False, "use_sphere": True, "use_orth": True, "use_phi": True},
)


def combo_name(flags: dict) -> str:
    return "+".join(k[4:] for k in ("use_oja", "use_sphere", "use_orth", "use_phi")
                    if flags.get(k))


def probe_blocks(config: TrainConfig, blocks, train_stage, train_labels, test_images,
                 test_labels, probe_epochs: int):
    """Linear probe on the frozen features of trained `blocks`; returns
    (train_acc, test_acc).  `train_stage` is the last block's input on the
    training images, such as train_greedy's `last_input`: only that block
    runs over it.  Raises FrozenBlocksMutatedError if any block's parameters
    changed meanwhile."""
    before = blocks_checksum(blocks)
    ftr = features(blocks[-1:], train_stage)
    fte = features(blocks, np.asarray(test_images, dtype=config.np_dtype))
    accs = train_probe(ftr, train_labels, fte, test_labels, epochs=probe_epochs,
                       seed=config.seed)
    if blocks_checksum(blocks) != before:
        raise FrozenBlocksMutatedError("probe training mutated block parameters")
    return accs


def evaluate_config(config: TrainConfig, train_images, train_labels, test_images, test_labels,
                    probe_epochs: int = PROBE_EPOCHS):
    """Train blocks unsupervised, then probe on frozen features, with the
    training stage input handed over; returns {"train_acc", "test_acc"}."""
    stage = []
    blocks, _ = train_greedy(config, train_images, last_input=stage)
    tr_acc, te_acc = probe_blocks(config, blocks, stage[0], train_labels, test_images,
                                  test_labels, probe_epochs)
    return {"train_acc": tr_acc, "test_acc": te_acc}


def run_ablation(base: TrainConfig, train_images, train_labels, test_images, test_labels,
                 grid=ABLATION_GRID, probe_epochs: int = PROBE_EPOCHS):
    """One desk-scale accuracy per loss/architecture combination."""
    rows = []
    for flags in grid:
        res = evaluate_config(replace(base, **flags), train_images, train_labels, test_images,
                              test_labels, probe_epochs)
        rows.append({"combo": combo_name(flags), "test_acc": res["test_acc"]})
    return rows


def run_transfer(source_images, target_train_images, target_train_labels,
                 target_test_images, target_test_labels, config: TrainConfig,
                 probe_epochs: int):
    """Blocks trained on the source set, probe on the target; reports the
    gap against training the blocks directly on the target."""
    blocks, _ = train_greedy(config, source_images)
    stage = _forward(blocks[:-1], np.asarray(target_train_images, dtype=config.np_dtype))
    _, transfer_acc = probe_blocks(config, blocks, stage, target_train_labels,
                                   target_test_images, target_test_labels, probe_epochs)
    direct = evaluate_config(config, target_train_images, target_train_labels,
                             target_test_images, target_test_labels, probe_epochs)
    return {"transfer_acc": transfer_acc, "direct_acc": direct["test_acc"],
            "gap": transfer_acc - direct["test_acc"]}
