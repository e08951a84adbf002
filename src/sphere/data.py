"""Dataset ingestion and synthesis: CIFAR-10 binary files,
spectrum-controlled Gaussian matrices for oracle experiments, and
class-structured synthetic image generators for desk-scale runs.

Loaded datasets keep raw uint8 pixels so ingestion can be round-tripped
bit-exactly; normalization produces a separate float view.
"""

import os
from dataclasses import dataclass

import numpy as np

from .linalg import NumericsError

CIFAR_RECORD = 3073  # 1 label byte + 3 * 32 * 32 pixel bytes, CHW order
CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST_FILES = ["test_batch.bin"]
# the synthetic generators' shape, CIFAR-10's: 10 classes of 32 x 32 images
N_CLASSES, SIZE = 10, 32


class FormatError(ValueError):
    """Dataset file does not match the expected binary layout."""


@dataclass
class Dataset:
    """Raw image dataset: uint8 pixels (B,C,H,W) plus integer labels."""

    images: np.ndarray
    labels: np.ndarray
    split: str = "train"

    def __len__(self):
        return self.images.shape[0]


# ---------------------------------------------------------------------------
# CIFAR-10 binary format


def _parse_cifar_records(buf: bytes, source: str) -> Dataset:
    if len(buf) % CIFAR_RECORD != 0:
        raise FormatError(
            f"{source}: truncated file, {len(buf)} bytes is not a multiple of {CIFAR_RECORD}"
        )
    n = len(buf) // CIFAR_RECORD
    raw = np.frombuffer(buf, dtype=np.uint8).reshape(n, CIFAR_RECORD)
    labels = raw[:, 0].astype(np.int64)
    bad = np.nonzero(labels > 9)[0]
    if bad.size:
        off = int(bad[0]) * CIFAR_RECORD
        raise FormatError(f"{source}: label byte {labels[bad[0]]} > 9 at byte offset {off}")
    images = raw[:, 1:].reshape(n, 3, 32, 32).copy()
    return Dataset(images=images, labels=labels.copy(), split="")


def load_cifar10(path: str, split: str = "train") -> Dataset:
    """Load CIFAR-10 from its standard binary layout.

    `path` may be a directory holding data_batch_*.bin / test_batch.bin, or
    a single .bin file.
    """
    if os.path.isdir(path):
        names = CIFAR_TRAIN_FILES if split == "train" else CIFAR_TEST_FILES
        files = [os.path.join(path, f) for f in names]
        missing = [f for f in files if not os.path.exists(f)]
        if missing:
            raise FormatError(
                f"missing CIFAR-10 files {missing}; expected layout: {path}/<data_batch_N.bin|test_batch.bin>"
            )
    else:
        if not os.path.exists(path):
            raise FormatError(f"no such file: {path}")
        files = [path]
    parts = []
    for f in files:
        with open(f, "rb") as fh:
            parts.append(_parse_cifar_records(fh.read(), f))
    ds = Dataset(
        images=np.concatenate([p.images for p in parts]),
        labels=np.concatenate([p.labels for p in parts]),
        split=split,
    )
    return ds


def serialize_cifar10(ds: Dataset) -> bytes:
    """Re-serialize a dataset into CIFAR-10 binary records (round-trip
    inverse of the loader, before any normalization)."""
    n = len(ds)
    rec = np.empty((n, CIFAR_RECORD), dtype=np.uint8)
    rec[:, 0] = ds.labels.astype(np.uint8)
    rec[:, 1:] = ds.images.reshape(n, -1)
    return rec.tobytes()


# ---------------------------------------------------------------------------
# normalization


def channel_stats(ds: Dataset):
    """Per-channel mean/std of pixels scaled to [0,1] (train-split stats)."""
    x = ds.images.astype(np.float64) / 255.0
    return x.mean(axis=(0, 2, 3)), x.std(axis=(0, 2, 3))


def to_float(ds: Dataset, mean, std, dtype=np.float64) -> np.ndarray:
    """Scale pixels to [0,1] then standardize per channel."""
    x = ds.images.astype(dtype) / 255.0
    mean = np.asarray(mean, dtype=dtype)[None, :, None, None]
    std = np.asarray(std, dtype=dtype)[None, :, None, None]
    return (x - mean) / std


# ---------------------------------------------------------------------------
# subsetting and batching


def subset(ds: Dataset, n_per_class: int, seed: int) -> Dataset:
    """Stratified, seeded selection of n_per_class samples per class."""
    rng = np.random.default_rng(seed)
    picks = []
    for c in np.unique(ds.labels):
        idx = np.nonzero(ds.labels == c)[0]
        if len(idx) < n_per_class:
            raise NumericsError(f"class {c} has only {len(idx)} samples, need {n_per_class}")
        picks.append(rng.choice(idx, size=n_per_class, replace=False))
    order = np.sort(np.concatenate(picks))
    return Dataset(images=ds.images[order], labels=ds.labels[order], split=ds.split)


def batch_indices(n: int, batch_size: int, rng, drop_last: bool = True):
    """Seeded shuffled batches of indices; the short final batch is dropped
    during training so Gram sizes stay constant."""
    order = rng.permutation(n)
    end = (n // batch_size) * batch_size if drop_last else n
    return [order[i : i + batch_size] for i in range(0, end, batch_size)]


# ---------------------------------------------------------------------------
# synthetic generators


@dataclass
class SyntheticSpec:
    """Spectrum-controlled Gaussian matrix: B x N with prescribed singular
    values (sorted descending, nonnegative)."""

    b: int
    n: int
    spectrum: np.ndarray
    seed: int = 0

    def __post_init__(self):
        s = np.asarray(self.spectrum, dtype=np.float64)
        if np.any(s < 0) or np.any(np.diff(s) > 0):
            raise NumericsError("spectrum must be sorted descending and nonnegative")
        self.spectrum = s


def synth_gaussian(spec: SyntheticSpec) -> np.ndarray:
    """X = U diag(sigma) V^T with seeded random orthonormal U, V."""
    r = len(spec.spectrum)
    if r > spec.n:
        raise NumericsError("more singular values than columns")
    if spec.b < r and np.any(spec.spectrum[spec.b :] > 0):
        import warnings

        warnings.warn("B < number of nonzero singular values; spectrum truncated by rank")
    rng = np.random.default_rng(spec.seed)
    u, _ = np.linalg.qr(rng.standard_normal((spec.b, min(spec.b, r))))
    v, _ = np.linalg.qr(rng.standard_normal((spec.n, min(spec.b, r))))
    k = u.shape[1]
    return (u * spec.spectrum[:k]) @ v.T


def harmonic_spectrum(n: int) -> np.ndarray:
    """sigma_i = 1/i, the spectrum used throughout the oracle experiments."""
    return 1.0 / np.arange(1, n + 1, dtype=np.float64)


def _sample_images(n_per_class: int, rng, draw, split: str) -> Dataset:
    """n_per_class images of each class in turn, draw(c) giving one image of
    class c in [0, 1] units before clipping, then shuffled by rng."""
    images = np.empty((N_CLASSES * n_per_class, 3, SIZE, SIZE), dtype=np.uint8)
    labels = np.repeat(np.arange(N_CLASSES, dtype=np.int64), n_per_class)
    for i, c in enumerate(labels):
        images[i] = np.clip(draw(c) * 255.0, 0, 255).astype(np.uint8)
    order = rng.permutation(len(labels))
    return Dataset(images=images[order], labels=labels[order], split=split)


def make_synthetic_images(n_per_class: int, seed: int, noise: float = 0.35,
                          split: str = "train") -> Dataset:
    """Class-structured synthetic image set in CIFAR-10 shape.

    Each class is a smooth color template drawn from the fixed seed 0, so
    every split shares them; samples draw gain/shift and pixel noise from
    `seed`.  Used when no real dataset is mounted.
    """
    trng = np.random.default_rng(0)
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.linspace(0, 1, SIZE), np.linspace(0, 1, SIZE), indexing="ij")
    templates = []
    for _ in range(N_CLASSES):
        t = np.zeros((3, SIZE, SIZE))
        for c in range(3):
            for _ in range(3):
                fx, fy = trng.uniform(0.5, 3.0, size=2)
                ph = trng.uniform(0, 2 * np.pi, size=2)
                t[c] += trng.uniform(0.3, 1.0) * np.sin(2 * np.pi * fx * xx + ph[0]) * np.sin(
                    2 * np.pi * fy * yy + ph[1]
                )
        t = (t - t.min()) / (t.max() - t.min())
        templates.append(t)

    def draw(c):
        gain = rng.uniform(0.6, 1.0)
        shift = rng.uniform(-0.1, 0.1)
        return gain * templates[c] + shift + noise * rng.standard_normal((3, SIZE, SIZE))

    return _sample_images(n_per_class, rng, draw, split)


def make_texture_images(n_per_class: int, seed: int, noise: float = 0.3,
                        split: str = "train") -> Dataset:
    """Texture-class synthetic image set: each class is an oriented
    frequency band drawn from the fixed seed 0, samples are band-filtered
    white noise at contrast 0.12 plus iid pixel noise.

    Class information lives in second-order statistics, so a linear readout
    of raw pixels is near chance; this is the harder surrogate used by the
    classification experiments when no real dataset is mounted.
    """
    trng = np.random.default_rng(0)
    rng = np.random.default_rng(seed)
    fy = np.fft.fftfreq(SIZE)[:, None]
    fx = np.fft.fftfreq(SIZE)[None, :]
    rad = np.hypot(fy, fx)
    theta = np.arctan2(fy, fx)
    masks = []
    for _ in range(N_CLASSES):
        ang = trng.uniform(0, np.pi)
        f0 = trng.uniform(0.08, 0.35)
        bw = trng.uniform(0.03, 0.08)
        d = np.minimum(np.abs(((theta - ang + np.pi / 2) % np.pi) - np.pi / 2), np.pi)
        masks.append(np.exp(-((rad - f0) ** 2) / (2 * bw ** 2)) * np.exp(-(d ** 2) / (2 * 0.3 ** 2)))
        trng.random(12)  # unused draws: skipping them would change every later mask

    def draw(c):
        img = np.empty((3, SIZE, SIZE))
        for ch in range(3):
            w = rng.standard_normal((SIZE, SIZE))
            t = np.fft.ifft2(np.fft.fft2(w) * masks[c]).real
            img[ch] = t / (t.std() + 1e-9)
        return 0.5 + 0.12 * img + noise * rng.standard_normal((3, SIZE, SIZE))

    return _sample_images(n_per_class, rng, draw, split)
