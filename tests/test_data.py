"""Dataset ingestion and synthetic-generator tests.

A fake "official" CIFAR-10 binary batch is constructed byte-by-byte here so
the loader's round-trip and histogram properties can be checked without any
file downloads.
"""

import numpy as np
import pytest

from sphere import data as datamod
from sphere.data import (CIFAR_RECORD, FormatError, SyntheticSpec,
                         batch_indices, channel_stats, harmonic_spectrum,
                         load_cifar10, make_synthetic_images, make_texture_images,
                         serialize_cifar10, subset, synth_gaussian, to_float)


def fake_cifar_bytes(n_per_class=5, classes=10, seed=0):
    """Valid CIFAR-10 binary records with a known label histogram."""
    rng = np.random.default_rng(seed)
    records = []
    for c in range(classes):
        for _ in range(n_per_class):
            records.append(bytes([c]) + rng.integers(0, 256, 3072, dtype=np.uint8).tobytes())
    order = rng.permutation(len(records))
    return b"".join(records[i] for i in order)


class TestCifarLoader:
    def test_single_record(self, tmp_path):
        raw = bytes([3]) + bytes(range(256)) * 12
        p = tmp_path / "test_batch.bin"
        p.write_bytes(raw)
        ds = load_cifar10(str(p), split="test")
        assert len(ds) == 1
        assert ds.labels[0] == 3
        assert ds.images.shape == (1, 3, 32, 32)

    def test_chw_layout(self, tmp_path):
        # first 1024 payload bytes are the red channel, row-major
        payload = bytes([7]) + bytes([255] * 1024) + bytes([0] * 2048)
        p = tmp_path / "test_batch.bin"
        p.write_bytes(payload)
        ds = load_cifar10(str(p), split="test")
        assert np.all(ds.images[0, 0] == 255)
        assert np.all(ds.images[0, 1:] == 0)

    def test_round_trip_bytes(self, tmp_path):
        raw = fake_cifar_bytes()
        p = tmp_path / "test_batch.bin"
        p.write_bytes(raw)
        ds = load_cifar10(str(p), split="test")
        assert serialize_cifar10(ds) == raw

    def test_write_then_load(self, tmp_path):
        raw = fake_cifar_bytes(seed=1)
        p = tmp_path / "test_batch.bin"
        p.write_bytes(raw)
        ds = load_cifar10(str(p), split="test")
        out = tmp_path / "copy.bin"
        out.write_bytes(serialize_cifar10(ds))
        again = load_cifar10(str(out), split="test")
        assert np.array_equal(again.images, ds.images)
        assert np.array_equal(again.labels, ds.labels)

    def test_histogram_uniform(self, tmp_path):
        p = tmp_path / "test_batch.bin"
        p.write_bytes(fake_cifar_bytes(n_per_class=20))
        ds = load_cifar10(str(p), split="test")
        hist = np.bincount(ds.labels, minlength=10)
        assert np.array_equal(hist, [20] * 10)

    def test_truncated_file_reports_offset(self, tmp_path):
        p = tmp_path / "test_batch.bin"
        p.write_bytes(b"\x00" * (CIFAR_RECORD + 10))  # 10 trailing bytes
        with pytest.raises(FormatError, match=str(CIFAR_RECORD)):
            load_cifar10(str(p), split="test")

    def test_bad_label_reports_offset(self, tmp_path):
        raw = bytearray(fake_cifar_bytes(n_per_class=1))
        raw[2 * CIFAR_RECORD] = 10  # third record's label byte
        p = tmp_path / "test_batch.bin"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=str(2 * CIFAR_RECORD)):
            load_cifar10(str(p), split="test")

    def test_train_dir_layout(self, tmp_path):
        for name in datamod.CIFAR_TRAIN_FILES:
            (tmp_path / name).write_bytes(fake_cifar_bytes(n_per_class=2))
        ds = load_cifar10(str(tmp_path), split="train")
        assert len(ds) == 100  # 5 files x 20 records

    def test_missing_layout_file(self, tmp_path):
        for name in datamod.CIFAR_TRAIN_FILES[:-1]:
            (tmp_path / name).write_bytes(fake_cifar_bytes(n_per_class=1))
        with pytest.raises(FormatError, match=datamod.CIFAR_TRAIN_FILES[-1]):
            load_cifar10(str(tmp_path), split="train")

    def test_missing_path(self, tmp_path):
        with pytest.raises(FormatError, match="no such file"):
            load_cifar10(str(tmp_path / "nowhere.bin"), split="test")

    def test_short_read(self, tmp_path, monkeypatch):
        # the file holds one record fewer than its reported size
        p = tmp_path / "test_batch.bin"
        p.write_bytes(fake_cifar_bytes(n_per_class=1))
        monkeypatch.setattr(datamod.os.path, "getsize", lambda f: 11 * CIFAR_RECORD)
        with pytest.raises(FormatError, match="short read"):
            load_cifar10(str(p), split="test")

    def test_train_files_load_in_file_order(self, tmp_path):
        raws = [fake_cifar_bytes(n_per_class=2, seed=s) for s in range(5)]
        for name, raw in zip(datamod.CIFAR_TRAIN_FILES, raws):
            (tmp_path / name).write_bytes(raw)
        ds = load_cifar10(str(tmp_path), split="train")
        assert serialize_cifar10(ds) == b"".join(raws)
        assert ds.labels.dtype == np.int64

    def test_subset_images_are_contiguous_pixels(self, tmp_path):
        raw = fake_cifar_bytes(n_per_class=20)
        p = tmp_path / "test_batch.bin"
        p.write_bytes(raw)
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
        picked = subset(load_cifar10(str(p), split="test"), 5, seed=2)
        assert picked.images.flags.c_contiguous
        rows = [np.nonzero((records[:, 1:] == img.ravel()).all(axis=1))[0] for img in picked.images]
        assert all(len(r) == 1 for r in rows)
        assert np.array_equal(records[np.concatenate(rows), 0], picked.labels)

    def test_load_holds_only_the_records(self, tmp_path, traced_peak):
        # 5 files x 200 records: read into one record array the load peaks
        # at 1.003x the records' bytes; with per-file copies joined by
        # np.concatenate it read 2.006x
        for s, name in enumerate(datamod.CIFAR_TRAIN_FILES):
            (tmp_path / name).write_bytes(fake_cifar_bytes(n_per_class=20, seed=s))
        ds, peak = traced_peak(load_cifar10, str(tmp_path), "train")
        nbytes = len(ds) * CIFAR_RECORD
        assert len(ds) == 1000 and peak < 1.1 * nbytes, f"traced peak {peak / nbytes:.3f}x"


class TestNormalization:
    def test_standardized_stats(self):
        ds = make_synthetic_images(50, seed=3)
        mean, std = channel_stats(ds)
        x = to_float(ds, mean, std)
        for c in range(3):
            assert abs(x[:, c].mean()) < 0.05
            assert 0.9 < x[:, c].std() < 1.1


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_scaling_matches_the_expression(self, dtype):
        # to_float and channel_stats scale in place: the same bytes as the
        # expressions they replaced, kept here as the reference
        ds = make_synthetic_images(20, seed=5)
        x64 = ds.images.astype(np.float64) / 255.0
        mean, std = channel_stats(ds)
        assert mean.tobytes() == x64.mean(axis=(0, 2, 3)).tobytes()
        assert std.tobytes() == x64.std(axis=(0, 2, 3)).tobytes()
        m = np.asarray(mean, dtype=dtype)[None, :, None, None]
        s = np.asarray(std, dtype=dtype)[None, :, None, None]
        want = (ds.images.astype(dtype) / 255.0 - m) / s
        x = to_float(ds, mean, std, dtype)
        assert x.dtype == dtype and x.tobytes() == want.tobytes()

    def test_to_float_holds_only_its_output(self, traced_peak):
        # 500 float32 images: the output's 6.1 MB, where the expression's
        # temporaries took three times that (18.5 MB)
        ds = make_synthetic_images(50, seed=6)
        mean, std = channel_stats(ds)
        x, peak = traced_peak(to_float, ds, mean, std, np.float32)
        assert peak < 1.1 * x.nbytes, f"traced peak {peak / 1e6:.1f} MB"


class TestSubsetBatching:
    def test_stratified_counts(self):
        ds = make_synthetic_images(30, seed=4)
        sub = subset(ds, 10, seed=0)
        assert len(sub) == 100
        assert np.array_equal(np.bincount(sub.labels, minlength=10), [10] * 10)

    def test_same_seed_same_indices(self):
        ds = make_synthetic_images(20, seed=5)
        a = subset(ds, 5, seed=1)
        b = subset(ds, 5, seed=1)
        assert np.array_equal(a.images, b.images)

    def test_insufficient_samples(self):
        from sphere.linalg import NumericsError
        ds = make_synthetic_images(3, seed=6)
        with pytest.raises(NumericsError):
            subset(ds, 4, seed=0)

    def test_batch_indices_drop_last(self):
        rng = np.random.default_rng(7)
        batches = list(batch_indices(10, 4, rng, drop_last=True))
        assert len(batches) == 2
        assert all(len(b) == 4 for b in batches)

    def test_batch_indices_keep_last(self):
        rng = np.random.default_rng(8)
        batches = list(batch_indices(10, 4, rng, drop_last=False))
        assert sum(len(b) for b in batches) == 10


class TestSynthGaussian:
    def test_spectrum_exact(self):
        spec = SyntheticSpec(b=16, n=8, spectrum=np.array([3.0, 2.0, 1.0] + [0.0] * 5), seed=9)
        x = synth_gaussian(spec)
        s = np.linalg.svd(x, compute_uv=False)
        assert np.allclose(s[:3], [3.0, 2.0, 1.0], atol=1e-8)

    def test_rank_one(self):
        spec = SyntheticSpec(b=8, n=4, spectrum=np.array([1.0, 0.0, 0.0, 0.0]), seed=10)
        x = synth_gaussian(spec)
        assert np.linalg.matrix_rank(x, tol=1e-10) == 1

    def test_seeds_differ_spectra_match(self):
        sp = np.linspace(2.0, 0.5, 6)
        a = synth_gaussian(SyntheticSpec(b=12, n=6, spectrum=sp, seed=0))
        b = synth_gaussian(SyntheticSpec(b=12, n=6, spectrum=sp, seed=1))
        assert not np.allclose(a, b)
        assert np.allclose(np.linalg.svd(a, compute_uv=False),
                           np.linalg.svd(b, compute_uv=False), atol=1e-8)

    def test_unsorted_spectrum_rejected(self):
        with pytest.raises(Exception):
            SyntheticSpec(b=4, n=3, spectrum=np.array([1.0, 2.0, 0.5]), seed=0)

    def test_harmonic_spectrum(self):
        assert np.allclose(harmonic_spectrum(4), [1.0, 0.5, 1 / 3, 0.25])


class TestGenerators:
    def test_synthetic_images_deterministic(self):
        a = make_synthetic_images(5, seed=11)
        b = make_synthetic_images(5, seed=11)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_splits_share_templates(self):
        # fixed templates, different sample seeds: per-class means correlate
        tr = make_synthetic_images(30, seed=12, noise=0.1)
        te = make_synthetic_images(30, seed=13, noise=0.1, split="test")
        for c in range(3):
            m_tr = tr.images[tr.labels == c].mean(axis=0).ravel().astype(np.float64)
            m_te = te.images[te.labels == c].mean(axis=0).ravel().astype(np.float64)
            corr = np.corrcoef(m_tr, m_te)[0, 1]
            assert corr > 0.9

    def test_texture_images_shape_and_labels(self):
        ds = make_texture_images(4, seed=14)
        assert ds.images.shape == (40, 3, 32, 32)
        assert ds.images.dtype == np.uint8
        assert set(ds.labels.tolist()) == set(range(10))

    def test_texture_determinism(self):
        a = make_texture_images(3, seed=15)
        b = make_texture_images(3, seed=15)
        assert np.array_equal(a.images, b.images)
