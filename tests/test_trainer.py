"""Trainer tests: optimizer identities, schedule shape, greedy-training
locality and determinism, probe/KNN behavior on controlled feature sets."""

import tracemalloc
import warnings

import numpy as np
import pytest

from sphere import network as net
from sphere import trainer
from sphere.data import (SyntheticSpec, channel_stats, harmonic_spectrum, make_synthetic_images,
                         synth_gaussian, to_float)
from sphere.linalg import NumericsError
from sphere.losses import input_gram, sphere_loss
from sphere.trainer import (AdamW, FrozenBlocksMutatedError, OptimizerError, TrainConfig,
                            TrainingDivergedError, build_blocks, cosine_lr, evaluate_config,
                            features, knn_eval, param_checksum, train_greedy, train_probe)


class TestAdamW:
    def test_first_step_is_signed_unit(self):
        # with zero decay, the first Adam step is ~ -lr * sign(g)
        p = {"w": np.zeros((3, 3))}
        opt = AdamW(p, lr=0.1)
        g = np.array([[1.0, -2.0, 3.0]] * 3)
        opt.step({"w": g.copy()})
        assert np.allclose(p["w"], -0.1 * np.sign(g), atol=1e-6)

    def test_decoupled_decay_shrinks(self):
        # zero gradient: parameters shrink by exactly (1 - lr * wd) per step
        p = {"w": np.full((2, 2), 4.0)}
        opt = AdamW(p, lr=0.5, weight_decay=0.1)
        opt.step({"w": np.zeros((2, 2))})
        assert np.allclose(p["w"], 4.0 * (1 - 0.5 * 0.1))

    def test_nonfinite_gradient_rejected(self):
        p = {"w": np.zeros(2)}
        opt = AdamW(p, lr=0.1)
        with pytest.raises(OptimizerError):
            opt.step({"w": np.array([np.nan, 0.0])})

    def test_quadratic_convergence(self):
        # minimize ||w - 3||^2; AdamW with no decay should get there
        p = {"w": np.zeros(4)}
        opt = AdamW(p, lr=0.05)
        for _ in range(2000):
            opt.step({"w": 2 * (p["w"] - 3.0)})
        assert np.allclose(p["w"], 3.0, atol=1e-3)

    def test_moments_track_parameter_names(self):
        p = {"a": np.zeros(2), "b": np.zeros(3)}
        opt = AdamW(p, lr=0.1)
        opt.step({"a": np.ones(2)})  # partial update is fine
        assert np.allclose(p["b"], 0.0)


class TestCosineLr:
    def test_endpoints(self):
        assert cosine_lr(0, 100, 1e-3) == pytest.approx(1e-3)
        assert cosine_lr(100, 100, 1e-3) == pytest.approx(0.0)

    def test_midpoint(self):
        assert cosine_lr(50, 100, 2.0) == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        vals = [cosine_lr(s, 50, 1.0) for s in range(51)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestTrainConfig:
    def test_requires_a_matching_loss(self):
        with pytest.raises(NumericsError):
            TrainConfig(use_sphere=False, use_oja=False)

    def test_requires_batch_of_two(self):
        with pytest.raises(NumericsError):
            TrainConfig(batch_size=1)

    @pytest.mark.parametrize("field, value", [
        ("dtype", "float16"), ("activation", "foo"), ("channels", ()), ("lam", -0.1),
        ("channels", (8, 0)), ("epochs", 0), ("d_proj", 0), ("phi_depth", -1),
        ("lr", 0.0), ("lam", float("nan")), ("weight_decay", -5.0),
        ("weight_decay", float("inf")), ("epochs", 13),
    ], ids=["dtype", "activation", "channels", "lam", "channel_width", "epochs", "d_proj",
            "phi_depth", "lr", "lam_nan", "weight_decay", "weight_decay_inf",
            "epochs_not_a_multiple_of_blocks"])
    def test_rejects_bad_value(self, field, value):
        with pytest.raises(NumericsError, match=field if field != "lam" else "lambda"):
            TrainConfig(**{field: value})

    def test_epochs_split_across_blocks(self):
        cfg = TrainConfig(channels=(8, 16, 32), epochs=12)
        assert cfg.epochs_per_block == 4
        # every accepted total splits exactly; every other one is refused
        for blocks in (1, 2, 3, 4):
            accepted = []
            for epochs in range(-1, 13):
                try:
                    cfg = TrainConfig(channels=(8,) * blocks, epochs=epochs)
                except NumericsError as exc:
                    assert "epochs" in str(exc)
                    continue
                assert cfg.epochs_per_block * blocks == epochs
                accepted.append(epochs)
            assert accepted == list(range(blocks, 13, blocks))


SMALL = dict(channels=(8, 16), epochs=4, batch_size=32, d_proj=16, dtype="float64")


def tiny_dataset(n_per_class=20, seed=0):
    ds = make_synthetic_images(n_per_class, seed=seed, noise=0.3)
    mean, std = channel_stats(ds)
    return to_float(ds, mean, std), ds.labels


class TestTrainGreedy:
    def test_record_schema(self):
        x, _ = tiny_dataset()
        blocks, records = train_greedy(TrainConfig(seed=0, **SMALL), x)
        assert len(blocks) == 2
        assert len(records) == 4  # 2 blocks x 2 epochs
        for rec in records:
            assert set(rec) == {"block", "epoch", "sphere", "orth", "total", "lr", "wall_ms"}

    def test_deterministic(self):
        x, _ = tiny_dataset()
        a, _ = train_greedy(TrainConfig(seed=3, **SMALL), x)
        b, _ = train_greedy(TrainConfig(seed=3, **SMALL), x)
        ca = param_checksum({f"b{i}.{k}": v for i, (f, phi) in enumerate(a)
                             for k, v in net.block_params(f, phi).items()})
        cb = param_checksum({f"b{i}.{k}": v for i, (f, phi) in enumerate(b)
                             for k, v in net.block_params(f, phi).items()})
        assert ca == cb

    def test_seeds_differ(self):
        x, _ = tiny_dataset()
        a, _ = train_greedy(TrainConfig(seed=0, **SMALL), x)
        b, _ = train_greedy(TrainConfig(seed=1, **SMALL), x)
        assert not np.allclose(a[0][0].kernel, b[0][0].kernel)

    def test_loss_decreases(self):
        x, _ = tiny_dataset(n_per_class=30)
        cfg = TrainConfig(seed=0, channels=(8, 16), epochs=8, batch_size=32,
                          d_proj=16, dtype="float64")
        _, records = train_greedy(cfg, x)
        for bi in (0, 1):
            block_recs = [r["total"] for r in records if r["block"] == bi]
            assert block_recs[-1] < block_recs[0]

    def test_greedy_locality(self):
        # extra training steps on block 1 leave block 0's parameters intact
        x, _ = tiny_dataset()
        cfg = TrainConfig(seed=0, **SMALL)
        blocks, _ = train_greedy(cfg, x)
        sum_before = param_checksum(net.block_params(*blocks[0]))
        f1, phi1 = blocks[1]
        opt = AdamW(net.block_params(f1, phi1), lr=1e-3)
        feats0 = x
        f0, _ = blocks[0]
        feats0, _ = net._main_forward(f0, x[:32])
        for _ in range(3):
            grads, _ = net.block_backward(f1, phi1, feats0, lam=0.8)
            opt.step(grads)
        assert param_checksum(net.block_params(*blocks[0])) == sum_before

    def test_each_stage_input_forwarded_once(self, forward_counts):
        # outside block_backward, blocks 0..L-2 each run once over all 300
        # training images and block L-1 never
        x, _ = tiny_dataset(n_per_class=30)
        cfg = TrainConfig(seed=0, channels=(4, 8, 8), epochs=3, batch_size=64, d_proj=8)
        trainer.train_greedy(cfg, x)
        assert forward_counts.per_block("train") == [len(x), len(x), 0]
        assert forward_counts.per_block("eval") == [0, 0, 0]

    @pytest.mark.parametrize("dtype, channels", [("float32", (4, 8, 8)), ("float64", (4, 8, 8)),
                                                 ("float64", (4,))])
    def test_last_input_is_the_last_stage(self, dtype, channels):
        # the handed-out array is blocks 0..L-2 on the images, bit for bit,
        # and the last block on it gives the features of the whole stack
        x, _ = tiny_dataset(n_per_class=30)
        x = x.astype(dtype)
        cfg = TrainConfig(seed=0, channels=channels, epochs=len(channels), batch_size=64,
                          d_proj=8, dtype=dtype)
        stage = []
        blocks, _ = train_greedy(cfg, x, last_input=stage)
        assert len(stage) == 1
        assert stage[0].dtype == cfg.np_dtype
        assert np.array_equal(stage[0], trainer._forward(blocks[:-1], x))
        assert np.array_equal(features(blocks[-1:], stage[0]), features(blocks, x))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_features_do_not_depend_on_chunking(self, dtype):
        # ragged splits, with edges inside chunks and on a chunk boundary,
        # give the features of the whole batch byte for byte.  Run at the
        # desk widths: at 4/8/8 channels a 1- or 2-image chunk's conv GEMM
        # is small enough for OpenBLAS to round it differently
        c = net.CHUNK
        x, _ = tiny_dataset(n_per_class=3 * c // 10 + 2)
        x = x.astype(dtype)
        blocks = build_blocks(TrainConfig(dtype=dtype), 3, np.random.default_rng(0))
        edges = [0, 1, c + 3, 2 * c, 3 * c + 1, len(x)]
        parts = [features(blocks, x[i:j]) for i, j in zip(edges, edges[1:])]
        assert np.concatenate(parts).tobytes() == features(blocks, x).tobytes()

    def test_unhalvable_image_size_refused_before_training(self, monkeypatch):
        # six 2x2 max-pools need sides divisible by 64; 32x32 images allow five
        calls = []
        block_backward = net.block_backward

        def counting_backward(*args, **kwargs):
            calls.append(1)
            return block_backward(*args, **kwargs)

        monkeypatch.setattr(net, "block_backward", counting_backward)
        x, _ = tiny_dataset(n_per_class=1)
        cfg = TrainConfig(seed=0, channels=(2,) * 6, epochs=6, batch_size=4, d_proj=4)
        with pytest.raises(NumericsError, match="channels.*64.*32x32"):
            train_greedy(cfg, x)
        assert calls == []

    def test_features_shape(self):
        x, _ = tiny_dataset()
        cfg = TrainConfig(seed=0, **SMALL)
        blocks, _ = train_greedy(cfg, x)
        f = features(blocks, x)
        assert f.shape == (len(x), 16 * 8 * 8)


    @pytest.mark.parametrize("kind", net.ACTIVATIONS)
    def test_features_keep_no_cache(self, kind):
        # the forward-only pass holds the im2col rows and the conv output at
        # most: with the activation derivative and the conv and pool caches
        # kept until the block returns, the peak is about rows + 3.3 * conv
        rng = np.random.default_rng(0)
        f = net.init_main_block(3, 16, rng, activation=kind, use_skip=True)
        x = rng.standard_normal((64, 3, 16, 16))
        features([(f, None)], x)
        tracemalloc.start()
        try:
            features([(f, None)], x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = 64 * 16 * 16 * 27 * 8   # im2col rows of a 3x3 kernel, float64
        conv = 64 * 16 * 16 * 16 * 8   # conv output
        assert peak < rows + 2 * conv

    def test_features_run_the_stack_one_group_at_a_time(self):
        # 256 float64 images at the default widths: the output and its flat
        # copy take 6.3 MB each, one group of 4 * CHUNK images' maps about
        # 7 MB.  Running each block over all the images first read 50.3 MB
        blocks = build_blocks(TrainConfig(), 3, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((256, 3, 32, 32))
        tracemalloc.start()
        try:
            features(blocks, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 30e6, f"traced peak {peak / 1e6:.1f} MB"


class TestEvaluateConfig:
    def test_returns_accuracies_only(self):
        x, y = tiny_dataset(n_per_class=4)
        res = evaluate_config(TrainConfig(seed=0, **SMALL), x, y, x[:10], y[:10],
                              probe_epochs=1)
        assert set(res) == {"train_acc", "test_acc"}

    def test_training_images_forwarded_once_per_block(self, forward_counts):
        # blocks 0..L-2 build block L-1's stage input in training, and the
        # probe runs only block L-1 over the training images
        x, y = tiny_dataset(n_per_class=2)
        evaluate_config(TrainConfig(seed=0, channels=(4, 8, 8), epochs=3, batch_size=8,
                                    d_proj=8), x, y, x[:10], y[:10], probe_epochs=1)
        assert forward_counts.per_block("train") == [len(x), len(x), 0]
        assert forward_counts.per_block("eval") == [10, 10, len(x) + 10]

    def test_mutated_blocks_raise(self, monkeypatch):
        x, y = tiny_dataset(n_per_class=4)
        real_features = trainer.features

        def mutating_features(blocks, images):
            blocks[0][0].kernel += 1.0
            return real_features(blocks, images)

        monkeypatch.setattr(trainer, "features", mutating_features)
        with pytest.raises(FrozenBlocksMutatedError):
            evaluate_config(TrainConfig(seed=0, **SMALL), x, y, x[:10], y[:10],
                            probe_epochs=1)

    def test_transfer_source_blocks_checked(self, monkeypatch):
        x, y = tiny_dataset(n_per_class=4)
        real_features = trainer.features
        calls = []

        def mutating_features(blocks, images):
            # only the first probe, the one on the source-trained blocks
            calls.append(1)
            if len(calls) == 1:
                blocks[0][0].kernel += 1.0
            return real_features(blocks, images)

        monkeypatch.setattr(trainer, "features", mutating_features)
        with pytest.raises(FrozenBlocksMutatedError):
            trainer.run_transfer(x, x, y, x[:10], y[:10], TrainConfig(seed=0, **SMALL),
                                 probe_epochs=1)
        assert len(calls) == 2

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("channels", [(4,), (4, 8, 8)], ids=["1-block", "3-block"])
    def test_probe_on_the_last_stage_matches_the_whole_stack(self, channels, dtype):
        # run_transfer hands probe_blocks blocks 0..L-2 on the target images:
        # its accuracies are those of a probe on the whole stack's features
        x, y = tiny_dataset(n_per_class=4)
        xte, yte = tiny_dataset(n_per_class=2, seed=1)
        x, xte = x.astype(dtype), xte.astype(dtype)
        cfg = TrainConfig(seed=3, channels=channels, epochs=len(channels), batch_size=16,
                          d_proj=8, dtype=dtype)
        blocks, _ = train_greedy(cfg, x)
        got = trainer.probe_blocks(cfg, blocks, trainer._forward(blocks[:-1], x), y, xte, yte, 3)
        want = train_probe(features(blocks, x), y, features(blocks, xte), yte, epochs=3,
                           seed=cfg.seed)
        assert got == want


class TestTrainLinearBlock:
    @pytest.mark.parametrize("run, expected", [
        (lambda: trainer.train_linear_block(np.random.default_rng(0).standard_normal((256, 32)),
                                            8, steps=5),
         [((32, 8), (32, 32))] * 5),
        # the study's linear step, then its head step, on 256 x 64 input
        (lambda: trainer.run_linearity_study(epochs=1, seed=0),
         [((64, 40), (64, 64)), ((256, 40), (256, 256))] * 40),
    ], ids=["train_linear_block", "run_linearity_study"])
    def test_steps_see_at_most_n_rows(self, monkeypatch, run, expected):
        # each linear step works on X's N x N triangular factor, whatever B is
        shapes = []
        real = trainer.raw_sphere_grads

        def spy(z, kx):
            shapes.append((z.shape, kx.shape))
            return real(z, kx)

        monkeypatch.setattr(trainer, "raw_sphere_grads", spy)
        run()
        assert shapes == expected

    def test_linearity_study_forwards_its_head_once_per_step(self, monkeypatch):
        # 80 steps and one final forward; each epoch's CKA point reuses its step's forward
        calls = []
        real = net._aux_forward

        def spy(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(net, "_aux_forward", spy)
        curve, _ = trainer.run_linearity_study(epochs=2, seed=0)
        assert len(calls) == 81
        assert len(curve) == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad):
        # refused before the QR, which would turn an inf into NaNs and warn
        x = np.random.default_rng(2).standard_normal((16, 8))
        x[3, 4] = bad
        with pytest.raises(NumericsError):
            trainer.train_linear_block(x, 4, steps=1)

    def test_first_history_entry_is_the_loss_on_x(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((64, 32))
        w0 = np.linalg.qr(np.random.default_rng(5).standard_normal((32, 8)))[0]
        _, history = trainer.train_linear_block(x, 8, steps=1, seed=5)
        assert history[0] == pytest.approx(sphere_loss(x @ w0, x, normalize=False), rel=1e-12)

    def test_bit_equal_to_the_structural_grads_loop(self):
        # the loop as written on the raw matching term in the objective's
        # arithmetic: D = Z Z^T - K_R, the loss sum(D * D), dL/dZ = (4 D) Z
        x = synth_gaussian(SyntheticSpec(b=64, n=32, spectrum=harmonic_spectrum(32), seed=1))
        w, history = trainer.train_linear_block(x, 8, steps=300, seed=1)
        r = np.linalg.qr(x, mode="r")
        kr = input_gram(r)
        w_ref = np.linalg.qr(np.random.default_rng(1).standard_normal((32, 8)))[0]
        opt = AdamW({"w": w_ref}, lr=1e-2)
        ref = []
        for step in range(300):
            z = r @ w_ref
            kd = z @ z.T - kr
            opt.step({"w": r.T @ ((4.0 * kd) @ z)}, lr=cosine_lr(step, 300, 1e-2))
            ref.append(float((kd * kd).sum()))
        assert history == ref
        assert np.array_equal(w, w_ref)

    def test_overflow_raises_diverged_without_warning(self):
        # 1e80 rows overflow the loss's squared Gram difference at the first step
        x = np.random.default_rng(0).standard_normal((64, 32)) * 1e80
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError, match="overflow"):
                trainer.train_linear_block(x, 8, steps=3)


class TestProbe:
    def test_separable_blobs(self):
        rng = np.random.default_rng(0)
        centers = rng.standard_normal((4, 10)) * 5
        labels = np.repeat(np.arange(4), 50)
        feats = centers[labels] + rng.standard_normal((200, 10)) * 0.1
        te_labels = np.repeat(np.arange(4), 20)
        te = centers[te_labels] + rng.standard_normal((80, 10)) * 0.1
        tr_acc, te_acc = train_probe(feats, labels, te, te_labels)
        assert tr_acc >= 0.99
        assert te_acc >= 0.99

    def test_random_labels_near_chance(self):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((300, 8))
        labels = rng.integers(0, 5, 300)
        te = rng.standard_normal((200, 8))
        te_labels = rng.integers(0, 5, 200)
        _, te_acc = train_probe(feats, labels, te, te_labels)
        assert te_acc < 0.35  # chance is 0.2

    def test_probe_does_not_mutate_features(self):
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((100, 6))
        before = feats.copy()
        train_probe(feats, rng.integers(0, 3, 100), feats, rng.integers(0, 3, 100))
        assert np.array_equal(feats, before)

    def test_count_mismatch(self):
        with pytest.raises(NumericsError):
            train_probe(np.ones((5, 2)), np.zeros(4, dtype=int),
                        np.ones((2, 2)), np.zeros(2, dtype=int))


class TestKnn:
    def test_self_match_k1(self):
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((50, 8))
        labels = rng.integers(0, 5, 50)
        assert knn_eval(feats, labels, feats, labels, k=1) == 1.0

    def test_blobs_k5(self):
        rng = np.random.default_rng(4)
        centers = rng.standard_normal((3, 6)) * 8
        labels = np.repeat(np.arange(3), 40)
        feats = centers[labels] + rng.standard_normal((120, 6)) * 0.2
        te_labels = np.repeat(np.arange(3), 10)
        te = centers[te_labels] + rng.standard_normal((30, 6)) * 0.2
        assert knn_eval(feats, labels, te, te_labels, k=5) >= 0.95

    def test_k_out_of_range(self):
        with pytest.raises(NumericsError):
            knn_eval(np.ones((3, 2)), np.zeros(3, dtype=int),
                     np.ones((1, 2)), np.zeros(1, dtype=int), k=4)

    def test_cosine_scale_invariance(self):
        rng = np.random.default_rng(5)
        feats = rng.standard_normal((40, 5))
        labels = rng.integers(0, 4, 40)
        te = rng.standard_normal((15, 5))
        te_labels = rng.integers(0, 4, 15)
        a = knn_eval(feats, labels, te, te_labels, k=3)
        b = knn_eval(feats * 100.0, labels, te, te_labels, k=3)
        assert a == b
