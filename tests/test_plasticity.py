"""Oja update-rule tests: fixed points, convergence to the principal
component, and divergence detection."""

import numpy as np
import pytest

from sphere.data import SyntheticSpec, synth_gaussian
from sphere.linalg import NumericsError, svd
from sphere.plasticity import DivergenceError, oja_step


class TestOja:
    def test_rejects_nonpositive_eta(self):
        with pytest.raises(NumericsError):
            oja_step(np.ones((2, 1)), np.ones((4, 2)), eta=0.0)

    def test_steps_are_pure(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 3))
        w = rng.standard_normal((3, 1)) * 0.1
        w_before = w.copy()
        oja_step(w, x, eta=1e-3)
        assert np.array_equal(w, w_before)

    def test_unit_principal_vector_fixed_point(self):
        # w = v1 (unit top right singular vector) is a fixed point when the
        # update is expressed on the eigenbasis: X^T X v1 = s1^2 v1 and
        # w (y^T y) = s1^2 v1, so the two terms cancel.
        spec = SyntheticSpec(b=32, n=8, spectrum=np.array([2.0, 1.0] + [0.0] * 6), seed=4)
        x = synth_gaussian(spec)
        v1 = svd(x).v[:, :1]
        w = oja_step(v1, x, eta=1e-2)
        assert np.allclose(w, v1, atol=1e-10)

    def test_converges_to_principal_component(self):
        # acceptance-anchor dynamics at small scale: spectrum (3, 1, 0.3)
        spec = SyntheticSpec(b=64, n=16,
                             spectrum=np.array([3.0, 1.0, 0.3] + [0.0] * 13), seed=5)
        x = synth_gaussian(spec)
        v1 = svd(x).v[:, 0]
        rng = np.random.default_rng(6)
        w = rng.standard_normal((16, 1)) * 0.1
        for _ in range(2000):
            w = oja_step(w, x, eta=1e-3)
        cos = abs(v1 @ w[:, 0]) / np.linalg.norm(w)
        assert cos >= 0.99

    def test_weight_norm_stays_bounded(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((64, 8))
        w = rng.standard_normal((8, 1)) * 0.1
        for _ in range(3000):
            w = oja_step(w, x, eta=1e-3)
        assert np.linalg.norm(w) < 10.0

    def test_divergence_raises_not_nan(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((32, 4)) * 50
        w = rng.standard_normal((4, 2))
        with pytest.raises(DivergenceError):
            for _ in range(100):
                w = oja_step(w, x, eta=1.0)
