"""Loss and analytic-gradient tests.

Gradients are verified against central finite differences computed here in
the test (independent of the library's own machinery), and the
orthogonality gradient's deliberate 1/4 constant is pinned exactly.  The
training objective (structural_grads) is pinned to the reference
evaluators sphere_loss and orth_loss, and to the closed-form Oja-equivalent
loss defined here: no command needs that loss, only this pin.
"""

import tracemalloc

import numpy as np
import pytest

from sphere.linalg import NumericsError, as_matrix, gram, row_normalize
from sphere.losses import (LossBundle, input_gram, orth_grad_linear, orth_loss,
                           sphere_grad_linear, sphere_loss, structural_grads)
from sphere.oracle import principal_projection


class SingularGramError(NumericsError):
    """Input Gram matrix is singular or numerically near-singular."""


def oja_equiv_loss(y, x, cond_cap: float = 1e10) -> float:
    """Oja-rule equivalent loss,
    1/4 Tr((K_Y - K_X) K_X^{-1} (K_Y - K_X)).

    Raises SingularGramError when X @ X.T is singular or its condition
    number exceeds `cond_cap` (the inverse term is the numerically fragile
    part of this objective).
    """
    y = as_matrix(y, dtype=np.float64)
    x = as_matrix(x, dtype=np.float64)
    if y.shape[0] != x.shape[0]:
        raise NumericsError("batch-size mismatch between Y and X")
    kx = gram(x)
    sv = np.linalg.svd(kx, compute_uv=False)
    if sv[0] == 0 or sv[-1] / sv[0] < 1.0 / cond_cap:
        raise SingularGramError("singular input Gram")
    diff = gram(y) - kx
    return 0.25 * float(np.trace(diff @ np.linalg.solve(kx, diff)))


def fd_grad(fun, w, h=1e-6):
    """Central finite-difference gradient of a scalar function of W."""
    g = np.zeros_like(w)
    it = np.nditer(w, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = w[i]
        w[i] = orig + h
        fp = fun()
        w[i] = orig - h
        fm = fun()
        w[i] = orig
        g[i] = (fp - fm) / (2 * h)
    return g


class TestOjaEquivLoss:
    def test_zero_at_identity(self):
        # full-width Y = X makes K_Y = K_X, loss 0
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 6))  # B < N: K_X full rank
        assert oja_equiv_loss(x, x) == pytest.approx(0.0, abs=1e-10)

    def test_singular_gram_raises(self):
        x = np.zeros((3, 3))
        with pytest.raises(SingularGramError):
            oja_equiv_loss(x, x)

    def test_rank_deficient_raises(self):
        # B > N makes X X^T singular
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 2))
        with pytest.raises(SingularGramError):
            oja_equiv_loss(x, x)

    def test_hand_value_diagonal(self):
        # X = I: loss = 1/4 sum (k_y,ii - 1)^2 for diagonal K_Y
        x = np.eye(3)
        y = np.diag([2.0, 1.0, 1.0]) ** 0.5  # K_Y = diag(2,1,1)
        assert oja_equiv_loss(y, x) == pytest.approx(0.25)


class TestSphereLoss:
    def test_zero_for_identical(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 5))
        assert sphere_loss(x, x) == pytest.approx(0.0)

    def test_hand_value_raw(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        z = np.array([[2.0, 0.0], [0.0, 1.0]])
        # K_Z - K_X = diag(3, 0)
        assert sphere_loss(z, x, normalize=False) == pytest.approx(9.0)

    def test_normalized_invariant_to_row_scaling(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 5))
        z = rng.standard_normal((6, 4))
        scaled = z * rng.uniform(0.5, 2.0, size=(6, 1))
        assert sphere_loss(scaled, x) == pytest.approx(sphere_loss(z, x))

    def test_permutation_equivariance(self):
        # permuting samples jointly leaves the loss unchanged
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 5))
        z = rng.standard_normal((8, 3))
        p = rng.permutation(8)
        assert sphere_loss(z[p], x[p], normalize=False) == pytest.approx(
            sphere_loss(z, x, normalize=False))

    def test_batch_mismatch_raises(self):
        with pytest.raises(NumericsError):
            sphere_loss(np.ones((3, 2)), np.ones((4, 2)))

    def test_lemma_lower_bound(self):
        # no width-M output can beat the closed-form optimum
        rng = np.random.default_rng(7)
        x = rng.standard_normal((10, 6))
        oracle = principal_projection(x, 3)
        for seed in range(5):
            z = np.random.default_rng(seed).standard_normal((10, 3))
            assert sphere_loss(z, x, normalize=False) >= oracle.min_loss - 1e-9


class TestSphereGrad:
    def test_matches_fd(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((7, 5))
        w = rng.standard_normal((5, 3)) * 0.5
        g = sphere_grad_linear(x, w)
        fd = fd_grad(lambda: sphere_loss(x @ w, x, normalize=False), w)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(g - fd) / denom) < 1e-5

    def test_zero_at_optimum(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((8, 5))
        from sphere.linalg import svd
        w = svd(x).v[:, :3]  # Y = X V_M is a stationary point
        assert np.max(np.abs(sphere_grad_linear(x, w))) < 1e-8

    def test_shape_mismatch_raises(self):
        with pytest.raises(NumericsError):
            sphere_grad_linear(np.ones((4, 3)), np.ones((2, 2)))


class TestOrth:
    def test_zero_for_orthonormal(self):
        q, _ = np.linalg.qr(np.random.default_rng(10).standard_normal((6, 4)))
        assert orth_loss(q, normalize=False) == pytest.approx(0.0, abs=1e-20)

    def test_hand_value(self):
        z = np.array([[2.0, 0.0], [0.0, 1.0]])
        # Z^T Z - I = diag(3, 0)
        assert orth_loss(z, normalize=False) == pytest.approx(9.0)

    def test_grad_direction_matches_exact(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((7, 4))
        w = rng.standard_normal((4, 3)) * 0.7
        g = orth_grad_linear(x, w)
        fd = fd_grad(lambda: orth_loss(x @ w, normalize=False), w)
        cos = np.sum(g * fd) / (np.linalg.norm(g) * np.linalg.norm(fd))
        assert cos >= 1 - 1e-8

    def test_grad_exactly_quarter_magnitude(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((7, 4))
        w = rng.standard_normal((4, 3)) * 0.7
        g = orth_grad_linear(x, w)
        fd = fd_grad(lambda: orth_loss(x @ w, normalize=False), w)
        assert np.allclose(4.0 * g, fd, rtol=1e-5, atol=1e-7)


class TestTotalLoss:
    """The bundle structural_grads returns: total = sphere + lam * orth."""

    def test_lambda_arithmetic(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((6, 5))
        z = rng.standard_normal((6, 4))
        bundle, _ = structural_grads(z, input_gram(x), lam=0.8)
        assert isinstance(bundle, LossBundle)
        assert bundle.total == pytest.approx(bundle.sphere + 0.8 * bundle.orth)

    def test_lambda_zero_drops_orth(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((5, 4))
        z = rng.standard_normal((5, 3))
        bundle, _ = structural_grads(z, input_gram(x), lam=0.0)
        assert bundle.total == pytest.approx(sphere_loss(z, x))


class TestStructuralGrads:
    @pytest.mark.parametrize("m", [5, 24])  # M < B and M > B
    def test_bundle_matches_reference_losses(self, m):
        # training path: both terms equal the row-normalized reference
        # evaluators up to rounding (those symmetrize their Grams, and
        # orth_loss works from singular values), and the penalty equals
        # ||Z^T Z - I||^2 formed in M x M
        rng = np.random.default_rng(15)
        x = rng.standard_normal((9, 20))
        z = rng.standard_normal((9, m)) * rng.uniform(0.5, 2.0, size=(9, 1))
        bundle, _ = structural_grads(z, input_gram(x), lam=0.8)
        assert bundle.sphere == pytest.approx(sphere_loss(z, x, normalize=True), rel=1e-12)
        assert bundle.orth == pytest.approx(orth_loss(z, normalize=True), rel=1e-12)
        zn = row_normalize(z)
        direct = np.sum((zn.T @ zn - np.eye(m)) ** 2)
        assert bundle.orth == pytest.approx(direct, rel=1e-12)

    def test_memory_stays_in_batch_space(self):
        # Z of 64 x 4096: an M x M Gram alone would be 64 times Z's size
        rng = np.random.default_rng(17)
        x = rng.standard_normal((64, 300))
        z = rng.standard_normal((64, 4096))
        kx = input_gram(x)
        tracemalloc.start()
        try:
            structural_grads(z, kx, lam=0.8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * z.nbytes

    def test_oja_term_matches_oja_equiv_loss(self):
        # The ridge r = 1e-6 tr(K)/B adds r to every eigenvalue of K, so each
        # eigen-direction's share of Tr(D K^{-1} D) shrinks by a factor
        # 1/(1 + r/lam_i): the trained value is below the exact one by a
        # relative amount in [0, r/lam_min].  B << N keeps K well conditioned.
        rng = np.random.default_rng(16)
        x = rng.standard_normal((8, 64))
        z = rng.standard_normal((8, 6))
        kx = input_gram(x)
        bundle, _ = structural_grads(z, kx, use_sphere=False, use_oja=True)
        ref = oja_equiv_loss(row_normalize(z), row_normalize(x))
        eigs = np.linalg.eigvalsh(kx)
        assert eigs[-1] / eigs[0] < 10.0
        bound = 1e-6 * np.trace(kx) / len(kx) / eigs[0]
        rel = (ref - bundle.sphere) / ref
        assert -1e-12 <= rel <= bound + 1e-12
