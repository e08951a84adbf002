"""Loss and analytic-gradient tests.

Gradients are verified against central finite differences computed here in
the test (independent of the library's own machinery), and structural_grads'
orthogonality gradient at lam = 1/4 is pinned to exactly 1/4 of the
penalty's derivative.  The training objective (structural_grads) is pinned
to the reference evaluators sphere_loss and orth_loss, to the closed-form
Oja-equivalent loss defined here (no command needs that loss, only this
pin), and to a reference that row-normalizes Z and X and applies the
normalisation's Jacobian explicitly, which the library folds into its
B x B coefficients.  raw_sphere_grads, the linear analyses' raw matching
term, is pinned bit for bit to that term written out as the objective's
arithmetic (raw_matching_grads).
"""

import numpy as np
import pytest

from sphere.linalg import DEFAULT_EPS, NumericsError, as_matrix, row_normalize
from sphere.losses import (LossBundle, input_gram, orth_loss, raw_sphere_grads,
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
    kx = x @ x.T
    sv = np.linalg.svd(kx, compute_uv=False)
    if sv[0] == 0 or sv[-1] / sv[0] < 1.0 / cond_cap:
        raise SingularGramError("singular input Gram")
    diff = y @ y.T - kx
    return 0.25 * float(np.trace(diff @ np.linalg.solve(kx, diff)))


def structural_grads_reference(z, x, lam, use_sphere, use_oja):
    """structural_grads on explicitly row-normalized rows of Z and X:
    dL/dZhat = A Zhat, then the Jacobian of z -> z / max(|z|, DEFAULT_EPS)
    row by row.  Returns ((sphere, orth, total), dL/dZ)."""
    x_hat = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), DEFAULT_EPS)
    kx = x_hat @ x_hat.T
    zn = np.linalg.norm(z, axis=1, keepdims=True)
    z_hat = z / np.maximum(zn, DEFAULT_EPS)
    kz = z_hat @ z_hat.T
    kd = kz - kx
    orth = float(np.sum(kz * kz) - 2.0 * np.trace(kz) + z.shape[1])
    match = float(np.sum(kd * kd)) if use_sphere else 0.0
    coef = 4.0 * kd if use_sphere else 0.0
    if use_oja:
        a = np.linalg.inv(kx + 1e-6 * np.trace(kx) / len(kx) * np.eye(len(kx), dtype=kx.dtype))
        ad = a @ kd
        match += 0.25 * float(np.trace(ad @ kd))
        coef = coef + 0.5 * (ad + ad.T)
    coef = coef + lam * 4.0 * (kz - np.eye(len(kz), dtype=kz.dtype))
    dz_hat = coef @ z_hat
    # rows clamped to norm DEFAULT_EPS were scaled by the constant 1/DEFAULT_EPS
    dot = np.sum(dz_hat * z_hat, axis=1, keepdims=True) * (zn >= DEFAULT_EPS)
    return (match, orth, match + lam * orth), (dz_hat - dot * z_hat) / np.maximum(zn, DEFAULT_EPS)


FORMS = {"sphere": (True, False), "oja": (False, True), "sphere+oja": (True, True)}


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


def raw_matching_grads(z, kx):
    """The raw matching term in the arithmetic the general objective used
    for it: D = Z Z^T - K_X, the loss sum(D * D) and dL/dZ = (4 D) Z.
    raw_sphere_grads scales D Z by 4 instead, which is exact."""
    kd = z @ z.T - kx
    return float((kd * kd).sum()), (4.0 * kd) @ z


def orth_grad_quarter(x, w):
    """X^T dL/dZ of structural_grads' penalty alone at lam = 1/4 for Z = X W:
    1/4 of the derivative of ||Zhat^T Zhat - I||_F^2, Zhat Z's unit rows."""
    return x.T @ structural_grads(x @ w, x, lam=0.25, use_sphere=False)[1]


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

    @pytest.mark.parametrize("b", [10, 64, 300])  # B below, at and above N = 32
    def test_triangular_factor_stands_in_for_x(self, b):
        # X^T X = R^T R, so the raw loss and the weight gradient X^T dL/dZ
        # at Z = X W are those at Z = R W, as train_linear_block relies on
        rng = np.random.default_rng(b)
        x = rng.standard_normal((b, 32))
        w = np.linalg.qr(rng.standard_normal((32, 8)))[0]
        r = np.linalg.qr(x, mode="r")
        assert r.shape == (min(b, 32), 32)
        lx, dzx = raw_sphere_grads(x @ w, input_gram(x))
        lr, dzr = raw_sphere_grads(r @ w, input_gram(r))
        assert lr == pytest.approx(lx, rel=1e-12)
        gx = x.T @ dzx
        assert np.abs(r.T @ dzr - gx).max() <= 1e-12 * np.abs(gx).max()


class TestRawSphereGrads:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("case, m", [("lemma", 4), ("lemma", 8), ("lemma", 16), ("study", 40)])
    def test_bit_equal_to_structural_grads(self, dtype, case, m):
        # the objective's raw arithmetic, raw_matching_grads, on the lemma's
        # Z = R W against K_R, R the 32 x 32 factor of a 64 x 32 X, and on the
        # linearity study's 256 x 40 head output against its 256 x 256 K_X
        rng = np.random.default_rng(m)
        if case == "lemma":
            x = np.linalg.qr(rng.standard_normal((64, 32)), mode="r").astype(dtype)
        else:
            x = rng.standard_normal((256, 64)).astype(dtype)
        kx = input_gram(x)
        z = x @ (rng.standard_normal((x.shape[1], m)) / np.sqrt(x.shape[1])).astype(dtype)
        loss, dz = raw_sphere_grads(z, kx)
        want_loss, want = raw_matching_grads(z, kx)
        assert loss == want_loss
        assert dz.dtype == want.dtype == dtype
        assert np.array_equal(dz, want)


class TestOrth:
    def test_zero_for_orthonormal(self):
        q, _ = np.linalg.qr(np.random.default_rng(10).standard_normal((6, 4)))
        assert orth_loss(q) == pytest.approx(0.0, abs=1e-20)

    def test_hand_value(self):
        z = np.array([[2.0, 0.0], [0.0, 1.0]])
        # Z^T Z - I = diag(3, 0)
        assert orth_loss(z) == pytest.approx(9.0)

    def test_grad_direction_matches_exact(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((7, 4))
        w = rng.standard_normal((4, 3)) * 0.7
        g = orth_grad_quarter(x, w)
        fd = fd_grad(lambda: orth_loss(row_normalize(x @ w)), w)
        cos = np.sum(g * fd) / (np.linalg.norm(g) * np.linalg.norm(fd))
        assert cos >= 1 - 1e-8

    def test_grad_exactly_quarter_magnitude(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((7, 4))
        w = rng.standard_normal((4, 3)) * 0.7
        g = orth_grad_quarter(x, w)
        fd = fd_grad(lambda: orth_loss(row_normalize(x @ w)), w)
        assert np.allclose(4.0 * g, fd, rtol=1e-5, atol=1e-7)

    def test_floor_when_wider_than_batch(self):
        # Z Z^T has only B eigenvalues, so with M > B the penalty is at least
        # M - B, reached exactly when Z's rows are orthonormal
        b, m = 6, 40
        rng = np.random.default_rng(15)
        x = rng.standard_normal((b, 10))
        q, _ = np.linalg.qr(rng.standard_normal((m, b)))
        bundle, _ = structural_grads(q.T, x, lam=0.8)
        assert bundle.orth == pytest.approx(m - b, rel=1e-12)
        bundle, _ = structural_grads(rng.standard_normal((b, m)), x, lam=0.8)
        assert bundle.orth > m - b


class TestTotalLoss:
    """The bundle structural_grads returns: total = sphere + lam * orth."""

    def test_lambda_arithmetic(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((6, 5))
        z = rng.standard_normal((6, 4))
        bundle, _ = structural_grads(z, x, lam=0.8)
        assert isinstance(bundle, LossBundle)
        assert bundle.total == pytest.approx(bundle.sphere + 0.8 * bundle.orth)

    def test_lambda_zero_drops_orth(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((5, 4))
        z = rng.standard_normal((5, 3))
        bundle, _ = structural_grads(z, x, lam=0.0)
        ref = sphere_loss(row_normalize(z), row_normalize(x), normalize=False)
        assert bundle.total == pytest.approx(ref)


class TestInputGram:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_product_in_any_column_order(self, dtype):
        # block_backward passes the block input's rows in memory order
        rng = np.random.default_rng(18)
        x = (rng.standard_normal((6, 40)) * rng.uniform(0.1, 10.0, size=(6, 1))).astype(dtype)
        want = x @ x.T
        for cols in (np.arange(40), rng.permutation(40)):
            kx = input_gram(x[:, cols])
            assert kx.dtype == dtype
            assert np.allclose(kx, want, rtol=0, atol=10 * np.finfo(dtype).eps * np.abs(want).max())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])  # 1e300 overflows in X X^T
    def test_non_finite_raises(self, bad):
        x = np.random.default_rng(19).standard_normal((4, 5))
        x[1, 2] = bad
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError):
            input_gram(x)


class TestStructuralGrads:
    @pytest.mark.parametrize("m", [5, 24])  # M < B and M > B
    def test_bundle_matches_reference_losses(self, m):
        # training path: both terms equal the reference evaluators on
        # row-normalized inputs up to rounding (those normalize the rows
        # before the Gram, and orth_loss works from singular values), and
        # the penalty equals ||Z^T Z - I||^2 formed in M x M
        rng = np.random.default_rng(15)
        x = rng.standard_normal((9, 20))
        z = rng.standard_normal((9, m)) * rng.uniform(0.5, 2.0, size=(9, 1))
        bundle, _ = structural_grads(z, x, lam=0.8)
        zn = row_normalize(z)
        ref = sphere_loss(zn, row_normalize(x), normalize=False)
        assert bundle.sphere == pytest.approx(ref, rel=1e-12)
        assert bundle.orth == pytest.approx(orth_loss(zn), rel=1e-12)
        direct = np.sum((zn.T @ zn - np.eye(m)) ** 2)
        assert bundle.orth == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-13), (np.float32, 1e-5)])
    @pytest.mark.parametrize("lam", [0.0, 0.8])
    @pytest.mark.parametrize("form", FORMS)
    def test_matches_row_normalized_reference(self, form, lam, dtype, tol):
        # rows 2 of Z and X are zero and rows 6 below DEFAULT_EPS: all are
        # clamped, so the zero rows stay zero and the small ones are scaled by
        # 1/DEFAULT_EPS.  Z's clamped rows' gradients dwarf the others, so
        # each row is compared relative to its own largest entry
        rng = np.random.default_rng(20)
        x = rng.standard_normal((10, 30)).astype(dtype)
        z = (rng.standard_normal((10, 24)) * rng.uniform(0.5, 2.0, size=(10, 1))).astype(dtype)
        x[2] = z[2] = 0.0
        x[6] *= 1e-10
        z[6] *= 1e-10
        use_sphere, use_oja = FORMS[form]
        bundle, dz = structural_grads(z, x, lam, use_sphere=use_sphere, use_oja=use_oja)
        want, ref = structural_grads_reference(z, x, lam, use_sphere, use_oja)
        assert dz.dtype == dtype
        assert np.all(np.abs(dz - ref).max(axis=1) <= tol * np.abs(ref).max(axis=1))
        for got, exp in zip((bundle.sphere, bundle.orth, bundle.total), want):
            assert got == pytest.approx(exp, rel=tol)

    def test_memory_stays_in_batch_space(self, traced_peak):
        # Z of 64 x 4096: an M x M Gram alone would be 64 times Z's size;
        # the training path reads Z only through Z Z^T and C Z, so dL/dZ is
        # its one Z-sized array, in every loss form
        rng = np.random.default_rng(17)
        x = rng.standard_normal((64, 300))
        z = rng.standard_normal((64, 4096))
        for form, (use_sphere, use_oja) in FORMS.items():
            _, peak = traced_peak(structural_grads, z, x, lam=0.8,
                                  use_sphere=use_sphere, use_oja=use_oja)
            assert peak < 1.25 * z.nbytes, form

    def test_oja_term_matches_oja_equiv_loss(self):
        # The ridge r = 1e-6 tr(K)/B adds r to every eigenvalue of K, so each
        # eigen-direction's share of Tr(D K^{-1} D) shrinks by a factor
        # 1/(1 + r/lam_i): the trained value is below the exact one by a
        # relative amount in [0, r/lam_min].  B << N keeps K well conditioned.
        rng = np.random.default_rng(16)
        x = rng.standard_normal((8, 64))
        z = rng.standard_normal((8, 6))
        bundle, _ = structural_grads(z, x, use_sphere=False, use_oja=True)
        ref = oja_equiv_loss(row_normalize(z), row_normalize(x))
        kx = row_normalize(x) @ row_normalize(x).T
        eigs = np.linalg.eigvalsh(kx)
        assert eigs[-1] / eigs[0] < 10.0
        bound = 1e-6 * np.trace(kx) / len(kx) / eigs[0]
        rel = (ref - bundle.sphere) / ref
        assert -1e-12 <= rel <= bound + 1e-12
