"""Numerics substrate tests.

The SVD is checked two ways: against its own reconstruction identities and
against an independently written cyclic Jacobi eigensolver applied to
A^T A — so a defect in the library SVD path cannot silently self-certify.
"""

import numpy as np
import pytest

from sphere.linalg import (DEFAULT_EPS, NumericsError, as_matrix, frob_norm_sq,
                           gram, row_normalize, svd)


def jacobi_eigh(a, sweeps=100, tol=1e-13):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Deliberately independent of numpy.linalg: only rotations and indexing.
    Returns (eigenvalues desc, eigenvectors as columns).
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = np.sqrt(np.sum(a**2) - np.sum(np.diag(a) ** 2))
        if off < tol * np.sqrt(np.sum(np.diag(a) ** 2) + 1e-300):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = 0.5 * np.arctan2(2 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    order = np.argsort(-np.diag(a))
    return np.diag(a)[order], v[:, order]


class TestAsMatrix:
    def test_accepts_2d(self):
        m = as_matrix([[1.0, 2.0], [3.0, 4.0]])
        assert m.shape == (2, 2)

    def test_rejects_1d(self):
        with pytest.raises(NumericsError):
            as_matrix(np.ones(3))

    def test_rejects_nan(self):
        with pytest.raises(NumericsError):
            as_matrix(np.array([[np.nan, 0.0]]))

    def test_rejects_inf(self):
        with pytest.raises(NumericsError):
            as_matrix(np.array([[np.inf, 0.0]]))


class TestSvd:
    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((12, 7))
        res = svd(x)
        assert np.allclose((res.u * res.s) @ res.v.T, x, atol=1e-10)

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((9, 5))
        res = svd(x)
        assert np.allclose(res.u.T @ res.u, np.eye(5), atol=1e-10)
        assert np.allclose(res.v.T @ res.v, np.eye(5), atol=1e-10)

    def test_singular_values_descending_nonnegative(self):
        rng = np.random.default_rng(2)
        res = svd(rng.standard_normal((8, 8)))
        assert np.all(res.s >= 0)
        assert np.all(np.diff(res.s) <= 1e-12)

    def test_against_jacobi_oracle(self):
        # independent route: eigenvalues of X^T X are squared singular values
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10, 6))
        res = svd(x)
        evals, evecs = jacobi_eigh(x.T @ x)
        assert np.allclose(np.sqrt(np.clip(evals, 0, None)), res.s, atol=1e-8)
        # right singular vectors match up to sign
        for i in range(6):
            assert abs(abs(evecs[:, i] @ res.v[:, i]) - 1.0) < 1e-8

    def test_known_diagonal_case(self):
        x = np.diag([3.0, 2.0, 1.0])
        res = svd(x)
        assert np.allclose(res.s, [3.0, 2.0, 1.0])

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((7, 4))
        a = svd(x)
        b = svd(x.copy())
        assert np.array_equal(a.v, b.v)
        # largest-magnitude entry of each right singular vector is nonnegative
        for j in range(4):
            assert a.v[np.argmax(np.abs(a.v[:, j])), j] >= 0


class TestGram:
    def test_matches_product(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 4))
        assert np.allclose(gram(x), x @ x.T, atol=1e-12)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(6)
        g = gram(rng.standard_normal((50, 30)))
        assert np.array_equal(g, g.T)

    def test_psd(self):
        rng = np.random.default_rng(7)
        g = gram(rng.standard_normal((8, 3)))
        evals, _ = jacobi_eigh(g)
        assert evals.min() > -1e-10


class TestFrobNormSq:
    def test_hand_value(self):
        assert frob_norm_sq(np.array([[1.0, 2.0], [2.0, 1.0]])) == pytest.approx(10.0)

    def test_zero(self):
        assert frob_norm_sq(np.zeros((3, 3))) == 0.0


class TestRowNormalize:
    def test_unit_rows(self):
        rng = np.random.default_rng(8)
        z = row_normalize(rng.standard_normal((5, 9)))
        assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)

    def test_zero_row_maps_to_zero(self):
        z = row_normalize(np.zeros((2, 4)))
        assert np.allclose(z, 0.0)

    def test_eps_guard(self):
        # a row with norm below eps is divided by eps, not by its tiny norm
        a = np.zeros((1, 3))
        a[0, 0] = DEFAULT_EPS / 10
        z = row_normalize(a)
        assert np.linalg.norm(z) < 1.0
