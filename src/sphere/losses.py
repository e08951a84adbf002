"""The structural-projection objective and its analytic weight gradients
in the linear case Y = X @ W.

``structural_grads`` is the objective's one definition: it returns the
loss bundle and dL/dZ that training and the linear analyses use, while
``sphere_loss`` and ``orth_loss`` evaluate single terms as references.
Every term is evaluated through B x B batch Grams (or Z's singular
values), never an M x M matrix.  Two evaluation paths exist on purpose:

* the training path (``normalize=True``, the default) row-normalizes its
  inputs first, which bounds loss magnitudes across datasets;
* the linear-analysis path (``normalize=False``) uses the raw matrices so
  it matches the closed-form SVD oracle exactly.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_EPS, NumericsError, as_matrix, frob_norm_sq, gram, row_normalize


@dataclass
class LossBundle:
    """Scalar losses for one batch: total = sphere + lam * orth."""

    sphere: float
    orth: float
    total: float


def sphere_loss(z, x, normalize: bool = True) -> float:
    """Structural-matching loss ||K_Z - K_X||_F^2 on the batch Grams.

    With ``normalize=True`` both arguments are row-normalized first
    (training path); with ``normalize=False`` the raw Grams are compared
    (oracle / linear-analysis path).
    """
    z = as_matrix(z)
    x = as_matrix(x)
    if z.shape[0] != x.shape[0]:
        raise NumericsError("batch-size mismatch between Z and X")
    if normalize:
        z = row_normalize(z)
        x = row_normalize(x)
    return frob_norm_sq(gram(z) - gram(x))


def input_gram(x, normalize: bool = True) -> np.ndarray:
    """Batch Gram K_X = X X^T of a flattened block input, row-normalized
    first on the training path: the `kx` argument of structural_grads."""
    if normalize:
        x = row_normalize(x)
    return x @ x.T


def structural_grads(z, kx, lam: float = 0.0, normalize: bool = True,
                     use_sphere: bool = True, use_oja: bool = False):
    """Loss bundle and dL/dZ of L = match(Z, K_X) + lam ||Z^T Z - I||_F^2.

    The matching term is ||K_Z - K_X||_F^2 (use_sphere), the ridge-Oja
    trace 1/4 Tr(D (K_X + rI)^{-1} D) with D = K_Z - K_X (use_oja), or
    their sum; the bundle's sphere slot reports it.  `kx` must come from
    input_gram with the same `normalize`.  With normalize=True, Z is
    row-normalized first and dL/dZ includes that map's Jacobian.

    All terms use K_Z = Z Z^T: the penalty is ||K_Z||^2 - 2 tr K_Z + M, its
    gradient 4 (K_Z - I) Z, and dL/dZ one B x B coefficient matrix times Z.
    """
    if normalize:
        zn = np.linalg.norm(z, axis=1, keepdims=True)
        z_hat = z / np.maximum(zn, DEFAULT_EPS)
    else:
        z_hat = z
    kz = z_hat @ z_hat.T
    kd = kz - kx
    orth = float(np.sum(kz * kz) - 2.0 * np.trace(kz) + z.shape[1])
    match = float(np.sum(kd * kd)) if use_sphere else 0.0
    coef = 4.0 * kd if use_sphere else 0.0
    if use_oja:
        # ridge keeps the inverse usable on near-singular batch Grams
        a = np.linalg.inv(kx + 1e-6 * np.trace(kx) / kx.shape[0] * np.eye(kx.shape[0], dtype=kx.dtype))
        ad = a @ kd
        match += 0.25 * float(np.trace(ad @ kd))
        coef = coef + 0.5 * (ad + ad.T)
    if lam != 0.0:
        kz[np.diag_indices_from(kz)] -= 1.0
        coef = coef + lam * 4.0 * kz
    dz = coef @ z_hat
    if normalize:
        # rows clamped to norm DEFAULT_EPS were scaled by the constant 1/DEFAULT_EPS
        dot = np.sum(dz * z_hat, axis=1, keepdims=True) * (zn >= DEFAULT_EPS)
        dz = (dz - dot * z_hat) / np.maximum(zn, DEFAULT_EPS)
    return LossBundle(sphere=match, orth=orth, total=match + lam * orth), dz


def sphere_grad_linear(x, w) -> np.ndarray:
    """Analytic gradient of ||Y Y^T - X X^T||_F^2 wrt W for Y = X @ W:
    X^T dL/dY = 4 X^T (Y Y^T - X X^T) Y.  Uses raw (unnormalized) X."""
    x = as_matrix(x)
    w = as_matrix(w)
    if x.shape[1] != w.shape[0]:
        raise NumericsError("shape mismatch: X cols != W rows")
    _, dy = structural_grads(x @ w, input_gram(x, normalize=False), normalize=False)
    return x.T @ dy


def orth_loss(z, normalize: bool = True) -> float:
    """Column-orthogonality penalty ||Z^T Z - I||_F^2 = sum (s^2 - 1)^2 over
    Z's singular values s, plus 1 per zero eigenvalue of Z^T Z; exact near
    an orthonormal Z, where ||K_Z||^2 - 2 tr K_Z + M cancels."""
    z = as_matrix(z)
    if normalize:
        z = row_normalize(z)
    s = np.linalg.svd(z, compute_uv=False)
    return float(np.sum((s * s - 1.0) ** 2) + (z.shape[1] - len(s)))


def orth_grad_linear(x, w) -> np.ndarray:
    """Weight gradient of the orthogonality penalty for Y = X @ W:
    X^T Y (Y^T Y - I) = X^T (Y Y^T - I) Y.

    It equals exactly 1/4 of the derivative of ||Y^T Y - I||_F^2 (the
    direction is identical; only the constant differs).
    """
    x = as_matrix(x)
    w = as_matrix(w)
    if x.shape[1] != w.shape[0]:
        raise NumericsError("shape mismatch: X cols != W rows")
    y = x @ w
    ky = y @ y.T
    ky[np.diag_indices_from(ky)] -= 1.0
    return x.T @ (ky @ y)
