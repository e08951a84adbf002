"""The structural-projection objective and its analytic weight gradients
in the linear case Y = X @ W.

``structural_grads`` is the objective's one definition: training uses its
loss bundle and dL/dZ.  The linear analyses take the raw matching term from
``raw_sphere_grads``, which tests/test_losses.py pins to it bit for bit, and
``sphere_loss`` and ``orth_loss`` evaluate single terms as references.
Every term is evaluated through B x B batch Grams (or Z's singular
values), never an M x M matrix.  ``normalize`` selects one of two modes:

* training (``normalize=True``, the default) row-normalizes the inputs,
  which bounds loss magnitudes across datasets, with the norms read off
  the Gram's diagonal and the Jacobian folded into B x B coefficients;
* linear analysis (``normalize=False``) uses the raw matrices, so it
  matches the closed-form SVD oracle exactly.

Every row normalisation is ``_normalize_gram``'s, and ``sphere_loss``
reads both its Grams through ``input_gram``.  ``orth_loss`` is raw-only.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_EPS, NumericsError, as_matrix, frob_norm_sq


@dataclass
class LossBundle:
    """Scalar losses for one batch: total = sphere + lam * orth."""

    sphere: float
    orth: float
    total: float


def sphere_loss(z, x, normalize: bool = True) -> float:
    """Structural-matching loss ||K_Z - K_X||_F^2 on the input_gram batch
    Grams: row-normalized with ``normalize=True`` (training mode), raw with
    ``normalize=False`` (oracle / linear-analysis mode)."""
    z = as_matrix(z)
    x = as_matrix(x)
    if z.shape[0] != x.shape[0]:
        raise NumericsError("batch-size mismatch between Z and X")
    return frob_norm_sq(input_gram(z, normalize) - input_gram(x, normalize))


def input_gram(x, normalize: bool = True) -> np.ndarray:
    """Batch Gram K_X = X X^T of a block input's (B, D) rows in any column
    order, the `kx` of structural_grads; on the training path D (X X^T) D,
    D = diag(1 / max(row norm, DEFAULT_EPS)) with the norms read off the
    diagonal.  Raises NumericsError when K_X is not finite."""
    k = as_matrix(x @ x.T)
    if normalize:
        _normalize_gram(k)
    return k


def _normalize_gram(k):
    """Scale k = X X^T in place to the Gram of X's rows over max(norm,
    DEFAULT_EPS); returns the norms and the row scales."""
    n = np.sqrt(np.diagonal(k))
    d = 1.0 / np.maximum(n, DEFAULT_EPS)
    k *= np.outer(d, d)
    return n, d


def structural_grads(z, kx, lam: float = 0.0, normalize: bool = True,
                     use_sphere: bool = True, use_oja: bool = False):
    """Loss bundle and dL/dZ of L = match(Z, K_X) + lam ||Z^T Z - I||_F^2.

    The matching term is ||K_Z - K_X||_F^2 (use_sphere), the ridge-Oja
    trace 1/4 Tr(D (K_X + rI)^{-1} D) with D = K_Z - K_X (use_oja), or
    their sum; the bundle's sphere slot reports it.  `kx` must come from
    input_gram with the same `normalize`.  With normalize=True, Z's rows
    are normalized as input_gram does and dL/dZ includes that map's Jacobian.

    All terms use K_Z: the penalty is ||K_Z||^2 - 2 tr K_Z + M, its gradient
    4 (K_Z - I) Z, and dL/dZ = C Z, so only Z Z^T and C Z read Z; with
    normalize=True, C = S (A - diag(rowsum(A * K_Z))) S, S the row scaling
    and A the coefficients of the normalized rows (clamped rows skip the sum).
    """
    kz = z @ z.T
    if normalize:
        zn, scale = _normalize_gram(kz)
    kd = kz - kx
    orth = float((kz * kz).sum() - 2.0 * kz.trace() + z.shape[1])
    match = float((kd * kd).sum()) if use_sphere else 0.0
    coef = 4.0 * kd if use_sphere else 0.0
    if use_oja:
        # ridge keeps the inverse usable on near-singular batch Grams
        a = np.linalg.inv(kx + 1e-6 * np.trace(kx) / kx.shape[0] * np.eye(kx.shape[0], dtype=kx.dtype))
        ad = a @ kd
        match += 0.25 * float(np.trace(ad @ kd))
        coef = coef + 0.5 * (ad + ad.T)
    if lam != 0.0:
        coef = coef + lam * 4.0 * (kz - np.eye(len(kz), dtype=kz.dtype))
    if normalize:
        # rows clamped to norm DEFAULT_EPS were scaled by the constant 1/DEFAULT_EPS
        coef[np.diag_indices_from(coef)] -= np.sum(coef * kz, axis=1) * (zn >= DEFAULT_EPS)
        coef *= np.outer(scale, scale)
    return LossBundle(sphere=match, orth=orth, total=match + lam * orth), coef @ z


def raw_sphere_grads(z, kx):
    """Raw matching loss ||Z Z^T - K_X||_F^2 and dL/dZ = 4 (Z Z^T - K_X) Z: the
    bits of structural_grads(z, kx, normalize=False)'s sphere slot and dL/dZ."""
    kd = z @ z.T
    kd -= kx
    dz = kd @ z
    dz *= 4.0
    return float((kd * kd).sum()), dz


def sphere_grad_linear(x, w) -> np.ndarray:
    """Analytic gradient of ||Y Y^T - X X^T||_F^2 wrt W for Y = X @ W:
    X^T dL/dY = 4 X^T (Y Y^T - X X^T) Y, from raw_sphere_grads on raw X."""
    x = as_matrix(x)
    w = as_matrix(w)
    if x.shape[1] != w.shape[0]:
        raise NumericsError("shape mismatch: X cols != W rows")
    _, dy = raw_sphere_grads(x @ w, input_gram(x, normalize=False))
    return x.T @ dy


def orth_loss(z) -> float:
    """Column-orthogonality penalty ||Z^T Z - I||_F^2 of the raw Z: sum
    (s^2 - 1)^2 over Z's singular values s, plus 1 per zero eigenvalue of
    Z^T Z; exact near an orthonormal Z, where ||K_Z||^2 - 2 tr K_Z + M
    cancels."""
    z = as_matrix(z)
    s = np.linalg.svd(z, compute_uv=False)
    return float(np.sum((s * s - 1.0) ** 2) + (z.shape[1] - len(s)))

