"""The structural-projection objective and its analytic weight gradients
in the linear case Y = X @ W.

Every term is evaluated through B x B batch Grams from ``input_gram`` (or
Z's singular values), never an M x M matrix, in one of two modes:

* training: ``structural_grads``, the objective's one definition, row-
  normalizes Z and the block input, which bounds loss magnitudes across
  datasets, with ``_normalize_gram`` reading the norms off each Gram's
  diagonal and the Jacobian folded into B x B coefficients;
* linear analysis: ``raw_sphere_grads``, the raw matching term, and
  ``sphere_grad_linear`` use the raw matrices, so they match the
  closed-form SVD oracle exactly.

``sphere_loss`` (either mode) and ``orth_loss`` (raw) are references.
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
    """Structural-matching loss ||K_Z - K_X||_F^2 on the batch Grams:
    row-normalized with ``normalize=True`` (training mode), raw with
    ``normalize=False`` (oracle / linear-analysis mode)."""
    z = as_matrix(z)
    x = as_matrix(x)
    if z.shape[0] != x.shape[0]:
        raise NumericsError("batch-size mismatch between Z and X")
    kz, kx = input_gram(z), input_gram(x)
    for k in (kz, kx) if normalize else ():
        _normalize_gram(k)
    return frob_norm_sq(kz - kx)


def input_gram(x) -> np.ndarray:
    """Raw batch Gram K_X = X X^T of a block input's (B, D) rows in any
    column order.  Raises NumericsError when K_X is not finite."""
    return as_matrix(x @ x.T)


def _normalize_gram(k):
    """Scale k = X X^T in place to the Gram of X's rows over max(norm,
    DEFAULT_EPS); returns the norms and the row scales."""
    n = np.sqrt(np.diagonal(k))
    d = 1.0 / np.maximum(n, DEFAULT_EPS)
    k *= np.outer(d, d)
    return n, d


def structural_grads(z, x, lam: float = 0.0, use_sphere: bool = True, use_oja: bool = False):
    """Loss bundle and dL/dZ of L = match(Z, K_X) + lam ||Z^T Z - I||_F^2 on
    row-normalized Z and X, X the block input's (B, D) rows in any column
    order.  The matching term is ||K_Z - K_X||_F^2 (use_sphere), the
    ridge-Oja trace 1/4 Tr(D (K_X + rI)^{-1} D) with D = K_Z - K_X
    (use_oja), or their sum; the bundle's sphere slot reports it.

    All terms use K_Z: the penalty is ||K_Z||^2 - 2 tr K_Z + M, its gradient
    4 (K_Z - I) Z, and dL/dZ = C Z, so only Z Z^T and C Z read Z, with
    C = S (A - diag(rowsum(A * K_Z))) S the normalisation's Jacobian folded
    in, S the row scaling and A the coefficients of the normalized rows
    (clamped rows skip the sum).
    """
    kx = input_gram(x)
    _normalize_gram(kx)
    kz = z @ z.T
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
    # rows clamped to norm DEFAULT_EPS were scaled by the constant 1/DEFAULT_EPS
    coef[np.diag_indices_from(coef)] -= np.sum(coef * kz, axis=1) * (zn >= DEFAULT_EPS)
    coef *= np.outer(scale, scale)
    return LossBundle(sphere=match, orth=orth, total=match + lam * orth), coef @ z


def raw_sphere_grads(z, kx):
    """Raw matching loss ||Z Z^T - K_X||_F^2 and dL/dZ = 4 (Z Z^T - K_X) Z for
    the raw K_X of input_gram, in five numpy calls."""
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
    _, dy = raw_sphere_grads(x @ w, input_gram(x))
    return x.T @ dy


def orth_loss(z) -> float:
    """Column-orthogonality penalty ||Z^T Z - I||_F^2 of the raw Z: sum
    (s^2 - 1)^2 over Z's singular values s, plus 1 per zero eigenvalue of
    Z^T Z; exact near an orthonormal Z, where ||K_Z||^2 - 2 tr K_Z + M
    cancels."""
    z = as_matrix(z)
    s = np.linalg.svd(z, compute_uv=False)
    return float(np.sum((s * s - 1.0) ** 2) + (z.shape[1] - len(s)))

