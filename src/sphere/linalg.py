"""Dense linear algebra substrate: Gram products, Frobenius norms, thin SVD,
row normalization.

All functions operate on 2-D numpy arrays ("matrices", rows = samples) and
check finiteness at the public boundary.  Verification paths should pass
float64; float32 is acceptable for training paths.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_EPS = 1e-8


class NumericsError(ValueError):
    """Raised on invalid numeric input (non-finite entries, bad shapes)."""


def as_matrix(a, dtype=None) -> np.ndarray:
    """Validate `a` as a finite 2-D array, optionally casting dtype."""
    m = np.asarray(a, dtype=dtype)
    if m.ndim != 2:
        raise NumericsError(f"expected 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericsError("matrix contains non-finite entries")
    return m


@dataclass
class SvdResult:
    """Thin SVD A = U @ diag(s) @ V.T with U (B,r), s descending, V (N,r)."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def svd(a) -> SvdResult:
    """Thin SVD with a deterministic sign convention.

    Each right singular vector is flipped so that its largest-magnitude
    entry is nonnegative, which makes oracle comparisons reproducible.
    """
    m = as_matrix(a, dtype=np.float64)
    if min(m.shape) < 1:
        raise NumericsError("svd requires min(rows, cols) >= 1")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"SVD did not converge: {exc}") from exc
    v = vt.T
    # sign convention: largest-|entry| of each right singular vector >= 0
    idx = np.argmax(np.abs(v), axis=0)
    signs = np.sign(v[idx, np.arange(v.shape[1])])
    signs[signs == 0] = 1.0
    return SvdResult(u=u * signs, s=s, v=v * signs)


def gram(a) -> np.ndarray:
    """Gram matrix A @ A.T, explicitly symmetrized."""
    m = as_matrix(a)
    g = m @ m.T
    return 0.5 * (g + g.T)


def frob_norm_sq(a) -> float:
    """Squared Frobenius norm, sum of squared entries."""
    m = as_matrix(a)
    return float(np.sum(np.square(m, dtype=np.result_type(m, np.float64))))


def row_normalize(a) -> np.ndarray:
    """Divide each row by max(its L2 norm, DEFAULT_EPS).

    Rows with norm below DEFAULT_EPS are scaled by 1/DEFAULT_EPS (zero rows
    stay zero), so every output row has norm <= 1 and exactly 1 where the
    input row norm was >= DEFAULT_EPS.
    """
    m = as_matrix(a)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(norms, DEFAULT_EPS)
