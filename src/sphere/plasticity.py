"""Oja's rule: the Hebbian update with a decay term that keeps the weights
bounded, kept as the baseline for the structural loss.

Full-batch matrix form; used by the `oja-demo` command and the Oja
fixed-point acceptance criterion, not by the block-wise training loop.
"""

import numpy as np

from .linalg import NumericsError, as_matrix

DIVERGENCE_NORM_CAP = 1e12


class DivergenceError(NumericsError):
    """Weights became non-finite or unboundedly large."""


def oja_step(w, x, eta: float) -> np.ndarray:
    """The new W after one step W <- W + eta * (X^T Y - W Y^T Y), Y = X W."""
    if eta <= 0:
        raise NumericsError("learning rate must be positive")
    w, x = as_matrix(w), as_matrix(x)
    if x.shape[1] != w.shape[0]:
        raise NumericsError("input width does not match weight rows")
    y = x @ w
    w_new = w + eta * (x.T @ y - w @ (y.T @ y))
    if not np.all(np.isfinite(w_new)) or np.linalg.norm(w_new) > DIVERGENCE_NORM_CAP:
        raise DivergenceError("weights diverged under Oja's rule")
    return w_new
