"""Oja's rule: the Hebbian update with a decay term that keeps the weights
bounded, kept as the baseline for the structural loss.

Full-batch matrix form; used by the `oja-demo` command and the Oja
fixed-point acceptance criterion, not by the block-wise training loop.
"""

from dataclasses import dataclass, replace

import numpy as np

from .linalg import NumericsError, as_matrix

DIVERGENCE_NORM_CAP = 1e12


class DivergenceError(RuntimeError):
    """Weights became non-finite or unboundedly large."""


@dataclass
class RuleState:
    w: np.ndarray
    eta: float

    def __post_init__(self):
        self.w = as_matrix(self.w)
        if self.eta <= 0:
            raise NumericsError("learning rate must be positive")


def oja_step(state: RuleState, x) -> RuleState:
    """W <- W + eta * (X^T Y - W Y^T Y) with Y = X W."""
    x = as_matrix(x)
    if x.shape[1] != state.w.shape[0]:
        raise NumericsError("input width does not match weight rows")
    y = x @ state.w
    w_new = state.w + state.eta * (x.T @ y - state.w @ (y.T @ y))
    if not np.all(np.isfinite(w_new)) or np.linalg.norm(w_new) > DIVERGENCE_NORM_CAP:
        raise DivergenceError("weights diverged under Oja's rule")
    return replace(state, w=w_new)
