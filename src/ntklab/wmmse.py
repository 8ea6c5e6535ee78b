"""WMMSE baseline for weighted sum-rate power control.

The classic alternating updates in the scalar (SISO) form, parameterized by
b = sqrt(p) with the box constraint handled by clamping b to [0, 1] each
round.  Serves as the near-optimal oracle the trained networks are measured
against.
"""

import numpy as np

from .errors import DegenerateInputError

__all__ = ["wmmse_batch"]


def wmmse_batch(mags, sigma2s, weights, max_iters=100):
    """Vectorized WMMSE over a batch (fixed iteration count, starting from
    full power).  The objective is monotone non-decreasing in the iteration
    count up to floating-point slack.

    mags (m,K,K), sigma2s (m,K), weights (m,K) -> powers (m,K).  A sample
    whose weights are all zero has no objective (its update is 0/0) and
    raises DegenerateInputError.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    unweighted = np.flatnonzero(~np.any(weights, axis=1))
    if unweighted.size:
        raise DegenerateInputError(
            f"sample {unweighted[0]} has all-zero weights: WMMSE is undefined")
    G = mags ** 2
    diag = np.einsum("mkk->mk", mags)
    b = np.ones_like(diag)
    for _ in range(max_iters):
        f = diag * b / (np.einsum("mki,mi->mk", G, b ** 2) + sigma2s)
        v = 1.0 / (1.0 - f * diag * b)
        num = weights * v * f * diag
        den = np.einsum("mk,mki->mi", weights * v * f ** 2, G)
        # den is 0 only where num is 0 too, as for a zero-weight user with
        # no cross gain to any weighted user; such a user gets power 0
        b = np.clip(np.divide(num, den, out=np.zeros_like(num), where=den > 0),
                    0.0, 1.0)
    return b ** 2
