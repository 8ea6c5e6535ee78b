"""Spectral diagnostics and bound calculators.

Everything downstream of a kernel matrix lives here: eigendecomposition
reports, the closed-form squared-loss training dynamics, the convergence and
generalization bound formulas, and the conditioning landscape comparing the
flat and permutation-invariant architectures.
"""

from dataclasses import dataclass

import numpy as np

from .errors import RangeViolationError, UnsupportedConstantError
from .kernels import gnn_kernel_function, mlp_kernel_function
from .netsim import gaussian_node_dataset

__all__ = [
    "SpectralReport",
    "eig_sym",
    "kernel_dynamics",
    "activation_constant",
    "thm3_bounds",
    "generalization_bound",
    "condition_landscape",
]

PINV_CUTOFF = 1e-10
RANGE_TOL = 1e-6

# c_{p, sigma} lookup: (degree, activation) -> constant.  Only the two pairs
# with published values exist; callers decide what a missing pair means.
_ACTIVATION_CONSTANTS = {
    (2, "quadratic"): 1.0,
    (2, "relu"): 1.0 / (2.0 * np.pi),
}


@dataclass(frozen=True)
class SpectralReport:
    """Eigendecomposition summary of a symmetric kernel.

    eigenvalues are sorted descending and eigenvectors[:, i] matches
    eigenvalues[i]; alignment[i] = (v_i . y)^2 when labels are supplied.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    condition_number: float
    trace: float
    alignment: np.ndarray | None = None


def eig_sym(H, y=None):
    """Eigendecomposition report of (H + H^T)/2.

    condition_number is lambda_max / lambda_min, infinite when the smallest
    eigenvalue is not positive.
    """
    A = np.asarray(H, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("kernel contains non-finite entries")
    A = (A + A.T) / 2.0
    vals, vecs = np.linalg.eigh(A)
    vals, vecs = vals[::-1].copy(), vecs[:, ::-1].copy()
    lam_min, lam_max = vals[-1], vals[0]
    cond = float(lam_max / lam_min) if lam_min > 0 else float("inf")
    alignment = None
    if y is not None:
        y = np.asarray(y, dtype=float)
        if y.shape != (A.shape[0],):
            raise ValueError("label vector has wrong length")
        alignment = (vecs.T @ y) ** 2
    return SpectralReport(
        eigenvalues=vals,
        eigenvectors=vecs,
        condition_number=cond,
        trace=float(np.trace(A)),
        alignment=alignment,
    )


def kernel_dynamics(H, y, times):
    """Exact squared-loss gradient-flow trajectory: the residuals
    y - u(t) = exp(-Ht) y, shape (len(times), m).

    Computed through the eigendecomposition (exact for symmetric H), never
    by series truncation.  Negative eigenvalues from floating-point noise
    are clamped to zero.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise ValueError("times must be nonnegative")
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("labels must be finite")
    rep = eig_sym(H)
    lam = np.maximum(rep.eigenvalues, 0.0)
    V = rep.eigenvectors
    c0 = V.T @ y                                       # initial mode masses
    decay = np.exp(-np.outer(times, lam))              # (T, m)
    coeffs = decay * c0
    return coeffs @ V.T


def activation_constant(p_degree, activation):
    """c_{p, sigma} from the built-in table."""
    key = (int(p_degree), activation)
    if key not in _ACTIVATION_CONSTANTS:
        raise UnsupportedConstantError(
            f"no constant for (p={p_degree}, {activation})")
    return float(_ACTIVATION_CONSTANTS[key])


def thm3_bounds(lambdas, beta_norm, p_degree, c, times):
    """Convergence-bound curves for the two architectures:

        gnn(t) = exp(-c * sum(lambda) * t) * ||beta||^p
        mlp(t) = n * exp(-c * min(lambda) * t) * ||beta||^p

    gnn(t) <= mlp(t) for every t >= 0 and n >= 1.
    """
    lam = np.asarray(lambdas, dtype=float)
    if np.any(lam < 0):
        raise ValueError("lambdas must be nonnegative")
    if c <= 0:
        raise ValueError("c must be positive")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    n = len(lam)
    target = float(beta_norm) ** p_degree
    gnn = np.exp(-c * lam.sum() * times) * target
    mlp = n * np.exp(-c * lam.min() * times) * target
    return gnn, mlp


def generalization_bound(H, y, m, delta):
    """Theorem-4 style population-loss bound:

        sqrt(y^T H^{-1} y * Tr(H)) / m + sqrt(log(1/delta) / m)

    H is inverted through its eigendecomposition; eigenvalues below
    1e-10 * lambda_max are excluded pseudo-inverse directions, and a label
    vector with more than 1e-6 relative mass outside the retained range
    space is rejected rather than silently projected.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    A = np.asarray(H, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.shape[0] != m or y.shape != (m,):
        raise ValueError("m must match the kernel dimension and label length")
    rep = eig_sym(A)
    lam, V = rep.eigenvalues, rep.eigenvectors
    cutoff = PINV_CUTOFF * max(lam[0], 0.0)
    keep = lam > cutoff
    coeffs = V.T @ y
    dropped = coeffs[~keep]
    ynorm = np.linalg.norm(y)
    if ynorm > 0 and np.linalg.norm(dropped) > RANGE_TOL * ynorm:
        raise RangeViolationError(
            "labels have mass outside the kernel's range space"
        )
    quad = float(np.sum(coeffs[keep] ** 2 / lam[keep]))
    return float(np.sqrt(quad * rep.trace) / m + np.sqrt(np.log(1.0 / delta) / m))


def _natural_condition_number(H, Y):
    """Condition number of Y^T H Y — the kernel-flow curvature restricted to
    the architecture's representable linear targets (columns of Y span the
    natural parameter directions: one per input coordinate)."""
    M = Y.T @ (H @ Y)
    M = (M + M.T) / 2.0
    vals = np.linalg.eigvalsh(M)
    if vals[0] <= 0:
        return float("inf")
    return float(vals[-1] / vals[0])


def condition_landscape(n_list, samples=300, seed=0, node_dim=4, activation="relu"):
    """Conditioning of the two kernels against graph size n.

    For each n, draws ``samples`` graphs of n i.i.d. standard-Gaussian
    node features (dimension ``node_dim``) and evaluates the condition
    number each architecture exposes to gradient flow on its natural
    linear target family: the flat kernel quadratic form over flattened
    features for the MLP, the pairwise-sum kernel quadratic form over
    per-graph node sums for the GNN.  At n = 1 the two are identical by
    construction.  Returns one (n, cond_mlp, cond_gnn) row per n.
    """
    rows = []
    for n in n_list:
        if n < 1:
            raise ValueError("each n must be >= 1")
        ds = gaussian_node_dataset(n, samples, node_dim, seed)
        nodes = ds.node_features
        flat = ds.flat_features
        H_mlp = mlp_kernel_function(flat, None, activation)
        H_gnn = gnn_kernel_function(nodes, activation)
        cond_mlp = _natural_condition_number(H_mlp, flat)
        cond_gnn = _natural_condition_number(H_gnn, nodes.sum(axis=1))
        rows.append((int(n), cond_mlp, cond_gnn))
    return rows
