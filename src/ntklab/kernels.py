"""Neural tangent kernels three ways: closed form, Monte Carlo, empirical.

All kernels correspond to the two-layer parameterization
f(x) = (1/sqrt(r)) * sum_r a_r * sigma(w_r . x), with w_r ~ N(0, I), signs
a_r in {-1, +1} fixed, and only the first layer trained.  The closed forms
are the infinite-width limits:

    relu:       H(x, z) = (x . z) * (pi - arccos(rho)) / (2 pi),
                rho = (x . z)/(|x||z|) clamped to [-1, 1]
    quadratic:  sigma(u) = u^2, so sigma'(u) = 2u and
                H(x, z) = (x . z) * 4 E[(w.x)(w.z)] = 4 (x . z)^2

The permutation-invariant (GNN) kernel is the same base network applied per
node with a sum readout, giving the pairwise sum over node pairs.  Node-set
arrays are evaluated in square sample blocks of about ``_BLOCK_ENTRIES``
base-kernel entries each, so memory stays bounded whatever m is; only the
upper block triangle is evaluated, and each mirror block is filled from its
transposed base block.  In ``mc_ntk``, flat (m, d) samples select the
flat kernel and (m, n, d) node sets the sum-readout one.

Kernels persist as one text format, ``save_kernel_csv``: 17 significant
digits, so a saved kernel loads back bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .artifacts import atomic_write, csv_text
from .errors import DegenerateInputError
from .rng import DOMAIN_MC, stream

__all__ = [
    "KernelMatrix",
    "analytic_ntk_mlp",
    "analytic_ntk_gnn",
    "mc_ntk",
    "empirical_ntk",
    "mlp_kernel_function",
    "gnn_kernel_function",
    "save_kernel_csv",
    "load_kernel_csv",
]

SYMMETRY_TOL = 1e-10
# entries of one base-kernel block in gnn_kernel_function (8 MB of float64)
_BLOCK_ENTRIES = 1_000_000


@dataclass(frozen=True)
class KernelMatrix:
    """m x m symmetric Gram matrix, checked finite and symmetric."""

    entries: np.ndarray

    def __post_init__(self):
        H = np.asarray(self.entries, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError("kernel must be square")
        if not np.all(np.isfinite(H)):
            raise ValueError("kernel contains non-finite entries")
        asym = np.abs(H - H.T)
        scale = np.maximum(1.0, np.abs(H))
        if np.any(asym > SYMMETRY_TOL * scale):
            raise ValueError("kernel is not symmetric within tolerance")
        object.__setattr__(self, "entries", H)


def _check_samples(X):
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValueError("samples contain non-finite entries")
    norms = np.linalg.norm(X, axis=-1)
    if np.any(norms == 0.0):
        raise DegenerateInputError("zero sample vector: kernel angle undefined")
    return X, norms


def mlp_kernel_function(X, Z=None, activation="relu"):
    """Base-kernel values between two sample sets (plain ndarray)."""
    X, nx = _check_samples(np.atleast_2d(X))
    if Z is None:
        Z, nz = X, nx
    else:
        Z, nz = _check_samples(np.atleast_2d(Z))
    G = X @ Z.T
    if activation == "relu":
        # one buffer, in place, in the order G * (pi - arccos(rho)) / (2 pi)
        K = np.multiply.outer(nx, nz)
        np.divide(G, K, out=K)
        np.clip(K, -1.0, 1.0, out=K)
        np.arccos(K, out=K)
        np.subtract(np.pi, K, out=K)
        np.multiply(G, K, out=K)
        K /= 2.0 * np.pi
        return K
    if activation == "quadratic":
        return 4.0 * G ** 2
    raise ValueError(f"unknown activation {activation!r}")


def _pair_sums(base):
    """(s, na, s2, nb) base-kernel block -> (s, s2) sums over node pairs.

    Each first node's row is summed over the second node (numpy's pairwise
    sum along the contiguous axis), then the rows are added in order.  The
    order is the same whatever the block's shape; a numpy reduction over
    both node axes, or over the first alone, changes it where a size-1 axis
    lets numpy merge axes.
    """
    rows = base.sum(axis=3)
    out = np.zeros((base.shape[0], base.shape[2]))
    for k in range(base.shape[1]):
        out += rows[:, k]
    return out


def gnn_kernel_function(nodes, activation="relu"):
    """Pairwise-sum kernel of node-feature sets: an (m, n, d) array gives
    H (m, m), H[a, b] = sum over node pairs of the base kernel.  Input that
    is not a 3-D array raises ValueError.

    The samples are evaluated in square blocks whose base kernel holds
    about ``_BLOCK_ENTRIES`` entries (8 MB), so the temporaries stay a few
    such blocks whatever m is.  Only the blocks on and above the diagonal
    are evaluated; each mirror block is filled from the transposed base
    block, summed in the order the mirror's own evaluation would use.
    Every entry is summed in the same order whatever the block size; only
    the BLAS product that forms the base Gram may round differently at
    different block shapes.
    """
    nodes = np.asarray(nodes)
    if nodes.ndim != 3:
        raise ValueError("node features must be (samples, nodes, dim) arrays")
    m, n, d = nodes.shape
    step = max(1, int(np.sqrt(_BLOCK_ENTRIES / max(n * n, 1))))
    out = np.empty((m, m))
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        for lo2 in range(lo, m, step):
            hi2 = min(lo2 + step, m)
            base = mlp_kernel_function(
                nodes[lo:hi].reshape((hi - lo) * n, d),
                nodes[lo2:hi2].reshape((hi2 - lo2) * n, d), activation,
            ).reshape(hi - lo, n, hi2 - lo2, n)
            out[lo:hi, lo2:hi2] = _pair_sums(base)
            if lo2 > lo:
                out[lo2:hi2, lo:hi] = _pair_sums(
                    np.ascontiguousarray(base.transpose(2, 3, 0, 1)))
    return out


def analytic_ntk_mlp(X, activation="relu"):
    """Closed-form infinite-width kernel of the flat two-layer net."""
    H = mlp_kernel_function(X, None, activation)
    H = (H + H.T) / 2.0
    return KernelMatrix(H)


def analytic_ntk_gnn(nodes, activation="relu"):
    """Closed-form kernel of the shared-per-node net with sum readout.

    Reduces entrywise to analytic_ntk_mlp when every graph has one node.
    """
    H = gnn_kernel_function(nodes, activation)
    H = (H + H.T) / 2.0
    return KernelMatrix(H)


def _sigma_prime(Z, activation):
    if activation == "relu":
        return (Z > 0).astype(float)
    if activation == "quadratic":
        return 2.0 * Z
    raise ValueError(f"unknown activation {activation!r}")


def _first_layer_gram(X, W, activation):
    """Gram matrix of first-layer parameter gradients of the two-layer net
    with first layer W (r, d); the +-1 output signs cancel.  Flat (m, d)
    inputs give the plain kernel, (m, n, d) node sets the sum-readout one."""
    r = W.shape[0]
    if X.ndim == 2:
        D = _sigma_prime(X @ W.T, activation)                   # (m, r)
        return (X @ X.T) * (D @ D.T) / r
    m, n, d = X.shape
    D = _sigma_prime(X.reshape(m * n, d) @ W.T, activation).reshape(m, n, r)
    T = np.einsum("mnr,mnd->mrd", D, X, optimize=True)
    return np.einsum("ird,jrd->ij", T, T, optimize=True) / r


def mc_ntk(X, draws, width_per_draw, seed, activation="relu"):
    """Monte-Carlo estimate of the NTK: average of per-draw Gram matrices
    over Gaussian first layers, of the flat kernel for (m, d) samples and
    of the sum-readout kernel for (m, n, d) node sets.  Unbiased for the
    analytic kernel; exactly symmetric PSD by construction; deterministic
    given seed (each draw has its own counter stream, so the draw schedule
    is irrelevant).
    """
    if draws < 1 or width_per_draw < 1:
        raise ValueError("draws and width_per_draw must be >= 1")
    X = np.asarray(X, dtype=float)
    if X.ndim == 2:
        X, _ = _check_samples(X)
    elif X.ndim != 3:
        raise ValueError("expects (m, d) samples or (m, n, d) node features")
    acc = np.zeros((X.shape[0], X.shape[0]))
    for t in range(draws):
        W = stream(seed, DOMAIN_MC, t).standard_normal((width_per_draw, X.shape[-1]))
        acc += _first_layer_gram(X, W, activation)
    H = acc / draws
    return KernelMatrix((H + H.T) / 2.0)


def empirical_ntk(net, X):
    """Gram matrix of per-sample parameter gradients of a TwoLayerNet at its
    current first layer (the finite-width, time-t kernel), on flat (m, d)
    inputs: the closed-form contraction over the first layer."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("empirical_ntk expects (m, d) inputs")
    H = _first_layer_gram(X, net.W, "relu")
    return KernelMatrix((H + H.T) / 2.0)


# ---------------------------------------------------------------------------
# persistence

def save_kernel_csv(kernel, path):
    """Text export: first line m, then m comma-separated rows of m values."""
    H = kernel.entries
    atomic_write(path, csv_text(str(H.shape[0]), H))


def load_kernel_csv(path):
    with open(path) as fh:
        m = int(fh.readline())
        H = np.loadtxt(fh, delimiter=",", ndmin=2)
    if H.shape != (m, m):
        raise ValueError(f"expected {m}x{m} kernel, got {H.shape}")
    return KernelMatrix(H)
