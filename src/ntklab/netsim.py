"""Interference-channel problem instances and the power-control objective.

A K-user instance is a complex K x K channel matrix H where entry (k, i) is
the channel from transmitter i to receiver k, together with rate weights w
and noise powers sigma2.  Only |H| enters the objective, so a batch of m
instances is held as arrays: magnitudes (m, K, K), weights and noise powers
(m, K).  The module provides instance generation, the batched SINR /
weighted-sum-rate objective, and synthetic polynomial labels for the
supervised kernel experiments.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .rng import DOMAIN_INSTANCE, DOMAIN_NODES, stream

__all__ = [
    "Dataset",
    "generate_instances",
    "gaussian_node_dataset",
    "sum_rate_batch",
    "synthetic_labels",
    "label_direction",
    "labelled_gaussian_dataset",
    "neighbor_indices",
]


@dataclass
class Dataset:
    """A batch of samples as the feature arrays both architectures consume.

    Two kinds exist: 'channel' datasets hold channel instances (node
    features are (w_k, |h_kk|), n = K, plus the mags/weights/sigma2s arrays
    of the objective); 'gaussian-nodes' datasets hold synthetic i.i.d.
    standard-Gaussian node clouds for the kernel/bound experiments.
    Channel arrays are checked on construction: shapes, finite nonnegative
    magnitudes, finite nonnegative weights, positive finite noise powers.
    """

    kind: str
    m: int
    n: int
    seed: int | None
    node_features: np.ndarray                  # (m, n, d_node)
    flat_features: np.ndarray                  # (m, flat_dim)
    labels: np.ndarray | None = None
    # channel-only arrays of the sum-rate objective
    mags: np.ndarray | None = field(default=None, repr=False)      # (m, K, K)
    weights: np.ndarray | None = field(default=None, repr=False)   # (m, K)
    sigma2s: np.ndarray | None = field(default=None, repr=False)   # (m, K)

    def __post_init__(self):
        if self.labels is not None and len(self.labels) != self.m:
            raise ValueError("label count must equal sample count")
        if self.mags is None:
            return
        m, K = self.m, self.n
        if (np.shape(self.mags), np.shape(self.weights),
                np.shape(self.sigma2s)) != ((m, K, K), (m, K), (m, K)):
            raise ValueError("channel arrays must be mags (m, K, K) and "
                             "weights, sigma2s (m, K)")
        if not np.all(np.isfinite(self.mags)) or np.any(self.mags < 0):
            raise ValueError("channel magnitudes must be nonnegative and finite")
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative and finite")
        if not np.all(np.isfinite(self.sigma2s)) or np.any(self.sigma2s <= 0):
            raise ValueError("noise powers must be positive and finite")

    def subset(self, idx):
        """A new Dataset restricted to the given sample indices."""
        idx = np.asarray(idx)
        return Dataset(
            kind=self.kind,
            m=len(idx),
            n=self.n,
            seed=self.seed,
            node_features=self.node_features[idx],
            flat_features=self.flat_features[idx],
            labels=None if self.labels is None else self.labels[idx],
            mags=None if self.mags is None else self.mags[idx],
            weights=None if self.weights is None else self.weights[idx],
            sigma2s=None if self.sigma2s is None else self.sigma2s[idx],
        )


def neighbor_indices(K):
    """neighbor_indices(K)[k] lists all i != k in increasing order."""
    idx = np.arange(K)
    return np.array([np.concatenate([idx[:k], idx[k + 1:]]) for k in range(K)], dtype=int) \
        if K > 1 else np.zeros((1, 0), dtype=int)


def generate_instances(K, m, seed):
    """m i.i.d. Rayleigh-fading K-user instances (h ~ CN(0, 1)) with unit
    weights and unit noise power.

    Deterministic in (K, m, seed); sample i is drawn from its own counter
    stream, so the first m samples coincide for any m' >= m (prefix
    property) and generation order is irrelevant.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    mags = np.empty((m, K, K))
    for i in range(m):
        rng = stream(seed, DOMAIN_INSTANCE, K, i)
        re = rng.standard_normal((K, K))
        im = rng.standard_normal((K, K))
        mags[i] = np.abs((re + 1j * im) / np.sqrt(2.0))
    weights = np.ones((m, K))
    sigma2s = np.ones((m, K))
    node = np.stack([weights, np.einsum("mkk->mk", mags)], axis=-1)
    flat = np.concatenate([mags.reshape(m, K * K), weights], axis=1)
    return Dataset(
        kind="channel",
        m=m,
        n=K,
        seed=seed,
        node_features=node,
        flat_features=flat,
        mags=mags,
        weights=weights,
        sigma2s=sigma2s,
    )


def gaussian_node_dataset(n, m, d, seed):
    """m samples of n i.i.d. standard-Gaussian node features in R^d.

    The synthetic input model of the kernel-conditioning and bound
    experiments; independent of the channel model.  Same per-sample stream
    scheme (and prefix property) as generate_instances.
    """
    if n < 1 or m < 1 or d < 1:
        raise ValueError("n, m, d must all be >= 1")
    nodes = np.stack([
        stream(seed, DOMAIN_NODES, n, d, i).standard_normal((n, d)) for i in range(m)
    ])
    return Dataset(
        kind="gaussian-nodes",
        m=m,
        n=n,
        seed=seed,
        node_features=nodes,
        flat_features=nodes.reshape(m, n * d),
    )


def _sinr_terms(mags, sigma2s, P):
    """The SINR of receiver k, signal / denom, for a batch: gains
    G = |H|^2 (m,K,K), signal |h_kk|^2 p_k and denom
    sum_{i != k} |h_ki|^2 p_i + sigma2_k, both (m,K)."""
    G = mags ** 2
    signal = np.einsum("mkk,mk->mk", G, P)
    denom = np.einsum("mki,mi->mk", G, P) - signal + sigma2s
    return G, signal, denom


def sum_rate_batch(mags, sigma2s, weights, P):
    """Weighted sum rate sum_k w_k log2(1 + SINR_k) in bits/s/Hz for a
    batch: mags (m,K,K), P (m,K) -> (m,)."""
    _, signal, denom = _sinr_terms(mags, sigma2s, P)
    return np.einsum("mk,mk->m", weights, np.log2(1.0 + signal / denom))


def synthetic_labels(ds, beta, p_degree):
    """Permutation-invariant polynomial targets y_j = sum_i (beta . x_ij)^p.

    x_ij are the dataset's per-node features, so the label is invariant
    under any within-sample node reordering.
    """
    beta = np.asarray(beta, dtype=float)
    if p_degree < 1:
        raise ValueError("p_degree must be >= 1")
    d = ds.node_features.shape[2]
    if beta.shape != (d,):
        raise ValueError(f"beta must have length {d}, got {beta.shape}")
    proj = ds.node_features @ beta          # (m, n)
    return np.sum(proj ** p_degree, axis=1)


def label_direction(d):
    """beta = (1, 2, ..., d) / d: the target direction of the labelled
    Gaussian task."""
    return np.arange(1, d + 1, dtype=float) / d


def labelled_gaussian_dataset(n, m, d, seed, p_degree):
    """The labelled Gaussian task of the kernel experiments: a
    gaussian_node_dataset whose labels are the degree-p synthetic_labels
    along label_direction(d)."""
    ds = gaussian_node_dataset(n, m, d, seed)
    return replace(ds, labels=synthetic_labels(ds, label_direction(d), p_degree))
