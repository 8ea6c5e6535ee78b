"""Finite-width trainable networks with exact reverse-mode gradients.

Three architectures:

* TwoLayerNet — the NTK-regime network f(x) = (1/sqrt(r)) sum_r a_r
  relu(w_r . x) on flat input vectors: Gaussian first layer (trained),
  frozen +-1 output signs.  Its quadratic and sum-readout (node-set) forms
  are computed only as kernels, in :mod:`ntklab.kernels`.
* WcgcnNet — the message-passing power-control network: per layer,
  y_k = MAX_{i != k} MLP1(p_i, |h_ik|, |h_ki|) followed by
  p_k = sigmoid(MLP2(y_k, w_k, |h_kk|)), parameters shared across nodes.
* PowerMlp — the flat baseline: |H| magnitudes and weights in, K sigmoid
  powers out.

Each net fixes its loss (:func:`loss_value`): squared loss on labels for
the TwoLayerNet, the mean negative weighted sum rate for the other two.

MLP blocks in the two trained-from-scratch nets are Linear -> ReLU ->
BatchNorm, following the reference message-passing implementations for this
problem; without the normalization the sigmoid head saturates at the
full-power fixed point and training stalls.  All gradients are hand-written
reverse mode and checked against central finite differences in the tests.
"""

import numpy as np

from .errors import NumericFailureError
from .netsim import _sinr_terms, neighbor_indices, sum_rate_batch
from .rng import DOMAIN_INIT, stream

__all__ = [
    "TwoLayerNet",
    "WcgcnNet",
    "PowerMlp",
    "init_net",
    "n_params",
    "gradients",
    "loss_value",
    "sum_rate_loss_grad",
]

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
BN_ROWS = 2048     # row block of the train-mode BatchNorm backward


def _he(rng, fan_in, shape):
    return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _linear_relu(x, params, prefix, tag):
    """The Linear -> ReLU half of a block on ``{prefix}W{tag}`` and ``b``.
    Returns (A, mask): backward needs the pre-activation Z = x @ W + b only
    as ``mask = Z > 0``, a bool array an eighth of Z's size, so Z's own
    buffer becomes the ReLU output A in place."""
    Z = x @ params[prefix + "W" + tag]
    Z += params[prefix + "b" + tag]
    mask = Z > 0
    np.maximum(Z, 0.0, out=Z)
    return Z, mask


def _bn_forward(A, gamma, beta, state, prefix, tag, train):
    """The BatchNorm half of a block, over axis 0.  Returns
    (out, (xhat, inv)); updates running stats in train mode.  Stats live in
    ``state`` under ``{prefix}mu{tag}`` / ``{prefix}va{tag}``.

    ``A`` is overwritten: it becomes the normalized ``xhat`` kept in the
    cache, so callers must pass a fresh buffer (the ReLU output) that they
    do not read again.  ``out`` = xhat * gamma + beta is the one new buffer;
    a backward pass that did not keep it recomputes it from xhat with the
    same two ufuncs, in the same order, and so gets the same bits."""
    mk, vk = prefix + "mu" + tag, prefix + "va" + tag
    if train:
        mu = A.mean(axis=0)
        xhat = np.subtract(A, mu, out=A)
        va = np.einsum("ij,ij->j", xhat, xhat) / A.shape[0]
        state[mk] = (1 - BN_MOMENTUM) * state[mk] + BN_MOMENTUM * mu
        state[vk] = (1 - BN_MOMENTUM) * state[vk] + BN_MOMENTUM * va
    else:
        xhat = np.subtract(A, state[mk], out=A)
        va = state[vk]
    inv = 1.0 / np.sqrt(va + BN_EPS)
    xhat *= inv
    out = xhat * gamma
    out += beta
    return out, (xhat, inv)


def _block(x, params, state, prefix, tag, train):
    """One Linear -> ReLU -> BatchNorm block: :func:`_linear_relu`, then
    :func:`_bn_forward`.  Returns (out, mask, bn cache)."""
    A, mask = _linear_relu(x, params, prefix, tag)
    out, cache = _bn_forward(A, params[prefix + "g" + tag],
                             params[prefix + "be" + tag], state, prefix, tag, train)
    return out, mask, cache


def _bn_backward(dout, gamma, cache, train):
    """Gradients (dA, dgamma, dbeta) of sum(dout * out) through
    :func:`_bn_forward`.  In train mode the batch statistics depend on
    ``A``, which gives dA = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
    * inv with dxhat = dout * gamma.

    dA is returned in ``dout``'s buffer, so callers must pass a fresh buffer
    that they do not read again.  The operations run in the order of the
    formula above: training trajectories amplify last-bit differences, so a
    reordered form would move the experiment CSVs.  The elementwise
    xhat * mean(dxhat * xhat) term is formed and subtracted BN_ROWS rows at
    a time, so no temporary of ``xhat``'s full size exists."""
    xhat, inv = cache
    dgamma = np.einsum("ij,ij->j", dout, xhat)
    dbeta = dout.sum(axis=0)
    dxhat = np.multiply(dout, gamma, out=dout)
    if train:
        s = np.einsum("ij,ij->j", dxhat, xhat) / dout.shape[0]
        dxhat -= dxhat.mean(axis=0)
        for lo in range(0, len(dxhat), BN_ROWS):
            dxhat[lo:lo + BN_ROWS] -= xhat[lo:lo + BN_ROWS] * s
    dxhat *= inv
    return dxhat, dgamma, dbeta


# ---------------------------------------------------------------------------
# TwoLayerNet

class TwoLayerNet:
    """f(x) = (1/sqrt(r)) sum_r a_r relu(w_r . x) on flat inputs; only W is
    trainable.

    ``forward`` and the squared-loss step in :func:`gradients` make the same
    two calls on one (m, r) buffer: ``_preact`` (the pre-activation
    Z = X @ W.T) and ``_readout`` (relu(Z) in place, read out through a), so
    the step's outputs have the bits of ``forward``.  The step then hands
    relu(Z) to ``_backprop`` (1[Z > 0] * dout, contracted with X, then one
    division by the signed scale a * sqrt(r)), which reuses the buffer
    again.

    The net keeps a read-only copy of a: the signed divisor is built from it
    once, here, and must not drift from it."""

    kind = "two-layer"

    def __init__(self, W, a):
        self.W = np.asarray(W, dtype=float)
        self.a = np.array(a, dtype=float)
        if self.W.ndim != 2 or self.a.shape != (self.W.shape[0],):
            raise ValueError("W must be (r, d) and a an r-vector")
        if not np.all(np.isin(self.a, (-1.0, 1.0))):
            raise ValueError("output signs must be +-1")
        self.a.flags.writeable = False
        self._root_r = float(np.sqrt(self.width))
        self._signed_root = np.repeat(self.a[:, None] * self._root_r,
                                      self.d, axis=1)

    @property
    def width(self):
        return self.W.shape[0]

    @property
    def d(self):
        return self.W.shape[1]

    @property
    def params(self):
        return {"W": self.W}

    def _preact(self, X):
        """Input rows X (m, d) and the pre-activation Z = X @ W.T (m, r), a
        fresh array."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2:
            raise ValueError("inputs must be (d,) or (m, d)")
        return X, X @ self.W.T

    def _readout(self, Z, out):
        """Outputs (m,) from the pre-activation: relu(Z) is written into
        ``out`` (which may be ``Z`` itself), then read out through a."""
        np.maximum(Z, 0.0, out=out)
        return out @ self.a / self._root_r

    def _backprop(self, X, Z, dout):
        """d(sum_i dout_i * f(x_i))/dW from the pre-activation or its relu
        (both are > 0 at the same entries): Z is overwritten by
        1[Z > 0] * dout, which is contracted with the inputs, and dW is
        divided by the contiguous (r, d) array a * sqrt(r).

        A sign flip of a whole row of the gemm's left operand flips that
        output row exactly, in any BLAS kernel, and a * sqrt(r) is
        +-fl(sqrt(r)), by which IEEE division is exact up to the sign; so
        this has the bits of applying a to Z's columns first and dividing
        by sqrt(r), without that full (m, r) pass.  Only an all-zero row (a
        dead unit) may carry -0.0 for 0.0, which leaves W - lr * dW
        unchanged."""
        np.greater(Z, 0.0, out=Z)
        Z *= np.asarray(dout, dtype=float)[:, None]
        dW = Z.T @ X
        dW /= self._signed_root
        return dW

    def forward(self, X):
        """Flat (d,) or (m, d) inputs -> (m,) outputs."""
        _, Z = self._preact(X)
        return self._readout(Z, Z)


# ---------------------------------------------------------------------------
# WcgcnNet

class WcgcnNet:
    """Weight-tied message-passing power-control net (MAX aggregation,
    sigmoid head).  Parameter count is independent of K, so one net serves
    any user count.

    ``forward_batch`` caches per layer (X, M1, c1, M2, c2, arg, U, M3, c3,
    B3, p): edge inputs X, node inputs U, each block's bool ReLU mask M
    and BatchNorm cache c = (xhat, inv), the node block's output B3 that
    the head's weight gradient reads, the MAX argmax and the powers p.
    Its edge-sized float arrays, (m K (K - 1), hidden) each, are the two
    xhat: block 1a's output B1 = xhat1 * gamma + beta dies once block 1b's
    gemm has read it, and ``backward_batch`` recomputes it.  Backward
    consumes the cache list and frees each edge-sized array once dead."""

    kind = "wcgcn"

    def __init__(self, params, state, hidden, layers):
        self.params = params
        self.state = state
        self.hidden = hidden
        self.layers = layers
        self._nbr_cache = {}

    @classmethod
    def create(cls, hidden, layers, seed):
        rng = stream(seed, DOMAIN_INIT, 1)
        params, state = {}, {}
        for j in range(layers):
            p = f"l{j}."
            for key, fan_in in (("1a", 3), ("1b", hidden), ("2a", hidden + 2)):
                params[p + "W" + key] = _he(rng, fan_in, (fan_in, hidden))
                params[p + "b" + key] = np.zeros(hidden)
                params[p + "g" + key] = np.ones(hidden)
                params[p + "be" + key] = np.zeros(hidden)
                state[p + "mu" + key] = np.zeros(hidden)
                state[p + "va" + key] = np.ones(hidden)
            params[p + "W2b"] = _he(rng, hidden, (hidden, 1))
            params[p + "b2b"] = np.zeros(1)
        return cls(params, state, hidden, layers)

    def _nbr(self, K):
        if K not in self._nbr_cache:
            nbr = neighbor_indices(K)
            scatter = np.zeros((K * (K - 1), K))
            scatter[np.arange(len(scatter)), nbr.reshape(-1)] = 1.0
            self._nbr_cache[K] = (nbr, scatter)
        return self._nbr_cache[K]

    def forward_batch(self, mags, weights, train=False):
        """mags (m, K, K), weights (m, K) -> powers (m, K) plus cache."""
        m, K, _ = mags.shape
        h = self.hidden
        nbr, _ = self._nbr(K)
        diag = np.einsum("mkk->mk", mags)
        p = np.ones((m, K))
        caches = []
        if K > 1:
            E = K * (K - 1)
            h_ik = mags[:, nbr, np.arange(K)[:, None]]
            h_ki = mags[:, np.arange(K)[:, None], nbr]
        for j in range(self.layers):
            pf = f"l{j}."
            if K > 1:
                X = np.stack([p[:, nbr], h_ik, h_ki], axis=-1).reshape(m * E, 3)
                B1, M1, c1 = _block(X, self.params, self.state, pf, "1a", train)
                A2, M2 = _linear_relu(B1, self.params, pf, "1b")
                del B1   # not cached: backward recomputes it from c1
                B2, c2 = _bn_forward(A2, self.params[pf + "g1b"],
                                     self.params[pf + "be1b"], self.state, pf,
                                     "1b", train)
                B2 = B2.reshape(m, K, K - 1, h)
                y = B2.max(axis=2)
                # the first neighbor attaining the max, as B2.argmax(axis=2)
                # gives, but from a bool array: argmax off the last axis
                # makes a transposed copy of its operand
                arg = (B2 == y[:, :, None, :]).argmax(axis=2)
                del B2
            else:
                # empty neighborhood: aggregated message is the zero vector
                X = M1 = c1 = M2 = c2 = arg = None
                y = np.zeros((m, 1, h))
            U = np.concatenate([y, weights[..., None], diag[..., None]],
                               axis=-1).reshape(m * K, h + 2)
            B3, M3, c3 = _block(U, self.params, self.state, pf, "2a", train)
            Z4 = B3 @ self.params[pf + "W2b"] + self.params[pf + "b2b"]
            p = _sigmoid(Z4.reshape(m, K))
            caches.append((X, M1, c1, M2, c2, arg, U, M3, c3, B3, p))
        return p, caches

    def backward_batch(self, mags, caches, dP, train=False):
        """Gradients of sum(dP * P) w.r.t. every parameter.  ``caches`` is
        consumed: each layer's cache is popped as backward reaches it, so a
        caller that runs several backward passes on one forward cache hands
        each of them a copy, ``list(caches)``."""
        m, K, _ = mags.shape
        h = self.hidden
        nbr, scatter = self._nbr(K)
        grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        for j in range(self.layers - 1, -1, -1):
            pf = f"l{j}."
            P = self.params
            X, M1, c1, M2, c2, arg, U, M3, c3, B3, pnew = caches.pop()
            dZ4 = (dP * pnew * (1.0 - pnew)).reshape(m * K, 1)
            grads[pf + "W2b"] += B3.T @ dZ4
            grads[pf + "b2b"] += dZ4.sum(axis=0)
            dZ3, dg, dbe = _bn_backward(dZ4 @ P[pf + "W2b"].T, P[pf + "g2a"], c3, train)
            grads[pf + "g2a"] += dg
            grads[pf + "be2a"] += dbe
            np.multiply(dZ3, M3, out=dZ3)
            grads[pf + "W2a"] += U.T @ dZ3
            grads[pf + "b2a"] += dZ3.sum(axis=0)
            if K == 1:
                dP = np.zeros((m, K))
                continue
            E = K * (K - 1)
            dy = (dZ3 @ P[pf + "W2a"].T)[:, :h].reshape(m, K, h)
            # MAX routes gradient to the first-attained argmax neighbor
            dZ2 = np.zeros((m, K, K - 1, h))
            np.put_along_axis(dZ2, arg[:, :, None, :], dy[:, :, None, :], axis=2)
            dZ2, dg, dbe = _bn_backward(dZ2.reshape(m * E, h), P[pf + "g1b"], c2, train)
            del c2
            grads[pf + "g1b"] += dg
            grads[pf + "be1b"] += dbe
            np.multiply(dZ2, M2, out=dZ2)
            # B1 as _bn_forward made it: same ufuncs, same order, same bits
            B1 = c1[0] * P[pf + "g1a"]
            B1 += P[pf + "be1a"]
            grads[pf + "W1b"] += B1.T @ dZ2
            del B1
            grads[pf + "b1b"] += dZ2.sum(axis=0)
            # a C-ordered copy of W1b.T gives the same bits as the
            # transposed view and is about 5x faster in OpenBLAS
            dZ1 = dZ2 @ np.ascontiguousarray(P[pf + "W1b"].T)
            del dZ2      # dead: one edge-sized array fewer at the peak
            dZ1, dg, dbe = _bn_backward(dZ1, P[pf + "g1a"], c1, train)
            del c1
            grads[pf + "g1a"] += dg
            grads[pf + "be1a"] += dbe
            np.multiply(dZ1, M1, out=dZ1)
            grads[pf + "W1a"] += X.T @ dZ1
            grads[pf + "b1a"] += dZ1.sum(axis=0)
            if j:
                # powers reach a layer only through row 0 of W1a (the p_i
                # input); layer 0's are constant.  W1a @ dZ1.T has the bits of
                # dZ1 @ W1a.T and is several times faster in OpenBLAS; a gemv
                # on row 0 alone rounds differently.
                dP = (P[pf + "W1a"] @ dZ1.T)[0].reshape(m, E) @ scatter
            del dZ1      # not carried into the next layer down
        return grads


# ---------------------------------------------------------------------------
# PowerMlp

class PowerMlp:
    """Flat baseline: (|H| row-major, w) -> K powers through two
    Linear -> ReLU -> BatchNorm blocks and a sigmoid output layer."""

    kind = "power-mlp"

    def __init__(self, params, state, dims):
        self.params = params
        self.state = state
        self.dims = tuple(dims)    # (d_in, h1, h2, ..., K)

    @classmethod
    def create(cls, dims, seed):
        rng = stream(seed, DOMAIN_INIT, 2)
        params, state = {}, {}
        for l in range(len(dims) - 1):
            params[f"W{l}"] = _he(rng, dims[l], (dims[l], dims[l + 1]))
            params[f"b{l}"] = np.zeros(dims[l + 1])
            if l < len(dims) - 2:
                params[f"g{l}"] = np.ones(dims[l + 1])
                params[f"be{l}"] = np.zeros(dims[l + 1])
                state[f"mu{l}"] = np.zeros(dims[l + 1])
                state[f"va{l}"] = np.ones(dims[l + 1])
        return cls(params, state, dims)

    def forward_batch(self, X, train=False):
        L = len(self.dims) - 1
        acts, blocks = [X], []
        for l in range(L - 1):
            B, M, c = _block(acts[-1], self.params, self.state, "", f"{l}", train)
            blocks.append((M, c))
            acts.append(B)
        Z = acts[-1] @ self.params[f"W{L-1}"] + self.params[f"b{L-1}"]
        acts.append(_sigmoid(Z))
        return acts[-1], (acts, blocks)

    def backward_batch(self, cache, dP, train=False):
        acts, blocks = cache
        L = len(self.dims) - 1
        grads = {}
        P = acts[-1]
        delta = dP * P * (1.0 - P)
        for l in range(L - 1, -1, -1):
            grads[f"W{l}"] = acts[l].T @ delta
            grads[f"b{l}"] = delta.sum(axis=0)
            if l > 0:
                M, c = blocks[l - 1]
                delta, dg, dbe = _bn_backward(delta @ self.params[f"W{l}"].T,
                                              self.params[f"g{l-1}"], c, train)
                grads[f"g{l-1}"] = dg
                grads[f"be{l-1}"] = dbe
                np.multiply(delta, M, out=delta)
        return grads


# ---------------------------------------------------------------------------
# functional API

def init_net(arch, dims, width, seed, layers=2):
    """Construct a network.

    arch 'two-layer': dims = input dimension, width = r (Gaussian N(0,1)
    first layer, frozen +-1 signs, 1/sqrt(r) output scale).
    arch 'wcgcn': width = hidden size; dims is ignored (weight tying makes
    the net K-independent).
    arch 'power-mlp': dims = (d_in, K); width = the size of both hidden
    layers.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if arch == "two-layer":
        rng = stream(seed, DOMAIN_INIT, 0)
        W = rng.standard_normal((width, dims))
        a = rng.choice([-1.0, 1.0], size=width)
        return TwoLayerNet(W, a)
    if arch == "wcgcn":
        return WcgcnNet.create(width, layers, seed)
    if arch == "power-mlp":
        d_in, K = dims
        return PowerMlp.create((d_in, width, width, K), seed)
    raise ValueError(f"unknown architecture {arch!r}")


def n_params(net):
    """The number of trainable parameters of a net."""
    return sum(v.size for v in net.params.values())


def sum_rate_loss_grad(mags, sigma2s, weights, P):
    """Per-sample weighted sum rates (m,) and the gradient in P of the mean
    negative sum rate (the training loss, -rates.mean())."""
    m = mags.shape[0]
    G, signal, denom = _sinr_terms(mags, sigma2s, P)
    s = signal / denom
    rates = np.einsum("mk,mk->m", weights, np.log2(1.0 + s))
    coef = weights / (np.log(2.0) * (1.0 + s))          # (m, K)
    gkk = np.einsum("mkk->mk", G)
    own = coef * gkk / denom
    w2 = coef * signal / denom ** 2
    cross = np.einsum("mk,mki->mi", w2, G) - w2 * gkk
    dP = -(own - cross) / m
    return rates, dP


def _batch_features(net, batch):
    """The flat features a TwoLayerNet or PowerMlp reads."""
    d = net.d if isinstance(net, TwoLayerNet) else net.dims[0]
    if batch.flat_features.shape[1] != d:
        raise ValueError("dataset features do not match net input dimension")
    return batch.flat_features


def _labels(batch):
    if batch.labels is None:
        raise ValueError("squared loss requires labels")
    return batch.labels


def sample_chunks(batch, chunk):
    """Consecutive sample slices of a dataset, each at most ``chunk`` wide."""
    for lo in range(0, batch.m, chunk):
        yield batch.subset(np.arange(lo, min(lo + chunk, batch.m)))


def loss_value(net, batch, train=False, chunk=None):
    """Loss of a net on a batch (Dataset); the net fixes which one.  A
    TwoLayerNet has the summed 0.5 * ||u - y||^2 of the NTK analysis on the
    batch's labels; WcgcnNet and PowerMlp have the mean negative weighted
    sum rate.

    ``chunk`` bounds how many samples are materialized at once (the graph
    net's layer activations grow with batch * K^2, so full-dataset passes at
    K=20 would otherwise exhaust memory).  Chunked evaluation is only defined
    in evaluation mode: batch statistics need the whole batch.
    """
    if batch.m == 0:
        raise ValueError("batch must be nonempty")
    if chunk is not None and batch.m > chunk:
        if train:
            raise ValueError("chunked evaluation requires train=False")
        total = 0.0
        for sub in sample_chunks(batch, chunk):
            part = loss_value(net, sub, train=False)
            if not isinstance(net, TwoLayerNet):
                part *= sub.m / batch.m
            total += part
        return total
    if isinstance(net, TwoLayerNet):
        u = net.forward(_batch_features(net, batch))
        return 0.5 * float(np.sum((u - _labels(batch)) ** 2))
    P, _ = _power_forward(net, batch, train)
    return -float(sum_rate_batch(batch.mags, batch.sigma2s,
                                 batch.weights, P).mean())


def _power_forward(net, batch, train):
    if not isinstance(net, (WcgcnNet, PowerMlp)):
        raise ValueError(f"{type(net).__name__} does not produce power vectors")
    if batch.mags is None:
        raise ValueError("the sum-rate loss needs channel instances")
    if isinstance(net, WcgcnNet):
        return net.forward_batch(batch.mags, batch.weights, train=train)
    return net.forward_batch(_batch_features(net, batch), train=train)


def _check_finite_per_sample(values, what):
    bad = ~np.isfinite(np.atleast_1d(values))
    if bad.any():
        idx = int(np.argwhere(bad)[0][0])
        raise NumericFailureError(f"non-finite {what} at sample {idx}", sample_index=idx)


def gradients(net, batch, train=False, chunk=None):
    """Exact parameter gradients of the net's batch loss (the one
    :func:`loss_value` gives).  Returns (grads, loss).

    A TwoLayerNet's step holds one (m, r) buffer: the pre-activation Z,
    which becomes relu(Z) as the outputs are read out, with the bits of
    ``forward``, and then the backward signal that dW contracts.
    Non-finite outputs raise NumericFailureError naming the first such
    sample before any gradient is formed.

    ``chunk`` splits the pass over sample slices exactly as in
    :func:`loss_value`; gradients of the mean (or summed) loss accumulate
    across slices with the matching weights.
    """
    if batch.m == 0:
        raise ValueError("batch must be nonempty")
    if chunk is not None and batch.m > chunk:
        if train:
            raise ValueError("chunked evaluation requires train=False")
        acc = None
        total = 0.0
        for sub in sample_chunks(batch, chunk):
            g, part = gradients(net, sub, train=False)
            w = 1.0 if isinstance(net, TwoLayerNet) else sub.m / batch.m
            total += part * w
            if acc is None:
                acc = {key: w * val for key, val in g.items()}
            else:
                for key, val in g.items():
                    acc[key] += w * val
        return acc, total
    if isinstance(net, TwoLayerNet):
        y = _labels(batch)
        X, Z = net._preact(_batch_features(net, batch))
        u = net._readout(Z, Z)
        _check_finite_per_sample(u, "output")
        resid = u - y
        return ({"W": net._backprop(X, Z, resid)},
                0.5 * float(np.sum(resid ** 2)))
    P, cache = _power_forward(net, batch, train)
    rates, dP = sum_rate_loss_grad(batch.mags, batch.sigma2s,
                                   batch.weights, P)
    _check_finite_per_sample(rates, "sum rate")
    grads = _power_backward(net, batch, cache, dP, train)
    return grads, -float(rates.mean())


def _power_backward(net, batch, cache, dP, train):
    if isinstance(net, WcgcnNet):
        return net.backward_batch(batch.mags, cache, dP, train=train)
    return net.backward_batch(cache, dP, train=train)
