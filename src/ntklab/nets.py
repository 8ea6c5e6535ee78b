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

Every BLAS call runs on one OpenBLAS thread, the process's policy
(:mod:`ntklab.pool`).  The WCGCN's edge rows, m K (K - 1) of them, run in
tiles of whole samples of about ``_TILE_ENTRIES`` entries, shared by the
calling thread and the helpers of :mod:`ntklab.pool`, when a pass has at
least two tiles; each tile writes only its own rows of preallocated
arrays.  Every reduction across rows stays one whole-array call in the form
it has without tiles: the BatchNorm means, the einsum variances and sums,
the bias sums and the weight-gradient gemms; pairs of independent ones run
side by side, each whole on one thread.  A gemm's rows come out the same
whether it runs whole or in tiles of two or more rows, so a pass has the
bits of the whole-array pass at one BLAS thread, at any pool width.

At the small hidden widths these nets use, a row broadcast such as
``A + b`` over an (n, h) array runs an h-entry inner loop per row, and
``A.sum(axis=0)`` likewise; both are bound by per-row overhead, not
arithmetic.  So the row broadcasts run on wide views of A, whose rows hold
k of its rows (:func:`_rows`, with the row vector tiled once per pass by
:func:`_wide`), and the column sums and means are einsum calls
(:func:`_colsum`).  Each gives the bits of the plain form.
"""

import numpy as np

from .errors import NumericFailureError
from .netsim import _sinr_terms, neighbor_indices, sum_rate_batch
from .pool import _run_blocks
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
# row block of the train-mode BatchNorm backward's xhat * s temporary, one
# per tile in flight
BN_ROWS = 512
# entries of one row of the wide views that row broadcasts run on, and the
# fewest rows that pay for tiling a row vector to that length
_WIDE_ENTRIES = 256
_WIDE_ROWS = 1024
# entries of one edge tile of a WCGCN pass: whole samples, 16 of them at
# K = 20 and hidden 32 (1.5 MB of float64)
_TILE_ENTRIES = 196_608


def _he(rng, fan_in, shape):
    return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _wide(v, A):
    """The row vector v (h,) tiled k = ``_WIDE_ENTRIES`` // h times, for
    :func:`_rows` over the rows of A or of its tiles; v itself (k = 1) when
    A has fewer than ``_WIDE_ROWS`` rows.  Built once per pass, outside the
    tile loops."""
    k = _WIDE_ENTRIES // len(v) if len(A) >= _WIDE_ROWS else 1
    return np.tile(v, k) if k > 1 else v


def _rows(ufunc, A, vk, out=None):
    """ufunc(A, v) into ``out`` (A itself by default) for a contiguous
    (n, h) A and vk = :func:`_wide` (v), and returns ``out``.

    Each whole group of k rows runs on the (n // k, k h) view with vk, so
    the ufunc's inner loop is k h entries long, not h; the n % k rows left
    run as the plain broadcast.  +, - and * round each entry on its own, so
    this has the bits of the plain broadcast."""
    out = A if out is None else out
    n, h = A.shape
    k = len(vk) // h
    if k == 1:
        return ufunc(A, vk, out=out)
    cut = n - n % k if A.flags.c_contiguous and out.flags.c_contiguous else 0
    if cut:
        ufunc(A[:cut].reshape(-1, k * h), vk, out=out[:cut].reshape(-1, k * h))
    if cut < n:
        ufunc(A[cut:], vk[:h], out=out[cut:])
    return out


def _colsum(A):
    """A.sum(axis=0) of a 2-D array, bit for bit.  For h >= 2 columns numpy's
    sum adds the rows in order, and so does einsum, several times faster at
    small h; for one column numpy's sum is pairwise, and it is kept."""
    return A.sum(axis=0) if A.shape[1] == 1 else np.einsum("ij->j", A)


class _Tiles:
    """Row spans (lo, hi) of an array, run on the pool of
    :mod:`ntklab.pool`.

    ``each(step)`` calls step(lo, hi) once per span; ``whole(*calls)`` runs
    independent whole-array calls, one to a thread, and returns their
    results in order.  One span, or a pool width of 1, runs serially, in
    order, on this thread."""

    def __init__(self, spans):
        self.spans = spans

    @classmethod
    def of_samples(cls, m, rows, cols):
        """Tiles of whole samples, ``rows`` rows of ``cols`` entries each,
        with about ``_TILE_ENTRIES`` entries (at least one sample) a tile."""
        step = max(1, _TILE_ENTRIES // max(rows * cols, 1)) * rows
        return cls([(lo, min(lo + step, m * rows))
                    for lo in range(0, m * rows, step)])

    def each(self, step):
        _run_blocks(lambda span: step(*span), self.spans)

    def whole(self, *calls):
        if len(self.spans) == 1:
            return [call() for call in calls]
        return _run_blocks(lambda call: call(), calls)


def _linear_relu(x, W, bk, out=None, mask=None):
    """The Linear -> ReLU half of a block on W and the :func:`_wide` bias
    ``bk``, into ``out`` and ``mask`` when given.  Returns (A, mask):
    backward needs the pre-activation Z = x @ W + b only as
    ``mask = Z > 0``, a bool array an eighth of Z's size, so Z's own buffer
    becomes the ReLU output A in place."""
    Z = np.matmul(x, W, out=out)
    _rows(np.add, Z, bk)
    mask = np.greater(Z, 0.0, out=mask)
    np.maximum(Z, 0.0, out=Z)
    return Z, mask


def _bn_stats(A, state, prefix, tag, train, tiles):
    """(mu, inv = 1 / sqrt(var + eps)) of a BatchNorm over A's rows.  Stats
    live in ``state`` under ``{prefix}mu{tag}`` / ``{prefix}va{tag}``.

    In train mode the batch mean is one whole-array call, it is subtracted
    from A tile by tile, the variance of the centred A is one whole-array
    call, and the running stats update.  In eval mode A is not touched:
    the caller subtracts the running mean."""
    mk, vk = prefix + "mu" + tag, prefix + "va" + tag
    if train:
        mu = _colsum(A) / A.shape[0]
        mu_k = _wide(mu, A)
        tiles.each(lambda lo, hi: _rows(np.subtract, A[lo:hi], mu_k))
        va = np.einsum("ij,ij->j", A, A) / A.shape[0]
        state[mk] = (1 - BN_MOMENTUM) * state[mk] + BN_MOMENTUM * mu
        state[vk] = (1 - BN_MOMENTUM) * state[vk] + BN_MOMENTUM * va
    else:
        mu, va = state[mk], state[vk]
    return mu, 1.0 / np.sqrt(va + BN_EPS)


def _bn_scale(xhat, inv_k, gamma_k, beta_k):
    """Scales the centred rows ``xhat`` by inv in place and returns the
    block output xhat * gamma + beta, a new array; the vectors come from
    :func:`_wide`.  A backward pass that did not keep the output recomputes
    it with the same two ufuncs, in the same order, and so gets the same
    bits."""
    _rows(np.multiply, xhat, inv_k)
    out = _rows(np.multiply, xhat, gamma_k, np.empty_like(xhat))
    return _rows(np.add, out, beta_k)


def _bn_forward(A, gamma, beta, state, prefix, tag, train):
    """The BatchNorm half of a block, over axis 0, as one whole-array
    pass.  Returns (out, (xhat, inv)); updates running stats in train mode.

    ``A`` is overwritten: it becomes the normalized ``xhat`` kept in the
    cache, so callers must pass a fresh buffer (the ReLU output) that they
    do not read again.  ``out`` is the one new buffer."""
    mu, inv = _bn_stats(A, state, prefix, tag, train, _Tiles([(0, len(A))]))
    if not train:
        _rows(np.subtract, A, _wide(mu, A))
    return _bn_scale(A, _wide(inv, A), _wide(gamma, A), _wide(beta, A)), (A, inv)


def _block(x, params, state, prefix, tag, train):
    """One Linear -> ReLU -> BatchNorm block: :func:`_linear_relu`, then
    :func:`_bn_forward`.  Returns (out, mask, bn cache)."""
    A, mask = _linear_relu(x, params[prefix + "W" + tag],
                           _wide(params[prefix + "b" + tag], x))
    out, cache = _bn_forward(A, params[prefix + "g" + tag],
                             params[prefix + "be" + tag], state, prefix, tag, train)
    return out, mask, cache


def _bn_backward(dout, gamma, cache, train, mask=None, tiles=None):
    """Gradients (dA, dgamma, dbeta) of sum(dout * out) through
    :func:`_bn_forward`, or (dZ = dA * mask, ...) through the ReLU mask of
    :func:`_linear_relu` too, over the whole of ``dout`` or over the spans
    of ``tiles``.  In train mode the batch statistics depend on ``A``,
    which gives dA = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) * inv
    with dxhat = dout * gamma.

    dZ is returned in ``dout``'s buffer, so callers must pass a fresh buffer
    that they do not read again.  The operations run in the order of the
    formula above: training trajectories amplify last-bit differences, so a
    reordered form would move the experiment CSVs.  The reductions are
    whole-array calls, (dgamma, dbeta) and then (s, mean(dxhat)) side by
    side on the tiles' pool; the elementwise steps run tile by tile, and
    xhat * s is formed and subtracted BN_ROWS rows at a time in one buffer
    per tile, so no temporary of ``xhat``'s full size exists.  The row
    broadcasts run on :func:`_wide` vectors."""
    xhat, inv = cache
    n = len(dout)
    if tiles is None:
        tiles = _Tiles([(0, n)])
    dgamma, dbeta = tiles.whole(lambda: np.einsum("ij,ij->j", dout, xhat),
                                lambda: _colsum(dout))
    gamma_k, inv_k = _wide(gamma, dout), _wide(inv, dout)
    if train:
        tiles.each(lambda lo, hi: _rows(np.multiply, dout[lo:hi], gamma_k))
        s, mean = tiles.whole(
            lambda: np.einsum("ij,ij->j", dout, xhat) / n,
            lambda: _colsum(dout) / n)
        s_k, mean_k = _wide(s, dout), _wide(mean, dout)

    def step(lo, hi):
        dxhat = dout[lo:hi]
        if train:
            _rows(np.subtract, dxhat, mean_k)
            t = np.empty((min(BN_ROWS, hi - lo), dout.shape[1]))
            for a in range(lo, hi, BN_ROWS):
                b = min(a + BN_ROWS, hi)
                dout[a:b] -= _rows(np.multiply, xhat[a:b], s_k, t[:b - a])
        else:
            _rows(np.multiply, dxhat, gamma_k)
        _rows(np.multiply, dxhat, inv_k)
        if mask is not None:
            np.multiply(dxhat, mask[lo:hi], out=dxhat)

    tiles.each(step)
    return dout, dgamma, dbeta


# ---------------------------------------------------------------------------
# TwoLayerNet

class TwoLayerNet:
    """f(x) = (1/sqrt(r)) sum_r a_r relu(w_r . x) on flat inputs; only W is
    trainable.

    ``forward`` and the squared-loss step in :func:`gradients` make the same
    two calls on one (r, m) buffer: ``_preact`` (the transposed
    pre-activation Z^T = W @ X.T) and ``_readout`` (relu(Z^T) in place, read
    out as a @ relu(Z^T) / sqrt(r)), so the step's outputs have the bits of
    ``forward``.  The step then hands relu(Z^T) to ``_backprop``
    (1[Z^T > 0] contracted with the residual-scaled inputs, then one
    division by the signed scale a * sqrt(r)), which reuses the buffer
    again.  Both run on the process's one OpenBLAS thread
    (:mod:`ntklab.pool`), so their bits do not depend on the environment's
    BLAS count.

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
        """Input rows X (m, d) and the transposed pre-activation
        Z^T = W @ X.T (r, m), a fresh array."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2:
            raise ValueError("inputs must be (d,) or (m, d)")
        return X, self.W @ X.T

    def _readout(self, Zt, out):
        """Outputs (m,) from the transposed pre-activation: relu(Z^T) is
        written into ``out`` (which may be ``Zt`` itself), then read out
        through a."""
        np.maximum(Zt, 0.0, out=out)
        return self.a @ out / self._root_r

    def _backprop(self, X, Zt, dout):
        """d(sum_i dout_i * f(x_i))/dW from the transposed pre-activation or
        its relu (both are > 0 at the same entries): Zt is overwritten by
        1[Z^T > 0], which is contracted with the (m, d) inputs scaled by
        dout, and dW is divided by the contiguous (r, d) array a * sqrt(r).

        A sign flip of a whole row of the gemm's left operand flips that
        output row exactly, in any BLAS kernel, and a * sqrt(r) is
        +-fl(sqrt(r)), by which IEEE division is exact up to the sign; so
        this has the bits of applying a to Z^T's rows first and dividing
        by sqrt(r), without that full (r, m) pass.  Only an all-zero row (a
        dead unit) may carry -0.0 for 0.0, which leaves W - lr * dW
        unchanged."""
        np.greater(Zt, 0.0, out=Zt)
        dW = Zt @ (np.asarray(dout, dtype=float)[:, None] * X)
        dW /= self._signed_root
        return dW

    def forward(self, X):
        """Flat (d,) or (m, d) inputs -> (m,) outputs."""
        _, Zt = self._preact(X)
        return self._readout(Zt, Zt)


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
    xhat: block 1a's output B1 = xhat1 * gamma + beta and block 1b's B2
    exist one tile at a time, and ``backward_batch`` recomputes B1 whole
    for its weight gradient.  Backward consumes the cache list and frees
    each edge-sized array once dead.

    The edge blocks and the MAX run in tiles of whole samples (see the
    module docstring), so the MAX stays inside a tile.  A train-mode
    forward runs, per edge block, a tile step (gemm, bias, mask, ReLU),
    the whole-array mean, a tile step (subtract), the whole-array variance
    and a tile step (scale, the block output, and the next block's gemm or
    the MAX); an eval-mode forward runs the whole edge chain per tile.
    Backward routes the MAX gradient, runs the BatchNorm backward's
    elementwise steps and the mask, recomputes B1 and forms
    dZ1 = dZ2 @ W1b.T tile by tile, with the reductions whole between
    them.  The node blocks, m K rows, run whole."""

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
                y, arg, M1, c1, M2, c2 = self._edge_forward(
                    X, m, K, pf, train, _Tiles.of_samples(m, E, h))
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

    def _edge_forward(self, X, m, K, pf, train, tiles):
        """Blocks 1a and 1b over the edge rows X, then the MAX over each
        node's neighbors.  Returns (y, arg, M1, (xhat1, inv1), M2,
        (xhat2, inv2)).

        The tiles hold whole samples, so the MAX stays inside a tile, and
        each tile writes only its own rows of the preallocated outputs.  In
        train mode the BatchNorm reductions between the tile steps are
        whole-array calls (:func:`_bn_stats`); in eval mode there is none,
        and each tile runs the whole chain.  Block 1a's output B1 and block
        1b's B2 exist one tile at a time."""
        P, h = self.params, self.hidden
        N, E = len(X), K * (K - 1)
        A1, A2 = np.empty((N, h)), np.empty((N, h))
        M1, M2 = np.empty((N, h), bool), np.empty((N, h), bool)
        y = np.empty((m, K, h))
        arg = np.empty((m, K, h), np.intp)
        W1a, W1b = P[pf + "W1a"], P[pf + "W1b"]
        b1a, g1a, be1a, b1b, g1b, be1b = (
            _wide(P[pf + key], X) for key in ("b1a", "g1a", "be1a",
                                              "b1b", "g1b", "be1b"))

        def block_1a(lo, hi):
            _linear_relu(X[lo:hi], W1a, b1a, A1[lo:hi], M1[lo:hi])

        def block_1b(lo, hi):
            B1 = _bn_scale(A1[lo:hi], inv1_k, g1a, be1a)
            _linear_relu(B1, W1b, b1b, A2[lo:hi], M2[lo:hi])

        def aggregate(lo, hi):
            B2 = _bn_scale(A2[lo:hi], inv2_k, g1b, be1b)
            B2 = B2.reshape(-1, K, K - 1, h)
            at = slice(lo // E, hi // E)
            np.max(B2, axis=2, out=y[at])
            # the first neighbor attaining the max, as B2.argmax(axis=2)
            # gives, but from a bool array: argmax off the last axis makes a
            # transposed copy of its operand
            np.argmax(B2 == y[at][:, :, None, :], axis=2, out=arg[at])

        if train:
            tiles.each(block_1a)
            _, inv1 = _bn_stats(A1, self.state, pf, "1a", True, tiles)
            inv1_k = _wide(inv1, X)
            tiles.each(block_1b)
            _, inv2 = _bn_stats(A2, self.state, pf, "1b", True, tiles)
            inv2_k = _wide(inv2, X)
            tiles.each(aggregate)
        else:
            mu1, inv1 = _bn_stats(A1, self.state, pf, "1a", False, tiles)
            mu2, inv2 = _bn_stats(A2, self.state, pf, "1b", False, tiles)
            mu1_k, inv1_k, mu2_k, inv2_k = (_wide(v, X)
                                            for v in (mu1, inv1, mu2, inv2))

            def chain(lo, hi):
                block_1a(lo, hi)
                _rows(np.subtract, A1[lo:hi], mu1_k)
                block_1b(lo, hi)
                _rows(np.subtract, A2[lo:hi], mu2_k)
                aggregate(lo, hi)

            tiles.each(chain)
        return y, arg, M1, (A1, inv1), M2, (A2, inv2)

    def backward_batch(self, mags, caches, dP, train=False):
        """Gradients of sum(dP * P) w.r.t. every parameter.  ``caches`` is
        consumed: each layer's cache is popped as backward reaches it, so a
        caller that runs several backward passes on one forward cache hands
        each of them a copy, ``list(caches)``."""
        m, K, _ = mags.shape
        h = self.hidden
        nbr, scatter = self._nbr(K)
        grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        P = self.params
        for j in range(self.layers - 1, -1, -1):
            pf = f"l{j}."
            X, M1, c1, M2, c2, arg, U, M3, c3, B3, pnew = caches.pop()
            dZ4 = (dP * pnew * (1.0 - pnew)).reshape(m * K, 1)
            grads[pf + "W2b"] += B3.T @ dZ4
            grads[pf + "b2b"] += _colsum(dZ4)
            dZ3, dg, dbe = _bn_backward(dZ4 @ P[pf + "W2b"].T, P[pf + "g2a"],
                                        c3, train, M3)
            grads[pf + "g2a"] += dg
            grads[pf + "be2a"] += dbe
            grads[pf + "W2a"] += U.T @ dZ3
            grads[pf + "b2a"] += _colsum(dZ3)
            if K == 1:
                dP = np.zeros((m, K))
                continue
            E = K * (K - 1)
            tiles = _Tiles.of_samples(m, E, h)
            dy = (dZ3 @ P[pf + "W2a"].T)[:, :h].reshape(m, K, h)
            dZ2 = np.empty((m * E, h))

            def route(lo, hi):
                # MAX routes gradient to the first-attained argmax neighbor
                at = slice(lo // E, hi // E)
                d = dZ2[lo:hi].reshape(-1, K, K - 1, h)
                d.fill(0.0)
                np.put_along_axis(d, arg[at][:, :, None, :],
                                  dy[at][:, :, None, :], axis=2)

            tiles.each(route)
            dZ2, dg, dbe = _bn_backward(dZ2, P[pf + "g1b"], c2, train, M2, tiles)
            del c2
            grads[pf + "g1b"] += dg
            grads[pf + "be1b"] += dbe
            # B1 as _bn_forward made it: same ufuncs, same order, same bits
            B1 = np.empty_like(dZ2)
            g1a, be1a = _wide(P[pf + "g1a"], B1), _wide(P[pf + "be1a"], B1)

            def recompute(lo, hi):
                _rows(np.multiply, c1[0][lo:hi], g1a, B1[lo:hi])
                _rows(np.add, B1[lo:hi], be1a)

            tiles.each(recompute)
            dW, db = tiles.whole(lambda: B1.T @ dZ2, lambda: _colsum(dZ2))
            del B1
            grads[pf + "W1b"] += dW
            grads[pf + "b1b"] += db
            # a C-ordered copy of W1b.T gives the same bits as the
            # transposed view and is about 5x faster in OpenBLAS
            W1bT = np.ascontiguousarray(P[pf + "W1b"].T)
            dZ1 = np.empty_like(dZ2)
            tiles.each(lambda lo, hi: np.matmul(dZ2[lo:hi], W1bT, out=dZ1[lo:hi]))
            del dZ2      # dead: one edge-sized array fewer at the peak
            dZ1, dg, dbe = _bn_backward(dZ1, P[pf + "g1a"], c1, train, M1, tiles)
            del c1
            grads[pf + "g1a"] += dg
            grads[pf + "be1a"] += dbe
            # powers reach a layer only through row 0 of W1a (the p_i
            # input); layer 0's are constant.  W1a @ dZ1.T has the bits
            # of dZ1 @ W1a.T and is several times faster in OpenBLAS; a
            # gemv on row 0 alone rounds differently.
            calls = [lambda: X.T @ dZ1, lambda: _colsum(dZ1)]
            if j:
                calls.append(lambda: P[pf + "W1a"] @ dZ1.T)
            dW, db, *dX = tiles.whole(*calls)
            grads[pf + "W1a"] += dW
            grads[pf + "b1a"] += db
            if j:
                dP = dX.pop()[0].reshape(m, E) @ scatter
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
        Z = _rows(np.add, acts[-1] @ self.params[f"W{L-1}"],
                  _wide(self.params[f"b{L-1}"], X))
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
            grads[f"b{l}"] = _colsum(delta)
            if l > 0:
                M, c = blocks[l - 1]
                delta, dg, dbe = _bn_backward(delta @ self.params[f"W{l}"].T,
                                              self.params[f"g{l-1}"], c, train, M)
                grads[f"g{l-1}"] = dg
                grads[f"be{l-1}"] = dbe
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

    A TwoLayerNet's step holds one (r, m) buffer: the transposed
    pre-activation Z^T = W @ X.T, which becomes relu(Z^T) as the outputs
    are read out, with the bits of ``forward``, and then the 0/1 mask that
    dW contracts with the residual-scaled (m, d) inputs.  Like every BLAS
    call it runs on one OpenBLAS thread (:mod:`ntklab.pool`).
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
        X, Zt = net._preact(_batch_features(net, batch))
        u = net._readout(Zt, Zt)
        _check_finite_per_sample(u, "output")
        resid = u - y
        dW = net._backprop(X, Zt, resid)
        return {"W": dW}, 0.5 * float(np.sum(resid ** 2))
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
