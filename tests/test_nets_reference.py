"""The lean WCGCN and PowerMlp steps against the textbook formulation.

``nets.py`` keeps a bool ReLU mask where the reference below keeps the
float pre-activation Z, recomputes block 1a's output B1 in backward where
the reference caches it, frees backward temporaries early, works through
the BatchNorm backward in row blocks, finds the MAX index from a bool
array, and skips layer 0's gradient to its constant input powers.  None of
that may move a bit: training trajectories amplify last-bit differences
into the experiment CSVs.  So every output, gradient
and running statistic here is compared with ``np.array_equal``, not a
tolerance.  A memory guard pins the buffers the lean step saves.
"""

import tracemalloc

import numpy as np
import pytest

from ntklab.nets import (
    BN_EPS,
    BN_MOMENTUM,
    BN_ROWS,
    PowerMlp,
    WcgcnNet,
    _sigmoid,
    gradients,
    sum_rate_loss_grad,
)
from ntklab.netsim import generate_instances


# ---------------------------------------------------------------------------
# reference: float pre-activations, argmax(axis=2), layer-0 dP


def _ref_bn_forward(A, gamma, beta, state, prefix, tag, train):
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


def _ref_bn_backward(dout, gamma, cache, train):
    xhat, inv = cache
    dgamma = np.einsum("ij,ij->j", dout, xhat)
    dbeta = dout.sum(axis=0)
    dxhat = np.multiply(dout, gamma, out=dout)
    if train:
        dA = xhat * (np.einsum("ij,ij->j", dxhat, xhat) / dout.shape[0])
        dxhat -= dxhat.mean(axis=0)
        dA = np.subtract(dxhat, dA, out=dA)
    else:
        dA = dxhat
    dA *= inv
    return dA, dgamma, dbeta


def _ref_wcgcn_forward(net, mags, weights, train, maxed):
    """WcgcnNet.forward_batch as it kept float pre-activations; appends each
    layer's aggregated edge outputs (m, K, K-1, h) to ``maxed``."""
    m, K, _ = mags.shape
    h = net.hidden
    nbr, _ = net._nbr(K)
    diag = np.einsum("mkk->mk", mags)
    p = np.ones((m, K))
    caches = []
    if K > 1:
        E = K * (K - 1)
        h_ik = mags[:, nbr, np.arange(K)[:, None]]
        h_ki = mags[:, np.arange(K)[:, None], nbr]
    for j in range(net.layers):
        pf = f"l{j}."
        P = net.params
        if K > 1:
            pi = p[:, nbr]
            X = np.stack([pi, h_ik, h_ki], axis=-1).reshape(m * E, 3)
            Z1 = X @ P[pf + "W1a"] + P[pf + "b1a"]
            B1, c1 = _ref_bn_forward(np.maximum(Z1, 0.0), P[pf + "g1a"],
                                     P[pf + "be1a"], net.state, pf, "1a", train)
            Z2 = B1 @ P[pf + "W1b"] + P[pf + "b1b"]
            B2, c2 = _ref_bn_forward(np.maximum(Z2, 0.0), P[pf + "g1b"],
                                     P[pf + "be1b"], net.state, pf, "1b", train)
            B2v = B2.reshape(m, K, K - 1, h)
            y = B2v.max(axis=2)
            arg = B2v.argmax(axis=2)
            maxed.append(B2v)
        else:
            X = Z1 = B1 = Z2 = c1 = c2 = arg = None
            y = np.zeros((m, 1, h))
        U = np.concatenate([y, weights[..., None], diag[..., None]],
                           axis=-1).reshape(m * K, h + 2)
        Z3 = U @ P[pf + "W2a"] + P[pf + "b2a"]
        B3, c3 = _ref_bn_forward(np.maximum(Z3, 0.0), P[pf + "g2a"],
                                 P[pf + "be2a"], net.state, pf, "2a", train)
        Z4 = (B3 @ P[pf + "W2b"] + P[pf + "b2b"]).reshape(m, K)
        pnew = _sigmoid(Z4)
        caches.append((X, Z1, B1, c1, Z2, c2, arg, U, Z3, c3, B3, pnew))
        p = pnew
    return p, caches


def _ref_wcgcn_backward(net, mags, caches, dP, train):
    m, K, _ = mags.shape
    h = net.hidden
    nbr, scatter = net._nbr(K)
    grads = {k: np.zeros_like(v) for k, v in net.params.items()}
    for j in range(net.layers - 1, -1, -1):
        pf = f"l{j}."
        P = net.params
        X, Z1, B1, c1, Z2, c2, arg, U, Z3, c3, B3, pnew = caches[j]
        dZ4 = (dP * pnew * (1.0 - pnew)).reshape(m * K, 1)
        grads[pf + "W2b"] += B3.T @ dZ4
        grads[pf + "b2b"] += dZ4.sum(axis=0)
        dB3 = dZ4 @ P[pf + "W2b"].T
        dA3, dg, dbe = _ref_bn_backward(dB3, P[pf + "g2a"], c3, train)
        grads[pf + "g2a"] += dg
        grads[pf + "be2a"] += dbe
        dZ3 = np.multiply(dA3, Z3 > 0, out=dA3)
        grads[pf + "W2a"] += U.T @ dZ3
        grads[pf + "b2a"] += dZ3.sum(axis=0)
        if K == 1:
            dP = np.zeros((m, K))
            continue
        E = K * (K - 1)
        dU = dZ3 @ P[pf + "W2a"].T
        dy = dU[:, :h].reshape(m, K, h)
        dB2 = np.zeros((m, K, K - 1, h))
        np.put_along_axis(dB2, arg[:, :, None, :], dy[:, :, None, :], axis=2)
        dB2 = dB2.reshape(m * E, h)
        dA2, dg, dbe = _ref_bn_backward(dB2, P[pf + "g1b"], c2, train)
        grads[pf + "g1b"] += dg
        grads[pf + "be1b"] += dbe
        dZ2 = np.multiply(dA2, Z2 > 0, out=dA2)
        grads[pf + "W1b"] += B1.T @ dZ2
        grads[pf + "b1b"] += dZ2.sum(axis=0)
        dB1 = dZ2 @ np.ascontiguousarray(P[pf + "W1b"].T)
        dA1, dg, dbe = _ref_bn_backward(dB1, P[pf + "g1a"], c1, train)
        grads[pf + "g1a"] += dg
        grads[pf + "be1a"] += dbe
        dZ1 = np.multiply(dA1, Z1 > 0, out=dA1)
        grads[pf + "W1a"] += X.T @ dZ1
        grads[pf + "b1a"] += dZ1.sum(axis=0)
        dP = (P[pf + "W1a"] @ dZ1.T)[0].reshape(m, E) @ scatter
    return grads


def _ref_mlp_forward(net, X, train):
    L = len(net.dims) - 1
    acts, caches = [X], []
    for l in range(L):
        Z = acts[-1] @ net.params[f"W{l}"] + net.params[f"b{l}"]
        if l < L - 1:
            B, c = _ref_bn_forward(np.maximum(Z, 0.0), net.params[f"g{l}"],
                                   net.params[f"be{l}"], net.state, "", f"{l}", train)
            caches.append((Z, c))
            acts.append(B)
        else:
            acts.append(_sigmoid(Z))
    return acts[-1], (acts, caches)


def _ref_mlp_backward(net, cache, dP, train):
    acts, caches = cache
    grads = {}
    P = acts[-1]
    delta = dP * P * (1.0 - P)
    for l in range(len(net.dims) - 2, -1, -1):
        grads[f"W{l}"] = acts[l].T @ delta
        grads[f"b{l}"] = delta.sum(axis=0)
        if l > 0:
            dB = delta @ net.params[f"W{l}"].T
            Z, c = caches[l - 1]
            dA, dg, dbe = _ref_bn_backward(dB, net.params[f"g{l-1}"], c, train)
            grads[f"g{l-1}"] = dg
            grads[f"be{l-1}"] = dbe
            delta = np.multiply(dA, Z > 0, out=dA)
    return grads


# ---------------------------------------------------------------------------
# fixtures


def _twin_wcgcn(seed):
    """Two identical WCGCNs (2 layers, hidden 5) with non-trivial running
    statistics and hidden unit 0 of block 1b dead in layer 0: its ReLU
    output is 0 on every edge, so BatchNorm maps all of them to one value
    and the MAX over neighbors ties."""
    nets = []
    for _ in range(2):
        net = WcgcnNet.create(hidden=5, layers=2, seed=seed)
        net.params["l0.b1b"][0] = -1e3
        rng = np.random.default_rng(seed)
        for key in sorted(net.state):
            if "mu" in key:
                net.state[key] = 0.3 * rng.standard_normal(5)
            else:
                net.state[key] = rng.uniform(0.5, 2.0, 5)
        nets.append(net)
    return nets


def _assert_same(a, b):
    assert a.keys() == b.keys()
    for key in a:
        assert np.array_equal(a[key], b[key]), key


def _check_wcgcn_step(K, m, train):
    net, ref = _twin_wcgcn(seed=K)
    batch = generate_instances(K, m, seed=20 + K)
    dP = np.random.default_rng(K).standard_normal((m, K))

    maxed = []
    P_ref, caches_ref = _ref_wcgcn_forward(ref, batch.mags, batch.weights,
                                           train, maxed)
    P, caches = net.forward_batch(batch.mags, batch.weights, train=train)
    assert np.array_equal(P, P_ref)
    _assert_same(net.state, ref.state)
    for c, c_ref in zip(caches, caches_ref):
        # the masks of blocks 1a, 1b and 2a
        for slot, ref_slot in ((1, 1), (3, 4), (7, 8)):
            if c_ref[ref_slot] is None:
                assert c[slot] is None
            else:
                assert c[slot].dtype == bool
                assert np.array_equal(c[slot], c_ref[ref_slot] > 0)
        if c_ref[6] is not None:
            assert np.array_equal(c[5], c_ref[6])     # the MAX argmax
    if K >= 5:
        # the dead unit really ties: many neighbors share the maximum
        B2v = maxed[0]
        ties = (B2v == B2v.max(axis=2, keepdims=True)).sum(axis=2)
        assert np.all(ties[..., 0] == K - 1)
        assert (ties > 1).sum() >= m * K

    g_ref = _ref_wcgcn_backward(ref, batch.mags, caches_ref, dP, train)
    g = net.backward_batch(batch.mags, caches, dP, train=train)
    _assert_same(g, g_ref)


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("K", [1, 2, 5])
def test_wcgcn_step_is_bit_identical_to_the_reference(K, train):
    _check_wcgcn_step(K, 7, train)


@pytest.mark.parametrize("train", [True, False])
def test_wcgcn_step_is_bit_identical_across_bn_row_blocks(train):
    # 4,560 edge rows: the train-mode BatchNorm backward works in blocks of
    # BN_ROWS rows, and the seams between them must not move a bit
    K, m = 20, 12
    assert m * K * (K - 1) > 2 * BN_ROWS
    _check_wcgcn_step(K, m, train)


@pytest.mark.parametrize("train", [True, False])
def test_wcgcn_training_steps_stay_bit_identical(train):
    # three sum-rate steps: each one's gradients move the next one's inputs
    net, ref = _twin_wcgcn(seed=9)
    batch = generate_instances(4, 9, seed=31)
    for _ in range(3):
        g, _ = gradients(net, batch, train=train)
        P_ref, caches_ref = _ref_wcgcn_forward(ref, batch.mags, batch.weights,
                                               train, [])
        _, dP = sum_rate_loss_grad(batch.mags, batch.sigma2s, batch.weights, P_ref)
        g_ref = _ref_wcgcn_backward(ref, batch.mags, caches_ref, dP, train)
        _assert_same(g, g_ref)
        _assert_same(net.state, ref.state)
        for key in net.params:
            net.params[key] -= 0.05 * g[key]
            ref.params[key] -= 0.05 * g_ref[key]


@pytest.mark.parametrize("train", [True, False])
def test_power_mlp_step_is_bit_identical_to_the_reference(train):
    net, ref = (PowerMlp.create((20, 6, 5, 4), seed=3) for _ in range(2))
    for n in (net, ref):
        n.params["b0"][0] = -1e3        # one dead unit in the first block
    batch = generate_instances(4, 8, seed=4)
    dP = np.random.default_rng(5).standard_normal((8, 4))
    P_ref, cache_ref = _ref_mlp_forward(ref, batch.flat_features, train)
    P, cache = net.forward_batch(batch.flat_features, train=train)
    assert np.array_equal(P, P_ref)
    _assert_same(net.state, ref.state)
    for (M, _), (Z, _) in zip(cache[1], cache_ref[1]):
        assert M.dtype == bool and np.array_equal(M, Z > 0)
    _assert_same(net.backward_batch(cache, dP, train=train),
                 _ref_mlp_backward(ref, cache_ref, dP, train))


# ---------------------------------------------------------------------------
# memory


def _step_peak_in_edge_arrays(train):
    """Peak traced memory of one ``gradients`` step at K = 20, in edge-sized
    arrays (m K (K-1) x hidden float64)."""
    K, m, h = 20, 50, 32
    net = WcgcnNet.create(hidden=h, layers=2, seed=0)
    batch = generate_instances(K, m, seed=1)
    gradients(net, batch, train=train)      # warm caches
    _, caches = net.forward_batch(batch.mags, batch.weights, train=train)
    assert all(c[slot].dtype == bool for c in caches for slot in (1, 3, 7))
    del caches
    tracemalloc.start()
    try:
        gradients(net, batch, train=train)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (m * K * (K - 1) * h * 8)


def test_wcgcn_train_step_memory_stays_bounded():
    """One train-mode step holds fewer than 7 edge-sized arrays at its peak
    (6.5 measured).  Keeping float pre-activations for the ReLU derivative
    and the dead backward temporaries took 16; caching B1 and a full-size
    BatchNorm backward temporary took 9.3."""
    peak = _step_peak_in_edge_arrays(train=True)
    assert peak < 7, f"peak {peak:.1f} edge-sized arrays"


def test_wcgcn_eval_step_memory_stays_bounded():
    """The eval-mode step, as snapshot evaluation runs it, under the same
    bound (6.3 measured; 9.3 with B1 cached)."""
    peak = _step_peak_in_edge_arrays(train=False)
    assert peak < 7, f"peak {peak:.1f} edge-sized arrays"
