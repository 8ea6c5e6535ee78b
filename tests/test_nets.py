"""Neural networks: forward passes, exact gradients, losses, chunking.

Every analytic gradient is checked against central finite differences.
ReLU and max-aggregation make the losses piecewise smooth, so each sampled
coordinate first has to pass a two-step-size agreement check; coordinates
sitting on a kink are skipped (they are rare at generic Gaussian inputs,
and the test insists that most coordinates survive).
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ntklab import NumericFailureError
from ntklab.nets import (
    BN_EPS,
    BN_MOMENTUM,
    PowerMlp,
    TwoLayerNet,
    WcgcnNet,
    gradients,
    init_net,
    loss_value,
    n_params,
    sample_chunks,
    sum_rate_loss_grad,
    _bn_backward,
    _bn_forward,
)
from ntklab.netsim import (
    gaussian_node_dataset,
    generate_instances,
    labelled_gaussian_dataset,
    sum_rate_batch,
    synthetic_labels,
)
from ntklab.rng import stream


def channel_batch(K, m, seed=0):
    return generate_instances(K, m, seed)


def fd_check(net, batch, train, n_coords=12, seed=0, rel=3e-4, h_scale=1e-5):
    """Compare analytic gradients with central differences on random
    parameter coordinates, skipping coordinates near a derivative kink."""
    grads, _ = gradients(net, batch, train=train)
    rng = np.random.default_rng(seed)
    keys = sorted(net.params)
    survived = 0
    for _ in range(n_coords):
        key = keys[rng.integers(len(keys))]
        flat = net.params[key].reshape(-1)
        idx = int(rng.integers(flat.size))
        base = flat[idx]
        h = h_scale * max(1.0, abs(base))

        def f(val):
            flat[idx] = val
            out = loss_value(net, batch, train=train)
            flat[idx] = base
            return out

        fd_wide = (f(base + h) - f(base - h)) / (2 * h)
        fd_tight = (f(base + h / 8) - f(base - h / 8)) / (h / 4)
        if abs(fd_wide - fd_tight) > 1e-3 * max(abs(fd_wide), abs(fd_tight), 1e-6):
            continue        # derivative kink inside the stencil
        survived += 1
        assert grads[key].reshape(-1)[idx] == pytest.approx(
            fd_tight, rel=rel, abs=1e-8
        ), f"coordinate {key}[{idx}]"
    assert survived >= n_coords // 2


# ---------------------------------------------------------------------------
# BatchNorm


class TestBatchNorm:
    """The in-place kernels against the textbook two-pass formulas.  The
    finite-difference checks above run at rel=3e-4 and would miss a small
    algebra slip; these compare at rtol=1e-12."""

    n, h = 200, 6

    def _inputs(self, seed):
        rng = np.random.default_rng(seed)
        # ReLU outputs with per-column scale, as the nets feed them
        A = np.maximum(rng.standard_normal((self.n, self.h)) + 0.3, 0.0)
        A *= rng.uniform(0.1, 3.0, self.h)
        gamma = rng.uniform(0.5, 2.0, self.h)
        beta = rng.standard_normal(self.h)
        dout = rng.standard_normal((self.n, self.h))
        state = {"mux": rng.standard_normal(self.h),
                 "vax": rng.uniform(0.5, 2.0, self.h)}
        return A, gamma, beta, dout, state

    @staticmethod
    def _close(actual, expected):
        np.testing.assert_allclose(actual, expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())

    def test_train_mode_matches_two_pass(self):
        A, gamma, beta, dout, state = self._inputs(0)
        n = self.n
        mu = A.sum(axis=0) / n
        va = ((A - mu) ** 2).sum(axis=0) / n
        sd = np.sqrt(va + BN_EPS)
        xhat = (A - mu) / sd
        # backward by the chain rule through mu and va
        dxhat = dout * gamma
        dva = (dxhat * (A - mu)).sum(axis=0) * -0.5 * sd ** -3
        dmu = -(dxhat / sd).sum(axis=0) + dva * (-2.0 * (A - mu)).mean(axis=0)
        dA_ref = dxhat / sd + dva * 2.0 * (A - mu) / n + dmu / n
        mu_run = (1 - BN_MOMENTUM) * state["mux"] + BN_MOMENTUM * mu
        va_run = (1 - BN_MOMENTUM) * state["vax"] + BN_MOMENTUM * va

        buf = A.copy()
        out, cache = _bn_forward(buf, gamma, beta, state, "", "x", train=True)
        self._close(out, gamma * xhat + beta)
        self._close(cache[0], xhat)
        self._close(state["mux"], mu_run)
        self._close(state["vax"], va_run)
        dA, dgamma, dbeta = _bn_backward(dout.copy(), gamma, cache, train=True)
        self._close(dA, dA_ref)
        self._close(dgamma, (dout * xhat).sum(axis=0))
        self._close(dbeta, dout.sum(axis=0))

    def test_eval_mode_matches_two_pass_and_keeps_stats(self):
        A, gamma, beta, dout, state = self._inputs(1)
        before = {k: v.copy() for k, v in state.items()}
        sd = np.sqrt(state["vax"] + BN_EPS)
        xhat = (A - state["mux"]) / sd
        out, cache = _bn_forward(A.copy(), gamma, beta, state, "", "x",
                                 train=False)
        self._close(out, gamma * xhat + beta)
        for k in before:
            np.testing.assert_array_equal(state[k], before[k])
        dA, dgamma, dbeta = _bn_backward(dout.copy(), gamma, cache, train=False)
        self._close(dA, dout * gamma / sd)
        self._close(dgamma, (dout * xhat).sum(axis=0))
        self._close(dbeta, dout.sum(axis=0))

    def test_train_mode_gradient_invariants(self):
        # shifting a column of A leaves the output unchanged, so dA sums to
        # 0 down each column; scaling a column changes the output only
        # through BN_EPS, so dA . xhat is that eps share of gamma*inv*dgamma
        A, gamma, beta, dout, state = self._inputs(2)
        _, (xhat, inv) = _bn_forward(A.copy(), gamma, beta, state, "", "x",
                                     train=True)
        dA, dgamma, _ = _bn_backward(dout, gamma, (xhat, inv), train=True)
        scale = np.abs(dA).sum(axis=0)
        assert np.all(np.abs(dA.sum(axis=0)) <= 1e-13 * scale)
        eps_share = gamma * inv * dgamma * (1.0 - (xhat ** 2).mean(axis=0))
        assert np.all(np.abs((dA * xhat).sum(axis=0) - eps_share) <= 1e-13 * scale)

    def test_forward_overwrites_its_input_with_xhat(self):
        A, gamma, beta, _, state = self._inputs(3)
        buf = A.copy()
        _, (xhat, _) = _bn_forward(buf, gamma, beta, state, "", "x", train=True)
        assert xhat is buf

    @pytest.mark.parametrize("train", [True, False])
    def test_backward_returns_its_gradient_in_dout(self, train):
        A, gamma, beta, dout, state = self._inputs(4)
        _, cache = _bn_forward(A.copy(), gamma, beta, state, "", "x", train=train)
        buf = dout.copy()
        dA, _, _ = _bn_backward(buf, gamma, cache, train=train)
        assert dA is buf


# ---------------------------------------------------------------------------
# TwoLayerNet


class TestTwoLayerNet:
    def test_forward_hand_computed(self):
        net = TwoLayerNet(W=np.eye(2), a=np.array([1.0, -1.0]))
        # f(x) = (relu(x0) - relu(x1)) / sqrt(2)
        np.testing.assert_allclose(net.forward([[2.0, 3.0], [-1.0, 4.0]]),
                                   [-1.0 / np.sqrt(2), -4.0 / np.sqrt(2)])

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoLayerNet(np.ones((4, 2)), np.ones(3))
        with pytest.raises(ValueError):
            TwoLayerNet(np.ones((4, 2)), np.full(4, 0.5))
        net = TwoLayerNet(np.ones((4, 2)), np.ones(4))
        # node sets (m, n, d) are not an input: the net reads flat vectors
        for shape in ((3, 5, 2), (2, 2, 2, 2)):
            with pytest.raises(ValueError, match="inputs must be"):
                net.forward(np.ones(shape))

    @pytest.mark.parametrize("dead", [False, True])
    @pytest.mark.parametrize("m, d, r", [(9, 3, 64), (1, 8, 256), (12, 4, 32),
                                         (50, 8, 4096), (257, 60, 100),
                                         (5, 2, 3), (40, 8, 1000)])
    def test_fused_step_matches_two_pass_step(self, m, d, r, dead):
        # gradients computes the pre-activation once and divides dW by the
        # signed scale a * sqrt(r); its outputs and dW must be the bits of a
        # forward pass followed by a separate backward pass, both written
        # out here, at the ntk-regime shape, at gemm shapes around it and
        # at widths whose square root rounds
        ds = gaussian_node_dataset(1, m, d, seed=12)
        if dead:
            # positive inputs, a negative and a zero weight row: two
            # columns of Z that are <= 0 everywhere (one exactly 0), so
            # those neurons get no gradient
            ds = replace(ds, node_features=np.abs(ds.node_features),
                         flat_features=np.abs(ds.flat_features))
        ds = replace(ds, labels=synthetic_labels(ds, np.ones(d), 2))
        net = init_net("two-layer", d, r, seed=13)
        if dead:
            net.W[0] = -np.abs(net.W[0])
            net.W[1] = 0.0
        X = ds.flat_features

        # the two-pass step, written out
        Z = X @ net.W.T
        if dead:
            assert np.all(Z[:, :2] <= 0) and not Z[:, 1].any()
        u = np.maximum(Z, 0.0) @ net.a / np.sqrt(r)
        resid = u - ds.labels
        Z = X @ net.W.T
        S = (Z > 0).astype(float) * net.a
        want = (S * resid[:, None]).T @ X / np.sqrt(r)

        grads, loss = gradients(net, ds)
        assert np.array_equal(grads["W"], want)
        assert loss == 0.5 * float(np.sum(resid ** 2))
        assert np.array_equal(net.forward(X), u)
        if dead:
            assert not grads["W"][:2].any()

    def test_output_signs_are_frozen(self):
        # the signed divisor is built from a once: the net's a is its own
        # read-only copy, and the caller's array stays writable
        a = np.array([-1.0, 1.0, -1.0])
        net = TwoLayerNet(np.ones((3, 2)), a)
        with pytest.raises(ValueError):
            net.a[0] = 1.0
        a[0] = 1.0
        assert net.a[0] == -1.0

    def test_step_holds_one_preactivation_buffer(self):
        # Z becomes relu(Z) and then the backward signal in one (m, r)
        # buffer; a separate relu output doubled the peak (2.0 measured)
        m, d, r = 50, 8, 4096
        ds = labelled_gaussian_dataset(1, m, d, 0, 1)
        net = init_net("two-layer", d, r, seed=1)
        gradients(net, ds, train=True)      # warm caches
        tracemalloc.start()
        try:
            gradients(net, ds, train=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * m * r * 8, f"peak {peak / (m * r * 8):.2f} buffers"

    def test_init_deterministic_in_seed(self):
        n1 = init_net("two-layer", 5, 32, seed=9)
        n2 = init_net("two-layer", 5, 32, seed=9)
        n3 = init_net("two-layer", 5, 32, seed=10)
        np.testing.assert_array_equal(n1.W, n2.W)
        np.testing.assert_array_equal(n1.a, n2.a)
        assert not np.array_equal(n1.W, n3.W)

    def test_init_validation(self):
        with pytest.raises(ValueError):
            init_net("two-layer", 5, 0, seed=0)
        with pytest.raises(ValueError):
            init_net("three-layer", 5, 4, seed=0)


# ---------------------------------------------------------------------------
# WcgcnNet


class TestWcgcn:
    def test_param_count_independent_of_k(self):
        net = WcgcnNet.create(hidden=8, layers=2, seed=0)
        # parameters never mention K, so one net serves every user count
        assert n_params(net) == 2 * (2 * 8 ** 2 + 15 * 8 + 1)
        for K in (1, 3, 6):
            batch = channel_batch(K, 4)
            P, _ = net.forward_batch(batch.mags, batch.weights)
            assert P.shape == (4, K)

    def test_powers_strictly_inside_unit_interval(self):
        net = WcgcnNet.create(hidden=6, layers=2, seed=1)
        batch = channel_batch(5, 8)
        P, _ = net.forward_batch(batch.mags, batch.weights)
        assert np.all(P > 0) and np.all(P < 1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 10_000))
    def test_permutation_equivariance(self, K, seed):
        """Relabeling users by pi (old user pi[j] at slot j, so the channel
        magnitudes become mags[:, pi][:, :, pi]) relabels the powers."""
        net = WcgcnNet.create(hidden=8, layers=2, seed=2)
        batch = channel_batch(K, 3, seed=seed)
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.5, 2.0, (3, K))
        pi = rng.permutation(K)
        P, _ = net.forward_batch(batch.mags, weights)
        P_perm, _ = net.forward_batch(batch.mags[:, pi][:, :, pi], weights[:, pi])
        np.testing.assert_allclose(P_perm, P[:, pi], rtol=1e-10)

    def test_forward_wcgcn_returns_allocation(self):
        """A single instance (m = 1) gets a K-vector of powers in (0, 1):
        in evaluation mode samples do not interact, so it is that sample's
        row of any batch it sits in."""
        net = WcgcnNet.create(hidden=4, layers=2, seed=3)
        batch = channel_batch(4, 5)
        P, _ = net.forward_batch(batch.mags, batch.weights)
        p, _ = net.forward_batch(batch.mags[2:3], batch.weights[2:3])
        assert p.shape == (1, 4) and np.all((p > 0) & (p < 1))
        np.testing.assert_allclose(p[0], P[2], rtol=1e-12)

    def test_gradients_eval_mode(self):
        net = WcgcnNet.create(hidden=5, layers=2, seed=5)
        batch = channel_batch(4, 6, seed=6)
        fd_check(net, batch, train=False)

    def test_gradients_train_mode(self):
        # train-mode BatchNorm normalizes by batch statistics, which are
        # themselves functions of the parameters; the backward pass must
        # account for that.
        net = WcgcnNet.create(hidden=5, layers=2, seed=7)
        batch = channel_batch(4, 6, seed=8)
        fd_check(net, batch, train=True, seed=1)

    def test_single_user_forward_and_gradient(self):
        net = WcgcnNet.create(hidden=4, layers=2, seed=9)
        batch = channel_batch(1, 5, seed=10)
        P, _ = net.forward_batch(batch.mags, batch.weights)
        assert P.shape == (5, 1)
        fd_check(net, batch, train=False, n_coords=8, seed=2)

    def test_batchnorm_running_stats_update_only_in_train(self):
        net = WcgcnNet.create(hidden=4, layers=2, seed=11)
        batch = channel_batch(3, 12, seed=12)
        before = {k: v.copy() for k, v in net.state.items()}
        net.forward_batch(batch.mags, batch.weights, train=False)
        for k in before:
            np.testing.assert_array_equal(net.state[k], before[k])
        net.forward_batch(batch.mags, batch.weights, train=True)
        assert any(not np.array_equal(net.state[k], before[k]) for k in before)

    def test_backward_batch_consumes_its_caches(self):
        # backward pops each layer's cache as it reaches it, so the edge
        # arrays die during the pass; a copy of the list leaves the cache
        # whole for a second pass with the same bits
        net = WcgcnNet.create(hidden=4, layers=2, seed=3)
        batch = channel_batch(4, 5, seed=4)
        _, caches = net.forward_batch(batch.mags, batch.weights, train=True)
        dP = np.random.default_rng(5).standard_normal((5, 4))
        g_copy = net.backward_batch(batch.mags, list(caches), dP, train=True)
        assert len(caches) == 2
        g = net.backward_batch(batch.mags, caches, dP, train=True)
        assert caches == []
        for key in g:
            assert np.array_equal(g[key], g_copy[key]), key


# ---------------------------------------------------------------------------
# PowerMlp


class TestPowerMlp:
    def test_create_and_shapes(self):
        K = 4
        net = init_net("power-mlp", (K * K + K, K), width=10, seed=0)
        assert net.dims == (20, 10, 10, 4)
        batch = channel_batch(K, 6)
        P, _ = net.forward_batch(batch.flat_features)
        assert P.shape == (6, K)
        assert np.all((P > 0) & (P < 1))

    def test_param_count(self):
        net = PowerMlp.create((6, 5, 5, 3), seed=1)
        want = (6 * 5 + 5) + (5 * 5 + 5) + (5 * 3 + 3) + 2 * (2 * 5)
        assert n_params(net) == want

    def test_gradients_eval_mode(self):
        net = init_net("power-mlp", (20, 4), width=7, seed=2)
        batch = channel_batch(4, 6, seed=3)
        fd_check(net, batch, train=False, seed=3)

    def test_gradients_train_mode(self):
        net = init_net("power-mlp", (20, 4), width=7, seed=4)
        batch = channel_batch(4, 6, seed=5)
        fd_check(net, batch, train=True, seed=4)


# ---------------------------------------------------------------------------
# losses


class TestLosses:
    def test_sum_rate_loss_matches_batch_rates(self):
        batch = channel_batch(5, 7, seed=0)
        P = np.random.default_rng(1).random((7, 5))
        got, _ = sum_rate_loss_grad(batch.mags, batch.sigma2s, batch.weights, P)
        rates = sum_rate_batch(batch.mags, batch.sigma2s, batch.weights, P)
        np.testing.assert_allclose(got, rates, rtol=1e-12)
        # both power-control nets train on the mean negative sum rate
        wcgcn = WcgcnNet.create(hidden=4, layers=2, seed=0)
        mlp = init_net("power-mlp", (30, 5), width=7, seed=0)
        for net, P in ((wcgcn, wcgcn.forward_batch(batch.mags, batch.weights)[0]),
                       (mlp, mlp.forward_batch(batch.flat_features)[0])):
            rates = sum_rate_batch(batch.mags, batch.sigma2s, batch.weights, P)
            assert loss_value(net, batch) == -rates.mean()
            _, loss = gradients(net, batch)
            assert loss == -rates.mean()

    def test_sum_rate_grad_finite_difference(self):
        batch = channel_batch(3, 4, seed=2)
        rng = np.random.default_rng(3)
        P = 0.2 + 0.6 * rng.random((4, 3))
        _, dP = sum_rate_loss_grad(batch.mags, batch.sigma2s, batch.weights, P)

        def loss(P):       # the mean negative sum rate dP differentiates
            rates, _ = sum_rate_loss_grad(batch.mags, batch.sigma2s,
                                          batch.weights, P)
            return -rates.mean()

        h = 1e-7
        for i, k in [(0, 0), (2, 1), (3, 2)]:
            Pp, Pm = P.copy(), P.copy()
            Pp[i, k] += h
            Pm[i, k] -= h
            assert dP[i, k] == pytest.approx((loss(Pp) - loss(Pm)) / (2 * h),
                                             rel=1e-5)

    def test_squared_loss_two_layer(self):
        ds = gaussian_node_dataset(1, 6, 3, seed=4)
        ds = replace(ds, labels=synthetic_labels(ds, beta=np.ones(3), p_degree=2))
        net = init_net("two-layer", 3, 16, seed=5)
        u = net.forward(ds.flat_features)
        want = 0.5 * np.sum((u - ds.labels) ** 2)
        assert loss_value(net, ds) == pytest.approx(want, rel=1e-12)

    def test_squared_loss_gradient_two_layer(self):
        ds = gaussian_node_dataset(1, 6, 3, seed=6)
        ds = replace(ds, labels=synthetic_labels(ds, beta=np.array([1.0, -0.5, 0.25]), p_degree=2))
        net = init_net("two-layer", 3, 12, seed=7)
        fd_check(net, ds, train=False, seed=5)

    def test_unknown_loss_rejected(self):
        # the net fixes its loss: an object that is none of the three nets
        # has none
        ds = channel_batch(3, 2)
        with pytest.raises(ValueError, match="does not produce power vectors"):
            loss_value(object(), ds)
        with pytest.raises(ValueError, match="does not produce power vectors"):
            gradients(object(), ds)

    @pytest.mark.parametrize("arch", ["wcgcn", "power-mlp"])
    def test_sum_rate_nets_reject_data_without_channels(self, arch):
        # labelled Gaussian node sets carry no channel arrays to rate
        ds = gaussian_node_dataset(1, 4, 3, seed=14)
        ds = replace(ds, labels=synthetic_labels(ds, beta=np.ones(3), p_degree=1))
        net = init_net(arch, (3, 1), 4, seed=15)
        with pytest.raises(ValueError, match="needs channel instances"):
            loss_value(net, ds)
        with pytest.raises(ValueError, match="needs channel instances"):
            gradients(net, ds)

    def test_two_layer_reads_only_flat_features(self):
        # a node-set dataset whose node dimension is the net's input
        # dimension is still a mismatch: the net reads the flat n*d vector
        ds = gaussian_node_dataset(2, 4, 3, seed=8)
        ds = replace(ds, labels=synthetic_labels(ds, beta=np.ones(3), p_degree=1))
        net = init_net("two-layer", 3, 8, seed=9)
        with pytest.raises(ValueError, match="do not match"):
            loss_value(net, ds)
        assert loss_value(init_net("two-layer", 6, 8, seed=9), ds) > 0

    def test_squared_loss_without_labels_rejected(self):
        ds = gaussian_node_dataset(1, 4, 3, seed=8)
        net = init_net("two-layer", 3, 8, seed=9)
        with pytest.raises(ValueError):
            loss_value(net, ds)

    def test_nonfinite_output_flags_sample(self):
        ds = gaussian_node_dataset(1, 4, 3, seed=10)
        ds = replace(ds, labels=synthetic_labels(ds, beta=np.ones(3), p_degree=2))
        net = init_net("two-layer", 3, 8, seed=11)
        net.W[0, 0] = np.inf
        with pytest.raises(NumericFailureError):
            gradients(net, ds)


# ---------------------------------------------------------------------------
# chunked evaluation


class TestChunking:
    def test_sample_chunks_partition(self):
        ds = channel_batch(3, 10)
        subs = list(sample_chunks(ds, 4))
        assert [s.m for s in subs] == [4, 4, 2]
        np.testing.assert_array_equal(
            np.concatenate([s.mags for s in subs]), ds.mags
        )

    def test_chunked_loss_matches_full(self):
        net = WcgcnNet.create(hidden=5, layers=2, seed=0)
        batch = channel_batch(4, 13, seed=1)
        full = loss_value(net, batch, train=False)
        split = loss_value(net, batch, train=False, chunk=5)
        assert split == pytest.approx(full, rel=1e-12)

    def test_chunked_gradients_match_full(self):
        net = WcgcnNet.create(hidden=5, layers=2, seed=2)
        batch = channel_batch(4, 13, seed=3)
        g_full, l_full = gradients(net, batch, train=False)
        g_split, l_split = gradients(net, batch,
                                     train=False, chunk=5)
        assert l_split == pytest.approx(l_full, rel=1e-12)
        for k in g_full:
            np.testing.assert_allclose(g_split[k], g_full[k],
                                       rtol=1e-10, atol=1e-12)

    def test_chunked_squared_loss_sums(self):
        # the squared loss is a sum, not a mean: chunks add up directly
        ds = gaussian_node_dataset(1, 11, 3, seed=4)
        ds = replace(ds, labels=synthetic_labels(ds, beta=np.ones(3), p_degree=2))
        net = init_net("two-layer", 3, 8, seed=5)
        full = loss_value(net, ds)
        split = loss_value(net, ds, chunk=3)
        assert split == pytest.approx(full, rel=1e-12)
        g_full, _ = gradients(net, ds)
        g_split, _ = gradients(net, ds, chunk=3)
        np.testing.assert_allclose(g_split["W"], g_full["W"], rtol=1e-10)

    def test_chunking_requires_eval_mode(self):
        net = WcgcnNet.create(hidden=4, layers=2, seed=6)
        batch = channel_batch(3, 8, seed=7)
        with pytest.raises(ValueError):
            loss_value(net, batch, train=True, chunk=2)
        with pytest.raises(ValueError):
            gradients(net, batch, train=True, chunk=2)

    def test_empty_batch_rejected(self):
        ds = channel_batch(3, 4).subset(np.array([], dtype=int))
        net = WcgcnNet.create(4, 2, seed=8)
        with pytest.raises(ValueError):
            loss_value(net, ds)
