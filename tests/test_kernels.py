import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import needs_openblas_hooks
from ntklab import kernels, pool
from ntklab.errors import DegenerateInputError
from ntklab.kernels import (KernelMatrix, analytic_ntk_gnn, analytic_ntk_mlp,
                            empirical_ntk, gnn_kernel_function,
                            load_kernel_csv, mc_ntk, mlp_kernel_function,
                            save_kernel_csv)
from ntklab.netsim import gaussian_node_dataset, generate_instances
from ntklab.nets import TwoLayerNet, init_net
from ntklab.rng import DOMAIN_MC, stream


def _flat(m, d, seed):
    return np.random.default_rng(seed).standard_normal((m, d))


def _assert_psd(kernel):
    """lambda_min >= -1e-8 lambda_max: PSD up to eigensolver rounding."""
    vals = np.linalg.eigvalsh((kernel.entries + kernel.entries.T) / 2.0)
    assert vals[0] >= -1e-8 * max(vals[-1], 1e-300), \
        f"kernel is not PSD within tolerance: lambda_min={vals[0]}"


# ------------------------------------------------------------ closed forms


def test_relu_kernel_matches_direct_monte_carlo():
    """Oracle: H(x, z) = (x.z) E[1(w.x>0) 1(w.z>0)] estimated with an RNG
    unrelated to the package streams."""
    rng = np.random.default_rng(42)
    X = rng.standard_normal((4, 6))
    W = rng.standard_normal((400_000, 6))
    ind = (X @ W.T > 0).astype(float)
    mc = (X @ X.T) * (ind @ ind.T) / W.shape[0]
    H = mlp_kernel_function(X, activation="relu")
    np.testing.assert_allclose(H, mc, atol=5e-3 * np.abs(mc).max())


def test_relu_kernel_known_angles():
    # parallel: rho=1 -> (x.z)/2;  orthogonal: rho=0 -> (x.z)*1/4 = 0
    x = np.array([[2.0, 0.0], [0.0, 3.0], [4.0, 0.0]])
    H = mlp_kernel_function(x, activation="relu")
    assert H[0, 2] == pytest.approx(8.0 / 2.0)      # aligned pair
    assert H[0, 1] == pytest.approx(0.0, abs=1e-15)  # orthogonal pair
    # antiparallel: rho=-1 -> angle pi -> kernel 0
    y = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert mlp_kernel_function(y)[0, 1] == pytest.approx(0.0, abs=1e-15)


def test_quadratic_kernel_is_four_gram_squared():
    X = _flat(5, 3, 0)
    H = mlp_kernel_function(X, activation="quadratic")
    np.testing.assert_allclose(H, 4.0 * (X @ X.T) ** 2, rtol=1e-12)


def test_relu_diagonal_is_half_norm_squared():
    # arccos has infinite slope at rho = 1, so the diagonal sees sqrt(eps)
    # noise; 1e-7 relative is the attainable accuracy there.
    X = _flat(6, 4, 1)
    H = mlp_kernel_function(X, activation="relu")
    np.testing.assert_allclose(np.diag(H), 0.5 * (X ** 2).sum(axis=1),
                               rtol=1e-7)


def test_kernel_scale_covariance():
    """H(ax, bz) = ab * H(x, z) for relu (degree-1 homogeneous in each arg)."""
    X = _flat(4, 5, 2)
    H = mlp_kernel_function(X)
    H3 = mlp_kernel_function(3.0 * X)
    # sqrt(eps) slack again: scaling reorders the BLAS sums behind rho
    np.testing.assert_allclose(H3, 9.0 * H, rtol=1e-7)


def test_rectangular_cross_kernel_consistent_with_joint():
    X, Z = _flat(4, 3, 3), _flat(5, 3, 4)
    joint = mlp_kernel_function(np.vstack([X, Z]))
    cross = mlp_kernel_function(X, Z)
    np.testing.assert_allclose(cross, joint[:4, 4:], rtol=1e-12)


def test_zero_sample_rejected():
    X = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateInputError):
        mlp_kernel_function(X)


# ------------------------------------------------------------- GNN kernel


def test_gnn_kernel_is_pairwise_sum():
    """Oracle: explicit double loop over node pairs."""
    nodes = np.random.default_rng(5).standard_normal((3, 4, 2))
    H = gnn_kernel_function(nodes)
    for a in range(3):
        for b in range(3):
            total = sum(mlp_kernel_function(nodes[a, i][None],
                                            nodes[b, j][None])[0, 0]
                        for i in range(4) for j in range(4))
            assert H[a, b] == pytest.approx(total, rel=1e-10)


def _per_sample_pair_sums(nodes_a, nodes_b):
    """Oracle: one base-kernel block per sample pair, summed whole."""
    return np.array([[mlp_kernel_function(ga, gb).sum() for gb in nodes_b]
                     for ga in nodes_a])


def test_gnn_kernel_matches_per_sample_loop():
    nodes = np.random.default_rng(6).standard_normal((5, 3, 2))
    np.testing.assert_allclose(gnn_kernel_function(nodes),
                               _per_sample_pair_sums(nodes, nodes), rtol=1e-12)


@pytest.mark.parametrize("bad", [
    np.ones((4, 2)),                                 # flat features
    [np.ones((2, 2)), np.ones((3, 2))],              # ragged node counts
])
def test_gnn_kernel_rejects_non_3d_input(bad):
    with pytest.raises(ValueError):
        gnn_kernel_function(bad)


def test_gnn_kernel_slab_boundaries_are_invisible(monkeypatch):
    # small-integer features make every base Gram entry exact, so the blocked
    # and one-block results differ only if the blocking changes which terms
    # are summed or their order (not by how BLAS rounds at each block shape);
    # 9 and 10 nodes put numpy's pairwise summation to work on both node axes
    rng = np.random.default_rng(7)
    for m, n in ((40, 10), (25, 9)):
        nodes = rng.integers(1, 4, (m, n, 3)) * rng.choice([-1.0, 1.0], (m, n, 3))
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 10 ** 12)
        whole = gnn_kernel_function(nodes)
        # 3-sample blocks (a last block of one sample) and 7-sample blocks
        # (a last block of five or four)
        for block_samples in (3, 7):
            monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", n * n * block_samples ** 2)
            blocked = gnn_kernel_function(nodes)
            assert np.array_equal(blocked, whole)
        np.testing.assert_allclose(blocked, _per_sample_pair_sums(nodes, nodes),
                                   rtol=1e-12)


def _pool_cases():
    """(nodes, block entries) pairs: the memory test's float features, the
    slab test's small-integer features at its block sizes, and the bounds
    pipeline's shapes (m = 200 sets of 20 nodes in R^4)."""
    rng = np.random.default_rng(7)
    cases = [(np.random.default_rng(0).standard_normal((200, 20, 2)), None),
             (gaussian_node_dataset(20, 200, 4, seed=0).node_features, None)]
    for m, n in ((40, 10), (25, 9)):
        nodes = rng.integers(1, 4, (m, n, 3)) * rng.choice([-1.0, 1.0], (m, n, 3))
        cases += [(nodes, n * n * b ** 2) for b in (3, 7)]
    return cases


@needs_openblas_hooks
@pytest.mark.parametrize("activation", ["relu", "quadratic"])
def test_gnn_kernel_bits_do_not_depend_on_the_pool_size(monkeypatch, activation):
    for nodes, block_entries in _pool_cases():
        if block_entries is not None:
            monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", block_entries)
        results = []
        for threads in (1, 2, 3):
            monkeypatch.setattr(pool, "_block_threads", lambda: threads)
            results.append(gnn_kernel_function(nodes, activation))
        assert all(np.array_equal(r, results[0]) for r in results[1:])


@needs_openblas_hooks
def test_a_gnn_kernel_block_that_raises_on_a_pool_thread_reaches_the_caller(
        monkeypatch):
    # ten blocks of 50 samples, shared by this thread and a pool helper; the
    # four that hold sample 150 raise, and the kernel raises only after
    # every block has run to its end
    monkeypatch.setattr(pool, "_block_threads", lambda: 2)
    nodes = np.random.default_rng(0).standard_normal((200, 20, 2))
    base = kernels.mlp_kernel_function
    started, finished = [], []

    def counted(*args):
        started.append(threading.current_thread())
        try:
            time.sleep(0.01)
            return base(*args)
        finally:
            finished.append(threading.current_thread())

    monkeypatch.setattr(kernels, "mlp_kernel_function", counted)
    gnn_kernel_function(nodes)
    blocks = len(started)
    assert blocks == 10
    nodes[150, 3] = 0.0
    with pytest.raises(DegenerateInputError):
        gnn_kernel_function(nodes)
    assert len(finished) == len(started) == 2 * blocks
    assert any(thread is not threading.main_thread() for thread in started)


def test_gnn_kernel_without_the_openblas_hooks_starts_no_thread(monkeypatch):
    nodes = np.random.default_rng(0).standard_normal((200, 20, 2))
    pooled = gnn_kernel_function(nodes)

    def start(thread):
        raise AssertionError(f"{thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", start)
    monkeypatch.setattr(pool, "_openblas_threads", lambda: None)
    assert np.array_equal(gnn_kernel_function(nodes), pooled)


def _relu_out_of_place(X, Z):
    """The ReLU chain as one whole-array pass into a second buffer."""
    nx, nz = np.linalg.norm(X, axis=-1), np.linalg.norm(Z, axis=-1)
    G = X @ Z.T
    K = np.multiply.outer(nx, nz)
    np.divide(G, K, out=K)
    np.clip(K, -1.0, 1.0, out=K)
    np.arccos(K, out=K)
    np.subtract(np.pi, K, out=K)
    np.multiply(G, K, out=K)
    K /= 2.0 * np.pi
    return K


@pytest.mark.parametrize("cols, rows", [(1, 40_000), (7, 10_000), (1001, 100)])
def test_relu_tiles_match_the_whole_array_chain(cols, rows):
    # row counts that leave a partial last tile of 32,768 entries; parallel,
    # antiparallel and scaled copies of Z's rows push rho to the clamp
    rng = np.random.default_rng(cols)
    Z = rng.standard_normal((cols, 3))
    X = rng.standard_normal((rows, 3))
    k = min(cols, rows // 3)
    X[:k], X[k:2 * k], X[2 * k:3 * k] = Z[:k], -Z[:k], 2.5 * Z[:k]
    assert np.array_equal(mlp_kernel_function(X, Z), _relu_out_of_place(X, Z))


@pytest.mark.parametrize("activation", ["relu", "quadratic"])
def test_gnn_kernel_peak_memory_is_bounded(monkeypatch, activation):
    # tracemalloc sees numpy's buffers from every thread; one unblocked slab
    # here took ~490 MB, and a block's base kernel is 8 MB (7.6 MiB).  A
    # quadratic block that squared into a second array peaked at 15.6 MiB
    nodes = np.random.default_rng(0).standard_normal((200, 20, 2))
    for threads in (1, 2):
        if threads > 1 and pool._openblas_threads() is None:
            continue
        monkeypatch.setattr(pool, "_block_threads", lambda: threads)
        tracemalloc.start()
        try:
            gnn_kernel_function(nodes, activation)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < threads * 12 * 2 ** 20, (threads, peak)


def test_quadratic_kernel_in_place_has_the_bits_of_the_formula():
    rng = np.random.default_rng(3)
    X, Z = rng.standard_normal((300, 5)), rng.standard_normal((70, 5))
    G = X @ Z.T
    assert np.array_equal(mlp_kernel_function(X, Z, "quadratic"), 4.0 * G ** 2)


@pytest.mark.parametrize("block_entries", [None, 25 * 7 * 7])
def test_kernels_of_a_sample_prefix_are_leading_blocks(monkeypatch,
                                                       block_entries):
    # rtol 1e-8, not 1e-12: near rho = 1 (diagonal, near-parallel nodes) a
    # one-ulp difference in a Gram entry, as BLAS rounds the m-sample and the
    # 30-sample products differently, moves arccos(rho) by up to ~1.5e-8;
    # measured worst cases over 20 seeds: 7e-9 diagonal, 4e-12 off-diagonal
    if block_entries is not None:
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", block_entries)
    big = generate_instances(5, 30, seed=3)
    H_gnn = analytic_ntk_gnn(big.node_features).entries
    H_mlp = analytic_ntk_mlp(big.flat_features).entries
    for m in (1, 7, 16, 30):
        sub = big.subset(np.arange(m))
        np.testing.assert_allclose(
            H_gnn[:m, :m], analytic_ntk_gnn(sub.node_features).entries, rtol=1e-8)
        np.testing.assert_allclose(
            H_mlp[:m, :m], analytic_ntk_mlp(sub.flat_features).entries, rtol=1e-8)


def test_single_node_gnn_equals_mlp():
    ds = gaussian_node_dataset(1, 10, 5, seed=0)
    Hg = analytic_ntk_gnn(ds.node_features).entries
    Hm = analytic_ntk_mlp(ds.flat_features).entries
    np.testing.assert_allclose(Hg, Hm, rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10_000))
def test_gnn_kernel_permutation_invariant(n, seed):
    rng = np.random.default_rng(seed)
    nodes = rng.standard_normal((4, n, 3))
    pi = rng.permutation(n)
    H = gnn_kernel_function(nodes)
    Hp = gnn_kernel_function(nodes[:, pi, :])
    np.testing.assert_allclose(Hp, H, rtol=1e-7, atol=1e-7 * np.abs(H).max())


# ------------------------------------------------------- KernelMatrix checks


class TestKernelMatrix:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            KernelMatrix(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        H = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(ValueError):
            KernelMatrix(H)

    def test_rejects_nonfinite(self):
        H = np.eye(2)
        H[0, 0] = np.inf
        with pytest.raises(ValueError):
            KernelMatrix(H)

    def test_check_psd_flags_indefinite(self):
        # the PSD check below must be able to fail
        H = np.array([[1.0, 2.0], [2.0, 1.0]])   # eigenvalues 3, -1
        with pytest.raises(AssertionError, match="not PSD"):
            _assert_psd(KernelMatrix(H))

    def test_analytic_kernels_are_psd(self):
        X = _flat(12, 4, 8)
        _assert_psd(analytic_ntk_mlp(X))
        nodes = np.random.default_rng(9).standard_normal((8, 3, 4))
        _assert_psd(analytic_ntk_gnn(nodes))


# ------------------------------------------------------------- Monte Carlo


def test_mc_ntk_is_deterministic_in_seed():
    X = _flat(6, 4, 10)
    a = mc_ntk(X, 8, 16, seed=3)
    b = mc_ntk(X, 8, 16, seed=3)
    np.testing.assert_array_equal(a.entries, b.entries)
    c = mc_ntk(X, 8, 16, seed=4)
    assert not np.allclose(a.entries, c.entries)


@needs_openblas_hooks
@pytest.mark.parametrize("shape", [(12, 4), (12, 3, 4)], ids=["flat", "node-sets"])
def test_mc_ntk_bits_do_not_depend_on_the_pool_width(monkeypatch, shape):
    # seven draws, run a pool width at a time (the last batch is short at
    # width 2) and added in draw order
    X = np.random.default_rng(4).standard_normal(shape)
    estimates = []
    for width in (1, 2):
        monkeypatch.setattr(pool, "_block_threads", lambda: width)
        estimates.append(mc_ntk(X, 7, 16, seed=5).entries)
    assert np.array_equal(estimates[0], estimates[1])


def test_mc_ntk_converges_to_analytic():
    X = _flat(10, 5, 11)
    H = analytic_ntk_mlp(X).entries
    err = {}
    for draws in (4, 400):
        E = mc_ntk(X, draws, 32, seed=0).entries
        err[draws] = np.linalg.norm(E - H) / np.linalg.norm(H)
    assert err[400] < err[4]
    assert err[400] < 0.05


def test_mc_ntk_quadratic_converges():
    X = _flat(8, 3, 12)
    H = analytic_ntk_mlp(X, activation="quadratic").entries
    E = mc_ntk(X, 600, 32, seed=0, activation="quadratic").entries
    assert np.linalg.norm(E - H) / np.linalg.norm(H) < 0.08


def test_mc_ntk_gnn_family_converges():
    nodes = np.random.default_rng(13).standard_normal((6, 3, 4))
    H = analytic_ntk_gnn(nodes).entries
    E = mc_ntk(nodes, 400, 32, seed=1).entries
    assert np.linalg.norm(E - H) / np.linalg.norm(H) < 0.08


def test_mc_ntk_single_draw_matches_empirical_of_same_width():
    """One MC draw at width r is exactly the empirical kernel of a width-r
    net whose first layer is that draw (output signs cancel in the Gram)."""
    X = _flat(5, 4, 14)
    E = mc_ntk(X, 1, 64, seed=7).entries
    W = stream(7, DOMAIN_MC, 0).standard_normal((64, 4))
    net = TwoLayerNet(W, np.ones(64))
    K = empirical_ntk(net, X).entries
    np.testing.assert_allclose(E, K, rtol=1e-10)


def test_mc_ntk_validates_arguments():
    X = _flat(3, 2, 0)
    with pytest.raises(ValueError):
        mc_ntk(X, 0, 8, seed=0)
    with pytest.raises(ValueError):
        mc_ntk(X[0], 2, 8, seed=0)          # neither (m, d) nor (m, n, d)
    with pytest.raises(ValueError):
        mc_ntk(X, 2, 8, seed=0, activation="tanh")
    with pytest.raises(ValueError):
        mc_ntk(X[:, None, :], 2, 8, seed=0, activation="tanh")


# --------------------------------------------------------------- empirical


def _relu_jacobian_rows(X, W, a):
    """Per-sample gradient of f(x) = (1/sqrt(r)) sum_r a_r relu(w_r . x)
    in W, flattened: row i is (a * 1[W x_i > 0]) outer x_i / sqrt(r)."""
    r = W.shape[0]
    return np.array([np.outer(a * (W @ x > 0), x).reshape(-1) / np.sqrt(r)
                     for x in X])


def test_empirical_matches_explicit_jacobians():
    X = _flat(6, 3, 15)
    net = init_net("two-layer", 3, 32, seed=0)
    H_fast = empirical_ntk(net, X).entries
    J = _relu_jacobian_rows(X, net.W, net.a)
    np.testing.assert_allclose(H_fast, J @ J.T, rtol=1e-10)
    # the finite-width net reads flat vectors only
    with pytest.raises(ValueError):
        empirical_ntk(net, X[:, None, :])


def test_mc_ntk_node_set_draw_matches_sum_readout_jacobians():
    """One draw on node sets is the Jacobian Gram of the sum-readout net
    f(nodes) = sum_j (1/sqrt(r)) sum_r a_r relu(w_r . x_j) whose first layer
    is that draw, whatever the output signs."""
    nodes = np.random.default_rng(16).standard_normal((4, 3, 5))
    E = mc_ntk(nodes, 1, 16, seed=2).entries
    W = stream(2, DOMAIN_MC, 0).standard_normal((16, 5))
    a = np.where(np.random.default_rng(17).random(16) < 0.5, -1.0, 1.0)
    J = sum(_relu_jacobian_rows(nodes[:, j], W, a) for j in range(3))
    np.testing.assert_allclose(E, J @ J.T, rtol=1e-10)


def test_empirical_concentrates_with_width():
    X = _flat(10, 4, 17)
    H = analytic_ntk_mlp(X).entries
    errs = []
    for width in (32, 512, 8192):
        net = init_net("two-layer", 4, width, seed=5)
        E = empirical_ntk(net, X).entries
        errs.append(np.linalg.norm(E - H) / np.linalg.norm(H))
    assert errs[0] > errs[1] > errs[2]


# -------------------------------------------------------------- persistence


def test_csv_round_trip(tmp_path):
    X = _flat(5, 3, 18)
    K = analytic_ntk_mlp(X)
    path = tmp_path / "k.csv"
    save_kernel_csv(K, path)
    K2 = load_kernel_csv(path)
    np.testing.assert_allclose(K2.entries, K.entries, rtol=0, atol=0)


def test_csv_rejects_size_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("3\n1,0\n0,1\n")
    with pytest.raises(ValueError):
        load_kernel_csv(path)
