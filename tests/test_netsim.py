import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ntklab.netsim import (Dataset, _sinr_terms, gaussian_node_dataset,
                           generate_instances, labelled_gaussian_dataset,
                           neighbor_indices, sum_rate_batch, synthetic_labels)
from ntklab.nets import WcgcnNet


def _sinr(mags, sigma2s, P):
    _, signal, denom = _sinr_terms(mags, sigma2s, P)
    return signal / denom


def _channel(ds, **arrays):
    """The channel dataset ``ds`` with some of its arrays replaced."""
    fields = dict(mags=ds.mags, weights=ds.weights, sigma2s=ds.sigma2s)
    fields.update(arrays)
    return Dataset(node_features=ds.node_features,
                   flat_features=ds.flat_features, **fields)


# ---------------------------------------------------------------- validation


class TestValidation:
    def test_rejects_bad_H_shape(self):
        ds = generate_instances(2, 3, seed=0)
        with pytest.raises(ValueError):
            _channel(ds, mags=np.ones((3, 2, 3)))
        with pytest.raises(ValueError):
            _channel(ds, sigma2s=np.ones((3, 3)))

    def test_rejects_nonfinite_H(self):
        ds = generate_instances(2, 3, seed=0)
        mags = ds.mags.copy()
        mags[1, 0, 1] = np.nan
        with pytest.raises(ValueError):
            _channel(ds, mags=mags)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_weights(self, bad):
        # NaN slips past a `< 0` test, and WMMSE then returns all-zero
        # powers for that sample without a word
        ds = generate_instances(2, 3, seed=0)
        weights = ds.weights.copy()
        weights[0, 1] = bad
        with pytest.raises(ValueError, match="weights"):
            _channel(ds, weights=weights)

    def test_rejects_zero_noise(self):
        ds = generate_instances(2, 3, seed=0)
        with pytest.raises(ValueError):
            _channel(ds, sigma2s=np.zeros((3, 2)))

    def test_generate_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            generate_instances(0, 4, seed=0)
        with pytest.raises(ValueError):
            generate_instances(3, 0, seed=0)


# ------------------------------------------------------------------- objective


def test_sinr_matches_hand_computation():
    # 2-user channel small enough to do on paper:
    # gains [[4,1],[0.25,9]], p = (1, 0.5), unit noise.
    mags = np.array([[[2.0, 1.0], [0.5, 3.0]]])
    P = np.array([[1.0, 0.5]])
    np.testing.assert_allclose(_sinr(mags, np.ones((1, 2)), P),
                               [[4.0 / 1.5, 4.5 / 1.25]])
    expected = 1.0 * np.log2(1 + 4.0 / 1.5) + 2.0 * np.log2(1 + 4.5 / 1.25)
    rate = sum_rate_batch(mags, np.ones((1, 2)), np.array([[1.0, 2.0]]), P)
    assert rate[0] == pytest.approx(expected, rel=1e-12)


def test_sum_rate_batch_matches_scalar_loop():
    """Oracle: the objective written out receiver by receiver."""
    ds = generate_instances(4, 12, seed=3)
    rng = np.random.default_rng(0)
    P = rng.uniform(0, 1, (12, 4))
    batch = sum_rate_batch(ds.mags, ds.sigma2s, ds.weights, P)
    for i in range(12):
        G = ds.mags[i] ** 2
        total = 0.0
        for k in range(4):
            interference = sum(G[k, j] * P[i, j] for j in range(4) if j != k)
            s = G[k, k] * P[i, k] / (interference + ds.sigma2s[i, k])
            total += ds.weights[i, k] * np.log2(1 + s)
        assert batch[i] == pytest.approx(total, rel=1e-12)


def test_single_user_rate_is_point_to_point_capacity():
    ds = generate_instances(1, 1, seed=9)
    g = ds.mags[0, 0, 0] ** 2
    rate = sum_rate_batch(ds.mags, ds.sigma2s, ds.weights, np.ones((1, 1)))
    assert rate[0] == pytest.approx(np.log2(1 + g / ds.sigma2s[0, 0]))


def test_rate_increases_when_interference_is_removed():
    ds = generate_instances(6, 1, seed=2)
    full = sum_rate_batch(ds.mags, ds.sigma2s, ds.weights, np.ones((1, 6)))
    solo = sum_rate_batch(ds.mags, ds.sigma2s, ds.weights,
                          np.array([[1.0] + [0.0] * 5]))
    k0 = ds.weights[0, 0] * np.log2(1 + ds.mags[0, 0, 0] ** 2 / ds.sigma2s[0, 0])
    assert solo[0] == pytest.approx(k0)
    assert full[0] > 0


# --------------------------------------------------------------- permutations
# Relabeling users by pi puts old user pi[j] at slot j: per-user arrays
# become x[:, pi] and the channel magnitudes mags[:, pi][:, :, pi].


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(1, 4), st.integers(0, 10_000))
def test_sum_rate_is_permutation_invariant(K, m, seed):
    """Relabeling users leaves the objective untouched."""
    rng = np.random.default_rng(seed)
    ds = generate_instances(K, m, seed)
    w = rng.uniform(0.5, 2.0, (m, K))
    P = rng.uniform(0.0, 1.0, (m, K))
    pi = rng.permutation(K)
    permuted = sum_rate_batch(ds.mags[:, pi][:, :, pi], ds.sigma2s[:, pi],
                              w[:, pi], P[:, pi])
    np.testing.assert_allclose(
        permuted, sum_rate_batch(ds.mags, ds.sigma2s, w, P), rtol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 10_000))
def test_sinr_is_permutation_equivariant(K, m, seed):
    rng = np.random.default_rng(seed)
    ds = generate_instances(K, m, seed)
    s2 = rng.uniform(0.5, 2.0, (m, K))
    P = rng.uniform(0.0, 1.0, (m, K))
    pi = rng.permutation(K)
    permuted = _sinr(ds.mags[:, pi][:, :, pi], s2[:, pi], P[:, pi])
    np.testing.assert_allclose(permuted, _sinr(ds.mags, s2, P)[:, pi],
                               rtol=1e-12, atol=1e-15)


# ------------------------------------------------------------------- datasets


class TestDatasets:
    def test_channel_dataset_shapes(self):
        ds = generate_instances(5, 7, seed=0)
        assert (ds.m, ds.n) == (7, 5)
        assert ds.node_features.shape == (7, 5, 2)
        assert ds.flat_features.shape == (7, 30)
        assert ds.mags.shape == (7, 5, 5)
        assert ds.weights.shape == ds.sigma2s.shape == (7, 5)

    def test_flat_features_layout(self):
        """Row-major |H| then the weights."""
        ds = generate_instances(3, 2, seed=5)
        np.testing.assert_array_equal(
            ds.flat_features[1],
            np.concatenate([ds.mags[1].reshape(-1), ds.weights[1]]))

    def test_node_features_are_weight_and_direct_gain(self):
        ds = generate_instances(4, 3, seed=8)
        np.testing.assert_array_equal(ds.node_features[2, :, 0], ds.weights[2])
        np.testing.assert_array_equal(ds.node_features[2, :, 1],
                                      np.diag(ds.mags[2]))

    def test_generation_is_deterministic(self):
        a = generate_instances(4, 6, seed=11)
        b = generate_instances(4, 6, seed=11)
        np.testing.assert_array_equal(a.flat_features, b.flat_features)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 8),
           st.integers(0, 10_000))
    def test_prefix_property(self, K, m, extra, seed):
        """Sample i is the same no matter how many samples are requested."""
        small = generate_instances(K, m, seed)
        big = generate_instances(K, m + extra, seed)
        for name in ("mags", "weights", "sigma2s", "node_features",
                     "flat_features"):
            np.testing.assert_array_equal(getattr(small, name),
                                          getattr(big, name)[:m])

    def test_subset_matches_source(self):
        ds = generate_instances(3, 10, seed=2)
        idx = np.array([7, 1, 4])
        sub = ds.subset(idx)
        assert sub.m == 3
        np.testing.assert_array_equal(sub.mags, ds.mags[idx])
        np.testing.assert_array_equal(sub.node_features, ds.node_features[idx])
        np.testing.assert_array_equal(sub.sigma2s, ds.sigma2s[idx])

    def test_gaussian_dataset_shapes_and_prefix(self):
        ds = gaussian_node_dataset(5, 8, 3, seed=1)
        assert (ds.m, ds.n) == (8, 5)
        assert ds.node_features.shape == (8, 5, 3)
        assert ds.flat_features.shape == (8, 15)
        big = gaussian_node_dataset(5, 20, 3, seed=1)
        np.testing.assert_array_equal(ds.node_features, big.node_features[:8])

    def test_gaussian_moments(self):
        ds = gaussian_node_dataset(2, 4000, 3, seed=0)
        x = ds.node_features.reshape(-1)
        assert abs(x.mean()) < 0.05
        assert abs(x.std() - 1.0) < 0.05

    def test_rayleigh_unit_mean_square(self):
        # h ~ CN(0,1) so E|h|^2 = 1
        ds = generate_instances(3, 4000, seed=0)
        assert abs((ds.mags ** 2).mean() - 1.0) < 0.05

    def test_labels_length_checked(self):
        ds = generate_instances(2, 4, seed=0)
        with pytest.raises(ValueError):
            Dataset(node_features=ds.node_features,
                    flat_features=ds.flat_features,
                    labels=np.zeros(3))
        with pytest.raises(ValueError):     # features of different samples
            Dataset(node_features=ds.node_features,
                    flat_features=ds.flat_features[:3])


def test_neighbor_indices_enumerate_everyone_else():
    nbr = neighbor_indices(5)
    assert nbr.shape == (5, 4)
    for k in range(5):
        assert sorted(nbr[k]) == sorted(set(range(5)) - {k})
    assert neighbor_indices(1).shape == (1, 0)


def test_featurize_edge_features_orientation():
    """The graph net's edge input for receiver k and neighbor
    i = neighbor_indices(K)[k, j] is (p_i, |h_ik|, |h_ki|)."""
    ds = generate_instances(3, 2, seed=6)
    net = WcgcnNet.create(hidden=4, layers=1, seed=0)
    _, caches = net.forward_batch(ds.mags, ds.weights)
    edges = caches[0][0].reshape(2, 3, 2, 3)       # (m, k, j, feature)
    nbr = neighbor_indices(3)
    for s in range(2):
        A = ds.mags[s]
        for k in range(3):
            for j, i in enumerate(nbr[k]):
                assert edges[s, k, j, 0] == 1.0             # full power
                assert edges[s, k, j, 1] == A[i, k]
                assert edges[s, k, j, 2] == A[k, i]


# ------------------------------------------------------------ synthetic labels


def test_synthetic_labels_formula():
    ds = gaussian_node_dataset(3, 5, 2, seed=7)
    beta = np.array([0.5, -1.0])
    y = synthetic_labels(ds, beta, 2)
    expected = ((ds.node_features @ beta) ** 2).sum(axis=1)
    np.testing.assert_allclose(y, expected)


def test_labelled_gaussian_task():
    # beta = (1/3, 2/3, 1): the labels every kernel experiment trains on
    ds = labelled_gaussian_dataset(2, 6, 3, 4, 3)
    plain = gaussian_node_dataset(2, 6, 3, 4)
    assert np.array_equal(ds.node_features, plain.node_features)
    beta = np.array([1.0, 2.0, 3.0]) / 3.0
    assert np.array_equal(ds.labels,
                          np.sum((plain.node_features @ beta) ** 3, axis=1))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 1000))
def test_synthetic_labels_are_permutation_invariant(n, p_degree, seed):
    ds = gaussian_node_dataset(n, 4, 3, seed=seed)
    beta = np.arange(1, 4) / 3.0
    y = synthetic_labels(ds, beta, p_degree)
    rng = np.random.default_rng(seed)
    pi = rng.permutation(n)
    shuffled = Dataset(node_features=ds.node_features[:, pi, :],
                       flat_features=ds.node_features[:, pi, :].reshape(ds.m, -1))
    np.testing.assert_allclose(synthetic_labels(shuffled, beta, p_degree), y,
                               rtol=1e-12)


def test_synthetic_labels_validates_beta():
    ds = gaussian_node_dataset(2, 3, 4, seed=0)
    with pytest.raises(ValueError):
        synthetic_labels(ds, np.ones(3), 1)
    with pytest.raises(ValueError):
        synthetic_labels(ds, np.ones(4), 0)
