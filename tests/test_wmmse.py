import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ntklab.errors import DegenerateInputError
from ntklab.netsim import generate_instances, sum_rate_batch
from ntklab.wmmse import wmmse_batch


def _rates(mags, sigma2s, weights, max_iters=100):
    P = wmmse_batch(mags, sigma2s, weights, max_iters=max_iters)
    return sum_rate_batch(mags, sigma2s, weights, P), P


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10_000))
def test_trace_is_monotone_nondecreasing(K, seed):
    """The objective after j iterations never falls as j grows."""
    ds = generate_instances(K, 1, seed)
    trace = [sum_rate_batch(ds.mags, ds.sigma2s, ds.weights,
                            np.ones((1, K)))[0]]
    for j in range(1, 31):
        trace.append(_rates(ds.mags, ds.sigma2s, ds.weights, max_iters=j)[0][0])
    assert np.diff(trace).min() > -1e-9


def test_beats_full_power_and_random():
    rng = np.random.default_rng(0)
    for seed in range(10):
        ds = generate_instances(8, 1, seed)
        ours, _ = _rates(ds.mags, ds.sigma2s, ds.weights)
        full = sum_rate_batch(ds.mags, ds.sigma2s, ds.weights, np.ones((1, 8)))
        assert ours[0] >= full[0] - 1e-9
        for _ in range(5):
            rand = sum_rate_batch(ds.mags, ds.sigma2s, ds.weights,
                                  rng.uniform(0, 1, (1, 8)))
            assert ours[0] >= rand[0] - 1e-9


def test_matches_grid_search_on_two_users():
    """Independent oracle: exhaustive 201x201 grid over the power box."""
    grid = np.linspace(0.0, 1.0, 201)
    pa, pb = np.meshgrid(grid, grid)
    P = np.column_stack([pa.ravel(), pb.ravel()])
    for seed in (0, 1, 2, 3, 4):
        ds = generate_instances(2, 1, seed)
        ours, _ = _rates(ds.mags, ds.sigma2s, ds.weights)
        mags = ds.mags.repeat(len(P), axis=0)
        rates = sum_rate_batch(mags, np.ones_like(P), np.ones_like(P), P)
        assert ours[0] >= rates.max() - 5e-3


def test_single_user_goes_full_power():
    ds = generate_instances(1, 1, seed=3)
    P = wmmse_batch(ds.mags, ds.sigma2s, ds.weights)
    np.testing.assert_allclose(P, 1.0, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10_000))
def test_solution_is_permutation_covariant(K, seed):
    """Relabeling users by pi (old user pi[j] at slot j) relabels the
    powers the same way."""
    ds = generate_instances(K, 2, seed)
    pi = np.random.default_rng(seed).permutation(K)
    P = wmmse_batch(ds.mags, ds.sigma2s, ds.weights)
    P2 = wmmse_batch(ds.mags[:, pi][:, :, pi], ds.sigma2s[:, pi],
                     ds.weights[:, pi])
    np.testing.assert_allclose(P2, P[:, pi], atol=1e-8)


def test_batch_agrees_with_single_instance_runs():
    """Samples do not interact: each row equals its own m = 1 run."""
    ds = generate_instances(4, 6, seed=1)
    P = wmmse_batch(ds.mags, ds.sigma2s, ds.weights)
    for i in range(6):
        p_i = wmmse_batch(ds.mags[i:i + 1], ds.sigma2s[i:i + 1],
                          ds.weights[i:i + 1])
        np.testing.assert_allclose(P[i], p_i[0], rtol=1e-12, atol=1e-15)


def test_powers_land_in_the_box():
    ds = generate_instances(7, 50, seed=2)
    P = wmmse_batch(ds.mags, ds.sigma2s, ds.weights)
    assert P.min() >= 0.0 and P.max() <= 1.0


def test_solutions_are_mostly_binary():
    # the weighted sum-rate maximizer is known to favor on/off allocations
    ds = generate_instances(5, 200, seed=0)
    P = wmmse_batch(ds.mags, ds.sigma2s, ds.weights)
    assert (np.abs(P - 0.5) > 0.49).mean() > 0.95


def test_mean_rate_regression_values():
    """Frozen baseline levels (m=1000, seed=0); loose tolerance guards
    against silent scaling bugs, not float drift."""
    for K, expected in ((5, 2.106672), (20, 3.633703)):
        ds = generate_instances(K, 1000, seed=0)
        rates, _ = _rates(ds.mags, ds.sigma2s, ds.weights)
        assert rates.mean() == pytest.approx(expected, rel=1e-4)


def test_full_power_ratio_drops_with_network_size():
    """Full power is a decent heuristic at K=5 but collapses at K=20."""
    ratios = {}
    for K in (5, 20):
        ds = generate_instances(K, 400, seed=0)
        rates, _ = _rates(ds.mags, ds.sigma2s, ds.weights)
        full = sum_rate_batch(ds.mags, ds.sigma2s, ds.weights,
                              np.ones((ds.m, K)))
        ratios[K] = full.mean() / rates.mean()
    assert ratios[5] > 0.6
    assert ratios[20] < 0.45


def test_validates_arguments():
    ds = generate_instances(2, 1, seed=0)
    with pytest.raises(ValueError):
        wmmse_batch(ds.mags, ds.sigma2s, ds.weights, max_iters=0)


def test_rejects_sample_with_all_zero_weights():
    ds = generate_instances(3, 4, seed=0)
    weights = ds.weights.copy()
    weights[2] = 0.0
    weights[3] = 0.0
    with pytest.raises(DegenerateInputError, match="sample 2 "):
        wmmse_batch(ds.mags, ds.sigma2s, weights)
    weights[2, 1] = 1.0     # one weighted user is enough
    with pytest.raises(DegenerateInputError, match="sample 3 "):
        wmmse_batch(ds.mags, ds.sigma2s, weights)


def test_isolated_zero_weight_user_is_silent():
    # user 1 has zero weight and causes no interference at the weighted
    # user 0, so its update is 0/0; it must get power 0 without turning
    # the whole sample NaN
    mags = np.array([[[1.0, 0.0], [0.5, 1.0]]])
    P = wmmse_batch(mags, np.ones((1, 2)), np.array([[1.0, 0.0]]))
    np.testing.assert_array_equal(P, [[1.0, 0.0]])


def test_weighted_objective_respects_weights():
    # heavily weighting user 0 should never lower its allocated power
    mags = np.array([[[2.0, 0.8], [0.9, 1.5]]])
    p_base = wmmse_batch(mags, np.ones((1, 2)), np.ones((1, 2)))
    p_tilted = wmmse_batch(mags, np.ones((1, 2)), np.array([[10.0, 1.0]]))
    assert p_tilted[0, 0] >= p_base[0, 0] - 1e-9
