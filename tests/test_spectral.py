"""Spectral reports, closed-form dynamics, and the bound calculators.

The dynamics oracle is a plain RK4 integration of du/dt = H (y - u), which
shares no code with the eigendecomposition route used by the library.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntklab import (
    RangeViolationError,
    UnsupportedConstantError,
    activation_constant,
    condition_landscape,
    eig_sym,
    generalization_bound,
    kernel_dynamics,
    thm3_bounds,
)
from ntklab import spectral


def random_psd(n, seed, rank=None):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, rank or n))
    return B @ B.T


# ---------------------------------------------------------------------------
# eig_sym


def test_eig_sym_matches_numpy():
    H = random_psd(12, seed=0)
    rep = eig_sym(H)
    ref = np.linalg.eigvalsh(H)[::-1]
    np.testing.assert_allclose(rep.eigenvalues, ref, rtol=1e-12, atol=1e-12)


def test_eig_sym_descending_and_consistent():
    H = random_psd(9, seed=1)
    rep = eig_sym(H)
    assert np.all(np.diff(rep.eigenvalues) <= 1e-12)
    # eigenvectors[:, i] pairs with eigenvalues[i]
    for i in range(9):
        v = rep.eigenvectors[:, i]
        np.testing.assert_allclose(H @ v, rep.eigenvalues[i] * v, atol=1e-9)
    assert rep.trace == pytest.approx(np.trace(H))
    assert rep.condition_number == pytest.approx(
        rep.eigenvalues[0] / rep.eigenvalues[-1]
    )


def test_eig_sym_symmetrizes():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((6, 6))
    rep = eig_sym(A)
    ref = np.linalg.eigvalsh((A + A.T) / 2)[::-1]
    np.testing.assert_allclose(rep.eigenvalues, ref, atol=1e-12)


def test_eig_sym_singular_condition_is_inf():
    H = random_psd(8, seed=3, rank=5)
    assert eig_sym(H).condition_number == np.inf


def test_eig_sym_alignment():
    H = random_psd(7, seed=4)
    y = np.random.default_rng(5).standard_normal(7)
    rep = eig_sym(H, y)
    alignment = rep.coeffs ** 2
    np.testing.assert_allclose(alignment, (rep.eigenvectors.T @ y) ** 2)
    # alignment masses sum to ||y||^2 (eigenvectors are orthonormal)
    assert alignment.sum() == pytest.approx(y @ y)


def test_eig_sym_coeffs_are_the_labels_in_the_eigenbasis():
    H = random_psd(7, seed=6)
    y = np.random.default_rng(7).standard_normal(7)
    rep = eig_sym(H, y)
    np.testing.assert_array_equal(rep.coeffs, rep.eigenvectors.T @ y)
    np.testing.assert_allclose(rep.eigenvectors @ rep.coeffs, y, atol=1e-12)
    assert eig_sym(H).coeffs is None


def test_eig_sym_kept_marks_the_pseudo_inverse_range(monkeypatch):
    # a rank-3 kernel: its 4 null eigenvalues are rounding noise around 0
    H = random_psd(7, seed=8, rank=3)
    rep = eig_sym(H)
    assert rep.kept.tolist() == [True] * 3 + [False] * 4
    np.testing.assert_array_equal(
        rep.kept, rep.eigenvalues > spectral.PINV_CUTOFF * rep.eigenvalues[0])
    # the cutoff is relative to lambda_max
    lam = np.array([4.0, 2.5, 1.5, 0.5])
    monkeypatch.setattr(spectral, "PINV_CUTOFF", 0.5)
    assert eig_sym(np.diag(lam)).kept.tolist() == [True, True, False, False]
    # no eigenvalue is kept when lambda_max is not positive
    assert not eig_sym(-np.eye(3)).kept.any()
    assert not eig_sym(np.zeros((3, 3))).kept.any()


@pytest.mark.parametrize("consumer", [
    lambda rep: kernel_dynamics(rep, times=[1.0]),
    lambda rep: generalization_bound(rep, delta=0.1),
], ids=["kernel_dynamics", "generalization_bound"])
def test_a_report_without_labels_is_rejected(consumer):
    with pytest.raises(ValueError, match="carries no labels"):
        consumer(eig_sym(np.eye(3)))


def test_eig_sym_rejects_nonfinite():
    H = np.eye(3)
    H[0, 1] = np.nan
    with pytest.raises(ValueError):
        eig_sym(H)


def test_eig_sym_rejects_bad_label_length():
    with pytest.raises(ValueError):
        eig_sym(np.eye(4), y=np.ones(3))


def test_eig_sym_rejects_nonfinite_labels():
    for bad in (np.nan, np.inf):
        y = np.ones(4)
        y[2] = bad
        with pytest.raises(ValueError, match="labels must be finite"):
            eig_sym(np.eye(4), y)


# ---------------------------------------------------------------------------
# kernel_dynamics


def rk4_residual(H, y, t_end, steps=4000):
    """Integrate r' = -H r from r(0) = y with fixed-step RK4."""
    h = t_end / steps
    r = y.astype(float).copy()
    f = lambda v: -H @ v
    for _ in range(steps):
        k1 = f(r)
        k2 = f(r + 0.5 * h * k1)
        k3 = f(r + 0.5 * h * k2)
        k4 = f(r + h * k3)
        r = r + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return r


def test_dynamics_matches_ode_integration():
    H = random_psd(8, seed=7)
    y = np.random.default_rng(8).standard_normal(8)
    res = kernel_dynamics(eig_sym(H, y), times=[0.0, 0.5])
    np.testing.assert_allclose(res[0], y, atol=1e-14)
    np.testing.assert_allclose(
        res[1], rk4_residual(H, y, 0.5), rtol=1e-8, atol=1e-10
    )


def test_dynamics_residual_norm_decreasing_for_psd():
    H = random_psd(10, seed=11)
    y = np.random.default_rng(12).standard_normal(10)
    res = kernel_dynamics(eig_sym(H, y), times=np.linspace(0, 5, 30))
    assert np.all(np.diff(np.linalg.norm(res, axis=1)) <= 1e-12)


def test_dynamics_diagonal_kernel_exact():
    lam = np.array([3.0, 1.0, 0.25])
    y = np.array([1.0, -2.0, 0.5])
    res = kernel_dynamics(eig_sym(np.diag(lam), y), times=[0.7])
    np.testing.assert_allclose(res[0], y * np.exp(-lam * 0.7), rtol=1e-12)


def test_dynamics_mode_coefficients_decay():
    H = random_psd(5, seed=13)
    y = np.random.default_rng(14).standard_normal(5)
    rep = eig_sym(H, y)
    res = kernel_dynamics(rep, times=[0.0, 2.0])
    c0 = rep.eigenvectors.T @ y
    modes = res @ rep.eigenvectors     # residual mode coefficients
    np.testing.assert_allclose(modes[0], c0, atol=1e-12)
    np.testing.assert_allclose(
        modes[1], c0 * np.exp(-rep.eigenvalues * 2.0), atol=1e-12
    )


def test_dynamics_scalar_time_promoted():
    res = kernel_dynamics(eig_sym(np.eye(2), np.ones(2)), times=1.0)
    assert res.shape == (1, 2)


def test_dynamics_rejects_negative_times():
    with pytest.raises(ValueError):
        kernel_dynamics(eig_sym(np.eye(2), np.ones(2)), times=[-0.1, 1.0])


# ---------------------------------------------------------------------------
# activation_constant


def test_builtin_constants():
    assert activation_constant(2, "quadratic") == 1.0
    assert activation_constant(2, "relu") == pytest.approx(1.0 / (2.0 * np.pi))


def test_unknown_pair_rejected():
    with pytest.raises(UnsupportedConstantError):
        activation_constant(3, "relu")
    with pytest.raises(UnsupportedConstantError):
        activation_constant(2, "tanh")


# ---------------------------------------------------------------------------
# thm3_bounds


def test_thm3_formulas():
    lam = np.array([0.5, 1.0, 2.0])
    times = np.array([0.0, 0.3, 1.0])
    gnn, mlp = thm3_bounds(lam, beta_norm=2.0, p_degree=2, c=0.1, times=times)
    np.testing.assert_allclose(gnn, np.exp(-0.1 * 3.5 * times) * 4.0, rtol=1e-12)
    np.testing.assert_allclose(mlp, 3 * np.exp(-0.1 * 0.5 * times) * 4.0, rtol=1e-12)


def test_thm3_single_node_ratio_is_one():
    lam = np.array([1.7])
    times = np.linspace(0, 4, 9)
    gnn, mlp = thm3_bounds(lam, 1.3, 2, 0.2, times)
    np.testing.assert_allclose(gnn, mlp, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    lam=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=8),
    t=st.floats(0.0, 20.0),
    c=st.floats(0.01, 5.0),
    beta=st.floats(0.1, 4.0),
)
def test_thm3_gnn_never_above_mlp(lam, t, c, beta):
    gnn, mlp = thm3_bounds(np.array(lam), beta, 2, c, [t])
    assert gnn[0] <= mlp[0] * (1 + 1e-12)


def test_thm3_validation():
    with pytest.raises(ValueError):
        thm3_bounds([1.0, -0.5], 1.0, 2, 1.0, [0.0])
    with pytest.raises(ValueError):
        thm3_bounds([1.0], 1.0, 2, 0.0, [0.0])


# ---------------------------------------------------------------------------
# generalization_bound


def test_generalization_bound_formula():
    m = 20
    H = random_psd(m, seed=20) + 0.5 * np.eye(m)
    y = np.random.default_rng(21).standard_normal(m)
    got = generalization_bound(eig_sym(H, y), delta=0.05)
    want = np.sqrt(y @ np.linalg.solve(H, y) * np.trace(H)) / m
    want += np.sqrt(np.log(1 / 0.05) / m)
    assert got == pytest.approx(want, rel=1e-9)


def test_generalization_bound_in_range_labels_ok():
    # rank-deficient kernel, labels built inside its range space
    m = 10
    rng = np.random.default_rng(22)
    B = rng.standard_normal((m, 4))
    H = B @ B.T
    y = H @ rng.standard_normal(m)
    got = generalization_bound(eig_sym(H, y), delta=0.1)
    want = np.sqrt(y @ np.linalg.pinv(H) @ y * np.trace(H)) / m
    want += np.sqrt(np.log(1 / 0.1) / m)
    assert got == pytest.approx(want, rel=1e-6)


def test_generalization_bound_out_of_range_labels_rejected():
    m = 10
    rng = np.random.default_rng(23)
    B = rng.standard_normal((m, 4))
    H = B @ B.T
    # a random vector has mass in the 6-dimensional null space a.s.
    with pytest.raises(RangeViolationError):
        generalization_bound(eig_sym(H, rng.standard_normal(m)), delta=0.1)


def test_generalization_bound_shrinks_with_m():
    vals = []
    for m in (10, 40):
        H = np.eye(m)
        y = np.ones(m) / np.sqrt(m)       # fixed norm
        vals.append(generalization_bound(eig_sym(H, y), delta=0.05))
    assert vals[1] < vals[0]


def test_generalization_bound_validation():
    rep = eig_sym(np.eye(4), np.ones(4))
    with pytest.raises(ValueError):
        generalization_bound(rep, delta=0.0)
    with pytest.raises(ValueError):
        generalization_bound(rep, delta=1.0)
    with pytest.raises(ValueError):
        generalization_bound(eig_sym(np.eye(4), np.ones(3)), delta=0.1)


# ---------------------------------------------------------------------------
# condition_landscape


def test_landscape_single_node_architectures_agree():
    rows = condition_landscape([1], samples=40, seed=0)
    n, cond_mlp, cond_gnn = rows[0]
    assert n == 1
    assert cond_mlp == pytest.approx(cond_gnn, rel=1e-8)


def test_landscape_flat_conditioning_grows():
    rows = condition_landscape([1, 4], samples=40, seed=1)
    conds = {n: (cm, cg) for n, cm, cg in rows}
    assert conds[4][0] > conds[1][0]          # flat kernel degrades with n
    assert conds[4][1] < conds[4][0]          # invariant kernel stays better


def test_landscape_rejects_bad_n():
    with pytest.raises(ValueError):
        condition_landscape([2, 0], samples=10)
