"""Training loop, progress thresholds, evaluation metrics, persistence."""

import os
from dataclasses import replace

import numpy as np
import pytest

from ntklab import DivergenceError, spectral, training
from ntklab.kernels import mlp_kernel_function
from ntklab.nets import WcgcnNet, gradients, init_net, loss_value, n_params
from ntklab.netsim import gaussian_node_dataset, generate_instances, synthetic_labels
from ntklab.training import (
    DIVERGENCE_LIMIT,
    SNAPSHOT_CHUNK,
    TraceRow,
    epochs_to_level,
    evaluate,
    progress_level,
    save_checkpoint,
    train,
    write_trace_csv,
    _Gd,
)


def labeled_gaussian(m, seed, d=3):
    ds = gaussian_node_dataset(1, m, d, seed)
    return replace(ds, labels=synthetic_labels(ds, beta=np.ones(d), p_degree=2))


def rows_of(pairs):
    return [TraceRow(e, v, 0.0, 0.0) for e, v in pairs]


# ---------------------------------------------------------------------------
# train


def test_config_validation():
    ds = labeled_gaussian(4, seed=13)
    net = init_net("two-layer", 3, 8, seed=14)
    W0 = net.W.copy()
    for bad in (dict(optimizer="sgd-momentum"), dict(lr=-0.1), dict(lr=np.inf),
                dict(epochs=-1), dict(eval_every=0), dict(batch_size=0)):
        with pytest.raises(ValueError):
            train(net, ds, ds, **bad)
    np.testing.assert_array_equal(net.W, W0)


def test_zero_lr_leaves_net_unchanged():
    ds = labeled_gaussian(8, seed=0)
    net = init_net("two-layer", 3, 16, seed=1)
    W0 = net.W.copy()
    trace = train(net, ds, ds, optimizer="gd", lr=0.0, epochs=4)
    np.testing.assert_array_equal(net.W, W0)
    losses = [r.train_loss for r in trace]
    assert losses == [losses[0]] * len(losses)


def test_trace_epoch_schedule():
    ds = labeled_gaussian(6, seed=2)
    net = init_net("two-layer", 3, 8, seed=3)
    trace = train(net, ds, ds, optimizer="gd", lr=1e-3, epochs=5, eval_every=2)
    assert [r.epoch for r in trace] == [0, 2, 4, 5]
    assert all(r.grad_norm >= 0 for r in trace)
    assert n_params(net) == net.W.size


def test_training_reduces_loss():
    train_ds = generate_instances(3, 24, seed=4)
    test_ds = generate_instances(3, 12, seed=5)
    net = WcgcnNet.create(hidden=6, layers=2, seed=6)
    trace = train(net, train_ds, test_ds, optimizer="adam", lr=1e-2, epochs=8)
    assert trace[-1].train_loss < trace[0].train_loss
    assert trace[-1].test_loss < trace[0].test_loss


def test_full_batch_explicit_and_default_agree():
    def run(batch_size):
        ds = labeled_gaussian(10, seed=7)
        net = init_net("two-layer", 3, 12, seed=8)
        return train(net, ds, ds, optimizer="gd", lr=1e-2, epochs=5,
                     batch_size=batch_size)

    a, b = run(None), run(10)
    for ra, rb in zip(a, b):
        assert ra.train_loss == rb.train_loss
        assert ra.grad_norm == rb.grad_norm


def _written_out(net):
    """A TwoLayerNet's outputs and its dW for the backward signal dout,
    written out from its W and a in the step's (r, m) layout."""
    a, r = net.a, net.width

    def out(W, X):
        return a @ np.maximum(W @ X.T, 0.0) / np.sqrt(r)

    def grad(W, X, dout):
        S = (W @ X.T > 0).astype(float) * a[:, None]
        return S @ (dout[:, None] * X) / np.sqrt(r)

    return out, grad


@pytest.mark.parametrize("eval_every", [1, 4, 7])
def test_full_batch_gd_matches_two_pass_loop(eval_every):
    # full-batch steps train on the dataset itself through the fused
    # TwoLayerNet step, and a step right after a snapshot takes the
    # snapshot's gradient (every epoch at 1, at a divisor of 30 and at a
    # non-divisor); the trace must equal the loop with a forward pass and a
    # separate gradient pass over a per-epoch copy of the batch
    tr, te = labeled_gaussian(12, 0, d=4), labeled_gaussian(5, 1, d=4)
    lr, epochs = 2e-3, 30
    net = init_net("two-layer", 4, 32, seed=2)
    W = net.W.copy()
    out, grad = _written_out(net)

    def row(epoch):
        resid = out(W, tr.flat_features) - tr.labels
        g = grad(W, tr.flat_features, resid)
        test_resid = out(W, te.flat_features) - te.labels
        return TraceRow(epoch, 0.5 * float(np.sum(resid ** 2)),
                        0.5 * float(np.sum(test_resid ** 2)),
                        float(np.sqrt(float(np.sum(g * g)))))

    want = [row(0)]
    for epoch in range(1, epochs + 1):
        batch = tr.subset(np.arange(tr.m))
        resid = out(W, batch.flat_features) - batch.labels
        W -= lr * grad(W, batch.flat_features, resid)
        if epoch % eval_every == 0 or epoch == epochs:
            want.append(row(epoch))

    assert train(net, tr, te, optimizer="gd", lr=lr, epochs=epochs,
                 eval_every=eval_every) == want
    assert np.array_equal(net.W, W)


def test_divergence_on_the_step_after_a_snapshot():
    # the step after the snapshot at epoch e takes that snapshot's loss;
    # when it exceeds the limit the step still raises, with the rows
    # recorded before it (the snapshot's row last)
    tr, te = labeled_gaussian(12, 0, d=4), labeled_gaussian(5, 1, d=4)
    lr = 1.0
    net = init_net("two-layer", 4, 32, seed=2)
    W = net.W.copy()
    out, grad = _written_out(net)
    X, y = tr.flat_features, tr.labels
    losses = []
    for _ in range(50):
        resid = out(W, X) - y
        losses.append(0.5 * float(np.sum(resid ** 2)))
        if losses[-1] > DIVERGENCE_LIMIT:
            break
        W -= lr * grad(W, X, resid)
    e = len(losses) - 1          # the first epoch whose loss is too large
    assert 2 <= e < 49 and np.isfinite(losses[e])

    with pytest.raises(DivergenceError, match=f"at epoch {e + 1} ") as err:
        train(net, tr, te, optimizer="gd", lr=lr, epochs=e + 5, eval_every=e)
    assert [(r.epoch, r.train_loss) for r in err.value.trace] == [
        (0, losses[0]), (e, losses[e])]


def _count_gradient_calls(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("train"))
        return gradients(*args, **kwargs)

    monkeypatch.setattr(training, "gradients", counted)
    return calls


@pytest.mark.parametrize("eval_every", [1, 3, 7, 10])
def test_full_batch_two_layer_run_makes_one_gradient_call_per_epoch(
        monkeypatch, eval_every):
    calls = _count_gradient_calls(monkeypatch)
    ds = labeled_gaussian(SNAPSHOT_CHUNK, seed=20)
    net = init_net("two-layer", 3, 16, seed=21)
    epochs = 7
    train(net, ds, ds, optimizer="gd", lr=1e-3, epochs=epochs,
          eval_every=eval_every)
    assert len(calls) == epochs + 1


# per run: the net, its train set and train() keywords; none of these
# steps runs the computation of the snapshot before it
NO_REUSE_RUNS = {
    "wcgcn": lambda: (WcgcnNet.create(hidden=4, layers=2, seed=22),
                      generate_instances(3, 8, seed=23), {}),
    "power-mlp-gd": lambda: (init_net("power-mlp", (12, 3), 6, seed=24),
                             generate_instances(3, 8, seed=25),
                             {"optimizer": "gd"}),
    "two-layer-chunked": lambda: (init_net("two-layer", 3, 16, seed=26),
                                  labeled_gaussian(300, seed=27),
                                  {"optimizer": "gd"}),
    "two-layer-minibatch": lambda: (init_net("two-layer", 3, 16, seed=28),
                                    labeled_gaussian(20, seed=29),
                                    {"optimizer": "gd", "batch_size": 8}),
}


@pytest.mark.parametrize("run", list(NO_REUSE_RUNS))
def test_runs_that_cannot_reuse_a_snapshot_call_gradients_per_step(
        monkeypatch, run):
    net, ds, kwargs = NO_REUSE_RUNS[run]()
    calls = _count_gradient_calls(monkeypatch)
    epochs = 4
    trace = train(net, ds, ds, lr=1e-3, epochs=epochs, eval_every=2, **kwargs)
    steps = epochs * -(-ds.m // kwargs.get("batch_size", ds.m))
    assert calls.count(True) == steps
    # a snapshot's sweep makes one eval call per SNAPSHOT_CHUNK slice
    assert calls.count(False) == -(-ds.m // SNAPSHOT_CHUNK) * len(trace)
    assert len(trace) == 3


# ---------------------------------------------------------------------------
# the snapshot sweep, at SNAPSHOT_CHUNK = 5


def test_slices_partition_the_samples_in_order(monkeypatch):
    monkeypatch.setattr(training, "SNAPSHOT_CHUNK", 5)
    ds = generate_instances(3, 13, seed=0)
    subs = list(training._slices(ds))
    assert [s.m for s in subs] == [5, 5, 3]
    np.testing.assert_array_equal(np.concatenate([s.mags for s in subs]),
                                  ds.mags)


# per net: the net, its train and test sets (each more than one slice)
SWEPT_RUNS = {
    "wcgcn-mean-loss": lambda: (WcgcnNet.create(hidden=5, layers=2, seed=2),
                                generate_instances(4, 13, seed=3),
                                generate_instances(4, 11, seed=4)),
    "two-layer-summed-loss": lambda: (init_net("two-layer", 3, 8, seed=5),
                                      labeled_gaussian(11, seed=6),
                                      labeled_gaussian(7, seed=7)),
}


@pytest.mark.parametrize("run", list(SWEPT_RUNS))
def test_sliced_snapshot_losses_match_one_eval_pass(monkeypatch, run):
    monkeypatch.setattr(training, "SNAPSHOT_CHUNK", 5)
    net, train_ds, test_ds = SWEPT_RUNS[run]()
    _, train_full = gradients(net, train_ds, train=False)
    test_full = loss_value(net, test_ds, train=False)
    (row,) = train(net, train_ds, test_ds, epochs=0)
    assert row.train_loss == pytest.approx(train_full, rel=1e-12)
    assert row.test_loss == pytest.approx(test_full, rel=1e-12)


@pytest.mark.parametrize("run", list(SWEPT_RUNS))
def test_sliced_snapshot_gradients_match_one_eval_pass(monkeypatch, run):
    monkeypatch.setattr(training, "SNAPSHOT_CHUNK", 5)
    net, train_ds, test_ds = SWEPT_RUNS[run]()
    g_full, _ = gradients(net, train_ds, train=False)
    (row,) = train(net, train_ds, test_ds, epochs=0)
    assert row.grad_norm == pytest.approx(training._grad_norm(g_full),
                                          rel=1e-12)
    g_swept, _ = training._sweep(gradients, net, train_ds)
    for key in g_full:
        np.testing.assert_allclose(g_swept[key], g_full[key],
                                   rtol=1e-10, atol=1e-12)


def test_gd_step_is_w_minus_lr_g():
    # the step scales g in its own buffer, then subtracts: the two
    # roundings of W - lr * g
    rng = np.random.default_rng(3)
    W = rng.standard_normal((64, 8))
    g = rng.standard_normal((64, 8)) * np.logspace(-12, 3, 8)
    lr = 2e-3
    want = W - lr * g
    params = {"W": W}
    _Gd(lr).step(params, {"W": g})
    assert params["W"] is W
    assert np.array_equal(W, want)


def test_minibatch_runs_are_deterministic():
    def run(seed):
        ds = generate_instances(3, 16, seed=9)
        net = WcgcnNet.create(hidden=4, layers=2, seed=10)
        trace = train(net, ds, ds, optimizer="adam", lr=5e-3, epochs=4,
                      batch_size=4, seed=seed)
        return [r.train_loss for r in trace]

    assert run(0) == run(0)
    assert run(0) != run(1)      # the shuffle seed matters


def test_divergence_carries_partial_trace():
    ds = labeled_gaussian(8, seed=11)
    net = init_net("two-layer", 3, 8, seed=12)
    with pytest.raises(DivergenceError) as err:
        train(net, ds, ds, optimizer="gd", lr=1e8, epochs=10)
    assert len(err.value.trace) >= 1
    assert err.value.trace[0].epoch == 0


def test_train_validation():
    ds = labeled_gaussian(4, seed=13)
    net = init_net("two-layer", 3, 8, seed=14)
    empty = ds.subset(np.array([], dtype=int))
    with pytest.raises(ValueError):
        train(net, empty, ds)
    unlabeled = gaussian_node_dataset(1, 4, 3, seed=15)
    with pytest.raises(ValueError):
        train(net, unlabeled, unlabeled)


def test_zero_epochs_records_initial_state_only():
    ds = labeled_gaussian(4, seed=16)
    net = init_net("two-layer", 3, 8, seed=17)
    trace = train(net, ds, ds, optimizer="gd", lr=1e-2, epochs=0)
    assert [r.epoch for r in trace] == [0]
    assert trace[-1].train_loss == pytest.approx(loss_value(net, ds))


# ---------------------------------------------------------------------------
# progress thresholds


def test_progress_level_positive_loss():
    rows = rows_of([(0, 10.0), (1, 6.0), (2, 2.0)])
    # level sits fraction-of-the-way up from the best loss
    assert progress_level(rows, fraction=0.25) == pytest.approx(4.0)
    assert epochs_to_level(rows, 4.0) == 2
    assert epochs_to_level(rows, progress_level(rows, 0.25)) == 2


def test_progress_level_negative_loss():
    rows = rows_of([(0, -1.0), (5, -2.0), (10, -3.0)])
    assert progress_level(rows, fraction=0.5) == pytest.approx(-2.0)
    assert epochs_to_level(rows, progress_level(rows, 0.5)) == 5


def test_epochs_to_level_unreachable():
    rows = rows_of([(0, 5.0), (1, 4.0)])
    assert epochs_to_level(rows, 1.0) is None


def test_threshold_extremes():
    rows = rows_of([(0, 8.0), (1, 5.0), (2, 3.0), (3, 4.0)])
    # fraction 1: the level equals the starting loss, met immediately
    assert epochs_to_level(rows, progress_level(rows, 1.0)) == 0
    # fraction 0: the level equals the best loss ever reached
    assert epochs_to_level(rows, progress_level(rows, 0.0)) == 2


def test_threshold_fraction_validated():
    rows = rows_of([(0, 1.0)])
    with pytest.raises(ValueError):
        progress_level(rows, fraction=1.5)


def test_threshold_accepts_trace_object():
    ds = labeled_gaussian(6, seed=18)
    net = init_net("two-layer", 3, 8, seed=19)
    trace = train(net, ds, ds, optimizer="gd", lr=1e-2, epochs=3)
    assert epochs_to_level(trace, progress_level(trace)) is not None


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_sum_rate_metrics():
    ds = generate_instances(4, 20, seed=20)
    net = WcgcnNet.create(hidden=4, layers=2, seed=21)
    metrics = evaluate(net, ds)
    assert metrics["mean_sum_rate"] == pytest.approx(-metrics["mean_loss"])
    assert metrics["e_gen"] == pytest.approx(
        metrics["oracle_sum_rate"] - metrics["mean_sum_rate"], rel=1e-12
    )
    assert 0 < metrics["ratio_to_wmmse"] < 1.2
    assert metrics["oracle_sum_rate"] > 0


def test_evaluate_squared_metrics():
    train_ds = labeled_gaussian(12, seed=22)
    test_ds = labeled_gaussian(8, seed=23)
    net = init_net("two-layer", 3, 16, seed=24)
    metrics = evaluate(net, test_ds, train_ds=train_ds)
    u = net.forward(test_ds.flat_features)
    assert metrics["mean_loss"] == pytest.approx(
        float(np.mean((u - test_ds.labels) ** 2))
    )
    assert metrics["ratio_to_wmmse"] is None
    assert metrics["oracle_loss"] >= 0
    assert metrics["e_gen"] == pytest.approx(
        metrics["mean_loss"] - metrics["oracle_loss"], rel=1e-9
    )


def test_evaluate_oracle_is_relu_kernel_regression():
    # the oracle is the pinv kernel-regression predictor of the closed-form
    # ReLU kernel H(x, z) = (x.z) (pi - arccos(rho)) / (2 pi) on the flat
    # features, written out here
    def relu_kernel(X, Z):
        G = X @ Z.T
        norms = np.outer(np.linalg.norm(X, axis=1), np.linalg.norm(Z, axis=1))
        return G * (np.pi - np.arccos(np.clip(G / norms, -1.0, 1.0))) / (2 * np.pi)

    train_ds = labeled_gaussian(12, seed=22)
    test_ds = labeled_gaussian(8, seed=23)
    net = init_net("two-layer", 3, 16, seed=24)
    metrics = evaluate(net, test_ds, train_ds=train_ds)
    Xtr, Xte = train_ds.flat_features, test_ds.flat_features
    coef = np.linalg.pinv(relu_kernel(Xtr, Xtr), rcond=1e-12) @ train_ds.labels
    oracle_err = relu_kernel(Xte, Xtr) @ coef - test_ds.labels
    assert metrics["oracle_loss"] == pytest.approx(
        float(np.mean(oracle_err ** 2)), rel=1e-9)
    err = net.forward(Xte) - test_ds.labels
    assert metrics["e_gen"] == pytest.approx(
        float(np.mean(err ** 2 - oracle_err ** 2)), rel=1e-9)


def test_evaluate_oracle_keeps_the_pairs_of_the_one_cutoff(monkeypatch):
    # at a cutoff of one half the oracle regresses on the eigenpairs above
    # lambda_max / 2 alone; a cutoff of evaluate's own would keep them all
    monkeypatch.setattr(spectral, "PINV_CUTOFF", 0.5)
    train_ds = labeled_gaussian(12, seed=22)
    test_ds = labeled_gaussian(8, seed=23)
    net = init_net("two-layer", 3, 16, seed=24)
    metrics = evaluate(net, test_ds, train_ds=train_ds)
    Xtr, Xte = train_ds.flat_features, test_ds.flat_features
    lam, V = np.linalg.eigh(mlp_kernel_function(Xtr))
    keep = lam > lam[-1] / 2
    assert 0 < keep.sum() < len(lam)
    coef = V[:, keep] @ (V[:, keep].T @ train_ds.labels / lam[keep])
    oracle_err = mlp_kernel_function(Xte, Xtr) @ coef - test_ds.labels
    assert metrics["oracle_loss"] == pytest.approx(
        float(np.mean(oracle_err ** 2)), rel=1e-12)


def test_evaluate_validation():
    ds = generate_instances(3, 4, seed=25)
    net = WcgcnNet.create(hidden=4, layers=2, seed=26)
    with pytest.raises(ValueError):
        evaluate(net, ds.subset(np.array([], dtype=int)))
    # a two-layer net's task is the labelled regression: no labels, no loss
    unlabeled = gaussian_node_dataset(1, 4, 3, seed=25)
    with pytest.raises(ValueError, match="requires labels"):
        evaluate(init_net("two-layer", 3, 8, seed=26), unlabeled)


# ---------------------------------------------------------------------------
# trace CSV


def test_trace_csv_round_trip(tmp_path):
    ds = labeled_gaussian(6, seed=27)
    net = init_net("two-layer", 3, 8, seed=28)
    trace = train(net, ds, ds, optimizer="gd", lr=1e-2, epochs=3)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    header, *lines = path.read_text().splitlines()
    assert header == "epoch,train_loss,test_loss,grad_norm"
    assert len(lines) == len(trace)
    for line, want in zip(lines, trace):
        e, tr, te, gn = line.split(",")
        assert int(e) == want.epoch
        assert float(tr) == want.train_loss        # 17 digits: exact
        assert float(te) == want.test_loss
        assert float(gn) == want.grad_norm


# ---------------------------------------------------------------------------
# checkpoints


def _read_checkpoint(path):
    """{section: {name: value}} of a checkpoint.txt: the architecture keys
    as strings, every tensor as a float array of its recorded shape."""
    sections = {}
    for line in path.read_text().splitlines():
        if line.startswith("["):
            section = sections.setdefault(line.strip("[]"), {})
        elif "=" in line:
            key, _, value = line.partition(" = ")
            section[key] = value
        else:
            name, shape, *values = line.split(" ")
            arr = np.array([float(v) for v in values])
            if shape != "scalar":
                arr = arr.reshape([int(n) for n in shape.split("x")])
            section[name] = arr
    return sections


# init_net arguments and the architecture keys each checkpoint records
CHECKPOINT_NETS = {
    "two-layer": (4, 8, {"activation": "relu", "width": "8", "input_dim": "4"}),
    "wcgcn": (None, 5, {"hidden": "5", "layers": "2"}),
    "power-mlp": ((12, 3), 6, {"dims": "12,6,6,3"}),
}


@pytest.mark.parametrize("arch", list(CHECKPOINT_NETS))
def test_checkpoint_round_trip(tmp_path, arch):
    dims, width, arch_keys = CHECKPOINT_NETS[arch]
    net = init_net(arch, dims, width, seed=30)
    ds = generate_instances(3, 6, seed=31)
    # move the running statistics off their initial values first
    if arch == "wcgcn":
        net.forward_batch(ds.mags, ds.weights, train=True)
    elif arch == "power-mlp":
        net.forward_batch(ds.flat_features, train=True)
    path = tmp_path / "checkpoint.txt"
    save_checkpoint(net, path)
    ckpt = _read_checkpoint(path)
    assert list(ckpt) == ["architecture", "parameters", "state"]
    assert ckpt["architecture"] == {"kind": arch, **arch_keys}
    state = {"a": net.a} if arch == "two-layer" else net.state
    for section, tensors in (("parameters", net.params), ("state", state)):
        assert list(ckpt[section]) == sorted(tensors)
        for name, want in tensors.items():
            got = ckpt[section][name]
            assert got.shape == want.shape, name
            assert got.tobytes() == want.astype(float).tobytes(), name
