"""Training loop, progress thresholds, evaluation metrics, persistence."""

import os
from dataclasses import replace

import numpy as np
import pytest

from ntklab import DivergenceError
from ntklab.nets import TwoLayerNet, WcgcnNet, init_net, loss_value, n_params
from ntklab.netsim import gaussian_node_dataset, generate_instances, synthetic_labels
from ntklab.training import (
    TraceRow,
    TrainConfig,
    epochs_to_level,
    epochs_to_threshold,
    evaluate,
    load_checkpoint,
    progress_level,
    save_checkpoint,
    train,
    write_trace_csv,
)


def labeled_gaussian(m, seed, d=3):
    ds = gaussian_node_dataset(1, m, d, seed)
    return replace(ds, labels=synthetic_labels(ds, beta=np.ones(d), p_degree=2))


def rows_of(pairs):
    return [TraceRow(e, v, 0.0, 0.0) for e, v in pairs]


# ---------------------------------------------------------------------------
# TrainConfig


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(optimizer="sgd-momentum")
    with pytest.raises(ValueError):
        TrainConfig(lr=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(lr=np.inf)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(eval_every=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


# ---------------------------------------------------------------------------
# train


def test_zero_lr_leaves_net_unchanged():
    ds = labeled_gaussian(8, seed=0)
    net = init_net("two-layer", 3, 16, seed=1)
    W0 = net.W.copy()
    trace = train(net, ds, ds, TrainConfig(optimizer="gd", lr=0.0, epochs=4))
    np.testing.assert_array_equal(net.W, W0)
    losses = [r.train_loss for r in trace]
    assert losses == [losses[0]] * len(losses)


def test_trace_epoch_schedule():
    ds = labeled_gaussian(6, seed=2)
    net = init_net("two-layer", 3, 8, seed=3)
    cfg = TrainConfig(optimizer="gd", lr=1e-3, epochs=5, eval_every=2)
    trace = train(net, ds, ds, cfg)
    assert [r.epoch for r in trace] == [0, 2, 4, 5]
    assert all(r.grad_norm >= 0 for r in trace)
    assert n_params(net) == net.W.size


def test_training_reduces_loss():
    train_ds = generate_instances(3, 24, seed=4)
    test_ds = generate_instances(3, 12, seed=5)
    net = WcgcnNet.create(hidden=6, layers=2, seed=6)
    cfg = TrainConfig(optimizer="adam", lr=1e-2, epochs=8)
    trace = train(net, train_ds, test_ds, cfg)
    assert trace[-1].train_loss < trace[0].train_loss
    assert trace[-1].test_loss < trace[0].test_loss


def test_full_batch_explicit_and_default_agree():
    def run(batch_size):
        ds = labeled_gaussian(10, seed=7)
        net = init_net("two-layer", 3, 12, seed=8)
        cfg = TrainConfig(optimizer="gd", lr=1e-2, epochs=5,
                          batch_size=batch_size)
        return train(net, ds, ds, cfg)

    a, b = run(None), run(10)
    for ra, rb in zip(a, b):
        assert ra.train_loss == rb.train_loss
        assert ra.grad_norm == rb.grad_norm


def test_full_batch_gd_matches_two_pass_loop():
    # full-batch steps train on the dataset itself through the fused
    # TwoLayerNet step; the trace must equal the loop with a forward pass
    # and a separate grad_W pass over a per-epoch copy of the batch
    tr, te = labeled_gaussian(12, 0, d=4), labeled_gaussian(5, 1, d=4)
    lr, epochs, eval_every = 2e-3, 30, 4
    net = init_net("two-layer", 4, 32, seed=2)
    W, a, r = net.W.copy(), net.a, net.width

    def out(W, X):
        return np.maximum(X @ W.T, 0.0) @ a / np.sqrt(r)

    def grad(W, X, dout):
        S = (X @ W.T > 0).astype(float) * a
        return (S * dout[:, None]).T @ X / np.sqrt(r)

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

    cfg = TrainConfig(optimizer="gd", lr=lr, epochs=epochs, eval_every=eval_every)
    assert train(net, tr, te, cfg) == want
    assert np.array_equal(net.W, W)


def test_minibatch_runs_are_deterministic():
    def run(seed):
        ds = generate_instances(3, 16, seed=9)
        net = WcgcnNet.create(hidden=4, layers=2, seed=10)
        cfg = TrainConfig(optimizer="adam", lr=5e-3, epochs=4, batch_size=4,
                          seed=seed)
        return [r.train_loss for r in train(net, ds, ds, cfg)]

    assert run(0) == run(0)
    assert run(0) != run(1)      # the shuffle seed matters


def test_divergence_carries_partial_trace():
    ds = labeled_gaussian(8, seed=11)
    net = init_net("two-layer", 3, 8, seed=12)
    cfg = TrainConfig(optimizer="gd", lr=1e8, epochs=10)
    with pytest.raises(DivergenceError) as err:
        train(net, ds, ds, cfg)
    assert len(err.value.trace) >= 1
    assert err.value.trace[0].epoch == 0


def test_train_validation():
    ds = labeled_gaussian(4, seed=13)
    net = init_net("two-layer", 3, 8, seed=14)
    empty = ds.subset(np.array([], dtype=int))
    with pytest.raises(ValueError):
        train(net, empty, ds, TrainConfig())
    unlabeled = gaussian_node_dataset(1, 4, 3, seed=15)
    with pytest.raises(ValueError):
        train(net, unlabeled, unlabeled, TrainConfig())


def test_zero_epochs_records_initial_state_only():
    ds = labeled_gaussian(4, seed=16)
    net = init_net("two-layer", 3, 8, seed=17)
    trace = train(net, ds, ds, TrainConfig(optimizer="gd", lr=1e-2, epochs=0))
    assert [r.epoch for r in trace] == [0]
    assert trace[-1].train_loss == pytest.approx(loss_value(net, ds))


# ---------------------------------------------------------------------------
# progress thresholds


def test_progress_level_positive_loss():
    rows = rows_of([(0, 10.0), (1, 6.0), (2, 2.0)])
    # level sits fraction-of-the-way up from the best loss
    assert progress_level(rows, fraction=0.25) == pytest.approx(4.0)
    assert epochs_to_level(rows, 4.0) == 2
    assert epochs_to_threshold(rows, fraction=0.25) == 2


def test_progress_level_negative_loss():
    rows = rows_of([(0, -1.0), (5, -2.0), (10, -3.0)])
    assert progress_level(rows, fraction=0.5) == pytest.approx(-2.0)
    assert epochs_to_threshold(rows, fraction=0.5) == 5


def test_epochs_to_level_unreachable():
    rows = rows_of([(0, 5.0), (1, 4.0)])
    assert epochs_to_level(rows, 1.0) is None


def test_threshold_extremes():
    rows = rows_of([(0, 8.0), (1, 5.0), (2, 3.0), (3, 4.0)])
    # fraction 1: the level equals the starting loss, met immediately
    assert epochs_to_threshold(rows, fraction=1.0) == 0
    # fraction 0: the level equals the best loss ever reached
    assert epochs_to_threshold(rows, fraction=0.0) == 2


def test_threshold_fraction_validated():
    rows = rows_of([(0, 1.0)])
    with pytest.raises(ValueError):
        progress_level(rows, fraction=1.5)


def test_threshold_accepts_trace_object():
    ds = labeled_gaussian(6, seed=18)
    net = init_net("two-layer", 3, 8, seed=19)
    trace = train(net, ds, ds, TrainConfig(optimizer="gd", lr=1e-2, epochs=3))
    assert epochs_to_threshold(trace) is not None


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


def test_evaluate_oracle_uses_the_nets_activation():
    # a quadratic net's oracle is quadratic-kernel regression, which fits the
    # degree-2 targets exactly; a relu-kernel oracle would miss by about 1.3
    train_ds = labeled_gaussian(12, seed=22)
    test_ds = labeled_gaussian(8, seed=23)
    relu = init_net("two-layer", 3, 16, seed=24)
    net = TwoLayerNet(relu.W, relu.a, activation="quadratic")
    metrics = evaluate(net, test_ds, train_ds=train_ds)
    Xtr, Xte = train_ds.flat_features, test_ds.flat_features
    coef = np.linalg.pinv(4.0 * (Xtr @ Xtr.T) ** 2, rcond=1e-12) @ train_ds.labels
    oracle = np.mean(((4.0 * (Xte @ Xtr.T) ** 2) @ coef - test_ds.labels) ** 2)
    assert metrics["oracle_loss"] == pytest.approx(oracle, rel=1e-9, abs=1e-12)
    assert metrics["oracle_loss"] < 1e-12 * np.mean(test_ds.labels ** 2)


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
    trace = train(net, ds, ds, TrainConfig(optimizer="gd", lr=1e-2, epochs=3))
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


def test_checkpoint_two_layer_round_trip(tmp_path):
    net = init_net("two-layer", 4, 8, seed=29)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    back = load_checkpoint(path)
    np.testing.assert_array_equal(back.W, net.W)
    np.testing.assert_array_equal(back.a, net.a)
    assert back.activation == net.activation


def test_checkpoint_wcgcn_round_trip(tmp_path):
    net = WcgcnNet.create(hidden=5, layers=2, seed=30)
    ds = generate_instances(3, 6, seed=31)
    # move the running statistics off their initial values first
    net.forward_batch(ds.mags, ds.weights, train=True)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    back = load_checkpoint(path)
    P0, _ = net.forward_batch(ds.mags, ds.weights)
    P1, _ = back.forward_batch(ds.mags, ds.weights)
    np.testing.assert_array_equal(P0, P1)
    assert back.hidden == 5 and back.layers == 2


def test_checkpoint_power_mlp_round_trip(tmp_path):
    net = init_net("power-mlp", (12, 3), width=6, seed=32)
    ds = generate_instances(3, 5, seed=33)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    back = load_checkpoint(path)
    assert back.dims == net.dims
    P0, _ = net.forward_batch(ds.flat_features)
    P1, _ = back.forward_batch(ds.flat_features)
    np.testing.assert_array_equal(P0, P1)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("[architecture]\nkind = perceptron\n[parameters]\n[state]\n")
    with pytest.raises(ValueError):
        load_checkpoint(path)
    path.write_text("stray line\n")
    with pytest.raises(ValueError):
        load_checkpoint(path)
