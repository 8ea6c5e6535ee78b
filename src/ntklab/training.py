"""Seeded training loops, traces, evaluation, and plain-text checkpoints.

The trainer owns the only mutable copy of a network; forward/gradient
evaluation never mutates parameters.  Traces record a row at epoch 0 (the
initialized network) and every ``eval_every`` epochs thereafter; recorded
losses and gradient norms are full-dataset quantities in evaluation mode, so
a trace is a deterministic function of (net init, datasets, config).
"""

from dataclasses import dataclass

import numpy as np

from .artifacts import atomic_write, csv_text
from .errors import DivergenceError
from .netsim import sum_rate_batch
from .nets import (PowerMlp, TwoLayerNet, WcgcnNet, gradients, loss_value,
                   sample_chunks, _batch_features, _labels, _power_forward)
from .rng import DOMAIN_TRAIN, stream
from .wmmse import wmmse_batch

__all__ = [
    "TrainConfig",
    "TraceRow",
    "train",
    "evaluate",
    "epochs_to_threshold",
    "write_trace_csv",
    "save_checkpoint",
    "load_checkpoint",
]

DIVERGENCE_LIMIT = 1e6

# Full-dataset passes (trace snapshots, final metrics) are evaluated this many
# samples at a time; the graph net's activations scale with batch * K^2 and a
# one-shot pass at K=20, m=20000 would need several GB.
SNAPSHOT_CHUNK = 256

OPTIMIZERS = ("gd", "adam")


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "adam"
    lr: float = 1e-3
    epochs: int = 100
    seed: int = 0
    eval_every: int = 1
    batch_size: int | None = None    # None = full batch

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.lr < 0 or not np.isfinite(self.lr):
            raise ValueError("lr must be finite and nonnegative")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class TraceRow:
    epoch: int
    train_loss: float
    test_loss: float
    grad_norm: float


class _Adam:
    """Standard adaptive-moment estimation (b1=0.9, b2=0.999, eps=1e-8)."""

    def __init__(self, lr):
        self.lr = lr
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params, grads):
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for k, g in grads.items():
            if k not in self.m:
                self.m[k] = np.zeros_like(g)
                self.v[k] = np.zeros_like(g)
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            params[k] -= self.lr * (self.m[k] / c1) / (np.sqrt(self.v[k] / c2) + eps)


class _Gd:
    def __init__(self, lr):
        self.lr = lr

    def step(self, params, grads):
        for k, g in grads.items():
            params[k] -= self.lr * g


def _grad_norm(grads):
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))


def train(net, train_ds, test_ds, cfg):
    """Train ``net`` in place on its own loss (see nets.loss_value: squared
    loss on labels for a TwoLayerNet, the negative sum rate otherwise);
    returns the trace, a list of TraceRows.

    Losses recorded in the trace are full-dataset values in evaluation mode
    (batch-normalization running statistics, no updates), so rows are
    comparable across batch sizes.  Aborts with DivergenceError — carrying
    the rows recorded so far — if any step loss exceeds 1e6 or goes
    non-finite.
    """
    if train_ds.m == 0 or test_ds.m == 0:
        raise ValueError("datasets must be nonempty")
    opt = _Adam(cfg.lr) if cfg.optimizer == "adam" else _Gd(cfg.lr)
    rows = []

    def snapshot(epoch):
        g, train_loss = gradients(net, train_ds, train=False,
                                  chunk=SNAPSHOT_CHUNK)
        test_loss = loss_value(net, test_ds, train=False, chunk=SNAPSHOT_CHUNK)
        rows.append(TraceRow(epoch, float(train_loss), float(test_loss),
                             _grad_norm(g)))
        if not (np.isfinite(train_loss) and np.isfinite(test_loss)):
            raise DivergenceError(f"non-finite loss at epoch {epoch}", trace=rows)

    snapshot(0)
    m = train_ds.m
    bs = cfg.batch_size or m
    for epoch in range(1, cfg.epochs + 1):
        if bs >= m:
            batches = (train_ds,)
        else:
            order = stream(cfg.seed, DOMAIN_TRAIN, epoch).permutation(m)
            batches = (train_ds.subset(order[start:start + bs])
                       for start in range(0, m, bs))
        for batch in batches:
            grads, batch_loss = gradients(net, batch, train=True)
            if not np.isfinite(batch_loss) or batch_loss > DIVERGENCE_LIMIT:
                raise DivergenceError(
                    f"loss diverged at epoch {epoch} ({batch_loss:.3g})",
                    trace=rows)
            opt.step(net.params, grads)
        if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
            snapshot(epoch)
    return rows


def progress_level(rows, fraction=0.2):
    """The train-loss level at which a run (its TraceRows) has covered
    (1 - fraction) of its total decrease.

    For a positive loss decaying toward zero this is the classic "loss fell
    to ``fraction`` of its initial value" level; phrasing it in terms of the
    covered decrease keeps it meaningful for losses that start or end
    negative (the sum-rate objective).
    """
    if not 0 <= fraction <= 1:
        raise ValueError("fraction must be in [0, 1]")
    start = rows[0].train_loss
    best = min(r.train_loss for r in rows)
    return best + fraction * (start - best)


def epochs_to_level(rows, level):
    """First recorded epoch whose train loss is at or below ``level``; None
    if the run never gets there."""
    for r in rows:
        if r.train_loss <= level:
            return r.epoch
    return None


def epochs_to_threshold(rows, fraction=0.2):
    """First recorded epoch at or below the run's own progress level; see
    progress_level.  Always defined (the best epoch qualifies)."""
    return epochs_to_level(rows, progress_level(rows, fraction))


def evaluate(net, test_ds, train_ds=None):
    """Test-set metrics of the net's own task: mean loss, ratio-to-WMMSE
    (sum-rate nets), and an excess-risk estimate vs the task oracle.

    The oracle is WMMSE for the sum-rate nets (WcgcnNet, PowerMlp).  For a
    TwoLayerNet, whose task is the labelled regression, it is the exact
    kernel-regression predictor: the analytic kernel of the net's own
    activation over ``train_ds``; without ``train_ds`` there is no oracle.
    Excess risk is the mean per-sample loss difference net - oracle; learned
    policies can beat the locally optimal WMMSE, so small negative values are
    legitimate.
    """
    if test_ds.m == 0:
        raise ValueError("test set must be nonempty")
    metrics = {}
    if not isinstance(net, TwoLayerNet):
        P = np.concatenate([_power_forward(net, sub, train=False)[0]
                            for sub in sample_chunks(test_ds, SNAPSHOT_CHUNK)])
        rates = sum_rate_batch(test_ds.mags, test_ds.sigma2s, test_ds.weights, P)
        p_star = wmmse_batch(test_ds.mags, test_ds.sigma2s, test_ds.weights)
        oracle_rates = sum_rate_batch(test_ds.mags, test_ds.sigma2s,
                                      test_ds.weights, p_star)
        metrics["mean_loss"] = -float(rates.mean())
        metrics["mean_sum_rate"] = float(rates.mean())
        metrics["oracle_sum_rate"] = float(oracle_rates.mean())
        metrics["ratio_to_wmmse"] = float(rates.mean() / oracle_rates.mean())
        metrics["e_gen"] = float(np.mean(-rates - (-oracle_rates)))
        return metrics
    err = net.forward(_batch_features(net, test_ds)) - _labels(test_ds)
    metrics["mean_loss"] = float(np.mean(err ** 2))
    metrics["ratio_to_wmmse"] = None
    if train_ds is not None:
        from .kernels import gnn_kernel_function, mlp_kernel_function
        if test_ds.node_features.shape[1] == 1:
            Xtr = train_ds.flat_features
            Xte = test_ds.flat_features
            Ktr = mlp_kernel_function(Xtr, None, net.activation)
            Kte = mlp_kernel_function(Xte, Xtr, net.activation)
        else:
            Xtr = train_ds.node_features
            Xte = test_ds.node_features
            Ktr = gnn_kernel_function(Xtr, None, net.activation)
            Kte = gnn_kernel_function(Xte, Xtr, net.activation)
        coef = np.linalg.pinv(Ktr, rcond=1e-12) @ train_ds.labels
        oracle_err = Kte @ coef - test_ds.labels
        metrics["oracle_loss"] = float(np.mean(oracle_err ** 2))
        metrics["e_gen"] = float(np.mean(err ** 2 - oracle_err ** 2))
    return metrics


# ---------------------------------------------------------------------------
# trace CSV

_TRACE_HEADER = "epoch,train_loss,test_loss,grad_norm"


def write_trace_csv(rows, path):
    """A list of TraceRows as a CSV, one line per row."""
    atomic_write(path, csv_text(_TRACE_HEADER, [
        (r.epoch, r.train_loss, r.test_loss, r.grad_norm) for r in rows]))


# ---------------------------------------------------------------------------
# checkpoints: sectioned text, one line per tensor (name, shape, 17-digit
# values)

def _tensor_line(name, arr):
    shape = "x".join(str(s) for s in arr.shape) if arr.ndim else "scalar"
    values = " ".join(f"{v:.17g}" for v in np.asarray(arr, dtype=float).reshape(-1))
    return f"{name} {shape} {values}"


def _read_tensor_line(line):
    parts = line.split()
    name, shape = parts[0], parts[1]
    values = np.array([float(v) for v in parts[2:]])
    if shape != "scalar":
        values = values.reshape(tuple(int(s) for s in shape.split("x")))
    return name, values


def save_checkpoint(net, path):
    lines = ["[architecture]", f"kind = {net.kind}"]
    if isinstance(net, TwoLayerNet):
        lines += [f"activation = {net.activation}", f"width = {net.width}",
                  f"input_dim = {net.d}"]
    elif isinstance(net, WcgcnNet):
        lines += [f"hidden = {net.hidden}", f"layers = {net.layers}"]
    elif isinstance(net, PowerMlp):
        lines.append(f"dims = {','.join(str(d) for d in net.dims)}")
    else:
        raise ValueError(f"cannot checkpoint {type(net).__name__}")
    lines.append("[parameters]")
    lines += [_tensor_line(name, net.params[name]) for name in sorted(net.params)]
    lines.append("[state]")
    if isinstance(net, TwoLayerNet):
        lines.append(_tensor_line("a", net.a))
    else:
        lines += [_tensor_line(name, net.state[name]) for name in sorted(net.state)]
    atomic_write(path, "\n".join(lines) + "\n")


def load_checkpoint(path):
    arch, params, state = {}, {}, {}
    section = None
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("["):
                section = line.strip("[]")
                continue
            if section == "architecture":
                key, _, value = line.partition("=")
                arch[key.strip()] = value.strip()
            elif section == "parameters":
                name, arr = _read_tensor_line(line)
                params[name] = arr
            elif section == "state":
                name, arr = _read_tensor_line(line)
                state[name] = arr
            else:
                raise ValueError(f"line outside any section: {line!r}")
    kind = arch.get("kind")
    if kind == "two-layer":
        net = TwoLayerNet(params["W"], state["a"], activation=arch["activation"])
        return net
    if kind == "wcgcn":
        return WcgcnNet(params, state, int(arch["hidden"]), int(arch["layers"]))
    if kind == "power-mlp":
        dims = tuple(int(d) for d in arch["dims"].split(","))
        return PowerMlp(params, state, dims)
    raise ValueError(f"unknown checkpoint kind {kind!r}")
