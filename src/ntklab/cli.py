"""Command-line front end.

Subcommands, with the shared flags each one takes::

    gen       draw a dataset and write its feature CSVs       --seed --out
    ntk       compute a kernel matrix (analytic, optionally   --seed --out
              Monte Carlo) and write it as kernel.csv
    spectral  eigendecompose a kernel.csv (alignment if       --out
              labels are given)
    train     run one training job from a config file         --config --seed
              ([train] section); its arch fixes the task:     --out
              the sum rate on channel instances (wcgcn,
              power-mlp), squared loss on labelled Gaussian
              node sets read as flat vectors (two-layer)
    exp ID    run an experiment pipeline (fig1 fig2 fig3      --config --seed
              ntk-regime thm3 thm4-thm5)                      --out --threads

A flag that a subcommand does not take is a usage error.  Exit codes: 0
success, 1 invalid arguments or config, 2 numeric failure (divergence,
non-finite values).  Flags override the config file's ``[common]`` keys.
"""

import argparse
import sys
import time

import numpy as np

from .artifacts import RunFiles, csv_text
from .config import EXPERIMENT_IDS, TRAIN, ExperimentConfig, load_config
from .errors import DivergenceError, NumericFailureError
from .experiments import (_keep_heap_mapped, _sum_rate_data, _sum_rate_net,
                          run_experiment, write_manifest)
from .kernels import (analytic_ntk_gnn, analytic_ntk_mlp, mc_ntk,
                      save_kernel_csv, load_kernel_csv)
from .netsim import (gaussian_node_dataset, generate_instances,
                     labelled_gaussian_dataset)
from .nets import init_net
from .spectral import eig_sym
from .training import evaluate, save_checkpoint, train, write_trace_csv

__all__ = ["cli_main", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")


def _build_parser():
    parser = _Parser(prog="ntklab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def common(p, *names):
        flags = {"config": dict(help="sectioned key = value config file"),
                 "seed": dict(type=int), "out": dict(help="output directory"),
                 "threads": dict(type=int)}
        for name in names:
            p.add_argument(f"--{name}", **flags[name])

    g = sub.add_parser("gen", help="draw a dataset, write feature CSVs")
    common(g, "seed", "out")
    g.add_argument("--kind", choices=("channel", "gaussian"), default="channel")
    g.add_argument("--k", type=int, default=5, help="users (channel kind)")
    g.add_argument("--n", type=int, default=5, help="nodes (gaussian kind)")
    g.add_argument("--d", type=int, default=4, help="node dim (gaussian kind)")
    g.add_argument("--m", type=int, default=100, help="samples")

    n = sub.add_parser("ntk", help="compute a kernel matrix")
    common(n, "seed", "out")
    n.add_argument("--arch", choices=("mlp", "gnn"), default="mlp")
    n.add_argument("--activation", choices=("relu", "quadratic"),
                   default="relu")
    n.add_argument("--kind", choices=("channel", "gaussian"),
                   default="gaussian")
    n.add_argument("--k", type=int, default=5)
    n.add_argument("--n", type=int, default=5)
    n.add_argument("--d", type=int, default=4)
    n.add_argument("--m", type=int, default=50)
    n.add_argument("--mc-units", type=int, default=0,
                   help="total Monte Carlo draw units (draws x width); "
                        "0 disables the Monte Carlo estimate")
    n.add_argument("--mc-width", type=int, default=1000,
                   help="width per Monte Carlo draw")

    s = sub.add_parser("spectral", help="eigendecompose a saved kernel")
    common(s, "out")
    s.add_argument("--kernel", required=True, help="kernel CSV file")
    s.add_argument("--labels", default=None,
                   help="optional label file, one value per line")

    t = sub.add_parser("train", help="run one training job from --config")
    common(t, "config", "seed", "out")

    e = sub.add_parser("exp", help="run an experiment pipeline")
    common(e, "config", "seed", "out", "threads")
    e.add_argument("id", choices=EXPERIMENT_IDS, metavar="ID",
                   help="|".join(EXPERIMENT_IDS))
    e.add_argument("--scale", type=float, default=None,
                   help="uniform sample-count shrink factor in (0, 1]")
    return parser


def _seed(args):
    return args.seed if args.seed is not None else 0


def _dataset(args):
    """The dataset the gen and ntk commands draw (channel instances with
    --k users or Gaussian node sets of --n nodes in R^--d) and the lines
    that describe it."""
    meta = [f"m = {args.m}", f"seed = {_seed(args)}"]
    if args.kind == "channel":
        return (generate_instances(args.k, args.m, _seed(args)),
                ["kind = channel", f"k = {args.k}"] + meta)
    return (gaussian_node_dataset(args.n, args.m, args.d, _seed(args)),
            ["kind = gaussian", f"n = {args.n}", f"d = {args.d}"] + meta)


def _cmd_gen(args):
    t0 = time.perf_counter()
    files = RunFiles(args.out or "runs")
    ds, meta = _dataset(args)
    dim = ds.flat_features.shape[1]
    files.write("flat_features.csv",
                csv_text(",".join(f"x{i}" for i in range(dim)),
                         [tuple(float(v) for v in row)
                          for row in ds.flat_features]))
    files.write("meta.txt", "\n".join(meta) + "\n")
    write_manifest(files, ["command = gen"] + meta, t0)
    return 0


def _cmd_ntk(args):
    if args.mc_units < 0 or args.mc_width < 1:
        raise _UsageError("ntk requires --mc-units >= 0 and --mc-width >= 1")
    t0 = time.perf_counter()
    files = RunFiles(args.out or "runs")
    ds, meta = _dataset(args)
    if args.arch == "mlp":
        X, analytic = ds.flat_features, analytic_ntk_mlp
    else:
        X, analytic = ds.node_features, analytic_ntk_gnn
    kernel = analytic(X, args.activation)
    save_kernel_csv(kernel, files.path("kernel.csv"))
    echo = ["command = ntk"] + meta + [f"arch = {args.arch}",
                                      f"activation = {args.activation}"]
    if args.mc_units:
        draws = max(1, args.mc_units // args.mc_width)
        est = mc_ntk(X, draws, args.mc_width, _seed(args), args.activation)
        save_kernel_csv(est, files.path("mc_kernel.csv"))
        err = float(np.linalg.norm(est.entries - kernel.entries)
                    / np.linalg.norm(kernel.entries))
        files.write("mc_error.csv",
                    csv_text("draws,width_per_draw,relative_frobenius_error",
                             [(draws, args.mc_width, err)]))
        echo += [f"mc_draws = {draws}", f"mc_width = {args.mc_width}"]
    write_manifest(files, echo, t0)
    return 0


def _cmd_spectral(args):
    t0 = time.perf_counter()
    files = RunFiles(args.out or "runs")
    path = args.kernel
    kernel = load_kernel_csv(path)
    y = None
    if args.labels:
        y = np.loadtxt(args.labels, ndmin=1)
    rep = eig_sym(kernel.entries, y)
    files.write("eigenvalues.csv",
                csv_text("index,eigenvalue",
                         list(enumerate(map(float, rep.eigenvalues)))))
    if y is not None:
        files.write("alignment.csv", csv_text(
            "index,eigenvalue,alignment",
            [(i, float(l), float(a)) for i, (l, a) in
             enumerate(zip(rep.eigenvalues, rep.alignment))]))
    files.write("spectral_summary.csv", csv_text(
        "condition_number,trace,lambda_min,lambda_max",
        [(rep.condition_number, rep.trace,
          float(rep.eigenvalues[-1]), float(rep.eigenvalues[0]))]))
    write_manifest(files, ["command = spectral", f"kernel = {path}"], t0)
    return 0


# the [train] keys that only some archs read; the rest are read by all.
# The power-mlp always has two hidden layers, so it reads no ``layers``.
_ARCH_KEYS = {"two-layer": ("n", "d", "label_degree", "width"),
              "wcgcn": ("k", "hidden", "layers"),
              "power-mlp": ("k", "hidden")}


def _cmd_train(args):
    if not args.config:
        raise _UsageError("train requires --config\n"
                          "usage: ntklab train --config PATH [--seed N] "
                          "[--out DIR]")
    t0 = time.perf_counter()
    user = load_config(args.config)
    if TRAIN not in user:
        raise ValueError("config file has no [train] section")
    spec = ExperimentConfig.build(TRAIN, user, seed=args.seed, out=args.out)
    seed = spec.seed
    arch = spec.get_str("arch")
    if arch not in _ARCH_KEYS:
        raise ValueError(f"unknown architecture {arch!r}")
    unread = set().union(*_ARCH_KEYS.values()) - set(_ARCH_KEYS[arch])
    rejected = sorted(unread & set(user[TRAIN]))
    if rejected:
        raise ValueError(f"[train] keys that arch = {arch} does not read: "
                         f"{', '.join(rejected)}")
    m_train = spec.get_int("m_train")
    m_test = spec.get_int("m_test")
    if arch == "two-layer":
        n = spec.get_int("n")
        d = spec.get_int("d")
        degree = spec.get_int("label_degree")
        train_ds = labelled_gaussian_dataset(n, m_train, d, seed, degree)
        test_ds = labelled_gaussian_dataset(n, m_test, d, seed + 1, degree)
        net = init_net("two-layer", train_ds.flat_features.shape[1],
                       spec.get_int("width"), seed)
    else:
        k = spec.get_int("k")
        train_ds, test_ds = _sum_rate_data(k, m_train, m_test, seed)
        net = _sum_rate_net(arch, k, spec.get_int("hidden"), seed,
                            spec.get_int("layers"))

    files = RunFiles(spec.out)
    echo = [f"seed = {seed}", f"out = {spec.out}"] + [
        f"{TRAIN}.{key} = {value}"
        for key, value in sorted(spec.sections[TRAIN].items())
        if key not in unread]
    try:
        trace = train(net, train_ds, test_ds, optimizer=spec.get_str("optimizer"),
                      lr=spec.get_float("lr"), epochs=spec.get_int("epochs"),
                      seed=seed, eval_every=spec.get_int("eval_every"),
                      batch_size=spec.get_batch())
    except DivergenceError as exc:
        if exc.trace:
            write_trace_csv(exc.trace, files.path("trace.csv"))
            write_manifest(files, ["command = train (diverged)"] + echo, t0)
        raise
    write_trace_csv(trace, files.path("trace.csv"))
    save_checkpoint(net, files.path("checkpoint.txt"))
    metrics = evaluate(net, test_ds, train_ds=train_ds)
    rows = [(key, float(v)) for key, v in sorted(metrics.items())
            if v is not None]
    files.write("train_summary.csv", csv_text("metric,value", rows))
    write_manifest(files, ["command = train"] + echo, t0)
    return 0


def _cmd_exp(args):
    user = load_config(args.config) if args.config else {}
    cfg = ExperimentConfig.build(
        args.id, user, seed=args.seed, out=args.out,
        threads=args.threads, scale=args.scale)
    run_experiment(cfg)
    return 0


def cli_main(argv=None):
    """Entry point; returns the process exit code."""
    _keep_heap_mapped()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError(parser.format_usage())
        handler = {"gen": _cmd_gen, "ntk": _cmd_ntk, "spectral": _cmd_spectral,
                   "train": _cmd_train, "exp": _cmd_exp}[args.command]
        return handler(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericFailureError, DivergenceError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
