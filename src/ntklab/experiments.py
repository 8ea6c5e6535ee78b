"""Seeded experiment pipelines emitting CSV artifacts, a plot script, and a
checksum manifest.

Every pipeline is a pure function of (config, seed): re-running reproduces
identical CSV bytes, whatever the width of the :mod:`ntklab.pool` thread
pool.  Wall-clock times therefore never enter data CSVs; they live in
manifest header comments only.  Cells — independent (model, K, m) units — of
fig1 and fig3 run one after another in this process, each net pass and
kernel spreading its tiles and blocks over this thread and the pool;
ntk-regime's width cells and fig3's eigensolves run side by side the same
way.  Every BLAS call runs on one OpenBLAS thread (:mod:`ntklab.pool`), so
no output depends on the environment's BLAS thread count either.  All files
are written atomically (temp file + rename).  :func:`run_experiment` opens
the run directory (a RunFiles) before the runner starts and seals it after
the runner returns: the manifest lists exactly the files the run wrote.
"""

import hashlib
import os
import time

import numpy as np

from . import __version__
from .artifacts import RunFiles, atomic_write, csv_text
from .kernels import analytic_ntk_gnn, analytic_ntk_mlp, empirical_ntk
from .netsim import (gaussian_node_dataset, generate_instances,
                     label_direction, labelled_gaussian_dataset)
from .nets import init_net, n_params
from .pool import _run_blocks
from .spectral import (activation_constant, condition_landscape, eig_sym,
                       generalization_bound, kernel_dynamics, thm3_bounds)
from .errors import RangeViolationError, UnsupportedConstantError
from .training import (epochs_to_level, evaluate, progress_level, train,
                       write_trace_csv)

__all__ = ["run_fig1", "run_fig2", "run_fig3", "run_ntk_regime", "run_bounds",
           "run_experiment", "write_manifest"]


# ---------------------------------------------------------------------------
# artifact plumbing

def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(files, echo_lines):
    """path<TAB>sha256 for every file the run wrote (a RunFiles), with
    config echo / version / wall time since it opened as header comments."""
    lines = [f"# version = ntklab-{__version__}",
             f"# wall_seconds = {time.perf_counter() - files.t0:.1f}"]
    lines += [f"# {e}" for e in echo_lines]
    lines += sorted(f"{name}\t{_sha256(os.path.join(files.out, name))}"
                    for name in set(files.names))
    atomic_write(os.path.join(files.out, "manifest.txt"), "\n".join(lines) + "\n")


def _sum_rate_net(arch, k, hidden, seed, layers):
    """A fresh net for the K-user sum-rate task: 'wcgcn' (the same net for
    any K) or the flat 'power-mlp' over the K*K magnitudes and K weights."""
    return init_net(arch, (k * k + k, k), hidden, seed, layers=layers)


def _sum_rate_data(k, m, m_test, seed):
    """The train/test pair of a K-user sum-rate run: m channel instances
    drawn at ``seed`` and m_test at ``seed + 1``."""
    return generate_instances(k, m, seed), generate_instances(k, m_test, seed + 1)


def _mlp_hidden(cfg, k, gnn_hidden, layers):
    """The flat net's hidden width: the configured one, or with
    ``mlp_hidden = auto`` the one whose PowerMlp parameter count is nearest
    the WCGCN's: the smallest h at or above that count, or h - 1 if that
    one is nearer (they land within a few tenths of a percent near the
    crossover)."""
    if cfg.get_str("mlp_hidden") != "auto":
        return cfg.get_int("mlp_hidden")
    target = n_params(_sum_rate_net("wcgcn", k, gnn_hidden, 0, layers))

    def count(h):
        return n_params(_sum_rate_net("power-mlp", k, h, 0, layers))

    h = 1
    while count(h) < target:
        h += 1
    return h - 1 if h > 1 and target - count(h - 1) < count(h) - target else h


# The plot script every run writes beside its CSVs.  PLOT_DATA becomes the
# PNG name and the panels: (CSV files, x column, y columns, group-by columns,
# log y), one line per (file, group, y column).  The script reads only the
# files listed, so stale CSVs in a reused directory never reach the figure.
_PLOT = """\
#!/usr/bin/env python3
\"\"\"Render this run's figure from the CSVs next to this script.\"\"\"
import csv, os
import matplotlib.pyplot as plt

PNG, PANELS = PLOT_DATA
here = os.path.dirname(os.path.abspath(__file__))
fig, axes = plt.subplots(1, len(PANELS), figsize=(5 * len(PANELS), 4),
                         squeeze=False)
for ax, (names, x, ys, group, logy) in zip(axes[0], PANELS):
    for name in names:
        with open(os.path.join(here, name)) as fh:
            rows = list(csv.DictReader(l for l in fh if not l.startswith("#")))
        for key in sorted({tuple(r[g] for g in group) for r in rows}):
            sel = [r for r in rows if tuple(r[g] for g in group) == key]
            tag = " ".join(f"{g}={v}" for g, v in zip(group, key))
            for y in ys:
                pts = [(float(r[x]), float(r[y])) for r in sel if r[y]]
                ax.plot([p[0] for p in pts], [p[1] for p in pts],
                        label=f"{name[:-4]} {y} {tag}".rstrip())
    ax.set_xlabel(x)
    if logy:
        ax.set_yscale("log")
    ax.legend(fontsize=6)
fig.tight_layout()
fig.savefig(os.path.join(here, PNG), dpi=150)
print("wrote", PNG)
"""


def _write_plot(files, script, png, panels):
    """Write ``script``, the plot of ``panels`` into ``png``; see _PLOT."""
    files.write(script, _PLOT.replace("PLOT_DATA", repr((png, panels))))


# ---------------------------------------------------------------------------
# The training cell of Fig. 1 and Fig. 3: one (model, K, m) sum-rate run

def _train_cell(k, model, m, m_test, seed, hidden, layers, **fit):
    """``fit``: the keyword arguments of ``train`` other than the seed."""
    train_ds, test_ds = _sum_rate_data(k, m, m_test, seed)
    net = _sum_rate_net("wcgcn" if model == "gnn" else "power-mlp", k, hidden,
                        seed, layers)
    rows = train(net, train_ds, test_ds, seed=seed, **fit)
    return {"rows": rows, "params": n_params(net), **evaluate(net, test_ds)}


# ---------------------------------------------------------------------------
# Fig. 1: convergence and generalization on the power-control task

def run_fig1(cfg, files):
    """Trains matched MLP and WCGCN on the sum-rate objective at each K."""
    k_list = cfg.get_int_list("k_list")
    m_train = cfg.scaled(cfg.get_int("m_train"))
    m_test = cfg.scaled(cfg.get_int("m_test"))
    gnn_hidden = cfg.get_int("gnn_hidden")
    layers = cfg.get_int("gnn_layers")
    common = dict(m=m_train, m_test=m_test, seed=cfg.seed, layers=layers,
                  optimizer=cfg.get_str("optimizer"), lr=cfg.get_float("lr"),
                  epochs=cfg.get_int("epochs"), batch_size=cfg.get_batch(),
                  eval_every=cfg.get_int("eval_every"))
    jobs = [dict(common, k=k, model=model, hidden=hidden)
            for k in k_list
            for model, hidden in (("gnn", gnn_hidden),
                                  ("mlp", _mlp_hidden(cfg, k, gnn_hidden, layers)))]
    results = [_train_cell(**job) for job in jobs]

    rows, summaries = {}, []
    for job, r in zip(jobs, results):
        k, model = job["k"], job["model"]
        rows[(k, model)] = r["rows"]
        write_trace_csv(r["rows"], files.path(f"trace_{model}_K{k}.csv"))
        summaries.append({
            "k": k, "model": model, "hidden": job["hidden"],
            "params": r["params"],
            "final_train_loss": r["rows"][-1].train_loss,
            "final_test_loss": r["rows"][-1].test_loss,
            "mean_sum_rate": r["mean_sum_rate"],
            "ratio_to_wmmse": r["ratio_to_wmmse"],
            "e_gen": r["e_gen"],
            "t_star": epochs_to_level(r["rows"], progress_level(r["rows"])),
        })
    for k in k_list:
        files.write(f"fig1_K{k}.csv", csv_text(
            "epoch,gnn_train_loss,gnn_test_loss,mlp_train_loss,mlp_test_loss",
            [(g.epoch, g.train_loss, g.test_loss, m.train_loss, m.test_loss)
             for g, m in zip(rows[(k, "gnn")], rows[(k, "mlp")])]))
    files.write("fig1_summary.csv", csv_text(
        ",".join(summaries[0]), [tuple(s.values()) for s in summaries]))
    _write_plot(files, "fig1_plot.py", "fig1.png", [
        ([f"fig1_K{k}.csv"], "epoch", ["gnn_train_loss", "gnn_test_loss",
                                       "mlp_train_loss", "mlp_test_loss"],
         [], False) for k in k_list])
    return summaries


# ---------------------------------------------------------------------------
# Fig. 2: kernel conditioning against graph size

def run_fig2(cfg, files):
    """Condition-number landscape over graph sizes (Gaussian node features)."""
    n_list = cfg.get_int_list("n_list")
    samples = cfg.scaled(cfg.get_int("samples"), minimum=10)
    node_dim = cfg.get_int("node_dim")
    activation = cfg.get_str("activation")
    growth_min = cfg.get_float("mlp_growth_min")
    flat_max = cfg.get_float("gnn_flat_max")

    rows = condition_landscape(n_list, samples=samples, seed=cfg.seed,
                               node_dim=node_dim, activation=activation)
    files.write("landscape.csv", csv_text(
        "n,cond_mlp,cond_gnn", rows,
        comments=["cond(Y^T H Y) over the architecture's natural linear "
                  "target family",
                  f"samples = {samples}, node_dim = {node_dim}, "
                  f"seed = {cfg.seed}, activation = {activation}"]))
    conds = {n: (cm, cg) for n, cm, cg in rows}
    n_lo, n_hi = min(n_list), max(n_list)
    mlp_growth = conds[n_hi][0] / conds[n_lo][0]
    gnn_growth = conds[n_hi][1] / conds[n_lo][1]
    files.write("fig2_summary.csv", csv_text(
        "metric,value,threshold,satisfied",
        [("cond_mlp_growth", mlp_growth, growth_min, int(mlp_growth >= growth_min)),
         ("cond_gnn_growth", gnn_growth, flat_max, int(gnn_growth <= flat_max))]))
    _write_plot(files, "fig2_plot.py", "fig2.png", [
        (["landscape.csv"], "n", ["cond_mlp", "cond_gnn"], [], True)])
    return rows


# ---------------------------------------------------------------------------
# Fig. 3: sample-size scaling — training slowdown and kernel lambda_min

def run_fig3(cfg, files):
    """Per-(model, m) training traces plus analytic-kernel lambda_min table."""
    k = cfg.get_int("k")
    m_list = [cfg.scaled(m) for m in cfg.get_int_list("m_list")]
    m_test = cfg.scaled(cfg.get_int("m_test"))
    lambda_ms = [cfg.scaled(m) for m in cfg.get_int_list("lambda_m_list")]
    frac = cfg.get_float("threshold_fraction")
    gnn_hidden = cfg.get_int("gnn_hidden")
    layers = cfg.get_int("gnn_layers")
    hidden = {"gnn": gnn_hidden, "mlp": _mlp_hidden(cfg, k, gnn_hidden, layers)}

    # Each model trains in its own regime (declared per-model in the config):
    # the flat net under plain full-batch descent, where the kernel's
    # conditioning governs the epoch count, the graph net in the practical
    # minibatch-adam regime it is normally run in.
    jobs = [dict(k=k, model=model, m=m, m_test=m_test, seed=cfg.seed,
                 hidden=hidden[model], layers=layers,
                 optimizer=cfg.get_str(f"{model}_optimizer"),
                 lr=cfg.get_float(f"{model}_lr"),
                 epochs=cfg.get_int(f"{model}_epochs"),
                 batch_size=cfg.get_batch(f"{model}_batch_size"),
                 eval_every=cfg.get_int("eval_every"))
            for model in ("gnn", "mlp") for m in m_list]
    results = [_train_cell(**job) for job in jobs]

    rows = {}
    for job, r in zip(jobs, results):
        model, m = job["model"], job["m"]
        rows[(model, m)] = r["rows"]
        write_trace_csv(r["rows"], files.path(f"trace_{model}_m{m}.csv"))
    traces = list(files.names)

    # One fixed train-loss threshold per model, shared by its sample sizes:
    # the highest of the runs' own progress levels, so every run crosses it.
    thresholds = {model: max(progress_level(rows[(model, m)], frac) for m in m_list)
                  for model in ("gnn", "mlp")}
    t_star = {key: epochs_to_level(r, thresholds[key[0]]) for key, r in rows.items()}

    summaries = [{"model": job["model"], "m": job["m"], "hidden": job["hidden"],
                  "t_star": t_star[(job["model"], job["m"])],
                  "final_train_loss": r["rows"][-1].train_loss,
                  "final_test_loss": r["rows"][-1].test_loss,
                  "ratio_to_wmmse": r["ratio_to_wmmse"]}
                 for job, r in zip(jobs, results)]
    files.write("fig3_summary.csv", csv_text(
        ",".join(summaries[0]), [tuple(s.values()) for s in summaries],
        comments=[f"t_star = first epoch at or below the model's "
                  f"shared train-loss threshold "
                  f"(fraction {frac:g} of each run's decrease "
                  "left; highest level across its sample sizes)"]))
    slow_rows = []
    for model in ("gnn", "mlp"):
        ts = {m: t_star[(model, m)] for m in m_list}
        lo, hi = min(ts), max(ts)
        if ts[lo] in (None, 0) or ts[hi] is None:
            ratio = None
        else:
            ratio = ts[hi] / ts[lo]
        slow_rows.append((model, thresholds[model], lo, ts[lo], hi, ts[hi],
                          ratio))
    files.write("fig3_slowdown.csv", csv_text(
        "model,threshold,m_small,t_star_small,m_large,t_star_large,"
        "slowdown_ratio", slow_rows))

    # analytic-kernel smallest eigenvalues on nested sample prefixes: both
    # kernels are entrywise and sample m is a prefix of sample m', so each
    # m's kernel is the leading block of the largest one.  The eigensolves
    # are independent and each runs on one BLAS thread, so they run side by
    # side on the pool, largest first; the rows keep lambda_m_list's order
    big = generate_instances(k, max(lambda_ms), cfg.seed)
    H = {"mlp": analytic_ntk_mlp(big.flat_features),
         "gnn": analytic_ntk_gnn(big.node_features)}
    solves = [(m, model) for m in sorted(set(lambda_ms), reverse=True)
              for model in H]

    def lambda_min(solve):
        m, model = solve
        return float(np.linalg.eigvalsh(H[model][:m, :m])[0])

    lam = dict(zip(solves, _run_blocks(lambda_min, solves)))
    lam_rows = [(m, lam[(m, "mlp")], lam[(m, "gnn")]) for m in lambda_ms]
    files.write("lambda_min.csv", csv_text(
        "m,lambda_min_mlp,lambda_min_gnn", lam_rows,
        comments=[f"K = {k}, seed = {cfg.seed}; sample m is a "
                  "prefix of sample m' for m < m'",
                  "lambda_min_mlp: flat kernel over all of |H|; "
                  "lambda_min_gnn: sum-readout kernel over the node "
                  "features (w_k, |h_kk|), which never see the "
                  "interference links"]))
    _write_plot(files, "fig3_plot.py", "fig3.png", [
        (traces, "epoch", ["train_loss"], [], False),
        (["lambda_min.csv"], "m", ["lambda_min_mlp", "lambda_min_gnn"], [],
         True)])
    return summaries


# ---------------------------------------------------------------------------
# NTK regime: wide-net training against closed-form kernel dynamics

def _ntk_cell(width, d, m, seed, lr, epochs, eval_every, label_degree,
              loss_drop):
    ds = labelled_gaussian_dataset(1, m, d, seed, label_degree)
    y = ds.labels
    test = labelled_gaussian_dataset(1, max(m // 5, 2), d, seed + 1,
                                     label_degree)

    net = init_net("two-layer", d, width, seed)
    X = ds.flat_features
    H_emp = empirical_ntk(net, X)
    H_true = analytic_ntk_mlp(X)
    fro = float(np.linalg.norm(H_emp - H_true) / np.linalg.norm(H_true))

    u0 = net.forward(X)
    trace = train(net, ds, test, optimizer="gd", lr=lr, epochs=epochs,
                  seed=seed, eval_every=eval_every)
    epochs_grid = np.array([r.epoch for r in trace], dtype=float)
    resid = kernel_dynamics(eig_sym(H_emp, y - u0), lr * epochs_grid)
    loss_pred = 0.5 * np.linalg.norm(resid, axis=1) ** 2
    loss_net = np.array([r.train_loss for r in trace])
    L0 = loss_net[0]
    window = loss_net >= L0 / loss_drop
    if window.any():
        last = int(np.nonzero(window)[0].max())
        window[:last + 1] = True          # contiguous prefix of the run
    deviation = float(np.max(np.abs(loss_net[window] - loss_pred[window])
                             / loss_pred[window]))
    rows = [(int(e), float(ln), float(lp))
            for e, ln, lp in zip(epochs_grid, loss_net, loss_pred)]
    return {"width": width, "fro_error": fro, "deviation": deviation,
            "rows": rows, "reached_drop": bool((~window).any())}


def run_ntk_regime(cfg, files):
    """Finite-width trajectories vs the empirical-kernel linear dynamics."""
    d = cfg.get_int("d")
    m = cfg.scaled(cfg.get_int("m"), minimum=10)
    widths = cfg.get_int_list("widths")
    lr = cfg.get_float("lr")
    epochs = cfg.get_int("epochs")
    eval_every = cfg.get_int("eval_every")
    degree = cfg.get_int("label_degree")
    loss_drop = cfg.get_float("loss_drop")

    # the cells share the pool with this thread, widest first so that the
    # narrow ones run beside it
    order = sorted(range(len(widths)), key=lambda i: -widths[i])
    done = _run_blocks(
        lambda w: _ntk_cell(w, d, m, cfg.seed, lr, epochs, eval_every,
                            degree, loss_drop),
        [widths[i] for i in order])
    results = [r for _, r in sorted(zip(order, done))]

    for r in results:
        files.write(f"traj_w{r['width']}.csv",
                    csv_text("epoch,train_loss,predicted_loss", r["rows"]))
    files.write("ntk_regime.csv", csv_text(
        "width,max_relative_deviation,reached_loss_drop",
        [(r["width"], r["deviation"], int(r["reached_drop"])) for r in results],
        comments=[f"deviation window: first {loss_drop:g}x "
                  "training-loss reduction"]))
    files.write("kernel_convergence.csv", csv_text(
        "width,kernel_frobenius_error",
        [(r["width"], r["fro_error"]) for r in results]))
    _write_plot(files, "ntk_plot.py", "ntk_regime.png", [
        ([f"traj_w{r['width']}.csv" for r in results], "epoch",
         ["train_loss", "predicted_loss"], [], True)])
    return results


# ---------------------------------------------------------------------------
# Theorem 3-5: bound curves, generalization-bound table, residual races

def run_bounds(cfg, files):
    """Theorem 3 curves, Theorem 4/5 bound table, and kernel-regression
    residual races on synthetic polynomial targets."""
    n_list = cfg.get_int_list("n_list")
    p_list = cfg.get_int_list("p_list")
    acts = cfg.get_str_list("activations")
    if len(acts) != len(p_list):
        raise ValueError("activations must pair one activation per target "
                         f"degree: got {len(acts)} for {len(p_list)} degrees")
    m = cfg.scaled(cfg.get_int("m"), minimum=20)
    d = cfg.get_int("node_dim")
    delta = cfg.get_float("delta")
    n_times = cfg.get_int("time_points")
    t_min = cfg.get_float("t_min")
    t_max = cfg.get_float("t_max")
    target = cfg.get_float("residual_target")
    beta_norm = float(np.linalg.norm(label_direction(d)))
    times = np.geomspace(t_min, t_max, n_times)

    # Theorem 3 curves.  The n per-node constants lambda_1..lambda_n have no
    # published formula; the single-node base-kernel Gram over one sampled
    # node set stands in, giving a spectrum whose sum grows with n.  The p=1
    # constant is likewise unpublished, so a declared override of 1.0 is used
    # and recorded here.
    thm3_rows, const_notes = [], []
    for p, act in zip(p_list, acts):
        try:
            c = activation_constant(p, act)
            const_notes.append(f"c({p},{act}) = {c:.17g}")
        except UnsupportedConstantError:
            c = 1.0
            const_notes.append(f"c({p},{act}) = 1.0 (declared override)")
        for n in n_list:
            ds = gaussian_node_dataset(n, m, d, cfg.seed)
            base = analytic_ntk_mlp(ds.node_features[0], act)
            lam = np.clip(np.linalg.eigvalsh(base), 0.0, None)
            gnn_c, mlp_c = thm3_bounds(lam, beta_norm, p, c, times)
            thm3_rows += [(p, act, n, float(t), float(g), float(mm))
                          for t, g, mm in zip(times, gnn_c, mlp_c)]
    files.write("thm3.csv", csv_text("p,activation,n,t,gnn_bound,mlp_bound",
                                     thm3_rows, comments=const_notes))

    thm45_rows, resid_rows, race_rows = [], [], []
    for p, act in zip(p_list, acts):
        for n in n_list:
            ds = labelled_gaussian_dataset(n, m, d, cfg.seed, p)
            y = ds.labels
            reps = {"mlp": eig_sym(analytic_ntk_mlp(ds.flat_features, act), y),
                    "gnn": eig_sym(analytic_ntk_gnn(ds.node_features, act), y)}
            bounds, notes = {}, {}
            for name, rep in reps.items():
                try:
                    bounds[name] = generalization_bound(rep, delta)
                    notes[name] = ""
                except RangeViolationError:
                    bounds[name] = None
                    notes[name] = "range-violation"
            ratio = (bounds["mlp"] / bounds["gnn"]
                     if bounds["mlp"] is not None and bounds["gnn"] is not None
                     else None)
            thm45_rows.append((p, act, n, bounds["gnn"], bounds["mlp"],
                               ratio, (notes["gnn"] or notes["mlp"]) or "ok"))

            ynorm = float(np.linalg.norm(y))
            reach = {}
            for name, rep in reps.items():
                resid = kernel_dynamics(rep, times)
                rel = np.linalg.norm(resid, axis=1) / ynorm
                resid_rows += [(p, act, n, name, float(t), float(r))
                               for t, r in zip(times, rel)]
                hit = np.nonzero(rel <= target)[0]
                reach[name] = float(times[hit[0]]) if hit.size else None
            race_rows.append((p, act, n, reach["gnn"], reach["mlp"]))
    files.write("thm45.csv", csv_text(
        "p,activation,n,gnn_bound,mlp_bound,ratio,note", thm45_rows,
        comments=[f"m = {m}, delta = {delta}"]))
    files.write("residuals.csv", csv_text(
        "p,activation,n,kernel,t,residual_over_ynorm", resid_rows))
    files.write("residual_race.csv", csv_text(
        "p,activation,n,t_gnn_reach,t_mlp_reach", race_rows,
        comments=[f"first grid time with residual <= {target:g} * ||y||"]))
    _write_plot(files, "bounds_plot.py", "bounds.png", [
        (["thm3.csv"], "t", ["gnn_bound", "mlp_bound"], ["p", "n"], True),
        (["thm45.csv"], "n", ["ratio"], ["p"], False)])
    return thm45_rows


_RUNNERS = {"fig1": run_fig1, "fig2": run_fig2, "fig3": run_fig3,
            "ntk-regime": run_ntk_regime, "bounds": run_bounds}


def run_experiment(cfg):
    """Run ``cfg``'s experiment into one RunFiles on ``cfg.out`` and seal
    it with the manifest of those files; returns the runner's result."""
    files = RunFiles(cfg.out)
    result = _RUNNERS[cfg.experiment](cfg, files)
    write_manifest(files, cfg.echo_lines())
    return result
