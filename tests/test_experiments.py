"""Experiment pipelines: artifacts, determinism, manifests, thread safety.

Runs use tiny sample counts and epoch budgets; the acceptance suite covers
the scientifically meaningful scales.
"""

import csv
import ctypes
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import ntklab
from ntklab.artifacts import RunFiles, atomic_write, csv_text
from ntklab.config import ExperimentConfig
from ntklab.netsim import generate_instances
from ntklab.nets import gradients, init_net
from ntklab.experiments import (
    _BLAS_THREAD_VARS,
    _matched_mlp_hidden,
    _power_mlp_count,
    _run_cells,
    run_bounds,
    run_experiment,
    run_fig1,
    run_fig3,
    run_ntk_regime,
    write_manifest,
)


def build(experiment, overrides, out, threads=1, **kw):
    return ExperimentConfig.build(
        experiment, {experiment if experiment != "thm3" else "bounds": overrides},
        out=str(out), threads=threads, **kw)


def load_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(l for l in fh if not l.startswith("#")))


# ---------------------------------------------------------------------------
# small helpers


def test_csv_text_formatting():
    text = csv_text("a,b", [(1, 0.5), (None, "x")], comments=["note"])
    assert text == "# note\na,b\n1,0.5\n,x\n"


def test_csv_text_float_precision():
    v = 1 / 3
    text = csv_text("x", [(v,)])
    assert float(text.splitlines()[1]) == v     # 17 digits round-trip


def test_atomic_write_creates_directories(tmp_path):
    target = tmp_path / "deep" / "nest" / "file.txt"
    atomic_write(str(target), "one")
    assert target.read_text() == "one"
    atomic_write(str(target), "two")           # and replaces in place
    assert target.read_text() == "two"
    assert os.listdir(target.parent) == ["file.txt"]   # no temp droppings


def test_matched_mlp_hidden_is_nearest():
    d_in, k = 30, 5
    for target in (200, 1000, 5000):
        h = _matched_mlp_hidden(target, d_in, k)
        best = min(range(1, 300),
                   key=lambda hh: abs(_power_mlp_count(d_in, hh, k) - target))
        assert abs(_power_mlp_count(d_in, h, k) - target) == \
            abs(_power_mlp_count(d_in, best, k) - target)


def test_manifest_covers_and_hashes_every_file(tmp_path):
    out = tmp_path / "run"
    files = RunFiles(str(out))
    files.write("a.csv", "x,y\n1,2\n")
    files.write(os.path.join("sub", "b.txt"), b"hello\n")
    atomic_write(str(out / "stale.csv"), "not written by this run\n")
    write_manifest(files, ["probe = 1"], t0=0.0)
    lines = (out / "manifest.txt").read_text().splitlines()
    assert any(l == "# probe = 1" for l in lines)
    entries = dict(l.split("\t") for l in lines if not l.startswith("#"))
    assert set(entries) == {"a.csv", os.path.join("sub", "b.txt")}
    for rel, digest in entries.items():
        actual = hashlib.sha256((out / rel).read_bytes()).hexdigest()
        assert digest == actual


# ---------------------------------------------------------------------------
# fig2 (cheapest full pipeline): determinism, manifest scope


def test_manifest_lists_only_the_files_the_run_wrote(tmp_path):
    (tmp_path / "trace_gnn_m999.csv").write_text("stale\n")
    run_experiment(build("fig2", {"n_list": "1, 2", "samples": "12"}, tmp_path))
    lines = (tmp_path / "manifest.txt").read_text().splitlines()
    entries = {l.split("\t")[0] for l in lines if not l.startswith("#")}
    assert entries == {"landscape.csv", "fig2_summary.csv", "fig2_plot.py"}


def test_fig2_is_deterministic(tmp_path):
    overrides = {"n_list": "1, 3", "samples": "20"}
    outputs = []
    for name in ("one", "two"):
        cfg = build("fig2", overrides, tmp_path / name)
        run_experiment(cfg)
        outputs.append({f: (tmp_path / name / f).read_bytes()
                        for f in ("landscape.csv", "fig2_summary.csv")})
    assert outputs[0] == outputs[1]


def test_fig2_different_seeds_differ(tmp_path):
    overrides = {"n_list": "2", "samples": "20"}
    texts = []
    for seed in (0, 1):
        cfg = build("fig2", overrides, tmp_path / str(seed), seed=seed)
        run_experiment(cfg)
        texts.append((tmp_path / str(seed) / "landscape.csv").read_text())
    assert texts[0] != texts[1]


# ---------------------------------------------------------------------------
# fig1


@pytest.fixture(scope="module")
def fig1_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1")
    cfg = build("fig1", {
        "k_list": "3", "m_train": "40", "m_test": "16", "gnn_hidden": "4",
        "gnn_layers": "2", "optimizer": "adam", "lr": "1e-2", "epochs": "2",
        "batch_size": "20", "eval_every": "1", "mlp_hidden": "auto"}, out)
    summaries = run_fig1(cfg)
    return out, summaries


def test_fig1_artifacts(fig1_run):
    out, _ = fig1_run
    for name in ("trace_gnn_K3.csv", "trace_mlp_K3.csv", "fig1_K3.csv",
                 "fig1_summary.csv", "fig1_plot.py", "manifest.txt"):
        assert (out / name).exists(), name


def test_fig1_summary_contents(fig1_run):
    out, summaries = fig1_run
    assert {s["model"] for s in summaries} == {"gnn", "mlp"}
    rows = load_csv(out / "fig1_summary.csv")
    assert len(rows) == 2
    by_model = {r["model"]: r for r in rows}
    # the flat baseline is parameter-matched to the graph net
    g = int(by_model["gnn"]["params"])
    m = int(by_model["mlp"]["params"])
    assert abs(m - g) / g < 0.25
    for r in rows:
        assert 0 < float(r["ratio_to_wmmse"]) < 1.2
        assert r["t_star"] != ""


def test_fig1_joint_csv_columns(fig1_run):
    out, _ = fig1_run
    rows = load_csv(out / "fig1_K3.csv")
    assert list(rows[0]) == ["epoch", "gnn_train_loss", "gnn_test_loss",
                             "mlp_train_loss", "mlp_test_loss"]
    assert [int(r["epoch"]) for r in rows] == [0, 1, 2]


def test_fig1_manifest_covers_everything(fig1_run):
    out, _ = fig1_run
    lines = (out / "manifest.txt").read_text().splitlines()
    entries = {l.split("\t")[0] for l in lines if not l.startswith("#")}
    on_disk = {f for f in os.listdir(out) if f != "manifest.txt"}
    assert entries == on_disk


# ---------------------------------------------------------------------------
# fig3


@pytest.fixture(scope="module")
def fig3_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig3")
    cfg = build("fig3", {
        "k": "3", "m_list": "20, 40", "m_test": "10",
        "lambda_m_list": "10, 20", "gnn_hidden": "4", "gnn_layers": "2",
        "mlp_hidden": "4", "eval_every": "1", "threshold_fraction": "0.2",
        "mlp_optimizer": "gd", "mlp_lr": "1.0", "mlp_epochs": "3",
        "mlp_batch_size": "full", "gnn_optimizer": "adam", "gnn_lr": "1e-2",
        "gnn_epochs": "3", "gnn_batch_size": "10"}, out)
    return out, run_fig3(cfg)


def test_fig3_artifacts(fig3_run):
    out, _ = fig3_run
    for name in ("trace_gnn_m20.csv", "trace_gnn_m40.csv", "trace_mlp_m20.csv",
                 "trace_mlp_m40.csv", "fig3_summary.csv", "fig3_slowdown.csv",
                 "lambda_min.csv", "fig3_plot.py", "manifest.txt"):
        assert (out / name).exists(), name


def test_fig3_summary_has_t_star_per_cell(fig3_run):
    out, summaries = fig3_run
    assert len(summaries) == 4
    rows = load_csv(out / "fig3_summary.csv")
    assert {(r["model"], r["m"]) for r in rows} == \
        {("gnn", "20"), ("gnn", "40"), ("mlp", "20"), ("mlp", "40")}
    for r in rows:
        assert r["t_star"] != ""            # shared level is always crossed
        assert int(r["t_star"]) >= 0


def test_fig3_slowdown_table(fig3_run):
    out, _ = fig3_run
    rows = load_csv(out / "fig3_slowdown.csv")
    assert [r["model"] for r in rows] == ["gnn", "mlp"]
    for r in rows:
        assert (int(r["m_small"]), int(r["m_large"])) == (20, 40)


def test_fig3_lambda_min_shrinks_with_m(fig3_run):
    out, _ = fig3_run
    rows = load_csv(out / "lambda_min.csv")
    assert [int(r["m"]) for r in rows] == [10, 20]
    # nested prefixes: the larger Gram matrix contains the smaller as a
    # principal submatrix, so its smallest eigenvalue cannot be larger
    for col in ("lambda_min_mlp", "lambda_min_gnn"):
        vals = [float(r[col]) for r in rows]
        assert vals[1] <= vals[0] + 1e-12


# ---------------------------------------------------------------------------
# ntk-regime: thread-count invariance


def ntk_overrides():
    return {"d": "4", "m": "10", "widths": "8, 32", "label_degree": "2",
            "optimizer": "gd", "lr": "2e-3", "epochs": "50",
            "eval_every": "10", "loss_drop": "5.0"}


def test_ntk_regime_threads_do_not_change_results(tmp_path):
    files = ("ntk_regime.csv", "kernel_convergence.csv", "traj_w8.csv",
             "traj_w32.csv")
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        cfg = build("ntk-regime", ntk_overrides(), out, threads=threads)
        run_ntk_regime(cfg)
        outputs.append({f: (out / f).read_bytes() for f in files})
    assert outputs[0] == outputs[1]


def test_spawned_workers_run_one_blas_thread(monkeypatch):
    for var in _BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "3")
    seen = _run_cells(os.getenv, [{"key": var} for var in _BLAS_THREAD_VARS],
                      threads=2)
    assert seen == ["1"] * len(_BLAS_THREAD_VARS)
    # the parent's own environment is left as it was
    assert all(os.environ[var] == "3" for var in _BLAS_THREAD_VARS)
    monkeypatch.delenv("MKL_NUM_THREADS")
    _run_cells(os.getenv, [{"key": "PATH"}] * 2, threads=2)
    assert "MKL_NUM_THREADS" not in os.environ


# ---------------------------------------------------------------------------
# the malloc policy: freed buffers stay mapped between training steps


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


needs_mallopt = pytest.mark.skipif(not _has_mallopt(),
                                   reason="no glibc mallopt")

_PATHS = [os.path.dirname(os.path.dirname(os.path.abspath(ntklab.__file__))),
          os.path.dirname(os.path.abspath(__file__))]


def _wcgcn_step_faults():
    """Minor page faults of 10 train-mode WCGCN gradient steps (K = 20,
    m = 100, hidden 8) after two warm-up steps.  Under glibc's default
    policy every step maps and faults its temporaries afresh: about 94,600.
    Under the policy the second step may still extend the heap once (29 to
    145 pages, seen to depend on the process's earlier allocations); later
    steps fault 0 or 1."""
    import resource

    ds = generate_instances(20, 100, 0)
    net = init_net("wcgcn", None, 8, 0)
    for _ in range(2):
        gradients(net, ds, "negative-sum-rate", train=True)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        gradients(net, ds, "negative-sum-rate", train=True)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def _step_faults_in_fresh_process(setup):
    """_wcgcn_step_faults() in a new interpreter, after the ``setup`` code."""
    code = (f"import sys; sys.path[:0] = {_PATHS!r}\n{setup}\n"
            "from test_experiments import _wcgcn_step_faults\n"
            "print(_wcgcn_step_faults())")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, check=True)
    return int(done.stdout.split()[-1])


@needs_mallopt
def test_cli_entry_keeps_training_steps_fault_free():
    # cli_main sets the policy first thing, even on a usage error
    faults = _step_faults_in_fresh_process(
        "from ntklab.cli import cli_main\nassert cli_main([]) == 1")
    assert faults < 100


@needs_mallopt
def test_spawned_workers_keep_training_steps_fault_free():
    faults = _run_cells(_wcgcn_step_faults, [{}, {}], threads=2)
    assert all(f < 100 for f in faults), faults


@needs_mallopt
def test_policy_is_a_no_op_without_mallopt():
    # a C library without mallopt, and a platform without a process-wide
    # symbol table: the helper returns quietly, the allocator keeps its
    # default policy and the steps fault as before
    faults = _step_faults_in_fresh_process(
        "import ctypes, types\n"
        "from ntklab.experiments import _keep_heap_mapped\n"
        "ctypes.CDLL = lambda name: types.SimpleNamespace()\n"
        "_keep_heap_mapped()\n"
        "def no_table(name):\n"
        "    raise OSError(name)\n"
        "ctypes.CDLL = no_table\n"
        "_keep_heap_mapped()")
    assert faults > 10_000


def test_ntk_regime_kernel_error_shrinks_with_width(tmp_path):
    cfg = build("ntk-regime", ntk_overrides(), tmp_path)
    results = run_ntk_regime(cfg)
    errs = {r["width"]: r["fro_error"] for r in results}
    assert errs[32] < errs[8]


# ---------------------------------------------------------------------------
# bounds


@pytest.fixture(scope="module")
def bounds_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bounds")
    cfg = build("thm3", {
        "n_list": "2, 4", "p_list": "1, 2", "m": "30", "node_dim": "3",
        "delta": "0.05", "activations": "relu, quadratic",
        "time_points": "10", "t_min": "0.01", "t_max": "10",
        "residual_target": "0.1"}, out)
    return out, run_bounds(cfg)


def test_bounds_artifacts(bounds_run):
    out, _ = bounds_run
    for name in ("thm3.csv", "thm45.csv", "residuals.csv",
                 "residual_race.csv", "bounds_plot.py", "manifest.txt"):
        assert (out / name).exists(), name


def test_thm3_curves_ordered(bounds_run):
    out, _ = bounds_run
    rows = load_csv(out / "thm3.csv")
    assert len(rows) == 2 * 2 * 10          # p x n x time grid
    for r in rows:
        assert float(r["gnn_bound"]) <= float(r["mlp_bound"]) * (1 + 1e-12)
    # the flat-net prefactor tracks the graph size: early-time bounds grow
    # with n (more nodes -> n per-node spectrum entries, smaller lambda_min)
    early = {(r["p"], r["n"]): float(r["mlp_bound"])
             for r in rows if float(r["t"]) == 0.01}
    for p in ("1", "2"):
        assert early[(p, "4")] > early[(p, "2")]


def test_thm3_missing_constant_is_declared(bounds_run):
    out, _ = bounds_run
    text = (out / "thm3.csv").read_text()
    assert "declared override" in text          # p = 1 has no published c
    assert "c(2,quadratic) = 1" in text


def test_thm45_table_structure(bounds_run):
    out, rows = bounds_run
    assert len(rows) == 4
    table = load_csv(out / "thm45.csv")
    for r in table:
        assert r["note"] in ("ok", "range-violation")
        if r["note"] == "ok":
            assert float(r["gnn_bound"]) > 0
            assert float(r["mlp_bound"]) > 0
            assert float(r["ratio"]) > 0


def test_residual_race_grid(bounds_run):
    out, _ = bounds_run
    rows = load_csv(out / "residual_race.csv")
    assert len(rows) == 4
    resid = load_csv(out / "residuals.csv")
    assert len(resid) == 2 * 2 * 2 * 10     # p x n x kernel x time grid
    for r in resid:
        assert float(r["residual_over_ynorm"]) >= 0


def test_thm_aliases_share_the_bounds_runner(tmp_path):
    cfg = ExperimentConfig.build(
        "thm4-thm5",
        {"bounds": {"n_list": "2", "p_list": "2", "m": "25", "node_dim": "3",
                    "time_points": "6", "t_min": "0.1", "t_max": "1",
                    "delta": "0.1", "activations": "relu",
                    "residual_target": "0.2"}},
        out=str(tmp_path))
    run_experiment(cfg)
    assert (tmp_path / "thm45.csv").exists()
