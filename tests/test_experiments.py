"""Experiment pipelines: artifacts, determinism, manifests, thread safety.

Runs use tiny sample counts and epoch budgets; the acceptance suite covers
the scientifically meaningful scales.
"""

import csv
import ctypes
import hashlib
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import PATHS, csv_bytes, same_csvs_at_one_and_two_blas_threads
from ntklab import pool
from ntklab.artifacts import RunFiles, atomic_write, csv_text
from ntklab.config import EXPERIMENT_IDS, ExperimentConfig, default_config
from ntklab.netsim import generate_instances
from ntklab.nets import _Tiles, gradients, init_net, n_params
from ntklab.experiments import _mlp_hidden, run_experiment, write_manifest


def build(experiment, overrides, out, **kw):
    return ExperimentConfig.build(
        experiment, {experiment: overrides}, out=str(out), **kw)


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


def test_matched_mlp_hidden_is_nearest(tmp_path):
    auto = build("fig1", {"mlp_hidden": "auto"}, tmp_path)
    for k, gnn_hidden in ((5, 4), (5, 32), (20, 32)):
        target = n_params(init_net("wcgcn", None, gnn_hidden, 0))
        count = {h: n_params(init_net("power-mlp", (k * k + k, k), h, 0))
                 for h in range(1, 80)}
        h = _mlp_hidden(auto, k, gnn_hidden, 2)
        best = min(count, key=lambda hh: abs(count[hh] - target))
        assert abs(count[h] - target) == abs(count[best] - target)
    fixed = build("fig1", {"mlp_hidden": "9"}, tmp_path)
    assert _mlp_hidden(fixed, 5, 32, 2) == 9


def test_manifest_covers_and_hashes_every_file(tmp_path):
    out = tmp_path / "run"
    files = RunFiles(str(out))
    files.write("a.csv", "x,y\n1,2\n")
    files.write(os.path.join("sub", "b.txt"), b"hello\n")
    atomic_write(str(out / "stale.csv"), "not written by this run\n")
    write_manifest(files, ["probe = 1"])
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


FIG1_TINY = {
    "k_list": "3", "m_train": "40", "m_test": "16", "gnn_hidden": "4",
    "gnn_layers": "2", "optimizer": "adam", "lr": "1e-2", "epochs": "2",
    "batch_size": "20", "eval_every": "1", "mlp_hidden": "auto"}


@pytest.fixture(scope="module")
def fig1_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1")
    summaries = run_experiment(build("fig1", FIG1_TINY, out))
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


# ---------------------------------------------------------------------------
# fig3


FIG3_TINY = {
    "k": "3", "m_list": "20, 40", "m_test": "10",
    "lambda_m_list": "10, 20", "gnn_hidden": "4", "gnn_layers": "2",
    "mlp_hidden": "4", "eval_every": "1", "threshold_fraction": "0.2",
    "mlp_optimizer": "gd", "mlp_lr": "1.0", "mlp_epochs": "3",
    "mlp_batch_size": "full", "gnn_optimizer": "adam", "gnn_lr": "1e-2",
    "gnn_epochs": "3", "gnn_batch_size": "10"}


@pytest.fixture(scope="module")
def fig3_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig3")
    return out, run_experiment(build("fig3", FIG3_TINY, out))


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
# determinism: neither the pool width nor the environment's BLAS thread
# count moves a bit


def ntk_overrides():
    return {"d": "4", "m": "10", "widths": "8, 32", "label_degree": "2",
            "lr": "2e-3", "epochs": "50",
            "eval_every": "10", "loss_drop": "5.0"}


BOUNDS_TINY = {
    "n_list": "2, 4", "p_list": "1, 2", "m": "30", "node_dim": "3",
    "delta": "0.05", "activations": "relu, quadratic",
    "time_points": "10", "t_min": "0.01", "t_max": "10",
    "residual_target": "0.1"}

_DETERMINISM = {
    # 60 samples at K = 20 and hidden 32: the node block's weight-gradient
    # gemm reduces over 1,200 rows, which OpenBLAS rounds differently at one
    # and at two BLAS threads
    "fig1": dict(FIG1_TINY, k_list="20", m_train="60", m_test="8",
                 gnn_hidden="32", batch_size="full"),
    # the flat kernel's X @ X.T over 100 samples of 420 entries, which
    # OpenBLAS rounds differently at one and at two BLAS threads
    "fig2": {"n_list": "1, 20", "samples": "100"},
    # tiny trainings, and eigensolves of 100 x 100 and 400 x 400 kernels,
    # which OpenBLAS rounds differently at one and at two BLAS threads; the
    # four solves run side by side on the pool
    "fig3": dict(FIG3_TINY, k="20", lambda_m_list="100, 400"),
    # three width cells, listed out of width order
    "ntk-regime": dict(ntk_overrides(), widths="32, 8, 16"),
    "bounds": BOUNDS_TINY,
}


def _same_csvs_at_one_and_two_blas_threads(experiment, tmp_path):
    """Run the ``_DETERMINISM`` case of ``experiment`` in new interpreters
    whose OpenBLAS starts at one and at two threads, check that they wrote
    the same CSV bytes, and return the directory of the first."""
    overrides = _DETERMINISM[experiment]
    return same_csvs_at_one_and_two_blas_threads(lambda out: (
        "from ntklab.experiments import run_experiment\n"
        "from test_experiments import build\n"
        f"run_experiment(build({experiment!r}, {overrides!r}, {out!r}))"),
        tmp_path)


@pytest.mark.parametrize("experiment", sorted(_DETERMINISM))
def test_pool_width_does_not_change_results(tmp_path, monkeypatch,
                                            experiment):
    outputs = []
    for width in (1, 2, 3):
        monkeypatch.setattr(pool, "_block_threads", lambda: width)
        out = tmp_path / f"p{width}"
        run_experiment(build(experiment, _DETERMINISM[experiment], out))
        outputs.append(csv_bytes(out))
    assert outputs[0]
    assert all(o == outputs[0] for o in outputs[1:])


def test_ntk_regime_threads_do_not_change_results(tmp_path):
    # the rows follow ``widths``, not the widest-first order the cells run in
    out = _same_csvs_at_one_and_two_blas_threads("ntk-regime", tmp_path)
    for name in ("ntk_regime.csv", "kernel_convergence.csv"):
        assert [r["width"] for r in load_csv(out / name)] == ["32", "8", "16"]


def test_fig1_threads_do_not_change_results(tmp_path):
    _same_csvs_at_one_and_two_blas_threads("fig1", tmp_path)


def test_fig2_does_not_depend_on_blas_threads(tmp_path):
    _same_csvs_at_one_and_two_blas_threads("fig2", tmp_path)


def test_fig3_lambda_min_does_not_depend_on_blas_threads(tmp_path):
    # the rows follow lambda_m_list, not the largest-first order the
    # eigensolves run in
    out = _same_csvs_at_one_and_two_blas_threads("fig3", tmp_path)
    assert [r["m"] for r in load_csv(out / "lambda_min.csv")] == ["100", "400"]


def test_bounds_do_not_depend_on_blas_threads(tmp_path):
    _same_csvs_at_one_and_two_blas_threads("bounds", tmp_path)


# ---------------------------------------------------------------------------
# the malloc policy: freed buffers stay mapped between training steps


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


needs_mallopt = pytest.mark.skipif(not _has_mallopt(),
                                   reason="no glibc mallopt")

def _wcgcn_step_faults():
    """Minor page faults of 10 train-mode WCGCN gradient steps (K = 20,
    m = 100, hidden 8) after two warm-up steps.  Under glibc's default
    policy every step maps and faults its temporaries afresh: about 94,600.
    Under the policy the second step may still extend the heap once (29 to
    145 pages, seen to depend on the process's earlier allocations); later
    steps fault 0 or 1.  The edge rows make two tiles of whole samples (64
    and 36), so on a host with two cores the steps run on the pool of
    ``ntklab.pool``, whose threads allocate from the same heap."""
    import resource

    ds = generate_instances(20, 100, 0)
    net = init_net("wcgcn", None, 8, 0)
    for _ in range(2):
        gradients(net, ds, train=True)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        gradients(net, ds, train=True)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def _step_faults_in_fresh_process(setup):
    """_wcgcn_step_faults() in a new interpreter, after the ``setup`` code."""
    code = (f"import sys; sys.path[:0] = {PATHS!r}\n{setup}\n"
            "from test_experiments import _wcgcn_step_faults\n"
            "print(_wcgcn_step_faults())")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, check=True)
    return int(done.stdout.split()[-1])


@needs_mallopt
def test_cli_entry_keeps_training_steps_fault_free():
    # cli_main sets the policy first thing, even on a usage error
    assert len(_Tiles.of_samples(100, 20 * 19, 8).spans) == 2
    faults = _step_faults_in_fresh_process(
        "from ntklab.cli import cli_main\nassert cli_main([]) == 1")
    assert faults < 100


_THREAD_REUSE = """
import resource, threading
import numpy as np
held = [np.ones(1 << 20) for _ in range(8)]     # 64 MB in 8 MB blocks
del held
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
def work():
    work.kept = [np.ones(1 << 20) for _ in range(6)]
worker = threading.Thread(target=work)
worker.start()
worker.join(60)
assert not worker.is_alive() and len(work.kept) == 6
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@needs_mallopt
def test_worker_threads_reuse_the_heap_the_main_thread_freed():
    # one malloc arena: a thread's 48 MB land in the 64 MB the main thread
    # freed; with an arena of its own the thread faults in all 48 MB anew
    code = (f"import sys; sys.path[:0] = {PATHS!r}\n"
            "from ntklab.pool import _keep_heap_mapped\n"
            f"_keep_heap_mapped()\n{_THREAD_REUSE}")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    assert int(done.stdout.split()[-1]) < 8 * 1024     # ru_maxrss is in KiB


@needs_mallopt
def test_policy_is_a_no_op_without_mallopt():
    # a C library without mallopt, and a platform without a process-wide
    # symbol table: the helper returns quietly, the allocator keeps its
    # default policy and the steps fault as before
    faults = _step_faults_in_fresh_process(
        "import ctypes, types\n"
        "from ntklab.pool import _keep_heap_mapped\n"
        "ctypes.CDLL = lambda name: types.SimpleNamespace()\n"
        "_keep_heap_mapped()\n"
        "def no_table(name):\n"
        "    raise OSError(name)\n"
        "ctypes.CDLL = no_table\n"
        "_keep_heap_mapped()")
    assert faults > 10_000


def test_ntk_regime_kernel_error_shrinks_with_width(tmp_path):
    cfg = build("ntk-regime", ntk_overrides(), tmp_path)
    results = run_experiment(cfg)
    errs = {r["width"]: r["fro_error"] for r in results}
    assert errs[32] < errs[8]


# ---------------------------------------------------------------------------
# bounds


@pytest.fixture(scope="module")
def bounds_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bounds")
    return out, run_experiment(build("bounds", BOUNDS_TINY, out))


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


def test_bounds_eigendecompose_each_kernel_once(tmp_path, monkeypatch):
    # the bound and the dynamics of a kernel read one spectral report
    eigh, kernels = np.linalg.eigh, []

    def counted(A, *args, **kwargs):
        kernels.append(hashlib.sha256(np.asarray(A).tobytes()).hexdigest())
        return eigh(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    run_experiment(build("bounds", BOUNDS_TINY, tmp_path))
    assert len(kernels) == len(set(kernels)) == 2 * 2 * 2   # p x n x kernel


def test_residual_race_grid(bounds_run):
    out, _ = bounds_run
    rows = load_csv(out / "residual_race.csv")
    assert len(rows) == 4
    resid = load_csv(out / "residuals.csv")
    assert len(resid) == 2 * 2 * 2 * 10     # p x n x kernel x time grid
    for r in resid:
        assert float(r["residual_over_ynorm"]) >= 0


# ---------------------------------------------------------------------------
# every experiment at a tiny scale: declared keys, plot scripts


def tiny_overrides(experiment):
    return {"fig1": FIG1_TINY, "fig2": {"n_list": "1, 2", "samples": "12"},
            "fig3": FIG3_TINY, "ntk-regime": ntk_overrides(),
            "bounds": BOUNDS_TINY}[experiment]


@pytest.fixture(scope="module")
def recorded_runs(tmp_path_factory):
    """{experiment: (run directory, {keys of its section the run read})}."""
    raw = ExperimentConfig._raw
    runs = {}
    for experiment in EXPERIMENT_IDS:
        read = set()

        def recording(self, key):
            read.add(key)
            return raw(self, key)

        out = tmp_path_factory.mktemp(experiment)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ExperimentConfig, "_raw", recording)
            run_experiment(build(experiment, tiny_overrides(experiment), out))
        runs[experiment] = out, read
    return runs


@pytest.mark.parametrize("experiment", EXPERIMENT_IDS)
def test_every_declared_key_is_read(recorded_runs, experiment):
    _, read = recorded_runs[experiment]
    unread = set(default_config()[experiment]) - read
    assert not unread, f"[{experiment}] declares keys nothing reads: {sorted(unread)}"


@pytest.mark.parametrize("experiment", EXPERIMENT_IDS)
def test_manifest_covers_everything(recorded_runs, experiment):
    out, _ = recorded_runs[experiment]
    lines = (out / "manifest.txt").read_text().splitlines()
    entries = {l.split("\t")[0] for l in lines if not l.startswith("#")}
    on_disk = {f for f in os.listdir(out) if f != "manifest.txt"}
    assert entries == on_disk


_PYPLOT_STUB = """\
\"\"\"Records every call; savefig writes the record to the figure's path.\"\"\"
calls = []


class Recorder:
    def __init__(self, name):
        self.name = name

    def __getattr__(self, attr):
        def call(*args, **kwargs):
            calls.append(f"{self.name}.{attr}{args}{kwargs}")
            if attr == "savefig":
                with open(args[0], "w") as fh:
                    fh.write("\\n".join(calls) + "\\n")
        return call


def subplots(nrows, ncols, **kwargs):
    calls.append(f"subplots({nrows}, {ncols})")
    return Recorder("fig"), [[Recorder(f"ax{i}") for i in range(ncols)]]
"""


@pytest.mark.parametrize("experiment, script, png", [
    ("fig1", "fig1_plot.py", "fig1.png"), ("fig2", "fig2_plot.py", "fig2.png"),
    ("fig3", "fig3_plot.py", "fig3.png"),
    ("ntk-regime", "ntk_plot.py", "ntk_regime.png"),
    ("bounds", "bounds_plot.py", "bounds.png")])
def test_plot_script_draws_only_its_own_run(recorded_runs, tmp_path,
                                            experiment, script, png):
    run = tmp_path / "run"
    shutil.copytree(recorded_runs[experiment][0], run)
    stale = ("trace_gnn_m999.csv", "traj_w999.csv")
    for name in stale:
        (run / name).write_text("epoch,train_loss,predicted_loss\n0,1,1\n")
    stub = tmp_path / "stub" / "matplotlib"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("")
    (stub / "pyplot.py").write_text(_PYPLOT_STUB)
    code = ("import runpy, sys\n"
            "sys.addaudithook(lambda event, args: event == 'open' and "
            "print('opened', args[0], file=sys.stderr))\n"
            f"runpy.run_path({str(run / script)!r}, run_name='__main__')")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(stub.parent)))
    assert done.returncode == 0, done.stderr
    assert ".plot(" in (run / png).read_text()
    opened = {os.path.basename(line.split(" ", 1)[1])
              for line in done.stderr.splitlines() if line.startswith("opened ")}
    csvs = {name for name in opened if name.endswith(".csv")}
    manifest = (run / "manifest.txt").read_text()
    assert csvs and all(f"{name}\t" in manifest for name in csvs), csvs
    assert not csvs & set(stale)
