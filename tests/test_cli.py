"""Command-line interface: exit codes, artifacts, config plumbing."""

import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import ntklab
from conftest import same_csvs_at_one_and_two_blas_threads
from ntklab.cli import cli_main
from ntklab.config import default_config
from ntklab.kernels import analytic_ntk_mlp, load_kernel_csv
from ntklab.netsim import gaussian_node_dataset


def read_lines(path):
    return path.read_text().strip().splitlines()


def _echo(manifest):
    """The config echo of a manifest: its comment lines after the version
    and wall time."""
    return [line[2:] for line in read_lines(manifest) if line.startswith("# ")
            and not line.startswith(("# version", "# wall_seconds"))]


def test_no_command_is_usage_error(capsys):
    assert cli_main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_command_is_usage_error(capsys):
    assert cli_main(["frobnicate"]) == 1


def test_bad_flag_value(capsys):
    assert cli_main(["gen", "--m", "many"]) == 1


@pytest.mark.parametrize("argv", [
    ["gen", "--config", "x.cfg"], ["gen", "--threads", "2"],
    ["ntk", "--config", "x.cfg"], ["ntk", "--threads", "2"],
    ["spectral", "--kernel", "k.csv", "--seed", "1"],
    ["spectral", "--kernel", "k.csv", "--threads", "2"],
    ["train", "--config", "x.cfg", "--threads", "2"]])
def test_flags_a_command_does_not_read_are_usage_errors(tmp_path, capsys,
                                                         argv):
    assert cli_main(argv + ["--out", str(tmp_path / "run")]) == 1
    assert "usage" in capsys.readouterr().err.lower()
    assert not (tmp_path / "run").exists()


# ---------------------------------------------------------------------------
# gen


def test_gen_channel(tmp_path):
    out = tmp_path / "run"
    assert cli_main(["gen", "--kind", "channel", "--k", "3", "--m", "7",
                     "--out", str(out)]) == 0
    rows = read_lines(out / "flat_features.csv")
    assert len(rows) == 8                       # header + 7 samples
    assert len(rows[0].split(",")) == 3 * 3 + 3
    assert "kind = channel" in (out / "meta.txt").read_text()
    assert (out / "manifest.txt").exists()


def test_gen_gaussian(tmp_path):
    out = tmp_path / "run"
    assert cli_main(["gen", "--kind", "gaussian", "--n", "2", "--d", "3",
                     "--m", "5", "--out", str(out)]) == 0
    rows = read_lines(out / "flat_features.csv")
    assert len(rows[0].split(",")) == 2 * 3


# ---------------------------------------------------------------------------
# ntk


def test_ntk_writes_matching_formats(tmp_path):
    # kernel.csv is the one kernel file, and it holds the kernel bit for bit
    out = tmp_path / "run"
    assert cli_main(["ntk", "--arch", "mlp", "--kind", "gaussian", "--n", "1",
                     "--d", "4", "--m", "10", "--out", str(out)]) == 0
    a = load_kernel_csv(out / "kernel.csv")
    b = analytic_ntk_mlp(gaussian_node_dataset(1, 10, 4, 0).flat_features)
    assert a.shape == (10, 10)
    np.testing.assert_array_equal(a, b)
    assert sorted(p.name for p in out.iterdir()) == ["kernel.csv",
                                                      "manifest.txt"]


def test_ntk_manifest_describes_its_dataset(tmp_path):
    out = tmp_path / "run"
    assert cli_main(["ntk", "--kind", "gaussian", "--n", "3", "--d", "2",
                     "--m", "4", "--mc-units", "40", "--mc-width", "20",
                     "--out", str(out)]) == 0
    echo = [l[2:] for l in read_lines(out / "manifest.txt")
            if l.startswith("# ")]
    for line in ("command = ntk", "kind = gaussian", "n = 3", "d = 2",
                 "m = 4", "seed = 0", "arch = mlp", "activation = relu",
                 "mc_draws = 2", "mc_width = 20"):
        assert line in echo, line


def test_ntk_gnn_on_channel_data(tmp_path):
    out = tmp_path / "run"
    assert cli_main(["ntk", "--arch", "gnn", "--kind", "channel", "--k", "3",
                     "--m", "8", "--out", str(out)]) == 0
    assert load_kernel_csv(out / "kernel.csv").shape == (8, 8)


def test_ntk_monte_carlo_artifacts(tmp_path):
    out = tmp_path / "run"
    assert cli_main(["ntk", "--arch", "mlp", "--kind", "gaussian", "--n", "1",
                     "--d", "3", "--m", "8", "--mc-units", "20000",
                     "--mc-width", "100", "--out", str(out)]) == 0
    est = load_kernel_csv(out / "mc_kernel.csv")
    assert est.shape == (8, 8)
    header, row = read_lines(out / "mc_error.csv")
    assert header == "draws,width_per_draw,relative_frobenius_error"
    draws, width, err = row.split(",")
    assert (int(draws), int(width)) == (200, 100)
    assert 0 < float(err) < 0.5


@pytest.mark.parametrize("flags", [["--mc-units", "100", "--mc-width", "0"],
                                   ["--mc-units", "-7"]])
def test_ntk_rejects_bad_monte_carlo_flags(tmp_path, capsys, flags):
    # a zero width once divided by zero after kernel.csv was written, and a
    # negative unit count silently ran a one-draw estimate
    out = tmp_path / "run"
    assert cli_main(["ntk", "--m", "6", *flags, "--out", str(out)]) == 1
    assert "--mc-units >= 0 and --mc-width >= 1" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# spectral


def test_spectral_pipeline(tmp_path):
    kdir = tmp_path / "kernel"
    assert cli_main(["ntk", "--kind", "gaussian", "--n", "1", "--d", "4",
                     "--m", "6", "--out", str(kdir)]) == 0
    out = tmp_path / "spec"
    assert cli_main(["spectral", "--kernel", str(kdir / "kernel.csv"),
                     "--out", str(out)]) == 0
    assert len(read_lines(out / "eigenvalues.csv")) == 7
    header, row = read_lines(out / "spectral_summary.csv")
    assert header.startswith("condition_number,trace")

    labels = tmp_path / "y.txt"
    labels.write_text("".join(f"{v}\n" for v in range(6)))
    out2 = tmp_path / "spec2"
    assert cli_main(["spectral", "--kernel", str(kdir / "kernel.csv"),
                     "--labels", str(labels), "--out", str(out2)]) == 0
    assert (out2 / "alignment.csv").exists()


def test_spectral_rejects_non_finite_labels(tmp_path, capsys):
    # a nan label once wrote an all-nan alignment.csv and exited 0
    kdir = tmp_path / "kernel"
    assert cli_main(["ntk", "--m", "3", "--out", str(kdir)]) == 0
    labels = tmp_path / "y.txt"
    labels.write_text("1.0\nnan\n2.0\n")
    out = tmp_path / "spec"
    assert cli_main(["spectral", "--kernel", str(kdir / "kernel.csv"),
                     "--labels", str(labels), "--out", str(out)]) == 1
    assert "labels must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_spectral_missing_kernel(tmp_path, capsys):
    assert cli_main(["spectral", "--kernel", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)]) == 1


# ---------------------------------------------------------------------------
# train


def test_train_requires_config(capsys):
    assert cli_main(["train"]) == 1
    assert "--config" in capsys.readouterr().err


def test_train_requires_train_section(tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("[fig1]\nk_list = 5\n")
    assert cli_main(["train", "--config", str(cfg)]) == 1


def test_train_channel_job(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(
        "[train]\n"
        "arch = wcgcn\nk = 3\nm_train = 16\nm_test = 8\n"
        "hidden = 4\nepochs = 2\nlr = 1e-2\nbatch_size = 8\n")
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "trace.csv").exists()
    assert (out / "checkpoint.txt").exists()
    summary = dict(line.split(",") for line in
                   read_lines(out / "train_summary.csv")[1:])
    assert 0 < float(summary["ratio_to_wmmse"]) < 1.2


def test_train_supervised_job(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(
        "[train]\n"
        "arch = two-layer\nn = 1\nd = 4\nwidth = 64\n"
        "m_train = 20\nm_test = 10\nepochs = 3\nlr = 1e-3\noptimizer = gd\n")
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "train_summary.csv").exists()


def test_train_two_layer_oracle_uses_the_kernel_of_the_net_inputs(tmp_path):
    # with n = 3 nodes the two-layer net reads the flattened 12-vector, so
    # its oracle is the flat ReLU kernel regression (19.72), not the
    # sum-readout GNN kernel over the node sets (7.995)
    cfg = tmp_path / "t.cfg"
    cfg.write_text(
        "[train]\n"
        "arch = two-layer\nn = 3\nd = 4\nwidth = 64\n"
        "m_train = 30\nm_test = 10\nepochs = 3\n")
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    metrics = {key: float(v) for key, v in
               (line.split(",") for line in
                read_lines(out / "train_summary.csv")[1:])}
    assert metrics["oracle_loss"] == pytest.approx(19.71987, rel=1e-6)
    assert metrics["e_gen"] == pytest.approx(
        metrics["mean_loss"] - metrics["oracle_loss"], rel=1e-12)


@pytest.mark.parametrize("line, key", [("m_trian = 10", "m_trian"),
                                       ("epochs = 2.9", "epochs"),
                                       ("seed = 3", "seed")])
def test_train_rejects_config_typos(tmp_path, capsys, line, key):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("[train]\narch = two-layer\n"
                   f"width = 16\nm_train = 12\nm_test = 6\n{line}\n")
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_train_divergence_exit_code(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(
        "[train]\n"
        "arch = two-layer\nn = 1\nd = 4\nwidth = 16\n"
        "m_train = 12\nm_test = 6\nepochs = 10\nlr = 1e9\noptimizer = gd\n")
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    # the partial trace still lands on disk for post-mortems, with the job
    # echoed in its manifest
    assert (out / "trace.csv").exists()
    echo = _echo(out / "manifest.txt")
    assert echo[:3] == ["command = train (diverged)", "seed = 0", f"out = {out}"]
    assert "train.lr = 1e9" in echo and "train.epochs = 10" in echo


def test_train_reads_common_seed_and_out(tmp_path):
    # seed and out come from [common] like every exp's, and --seed / --out
    # override them; [train] has no keys of its own for them
    job = ("[train]\narch = two-layer\nn = 1\nd = 3\nwidth = 16\n"
           "m_train = 12\nm_test = 6\nepochs = 2\n")
    common = tmp_path / "common.cfg"
    common.write_text(f"[common]\nseed = 3\nout = {tmp_path / 'o3'}\n" + job)
    flags = tmp_path / "flags.cfg"
    flags.write_text(job)
    assert cli_main(["train", "--config", str(common)]) == 0
    assert cli_main(["train", "--config", str(flags), "--seed", "3",
                     "--out", str(tmp_path / "flags")]) == 0
    assert "# seed = 3" in (tmp_path / "o3" / "manifest.txt").read_text()
    for name in ("trace.csv", "checkpoint.txt", "train_summary.csv"):
        assert (tmp_path / "o3" / name).read_bytes() == \
            (tmp_path / "flags" / name).read_bytes(), name


def test_train_and_exp_fig1_share_their_bits(tmp_path):
    # `ntklab train` and `exp fig1` build their sum-rate runs through the
    # same data, net and training calls, so equal settings give equal bytes
    shared = "m_train = 40\nm_test = 20\nepochs = 3\nbatch_size = 20\neval_every = 1\n"
    fig1_cfg = tmp_path / "fig1.cfg"
    fig1_cfg.write_text("[fig1]\nk_list = 4\ngnn_hidden = 6\nmlp_hidden = 7\n"
                        + shared)
    fig1 = tmp_path / "fig1"
    assert cli_main(["exp", "fig1", "--config", str(fig1_cfg),
                     "--out", str(fig1)]) == 0
    with open(fig1 / "fig1_summary.csv") as fh:
        summary = {row["model"]: row for row in csv.DictReader(fh)}
    for arch, model, hidden in (("wcgcn", "gnn", 6), ("power-mlp", "mlp", 7)):
        cfg = tmp_path / f"{arch}.cfg"
        cfg.write_text(f"[train]\narch = {arch}\nk = 4\nhidden = {hidden}\n"
                       + shared)
        out = tmp_path / arch
        assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "trace.csv").read_bytes() == \
            (fig1 / f"trace_{model}_K4.csv").read_bytes()
        metrics = dict(line.split(",") for line in
                       read_lines(out / "train_summary.csv")[1:])
        for key in ("mean_sum_rate", "ratio_to_wmmse", "e_gen"):
            assert float(metrics[key]) == float(summary[model][key]), key


def test_train_rejects_the_loss_key(tmp_path, capsys):
    # the arch fixes the task, so [train] has no loss to choose
    cfg = tmp_path / "t.cfg"
    cfg.write_text("[train]\narch = wcgcn\nloss = negative-sum-rate\n")
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert "unknown config key(s) in [train]: loss" in capsys.readouterr().err
    assert not out.exists()


# the [train] keys each arch reads beyond the shared ones
ARCH_KEYS = {"two-layer": ("n", "d", "label_degree", "width"),
             "wcgcn": ("k", "hidden", "layers"),
             "power-mlp": ("k", "hidden")}


@pytest.mark.parametrize("arch", ["wcgcn", "power-mlp", "two-layer"])
def test_train_runs_every_arch(tmp_path, arch):
    keys = ("n = 2\nd = 3\nwidth = 16\n" if arch == "two-layer"
            else "k = 3\nhidden = 4\n")
    unread = set().union(*ARCH_KEYS.values()) - set(ARCH_KEYS[arch])
    cfg = tmp_path / "t.cfg"
    cfg.write_text(f"[train]\narch = {arch}\n{keys}"
                   "m_train = 12\nm_test = 6\nepochs = 2\n")
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("trace.csv", "checkpoint.txt", "train_summary.csv"):
        assert (out / name).exists()
    echo = _echo(out / "manifest.txt")
    assert f"train.arch = {arch}" in echo
    # the manifest echoes the keys the arch read, not the other arch's
    echoed = {line.split(" = ")[0] for line in echo}
    assert not echoed & {f"train.{key}" for key in unread}


@pytest.mark.parametrize("arch, line, key", [
    ("wcgcn", "width = 5", "width"),
    ("wcgcn", "label_degree = 7", "label_degree"),
    ("power-mlp", "n = 2", "n"),
    ("power-mlp", "d = 3", "d"),
    ("power-mlp", "layers = 3", "layers"),
    ("two-layer", "k = 3", "k"),
    ("two-layer", "hidden = 4", "hidden"),
    ("two-layer", "layers = 3", "layers")])
def test_train_rejects_keys_its_arch_does_not_read(tmp_path, capsys, arch,
                                                   line, key):
    # a key of the other arch family would be accepted, ignored and echoed
    # as if the run had used it
    cfg = tmp_path / "t.cfg"
    cfg.write_text(f"[train]\narch = {arch}\n{line}\n"
                   "m_train = 12\nm_test = 6\nepochs = 2\n")
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"arch = {arch} does not read: {key}" in capsys.readouterr().err
    assert not out.exists()


def test_train_manifest_echoes_its_job(tmp_path):
    # the seed, out and every [train] key the job read, user keys over the
    # defaults.cfg ones, in the section.key form of exp manifests; a
    # two-layer job reads no k, hidden or layers
    user = {"arch": "two-layer", "n": "2", "d": "3", "width": "16",
            "m_train": "12", "m_test": "6", "epochs": "2"}
    cfg = tmp_path / "t.cfg"
    cfg.write_text("[train]\n" + "".join(f"{k} = {v}\n" for k, v in user.items()))
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg), "--seed", "5",
                     "--out", str(out)]) == 0
    job = {**default_config()["train"], **user}
    for key in ("k", "hidden", "layers"):
        del job[key]
    assert _echo(out / "manifest.txt") == (
        ["command = train", "seed = 5", f"out = {out}"]
        + [f"train.{key} = {value}" for key, value in sorted(job.items())])


@pytest.mark.parametrize("section, key, value", [("common", "scale", "0.5"),
                                                ("common", "threads", "4"),
                                                ("fig1", "lr", "5")])
def test_train_rejects_config_it_does_not_read(tmp_path, capsys, section,
                                               key, value):
    # the training job reads [train] and [common] seed and out; a key that
    # only exp reads would be accepted and ignored
    cfg = tmp_path / "t.cfg"
    cfg.write_text(f"[{section}]\n{key} = {value}\n"
                   "[train]\narch = two-layer\nd = 3\nwidth = 16\n"
                   "m_train = 12\nm_test = 6\nepochs = 2\n")
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"unknown config key(s) in [{section}]: {key}" in \
        capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# exp


def test_exp_rejects_unknown_id(capsys):
    assert cli_main(["exp", "fig9"]) == 1


def test_exp_fig2_pipeline(tmp_path):
    cfg = tmp_path / "e.cfg"
    cfg.write_text("[fig2]\nn_list = 1, 2\nsamples = 15\n")
    out = tmp_path / "run"
    assert cli_main(["exp", "fig2", "--config", str(cfg),
                     "--out", str(out)]) == 0
    rows = [l for l in read_lines(out / "landscape.csv")
            if not l.startswith("#")]
    assert len(rows) == 3                       # header + one row per n
    assert (out / "fig2_summary.csv").exists()
    assert (out / "fig2_plot.py").exists()


def test_exp_threads_from_config(tmp_path, capsys):
    # the pipelines have no worker count, so [common] threads is a typo
    cfg = tmp_path / "e.cfg"
    cfg.write_text("[common]\nthreads = 2\n[fig2]\nn_list = 1\nsamples = 12\n")
    out = tmp_path / "run"
    assert cli_main(["exp", "fig2", "--config", str(cfg),
                     "--out", str(out)]) == 1
    assert "unknown config key(s) in [common]: threads" in \
        capsys.readouterr().err
    assert not out.exists()


def test_exp_manifest_echoes_the_values_the_run_used(tmp_path):
    # flags override the config file's [common] keys, and the echo of
    # [common] shows what the run used, not the merged file values
    cfg = tmp_path / "e.cfg"
    cfg.write_text(f"[common]\nseed = 7\nout = {tmp_path / 'no'}\n"
                   "[fig2]\nn_list = 1, 2\n")
    out = tmp_path / "run"
    assert cli_main(["exp", "fig2", "--config", str(cfg), "--scale", "0.05",
                     "--seed", "3", "--threads", "1", "--out", str(out)]) == 0
    echo = _echo(out / "manifest.txt")
    assert echo[:3] == ["experiment = fig2", "seed = 3", "scale = 0.05"]
    assert [line for line in echo if line.startswith("common.")] == [
        f"common.out = {out}", "common.scale = 0.05", "common.seed = 3"]
    assert not (tmp_path / "no").exists()


def test_cli_import_leaves_multiprocessing_unloaded():
    # every command runs in one process, so setting up the CLI does not
    # pay for importing multiprocessing
    src = os.path.dirname(os.path.dirname(os.path.abspath(ntklab.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "import ntklab.cli\n"
            "print('multiprocessing' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.split() == ["False"]


def test_exp_scale_validation(tmp_path, capsys):
    assert cli_main(["exp", "fig2", "--scale", "7", "--out",
                     str(tmp_path)]) == 1


# ---------------------------------------------------------------------------
# determinism: no command's output depends on the BLAS thread count its
# process starts with (the exp pipelines are checked in test_experiments)


def _blas_case(command, tmp_path):
    """The argv of a command whose CSVs OpenBLAS rounds differently when its
    BLAS calls run at one and at two threads."""
    if command == "train":
        # a width-1024 two-layer job, for its oracle loss
        cfg = tmp_path / "job.cfg"
        cfg.write_text("[train]\narch = two-layer\nm_train = 300\n"
                       "m_test = 50\nepochs = 10\n")
        return ["train", "--config", str(cfg)]
    if command == "ntk":
        return ["ntk", "--arch", "gnn", "--mc-units", "20000"]
    # the eigendecomposition of a 300 x 300 kernel, made here
    kdir = tmp_path / "kernel"
    assert cli_main(["ntk", "--m", "300", "--d", "8", "--out", str(kdir)]) == 0
    return ["spectral", "--kernel", str(kdir / "kernel.csv")]


@pytest.mark.parametrize("command", ["train", "ntk", "spectral"])
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, command):
    argv = _blas_case(command, tmp_path)
    same_csvs_at_one_and_two_blas_threads(lambda out: (
        "from ntklab.cli import cli_main\n"
        f"assert cli_main({argv + ['--out', out]!r}) == 0"), tmp_path)
