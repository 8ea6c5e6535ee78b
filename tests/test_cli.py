"""Command-line interface: exit codes, artifacts, config plumbing."""

import numpy as np
import pytest

from ntklab.cli import cli_main
from ntklab.kernels import load_kernel_csv, load_kernel_ntk1


def read_lines(path):
    return path.read_text().strip().splitlines()


def test_no_command_is_usage_error(capsys):
    assert cli_main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_command_is_usage_error(capsys):
    assert cli_main(["frobnicate"]) == 1


def test_bad_flag_value(capsys):
    assert cli_main(["gen", "--m", "many"]) == 1


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
    out = tmp_path / "run"
    assert cli_main(["ntk", "--arch", "mlp", "--kind", "gaussian", "--n", "1",
                     "--d", "4", "--m", "10", "--out", str(out)]) == 0
    a = load_kernel_csv(out / "kernel.csv")
    b = load_kernel_ntk1(out / "kernel.ntk1")
    assert a.m == b.m == 10
    np.testing.assert_array_equal(a.entries, b.entries)


def test_ntk_gnn_on_channel_data(tmp_path):
    out = tmp_path / "run"
    assert cli_main(["ntk", "--arch", "gnn", "--kind", "channel", "--k", "3",
                     "--m", "8", "--out", str(out)]) == 0
    assert load_kernel_csv(out / "kernel.csv").m == 8


def test_ntk_monte_carlo_artifacts(tmp_path):
    out = tmp_path / "run"
    assert cli_main(["ntk", "--arch", "mlp", "--kind", "gaussian", "--n", "1",
                     "--d", "3", "--m", "8", "--mc-units", "20000",
                     "--mc-width", "100", "--out", str(out)]) == 0
    est = load_kernel_csv(out / "mc_kernel.csv")
    assert est.m == 8
    header, row = read_lines(out / "mc_error.csv")
    assert header == "draws,width_per_draw,relative_frobenius_error"
    draws, width, err = row.split(",")
    assert (int(draws), int(width)) == (200, 100)
    assert 0 < float(err) < 0.5


# ---------------------------------------------------------------------------
# spectral


def test_spectral_pipeline(tmp_path):
    kdir = tmp_path / "kernel"
    assert cli_main(["ntk", "--kind", "gaussian", "--n", "1", "--d", "4",
                     "--m", "6", "--out", str(kdir)]) == 0
    out = tmp_path / "spec"
    assert cli_main(["spectral", "--kernel", str(kdir / "kernel.ntk1"),
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
        "arch = two-layer\nloss = squared\nn = 1\nd = 4\nwidth = 64\n"
        "m_train = 20\nm_test = 10\nepochs = 3\nlr = 1e-3\noptimizer = gd\n")
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "train_summary.csv").exists()


@pytest.mark.parametrize("line, key", [("m_trian = 10", "m_trian"),
                                       ("epochs = 2.9", "epochs")])
def test_train_rejects_config_typos(tmp_path, capsys, line, key):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("[train]\narch = two-layer\nloss = squared\n"
                   f"width = 16\nm_train = 12\nm_test = 6\n{line}\n")
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_train_divergence_exit_code(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(
        "[train]\n"
        "arch = two-layer\nloss = squared\nn = 1\nd = 4\nwidth = 16\n"
        "m_train = 12\nm_test = 6\nepochs = 10\nlr = 1e9\noptimizer = gd\n")
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    # the partial trace still lands on disk for post-mortems
    assert (out / "trace.csv").exists()


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


def test_exp_threads_environment_fallback(tmp_path, monkeypatch):
    cfg = tmp_path / "e.cfg"
    cfg.write_text("[fig2]\nn_list = 1\nsamples = 12\n")
    out = tmp_path / "run"
    monkeypatch.setenv("NTKLAB_THREADS", "3")
    assert cli_main(["exp", "fig2", "--config", str(cfg),
                     "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "# threads = 3" in manifest


def test_exp_scale_validation(tmp_path, capsys):
    assert cli_main(["exp", "fig2", "--scale", "7", "--out",
                     str(tmp_path)]) == 1
