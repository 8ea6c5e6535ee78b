"""Config parsing, defaults merging, and typed getters."""

import glob
import os

import pytest

from ntklab.config import (
    EXPERIMENT_IDS,
    ExperimentConfig,
    default_config,
    load_config,
    parse_config,
)


def test_parse_sections_and_comments():
    text = """
    # a comment
    top = 1

    [alpha]
    k = 5          # trailing comment
    lr = 1e-3

    [beta]
    name = hello world
    """
    sections = parse_config(text)
    assert sections[""]["top"] == "1"
    assert sections["alpha"] == {"k": "5", "lr": "1e-3"}
    assert sections["beta"]["name"] == "hello world"


def test_parse_rejects_bare_line():
    with pytest.raises(ValueError):
        parse_config("[s]\nthis is not a pair\n")


def test_parse_empty_text():
    assert parse_config("") == {}


def test_load_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("[fig1]\nk_list = 5\n")
    assert load_config(path)["fig1"]["k_list"] == "5"


def test_defaults_cover_every_experiment():
    sections = default_config()
    for name in EXPERIMENT_IDS:
        assert name in sections, f"defaults.cfg is missing [{name}]"
        assert sections[name], f"[{name}] is empty"


def test_build_merges_user_over_defaults():
    base_k = default_config()["fig1"]["k_list"]
    cfg = ExperimentConfig.build("fig1", {"fig1": {"k_list": "3"}})
    assert cfg.get_str("k_list") == "3"
    assert cfg.get_str("k_list") != base_k
    # untouched keys fall through to the defaults
    plain = ExperimentConfig.build("fig1")
    assert plain.get_str("k_list") == base_k


def test_build_common_section_controls_run_knobs():
    cfg = ExperimentConfig.build(
        "fig2", {"common": {"seed": "7", "out": "/tmp/x", "scale": "0.5"}})
    assert cfg.seed == 7
    assert cfg.out == "/tmp/x"
    assert cfg.scale == 0.5
    # explicit arguments beat the common section
    cfg2 = ExperimentConfig.build("fig2", {"common": {"seed": "7"}}, seed=9)
    assert cfg2.seed == 9


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig.build("fig9")


def test_validation_of_run_knobs():
    with pytest.raises(ValueError):
        ExperimentConfig.build("fig1", scale=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig.build("fig1", scale=1.5)


def test_typed_getters():
    cfg = ExperimentConfig(
        "fig1", {"fig1": {"a": "3", "b": "2.5", "c": "1, 2,3", "d": "2e3"}})
    assert cfg.get_int("a") == 3
    assert cfg.get_float("b") == 2.5
    assert cfg.get_int_list("c") == [1, 2, 3]
    assert cfg.get_int("d") == 2000        # scientific notation for counts
    for getter in (cfg.get_str, cfg.get_int, cfg.get_float, cfg.get_int_list,
                   cfg.get_str_list, cfg.get_batch):
        with pytest.raises(KeyError):
            getter("missing")


def test_get_batch():
    cfg = ExperimentConfig(
        "fig3", {"fig3": {"b1": "full", "b2": "none", "b3": "500"}})
    assert cfg.get_batch("b1") is None
    assert cfg.get_batch("b2") is None
    assert cfg.get_batch("b3") == 500
    with pytest.raises(KeyError):               # no silent full batch
        cfg.get_batch("absent")


def test_scaled_sample_counts():
    cfg = ExperimentConfig.build("fig1", scale=0.1)
    assert cfg.scaled(1000) == 100
    assert cfg.scaled(3) == 1          # never collapses to zero
    full = ExperimentConfig.build("fig1")
    assert full.scaled(1000) == 1000


def test_echo_lines_flatten_everything():
    cfg = ExperimentConfig.build("fig1", {"fig1": {"epochs": "42"}})
    lines = cfg.echo_lines()
    assert "experiment = fig1" in lines
    assert "fig1.epochs = 42" in lines
    n_keys = sum(len(kv) for kv in cfg.sections.values())
    # experiment, seed and scale head the echo
    assert len(lines) == 3 + n_keys


def test_build_rejects_keys_missing_from_defaults():
    with pytest.raises(ValueError, match="m_trian"):
        ExperimentConfig.build("fig1", {"fig1": {"m_trian": "500"}})
    with pytest.raises(ValueError, match="fgi1"):
        ExperimentConfig.build("fig1", {"fgi1": {"k_list": "5"}})
    with pytest.raises(ValueError, match="seeed"):
        ExperimentConfig.build("fig2", {"common": {"seeed": "1"}})


def test_train_section_belongs_to_the_training_job():
    job = ExperimentConfig.build("train", {"train": {"epochs": "3"}})
    assert job.get_int("epochs") == 3
    assert job.get_batch() is None          # defaults.cfg: full batch
    with pytest.raises(ValueError, match="m_trian"):
        ExperimentConfig.build("train", {"train": {"m_trian": "10"}})
    # experiments neither read nor echo it, and reject it as a typo
    assert "train" not in ExperimentConfig.build("fig1").sections
    with pytest.raises(ValueError, match="epochs"):
        ExperimentConfig.build("fig1", {"train": {"epochs": "3"}})


def test_integer_getters_reject_non_integral_values():
    cfg = ExperimentConfig.build(
        "fig1", {"fig1": {"epochs": "2.9", "k_list": "5, 2.5",
                          "m_train": "5O"}})
    for key, getter in (("epochs", cfg.get_int), ("k_list", cfg.get_int_list),
                        ("m_train", cfg.get_int)):
        with pytest.raises(ValueError, match=key):
            getter(key)
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig.build("fig2", {"common": {"seed": "1.5"}})


def test_benchmark_workload_configs_load():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = sorted(glob.glob(os.path.join(root, "bench", "workloads", "*.cfg")))
    assert len(paths) == 2
    for path in paths:
        user = load_config(path)
        for experiment, overrides in user.items():
            cfg = ExperimentConfig.build(experiment, user)
            for key, value in overrides.items():
                assert cfg.get_str(key) == value
