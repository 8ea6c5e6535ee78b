"""Self-tests of the benchmark: span arithmetic, tracing that leaves the
science alone, and an artifact check that notices a changed value."""

import copy
import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import artifacts  # noqa: E402
import layertrace  # noqa: E402


def _busy(n):
    return sum(i * i for i in range(n))


def test_self_times_of_nested_spans_sum_to_parent_duration():
    tracer = layertrace.Tracer()
    leaf = tracer.wrap(lambda: _busy(2000), "nets.leaf")

    def mid_fn(train=False):
        leaf()
        _busy(1000)
        leaf()

    mid = tracer.wrap(mid_fn, "training.mid")

    def root_fn():
        mid(train=True)
        mid()
        _busy(500)

    tracer.wrap(root_fn, "experiments.run_root")()
    spans = tracer.spans
    own = layertrace.self_times(spans)
    (root,) = [i for i, s in enumerate(spans) if s[3] == -1]
    duration = spans[root][2] - spans[root][1]
    assert sum(own) == pytest.approx(duration, rel=1e-12, abs=1e-12)
    assert all(t >= 0 for t in own)
    assert [s[0] for s in spans].count("training.mid.train") == 1
    assert [s[0] for s in spans].count("training.mid.eval") == 1

    names = ["layers.nets.self_s", "layers.training.self_s",
             "layers.experiments.self_s", "trace.outside_s",
             "training.mid.self_s", "training.mid.train.calls",
             "nets.leaf.calls"]
    m = layertrace.layer_metrics(spans, names, 2 * duration, duration, 0.0)
    layer_sum = sum(m[n] for n in names[:3])
    assert layer_sum + m["trace.outside_s"] == pytest.approx(2 * duration)
    assert m["training.mid.train.calls"] == 1
    assert m["nets.leaf.calls"] == 4


def test_recursive_calls_count_once_in_total():
    tracer = layertrace.Tracer()

    def chunked(n):
        return 0 if n == 0 else 1 + traced(n - 1)

    traced = tracer.wrap(chunked, "training.chunked")
    traced(3)
    spans = tracer.spans
    outer = spans[0][2] - spans[0][1]
    s = layertrace.SpanSet(spans)
    assert s.total_s("training.chunked") == pytest.approx(outer)
    assert s.stat("training.chunked", "calls") == 4


def test_every_per_layer_metric_is_defined():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer"]]
    values = layertrace.layer_metrics([], names, 1.0, 1.0, 1.0)
    assert sorted(values) == sorted(names)


def test_tail_quantile_leaves_ten_calls_beyond():
    assert layertrace.tail_quantile(1000) == pytest.approx(0.99)
    assert layertrace.tail_quantile(12) == 0.5
    values = list(range(1, 101))
    assert layertrace._rank(values, layertrace.tail_quantile(100)) == 90


_TINY_FIG1 = """\
[fig1]
k_list = 3
m_train = 40
m_test = 20
epochs = 2
batch_size = 20
eval_every = 1
"""


def _run_child(tmp_path, tag, traced):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(_TINY_FIG1)
    out = tmp_path / f"out_{tag}"
    opts = ["--trace", str(tmp_path / "spans.json")] if traced else []
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "child.py"),
         str(tmp_path / f"report_{tag}.json"), *opts, "--", "fig1",
         "--config", str(cfg), "--threads", "1", "--seed", "3",
         "--out", str(out)],
        check=True, env=env, cwd=tmp_path, timeout=120)
    return out


def test_traced_run_writes_the_same_csvs(tmp_path):
    plain = _run_child(tmp_path, "plain", traced=False)
    traced = _run_child(tmp_path, "traced", traced=True)
    files = sorted(os.listdir(plain))
    assert files == sorted(os.listdir(traced))
    assert any(f.endswith(".csv") for f in files)
    for name in files:
        a = (plain / name).read_bytes()
        b = (traced / name).read_bytes()
        if name == "manifest.txt":          # header comments carry wall time
            a, b = ([l for l in x.splitlines() if not l.startswith(b"#")]
                    for x in (a, b))
        assert a == b, name
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert any(s[0] == "training.train" for s in spans)
    assert any(s[0] == "nets.WcgcnNet.backward_batch.train" for s in spans)


def test_artifact_check_fails_on_a_perturbed_value():
    reference = artifacts.load_reference("fig3-lambda", 0)
    assert reference is not None
    assert artifacts.check("fig3-lambda", 0, reference) == ([], True)

    close = copy.deepcopy(reference)
    row = close["lambda_min.csv"]["rows"][0]
    row[2] = repr(float(row[2]) * (1 + 1e-12))
    assert artifacts.check("fig3-lambda", 0, close)[0] == []

    moved = copy.deepcopy(reference)
    row = moved["lambda_min.csv"]["rows"][0]
    row[2] = repr(float(row[2]) * (1 + 1e-8))
    problems, used = artifacts.check("fig3-lambda", 0, moved)
    assert used and len(problems) == 1 and "lambda_min_gnn" in problems[0]

    t_star = copy.deepcopy(reference)
    header = t_star["fig3_summary.csv"]["header"]
    row = t_star["fig3_summary.csv"]["rows"][0]
    row[header.index("t_star")] = str(int(row[header.index("t_star")]) + 1)
    assert artifacts.check("fig3-lambda", 0, t_star)[0]


def test_invariants_apply_where_no_reference_exists():
    tables = artifacts.load_reference("fig3-lambda", 0)
    assert artifacts.load_reference("fig3-lambda", 10 ** 6) is None
    assert artifacts.check("fig3-lambda", 10 ** 6, tables) == ([], False)

    negative = copy.deepcopy(tables)
    negative["lambda_min.csv"]["rows"][1][1] = "-1e-3"
    problems, _ = artifacts.check("fig3-lambda", 10 ** 6, negative)
    assert problems and "is not >= 0" in problems[0]

    missing = copy.deepcopy(tables)
    del missing["fig3_summary.csv"]
    assert artifacts.check("fig3-lambda", 10 ** 6, missing)[0]
