"""The ntklab benchmark: ``ntklab exp`` workloads timed end to end.

usage: python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                            [--trace 0|1]

Run from the repository root.  Each run of a workload is a fresh child
process (``child.py``) that runs ``ntklab exp ... --threads 1 --seed N`` into
a fresh output directory under ``.bench_runs/``; the directory is checked
(``artifacts.py``) and removed.  Children repeat while the next one fits in
``--seconds``; at least one always runs.  A handful of set-up-only children
measure ``setup_s`` beside them.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
one extra child runs with every layer's public callables wrapped
(``layertrace.py``) and the per-layer metrics are reported.  Metric names and
units come from BENCHMARK.json.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import artifacts
import layertrace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")

# workload -> ``ntklab exp`` arguments (before --threads/--seed/--out)
WORKLOADS = {
    "fig1-k20": ["fig1", "--scale", "0.1",
                 "--config", os.path.join(BENCH_DIR, "workloads", "fig1-k20.cfg")],
    "fig3-lambda": ["fig3",
                    "--config", os.path.join(BENCH_DIR, "workloads", "fig3-lambda.cfg")],
    "ntk-regime": ["ntk-regime"],
}

SETUP_PROBES = 7          # set-up-only children per invocation, after one warm-up
HARD_LIMIT_S = 165.0      # the whole invocation ends well inside 180 s


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def git_sha():
    """HEAD's commit, read from .git without running git; None outside a
    repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def environment():
    """What the timings depend on.  The BLAS thread pool is left at the
    machine default; the *_NUM_THREADS variables are recorded as seen."""
    env = {
        "python": platform.python_version(),
        "numpy": None,
        "blas": None,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "git_sha": git_sha(),
    }
    try:
        import numpy
    except ImportError:
        return env
    env["numpy"] = numpy.__version__
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return env


def run_child(workload, seed, kind, timeout):
    """Spawn one child in a fresh directory, wait for it, check its outputs
    and remove the directory.  ``kind`` is "setup", "run" or "traced"."""
    os.makedirs(RUNS_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-{kind}-", dir=RUNS_DIR)
    try:
        report = os.path.join(run_dir, "child.json")
        spans_path = os.path.join(run_dir, "spans.json")
        out_dir = os.path.join(run_dir, "out")
        opts = {"setup": ["--setup-only"], "run": [],
                "traced": ["--trace", spans_path]}[kind]
        argv = [sys.executable, CHILD, report, *opts, "--", *WORKLOADS[workload],
                "--threads", "1", "--seed", str(seed), "--out", out_dir]
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        with open(os.path.join(run_dir, "stdout"), "wb") as out, \
                open(os.path.join(run_dir, "stderr"), "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, cwd=run_dir, env=env, stdout=out,
                                    stderr=err, stdin=subprocess.DEVNULL)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        result = {"kind": kind, "wall_s": wall, "exit": code,
                  "peak_rss_mb": usage.ru_maxrss / 1024.0,
                  "cpu_s": usage.ru_utime + usage.ru_stime,
                  "setup_s": None, "problems": [], "reference": None}
        if os.path.exists(report):
            with open(report) as fh:
                result["setup_s"] = json.load(fh)["setup_done"] - t0
        if code != 0:
            with open(os.path.join(run_dir, "stderr"), errors="replace") as fh:
                tail = fh.read().strip().splitlines()[-3:]
            result["problems"].append(f"exit code {code}: " + " | ".join(tail))
        elif result["setup_s"] is None:
            result["problems"].append("no set-up report")
        elif kind != "setup":
            result["tables"] = artifacts.read_outputs(workload, out_dir)
            problems, used = artifacts.check(workload, seed, result["tables"])
            result["problems"] += problems
            result["reference"] = used
        if kind == "traced" and code == 0:
            with open(spans_path) as fh:
                result["spans"] = json.load(fh)
        return result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(workload, seed, seconds, trace):
    """All children of one invocation, in order."""
    start = time.monotonic()
    deadline = start + seconds
    hard = start + HARD_LIMIT_S

    def timeout():
        return max(1.0, hard - time.monotonic())

    run_child(workload, seed, "setup", timeout())       # warm-up, discarded
    children = [run_child(workload, seed, "setup", timeout())
                for _ in range(SETUP_PROBES)]
    if trace:
        children.append(run_child(workload, seed, "traced", timeout()))
    walls = []
    while True:
        child = run_child(workload, seed, "run", timeout())
        children.append(child)
        walls.append(child["wall_s"])
        now = time.monotonic()
        if (now + statistics.median(walls) > deadline
                or now + 1.25 * max(walls) > hard):
            return children


def end_to_end(children, names):
    runs = [c for c in children if c["kind"] == "run"]
    setups = [c["setup_s"] for c in children
              if c["kind"] == "setup" and c["setup_s"] is not None]
    values = {
        "wall_s": statistics.median(c["wall_s"] for c in runs),
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in runs),
    }
    return {name: values[name] for name in names}


def per_layer(children, names):
    runs = [c for c in children if c["kind"] == "run"]
    traced = next(c for c in children if c["kind"] == "traced")
    return layertrace.layer_metrics(
        traced.get("spans", []), names, traced["wall_s"],
        statistics.median(c["wall_s"] for c in runs),
        statistics.median(c["cpu_s"] for c in runs))


def report(workload, seed, seconds, trace, spec, env):
    shown = [os.path.relpath(a, ROOT) if a.startswith(BENCH_DIR) else a
             for a in WORKLOADS[workload]]
    print(f"== {workload}  seed {seed}  {seconds} s  trace {trace}: ntklab exp "
          f"{' '.join(shown)} --threads 1 --seed {seed}")
    print("env " + json.dumps(env, sort_keys=True))
    children = measure(workload, seed, seconds, trace)
    for i, c in enumerate(children):
        setup = "-" if c["setup_s"] is None else f"{c['setup_s']:.4f}"
        check = "FAILED" if c["problems"] else "ok"
        ref = {True: " (reference)", False: " (reference absent: invariants only)",
               None: ""}[c["reference"]]
        print(f"{c['kind']:>6} {i:2d}  wall {c['wall_s']:.4f} s  setup {setup} s  "
              f"rss {c['peak_rss_mb']:.1f} MB  cpu {c['cpu_s']:.2f} s  "
              f"exit {c['exit']}  check {check}{ref}")
        for p in c["problems"]:
            print(f"          {p}")
    attempted = len(children)
    failed = sum(1 for c in children if c["problems"])
    runs = [c for c in children if c["kind"] == "run"]
    setups = [c for c in children if c["kind"] == "setup"]
    if trace:
        entries = spec["per_layer"]
        metrics = per_layer(children, [m["name"] for m in entries])
    else:
        entries = spec["end_to_end"]
        metrics = end_to_end(children, [m["name"] for m in entries])
    walls = [c["wall_s"] for c in runs]
    counts = {"wall_s": f"median of {len(runs)} runs, "
                        f"range {min(walls):.4g}-{max(walls):.4g}",
              "setup_s": f"median of {len(setups)} set-ups",
              "peak_rss_mb": f"median of {len(runs)} runs"}
    for m in entries:
        print(f"{m['name']:<48} {metrics[m['name']]:>14.6g} {m['unit']:<6} "
              f"{counts.get(m['name'], '')}")
    print(f"{'error_rate':<48} {failed / attempted:>14.6g} ratio  "
          f"{failed} of {attempted} children failed")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in entries}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "ntklab", "cli.py")):
        print(f"error: no ntklab sources under {ROOT}/src", file=sys.stderr)
        return 2
    # a terminated benchmark still kills and reaps its running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for workload in names:
            result = report(workload, args.seed, seconds, args.trace, spec, env)
            print(json.dumps(result), flush=True)
    finally:
        try:
            os.rmdir(RUNS_DIR)
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
