"""Record the reference cells the artifact check compares runs against.

usage: python3 bench/make_references.py SEED [SEED ...]

Runs every workload once per seed, untraced, and stores the checked CSV
cells (see artifacts.CHECKED) in references/<workload>.json, replacing any
entry for that seed.  Run it only at a commit whose experiment outputs are
the accepted ones: every later run at these seeds must reproduce them.
"""

import json
import os
import sys

import artifacts
import run


def main(argv):
    seeds = [int(s) for s in argv]
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    os.makedirs(artifacts.REFERENCE_DIR, exist_ok=True)
    for workload in run.WORKLOADS:
        path = os.path.join(artifacts.REFERENCE_DIR, f"{workload}.json")
        refs = {}
        if os.path.exists(path):
            with open(path) as fh:
                refs = json.load(fh)
        for seed in seeds:
            child = run.run_child(workload, seed, "run", run.HARD_LIMIT_S)
            tables = child.get("tables", {})
            problems = ([f"exit code {child['exit']}"] if child["exit"] else []) \
                + artifacts.invariant_problems(workload, tables)
            if problems:
                print(f"{workload} seed {seed}: {problems}", file=sys.stderr)
                return 1
            refs[str(seed)] = tables
            print(f"{workload} seed {seed}: {child['wall_s']:.1f} s", flush=True)
        with open(path, "w") as fh:
            json.dump(dict(sorted(refs.items(), key=lambda kv: int(kv[0]))),
                      fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
