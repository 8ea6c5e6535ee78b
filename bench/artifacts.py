"""Correctness check of one run's experiment CSVs.

Every run is checked against invariants: the expected files and row counts,
finite numbers, a defined ``t_star``, ``lambda_min >= 0`` and
``0 < ratio_to_wmmse``.  Where ``references/<workload>.json`` holds values for
the run's seed, taken with ``make_references.py`` at the commit that defined
the benchmark, every cell must also match them: integers and labels exactly
(``t_star``, ``reached_loss_drop``, ``k``, ``model`` ...), floats within a
relative 1e-9.
"""

import json
import math
import os
import re

REL_TOL = 1e-9

# workload -> {checked CSV: expected data rows}
CHECKED = {
    "fig1-k20": {"fig1_summary.csv": 2},
    "fig3-lambda": {"fig3_summary.csv": 4, "lambda_min.csv": 4},
    "ntk-regime": {"ntk_regime.csv": 3, "kernel_convergence.csv": 3},
}

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "references")

_INT = re.compile(r"-?\d+")


def read_csv(path):
    """(header, rows) of an experiment CSV, ``#`` comment lines skipped;
    cells stay text."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def read_outputs(workload, out_dir):
    """{file: {"header": [...], "rows": [[...]]}} for the workload's checked
    files that exist in ``out_dir``."""
    tables = {}
    for name in CHECKED[workload]:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            header, rows = read_csv(path)
            tables[name] = {"header": header, "rows": rows}
    return tables


def load_reference(workload, seed):
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh).get(str(seed))


def _float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def invariant_problems(workload, tables):
    problems = []
    for name, expected_rows in CHECKED[workload].items():
        if name not in tables:
            problems.append(f"{name}: missing")
            continue
        header, rows = tables[name]["header"], tables[name]["rows"]
        if len(rows) != expected_rows:
            problems.append(f"{name}: {len(rows)} rows, expected {expected_rows}")
        for r, row in enumerate(rows):
            if len(row) != len(header):
                problems.append(f"{name} row {r}: {len(row)} cells for "
                                f"{len(header)} columns")
                continue
            for col, cell in zip(header, row):
                value = _float(cell)
                where = f"{name} row {r} {col}"
                if value is not None and not math.isfinite(value):
                    problems.append(f"{where}: not finite ({cell})")
                elif col == "t_star" and value is None:
                    problems.append(f"{where}: undefined")
                elif col.startswith("lambda_min") and (value is None or value < 0):
                    problems.append(f"{where}: {cell} is not >= 0")
                elif col == "ratio_to_wmmse" and (value is None or value <= 0):
                    problems.append(f"{where}: {cell} is not > 0")
    return problems


def same_cell(got, want):
    """Integers and labels equal; floats within the relative tolerance."""
    if got == want:
        return True
    if _INT.fullmatch(got) or _INT.fullmatch(want):
        return False
    a, b = _float(got), _float(want)
    return (a is not None and b is not None
            and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0))


def reference_problems(tables, reference):
    problems = []
    for name, want in reference.items():
        got = tables.get(name)
        if got is None:
            continue                      # reported by the invariants
        if got["header"] != want["header"]:
            problems.append(f"{name}: header {got['header']} != {want['header']}")
            continue
        if len(got["rows"]) != len(want["rows"]):
            continue                      # reported by the invariants
        for r, (grow, wrow) in enumerate(zip(got["rows"], want["rows"])):
            for col, g, w in zip(want["header"], grow, wrow):
                if not same_cell(g, w):
                    problems.append(f"{name} row {r} {col}: {g} != reference {w}")
    return problems


def check(workload, seed, tables):
    """(problems, reference_used) for one run's tables (``read_outputs``)."""
    problems = invariant_problems(workload, tables)
    reference = load_reference(workload, seed)
    if reference is not None:
        problems += reference_problems(tables, reference)
    return problems, reference is not None
