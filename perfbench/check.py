"""Correctness checks of job outputs against stored per-variant references.

Every CSV a job writes is compared with the reference taken at the commit
that defined the benchmark:

* exact costs (``COST_COLUMNS``) agree within 1e-12 relative;
* the geometric fit of the gap curve (``FIT_COLUMNS``) is a least-squares fit
  on logs of exact costs, so it inherits their rounding amplified by the fit;
  it agrees within 1e-9 relative;
* Monte Carlo fields are not compared with the reference, since the stream
  layout may change; instead the Monte Carlo mean lies within 5 standard
  errors of the exact cost of the same row;
* verification values are not compared; every check must report PASS;
* every other field, training outputs included, matches byte for byte.

Across the jobs of one pass, the centralized cost J* is at most the cost of
every other policy evaluated from the same start state.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

COST_RTOL = 1e-12
FIT_RTOL = 1e-9
MC_SIGMAS = 5.0

COST_COLUMNS = {
    "solve_summary.csv": {"expected_cost"},
    "evaluate.csv": {"expected_cost"},
    "final_vs_battery.csv": {"optimal_cost"},
    "final_vs_rounds.csv": {"gap"},
    "hops_table.csv": {"expected_cost"},
}
FIT_COLUMNS = {"final_vs_rounds.csv": {"D_fit", "r2"}}
MC_COLUMNS = {"evaluate.csv": {"mc_mean", "mc_stderr"}}
UNCOMPARED = {"verify.csv"}


def _read(path: Path):
    lines = path.read_text().splitlines()
    return lines[0], lines[1].split(","), [ln.split(",") for ln in lines[2:]]


def snapshot(out_dir: Path) -> dict:
    """Reference record of every CSV in ``out_dir``."""
    ref = {}
    for path in sorted(out_dir.glob("*.csv")):
        name = path.name
        if name in COST_COLUMNS or name in FIT_COLUMNS or name in MC_COLUMNS:
            first, header, rows = _read(path)
            ref[name] = {"first": first, "header": header, "rows": rows}
        elif name in UNCOMPARED:
            _, header, rows = _read(path)
            ref[name] = {"checks": [r[0] for r in rows]}
        else:
            ref[name] = {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    return ref


def _close(got: str, want: str, rtol: float) -> bool:
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    return abs(g - w) <= rtol * max(abs(w), abs(g))


def check_job(out_dir: Path, ref: dict) -> list[str]:
    """Problems found in one job's outputs; empty when the job is correct."""
    problems = []
    files = {p.name for p in out_dir.glob("*.csv")}
    for name in sorted(set(ref) - files):
        problems.append(f"{name}: missing")
    for name in sorted(files - set(ref)):
        problems.append(f"{name}: not in the reference")
    for name in sorted(set(ref) & files):
        path, want = out_dir / name, ref[name]
        if "sha256" in want:
            if hashlib.sha256(path.read_bytes()).hexdigest() != want["sha256"]:
                problems.append(f"{name}: bytes differ from the reference")
            continue
        first, header, rows = _read(path)
        if "checks" in want:
            col = header.index("pass")
            if [r[0] for r in rows] != want["checks"]:
                problems.append(f"{name}: checks {[r[0] for r in rows]} != {want['checks']}")
            problems += [f"{name}: {r[0]} FAIL" for r in rows if r[col] != "true"]
            continue
        if first != want["first"] or header != want["header"] or len(rows) != len(want["rows"]):
            problems.append(f"{name}: config line, header or row count differs")
            continue
        cost = COST_COLUMNS.get(name, set())
        fit = FIT_COLUMNS.get(name, set())
        skip = MC_COLUMNS.get(name, set())
        for k, (row, ref_row) in enumerate(zip(rows, want["rows"])):
            for col, got, exp in zip(header, row, ref_row):
                if col in skip:
                    continue
                rtol = COST_RTOL if col in cost else FIT_RTOL if col in fit else None
                if not (got == exp if rtol is None else _close(got, exp, rtol)):
                    problems.append(f"{name} row {k} {col}: {got} != reference {exp}")
        if name in MC_COLUMNS:
            cols = {c: i for i, c in enumerate(header)}
            for k, row in enumerate(rows):
                j, mean, se = (float(row[cols[c]]) for c in
                               ("expected_cost", "mc_mean", "mc_stderr"))
                if abs(mean - j) > MC_SIGMAS * se:
                    problems.append(f"{name} row {k}: Monte Carlo mean {mean} is more "
                                    f"than {MC_SIGMAS:g} stderr ({se}) from exact {j}")
    return problems


def solve_cost(out_dir: Path) -> tuple[str, float] | None:
    """(policy, expected cost) of a solve job, if it wrote its summary."""
    path = out_dir / "solve_summary.csv"
    if not path.exists():
        return None
    _, header, rows = _read(path)
    row = dict(zip(header, rows[0]))
    return row["policy"], float(row["expected_cost"])


def check_optimality(costs: dict[str, float]) -> dict[str, str]:
    """Per policy: problem when its cost is below the centralized optimum J*."""
    j_star = costs.get("centralized_pi")
    if j_star is None:
        return {}
    return {p: f"J*={j_star!r} exceeds J({p})={j!r}"
            for p, j in costs.items() if j_star > j * (1 + COST_RTOL)}
