"""Regenerate the stored references of one or all workloads.

Usage: python3 perfbench/make_refs.py [WORKLOAD ...]

Runs every job of every seed variant once and stores its CSV outputs in
``perfbench/refs/<workload>.json``.  References pin the outputs of the commit
they were taken at, so regenerate them only when a change is meant to alter
the program's outputs, and say so.  The checks that do not depend on the
reference (Monte Carlo within 5 stderr of the exact cost, J* no worse than
any other policy, every verification check PASS) must hold on every variant,
or nothing is written.
"""
from __future__ import annotations

import json
import sys

from run import HERE, SRC, Bench


def make(workload: str) -> dict:
    from check import snapshot
    from workloads import N_VARIANTS
    variants = {}
    for v in range(N_VARIANTS):
        bench = Bench(workload, v, refs={})
        _, errors = bench.run_jobs()
        if errors:
            raise SystemExit(f"{workload} variant {v}: {errors}")
        bench.refs = {job.job_id: snapshot(bench.out_dir(job)) for job in bench.jobs}
        bench.check({})
        if bench.failures:
            raise SystemExit(f"{workload} variant {v}: {bench.failures}")
        variants[str(v)] = bench.refs
        print(f"{workload} variant {v}: ok", file=sys.stderr)
    return {"workload": workload, "variants": variants}


def dump(refs: dict) -> str:
    """JSON with one line per variant, so a re-take shows which variants changed."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in refs["variants"].items()]
    return ('{"workload": %s, "variants": {\n' % json.dumps(refs["workload"])
            + ",\n".join(lines) + "\n}}\n")


def main(argv) -> int:
    from workloads import WORKLOADS
    sys.path.insert(0, str(SRC))
    for workload in argv or sorted(WORKLOADS):
        refs = make(workload)
        (HERE / "refs").mkdir(exist_ok=True)
        (HERE / "refs" / f"{workload}.json").write_text(dump(refs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
