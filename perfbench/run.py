"""Benchmark of the ehdfl commands on four workloads.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/``; no
install or build step is needed.  Each job is what the command line does:
``load_config`` then ``harness.run_experiment(config, kind, jobs=1)``.

With ``--trace 0`` the run times passes over the workload's jobs for S
seconds and reports the end-to-end metrics.  Each job is timed next to the
same job on the frozen reference copy in ``perfbench/reference`` (run by
``ref_worker.py``), and times are reported in reference-seconds: measured
time divided by the reference's time alongside it, times the reference's
time stored in ``workloads.REFERENCE_SECONDS``.  This divides out the drift
of machine speed that a shared two-vCPU machine shows; NOTES.md has the
figures.  With ``--trace 1`` the run alternates untraced and traced passes
of the current code and reports the per-layer metrics, in plain seconds,
with the tracing overhead.  Every job's outputs are checked against the
references in ``perfbench/refs``.  The last line of standard output is one
JSON object; the line before it holds the quartiles, the environment and the
failures.
Scratch files go to ``.perfbench_work/`` under the repository root.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PAIRS = 3
TRACED_SETUP_REPEATS = 3
MIN_PAIRS = 3
CHILD_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# statistics and environment
# ---------------------------------------------------------------------------

def summary(values) -> dict:
    """Median, quartiles and sample count."""
    vals = sorted(values)
    if len(vals) == 1:
        return {"median": vals[0], "q1": vals[0], "q3": vals[0], "n": 1}
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10).stdout.strip()
        return int(out) if out.isdigit() else None
    except (OSError, subprocess.SubprocessError):
        return None


def _blas_threads():
    import ctypes
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    import platform
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "machine": platform.machine(),
    }


def model_sizes(jobs) -> dict:
    """Model and cover sizes of every job, with computed table bytes (float64)."""
    from ehdfl.config import parse_config
    from ehdfl.localized import build_cover
    out = {}
    for job in jobs:
        if job.kind == "verify":
            continue
        cfg = parse_config(job.raw)
        mdp = cfg.build_model()
        sweep = cfg.sweep_raw or {}
        levels = sweep["values"] if sweep.get("axis") == "capacity" else [mdp.energy.n_levels]
        hops = sweep["values"] if sweep.get("axis") == "hops" else [cfg.hops]
        n_ch = mdp.n_channel_cfgs
        for nl in levels:
            n_s, n_a = n_ch * nl ** mdp.m, mdp.n_actions
            rec = {"n_states": n_s, "n_actions": n_a, "horizon": mdp.horizon,
                   "computed_dp_bytes_per_slot": 8 * n_s * n_a}
            if (job.policy or cfg.policy_name) == "decentralized_pi":
                for h in hops:
                    covers = [build_cover(mdp, i, h) for i in range(mdp.m)]
                    widest = max(covers, key=lambda c: c.n_gain_cfgs * nl ** len(c.devs)
                                 * c.n_actions)
                    c_s = widest.n_gain_cfgs * nl ** len(widest.devs)
                    rec[f"hops{h}_widest_cover"] = {
                        "n_states": c_s, "n_actions": widest.n_actions,
                        "computed_backward_layer_bytes": 8 * c_s * widest.n_actions}
            out[f"{job.job_id}/levels{nl}"] = rec
    return out


def import_package() -> None:
    """Import every ehdfl module, so the tracer finds modules imported lazily."""
    import importlib
    import pkgutil
    import ehdfl
    for mod in pkgutil.iter_modules(ehdfl.__path__):
        importlib.import_module(f"ehdfl.{mod.name}")


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

class Bench:
    """The jobs of one workload, their scratch paths and their references."""

    def __init__(self, workload: str, seed: int, refs: dict | None = None):
        from workloads import jobs_for, variant_of
        self.workload, self.seed = workload, seed
        self.variant = variant_of(seed)
        self.jobs = jobs_for(workload, seed)
        self.work = ROOT / ".perfbench_work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "configs").mkdir(parents=True)
        self.config_paths, self.ref_config_paths = {}, {}
        for job in self.jobs:
            for paths, tag in ((self.config_paths, ""), (self.ref_config_paths, "-ref")):
                out = self.work / f"out{tag}" / job.job_id
                path = self.work / "configs" / f"{job.job_id}{tag}.json"
                path.write_text(json.dumps(dict(job.raw, out_dir=str(out)), indent=1))
                paths[job.job_id] = path
        if refs is None:
            refs = json.loads((HERE / "refs" / f"{workload}.json").read_text())
            refs = refs["variants"][str(self.variant)]
        self.refs = refs
        self.attempted = 0
        self.failures: list[str] = []

    def out_dir(self, job) -> Path:
        return self.work / "out" / job.job_id

    def run_pass(self, tracer=None) -> dict:
        """Run every job once, check the outputs; return wall seconds per command."""
        per_kind, errors = self.run_jobs(tracer)
        self.check(errors)
        return per_kind

    def run_jobs(self, tracer=None) -> tuple[dict, dict]:
        """Run every job once; return wall seconds per command and job errors."""
        per_kind: dict[str, float] = {}
        errors = {}
        for job in self.jobs:
            seconds, error = self.run_job(job, tracer)
            per_kind[job.kind] = per_kind.get(job.kind, 0.0) + seconds
            if error:
                errors[job.job_id] = error
        return per_kind, errors

    def run_job(self, job, tracer=None) -> tuple[float, str | None]:
        """Run one job on the current code; return wall seconds and any error."""
        from ehdfl import config, harness
        shutil.rmtree(self.out_dir(job), ignore_errors=True)
        span = tracer.span(f"job.{job.kind}") if tracer else contextlib.nullcontext()
        error = None
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(io.StringIO()):
                cfg = config.load_config(self.config_paths[job.job_id])
                harness.run_experiment(cfg, job.kind, jobs=1, policy_name=job.policy)
        except Exception as exc:  # a failing job counts against fail_ratio
            error = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - t0, error

    def run_paired_pass(self, worker, index: int) -> dict:
        """Run every job on the current code and on the reference, in alternating order.

        Returns the current code's seconds per command, plus ``_pass`` and
        ``_ref`` totals; the current outputs are checked.
        """
        per_kind: dict[str, float] = {}
        errors = {}
        ref_total = 0.0
        for k, job in enumerate(self.jobs):
            ref_first = (index + k) % 2 == 1
            if ref_first:
                ref_total += worker.run(self.ref_config_paths[job.job_id], job)
            seconds, error = self.run_job(job)
            if not ref_first:
                ref_total += worker.run(self.ref_config_paths[job.job_id], job)
            per_kind[job.kind] = per_kind.get(job.kind, 0.0) + seconds
            if error:
                errors[job.job_id] = error
        self.check(errors)
        return dict(per_kind, _pass=sum(per_kind.values()), _ref=ref_total)

    def check(self, errors: dict) -> None:
        """Check every job's outputs; record failures and count attempts."""
        from check import check_job, check_optimality, solve_cost
        problems = {}
        costs = {}
        for job in self.jobs:
            self.attempted += 1
            if job.job_id in errors:
                problems[job.job_id] = [errors[job.job_id]]
                continue
            out = self.out_dir(job)
            found = check_job(out, self.refs.get(job.job_id, {}))
            if job.job_id not in self.refs:
                found.append("no reference stored for this job")
            problems[job.job_id] = found
            pc = solve_cost(out) if job.kind == "solve" else None
            if pc is not None:
                costs[pc[0]] = (job.job_id, pc[1])
        bad_opt = check_optimality({p: j for p, (_, j) in costs.items()})
        for p, msg in bad_opt.items():
            problems[costs[p][0]].append(msg)
        for job_id, found in problems.items():
            if found:
                self.failures.append(f"{job_id}: " + "; ".join(found[:3]))


class RefWorker:
    """The ``ref_worker.py`` child process; stopped and waited for on exit."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "ref_worker.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)
        return self

    def run(self, config_path: Path, job) -> float:
        self.proc.stdin.write(json.dumps({"config": str(config_path), "kind": job.kind,
                                          "policy": job.policy}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("reference worker exited")
        reply = json.loads(line)
        if reply["error"]:
            raise RuntimeError(f"reference run of {job.job_id} failed: {reply['error']}")
        return reply["seconds"]

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return False


def timed_pairs(bench: Bench, seconds: float) -> tuple[list[dict], float]:
    """Paired passes for about ``seconds``; also the peak RSS (MB) after the first pass."""
    passes, start = [], time.perf_counter()
    with RefWorker() as worker:
        while True:
            passes.append(bench.run_paired_pass(worker, len(passes)))
            if len(passes) == 1:
                first_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            elapsed = time.perf_counter() - start
            last = passes[-1]["_pass"] + passes[-1]["_ref"]
            if len(passes) >= MIN_PAIRS and elapsed + last / 2 > seconds:
                return passes, first_peak_mb


def setup_probe(config_path: Path, mode: str = "") -> dict:
    """One set-up probe; ``mode`` is "", "--trace" or "--reference"."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(config_path)]
    if mode:
        cmd.append(mode)
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                         cwd=ROOT)
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {res.stderr.strip()[-500:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass
# ---------------------------------------------------------------------------

UNIT_EXCEPTIONS = {"mdp.dp_bytes_per_slot": "B"}


def _unit(name: str) -> str:
    if name in UNIT_EXCEPTIONS:
        return UNIT_EXCEPTIONS[name]
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s"), ("_mb", "MB"),
                         ("_j", "J"), ("_bytes", "B"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def layer_metrics(stats, counts) -> dict:
    """Per-layer metrics of one traced pass (spans aggregated by ``Tracer.aggregate``)."""
    def col(name, k):
        return sum(v[k] for (_, n), v in stats.items() if n == name)

    def tot(name):
        return col(name, 1)

    def calls(name):
        return col(name, 0)

    def per(total, n, scale):
        return total / n * scale if n else 0.0

    m = {}
    m["mdp.cost_table_s"] = tot("mdp.cost_table")
    m["mdp.backward_induction_s"] = tot("mdp.backward_induction")
    m["mdp.backward_slot_ms"] = per(m["mdp.backward_induction_s"], counts["bi_slots"], 1e3)
    m["mdp.evaluate_exact_s"] = tot("mdp.evaluate_exact")
    m["mdp.evaluate_exact_slot_ms"] = per(m["mdp.evaluate_exact_s"], counts["eval_slots"], 1e3)
    m["mdp.expected_cost_rows_s"] = tot("mdp.expected_cost_rows")
    m["mdp.evaluate_exact_self_s"] = col("mdp.evaluate_exact", 2)
    m["mdp.simulate_costs_s"] = tot("mdp.simulate_costs")
    m["mdp.mc_rollout_slot_us"] = per(m["mdp.simulate_costs_s"], counts["mc_rollout_slots"],
                                      1e6)
    m["mdp.state_action_slots"] = counts["state_action_slots"]
    m["mdp.dp_bytes_per_slot"] = counts["dp_bytes_per_slot"]
    m["baselines.myopic_table_s"] = tot("baselines.myopic_table")
    m["baselines.act_us"] = per(tot("baselines.act"), calls("baselines.act"), 1e6)
    m["localized.synthesize_s"] = tot("localized.synthesize")
    m["localized.backward_layer_s"] = tot("localized.backward_layer")
    m["localized.backward_layer_calls"] = calls("localized.backward_layer")
    m["localized.backward_layer_ms"] = per(m["localized.backward_layer_s"],
                                           m["localized.backward_layer_calls"], 1e3)
    m["localized.synthesize_self_s"] = col("localized.synthesize", 2)
    m["localized.cost_table_s"] = tot("localized.cost_table")
    m["localized.extension_maps_s"] = tot("localized.extension_maps")
    m["localized.masked_softmax_s"] = tot("localized.masked_softmax")
    m["localized.act_us"] = per(tot("localized.act"), calls("localized.act"), 1e6)
    m["localized.conditionals_s"] = tot("localized.conditionals")
    m["localized.cover_entries"] = counts["cover_entries"]
    m["dflsim.run_training_s"] = tot("dflsim.run_training")
    m["dflsim.slot_us"] = per(m["dflsim.run_training_s"], counts["train_slots"], 1e6)
    m["dflsim.local_sgd_s"] = tot("dflsim.local_sgd")
    m["dflsim.apply_gossip_s"] = tot("dflsim.apply_gossip")
    m["dflsim.run_training_self_s"] = col("dflsim.run_training", 2)
    m["dflsim.packets_sent"] = counts["packets_sent"]
    m["dflsim.delivery_ratio"] = per(counts["packets_sent"] - counts["packets_dropped"],
                                     counts["packets_sent"], 1.0)
    m["dflsim.energy_j"] = counts["energy_j"]
    m["channel.step_links_calls"] = calls("channel.step_links")
    m["channel.step_links_us"] = per(tot("channel.step_links"), calls("channel.step_links"),
                                     1e6)
    m["channel.per_calls"] = counts["channel.per_calls"]
    m["energy.battery_step_calls"] = calls("energy.battery_step")
    m["energy.battery_step_us"] = per(tot("energy.battery_step"),
                                      calls("energy.battery_step"), 1e6)
    m["learning.make_task_s"] = tot("learning.make_task")
    m["boundlab.gap_curve_s"] = tot("boundlab.gap_curve")
    m["harness.verify_suite_s"] = tot("harness.verify_suite")
    m["harness.exhaustive_minimum_s"] = tot("harness.exhaustive_minimum")
    m["instances.build_s"] = tot("instances.build")
    m["harness.run_experiment_self_s"] = col("harness.run_experiment", 2)
    m["harness.csv_bytes"] = counts["csv_bytes"]
    return m


def shares(stats) -> dict:
    """Per command: each layer's total time as a share of the command's time."""
    out = {}
    for (root, name), (_, total, self_s) in stats.items():
        if not root.startswith("job."):
            continue
        cmd_total = stats[(root, root)][1]
        if name == root or cmd_total <= 0:
            continue
        kind = root[4:]
        out.setdefault(kind, {})[name] = total / cmd_total
        out[kind][name + ".self"] = self_s / cmd_total
    return out


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    from workloads import REFERENCE_SECONDS
    config_path = bench.config_paths[bench.jobs[0].job_id]
    setup_pairs = []
    for k in range(SETUP_PAIRS):
        modes = ("", "--reference") if k % 2 == 0 else ("--reference", "")
        got = {mode: setup_probe(config_path, mode)["total_s"] for mode in modes}
        setup_pairs.append((got[""], got["--reference"]))
    # Peak RSS through one pass: later passes only add allocator history.
    passes, peak_mb = timed_pairs(bench, seconds)
    ref = REFERENCE_SECONDS[bench.workload]
    setup_ratio = summary([cur / ref_s for cur, ref_s in setup_pairs])
    pass_ratio = summary([p["_pass"] / p["_ref"] for p in passes])
    metrics = {"setup_s": setup_ratio["median"] * ref["setup_s"],
               "pass_s": pass_ratio["median"] * ref["pass_s"], "peak_rss_mb": peak_mb}
    kinds = sorted({k for p in passes for k in p if not k.startswith("_")})
    detail = {"setup_ratio": setup_ratio, "pass_ratio": pass_ratio, "peak_rss_mb": peak_mb,
              "reference_seconds": ref,
              "raw_setup_s": summary([cur for cur, _ in setup_pairs]),
              "raw_reference_setup_s": summary([r for _, r in setup_pairs]),
              "raw_pass_s": summary([p["_pass"] for p in passes]),
              "raw_reference_pass_s": summary([p["_ref"] for p in passes]),
              "raw_commands_s": {f"{k}_s": summary([p[k] for p in passes]) for k in kinds}}
    return metrics, detail


def measure_traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    from spans import Tracer
    probes = [setup_probe(bench.config_paths[bench.jobs[0].job_id], "--trace")
              for _ in range(TRACED_SETUP_REPEATS)]
    tracer = Tracer()
    plain, traced, layer_runs, share_runs, all_spans = [], [], [], [], []
    start = time.perf_counter()
    while True:
        per_kind = bench.run_pass()
        plain.append(dict(per_kind, _pass=sum(per_kind.values())))
        tracer.reset()
        tracer.install()
        try:
            traced.append(sum(bench.run_pass(tracer).values()))
        finally:
            tracer.uninstall()
        stats = tracer.aggregate()
        layer_runs.append(layer_metrics(stats, tracer.counts))
        share_runs.append(shares(stats))
        all_spans.append(tracer.spans)
        elapsed = time.perf_counter() - start
        if (len(traced) >= MIN_PAIRS
                and elapsed + (plain[-1]["_pass"] + traced[-1]) / 2 > seconds):
            break
    with open(bench.work / "spans.txt", "w") as fh:
        fh.write("# pass id parent start_ns end_ns name\n")
        for k, spans in enumerate(all_spans):
            for sid, (parent, name, s, e) in enumerate(spans):
                fh.write(f"{k} {sid} {parent} {s} {e} {name}\n")

    metrics = {name: statistics.median(r[name] for r in layer_runs) for name in layer_runs[0]}

    def probe_span(name):
        return statistics.median(p["spans"].get(name, 0.0) for p in probes)

    metrics["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
    metrics["config.parse_s"] = probe_span("config.load")
    metrics["config.build_model_s"] = probe_span("config.build_model")
    metrics["topology.build_s"] = probe_span("topology.build")
    kinds = sorted({k for p in plain for k in p if k != "_pass"})
    for kind in ("solve", "evaluate", "train", "sweep", "verify"):
        metrics[f"cmd.{kind}_s"] = (statistics.median(p[kind] for p in plain)
                                    if kind in kinds else 0.0)
    plain_med = statistics.median(p["_pass"] for p in plain)
    traced_med = statistics.median(traced)
    metrics["trace.overhead_s"] = traced_med - plain_med
    metrics["trace.overhead_ratio"] = (traced_med - plain_med) / plain_med
    missing = sorted(set(tracer.missing) | {m for p in probes for m in p["missing"]})
    metrics["trace.missing_hooks"] = len(missing)
    share_med = {}
    for kind in share_runs[0]:
        names = {n for r in share_runs for n in r.get(kind, {})}
        share_med[kind] = {n: round(statistics.median(r.get(kind, {}).get(n, 0.0)
                                                      for r in share_runs), 4)
                           for n in sorted(names)}
    detail = {"untraced_pass_s": summary([p["_pass"] for p in plain]),
              "traced_pass_s": summary(traced), "missing_hooks": missing,
              "shares": share_med, "spans_file": str(bench.work / "spans.txt")}
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ehdfl" / "__init__.py").is_file():
        print(f"error: no ehdfl package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_package()

    bench = Bench(args.workload, args.seed)
    if args.trace:
        values, detail = measure_traced(bench, args.seconds)
        units = {name: _unit(name) for name in values}
    else:
        values, detail = measure(bench, args.seconds)
        units = END_TO_END_UNITS
    failed = len(bench.failures)
    detail.update(workload=args.workload, seed=args.seed, variant=bench.variant,
                  trace=args.trace, fail_ratio=failed / bench.attempted,
                  failures=bench.failures[:20], environment=environment(),
                  sizes=model_sizes(bench.jobs))
    (bench.work / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
