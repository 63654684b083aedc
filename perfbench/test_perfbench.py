"""Tests of the benchmark itself: inputs, tracing, correctness checks, output contract."""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import ROOT, Bench, import_package, main  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import N_VARIANTS, WORKLOADS, Job, jobs_for  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_config_generator_is_deterministic_in_the_seed(workload):
    from ehdfl.config import parse_config
    assert jobs_for(workload, 3) == jobs_for(workload, 3)
    assert jobs_for(workload, 3) == jobs_for(workload, 3 + N_VARIANTS)
    sizes = set()
    for seed in (0, 1):
        for job in jobs_for(workload, seed):
            mdp = parse_config(job.raw).build_model()
            sizes.add((job.job_id, mdp.n_states, mdp.n_actions, mdp.horizon))
    # the seed changes inputs, never model sizes
    assert len(sizes) == len(jobs_for(workload, 0))
    assert jobs_for(workload, 0) != jobs_for(workload, 1)


def _csv_bytes(bench):
    return {(job.job_id, p.name): p.read_bytes()
            for job in bench.jobs for p in sorted(bench.out_dir(job).glob("*.csv"))}


def test_traced_outputs_are_byte_identical_to_untraced():
    import_package()
    import ehdfl.harness
    original = ehdfl.harness.run_experiment
    bench = Bench("small-models", 5)
    # add the Monte Carlo and training paths on the small capacity model
    cap = next(job for job in bench.jobs if job.job_id == "sweep-capacity")
    for kind, policy in (("evaluate", "greedy"), ("train", None)):
        job = Job(f"{kind}-capacity", kind, dict(cap.raw, mc_samples=50), policy)
        path = bench.work / "configs" / f"{job.job_id}.json"
        path.write_text(json.dumps(dict(job.raw, out_dir=str(bench.out_dir(job)))))
        bench.config_paths[job.job_id] = path
        bench.jobs.append(job)
    _, errors = bench.run_jobs()
    assert not errors
    plain = _csv_bytes(bench)
    tracer = Tracer()
    tracer.install()
    try:
        _, errors = bench.run_jobs(tracer)
    finally:
        tracer.uninstall()
    assert not errors
    assert _csv_bytes(bench) == plain
    assert ehdfl.harness.run_experiment is original
    names = {name for _, name in tracer.aggregate()}
    assert {"harness.verify_suite", "mdp.simulate_costs", "dflsim.run_training",
            "localized.synthesize", "channel.step_links"} <= names
    assert tracer.missing == []


def test_a_perturbed_reference_is_reported():
    bench = Bench("small-models", 2)
    bench.run_pass()
    assert bench.failures == []
    refs = copy.deepcopy(bench.refs)
    gap = refs["sweep-tiny-rounds"]["final_vs_rounds.csv"]["rows"][3]
    gap[3] = repr(float(gap[3]) * (1 + 1e-9))
    refs["sweep-capacity"]["final_vs_battery.csv"]["rows"][0][3] = "0.5"
    bench.refs = refs
    bench.run_pass()
    assert len(bench.failures) == 2
    assert len(bench.failures) / bench.attempted > 0


def test_a_missing_hook_is_reported_not_raised():
    from spans import HOOKS, Hook
    tracer = Tracer(HOOKS + (Hook("mdp.gone", "mdp", "no_such_function"),
                             Hook("mdp.gone", "mdp", "GlobalMdp.no_such_method")))
    import_package()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["mdp.no_such_function", "mdp.GlobalMdp.no_such_method"]


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_benchmark_json(trace, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert main(["--workload", "small-models", "--seed", "1", "--seconds", "0",
                 "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "refs"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small-models",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
