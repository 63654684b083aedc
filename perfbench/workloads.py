"""Workload definitions: seeded experiment configs and the jobs run on them.

A workload seed picks the Monte Carlo and training seed lists, the task data
seed and, on the desk rings, the start state.  Model sizes never depend on it.
Seeds are folded onto ``N_VARIANTS`` variants, so the stored references cover
every seed; equal seeds always give equal inputs.

Horizons are far below the shipped configs' T = 40 so that one pass of a
workload takes seconds and a run can time several passes; the per-slot
figures in NOTES.md relate them to the full-horizon baseline.
"""
from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_VARIANTS = 16
CONFIGS = Path(__file__).resolve().parents[1] / "configs"

WORKLOADS = {
    "desk-exact": "exact DP, cost table and exact evaluation on the 8-device desk ring; "
                  "synthesis, Monte Carlo and training idle",
    "desk-synth": "hops-2 localized synthesis: a desk train job and a capacity sweep "
                  "on the 6-device ring at 3 battery levels",
    "desk-rollout": "Monte Carlo rollouts and the training co-simulation with greedy "
                    "and hops-1 decentralized policies on the desk ring",
    "small-models": "verify plus the shipped tiny_rounds and capacity sweeps, where "
                    "per-call overhead dominates",
}


@dataclass(frozen=True)
class Job:
    """One CLI-equivalent run: ``ehdfl <kind> --config <raw> [--policy ...]``."""

    job_id: str
    kind: str
    raw: dict
    policy: str | None = None


def variant_of(seed: int) -> int:
    return int(seed) % N_VARIANTS


def _shipped(name: str) -> dict:
    return json.loads((CONFIGS / name).read_text())


def _draws(variant: int):
    rng = np.random.default_rng(np.random.SeedSequence(variant, spawn_key=(7,)))
    base = int(rng.integers(0, 100_000))
    task_seed = int(rng.integers(0, 1000))
    gains = [int(g) for g in rng.integers(0, 2, size=8)]
    bats = [int(b) for b in rng.integers(0, 2, size=8)]
    return base, task_seed, gains, bats


def _desk(horizon: int, task_seed: int, gains, bats, seeds) -> dict:
    raw = _shipped("desk8.json")
    raw.update(horizon=horizon, seeds=list(seeds),
               s1={"gains": list(gains), "batteries": list(bats)})
    raw["task"]["seed"] = task_seed
    return raw


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The jobs of one pass of ``workload`` for workload seed ``seed``."""
    base, task_seed, gains, bats = _draws(variant_of(seed))
    if workload == "desk-exact":
        raw = _desk(2, task_seed, gains, bats, [base])
        return [Job(f"solve-{p}", "solve", raw, p)
                for p in ("centralized_pi", "greedy", "myopic_central")]
    if workload == "desk-synth":
        train = _desk(2, task_seed, gains, bats, range(base, base + 4))
        ring6 = _desk(2, task_seed, gains[:6], [1] * 6, range(base, base + 4))
        ring6["name"] = "ring6-capacity"
        ring6["topology"] = {"kind": "ring", "m": 6}
        ring6["policy"] = {"name": "decentralized_pi", "gamma": 512.0, "rounds": 2,
                           "hops": 2}
        ring6["sweep"] = {"axis": "capacity", "values": [2, 3], "train": True}
        return [Job("train-dec2", "train", train),
                Job("sweep-capacity-ring6", "sweep", ring6)]
    if workload == "desk-rollout":
        mc = _desk(2, task_seed, gains, bats, range(base, base + 8))
        mc["mc_samples"] = 120
        tr = _desk(2, task_seed, gains, bats, range(base, base + 60))
        mc1, tr1 = copy.deepcopy(mc), copy.deepcopy(tr)
        mc1["policy"]["hops"] = tr1["policy"]["hops"] = 1
        return [Job("evaluate-greedy", "evaluate", mc, "greedy"),
                Job("evaluate-dec1", "evaluate", mc1),
                Job("train-greedy", "train", tr, "greedy"),
                Job("train-dec1", "train", tr1)]
    if workload == "small-models":
        tiny = _shipped("tiny_rounds.json")
        cap = _shipped("capacity.json")
        cap["seeds"] = list(range(base, base + 5))
        cap["task"]["seed"] = task_seed
        return [Job("verify", "verify", tiny),
                Job("sweep-tiny-rounds", "sweep", tiny),
                Job("sweep-capacity", "sweep", cap)]
    raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")


# Median wall seconds of the frozen reference copy (perfbench/reference) on
# the machine described in NOTES.md; they turn measured/reference time ratios
# into reference-seconds.  Fixed once, when the benchmark was defined.
REFERENCE_SECONDS = {
    "desk-exact": {"setup_s": 0.808, "pass_s": 1.928},
    "desk-synth": {"setup_s": 0.636, "pass_s": 3.970},
    "desk-rollout": {"setup_s": 0.753, "pass_s": 2.585},
    "small-models": {"setup_s": 0.657, "pass_s": 1.293},
}
