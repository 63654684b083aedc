"""Experiment orchestration: artifact directories, CSV emitters, parallel seeds.

Every output file starts with a ``# config <hash>`` line so an artifact can
always be traced back to the exact configuration that produced it. All floats
are written with ``%.17g`` so repeated runs produce byte-identical files, and
parallel work is collected by task index, never by completion order, so the
``--jobs`` degree cannot change any output.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
from pathlib import Path

import numpy as np

from .baselines import GreedyPolicy
from .boundlab import contraction_study
from .config import POLICY_NAMES, ExperimentConfig
from .dflsim import DflRun, convergence_bound, run_training
from .errors import ConfigError
from .localized import save_localized
from .mdp import (TRANSITION_SUPPORT, GlobalState, backward_induction, check_eval_budget,
                  check_size, evaluate_policy, save_solution, simulate_costs)
from .topology import build_topology

# Header line of each metrics_seed<s>.csv, one row per slot of that seed's training record.
METRICS_HEADER = ("slot", "grad_norm_sq_avg_model", "consensus", "global_loss",
                  "device_loss", "opt_gap", "energy_spent_total", "packets_sent",
                  "packets_dropped")
# Header line of every other CSV the harness writes.
HEADERS = {
    "solve_summary.csv": ("policy", "n_states", "n_actions", "horizon", "expected_cost"),
    "evaluate.csv": ("policy", "expected_cost", "mc_mean", "mc_stderr", "mc_samples",
                     "mc_seeds"),
    "summary.csv": ("metric", "mean", "stderr", "seeds"),
    "metric_vs_slots.csv": ("slot", "global_loss", "device_loss", "consensus",
                            "grad_norm_sq_avg_model"),
    "final_vs_rounds.csv": ("gamma", "kappa", "R", "gap", "D_analytic", "D_fit", "r2"),
    "final_vs_battery.csv": ("n_levels", "b_max", "optimal_cost", "final_device_loss_mean",
                             "final_device_loss_stderr"),
    "hops_table.csv": ("hops", "expected_cost", "final_device_loss_mean",
                       "final_device_loss_stderr", "seeds"),
    "verify.csv": ("check", "value", "threshold", "pass"),
}
# The HEADERS files each kind writes (a sweep: per axis), besides metrics_seed<s>.csv.
OUTPUTS = {"solve": ("solve_summary.csv",), "evaluate": ("evaluate.csv",),
           "train": ("summary.csv", "metric_vs_slots.csv"), "rounds": ("final_vs_rounds.csv",),
           "capacity": ("final_vs_battery.csv",), "hops": ("hops_table.csv",)}


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(path: Path, header, rows, config_hash: str) -> None:
    lines = [f"# config {config_hash}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _emit(out: Path, name: str, rows, config_hash: str) -> None:
    """Write out/name under its HEADERS line."""
    write_csv(out / name, HEADERS[name], rows, config_hash)


def _pool_map(fn, tasks, jobs: int):
    """Order-preserving map; a pool is only spun up when it can actually help."""
    tasks = list(tasks)
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


# ---------------------------------------------------------------------------
# per-seed workers (module level so they pickle)
# ---------------------------------------------------------------------------

def _train_worker(args):
    """One chunk's record, from one lockstep `run_training` call."""
    mdp, task, policy, seeds, eta, s1 = args
    return run_training(mdp, task, policy, seeds=seeds, eta=eta, s1=s1)


def _train_seeds(config: ExperimentConfig, mdp, policy, s1, jobs: int) -> DflRun:
    """One `DflRun` over the config seeds, on the config's task and step size, in seed order.

    `jobs` splits the seeds into that many contiguous chunks, one `_train_worker`
    call each, whose records are joined along the seed axis in chunk order; a
    seed's record does not depend on the chunk it runs in.
    """
    task = config.build_task()
    eta = config.step_size(task)
    seeds = list(config.seeds)
    n = max(1, min(jobs, len(seeds)))
    chunks = [seeds[k * len(seeds) // n:(k + 1) * len(seeds) // n] for k in range(n)]
    parts = _pool_map(_train_worker, [(mdp, task, policy, c, eta, s1) for c in chunks], jobs)
    if len(parts) == 1:
        return parts[0]
    return dataclasses.replace(parts[0], **{
        f.name: np.concatenate([getattr(p, f.name) for p in parts])
        for f in dataclasses.fields(DflRun)[1:]})


def _mc_worker(args):
    mdp, policy, s1, seed, n_samples = args
    return simulate_costs(mdp, policy, s1, n_samples=n_samples, seed=seed)


def _mean_stderr(vals) -> tuple[float, float]:
    """Mean and population standard error, std(ddof=0) / sqrt(n); (mean, 0.0) for one value.

    The `stderr` columns of summary.csv, evaluate.csv (mc_stderr over seed
    means), final_vs_battery.csv and hops_table.csv all use this estimator.
    """
    arr = np.asarray(vals, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is refused later
        return float(arr.mean()), float(arr.std(ddof=0) / np.sqrt(arr.size))


# ---------------------------------------------------------------------------
# experiment kinds
# ---------------------------------------------------------------------------

def run_experiment(config: ExperimentConfig, kind: str, *, jobs: int = 1,
                   policy_name: str | None = None) -> Path:
    """Run one experiment kind and return the artifact directory.

    The one place a command's model, start state and policy name are made: each
    runner gets them as `(mdp, s1, name)`, and a command that trains has its
    device-loss work checked here, before any policy is built. An unknown `--policy`
    is refused before anything, and `jobs` is capped at the usable CPUs.
    """
    if policy_name is not None and policy_name not in POLICY_NAMES:
        raise ConfigError([f"--policy: {policy_name!r} not one of {POLICY_NAMES}"])
    jobs = min(jobs, len(os.sched_getaffinity(0)))
    out = Path(config.out_dir)  # made by the first file written into it
    if kind == "sweep" and config.sweep_raw is None:
        raise ConfigError(["sweep: config has no 'sweep' section"])
    key = config.sweep_raw["axis"] if kind == "sweep" else kind
    if config.horizon == 0 and kind in ("solve", "evaluate", "train", "sweep"):
        _write_empty(config, out, key)
        return out
    if kind == "verify":
        if not verify_suite(out, config_hash=config.hash):
            raise ConfigError(["verify: one or more checks failed; see verify.csv"])
        return out
    if kind not in ("solve", "evaluate", "train", "sweep"):
        raise ConfigError([f"kind: unknown experiment kind {kind!r}"])
    mdp = config.build_model()
    s1 = config.start_state(mdp)
    if key in ("train", "hops") or key == "capacity" and config.sweep_train:
        # the device-loss metric: m (m + 1) local losses per seed per logged slot
        check_size("training", len(config.seeds) * config.horizon * mdp.m ** 2, config.budget,
                   "device-loss evaluations (seeds x slots x devices^2)")
    RUNNERS[key](config, out, jobs, mdp, s1, policy_name or config.policy_name)
    return out


def _write_empty(config: ExperimentConfig, out: Path, key: str) -> None:
    """Zero-slot run: every file the kind would produce, headers only."""
    if key == "train":
        for s in config.seeds:
            write_csv(out / f"metrics_seed{s}.csv", METRICS_HEADER, [], config.hash)
    for name in OUTPUTS[key]:
        _emit(out, name, [], config.hash)


def _exact_cost(config: ExperimentConfig, mdp, s1, name: str, *, hops: int | None = None,
                artifact: Path | None = None):
    """The named policy and its exact cost from s1. Exact evaluation's size is checked
    before the policy is built, so an oversized model never waits on a synthesis; a
    decentralized policy is saved to `artifact` when one is given."""
    check_eval_budget(mdp, config.budget)
    policy = config.build_policy(mdp, name, hops=hops)
    if artifact is not None and name == "decentralized_pi":
        save_localized(policy, artifact)
    return policy, evaluate_policy(mdp, policy, s1, budget=config.budget)


def _run_solve(config: ExperimentConfig, out: Path, jobs: int, mdp, s1, name: str) -> None:
    if name == "centralized_pi":
        sol = backward_induction(mdp, budget=config.budget)
        save_solution(sol, out / "policy_centralized.npz")
        j = sol.expected_cost(s1)
    else:
        j = _exact_cost(config, mdp, s1, name, artifact=out / "policy_decentralized.npz")[1]
    _emit(out, "solve_summary.csv", [[name, mdp.n_states, mdp.n_actions, mdp.horizon, j]],
          config.hash)


def _run_evaluate(config: ExperimentConfig, out: Path, jobs: int, mdp, s1, name: str) -> None:
    policy, j_exact = _exact_cost(config, mdp, s1, name)
    n_samples = config.mc_samples
    draws = _pool_map(_mc_worker, [(mdp, policy, s1, s, n_samples)
                                   for s in config.seeds], jobs)
    means = [float(np.mean(d)) for d in draws]
    mc_mean, mc_se = _mean_stderr(means)
    _emit(out, "evaluate.csv", [[name, j_exact, mc_mean, mc_se, n_samples, len(config.seeds)]],
          config.hash)


def _run_train(config: ExperimentConfig, out: Path, jobs: int, mdp, s1, name: str) -> None:
    run = _train_seeds(config, mdp, config.build_policy(mdp, name), s1, jobs)
    T = run.horizon
    files = {f"metrics_seed{seed}.csv": (METRICS_HEADER, list(zip(
        range(1, T + 1), run.grad_norm_sq[k], run.consensus[k, :T], run.global_loss[k, :T],
        run.device_loss[k, :T], run.opt_gap[k, :T], run.energy_spent[k], run.packets_sent[k],
        run.packets_dropped[k]))) for k, seed in enumerate(config.seeds)}
    # Statistics over seeds reduce one 1-D column at a time: mean(axis=0) adds in another order.
    finals = {"final_global": run.global_loss[:, -1], "final_device": run.device_loss[:, -1],
              "final_consensus": run.consensus[:, -1], "final_opt_gap": run.opt_gap[:, -1],
              "energy": run.energy_spent.sum(axis=1), "sent": run.packets_sent.sum(axis=1),
              "dropped": run.packets_dropped.sum(axis=1),
              "time_avg_grad": run.grad_norm_sq.mean(axis=1)}
    files["summary.csv"] = (HEADERS["summary.csv"],
                            [[key, *_mean_stderr(col), len(col)] for key, col in finals.items()])
    slot_cols = (run.global_loss, run.device_loss, run.consensus, run.grad_norm_sq)
    files["metric_vs_slots.csv"] = (
        HEADERS["metric_vs_slots.csv"],
        [[t + 1, *(float(np.mean(col[:, t])) for col in slot_cols)] for t in range(T)])
    for fname, (header, rows) in files.items():  # every file checked before any is written
        _refuse_non_finite(fname, header, rows)
    for fname, (header, rows) in files.items():
        write_csv(out / fname, header, rows, config.hash)


def _refuse_non_finite(name: str, header, rows) -> None:
    """ConfigError at a training file's first non-finite float: the task overflowed."""
    for row in rows:
        for col, x in zip(header, row):
            if isinstance(x, float) and not math.isfinite(x):
                raise ConfigError([f"task: training wrote {x} to {name}, column {col}; "
                                   "the task data are too large for floats"])


# ---------------------------------------------------------------------------
# sweeps (rounds and hops synthesize `decentralized_pi`; capacity trains the named policy)
# ---------------------------------------------------------------------------

def _sweep_rounds(config: ExperimentConfig, out: Path, jobs: int, mdp, s1, name: str) -> None:
    """Synthesis-gap decay: one synthesis pass, snapshot every requested round."""
    values = config.sweep_raw["values"]
    report = contraction_study(mdp, hops=config.hops, gamma=config.gamma, rounds=max(values),
                               s1=s1, defaults=config.extension_defaults,
                               declared=config.declared, budget=config.budget)
    fit = report.fit
    d_analytic = "" if report.d_bound is None else report.d_bound
    d_fit, r2 = ("", "") if fit is None else (fit.d_hat, fit.r_squared)
    rows = [[config.gamma, config.hops, r, report.curve.gaps[r], d_analytic, d_fit, r2]
            for r in values]
    _emit(out, "final_vs_rounds.csv", rows, config.hash)


def _sweep_capacity(config: ExperimentConfig, out: Path, jobs: int, mdp, s1, name: str) -> None:
    """The same instance with the battery grown by whole quanta (quantum fixed), started full."""
    rows = []
    for n_levels in config.sweep_raw["values"]:
        energy = dataclasses.replace(mdp.energy, b_max=mdp.energy.quantum * (n_levels - 1),
                                     n_levels=n_levels)
        grown = dataclasses.replace(mdp, energy=energy)
        full = GlobalState(gains=s1.gains, batteries=(n_levels - 1,) * mdp.m)
        sol = backward_induction(grown, budget=config.budget)
        j_star = sol.expected_cost(full)
        loss_mean, loss_se = "", ""
        if config.sweep_train:
            run = _train_seeds(config, grown, config.build_policy(grown, name), full, jobs)
            loss_mean, loss_se = _mean_stderr(run.device_loss[:, -1])
        rows.append([n_levels, energy.b_max, j_star, loss_mean, loss_se])
    _refuse_non_finite("final_vs_battery.csv", HEADERS["final_vs_battery.csv"], rows)
    _emit(out, "final_vs_battery.csv", rows, config.hash)


def _sweep_hops(config: ExperimentConfig, out: Path, jobs: int, mdp, s1, name: str) -> None:
    rows = []
    for hops in config.sweep_raw["values"]:
        policy, j = _exact_cost(config, mdp, s1, "decentralized_pi", hops=hops)
        run = _train_seeds(config, mdp, policy, s1, jobs)
        loss_mean, loss_se = _mean_stderr(run.device_loss[:, -1])
        rows.append([hops, j, loss_mean, loss_se, len(config.seeds)])
    _refuse_non_finite("hops_table.csv", HEADERS["hops_table.csv"], rows)
    _emit(out, "hops_table.csv", rows, config.hash)


# Each command's runner, keyed like OUTPUTS: by kind, and a sweep by its axis.
RUNNERS = {"solve": _run_solve, "evaluate": _run_evaluate, "train": _run_train,
           "rounds": _sweep_rounds, "capacity": _sweep_capacity, "hops": _sweep_hops}


# ---------------------------------------------------------------------------
# verification battery
# ---------------------------------------------------------------------------

def mc_transition_error(mdp, state, levels, *, n_draws: int = 100_000,
                        seed: int = 0) -> float:
    """Largest |empirical - model| next-state probability.

    Draws advance each gain chain and each battery independently from their
    factor kernels, so agreement checks the product composition inside
    ``transition`` and not just one sampler against itself.
    """
    state, levels = mdp.decoded(state, levels)
    model = mdp.transition(state, levels)
    rng = np.random.default_rng(seed)
    gains = np.empty((n_draws, mdp.n_links), dtype=np.int64)
    for e, chain in enumerate(mdp.chains):
        row = chain.psi[state.gains[e]]
        gains[:, e] = rng.choice(chain.n, size=n_draws, p=row)
    bats = np.empty((n_draws, mdp.m), dtype=np.int64)
    for i in range(mdp.m):
        row = mdp.battery_kernels[i][levels[i], state.batteries[i]]
        bats[:, i] = rng.choice(mdp.energy.n_levels, size=n_draws, p=row)
    flat = np.ravel_multi_index((*gains.T, *bats.T), mdp.state_shape)
    counts = np.bincount(flat, minlength=mdp.n_states) / n_draws
    worst = 0.0
    for s2, p in model.items():
        worst = max(worst, abs(counts[s2] - p))
        counts[s2] = 0.0
    if counts.any():
        worst = max(worst, float(counts.max()))  # mass outside the support
    return worst


def _gossip_replay_error() -> float:
    """Recorded lossless run vs an independent gossip recursion, max |diff|."""
    from .instances import tiny_instances
    from .learning import make_quadratic_task

    inst = tiny_instances()["tiny-a"]
    mdp = dataclasses.replace(inst.mdp, horizon=8)
    task = make_quadratic_task(mdp.m, 6, 12, heterogeneity=1.5, seed=3)
    run = run_training(mdp, task, GreedyPolicy(mdp), seeds=[11], eta=0.1,
                       per_override=0.0, s1=inst.s1, record_models=True)[0]
    mixing, neighbors = mdp.topo.mixing, mdp.topo.neighbors
    models = [w.copy() for w in run.models[0]]
    worst = 0.0
    for t in range(run.horizon):
        beta, deltas = run.beta[t], run.deltas[t]
        nxt = []
        for i in range(mdp.m):
            acc = models[i].copy()
            for j in sorted(set(neighbors[i]) | {i}):
                if beta[j]:
                    acc += mixing[i, j] * deltas[j]
            nxt.append(acc)
        models = nxt
        ref = run.models[t + 1] if t + 1 < run.horizon else run.final_models
        for w_ref, w in zip(ref, models):
            worst = max(worst, float(np.abs(w_ref - w).max()))
    return worst


def _bound_per_term() -> float:
    """Packet term of the rate certificate under full participation, no loss."""
    from .learning import LearnConsts

    m, horizon = 4, 25
    consts = LearnConsts(lipschitz=1.0, sigma_l=0.0, sigma_g=0.5,
                         grad_bound=1.0, eta=0.01, k_steps=2)
    topo = build_topology("complete", m)  # Metropolis weights 1/m
    bound = convergence_bound(consts, 0.5, topo, horizon, 1.0, np.ones((horizon, m)),
                              np.zeros((horizon, len(topo.links.rx))))
    return abs(bound.terms[5])


def _decomposition_error(mdp) -> float:
    """Largest |one-slot cost - sum of the device shares| over 1000 random (state, action) pairs.

    The pairs are drawn from `default_rng(0)` as a state, then an action, pair by
    pair; the shares are summed in device order from 0, as `sum()` adds them.
    """
    states, actions = np.random.default_rng(0).integers(
        [mdp.n_states, mdp.n_actions], size=(1000, 2)).T
    parts = sum(mdp.one_step_costs(states, actions, i) for i in range(mdp.m))
    return float(np.abs(mdp.one_step_costs(states, actions) - parts).max(initial=0.0))


def verify_suite(out: Path | None = None, *, config_hash: str = "builtin") -> bool:
    """Deterministic oracle and invariant checks on the pinned instances."""
    from .instances import capacity_family, oracle_instance, tiny_instances
    checks: list[tuple[str, float, float, bool]] = []
    insts = tiny_instances()
    cases = [(name, inst.mdp, inst.s1) for name, inst in insts.items()]
    cases.append(("pair", *oracle_instance()))
    for name, case_mdp, case_s1 in cases:
        j_dp = backward_induction(case_mdp).expected_cost(case_s1)
        j_enum = exhaustive_minimum(case_mdp, case_s1)
        err = abs(j_dp - j_enum)
        checks.append((f"exact-oracle-{name}", err, 1e-9, err <= 1e-9))

    mdp = insts["tiny-a"].mdp
    worst = _decomposition_error(mdp)
    checks.append(("cost-decomposition", worst, 1e-12, worst <= 1e-12))

    worst = 0.0
    for chain in mdp.chains:
        worst = max(worst, float(np.abs(chain.psi.sum(axis=1) - 1.0).max()))
    for kern in mdp.battery_kernels:
        worst = max(worst, float(np.abs(kern.sum(axis=-1) - 1.0).max()))
    checks.append(("kernel-rows", worst, 1e-10, worst <= 1e-10))

    mdp_mv, s1_mv = capacity_family(2)  # stochastic gains, so the draw is non-trivial
    mc = mc_transition_error(mdp_mv, mdp_mv.state_index(s1_mv), mdp_mv.n_actions - 1)
    checks.append(("mc-transition", mc, 0.01, mc <= 0.01))

    replay = _gossip_replay_error()
    checks.append(("gossip-replay", replay, 0.0, replay == 0.0))

    per_term = _bound_per_term()
    checks.append(("bound-per-term-zero", per_term, 0.0, per_term == 0.0))

    ok = all(c[-1] for c in checks)
    if out is not None:
        _emit(out, "verify.csv", [list(c) for c in checks], config_hash)
    for name, value, threshold, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {value:.3e} (tol {threshold:g})")
    return ok


def action_feasibility(mdp) -> np.ndarray:
    """Bool (n_actions, n_battery_cfgs): joint action feasible at battery config."""
    na, nbc = mdp.n_actions, mdp.n_battery_cfgs
    check_size("action feasibility", na * nbc, 200_000_000,
               "table entries (actions x battery configurations)")
    levels = np.unravel_index(np.arange(na), mdp.act_dims)
    bats = np.unravel_index(np.arange(nbc), mdp.bat_dims)
    feas = np.ones((na, nbc), dtype=bool)
    for d, mask in enumerate(mdp.feasible_level_masks):
        feas &= mask[np.ix_(levels[d], bats[d])]
    return feas


def exhaustive_minimum(mdp, s1) -> float:
    """Minimum cost over every deterministic assignment on reachable slots.

    Enumerating full Markov policies is hopeless even on toy models, but the
    cost from a fixed start state only depends on choices at states actually
    reachable from it; enumerating those assignments is exhaustive for this
    start state. Each (state, action) pair is priced once: the costs of a
    slot's new pairs in one batched query, their transitions one by one; every
    assignment reuses them. Before a slot's pairs are priced, the next-state
    entries their transitions would build are counted from the row supports of
    the link chains and battery kernels, and refused past TRANSITION_SUPPORT.
    """
    feas = action_feasibility(mdp)  # (n_actions, n_battery_cfgs)
    nbc = mdp.n_battery_cfgs
    cost: dict[tuple[int, int], float] = {}
    trans: dict[tuple[int, int], dict] = {}
    link_sup = [np.count_nonzero(chain.psi, axis=1).tolist() for chain in mdp.chains]
    bat_sup = [np.count_nonzero(kb, axis=-1).tolist() for kb in mdp.battery_kernels]

    def acts(s):
        return np.nonzero(feas[:, s % nbc])[0]

    def support(s, a):  # len(mdp.transition(s, a)), in Python ints
        state, levels = mdp.decoded(s, a)
        return (math.prod(sup[g] for sup, g in zip(link_sup, state.gains))
                * math.prod(sup[l][b] for sup, l, b in zip(bat_sup, levels, state.batteries)))

    def price(states):
        new = [(s, int(a)) for s in sorted(states) for a in acts(s) if (s, int(a)) not in cost]
        if new:
            check_size("exhaustive enumeration", sum(support(*sa) for sa in new),
                       TRANSITION_SUPPORT, "next-state entries (one slot's new transitions)")
            cost.update(zip(new, mdp.one_step_costs(*np.array(new).T).tolist()))
            trans.update((sa, mdp.transition(*sa)) for sa in new)

    s0 = mdp.state_index(s1)
    reach = [{s0}]
    for _ in range(1, mdp.horizon):
        price(reach[-1])
        reach.append(set().union(*(trans[(s, int(a))] for s in reach[-1] for a in acts(s))))
    slots = [(t, s) for t, states in enumerate(reach) for s in sorted(states)]
    choices = [acts(s) for _, s in slots]
    check_size("exhaustive enumeration", math.prod(len(c) for c in choices), 400_000,
               "assignments (one action per reachable slot and state)")
    price(reach[-1])
    pos = {ts: k for k, ts in enumerate(slots)}
    last = mdp.horizon - 1
    best = np.inf
    for assign in itertools.product(*choices):
        rho = {s0: 1.0}
        total = 0.0
        for t in range(mdp.horizon):
            nxt: dict[int, float] = {}
            for s, p in rho.items():
                sa = (s, int(assign[pos[(t, s)]]))
                total += p * cost[sa]
                if t < last:  # the last slot's next states are never read
                    for s2, q in trans[sa].items():
                        nxt[s2] = nxt.get(s2, 0.0) + p * q
            rho = nxt
        best = min(best, total)
    return float(best)
