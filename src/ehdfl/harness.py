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
from pathlib import Path

import numpy as np

from .baselines import GreedyPolicy
from .boundlab import contraction_study
from .config import ExperimentConfig
from .dflsim import METRICS_HEADER, convergence_bound, run_training
from .errors import BudgetExceeded, ConfigError
from .localized import save_localized
from .mdp import (GlobalState, backward_induction, check_eval_budget, evaluate_policy,
                  save_solution, simulate_costs)

# Header line of every CSV the harness writes; metrics_seed<s>.csv takes dflsim.METRICS_HEADER.
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
    """One result per seed of a chunk, from one lockstep `run_training` call."""
    mdp, task, policy, seeds, eta, s1 = args
    lockstep = run_training(mdp, task, policy, seeds=seeds, eta=eta, s1=s1)
    return [_seed_result(seed, lockstep[k]) for k, seed in enumerate(seeds)]


def _seed_result(seed, run) -> dict:
    header, rows = run.csv_rows()
    return {
        "seed": seed, "header": header, "rows": rows,
        "final_global": float(run.global_loss[-1]),
        "final_device": float(run.device_loss[-1]),
        "final_consensus": float(run.consensus[-1]),
        "final_opt_gap": float(run.opt_gap[-1]),
        "energy": float(run.energy_spent.sum()),
        "sent": int(run.packets_sent.sum()),
        "dropped": int(run.packets_dropped.sum()),
        "time_avg_grad": float(run.time_avg_grad_sq()) if run.horizon else 0.0,
    }


def _train_seeds(config: ExperimentConfig, mdp, policy, s1, jobs: int) -> list:
    """One result per config seed, on the config's task and step size, in seed order.

    `jobs` splits the seeds into that many contiguous chunks, one `_train_worker`
    call each; a seed's record does not depend on the chunk it runs in.
    """
    task = config.build_task()
    eta = config.step_size(task)
    seeds = list(config.seeds)
    n = max(1, min(jobs, len(seeds)))
    chunks = [seeds[k * len(seeds) // n:(k + 1) * len(seeds) // n] for k in range(n)]
    parts = _pool_map(_train_worker, [(mdp, task, policy, c, eta, s1) for c in chunks], jobs)
    return [res for part in parts for res in part]


def _mc_worker(args):
    mdp, policy, s1, seed, n_samples = args
    return simulate_costs(mdp, policy, s1, n_samples=n_samples, seed=seed)


def _mean_stderr(vals) -> tuple[float, float]:
    """Mean and population standard error, std(ddof=0) / sqrt(n); (mean, 0) for n <= 1.

    The `stderr` columns of summary.csv, evaluate.csv (mc_stderr over seed
    means), final_vs_battery.csv and hops_table.csv all use this estimator.
    """
    arr = np.asarray(vals, dtype=float)
    if arr.size <= 1:
        return float(arr.mean()) if arr.size else 0.0, 0.0
    return float(arr.mean()), float(arr.std(ddof=0) / np.sqrt(arr.size))


# ---------------------------------------------------------------------------
# experiment kinds
# ---------------------------------------------------------------------------

def run_experiment(config: ExperimentConfig, kind: str, *, jobs: int = 1,
                   policy_name: str | None = None) -> Path:
    """Run one experiment kind and return the artifact directory."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if kind == "sweep" and config.sweep_raw is None:
        raise ConfigError(["sweep: config has no 'sweep' section"])
    if config.horizon == 0 and kind in ("solve", "evaluate", "train", "sweep"):
        _write_empty(config, out, kind)
        return out
    if kind == "solve":
        _run_solve(config, out, policy_name)
    elif kind == "evaluate":
        _run_evaluate(config, out, jobs, policy_name)
    elif kind == "train":
        _run_train(config, out, jobs, policy_name)
    elif kind == "sweep":
        _run_sweep(config, out, jobs)
    elif kind == "verify":
        ok = verify_suite(out, config_hash=config.hash)
        if not ok:
            raise ConfigError(["verify: one or more checks failed; see verify.csv"])
    else:
        raise ConfigError([f"kind: unknown experiment kind {kind!r}"])
    return out


def _write_empty(config: ExperimentConfig, out: Path, kind: str) -> None:
    """Zero-slot run: every file the kind would produce, headers only."""
    if kind == "train":
        for s in config.seeds:
            write_csv(out / f"metrics_seed{s}.csv", METRICS_HEADER, [], config.hash)
    for name in OUTPUTS[config.sweep_raw["axis"] if kind == "sweep" else kind]:
        _emit(out, name, [], config.hash)


def _run_solve(config: ExperimentConfig, out: Path, policy_name: str | None) -> None:
    name = policy_name or config.policy_name
    mdp = config.build_model()
    s1 = config.start_state(mdp)
    if name == "centralized_pi":
        sol = backward_induction(mdp, budget=config.budget)
        save_solution(sol, out / "policy_centralized.npz")
        j = sol.expected_cost(s1)
    else:
        check_eval_budget(mdp, config.budget)
        pol = config.build_policy(mdp, name)
        if name == "decentralized_pi":
            save_localized(pol, out / "policy_decentralized.npz")
        j = evaluate_policy(mdp, pol, s1, budget=config.budget)
    _emit(out, "solve_summary.csv", [[name, mdp.n_states, mdp.n_actions, mdp.horizon, j]],
          config.hash)


def _run_evaluate(config: ExperimentConfig, out: Path, jobs: int,
                  policy_name: str | None) -> None:
    name = policy_name or config.policy_name
    mdp = config.build_model()
    s1 = config.start_state(mdp)
    check_eval_budget(mdp, config.budget)
    policy = config.build_policy(mdp, name)
    j_exact = evaluate_policy(mdp, policy, s1, budget=config.budget)
    n_samples = config.mc_samples
    draws = _pool_map(_mc_worker, [(mdp, policy, s1, s, n_samples)
                                   for s in config.seeds], jobs)
    means = [float(np.mean(d)) for d in draws]
    mc_mean, mc_se = _mean_stderr(means)
    _emit(out, "evaluate.csv", [[name, j_exact, mc_mean, mc_se, n_samples, len(config.seeds)]],
          config.hash)


def _run_train(config: ExperimentConfig, out: Path, jobs: int,
               policy_name: str | None) -> None:
    name = policy_name or config.policy_name
    mdp = config.build_model()
    s1 = config.start_state(mdp)
    results = _train_seeds(config, mdp, config.build_policy(mdp, name), s1, jobs)
    for res in results:
        write_csv(out / f"metrics_seed{res['seed']}.csv", res["header"], res["rows"],
                  config.hash)
    final_rows = []
    for key in ("final_global", "final_device", "final_consensus", "final_opt_gap",
                "energy", "sent", "dropped", "time_avg_grad"):
        mean, se = _mean_stderr([r[key] for r in results])
        final_rows.append([key, mean, se, len(results)])
    _emit(out, "summary.csv", final_rows, config.hash)
    _write_slot_means(config, out, results)


def _write_slot_means(config: ExperimentConfig, out: Path, results) -> None:
    """Plot data: per-slot metric means across seeds for the trained policy."""
    rows = []
    if results and results[0]["rows"]:
        header = results[0]["header"]
        cols = {h: k for k, h in enumerate(header)}
        n_slots = len(results[0]["rows"])
        for t in range(n_slots):
            row = [t + 1]
            for metric in ("global_loss", "device_loss", "consensus",
                           "grad_norm_sq_avg_model"):
                row.append(float(np.mean([r["rows"][t][cols[metric]] for r in results])))
            rows.append(row)
    _emit(out, "metric_vs_slots.csv", rows, config.hash)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _run_sweep(config: ExperimentConfig, out: Path, jobs: int) -> None:
    axis = config.sweep_raw["axis"]
    values = config.sweep_raw["values"]
    if axis == "rounds":
        _sweep_rounds(config, out, values)
    elif axis == "capacity":
        _sweep_capacity(config, out, values, jobs)
    else:
        _sweep_hops(config, out, values, jobs)


def _sweep_rounds(config: ExperimentConfig, out: Path, values) -> None:
    """Synthesis-gap decay: one synthesis pass, snapshot every requested round."""
    mdp = config.build_model()
    report = contraction_study(mdp, hops=config.hops, gamma=config.gamma, rounds=max(values),
                               s1=config.start_state(mdp), defaults=config.extension_defaults,
                               declared=config.declared, budget=config.budget)
    fit = report.fit
    d_analytic = "" if report.d_bound is None else report.d_bound
    d_fit, r2 = ("", "") if fit is None else (fit.d_hat, fit.r_squared)
    rows = [[config.gamma, config.hops, r, report.curve.gaps[r], d_analytic, d_fit, r2]
            for r in values]
    _emit(out, "final_vs_rounds.csv", rows, config.hash)


def _capacity_model(config: ExperimentConfig, n_levels: int):
    """Same instance with the battery grown by whole quanta (quantum fixed)."""
    mdp = config.build_model()
    energy = dataclasses.replace(mdp.energy, b_max=mdp.energy.quantum * (n_levels - 1),
                                 n_levels=n_levels)
    mdp = dataclasses.replace(mdp, energy=energy)
    s1_base = config.start_state(mdp)
    s1 = GlobalState(gains=s1_base.gains,
                     batteries=tuple(n_levels - 1 for _ in range(mdp.m)))
    return mdp, s1


def _sweep_capacity(config: ExperimentConfig, out: Path, values, jobs: int) -> None:
    rows = []
    for n_levels in values:
        mdp, s1 = _capacity_model(config, n_levels)
        sol = backward_induction(mdp, budget=config.budget)
        j_star = sol.expected_cost(s1)
        loss_mean, loss_se = "", ""
        if config.sweep_train:
            results = _train_seeds(config, mdp, config.build_policy(mdp), s1, jobs)
            loss_mean, loss_se = _mean_stderr([r["final_device"] for r in results])
        rows.append([n_levels, mdp.energy.b_max, j_star, loss_mean, loss_se])
    _emit(out, "final_vs_battery.csv", rows, config.hash)


def _sweep_hops(config: ExperimentConfig, out: Path, values, jobs: int) -> None:
    mdp = config.build_model()
    s1 = config.start_state(mdp)
    check_eval_budget(mdp, config.budget)
    rows = []
    for hops in values:
        policy = config.build_policy(mdp, "decentralized_pi", hops=hops)
        j = evaluate_policy(mdp, policy, s1, budget=config.budget)
        results = _train_seeds(config, mdp, policy, s1, jobs)
        loss_mean, loss_se = _mean_stderr([r["final_device"] for r in results])
        rows.append([hops, j, loss_mean, loss_se, len(results)])
    _emit(out, "hops_table.csv", rows, config.hash)


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
    flat = np.ravel_multi_index((*gains.T, *bats.T), mdp.link_dims + mdp.bat_dims)
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
    mdp = inst.mdp
    task = make_quadratic_task(mdp.m, 6, 12, heterogeneity=1.5, seed=3)
    run = run_training(mdp, task, GreedyPolicy(mdp), seeds=[11], eta=0.1,
                       horizon=8, per_override=0.0, s1=inst.s1,
                       record_models=True)[0]
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
    mixing = np.full((m, m), 1.0 / m)
    bound = convergence_bound(consts, 0.5, m, horizon, 1.0,
                              np.ones((horizon, m)), np.zeros((horizon, m, m)),
                              mixing)
    return abs(bound.terms[5])


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

    inst = insts["tiny-a"]
    mdp = inst.mdp
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        s = int(rng.integers(mdp.n_states))
        a = int(rng.integers(mdp.n_actions))
        total = mdp.one_step_cost(s, a)
        parts = sum(mdp.device_cost(s, a, i) for i in range(mdp.m))
        worst = max(worst, abs(total - parts))
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
        out.mkdir(parents=True, exist_ok=True)
        _emit(out, "verify.csv", [list(c) for c in checks], config_hash)
    for name, value, threshold, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {value:.3e} (tol {threshold:g})")
    return ok


def action_feasibility(mdp) -> np.ndarray:
    """Bool (n_actions, n_battery_cfgs): joint action feasible at battery config."""
    na, nbc = mdp.n_actions, mdp.n_battery_cfgs
    if na * nbc > 200_000_000:
        raise BudgetExceeded(f"action feasibility table too large ({na}x{nbc})")
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
    start state. Each (state, action) pair's cost and transition come from the
    scalar model queries once, and every assignment reuses them.
    """
    feas = action_feasibility(mdp)  # (n_actions, n_battery_cfgs)
    nbc = mdp.n_battery_cfgs
    steps: dict[tuple[int, int], tuple[float, dict]] = {}

    def acts(s):
        return np.nonzero(feas[:, s % nbc])[0]

    def step(s, a):
        if (s, a) not in steps:
            steps[(s, a)] = (mdp.one_step_cost(s, a), mdp.transition(s, a))
        return steps[(s, a)]

    s0 = mdp.state_index(s1)
    reach = [{s0}]
    for _ in range(1, mdp.horizon):
        nxt = set()
        for s in reach[-1]:
            for a in acts(s):
                nxt |= set(step(int(s), int(a))[1])
        reach.append(nxt)
    slots = [(t, s) for t, states in enumerate(reach) for s in sorted(states)]
    choices = [acts(s) for _, s in slots]
    n_assign = math.prod(len(c) for c in choices)
    if n_assign > 400_000:
        raise ValueError(f"instance too large for exhaustive enumeration "
                         f"({n_assign} assignments)")
    pos = {ts: k for k, ts in enumerate(slots)}
    last = mdp.horizon - 1
    best = np.inf
    for assign in itertools.product(*choices):
        rho = {s0: 1.0}
        total = 0.0
        for t in range(mdp.horizon):
            nxt: dict[int, float] = {}
            for s, p in rho.items():
                cost, trans = step(s, int(assign[pos[(t, s)]]))
                total += p * cost
                if t < last:  # the last slot's next states are never read
                    for s2, q in trans.items():
                        nxt[s2] = nxt.get(s2, 0.0) + p * q
            rho = nxt
        best = min(best, total)
    return float(best)
