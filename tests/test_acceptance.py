"""Acceptance gate: ten go/no-go checks over the whole toolkit.

Each test prints one `C<n> PASS/FAIL` line through the terminal reporter, then
asserts, so a full run always shows the per-criterion scoreboard.
"""
import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ehdfl.boundlab import fit_rate, gap_curve, temperature_cap
from ehdfl.baselines import GreedyPolicy
from ehdfl.dflsim import convergence_bound, run_training
from ehdfl.harness import action_feasibility, exhaustive_minimum, mc_transition_error
from ehdfl.instances import (capacity_family, capacity_pair, desk_scenario,
                             fullinfo_instance, oracle_instance, tiny_instances)
from ehdfl.learning import certify_consts, make_quadratic_task, prescribed_eta
from ehdfl.localized import synthesize
from ehdfl.mdp import backward_induction

from conftest import SEEDS


def _oracle_cases():
    cases = [(inst.name, inst.mdp, inst.s1) for inst in tiny_instances().values()]
    mdp, s1 = oracle_instance()
    cases.append(("pair", mdp, s1))
    return cases


def test_c01_exact_solver_matches_exhaustive_enumeration(report):
    worst = 0.0
    slowest = 0.0
    for name, mdp, s1 in _oracle_cases():
        t0 = time.perf_counter()
        sol = backward_induction(mdp)
        dp = sol.expected_cost(s1)
        brute = exhaustive_minimum(mdp, s1)
        dt = time.perf_counter() - t0
        worst = max(worst, abs(dp - brute))
        slowest = max(slowest, dt)
    ok = worst <= 1e-9 and slowest < 10.0
    report(f"C1 {'PASS' if ok else 'FAIL'}: {len(_oracle_cases())} instances, "
           f"max |dp - enum| {worst:.3e}, slowest {slowest:.2f}s")
    assert ok


def test_c02_per_device_costs_sum_to_the_global_cost(report):
    worst = 0.0
    pairs = 0
    for mdp in (tiny_instances()["tiny-a"].mdp, oracle_instance()[0]):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            s = int(rng.integers(mdp.n_states))
            a = int(rng.integers(mdp.n_actions))
            total = sum(mdp.device_cost(s, a, i) for i in range(mdp.m))
            worst = max(worst, abs(total - mdp.one_step_cost(s, a)))
            pairs += 1
    ok = worst <= 1e-12
    report(f"C2 {'PASS' if ok else 'FAIL'}: {pairs} random state-action pairs, "
           f"max |sum_i c_i - c| {worst:.3e}")
    assert ok


def test_c03_kernels_are_distributions_and_match_sampling(report):
    models = [oracle_instance()[0], capacity_family(3)[0]]
    row_err = 0.0
    for mdp in models:
        for chain in mdp.chains:
            row_err = max(row_err, float(np.abs(chain.psi.sum(axis=1) - 1.0).max()))
        for kern in mdp.battery_kernels:
            row_err = max(row_err, float(np.abs(kern.sum(axis=2) - 1.0).max()))
        feas = action_feasibility(mdp)
        for s in range(mdp.n_states):
            b = s % mdp.n_battery_cfgs
            for a in np.nonzero(feas[:, b])[0]:
                mass = sum(mdp.transition(s, int(a)).values())
                row_err = max(row_err, abs(mass - 1.0))

    mc_err = 0.0
    for mdp, s1 in (oracle_instance(), capacity_family(3)):
        s_idx = mdp.state_index(s1)
        b = s_idx % mdp.n_battery_cfgs
        a = int(np.nonzero(action_feasibility(mdp)[:, b])[0][-1])
        mc_err = max(mc_err, mc_transition_error(mdp, s_idx, a, n_draws=100_000,
                                                 seed=7))
    ok = row_err <= 1e-10 and mc_err <= 0.01
    report(f"C3 {'PASS' if ok else 'FAIL'}: max row-sum error {row_err:.3e}, "
           f"max MC frequency error {mc_err:.4f} at 1e5 draws")
    assert ok


def test_c04_synthesis_gap_decays_geometrically_at_the_ceiling(report):
    t0 = time.perf_counter()
    lines = []
    ok = True
    for inst in tiny_instances().values():
        gamma = temperature_cap(inst.mdp.m, inst.declared_lipschitz,
                                inst.declared_grad_bound, inst.n_joint_actions)
        curve = gap_curve(inst.mdp, hops=inst.hops, gamma=gamma,
                          rounds=inst.rounds, s1=inst.s1)
        fit = fit_rate(curve.gaps)
        nonneg = bool((curve.gaps >= -1e-12).all())
        ratio = curve.gaps[10] / curve.gaps[0]
        inst_ok = (nonneg and ratio <= 0.1 and fit.d_hat < 1.0
                   and fit.r_squared >= 0.8)
        ok = ok and inst_ok
        lines.append(f"{inst.name} ratio {ratio:.3f} D {fit.d_hat:.3f} "
                     f"R2 {fit.r_squared:.3f}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    report(f"C4 {'PASS' if ok else 'FAIL'}: {'; '.join(lines)}; total {dt:.1f}s")
    assert ok


def test_c05_full_information_cover_reaches_the_optimum(report):
    inst = fullinfo_instance()
    curve = gap_curve(inst.mdp, hops=inst.hops, gamma=inst.gamma,
                      rounds=inst.rounds, s1=inst.s1)
    final = float(curve.gaps[-1])
    ok = final < 1e-3
    report(f"C5 {'PASS' if ok else 'FAIL'}: gap after {inst.rounds} rounds "
           f"{final:.3e} (complete graph, {inst.hops}-hop cover)")
    assert ok


def test_c06_lossless_run_replays_bit_for_bit(report):
    inst = tiny_instances()["tiny-a"]
    eta = 0.1
    horizon = 50
    mdp = dataclasses.replace(inst.mdp, horizon=horizon)
    task = make_quadratic_task(mdp.m, 6, 12, heterogeneity=1.5, seed=3)
    run = run_training(mdp, task, GreedyPolicy(mdp), seeds=[11], eta=eta,
                       per_override=0.0, record_models=True, s1=inst.s1)[0]
    mixing, neighbors = mdp.topo.mixing, mdp.topo.neighbors
    models = [np.zeros(task.dim) for _ in range(mdp.m)]
    exact = (run.beta == 1).all() and int(run.packets_dropped.sum()) == 0
    for t in range(horizon):
        deltas = []
        for i in range(mdp.m):
            w = models[i].copy()
            for _ in range(mdp.energy.k_steps):
                w -= eta * task.local_grad(i, w)
            deltas.append(w - models[i])
        nxt = []
        for i in range(mdp.m):
            acc = models[i].copy()
            for j in sorted(set(neighbors[i]) | {i}):
                acc += (mixing[i, j] * 1.0) * deltas[j]
            nxt.append(acc)
        for i in range(mdp.m):
            exact = exact and bool(np.array_equal(run.models[t][i], models[i]))
            exact = exact and bool(np.array_equal(run.deltas[t][i], deltas[i]))
        models = nxt
    for i in range(mdp.m):
        exact = exact and bool(np.array_equal(run.final_models[i], models[i]))
    report(f"C6 {'PASS' if exact else 'FAIL'}: independent gossip replay over "
           f"{horizon} slots, bit-for-bit {'match' if exact else 'MISMATCH'}")
    assert exact


def test_c07_measured_rate_never_exceeds_the_certificate(report):
    inst = tiny_instances()["tiny-a"]
    mdp = dataclasses.replace(inst.mdp, horizon=50)
    m, horizon = mdp.m, mdp.horizon
    task = make_quadratic_task(m, 6, 12, heterogeneity=1.5, seed=3)
    lip = task.lipschitz()
    eta = prescribed_eta(lip, m, mdp.energy.k_steps, horizon)
    lockstep = run_training(mdp, task, GreedyPolicy(mdp), seeds=SEEDS, eta=eta, s1=inst.s1)
    runs = [lockstep[k] for k in range(len(SEEDS))]
    consts = certify_consts(task, eta=eta, k_steps=mdp.energy.k_steps,
                            trajectory_sup_sq=max(r.sup_grad_sq for r in runs),
                            safety=2.0)
    lam = mdp.topo.lam
    margins = []
    all_participate = True
    for r in runs:
        bound = convergence_bound(consts, lam, mdp.topo, horizon, float(r.opt_gap[0]),
                                  r.beta, r.per)
        margins.append(bound.total - float(np.mean(r.grad_norm_sq)))
        all_participate = all_participate and bool((r.beta == 1).all())

    lossless = run_training(mdp, task, GreedyPolicy(mdp), seeds=[0], eta=eta,
                            per_override=0.0, s1=inst.s1)[0]
    clean = convergence_bound(consts, lam, mdp.topo, horizon,
                              float(lossless.opt_gap[0]), lossless.beta,
                              lossless.per)
    ok = (min(margins) >= 0.0 and all_participate and clean.terms[5] == 0.0)
    report(f"C7 {'PASS' if ok else 'FAIL'}: {len(runs)} seeds, min bound margin "
           f"{min(margins):.3e}, lossless last term {clean.terms[5]!r}")
    assert ok


def test_c08_policy_quality_orders_as_designed(report, desk, desk_exact_j,
                                               desk_final_loss):
    j = desk_exact_j
    tol = 1e-9
    j_ok = (j["centralized_pi"] <= j["dec2"] + tol
            and j["dec2"] <= min(j["myopic_central"], j["greedy"]) + tol)
    f = desk_final_loss
    f_ok = (f["centralized_pi"] <= f["dec2"] + tol
            and f["dec2"] <= min(f["myopic_central"], f["greedy"]) + tol)

    fam = []
    for n in (2, 3, 4):
        mdp, s1 = capacity_family(n)
        fam.append(backward_induction(mdp).expected_cost(s1))
    spot = []
    for n in (2, 3):
        mdp, s1 = capacity_pair(n)
        spot.append(backward_induction(mdp, budget=desk.budget).expected_cost(s1))
    cap_ok = all(b <= a + tol for a, b in zip(fam, fam[1:]))
    cap_ok = cap_ok and spot[1] <= spot[0] + tol

    ok = j_ok and f_ok and cap_ok
    report(f"C8 {'PASS' if ok else 'FAIL'}: J cen {j['centralized_pi']:.3f} <= "
           f"dec2 {j['dec2']:.3f} <= min(myo {j['myopic_central']:.3f}, "
           f"grd {j['greedy']:.3f}); loss ordering {'holds' if f_ok else 'BROKEN'}; "
           f"capacity J* {['%.3f' % v for v in fam]} / {['%.3f' % v for v in spot]}")
    assert ok


def test_c09_wider_covers_do_not_hurt(report, desk_final_loss):
    f = desk_final_loss
    tol = 1e-9
    gate = f["dec2"] <= f["dec0"] + tol and f["dec2"] <= f["dec1"] + tol

    # Three-hop covers on a reduced block; reported, not gated: the check is
    # that the extra hop changes nothing beyond seed noise.
    short = desk_scenario(horizon=4)
    task = short.build_task()
    eta = short.step_size(task)
    means = {}
    for hops in (2, 3):
        pol = synthesize(short.mdp, hops=hops, gamma=short.gamma, rounds=2,
                         table_budget=300_000_000)
        finals = run_training(short.mdp, task, pol, seeds=range(10), eta=eta,
                              s1=short.s1).device_loss[:, -1]
        means[hops] = (float(np.mean(finals)),
                       float(np.std(finals) / np.sqrt(len(finals))))
    diff = abs(means[3][0] - means[2][0])
    noise = means[2][1] + means[3][1]
    within = diff <= max(2.0 * noise, 1e-9)
    report(f"C9 {'PASS' if gate else 'FAIL'}: loss dec2 {f['dec2']:.5f} <= "
           f"dec1 {f['dec1']:.5f}, dec0 {f['dec0']:.5f}; three-hop delta "
           f"{diff:.2e} vs noise {noise:.2e} "
           f"({'within' if within else 'outside'}, informational)")
    assert gate


def test_c10_command_line_runs_are_byte_identical(report, tmp_path):
    def cli(*args):
        res = subprocess.run([sys.executable, "-m", "ehdfl.cli", *args],
                             capture_output=True, text=True, timeout=600)
        assert res.returncode == 0, res.stderr
        return res

    def csv_bytes(d):
        return {p.name: p.read_bytes() for p in sorted(Path(d).glob("*.csv"))}

    raw = {
        "name": "repro",
        "topology": {"kind": "line", "m": 2},
        "channel": {"phi": 1.8, "sigma2": 0.4,
                    "chains": [{"levels": [0.4, 2.2],
                                "psi": [[0.7, 0.3], [0.3, 0.7]]}]},
        "energy": {"b_max": 1.0, "n_levels": 2,
                   "harvest": {"support": [0.0, 1.0], "probs": [0.5, 0.5]}},
        "power_levels": [0.0, 1.0],
        "horizon": 6,
        "policy": {"name": "decentralized_pi", "gamma": 32.0, "rounds": 4,
                   "hops": 1},
        "task": {"kind": "quadratic", "dim": 4, "samples": 8},
        "seeds": [1, 2, 3],
        "sweep": {"axis": "capacity", "values": [2, 3], "train": True},
    }
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(raw))

    sweeps = []
    for tag, jobs in (("s1", "1"), ("s2", "1"), ("s8", "8")):
        out = tmp_path / tag
        cli("sweep", "--config", str(cfg), "--out", str(out), "--jobs", jobs)
        sweeps.append(csv_bytes(out))
    sweep_ok = sweeps[0] == sweeps[1] == sweeps[2] and bool(sweeps[0])

    outs = []
    for tag in ("v1", "v2"):
        out = tmp_path / tag
        cli("verify", "--out", str(out))
        outs.append((out / "verify.csv").read_bytes())
    verify_ok = outs[0] == outs[1]

    ok = sweep_ok and verify_ok
    report(f"C10 {'PASS' if ok else 'FAIL'}: sweep byte-identical across "
           f"repeats and jobs 1 vs 8 ({sweep_ok}), verify byte-identical "
           f"({verify_ok})")
    assert ok
