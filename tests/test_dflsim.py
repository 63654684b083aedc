"""Co-simulation: local SGD, lossy gossip, bookkeeping, and the rate certificate.

`reference_training` is the former one-seed co-simulation, kept as the
reference the lockstep `run_training` must match bit for bit. It runs on the
former one-model helpers below: the task methods before they took a batch
axis, `local_sgd`, `apply_gossip`, `step_links` drawing from its generator,
harvests drawn by `Generator.choice`, the scalar packet error rule of
`test_channel` and the joule battery rule of `test_energy`.
"""
import copy
import dataclasses
import json
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehdfl.baselines import GreedyPolicy
from ehdfl.channel import ChannelChain, RadioParams, packet_error_rate
from ehdfl.config import parse_config
from ehdfl.dflsim import (DflRun, apply_gossip, convergence_bound, gossip_passes, local_sgd,
                          run_training)
from ehdfl.energy import EnergyParams, HarvestModel
from ehdfl.errors import CausalityViolation
from ehdfl.instances import fullinfo_instance, tiny_instances
from ehdfl.learning import LearnConsts, QuadraticTask, make_logistic_task, make_quadratic_task
from ehdfl.localized import build_cover, localized_cost_table
from ehdfl.mdp import GlobalState, build_mdp
from ehdfl.topology import build_topology
from test_channel import dense_gains, former_packet_error_rate, graphs
from test_energy import former_battery_step


class FormerTask:
    """A task's losses and gradients as computed one model at a time before batching."""

    def __init__(self, task):
        self.task, self.m, self.dim = task, task.m, task.dim
        self.quadratic = isinstance(task, QuadraticTask)
        self.f_star = self.global_loss(task.w_star)

    def local_loss(self, i, w):
        if self.quadratic:
            r = self.task.a_mats[i] @ w - self.task.b_vecs[i]
            return 0.5 * float(r @ r) / self.task.samples(i)
        z = self.task.y_vecs[i] * (self.task.x_mats[i] @ w)
        return float(np.mean(np.logaddexp(0.0, -z))) + 0.5 * self.task.reg * float(w @ w)

    def local_grad(self, i, w):
        if self.quadratic:
            a, b = self.task.a_mats[i], self.task.b_vecs[i]
            return a.T @ (a @ w - b) / a.shape[0]
        x, y = self.task.x_mats[i], self.task.y_vecs[i]
        s = -y / (1.0 + np.exp(y * (x @ w)))
        return x.T @ s / x.shape[0] + self.task.reg * w

    def global_loss(self, w):
        return sum(self.local_loss(i, w) for i in range(self.m)) / self.m

    def global_grad(self, w):
        g = np.zeros(self.dim)
        for i in range(self.m):
            g += self.local_grad(i, w)
        return g / self.m


def _former_local_sgd(task, i, w, *, k_steps, eta):
    w = np.array(w, dtype=float, copy=True)
    sup_sq = 0.0
    for _ in range(k_steps):
        g = task.local_grad(i, w)
        sup_sq = max(sup_sq, float(g @ g))
        w -= eta * g
    return w, sup_sq


def _former_apply_gossip(models, deltas, beta, zeta, mixing, neighbors):
    out = []
    for i in range(len(models)):
        acc = models[i].copy()
        for j in sorted(set(neighbors[i]) | {i}):
            if not beta[j]:
                continue
            gate = 1.0 if j == i else float(zeta[i][j])
            if gate == 0.0:
                continue
            acc += (mixing[i, j] * gate) * deltas[j]
        out.append(acc)
    return out


def _former_step_links(state, chains, rng):
    out = np.empty_like(state)
    u = rng.random(len(state))
    for k, chain in enumerate(chains):
        out[k] = int(np.searchsorted(np.cumsum(chain.psi[state[k]]), u[k], side="right"))
        if out[k] >= chain.n:
            out[k] = chain.n - 1
    return out


def _stream(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def with_horizon(mdp, horizon):
    """`mdp` over `horizon` slots. GlobalMdp refuses to build a zero horizon, so that one
    is set on a copy; training then records only the start point."""
    if horizon:
        return dataclasses.replace(mdp, horizon=horizon)
    short = copy.copy(mdp)
    short.horizon = 0
    return short


def reference_training(mdp, task, policy, *, seed, eta, per_override=None, s1=None,
                       record_models=False):
    """One seed's co-simulation, slot by slot and device by device, through `policy.act`."""
    task = FormerTask(task)
    topo, radio, energy, draw_quanta = mdp.topo, mdp.radio, mdp.energy, mdp.draw_quanta
    m, horizon = topo.m, mdp.horizon
    s1 = mdp.default_start if s1 is None else s1
    rng_pol, rng_chan = _stream(seed, 0), _stream(seed, 1)
    rng_harv = [_stream(seed, 2, i) for i in range(m)]
    d = task.dim
    models = [np.zeros(d) for _ in range(m)]
    gains = np.asarray(s1.gains, dtype=np.int64)
    bats_j = np.array([b * energy.quantum for b in s1.batteries])
    rec = SimpleNamespace(
        horizon=horizon, m=m, wbar=np.zeros((horizon + 1, d)),
        consensus=np.zeros(horizon + 1), grad_norm_sq=np.zeros(horizon),
        global_loss=np.zeros(horizon + 1), device_loss=np.zeros(horizon + 1),
        opt_gap=np.zeros(horizon + 1), energy_spent=np.zeros(horizon),
        packets_sent=np.zeros(horizon, dtype=np.int64),
        packets_dropped=np.zeros(horizon, dtype=np.int64),
        beta=np.zeros((horizon, m), dtype=np.int64), per=np.zeros((horizon, m, m)),
        actions=np.zeros((horizon, m), dtype=np.int64), batteries=np.zeros((horizon + 1, m)),
        sup_grad_sq=0.0, final_models=[], models=[], deltas=[])

    def log_point(row):
        wbar = np.mean(models, axis=0)
        rec.wbar[row] = wbar
        rec.consensus[row] = float(sum(np.sum((w - wbar) ** 2) for w in models))
        rec.global_loss[row] = task.global_loss(wbar)
        rec.device_loss[row] = float(np.mean([task.global_loss(w) for w in models]))
        rec.opt_gap[row] = rec.global_loss[row] - task.f_star

    for t in range(horizon):
        rec.batteries[t] = bats_j
        log_point(t)
        rec.grad_norm_sq[t] = float(np.sum(task.global_grad(rec.wbar[t]) ** 2))
        state = GlobalState(gains=tuple(int(g) for g in gains),
                            batteries=tuple(energy.to_quanta(b) for b in bats_j))
        levels = policy.act(mdp, mdp.state_index(state), t + 1, rng_pol)
        rec.actions[t] = levels
        powers = mdp.powers_of(levels)
        beta = [1 if p > 0 else 0 for p in powers]
        rec.beta[t] = beta
        deltas = [np.zeros(d) for _ in range(m)]
        for i in range(m):
            if beta[i]:
                w_new, sup_sq = _former_local_sgd(task, i, models[i], k_steps=energy.k_steps,
                                                  eta=eta)
                deltas[i] = w_new - models[i]
                rec.sup_grad_sq = max(rec.sup_grad_sq, sup_sq)
        if record_models:
            rec.models.append([w.copy() for w in models])
            rec.deltas.append([dw.copy() for dw in deltas])
        gain_mat = dense_gains(topo, [mdp.chains[e].levels[g] for e, g in enumerate(gains)])
        zeta = np.zeros((m, m))
        for i in range(m):
            for j in sorted(topo.neighbors[i]):
                if not beta[j]:
                    continue
                q = former_packet_error_rate(powers, gain_mat, topo, radio, i, j)
                if per_override is not None:
                    q = float(per_override)
                rec.per[t, i, j] = q
                ok = rng_chan.random() >= q
                zeta[i, j] = 1.0 if ok else 0.0
                rec.packets_sent[t] += 1
                rec.packets_dropped[t] += 0 if ok else 1
        models = _former_apply_gossip(models, deltas, beta, zeta, topo.mixing, topo.neighbors)
        for i in range(m):
            e_i = int(draw_quanta[i][levels[i]]) * energy.quantum
            rec.energy_spent[t] += e_i
            hv = mdp.harvests[i]
            u = hv.support[rng_harv[i].choice(len(hv.support), p=hv.probs)]
            bats_j[i] = former_battery_step(bats_j[i], e_i, u, energy)
        gains = _former_step_links(gains, mdp.chains, rng_chan)

    rec.batteries[horizon] = bats_j
    log_point(horizon)
    rec.final_models = [w.copy() for w in models]
    rec.models = np.reshape(rec.models, (len(rec.models), m, d))
    rec.deltas = np.reshape(rec.deltas, (len(rec.deltas), m, d))
    return rec


def on_links(ref, topo):
    """A reference record with its dense (T, m, m) error record read at the link table's
    rows, the layout of `DflRun.per`."""
    ref.per = ref.per[:, topo.links.rx, topo.links.tx]
    return ref


RECORD_FIELDS = tuple(f for f in DflRun.__dataclass_fields__ if f not in ("models", "deltas"))


def assert_same_record(run, ref, with_models=False):
    """Every field of a one-seed record equal, bit for bit, to the reference's."""
    for name in RECORD_FIELDS + (("models", "deltas") if with_models else ()):
        got, want = np.asarray(getattr(run, name)), np.asarray(getattr(ref, name))
        assert got.shape == want.shape, name
        assert got.astype(float).tobytes() == want.astype(float).tobytes(), name


@pytest.fixture(scope="module")
def tiny_a():
    return tiny_instances()["tiny-a"]


@pytest.fixture(scope="module")
def task3():
    return make_quadratic_task(3, 6, 12, heterogeneity=1.5, seed=3)


# ---------------------------------------------------------------------------
# local update rule
# ---------------------------------------------------------------------------

def test_local_sgd_single_step_closed_form(task3):
    rng = np.random.default_rng(0)
    w0 = rng.normal(size=task3.dim)
    eta = 0.07
    w1, sup = local_sgd(task3, 1, w0, k_steps=1, eta=eta)
    g = task3.local_grad(1, w0)
    np.testing.assert_array_equal(w1, w0 - eta * g)
    assert sup == pytest.approx(float(g @ g), rel=1e-15)


def test_local_sgd_composes_steps(task3):
    w0 = np.ones(task3.dim)
    eta = 0.05
    w2, sup = local_sgd(task3, 0, w0, k_steps=2, eta=eta)
    w_ref = w0.copy()
    sup_ref = 0.0
    for _ in range(2):
        g = task3.local_grad(0, w_ref)
        sup_ref = max(sup_ref, float(g @ g))
        w_ref = w_ref - eta * g
    np.testing.assert_allclose(w2, w_ref, atol=1e-15)
    assert sup == pytest.approx(sup_ref, rel=1e-15)


def test_local_sgd_leaves_input_untouched(task3):
    w0 = np.ones(task3.dim)
    keep = w0.copy()
    local_sgd(task3, 0, w0, k_steps=3, eta=0.1)
    np.testing.assert_array_equal(w0, keep)


@pytest.mark.parametrize("make", [make_quadratic_task, make_logistic_task])
def test_batched_task_methods_match_the_former_one_model_bodies(make):
    # 16 features and 9 devices: sums over both run pairwise in numpy past 8 terms.
    task = make(9, 16, 32, heterogeneity=2.5, seed=4)
    former = FormerTask(task)
    w = np.random.default_rng(0).normal(size=(3, 9, 16))
    loss, grad = task.global_loss(w), task.global_grad(w)
    assert former.f_star == task.f_star
    for idx in np.ndindex(3, 9):
        assert loss[idx] == task.global_loss(w[idx]) == former.global_loss(w[idx])
        assert np.array_equal(grad[idx], former.global_grad(w[idx]))
        for i in range(task.m):
            assert task.local_loss(i, w[idx]) == former.local_loss(i, w[idx])
            assert np.array_equal(task.local_grad(i, w)[idx], former.local_grad(i, w[idx]))


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["greedy", "dec1", "centralized_pi"])
def test_lockstep_training_matches_the_reference_on_the_desk_ring(desk, desk_policies, name):
    # Eight devices and 16 features, where a pairwise numpy sum would differ
    # from the reference's sums in device order.
    task = desk.build_task()
    eta = desk.step_size(task)
    seeds = [0, 5, 2, 5]
    mdp, kw = with_horizon(desk.mdp, 6), dict(eta=eta, s1=desk.s1, record_models=True)
    run = run_training(mdp, task, desk_policies[name], seeds=seeds, **kw)
    for k, seed in enumerate(seeds):
        ref = reference_training(mdp, task, desk_policies[name], seed=seed, **kw)
        assert_same_record(run[k], on_links(ref, mdp.topo), with_models=True)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(graphs(max_m=12), st.integers(0, 2 ** 32 - 1))
def test_gossip_on_the_link_table_equals_the_former_dense_gate(topo, seed):
    # Random participation and deliveries on any graph: each seed's models equal the former
    # one-device recursion over the dense gate and mixing matrix, bit for bit.
    rng = np.random.default_rng(seed)
    n_seeds, m, d, lk = 3, topo.m, 5, topo.links
    models, deltas = rng.normal(size=(2, n_seeds, m, d))
    beta = (rng.random((n_seeds, m)) < 0.7).astype(np.int64)
    delivered = rng.random((n_seeds, len(lk.rx))) < 0.6
    got = apply_gossip(models, deltas, beta, delivered, gossip_passes(topo))
    for s in range(n_seeds):
        zeta = np.zeros((m, m))
        zeta[lk.rx, lk.tx] = delivered[s]
        want = _former_apply_gossip(models[s], deltas[s], beta[s], zeta, topo.mixing,
                                    topo.neighbors)
        assert np.array_equal(got[s], np.array(want))


def test_run_training_deterministic_given_seed(tiny_a, task3):
    mdp, kw = with_horizon(tiny_a.mdp, 20), dict(seeds=[5], eta=0.1)
    ra = run_training(mdp, task3, GreedyPolicy(mdp), **kw)[0]
    rb = run_training(mdp, task3, GreedyPolicy(mdp), **kw)[0]
    np.testing.assert_array_equal(ra.wbar, rb.wbar)
    np.testing.assert_array_equal(ra.per, rb.per)
    np.testing.assert_array_equal(ra.packets_dropped, rb.packets_dropped)
    for wa, wb in zip(ra.final_models, rb.final_models):
        np.testing.assert_array_equal(wa, wb)

    rc = run_training(mdp, task3, GreedyPolicy(mdp), seeds=[6], eta=0.1)[0]
    assert (not np.array_equal(ra.packets_dropped, rc.packets_dropped)
            or not np.array_equal(ra.wbar, rc.wbar))


def test_gossip_matches_independent_recursion(tiny_a, task3):
    # Lossless links and full participation: replay the whole trajectory with
    # nothing but the task, the mixing matrix, and the neighbor lists.
    eta = 0.1
    horizon = 8
    mdp = with_horizon(tiny_a.mdp, horizon)
    run = run_training(mdp, task3, GreedyPolicy(mdp), seeds=[11], eta=eta,
                       per_override=0.0, record_models=True)[0]
    assert int(run.packets_dropped.sum()) == 0
    assert (run.beta == 1).all()

    mixing = mdp.topo.mixing
    neighbors = mdp.topo.neighbors
    models = [np.zeros(task3.dim) for _ in range(mdp.m)]
    for t in range(horizon):
        deltas = []
        for i in range(mdp.m):
            w = models[i].copy()
            for _ in range(mdp.energy.k_steps):
                w -= eta * task3.local_grad(i, w)
            deltas.append(w - models[i])
        nxt = []
        for i in range(mdp.m):
            acc = models[i].copy()
            for j in sorted(set(neighbors[i]) | {i}):
                acc += (mixing[i, j] * 1.0) * deltas[j]
            nxt.append(acc)
        for i in range(mdp.m):
            np.testing.assert_array_equal(run.models[t][i], models[i])
            np.testing.assert_array_equal(run.deltas[t][i], deltas[i])
        models = nxt
    for i in range(mdp.m):
        np.testing.assert_array_equal(run.final_models[i], models[i])


def test_total_packet_loss_leaves_only_self_updates(tiny_a, task3):
    eta = 0.1
    horizon = 6
    mdp = with_horizon(tiny_a.mdp, horizon)
    run = run_training(mdp, task3, GreedyPolicy(mdp), seeds=[2], eta=eta,
                       per_override=1.0)[0]
    assert int(run.packets_dropped.sum()) == int(run.packets_sent.sum())

    mixing = mdp.topo.mixing
    for i in range(mdp.m):
        w = np.zeros(task3.dim)
        for _ in range(horizon):
            start = w.copy()
            stepped = start.copy()
            stepped -= eta * task3.local_grad(i, stepped)
            w = start.copy()
            w += (mixing[i, i] * 1.0) * (stepped - start)
        np.testing.assert_array_equal(run.final_models[i], w)


def test_identical_devices_stay_in_consensus():
    # Complete graph, identical local datasets, lossless links: every device
    # runs the same computation, so consensus stays exactly zero and the
    # average model follows plain gradient descent.
    base = make_quadratic_task(1, 5, 20, heterogeneity=0.0, seed=9)
    task = QuadraticTask(a_mats=[base.a_mats[0]] * 3, b_vecs=[base.b_vecs[0]] * 3)
    eta = 0.1
    horizon = 10
    mdp = with_horizon(fullinfo_instance().mdp, horizon)
    run = run_training(mdp, task, GreedyPolicy(mdp), seeds=[1], eta=eta,
                       per_override=0.0)[0]
    # The mixing diagonal comes from a subtraction, so it can differ from the
    # off-diagonal weights by one ulp; consensus is zero up to that noise.
    assert (run.consensus <= 1e-28).all()
    np.testing.assert_allclose(run.device_loss, run.global_loss, atol=1e-13)
    for i in range(1, mdp.m):
        np.testing.assert_allclose(run.final_models[i], run.final_models[0],
                                   atol=1e-14)
    w = np.zeros(task.dim)
    for _ in range(horizon):
        w = w - eta * task.global_grad(w)
    np.testing.assert_allclose(run.final_models[0], w, atol=1e-12)


def test_zero_horizon_records_only_the_initial_point(tiny_a, task3):
    mdp = with_horizon(tiny_a.mdp, 0)
    run = run_training(mdp, task3, GreedyPolicy(mdp), seeds=[0], eta=0.1)[0]
    assert run.global_loss.shape == (1,)
    assert run.global_loss[0] == pytest.approx(task3.global_loss(np.zeros(task3.dim)))
    assert run.grad_norm_sq.shape == (0,)


def test_bookkeeping_matches_the_model(tiny_a, task3):
    mdp = with_horizon(tiny_a.mdp, 5)
    run = run_training(mdp, task3, GreedyPolicy(mdp), seeds=[4], eta=0.1, s1=tiny_a.s1)[0]
    topo, energy = mdp.topo, mdp.energy

    # Directed sends: one per (receiver, transmitter) neighbor pair with an
    # active transmitter.
    for t in range(run.horizon):
        sends = sum(1 for i in range(mdp.m) for j in topo.neighbors[i]
                    if run.beta[t, j])
        assert int(run.packets_sent[t]) == sends
        spent = sum(energy.to_quanta(energy.slot_energy(mdp.power_levels[i][run.actions[t, i]]))
                    * energy.quantum for i in range(mdp.m))
        assert run.energy_spent[t] == pytest.approx(spent, abs=1e-15)

    # Frozen chains and sub-quantum spend: batteries never move.
    np.testing.assert_array_equal(run.batteries,
                                  np.full_like(run.batteries, energy.quantum))

    # Recorded error probabilities match the closed form on the frozen gains, one per
    # row of the link table.
    inst_gains = tiny_instances()["tiny-a"].s1.gains
    edge_gains = [mdp.chains[e].levels[g] for e, g in enumerate(inst_gains)]
    powers = mdp.powers_of(tuple(run.actions[0]))
    assert run.per.shape == (run.horizon, len(topo.links.rx))
    for t in range(run.horizon):
        for p, (i, j) in enumerate(zip(topo.links.rx.tolist(), topo.links.tx.tolist())):
            if run.beta[t, j]:
                q = packet_error_rate(powers, edge_gains, topo, mdp.radio, i, j)
                assert run.per[t, p] == pytest.approx(q, abs=1e-15)
            else:
                assert run.per[t, p] == 0.0

    # Logged gradient norms are taken at the recorded average models.
    for t in range(run.horizon):
        g = task3.global_grad(run.wbar[t])
        assert run.grad_norm_sq[t] == pytest.approx(float(g @ g), rel=1e-12)


def test_training_on_a_1024_device_ring_builds_no_dense_array():
    # CI's ring copy of desk8 (T = 2, 4 seeds, greedy). Its record, packet gate and gossip
    # weights live on the 2,048 links; one (m, m) float array alone is 8 MiB here.
    raw = json.loads((Path(__file__).resolve().parents[1] / "configs" / "desk8.json").read_text())
    del raw["s1"]
    raw.update(topology={"kind": "ring", "m": 1024}, horizon=2, seeds=[0, 1, 2, 3])
    cfg = parse_config(raw)
    mdp, task = cfg.build_model(), cfg.build_task()
    policy, s1, eta = GreedyPolicy(mdp), cfg.start_state(mdp), cfg.step_size(task)
    tracemalloc.start()
    try:
        run = run_training(mdp, task, policy, seeds=cfg.seeds, eta=eta, s1=s1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.per.shape == (4, 2, 2048)
    assert peak < 8 * 2 ** 20, peak
    assert "mixing" not in vars(mdp.topo)


def test_training_and_the_cost_paths_read_no_dense_mixing_matrix(task3):
    mdp = with_horizon(tiny_instances()["tiny-a"].mdp, 3)  # a topology no test has read
    run_training(mdp, task3, GreedyPolicy(mdp), seeds=[0, 1], eta=0.1)
    mdp.cost_table()
    for i in range(mdp.m):
        localized_cost_table(mdp, build_cover(mdp, i, 1))
    assert "mixing" not in vars(mdp.topo)
    assert [w for _, _, w, _, _ in mdp.ordered_pairs] == [
        mdp.topo.mixing[i, j] for i, j, _, _, _ in mdp.ordered_pairs]


class UniformFeasiblePolicy:
    """Every level the battery funds, equally likely, so every (battery, level) cell is visited."""

    def rows(self, mdp, t, digits):
        b = digits[:, mdp.n_links:]
        feas = np.stack([mdp.feasible_level_masks[i][:, b[:, i]].T for i in range(mdp.m)])
        return feas / feas.sum(axis=-1, keepdims=True)


def test_recorded_battery_steps_follow_the_mdp_battery_kernels():
    # Four battery levels, a level drawing each of 0-3 quanta and a three-point harvest,
    # so a wrong spend or harvest moves a transition off its kernel row's support.
    m = 5
    energy = EnergyParams(k_steps=1, cpu_freq=1.0, cycles_per_sample=0.0, batch_size=1,
                          tau=1.0, b_max=3.0, n_levels=4)
    chain = ChannelChain(levels=np.array([0.05, 2.5]), steady=np.array([0.5, 0.5]),
                         psi=np.array([[0.8, 0.2], [0.2, 0.8]]))
    harvest = HarvestModel(support=np.array([0.0, 1.0, 2.0]), probs=np.array([0.5, 0.3, 0.2]))
    mdp = build_mdp(build_topology("ring", m), RadioParams(0.5, (0.3,) * m, 1.0), energy,
                    chain, harvest, power_levels=[0.0, 1.0, 2.0, 3.0], horizon=60)
    assert [d.tolist() for d in mdp.draw_quanta] == [[0, 1, 2, 3]] * m
    run = run_training(mdp, make_quadratic_task(m, 4, 8, seed=1), UniformFeasiblePolicy(),
                       seeds=list(range(40)), eta=0.05)
    quanta = np.rint(run.batteries / energy.quantum).astype(int)
    assert np.array_equal(quanta * energy.quantum, run.batteries)
    b, b_next = quanta[:, :-1].ravel(), quanta[:, 1:].ravel()
    level = run.actions.ravel()
    kernel = mdp.battery_kernels[0]
    assert all(np.array_equal(k, kernel) for k in mdp.battery_kernels)
    assert mdp.feasible_level_masks[0][level, b].all()
    assert (kernel[level, b, b_next] > 0).all()

    counts = np.zeros(kernel.shape)
    np.add.at(counts, (level, b, b_next), 1)
    n = counts.sum(axis=-1)
    checked = n >= 200
    assert checked.sum() >= 6
    p, freq = kernel[checked], counts[checked] / n[checked][:, None]
    se = np.sqrt(p * (1 - p) / n[checked][:, None])
    assert (np.abs(freq - p) <= 5 * se + 1e-12).all()


class TopLevelPolicy:
    """Every device at its top level whatever its battery."""

    def rows(self, mdp, t, digits):
        w = max(mdp.act_dims)
        return np.broadcast_to(np.eye(w)[-1], (mdp.m, len(digits), w))


def test_training_refuses_a_spend_past_the_battery_at_its_seed_row_and_device():
    m = 3
    energy = EnergyParams(k_steps=1, cpu_freq=1.0, cycles_per_sample=0.0, batch_size=1,
                          tau=1.0, b_max=3.0, n_levels=4)
    mdp = build_mdp(build_topology("ring", m), RadioParams(0.5, (0.3,) * m, 1.0), energy,
                    ChannelChain(levels=np.array([1.0]), steady=np.array([1.0]),
                                 psi=np.array([[1.0]])),
                    HarvestModel(support=np.array([0.0]), probs=np.array([1.0])),
                    power_levels=[0.0, 3.0], horizon=3)
    start = GlobalState(gains=(0,) * m, batteries=(3, 3, 2))  # device 2 cannot fund slot 1
    with pytest.raises(CausalityViolation,
                       match=r"index \(0, 2\): spend of 3 quanta exceeds battery 2"):
        run_training(mdp, make_quadratic_task(m, 2, 4, seed=0), TopLevelPolicy(),
                     seeds=[7, 8], eta=0.05, s1=start)


@pytest.mark.parametrize("name", ["centralized_pi", "myopic_central", "greedy", "dec1", "dec2"])
def test_recorded_link_costs_average_to_the_exact_policy_cost(desk, desk_policies,
                                                              desk_exact_j, name):
    # The MDP's slot cost read off a training record: sum over ordered pairs of
    # w_ij * (per_ij if j transmits, else 1). Its seed mean over T slots is a Monte Carlo
    # estimate of the exact cost, drawn by the co-simulation's own battery, harvest,
    # channel and packet-error code rather than the MDP's kernels.
    task = desk.build_task()
    run = run_training(desk.mdp, task, desk_policies[name], seeds=list(range(200)),
                       eta=desk.step_size(task), s1=desk.s1)
    lk = desk.mdp.topo.links
    priced = np.where(run.beta[:, :, lk.tx] > 0, run.per, 1.0)
    costs = np.einsum("p,stp->s", lk.weight, priced)
    se = costs.std(ddof=1) / np.sqrt(costs.size)
    assert abs(costs.mean() - desk_exact_j[name]) <= 5 * se, (costs.mean(), se)


# ---------------------------------------------------------------------------
# rate certificate
# ---------------------------------------------------------------------------

def _consts():
    return LearnConsts(lipschitz=1.2, sigma_l=0.0, sigma_g=0.4, grad_bound=0.7,
                       eta=0.01, k_steps=2)


def former_convergence_bound(consts, lam, m, horizon, f_gap, beta, per, mixing):
    """The former certificate: term 6 a loop over every slot and ordered pair, per
    (T, m, m) with per[t, i, j] on receiver i's link from transmitter j, and the dense
    mixing matrix zeroing the non-neighbors' error terms."""
    lip, k = consts.lipschitz, consts.k_steps
    g2 = consts.grad_bound ** 2
    c1 = consts.c1
    t_hor = float(horizon)
    beta = np.asarray(beta, dtype=float)
    per = np.asarray(per, dtype=float)

    term1 = 256.0 * lip * f_gap / np.sqrt(m * t_hor)
    term2 = np.sqrt(m) * c1 / (2.0 * k * np.sqrt(t_hor))
    term3 = m * c1 / (256.0 * k * t_hor)
    term4 = np.sqrt(m) * (c1 + 4.0 * k * g2) / (128.0 * (1.0 - lam) * k * t_hor ** 1.5)
    term5 = m * (c1 + 4.0 * k * g2) / (128.0 ** 2 * (1.0 - lam) * k * t_hor ** 2)

    acc = 0.0
    for t in range(int(t_hor)):
        for j in range(m):
            for i in range(m):
                if i == j:
                    continue
                acc += ((m - 1) * mixing[i, j] * per[t, i, j] - 1.0) * beta[t, j] + 1.0
    term6 = 4.0 * (k * lip + np.sqrt(k)) * g2 / ((m - 1) * k * t_hor) * acc
    return (float(term1), float(term2), float(term3), float(term4), float(term5),
            float(term6))


def dense_per(topo, per):
    """Per-link (T, P) error probabilities in the former (T, m, m) layout, 0 off the links."""
    out = np.zeros(per.shape[:-1] + (topo.m, topo.m))
    out[..., topo.links.rx, topo.links.tx] = per
    return out


@pytest.mark.parametrize("kind,m", [("ring", 9), ("line", 6), ("complete", 5),
                                    ("random_geometric", 12), ("ring", 2)])
def test_bound_equals_the_former_pair_loop(kind, m):
    # Terms 1-5 bit for bit; term 6 sums the links, then the non-neighbors in closed form,
    # so only its rounding moves.
    topo = build_topology(kind, m, seed=2)
    rng = np.random.default_rng(m)
    for t_hor in (1, 7):
        beta = (rng.random((t_hor, m)) < 0.6).astype(float)
        per = rng.random((t_hor, len(topo.links.rx)))
        got = convergence_bound(_consts(), 0.3, topo, t_hor, 1.7, beta, per)
        want = former_convergence_bound(_consts(), 0.3, m, t_hor, 1.7, beta,
                                        dense_per(topo, per), topo.mixing)
        assert got.terms[:5] == want[:5]
        assert got.terms[5] == pytest.approx(want[5], rel=1e-12, abs=0.0)
        assert got.total == sum(got.terms)


def test_bound_last_term_vanishes_when_lossless_and_everyone_talks():
    m, t_hor = 4, 6
    topo = build_topology("complete", m)
    beta = np.ones((t_hor, m))
    per = np.zeros((t_hor, len(topo.links.rx)))
    bound = convergence_bound(_consts(), 0.5, topo, t_hor, 1.0, beta, per)
    assert bound.terms[5] == 0.0
    assert bound.total == pytest.approx(sum(bound.terms[:5]), rel=1e-15)


def test_bound_last_term_closed_form_when_nobody_talks():
    m, t_hor = 4, 6
    consts = _consts()
    topo = build_topology("complete", m)
    beta = np.zeros((t_hor, m))
    rng = np.random.default_rng(0)
    per = rng.random((t_hor, len(topo.links.rx)))
    bound = convergence_bound(consts, 0.5, topo, t_hor, 1.0, beta, per)
    k, lip = consts.k_steps, consts.lipschitz
    g2 = consts.grad_bound ** 2
    expected = 4.0 * (k * lip + np.sqrt(k)) * g2 * m / k
    assert bound.terms[5] == pytest.approx(expected, rel=1e-12)


def test_bound_penalizes_packet_loss():
    m, t_hor = 3, 5
    topo = build_topology("complete", m)
    beta = np.ones((t_hor, m))
    n_links = len(topo.links.rx)
    lossless = convergence_bound(_consts(), 0.5, topo, t_hor, 1.0, beta,
                                 np.zeros((t_hor, n_links)))
    lossy = convergence_bound(_consts(), 0.5, topo, t_hor, 1.0, beta,
                              np.full((t_hor, n_links), 0.5))
    assert lossy.terms[5] > lossless.terms[5]
    assert lossy.total > lossless.total
