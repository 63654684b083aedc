"""Co-simulation: local SGD, lossy gossip, bookkeeping, and the rate certificate."""
import numpy as np
import pytest

from ehdfl.baselines import GreedyPolicy
from ehdfl.channel import packet_error_rate
from ehdfl.dflsim import (METRICS_HEADER, convergence_bound, local_sgd,
                          run_training)
from ehdfl.instances import fullinfo_instance, tiny_instances
from ehdfl.learning import LearnConsts, QuadraticTask, make_quadratic_task


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


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_training_deterministic_given_seed(tiny_a, task3):
    kw = dict(seed=5, eta=0.1, horizon=20)
    ra = run_training(tiny_a.mdp, task3, GreedyPolicy(tiny_a.mdp), **kw)
    rb = run_training(tiny_a.mdp, task3, GreedyPolicy(tiny_a.mdp), **kw)
    np.testing.assert_array_equal(ra.wbar, rb.wbar)
    np.testing.assert_array_equal(ra.per, rb.per)
    np.testing.assert_array_equal(ra.packets_dropped, rb.packets_dropped)
    for wa, wb in zip(ra.final_models, rb.final_models):
        np.testing.assert_array_equal(wa, wb)

    rc = run_training(tiny_a.mdp, task3, GreedyPolicy(tiny_a.mdp), seed=6,
                      eta=0.1, horizon=20)
    assert (not np.array_equal(ra.packets_dropped, rc.packets_dropped)
            or not np.array_equal(ra.wbar, rc.wbar))


def test_gossip_matches_independent_recursion(tiny_a, task3):
    # Lossless links and full participation: replay the whole trajectory with
    # nothing but the task, the mixing matrix, and the neighbor lists.
    mdp = tiny_a.mdp
    eta = 0.1
    horizon = 8
    run = run_training(mdp, task3, GreedyPolicy(mdp), seed=11, eta=eta,
                       horizon=horizon, per_override=0.0, record_models=True)
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
    mdp = tiny_a.mdp
    eta = 0.1
    horizon = 6
    run = run_training(mdp, task3, GreedyPolicy(mdp), seed=2, eta=eta,
                       horizon=horizon, per_override=1.0)
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
    inst = fullinfo_instance()
    mdp = inst.mdp
    base = make_quadratic_task(1, 5, 20, heterogeneity=0.0, seed=9)
    task = QuadraticTask(a_mats=[base.a_mats[0]] * 3, b_vecs=[base.b_vecs[0]] * 3)
    eta = 0.1
    horizon = 10
    run = run_training(mdp, task, GreedyPolicy(mdp), seed=1, eta=eta,
                       horizon=horizon, per_override=0.0)
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
    run = run_training(tiny_a.mdp, task3, GreedyPolicy(tiny_a.mdp), seed=0,
                       eta=0.1, horizon=0)
    assert run.global_loss.shape == (1,)
    assert run.global_loss[0] == pytest.approx(task3.global_loss(np.zeros(task3.dim)))
    assert run.grad_norm_sq.shape == (0,)
    header, rows = run.csv_rows()
    assert header == list(METRICS_HEADER)
    assert rows == []


def test_bookkeeping_matches_the_model(tiny_a, task3):
    mdp = tiny_a.mdp
    run = run_training(mdp, task3, GreedyPolicy(mdp), seed=4, eta=0.1, horizon=5,
                       s1=tiny_a.s1)
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

    # Recorded error probabilities match the closed form on the frozen gains.
    gain_mat = np.zeros((mdp.m, mdp.m))
    inst_gains = tiny_instances()["tiny-a"].s1.gains
    for e, (a, b) in enumerate(mdp.entities):
        g = mdp.chains[e].levels[inst_gains[e]]
        gain_mat[a, b] = gain_mat[b, a] = g
    powers = mdp.powers_of(tuple(run.actions[0]))
    for t in range(run.horizon):
        for i in range(mdp.m):
            for j in range(mdp.m):
                if j in topo.neighbors[i] and run.beta[t, j]:
                    q = packet_error_rate(powers, gain_mat, topo, mdp.radio, i, j)
                    assert run.per[t, i, j] == pytest.approx(q, abs=1e-15)
                else:
                    assert run.per[t, i, j] == 0.0

    # Logged gradient norms are taken at the recorded average models.
    for t in range(run.horizon):
        g = task3.global_grad(run.wbar[t])
        assert run.grad_norm_sq[t] == pytest.approx(float(g @ g), rel=1e-12)


# ---------------------------------------------------------------------------
# rate certificate
# ---------------------------------------------------------------------------

def _consts():
    return LearnConsts(lipschitz=1.2, sigma_l=0.0, sigma_g=0.4, grad_bound=0.7,
                       eta=0.01, k_steps=2)


def test_bound_last_term_vanishes_when_lossless_and_everyone_talks():
    m, t_hor = 4, 6
    beta = np.ones((t_hor, m))
    per = np.zeros((t_hor, m, m))
    mixing = np.full((m, m), 1.0 / m)
    bound = convergence_bound(_consts(), 0.5, m, t_hor, 1.0, beta, per, mixing)
    assert bound.terms[5] == 0.0
    assert bound.total == pytest.approx(sum(bound.terms[:5]), rel=1e-15)


def test_bound_last_term_closed_form_when_nobody_talks():
    m, t_hor = 4, 6
    consts = _consts()
    beta = np.zeros((t_hor, m))
    rng = np.random.default_rng(0)
    per = rng.random((t_hor, m, m))
    mixing = np.full((m, m), 1.0 / m)
    bound = convergence_bound(consts, 0.5, m, t_hor, 1.0, beta, per, mixing)
    k, lip = consts.k_steps, consts.lipschitz
    g2 = consts.grad_bound ** 2
    expected = 4.0 * (k * lip + np.sqrt(k)) * g2 * m / k
    assert bound.terms[5] == pytest.approx(expected, rel=1e-12)


def test_bound_penalizes_packet_loss():
    m, t_hor = 3, 5
    beta = np.ones((t_hor, m))
    mixing = np.full((m, m), 1.0 / m)
    lossless = convergence_bound(_consts(), 0.5, m, t_hor, 1.0, beta,
                                 np.zeros((t_hor, m, m)), mixing)
    lossy = convergence_bound(_consts(), 0.5, m, t_hor, 1.0, beta,
                              np.full((t_hor, m, m), 0.5), mixing)
    assert lossy.terms[5] > lossless.terms[5]
    assert lossy.total > lossless.total
