"""The shared policy interface: per-state rows, one `act` draw rule for all policies.

Each policy class used to carry its own `act`. Those bodies are kept here as
references; the shared `act` must pick the same levels at every state and
leave the training co-simulation bit-identical.
"""
import numpy as np
import pytest

from ehdfl.baselines import GreedyPolicy, MyopicCentralPolicy
from ehdfl.channel import ChannelChain, RadioParams
from ehdfl.dflsim import run_training
from ehdfl.energy import EnergyParams, HarvestModel
from ehdfl.instances import capacity_family, oracle_instance
from ehdfl.learning import make_quadratic_task
from ehdfl.localized import synthesize
from ehdfl.mdp import FixedLevelsPolicy, GlobalState, backward_induction, build_mdp
from ehdfl.topology import build_topology


def centralized_act(pol, mdp, s_idx, t, rng=None):
    return mdp.action_decode(int(pol.tables[t - 1][s_idx]))


def fixed_act(pol, mdp, s_idx, t, rng=None):
    return pol.levels


def myopic_act(pol, mdp, s_idx, t, rng=None):
    return mdp.action_decode(int(pol.table(mdp)[s_idx]))


def greedy_act(pol, mdp, s_idx, t, rng=None):
    bats = np.unravel_index(s_idx, mdp.link_dims + mdp.bat_dims)[mdp.n_links:]
    return tuple(int(np.nonzero(mdp.feasible_level_masks[d][:, b])[0].max())
                 for d, b in enumerate(bats))


def localized_act(pol, mdp, s_idx, t, rng):
    proj = pol.projections(mdp)
    levels = []
    for i in range(mdp.m):
        row = pol.tables[i][t - 1][proj[i][s_idx]]
        u = rng.random()
        levels.append(int(np.searchsorted(np.cumsum(row), u, side="right").clip(0, len(row) - 1)))
    return tuple(levels)


class ReferenceAct:
    """A policy whose `act` is one of the former per-class bodies."""

    def __init__(self, pol, body):
        self.pol, self.body = pol, body

    def act(self, mdp, s_idx, t, rng=None):
        return self.body(self.pol, mdp, s_idx, t, rng)


def policies(mdp):
    return {
        "centralized": (backward_induction(mdp).as_policy(), centralized_act),
        "greedy": (GreedyPolicy(mdp), greedy_act),
        "myopic": (MyopicCentralPolicy(mdp), myopic_act),
        "fixed": (FixedLevelsPolicy((1,) + (0,) * (mdp.m - 1)), fixed_act),
        "localized": (synthesize(mdp, hops=1, gamma=1.0, rounds=2), localized_act),
    }


def ragged_line():
    """Three-device line whose ladders (2, 3, 2 levels) and chains (2, 3 states) differ.

    Every pinned instance has equal ladders and equal chains, so this is the
    model on which rows are zero-padded to the longest ladder and the Monte
    Carlo gain rows to the largest chain.
    """
    topo = build_topology("line", 3)
    energy = EnergyParams(k_steps=1, cpu_freq=1.0, cycles_per_sample=0.0,
                          batch_size=1, tau=1.0, b_max=2.0, n_levels=3)
    chains = [ChannelChain(levels=np.array([0.4, 2.2]), steady=np.array([0.5, 0.5]),
                           psi=np.array([[0.7, 0.3], [0.3, 0.7]])),
              ChannelChain(levels=np.array([0.5, 1.2, 3.0]),
                           steady=np.array([4.0, 6.0, 3.0]) / 13.0,
                           psi=np.array([[0.7, 0.3, 0.0], [0.2, 0.6, 0.2], [0.0, 0.4, 0.6]]))]
    harvest = HarvestModel(support=np.array([0.0, 1.0]), probs=np.array([0.6, 0.4]))
    mdp = build_mdp(topo, RadioParams(1.8, (0.4, 0.4, 0.4), 1.0), energy, chains, harvest,
                    power_levels=[[0.0, 1.0], [0.0, 1.0, 2.0], [0.0, 1.0]], horizon=3)
    return mdp, GlobalState(gains=(1, 2), batteries=(2, 2, 2))


INSTANCES = {"pair": oracle_instance, "capacity-3": lambda: capacity_family(3),
             "ragged": ragged_line}


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def case(request):
    mdp, s1 = INSTANCES[request.param]()
    return mdp, s1, policies(mdp)


def test_localized_policy_is_stochastic(case):
    mdp, _, pols = case
    rows = pols["localized"][0].rows(mdp, 1, np.arange(mdp.n_states))
    assert any(((r > 0.01) & (r < 0.99)).any() for r in rows)


@pytest.mark.parametrize("name", ["centralized", "greedy", "myopic", "fixed", "localized"])
def test_shared_act_matches_the_former_body_at_every_state(case, name):
    mdp, _, pols = case
    pol, body = pols[name]
    rng_new, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    for t in range(1, mdp.horizon + 1):
        for s in range(mdp.n_states):
            assert pol.act(mdp, s, t, rng_new) == body(pol, mdp, s, t, rng_ref), (t, s)


@pytest.mark.parametrize("name", ["centralized", "greedy", "myopic", "fixed"])
def test_deterministic_act_needs_no_generator(case, name):
    mdp, _, pols = case
    pol, body = pols[name]
    for s in range(mdp.n_states):
        assert pol.act(mdp, s, 1) == body(pol, mdp, s, 1)


@pytest.mark.parametrize("name", ["centralized", "greedy", "myopic", "fixed", "localized"])
def test_rows_are_one_device_major_array_zero_beyond_each_ladder(case, name):
    mdp, _, pols = case
    pol = pols[name][0]
    for t in range(1, mdp.horizon + 1):
        rows = pol.rows(mdp, t, np.arange(mdp.n_states))
        assert rows.shape == (mdp.m, mdp.n_states, max(mdp.act_dims))
        for d, n_d in enumerate(mdp.act_dims):
            assert rows[d].flags.c_contiguous
            assert not rows[d, :, n_d:].any()
            np.testing.assert_allclose(rows[d].sum(axis=1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["centralized", "greedy", "myopic", "fixed", "localized"])
def test_rows_at_a_batch_are_the_conditionals_at_those_states(case, name):
    mdp, _, pols = case
    pol = pols[name][0]
    s_idx = np.random.default_rng(1).integers(0, mdp.n_states, size=17)
    for t in range(1, mdp.horizon + 1):
        conds = pol.conditionals(mdp, t)
        for rows, cond in zip(pol.rows(mdp, t, s_idx), conds):
            assert np.array_equal(rows, cond[s_idx])


@pytest.mark.parametrize("name", ["centralized", "greedy", "myopic", "fixed", "localized"])
def test_training_records_are_bit_identical_to_the_former_act(case, name):
    mdp, s1, pols = case
    pol, body = pols[name]
    task = make_quadratic_task(mdp.m, 4, 8, heterogeneity=1.0, seed=3)
    horizon = 1 if name == "fixed" else None  # a fixed transmitter may run dry after slot 1
    for seed in range(5):
        new = run_training(mdp, task, pol, seed=seed, eta=0.05, s1=s1, horizon=horizon)
        ref = run_training(mdp, task, ReferenceAct(pol, body), seed=seed, eta=0.05, s1=s1,
                           horizon=horizon)
        for field in ("actions", "batteries", "device_loss", "packets_sent"):
            assert np.array_equal(getattr(new, field), getattr(ref, field)), (seed, field)
