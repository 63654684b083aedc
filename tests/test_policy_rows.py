"""The shared policy interface: per-state rows, one `act` draw rule for all policies.

Each policy class used to carry its own `act`. Those bodies are kept here as
references; the shared `act` must pick the same levels at every state and
leave the training co-simulation bit-identical.
"""
import numpy as np
import pytest

from ehdfl.baselines import GreedyPolicy, MyopicCentralPolicy
from ehdfl.dflsim import run_training
from ehdfl.instances import capacity_family, oracle_instance
from ehdfl.learning import make_quadratic_task
from ehdfl.localized import synthesize
from ehdfl.mdp import FixedLevelsPolicy, backward_induction


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


INSTANCES = {"pair": oracle_instance, "capacity-3": lambda: capacity_family(3)}


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
