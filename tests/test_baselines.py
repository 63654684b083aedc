"""Reference policies: myopic argmin and battery-greedy behavior."""
import json
from pathlib import Path

import numpy as np
import pytest

from ehdfl.baselines import GreedyPolicy, MyopicCentralPolicy
from ehdfl.config import parse_config
from ehdfl.errors import BudgetExceeded
from ehdfl.instances import oracle_instance, tiny_instances
from ehdfl.mdp import evaluate_policy


@pytest.fixture(scope="module")
def pair():
    return oracle_instance()


def test_myopic_action_is_feasible_argmin(pair):
    mdp, _ = pair
    pol = MyopicCentralPolicy(mdp)
    for s in range(mdp.n_states):
        a = pol.act(mdp, s, 1)
        a_idx = mdp.action_index(a)
        b = s % mdp.n_battery_cfgs
        feas = mdp.action_feasibility[:, b]
        assert feas[a_idx]
        costs = mdp.cost_table()[s // mdp.n_battery_cfgs]
        best = min(c for c, ok in zip(costs, feas) if ok)
        assert costs[a_idx] == pytest.approx(best, abs=1e-12)


def test_myopic_ties_break_to_lowest_index(pair):
    mdp, _ = pair
    pol = MyopicCentralPolicy(mdp)
    for s in range(mdp.n_states):
        a_idx = mdp.action_index(pol.act(mdp, s, 1))
        b = s % mdp.n_battery_cfgs
        feas = mdp.action_feasibility[:, b]
        costs = mdp.cost_table()[s // mdp.n_battery_cfgs]
        best = costs[a_idx]
        for cand in range(a_idx):
            if feas[cand]:
                assert costs[cand] > best


def test_myopic_is_stationary(pair):
    mdp, _ = pair
    pol = MyopicCentralPolicy(mdp)
    for s in range(mdp.n_states):
        assert pol.act(mdp, s, 1) == pol.act(mdp, s, mdp.horizon)


def test_greedy_spends_to_the_highest_feasible_level(pair):
    mdp, _ = pair
    pol = GreedyPolicy(mdp)
    for s in range(mdp.n_states):
        a = pol.act(mdp, s, 1)
        for d in range(mdp.m):
            b = mdp.state_decode(s).batteries[d]
            feas = mdp.feasible_level_masks[d][:, b]
            assert a[d] == int(np.nonzero(feas)[0].max())


def test_greedy_silent_on_empty_battery(pair):
    mdp, _ = pair
    pol = GreedyPolicy(mdp)
    # state with both batteries drained: battery config 0
    ch = 1  # arbitrary channel configuration
    s = ch * mdp.n_battery_cfgs + 0
    assert pol.act(mdp, s, 1) == (0, 0)


def test_conditionals_are_deterministic_rows(pair):
    mdp, _ = pair
    for pol in (MyopicCentralPolicy(mdp), GreedyPolicy(mdp)):
        for rows in pol.conditionals(mdp, 1):
            assert rows.shape[0] == mdp.n_states
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=0)
            assert ((rows == 0.0) | (rows == 1.0)).all()


def test_conditionals_match_act(pair):
    mdp, _ = pair
    for pol in (MyopicCentralPolicy(mdp), GreedyPolicy(mdp)):
        conds = pol.conditionals(mdp, 1)
        for s in range(mdp.n_states):
            a = pol.act(mdp, s, 1)
            for d in range(mdp.m):
                assert conds[d][s, a[d]] == 1.0


def test_greedy_never_beats_the_exact_solution():
    for inst in tiny_instances().values():
        mdp, s1 = inst.mdp, inst.s1
        from ehdfl.mdp import backward_induction
        sol = backward_induction(mdp)
        j_star = float(sol.values[0][mdp.state_index(s1)])
        for pol in (MyopicCentralPolicy(mdp), GreedyPolicy(mdp)):
            j = evaluate_policy(mdp, pol, s1)
            assert j >= j_star - 1e-9


def test_an_oversized_myopic_table_is_refused_when_the_policy_is_built():
    # The table is built in the constructor, so build_policy refuses it (exit 3)
    # before any evaluation starts; 16 devices give 2^16 x 2^16 (channel, action) pairs.
    raw = json.loads((Path(__file__).resolve().parents[1] / "configs" / "desk8.json").read_text())
    raw["topology"]["m"] = 16
    del raw["s1"]
    cfg = parse_config(raw)
    with pytest.raises(BudgetExceeded):
        cfg.build_policy(cfg.build_model(), "myopic_central")
