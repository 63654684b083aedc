"""Reference policies: myopic argmin and battery-greedy behavior.

The myopic table is the exact solver's terminal slot. The per-channel-
configuration loop it used to run, with its own feasibility penalty, is kept
here as the reference that the slot must match entry for entry.
"""
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from ehdfl.baselines import GreedyPolicy, MyopicCentralPolicy
from ehdfl.config import parse_config
from ehdfl.errors import BudgetExceeded
from ehdfl.harness import action_feasibility
from ehdfl.instances import capacity_family, desk_scenario, oracle_instance, tiny_instances
from ehdfl.mdp import DEFAULT_BUDGET, backward_induction, evaluate_policy

from test_mdp import PINNED, pinned_instances
from test_oracle import small_models
from test_policy_rows import ragged_line


@pytest.fixture(scope="module")
def pair():
    return oracle_instance()


def loop_myopic_table(mdp) -> np.ndarray:
    """Reference body: per channel configuration, the one-slot costs plus an inf penalty
    on the infeasible joint actions, argmin over each battery configuration's row."""
    cost = mdp.cost_table()  # (nc, na)
    nc, nbc = mdp.n_channel_cfgs, mdp.n_battery_cfgs
    penal = np.where(action_feasibility(mdp).T, 0.0, np.inf)  # (nbc, na)
    table = np.empty(mdp.n_states, dtype=np.int32)
    for c in range(nc):
        rows = cost[c][None, :] + penal  # (nbc, na)
        table[c * nbc:(c + 1) * nbc] = rows.argmin(axis=1)
    return table


def check_myopic_table(mdp):
    """The myopic table equals the former loop and the DP's terminal slot, bit for bit."""
    budget = mdp.n_states * mdp.n_actions
    table = MyopicCentralPolicy(mdp, budget=budget).table(mdp)
    assert table.dtype == np.int32
    assert np.array_equal(table, loop_myopic_table(mdp))
    assert np.array_equal(table, backward_induction(mdp, budget=budget).tables[-1])


@pytest.mark.parametrize("name", PINNED + ["capacity-4", "ragged", "desk"])
def test_myopic_table_is_the_former_loop_and_the_terminal_slot(name):
    if name == "desk":
        mdp = desk_scenario(horizon=2).mdp
    elif name == "ragged":
        mdp = ragged_line()[0]
    else:
        mdp = capacity_family(4)[0] if name == "capacity-4" else pinned_instances()[name][0]
    check_myopic_table(mdp)


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_models())
def test_myopic_table_is_the_former_loop_on_generated_models(model):
    check_myopic_table(model[0])


def test_myopic_budget_is_the_solver_check_made_before_any_cost_table():
    mdp, _ = oracle_instance()
    size = mdp.n_states * mdp.n_actions
    with pytest.raises(BudgetExceeded) as dp:
        backward_induction(mdp, budget=size - 1)
    with pytest.raises(BudgetExceeded) as myopic:
        MyopicCentralPolicy(mdp, budget=size - 1)
    assert str(myopic.value) == str(dp.value)
    assert "_cost_table" not in vars(mdp)  # the cached cost table was never built
    MyopicCentralPolicy(mdp, budget=size)
    assert "_cost_table" in vars(mdp)


def test_the_default_budget_refuses_the_desk_myopic_table(desk):
    assert desk.mdp.n_states * desk.mdp.n_actions > DEFAULT_BUDGET
    with pytest.raises(BudgetExceeded):
        MyopicCentralPolicy(desk.mdp)


def test_myopic_action_is_feasible_argmin(pair):
    mdp, _ = pair
    pol = MyopicCentralPolicy(mdp)
    feas_all = action_feasibility(mdp)
    for s in range(mdp.n_states):
        a = pol.act(mdp, s, 1)
        a_idx = np.ravel_multi_index(a, mdp.act_dims)
        b = s % mdp.n_battery_cfgs
        feas = feas_all[:, b]
        assert feas[a_idx]
        costs = mdp.cost_table()[s // mdp.n_battery_cfgs]
        best = min(c for c, ok in zip(costs, feas) if ok)
        assert costs[a_idx] == pytest.approx(best, abs=1e-12)


def test_myopic_ties_break_to_lowest_index(pair):
    mdp, _ = pair
    pol = MyopicCentralPolicy(mdp)
    feas_all = action_feasibility(mdp)
    for s in range(mdp.n_states):
        a_idx = np.ravel_multi_index(pol.act(mdp, s, 1), mdp.act_dims)
        b = s % mdp.n_battery_cfgs
        feas = feas_all[:, b]
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
        for cond in pol.conditionals(mdp, 1):
            rows = np.broadcast_to(cond, mdp.state_shape + cond.shape[-1:])
            np.testing.assert_allclose(rows.sum(axis=-1), 1.0, atol=0)
            assert ((rows == 0.0) | (rows == 1.0)).all()


def test_conditionals_match_act(pair):
    mdp, _ = pair
    for pol in (MyopicCentralPolicy(mdp), GreedyPolicy(mdp)):
        conds = [np.broadcast_to(c, mdp.state_shape + c.shape[-1:])
                 for c in pol.conditionals(mdp, 1)]
        for s in range(mdp.n_states):
            a = pol.act(mdp, s, 1)
            digits = np.unravel_index(s, mdp.state_shape)
            for d in range(mdp.m):
                assert conds[d][digits + (a[d],)] == 1.0


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
