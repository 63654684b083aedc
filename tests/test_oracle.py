"""The exhaustive oracle: one model query per (state, action), and agreement
with the exact DP on generated models, where the energy-pruned DP also
matches the unpruned tree bit for bit.

`exhaustive_minimum` prices each pair once, its cost in one batched query per
slot. The enumeration it used to run, querying the model on every assignment,
is kept here as the reference that the memoized oracle must match float for
float.
"""
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ehdfl.channel import ChannelChain, RadioParams
from ehdfl.energy import EnergyParams, HarvestModel
from ehdfl.harness import action_feasibility, exhaustive_minimum
from ehdfl.instances import oracle_instance, tiny_instances
from ehdfl.mdp import GlobalState, backward_induction, build_mdp, evaluate_policy
from ehdfl.topology import build_topology
from test_localized import check_localized_cost_tables
from test_mdp import (check_cost_tables, check_draws_rise, check_former_layout,
                      check_scalar_queries, check_scoped_conditionals, check_scoped_fold,
                      check_terminal_slot, five_policies, layout_policies,
                      reference_backward_induction)
from test_policy_rows import check_digit_rows


def unmemoized_minimum(mdp, s1) -> float:
    """Reference body: the model is queried again in every assignment."""
    feas = action_feasibility(mdp)
    nbc = mdp.n_battery_cfgs

    def acts(s):
        return np.nonzero(feas[:, s % nbc])[0]

    s0 = mdp.state_index(s1)
    reach = [{s0}]
    for _ in range(1, mdp.horizon):
        nxt = set()
        for s in reach[-1]:
            for a in acts(s):
                nxt |= set(mdp.transition(int(s), int(a)))
        reach.append(nxt)
    slots = [(t, s) for t, states in enumerate(reach) for s in sorted(states)]
    choices = [acts(s) for _, s in slots]
    pos = {ts: k for k, ts in enumerate(slots)}
    best = np.inf
    for assign in itertools.product(*choices):
        rho = {s0: 1.0}
        total = 0.0
        for t in range(mdp.horizon):
            nxt: dict[int, float] = {}
            for s, p in rho.items():
                a = int(assign[pos[(t, s)]])
                total += p * mdp.one_step_cost(s, a)
                for s2, q in mdp.transition(s, a).items():
                    nxt[s2] = nxt.get(s2, 0.0) + p * q
            rho = nxt
        best = min(best, total)
    return float(best)


def oracle_cases():
    """The cases `verify_suite` certifies the DP on."""
    cases = {name: (inst.mdp, inst.s1) for name, inst in tiny_instances().items()}
    cases["pair"] = oracle_instance()
    return cases


@pytest.mark.parametrize("name", sorted(oracle_cases()))
def test_oracle_queries_each_pair_once_and_matches_the_unmemoized_enumeration(
        name, monkeypatch):
    mdp, s1 = oracle_cases()[name]
    ref = unmemoized_minimum(mdp, s1)
    costed, stepped, batches = Counter(), Counter(), []

    def one_step_costs(states, actions, _fn=mdp.one_step_costs):
        batches.append(len(states))
        costed.update(zip(np.asarray(states).tolist(), np.asarray(actions).tolist()))
        return _fn(states, actions)

    def transition(s, a, _fn=mdp.transition):
        stepped[(int(s), int(a))] += 1
        return _fn(s, a)

    monkeypatch.setattr(mdp, "one_step_costs", one_step_costs)
    monkeypatch.setattr(mdp, "transition", transition)
    assert exhaustive_minimum(mdp, s1) == ref
    for counter in (costed, stepped):
        assert counter and max(counter.values()) == 1
    assert set(stepped) == set(costed)
    assert len(batches) <= mdp.horizon  # at most one batched cost query per slot


def binding_instance():
    """tiny-a's line and frozen gains with a 2 J level, one whole battery quantum, and
    harvests of 0 or 2 J. The tiny instances' 0.9 J level rounds to no quanta, so
    their batteries never move; here a battery runs dry and energy causality binds."""
    base = tiny_instances()["tiny-a"].mdp
    harvest = HarvestModel(support=np.array([0.0, 2.0]), probs=np.array([0.5, 0.5]))
    mdp = build_mdp(base.topo, base.radio, base.energy, base.chains, harvest,
                    power_levels=[0.0, 2.0], horizon=2)
    return mdp, GlobalState(gains=(1, 1), batteries=(1, 1, 1))


def test_oracle_and_pruned_dp_agree_where_energy_causality_binds():
    mdp, s1 = binding_instance()
    assert any(q.any() for q in mdp.draw_quanta)
    assert not action_feasibility(mdp).all()
    sol = backward_induction(mdp)
    assert abs(sol.expected_cost(s1) - exhaustive_minimum(mdp, s1)) <= 1e-9
    values, tables = reference_backward_induction(mdp)
    for t in range(mdp.horizon):
        assert np.array_equal(sol.values[t], values[t])
        assert np.array_equal(sol.tables[t], tables[t])


# ---------------------------------------------------------------------------
# generated models
# ---------------------------------------------------------------------------

MAX_ASSIGNMENTS = 20_000  # well inside the oracle's guard, and fast enough to enumerate


def assignment_count(mdp, s1) -> int:
    """Deterministic assignments the oracle would enumerate from s1."""
    feas = action_feasibility(mdp)
    nbc = mdp.n_battery_cfgs
    reach = [{mdp.state_index(s1)}]
    for _ in range(1, mdp.horizon):
        reach.append({s2 for s in reach[-1] for a in np.nonzero(feas[:, s % nbc])[0]
                      for s2 in mdp.transition(s, int(a))})
    return math.prod(int(feas[:, s % nbc].sum()) for states in reach for s in states)


@st.composite
def small_models(draw):
    kind, m = draw(st.sampled_from([("line", 2), ("line", 3), ("ring", 3),
                                    ("complete", 2), ("complete", 3)]))
    topo = build_topology(kind, m)
    n_levels = draw(st.integers(2, 3))
    energy = EnergyParams(k_steps=1, cpu_freq=1.0, cycles_per_sample=0.0, batch_size=1,
                          tau=1.0, b_max=float(n_levels - 1), n_levels=n_levels)
    chains = []
    for _ in topo.edges:
        lo = draw(st.sampled_from([0.2, 0.5]))
        hi = lo + draw(st.sampled_from([0.5, 2.0]))
        q0, q1 = draw(st.sampled_from([(0.0, 0.0), (0.2, 0.2), (0.2, 0.4), (0.4, 0.2)]))
        steady = np.array([q1, q0]) / (q0 + q1) if q0 else np.array([0.5, 0.5])
        chains.append(ChannelChain(levels=np.array([lo, hi]), steady=steady,
                                   psi=np.array([[1.0 - q0, q0], [q1, 1.0 - q1]])))
    support = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
    weights = np.array(draw(st.lists(st.integers(1, 3), min_size=len(support),
                                     max_size=len(support))), dtype=float)
    order = np.argsort(support)
    harvest = HarvestModel(support=np.array(support, dtype=float)[order],
                           probs=weights[order] / weights.sum())
    power = draw(st.sampled_from([0.4, 1.0, 2.0]))  # 0, 1 or 2 battery quanta
    # an optional top level one or two quanta dearer, possibly more than a battery holds
    ladder = [0.0, power] + draw(st.sampled_from([[], [power + 1.0], [power + 2.0]]))
    phi = draw(st.sampled_from([0.5, 1.3, 2.4]))
    mdp = build_mdp(topo, RadioParams(phi, (0.4,) * m, 1.0), energy, chains, harvest,
                    ladder, draw(st.integers(1, 3)))
    s1 = GlobalState(gains=tuple(draw(st.integers(0, 1)) for _ in chains),
                     batteries=tuple(draw(st.integers(0, n_levels - 1)) for _ in range(m)))
    return mdp, s1


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(small_models())
def test_dp_matches_the_exhaustive_oracle_on_generated_models(model):
    mdp, s1 = model
    assume(assignment_count(mdp, s1) <= MAX_ASSIGNMENTS)
    j_dp = backward_induction(mdp).expected_cost(s1)
    assert abs(j_dp - exhaustive_minimum(mdp, s1)) <= 1e-9


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_models())
def test_pruned_dp_is_bit_identical_to_the_unpruned_tree_on_generated_models(model):
    mdp, _ = model
    sol = backward_induction(mdp)
    values, tables = reference_backward_induction(mdp)
    # t = horizon - 1 is the terminal slot, which the solver runs without continuation
    # and the reference runs on a contracted V_{T+1} of zeros
    for t in range(mdp.horizon):
        assert np.array_equal(sol.values[t], values[t])
        assert np.array_equal(sol.tables[t], tables[t])


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_models())
def test_terminal_slot_is_the_tree_bit_for_bit_on_generated_models(model):
    # 3-level ladders, levels of zero quanta and levels no battery can fund
    check_draws_rise(model[0])
    check_terminal_slot(model[0])


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_models())
def test_scoped_conditionals_broadcast_to_the_rows_on_generated_models(model):
    mdp, _ = model
    check_scoped_conditionals(mdp, five_policies(mdp))


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_models())
def test_scoped_fold_matches_the_per_state_reference_on_generated_models(model):
    mdp, _ = model
    check_scoped_fold(mdp, five_policies(mdp))


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_models())
def test_conditionals_and_cost_rows_equal_the_former_layout_on_generated_models(model):
    mdp, _ = model
    check_former_layout(mdp, layout_policies(mdp))


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_models())
def test_evaluating_the_solution_policy_gives_the_solution_values_on_generated_models(model):
    # the full-scope path of exact evaluation, at every state
    mdp, _ = model
    sol = backward_induction(mdp)
    pol = sol.as_policy()
    for s in range(mdp.n_states):
        ref = sol.values[0][s]
        assert abs(evaluate_policy(mdp, pol, s) - ref) <= 1e-12 * ref, s


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_models())
def test_digit_rows_equal_the_former_index_rows_on_generated_models(model):
    mdp, _ = model
    check_digit_rows(mdp, five_policies(mdp))


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_models())
def test_kernel_tables_equal_the_former_tables_on_generated_models(model):
    mdp, _ = model
    check_cost_tables(mdp)
    check_localized_cost_tables(mdp)


def channel_states(mdp):
    """One flat state per channel configuration, battery digits varying with it."""
    c = np.arange(mdp.n_channel_cfgs)
    return c, c * mdp.n_battery_cfgs + c % mdp.n_battery_cfgs


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_models())
def test_cost_table_matches_the_scalar_oracle_on_generated_models(model):
    mdp, _ = model
    tbl = mdp.cost_table()
    for c, s in zip(*channel_states(mdp)):
        for a in range(mdp.n_actions):
            assert tbl[c, a] == mdp.one_step_cost(int(s), a)


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_models())
def test_device_shares_sum_to_the_one_step_cost_on_generated_models(model):
    mdp, _ = model
    for _, s in zip(*channel_states(mdp)):
        for a in range(mdp.n_actions):
            parts = sum(mdp.device_cost(int(s), a, d) for d in range(mdp.m))
            assert abs(mdp.one_step_cost(int(s), a) - parts) <= 1e-12


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_models())
def test_scalar_and_batched_queries_equal_the_former_link_loss_on_generated_models(model):
    mdp, _ = model
    _, s = channel_states(mdp)
    a = np.arange(mdp.n_actions)
    check_scalar_queries(mdp, np.repeat(s, len(a)), np.tile(a, len(s)))  # every action at each
