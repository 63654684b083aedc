"""The exhaustive oracle: one model query per (state, action), and agreement
with the exact DP on generated models, where the energy-pruned DP also
matches the unpruned tree bit for bit.

`exhaustive_minimum` memoizes each pair's scalar cost and transition. The
enumeration it used to run, querying the model on every assignment, is kept
here as the reference that the memoized oracle must match float for float.
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
from ehdfl.harness import exhaustive_minimum
from ehdfl.instances import oracle_instance, tiny_instances
from ehdfl.mdp import GlobalState, backward_induction, build_mdp
from ehdfl.topology import build_topology
from test_mdp import reference_backward_induction


def unmemoized_minimum(mdp, s1) -> float:
    """Reference body: the model is queried again in every assignment."""
    feas = mdp.action_feasibility
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
    calls = {"one_step_cost": Counter(), "transition": Counter()}
    for method, counter in calls.items():
        def counted(s, a, _fn=getattr(mdp, method), _counter=counter):
            _counter[(int(s), int(a))] += 1
            return _fn(s, a)
        monkeypatch.setattr(mdp, method, counted)
    assert exhaustive_minimum(mdp, s1) == ref
    for counter in calls.values():
        assert counter and max(counter.values()) == 1
    assert set(calls["transition"]) == set(calls["one_step_cost"])


# ---------------------------------------------------------------------------
# generated models
# ---------------------------------------------------------------------------

MAX_ASSIGNMENTS = 20_000  # well inside the oracle's guard, and fast enough to enumerate


def assignment_count(mdp, s1) -> int:
    """Deterministic assignments the oracle would enumerate from s1."""
    feas = mdp.action_feasibility
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
    for t in range(mdp.horizon):
        assert np.array_equal(sol.values[t], values[t])
        assert np.array_equal(sol.tables[t], tables[t])
