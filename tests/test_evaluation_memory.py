"""Exact evaluation holds each policy once, bit for bit.

`former_table_conditionals` (one stacked take, whose per-device views kept
every device's rows alive together), `former_battery_mixes` (every device's
mix in one call), `former_backward_expectation` (the fold on blocks of up to
2**19 floats, sized by a width that overcounted fold 0) and
`former_evaluate_policy` (which held a slot's conditionals through the whole
fold) are the bodies exact evaluation ran before each device's rows became
their own array, released as its mix is made. They are kept as the
references the new code must equal bit for bit.
The memory tests pin the tracemalloc peak of `evaluate_policy` on the desk
ring, where the former code held the conditionals and the mixes at once.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ehdfl import mdp as mdp_module
from ehdfl.baselines import MyopicCentralPolicy
from ehdfl.channel import ChannelChain, RadioParams
from ehdfl.energy import EnergyParams, HarvestModel
from ehdfl.instances import desk_scenario
from ehdfl.localized import synthesize
from ehdfl.mdp import (CentralizedPolicy, backward_expectation, battery_mix, battery_mixes,
                       build_mdp, contract_leading, evaluate_policy, expected_cost_rows,
                       table_conditionals)
from ehdfl.topology import build_topology

from test_mdp import PINNED, five_policies, pinned_instances, random_localized
from test_oracle import small_models
from test_policy_rows import ragged_line

MIB = 2 ** 20


def former_table_conditionals(mdp, table):
    """The former body: (m,) + state_shape + (W,), one take for every device at once."""
    return mdp.action_one_hot.take(table, axis=1).reshape((mdp.m,) + mdp.state_shape + (-1,))


def former_battery_mixes(mdp, conds):
    """The former body: per device, one batched matmul per battery digit b_d."""
    L, nb = mdp.n_links, mdp.energy.n_levels
    mixes = []
    for d, kb in enumerate(mdp.battery_kernels):
        cond = conds[d][..., :len(kb)]
        lead, n_own, tail = cond.shape[:L + d], cond.shape[L + d], cond.shape[L + d + 1:-1]
        cond = cond.reshape(math.prod(lead), n_own, math.prod(tail), len(kb))
        mix = np.empty(cond.shape[:1] + (nb,) + cond.shape[2:3] + (nb,))
        for b in range(nb):
            np.matmul(cond[:, b if n_own > 1 else 0], kb[:, b, :], out=mix[:, b])
        mixes.append(mix.reshape(lead + (nb,) + tail + (nb,)))
    return mixes


def former_backward_expectation(mdp, v_next, mixes):
    """The former fold: blocks of channel configurations sized by a width that counted
    fold 0 as nb times wider than it is, at most 2**19 floats."""
    nc, nbc, nb, m = mdp.n_channel_cfgs, mdp.n_battery_cfgs, mdp.energy.n_levels, mdp.m
    mixes = [mdp_module._flat_links(mdp, mix) for mix in mixes]
    w = v_next.reshape(tuple(mdp.link_dims) + (nbc,))
    for chain in mdp.chains:
        w = contract_leading(w, chain.psi)
    w = w.reshape(nbc, nc).T
    scope, width = (1,) * m, 1
    for d, mix in enumerate(mixes):
        scope = tuple(map(max, scope, mix.shape[1:-1]))
        width = max(width, math.prod(scope) * nb ** (m - d))
    out = np.empty((nc,) + tuple(mdp.bat_dims))
    cb = max(1, 2 ** 19 // width)
    for c0 in range(0, nc, cb):
        c1 = min(c0 + cb, nc)
        y = w[c0:c1].reshape(c1 - c0, nb, -1)
        mix = mixes[0][c0:c1] if len(mixes[0]) > 1 else mixes[0]
        y = np.matmul(mix.reshape(len(mix), -1, nb), y)
        y = y.reshape((c1 - c0,) + mix.shape[1:-1] + (-1,))
        for mix in mixes[1:]:
            mix = mix[c0:c1] if len(mix) > 1 else mix
            batch = tuple(map(max, y.shape[:-1], mix.shape[:-1]))
            r = y.shape[-1] // nb
            mix = mdp_module._expanded(mix, batch + (nb,))
            y = mdp_module._expanded(y.reshape(y.shape[:-1] + (nb, r)), batch + (nb, r))
            y = np.einsum("sk,skr->sr", mix.reshape(-1, nb), y.reshape(-1, nb, r))
            y = y.reshape(batch + (r,))
        out[c0:c1] = y[..., 0]
    return out.reshape(-1)


def former_conditionals(mdp, pol, t):
    """A policy's conditionals as the former code built them: table policies' rows are
    views of one stacked take."""
    if isinstance(pol, CentralizedPolicy):
        return former_table_conditionals(mdp, pol.tables[t - 1])
    if isinstance(pol, MyopicCentralPolicy):
        return former_table_conditionals(mdp, pol.table(mdp))
    return pol.conditionals(mdp, t)


def former_evaluate_policy(mdp, policy, s1):
    """The former body: each slot's conditionals held until the next slot's replace them."""
    T = mdp.horizon
    stationary = getattr(policy, "stationary", False)
    conds = former_conditionals(mdp, policy, T)
    v = c = expected_cost_rows(mdp, conds)
    mixes = former_battery_mixes(mdp, conds) if stationary else None
    for t in range(T - 1, 0, -1):
        if not stationary:
            conds = former_conditionals(mdp, policy, t)
            c, mixes = expected_cost_rows(mdp, conds), former_battery_mixes(mdp, conds)
        v = c + former_backward_expectation(mdp, v, mixes)
    return float(v[mdp.state_index(s1)])


def all_policies(mdp):
    """One policy of each class, and random hops-0 and hops-2 localized ones."""
    return {**five_policies(mdp), "localized-0": random_localized(mdp, 0, seed=1),
            "localized-2": random_localized(mdp, 2, seed=2)}


def model_case(name):
    if name == "desk":
        desk = desk_scenario(horizon=2)
        return desk.mdp, desk.s1
    return ragged_line() if name == "ragged" else pinned_instances()[name]


def check_costs_equal_the_former_evaluation(mdp, s1):
    for name, pol in all_policies(mdp).items():
        assert evaluate_policy(mdp, pol, s1) == former_evaluate_policy(mdp, pol, s1), name


# ---------------------------------------------------------------------------
# bits: table rows, mixes and exact costs against the former bodies
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", PINNED + ["ragged", "desk"])
def test_table_conditionals_are_the_former_stacked_take_one_array_per_device(name):
    mdp, _ = model_case(name)
    table = MyopicCentralPolicy(mdp, budget=mdp.n_states * mdp.n_actions).table(mdp)
    conds = table_conditionals(mdp, table)
    former = former_table_conditionals(mdp, table)
    assert len(conds) == mdp.m
    for d, cond in enumerate(conds):
        assert cond.shape == former[d].shape and np.array_equal(cond, former[d]), d
        assert cond.flags.c_contiguous
        assert not any(np.shares_memory(cond, other) for other in conds[d + 1:]), d


@pytest.mark.parametrize("name", PINNED + ["ragged", "desk"])
def test_exact_costs_equal_the_former_evaluation_for_every_policy(name):
    check_costs_equal_the_former_evaluation(*model_case(name))


@settings(max_examples=30, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_models())
def test_exact_costs_equal_the_former_evaluation_on_generated_models(model):
    check_costs_equal_the_former_evaluation(*model)


@st.composite
def mix_cases(draw):
    """(mdp, conds): 2 to 4 devices on a line or ring, 2 to 4 battery levels, ladders of 2
    to 4 levels, chains of 1 or 2 gains, and stochastic rows zero-padded to W, each on a
    random scope of the state axes; the last device's rows span every axis, so its rows
    have a tail of 1 after its battery and take matmul's gemv."""
    m, nb = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    topo = build_topology(draw(st.sampled_from(["line", "ring"])) if m > 2 else "line", m)
    energy = EnergyParams(k_steps=1, cpu_freq=1.0, cycles_per_sample=0.0, batch_size=1,
                          tau=1.0, b_max=float(nb - 1), n_levels=nb)
    chains = []
    for _ in topo.edges:
        n = draw(st.integers(1, 2))
        chains.append(ChannelChain(levels=np.arange(1.0, n + 1), steady=np.full(n, 1.0 / n),
                                   psi=np.full((n, n), 1.0 / n)))
    ladders = [[0.0] + sorted(draw(st.sets(st.sampled_from([0.4, 1.0, 2.0, 3.0]),
                                           min_size=1, max_size=3))) for _ in range(m)]
    support = sorted(draw(st.sets(st.integers(0, nb), min_size=1, max_size=3)))
    harvest = HarvestModel(support=np.array(support, dtype=float),
                           probs=np.full(len(support), 1.0 / len(support)))
    mdp = build_mdp(topo, RadioParams(1.0, (0.4,) * m, 1.0), energy, chains, harvest,
                    ladders, 1)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    conds = []
    for d in range(m):
        full = d == m - 1 or draw(st.booleans())
        scope = tuple(n if full or draw(st.booleans()) else 1 for n in mdp.state_shape)
        x = rng.random(scope + (max(mdp.act_dims),))
        x[..., mdp.act_dims[d]:] = 0.0
        conds.append(x / x.sum(axis=-1, keepdims=True))
    return mdp, conds


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mix_cases())
def test_battery_mixes_are_the_former_body_bit_for_bit_and_leave_their_argument(case):
    mdp, conds = case
    before = [c.copy() for c in conds]
    arrays = list(conds)
    former = former_battery_mixes(mdp, conds)
    mixes = battery_mixes(mdp, conds)
    assert [c is a for c, a in zip(conds, arrays)] == [True] * mdp.m
    for d, (got, want) in enumerate(zip(mixes, former, strict=True)):
        assert got.shape == want.shape and np.array_equal(got, want), d
        assert np.array_equal(battery_mix(mdp, d, conds[d]), want), d
    for c, b in zip(conds, before):
        assert np.array_equal(c, b)


@pytest.mark.parametrize("name", PINNED + ["desk"])
def test_the_fold_bits_do_not_depend_on_its_block_size(name, monkeypatch):
    mdp, _ = model_case(name)
    v_next = 0.5 + np.random.default_rng(3).random(mdp.n_states)
    for pname, pol in all_policies(mdp).items():
        mixes = battery_mixes(mdp, pol.conditionals(mdp, 1))
        ref = backward_expectation(mdp, v_next, mixes)
        for block in (1, 2 ** 13, 2 ** 40):
            monkeypatch.setattr(mdp_module, "FOLD_BLOCK", block)
            assert np.array_equal(backward_expectation(mdp, v_next, mixes), ref), (pname, block)
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# memory: the tracemalloc peak of exact evaluation on the desk ring
# ---------------------------------------------------------------------------

def traced_peak(f):
    """f's tracemalloc peak in bytes above what was live when it started; f runs once
    before, so the model's cached properties are built outside the trace."""
    f()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        f()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def desk2():
    return desk_scenario(horizon=2)


def test_myopic_evaluation_on_desk_holds_the_policy_once(desk2):
    # The former code peaked at 20.6 MiB: conditionals, mixes and fold blocks together.
    pol = MyopicCentralPolicy(desk2.mdp, budget=desk2.budget)
    peak = traced_peak(lambda: evaluate_policy(desk2.mdp, pol, desk2.s1))
    assert peak <= 12 * MIB, peak / MIB


def test_hops1_evaluation_on_desk_peaks_at_most_0_6_of_the_former_figure(desk2):
    # The former code peaked at 9.3 MiB on this policy.
    pol = synthesize(desk2.mdp, hops=1, gamma=desk2.gamma, rounds=1)
    peak = traced_peak(lambda: evaluate_policy(desk2.mdp, pol, desk2.s1))
    assert peak <= 0.6 * 9.3 * MIB, peak / MIB
