import dataclasses
import json
import zipfile
from pathlib import Path

import numpy as np
import pytest

from ehdfl.baselines import GreedyPolicy, MyopicCentralPolicy
from ehdfl.channel import ChannelChain, RadioParams
from ehdfl.config import load_config
from ehdfl.energy import EnergyParams, HarvestModel
from ehdfl.errors import BudgetExceeded, CausalityViolation
from ehdfl.harness import _decomposition_error, action_feasibility, exhaustive_minimum
from ehdfl.instances import (DESK_BUDGET, capacity_family, capacity_pair, desk_scenario,
                             oracle_instance, tiny_instances)
from ehdfl.localized import LocalizedPolicy, build_cover, synthesize
from ehdfl import mdp as mdp_module
from ehdfl.mdp import (GlobalState, backward_expectation, backward_induction, battery_mixes,
                       build_mdp, contract_leading, contract_trailing, evaluate_policy,
                       expected_cost_rows, load_solution, on_axis, sample_costs, save_solution,
                       simulate_costs)
from ehdfl.topology import build_topology
from test_channel import dense_gains, reference_packet_error_rate
from test_policy_rows import (FixedLevelsPolicy, check_digit_rows, former_conditionals,
                              former_state_shape, ragged_line, state_digits)


def state_rows(mdp, conds):
    """Scoped conditionals broadcast to the full state layout: per device, (n_states, W)."""
    return [np.broadcast_to(c, mdp.state_shape + c.shape[-1:]).reshape(mdp.n_states, -1)
            for c in conds]


def propagate(mdp, rho, conds):
    """Forward oracle: one-slot pushforward of a state distribution.

    conds holds each device's (n_states, W) rows, as `state_rows` gives them.
    Builds the row-wise outer product of every device's policy-mixed battery
    row, sums out the current battery digits, then applies the link chains.
    """
    nc, nbc = mdp.n_channel_cfgs, mdp.n_battery_cfgs
    digits = np.unravel_index(np.arange(mdp.n_states), mdp.link_dims + mdp.bat_dims)
    mixes = []
    for d in range(mdp.m):
        rows = mdp.battery_kernels[d][:, digits[mdp.n_links + d], :]
        mixes.append(np.einsum("sl,lsb->sb", conds[d][:, :len(rows)], rows))
    w = rho[:, None]
    for d in range(mdp.m):
        w = (w[:, :, None] * mixes[d][:, None, :]).reshape(mdp.n_states, -1)
    r = w.reshape(nc, nbc, nbc).sum(axis=1).reshape(tuple(mdp.link_dims) + (nbc,))
    for k in range(mdp.n_links):
        r = np.moveaxis(np.tensordot(mdp.chains[k].psi, r, axes=([0], [k])), 0, k)
    return r.reshape(mdp.n_states)


def former_gain_values(mdp):
    """The former `GlobalMdp.gain_values`: per link, its gain at every channel configuration."""
    digits = np.unravel_index(np.arange(mdp.n_channel_cfgs), mdp.link_dims)
    return [chain.levels[g] for chain, g in zip(mdp.chains, digits)]


def former_expected_cost_rows(mdp, conds):
    """The former body: conds broadcastable to `former_state_shape` + (W,), every survival
    factor computed per channel configuration and reshaped onto the flattened channel axis."""
    phi, powers, gains = mdp.radio.phi, mdp.power_levels, former_gain_values(mdp)
    per_cfg = (-1,) + (1,) * mdp.m  # a channel-configuration vector on the state layout
    out = np.zeros(former_state_shape(mdp))
    for i, j, w, e_own, interf in mdp.ordered_pairs:
        h_own = gains[e_own]
        cond_j = conds[j]
        acc = cond_j[..., 0]  # silent level: guaranteed loss
        for l, pj in enumerate(powers[j][1:], start=1):
            denom = pj * h_own
            surv = np.exp(-phi * mdp.radio.noise(i) / denom).reshape(per_cfg)
            for k, e_k in interf:
                hk = gains[e_k]
                f = 0.0
                for lk, pk in enumerate(powers[k]):
                    if pk == 0.0:
                        f = f + conds[k][..., lk]
                    else:
                        e = np.exp(-phi * pk * hk / denom).reshape(per_cfg)
                        f = f + conds[k][..., lk] * e
                surv = surv * f
            acc = acc + cond_j[..., l] * (1.0 - surv)
        out += w * acc
    return out.reshape(-1)


def per_state_expected_cost_rows(mdp, conds):
    """Reference body: survival factors recomputed over every state, from (n_states, W) rows."""
    n_s = mdp.n_states
    phi = mdp.radio.phi
    gain_values = former_gain_values(mdp)
    out = np.zeros(n_s)
    for i, j, w, e_own, interf in mdp.ordered_pairs:
        h_own = np.repeat(gain_values[e_own], mdp.n_battery_cfgs)
        cond_j = conds[j]
        acc = cond_j[:, 0].copy()  # silent level: guaranteed loss
        for l in range(1, mdp.act_dims[j]):
            pj = mdp.power_levels[j][l]
            denom = pj * h_own
            surv = np.exp(-phi * mdp.radio.noise(i) / denom)
            for k, e_k in interf:
                hk = np.repeat(gain_values[e_k], mdp.n_battery_cfgs)
                f = np.zeros(n_s)
                for lk in range(mdp.act_dims[k]):
                    pk = mdp.power_levels[k][lk]
                    if pk == 0.0:
                        f += conds[k][:, lk]
                    else:
                        f += conds[k][:, lk] * np.exp(-phi * pk * hk / denom)
                surv = surv * f
            acc += cond_j[:, l] * (1.0 - surv)
        out += w * acc
    return out


def forward_cost(mdp, policy, s1):
    """Forward oracle for J: sum over slots of E_rho_t[one-slot cost]."""
    rho = np.zeros(mdp.n_states)
    rho[mdp.state_index(s1)] = 1.0
    total = 0.0
    for t in range(1, mdp.horizon + 1):
        conds = policy.conditionals(mdp, t)
        total += float(rho @ expected_cost_rows(mdp, conds))
        rho = propagate(mdp, rho, state_rows(mdp, conds))
    return total


def per_state_battery_mixes(mdp, conds):
    """Reference body: per device, (n_states, nb) mixed battery rows from (n_states, W) rows,
    one gemm per battery digit b_d over every state."""
    nb, m = mdp.energy.n_levels, mdp.m
    mixes = []
    for d, kb in enumerate(mdp.battery_kernels):
        cond = conds[d][:, :len(kb)].reshape(-1, nb, nb ** (m - 1 - d), len(kb))
        mix = np.empty(cond.shape[:3] + (nb,))
        for b in range(nb):
            np.matmul(cond[:, b], kb[:, b, :], out=mix[:, b])
        mixes.append(mix.reshape(-1, nb))
    return mixes


def per_state_backward_expectation(mdp, v_next, mixes):
    """Reference body: E[v_next(s') | s] from `per_state_battery_mixes`, every device's
    next battery folded at every state, over blocks of at most 2M floats."""
    nc, nbc, nb, m = mdp.n_channel_cfgs, mdp.n_battery_cfgs, mdp.energy.n_levels, mdp.m
    w = v_next.reshape(tuple(mdp.link_dims) + (nbc,))
    for chain in mdp.chains:
        w = contract_leading(w, chain.psi)
    w = w.reshape(nbc, nc)  # w[b', c] = E[v_next(c', b') | c]
    out = np.empty(mdp.n_states)
    cb = max(1, 2_000_000 // nbc // (nbc // nb))
    for c0 in range(0, nc, cb):
        c1 = min(c0 + cb, nc)
        rows = slice(c0 * nbc, c1 * nbc)
        y = np.matmul(mixes[0][rows].reshape(c1 - c0, nbc, nb),
                      w[:, c0:c1].T.reshape(c1 - c0, nb, -1)).reshape((c1 - c0) * nbc, -1)
        for d in range(1, m):
            y = np.einsum("sk,skr->sr", mixes[d][rows], y.reshape(len(y), nb, -1))
        out[rows] = y[:, 0]
    return out


def tensordot_backward_induction(mdp):
    """Reference DP contracting with tensordot and moving each axis back in place."""
    link_dims, bat_dims, m = mdp.link_dims, mdp.bat_dims, mdp.m
    L = len(link_dims)
    shape = tuple(link_dims + bat_dims)
    kbs = mdp.battery_kernels
    strides = np.cumprod([1] + mdp.act_dims[::-1])[::-1][1:]
    cost_nd = mdp.cost_table().reshape(tuple(link_dims) + (1,) * m + (mdp.n_actions,))
    feas_nd = action_feasibility(mdp).T.reshape((1,) * L + tuple(bat_dims) + (mdp.n_actions,))
    values, tables = [None] * mdp.horizon, [None] * mdp.horizon
    v_next = np.zeros(shape)
    for t in range(mdp.horizon, 0, -1):
        w = v_next
        for k in range(L):
            w = np.moveaxis(np.tensordot(mdp.chains[k].psi, w, axes=([1], [k])), 0, k)
        best = np.full(shape, np.inf)
        arg = np.zeros(shape, dtype=np.int32)

        def descend(d, x, a_prefix):
            if d == m:
                q = x + cost_nd[..., a_prefix]
                ok = feas_nd[..., a_prefix] & (q < best)
                np.copyto(best, q, where=ok)
                np.copyto(arg, a_prefix, where=ok)
                return
            for l in range(mdp.act_dims[d]):
                ax = L + d
                xd = np.moveaxis(np.tensordot(kbs[d][l], x, axes=([1], [ax])), 0, ax)
                descend(d + 1, xd, a_prefix + l * int(strides[d]))

        descend(0, w, 0)
        values[t - 1] = best.reshape(-1)
        tables[t - 1] = arg.reshape(-1)
        v_next = best
    return values, tables


def reference_backward_induction(mdp):
    """Reference DP: the unpruned contract_leading tree.

    Every level's battery kernel is contracted over every battery digit, and
    the leaf masks the infeasible (action, battery) pairs with
    `harness.action_feasibility` after the work is done.
    """
    link_dims, bat_dims, m, n_a = mdp.link_dims, mdp.bat_dims, mdp.m, mdp.n_actions
    shape = tuple(link_dims + bat_dims)
    kbs = mdp.battery_kernels
    strides = np.cumprod([1] + mdp.act_dims[::-1])[::-1][1:]
    cost_a = np.ascontiguousarray(mdp.cost_table().T).reshape((n_a,) + tuple(link_dims) + (1,) * m)
    feas_a = action_feasibility(mdp).reshape((n_a,) + (1,) * len(link_dims) + tuple(bat_dims))
    values, tables = [None] * mdp.horizon, [None] * mdp.horizon
    v_next = np.zeros(shape)
    for t in range(mdp.horizon, 0, -1):
        w = v_next
        for chain in mdp.chains:
            w = contract_leading(w, chain.psi)
        best = np.full(shape, np.inf)
        arg = np.zeros(shape, dtype=np.int32)

        def descend(d, x, a):
            if d == m:
                q = x + cost_a[a]
                ok = (q < best) & feas_a[a]
                np.copyto(best, q, where=ok)
                np.copyto(arg, a, where=ok)
                return
            for l in range(mdp.act_dims[d]):
                descend(d + 1, contract_leading(x, kbs[d][l]), a + l * int(strides[d]))

        descend(0, w, 0)
        values[t - 1] = best.reshape(-1)
        tables[t - 1] = arg.reshape(-1)
        v_next = best
    return values, tables


def with_horizon(mdp, horizon):
    return build_mdp(mdp.topo, mdp.radio, mdp.energy, mdp.chains, mdp.harvests,
                     mdp.power_levels, horizon)


def pinned_instances():
    out = {name: (inst.mdp, inst.s1) for name, inst in tiny_instances().items()}
    out["pair"] = oracle_instance()
    for n_levels in (2, 3):
        out[f"capacity-{n_levels}"] = capacity_family(n_levels)
    return out


PINNED = sorted(pinned_instances())


@pytest.fixture(scope="module")
def pair():
    return oracle_instance()


@pytest.fixture(scope="module")
def tiny_a():
    inst = tiny_instances()["tiny-a"]
    return inst.mdp, inst.s1


def test_state_round_trip(pair):
    mdp, _ = pair
    for s in range(mdp.n_states):
        assert mdp.state_index(mdp.state_decode(s)) == s


def test_action_round_trip(pair):
    mdp, _ = pair
    for a in range(mdp.n_actions):
        assert np.ravel_multi_index(mdp.action_decode(a), mdp.act_dims) == a


def test_signatures_match_the_hashes_in_saved_files():
    # Saved .npz solutions and policies carry these hashes; a change orphans them.
    assert desk_scenario().mdp.signature() == "e39aec440a333801"
    assert oracle_instance()[0].signature() == "e3e9b4cb994f7654"


@pytest.mark.parametrize("name", PINNED + ["ragged"])
def test_index_codec_agrees_with_state_and_action_decode(name):
    # ragged_line's chains have 2 and 3 states, so a swapped digit axis shows.
    mdp = ragged_line()[0] if name == "ragged" else pinned_instances()[name][0]
    nbc = mdp.n_battery_cfgs
    views = []
    for hops in (0, 1, 2):
        covers = [build_cover(mdp, i, hops) for i in range(mdp.m)]
        pol = LocalizedPolicy(hops=hops, gamma=1.0, rounds=0, covers=covers, tables=[],
                              mdp_signature=mdp.signature())
        views += zip(covers, (state_digits(mdp)[:, cols] @ strides
                              for cols, strides in pol.codecs(mdp)))
    gains = [np.broadcast_to(on_axis(chain.levels, e, mdp.state_shape), mdp.state_shape)
             .reshape(-1) for e, chain in enumerate(mdp.chains)]  # as expected_cost_rows lays them
    feas = action_feasibility(mdp)
    for s in range(mdp.n_states):
        state = mdp.state_decode(s)
        for cov, proj in views:
            coords = [state.gains[e] for e in cov.links] + [state.batteries[d] for d in cov.devs]
            assert proj[s] == np.ravel_multi_index(coords, cov.state_dims)
        for e, chain in enumerate(mdp.chains):
            assert gains[e][s] == chain.levels[state.gains[e]]
        for a in range(mdp.n_actions):
            fits = [mdp.feasible_level_masks[d][l, state.batteries[d]]
                    for d, l in enumerate(mdp.action_decode(a))]
            assert feas[a, s % nbc] == all(fits)


def test_feasibility_blocks_empty_battery(pair):
    mdp, _ = pair
    feas = action_feasibility(mdp)
    for b_idx in range(mdp.n_battery_cfgs):
        bats = np.unravel_index(b_idx, mdp.bat_dims)
        for a in range(mdp.n_actions):
            levels = mdp.action_decode(a)
            if feas[a, b_idx]:
                continue
            # Some device must be asking for more quanta than it holds.
            assert any(mdp.power_levels[d][l] > 0 and bats[d] == 0
                       for d, l in enumerate(levels))
    # The all-silent action is feasible everywhere.
    assert feas[0].all()


def test_transition_rows_are_distributions(pair):
    mdp, _ = pair
    feas = action_feasibility(mdp)
    for s in range(mdp.n_states):
        for a in range(mdp.n_actions):
            if not feas[a, s % mdp.n_battery_cfgs]:
                continue
            dist = mdp.transition(s, a)
            probs = np.array(list(dist.values()))
            assert (probs > 0).all()
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert all(0 <= s2 < mdp.n_states for s2 in dist)


def test_transition_raises_on_infeasible_action(pair):
    from ehdfl.errors import CausalityViolation
    mdp, _ = pair
    # Both devices empty, both asked to transmit: energy causality fails.
    s = mdp.state_index(GlobalState(gains=(0,), batteries=(0, 0)))
    with pytest.raises(CausalityViolation):
        mdp.transition(s, mdp.n_actions - 1)


def test_frozen_instance_transitions_are_deterministic(tiny_a):
    mdp, s1 = tiny_a
    s = mdp.state_index(s1)
    for a in range(mdp.n_actions):
        dist = mdp.transition(s, a)
        assert len(dist) == 1
        assert dist[s] == pytest.approx(1.0)


def former_link_loss_table(radio, receiver, w, p_tx, g_own, interferers):
    """The former per-link kernel: w * PER of one directed link, (n_gain_cfgs, n_actions)."""
    acc = np.full((len(g_own), len(p_tx)), radio.noise(receiver))
    for p_k, g_k in interferers:
        acc = acc + p_k[None, :] * g_k[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        q = 1.0 - np.exp(-radio.phi * acc / (p_tx[None, :] * g_own[:, None]))
    q[:, p_tx == 0.0] = 1.0
    return w * q


def former_cost_table(mdp):
    """The former cost table: one per-link table per ordered pair, summed in pair order."""
    gv = former_gain_values(mdp)
    levels = np.unravel_index(np.arange(mdp.n_actions), mdp.act_dims)
    pv = [lv[digit] for lv, digit in zip(mdp.power_levels, levels)]
    cost = np.zeros((mdp.n_channel_cfgs, mdp.n_actions))
    for i, j, w, e_own, interf in mdp.ordered_pairs:
        cost += former_link_loss_table(mdp.radio, i, w, pv[j], gv[e_own],
                                       [(pv[k], gv[e_k]) for k, e_k in interf])
    return cost


def cost_model(name):
    """A pinned instance, capacity-4, the ragged line or the desk ring (T = 2)."""
    if name == "desk":
        return desk_scenario(horizon=2).mdp
    if name == "capacity-4":
        return capacity_family(4)[0]
    return ragged_line()[0] if name == "ragged" else pinned_instances()[name][0]


COST_MODELS = PINNED + ["capacity-4", "ragged", "desk"]


def check_cost_tables(mdp):
    """cost_table, and sample_costs at every (c, a), equal the former table bit for bit."""
    ref = former_cost_table(mdp)
    assert np.array_equal(mdp.cost_table(), ref)
    c, a = np.divmod(np.arange(ref.size), mdp.n_actions)  # every (c, a), row-major
    gains = np.stack(np.unravel_index(c, mdp.link_dims), axis=-1)
    levels = np.stack(np.unravel_index(a, mdp.act_dims), axis=-1)
    assert np.array_equal(sample_costs(mdp, gains, levels), ref.reshape(-1))


@pytest.mark.parametrize("name", COST_MODELS)
def test_kernel_cost_table_and_sample_costs_equal_the_former_table(name):
    check_cost_tables(cost_model(name))


def test_cost_table_matches_pointwise(pair):
    mdp, _ = pair
    tbl = mdp.cost_table()
    rng = np.random.default_rng(2)
    for _ in range(200):
        s = int(rng.integers(mdp.n_states))
        a = int(rng.integers(mdp.n_actions))
        assert tbl[s // mdp.n_battery_cfgs, a] == mdp.one_step_cost(s, a)


@pytest.mark.parametrize("which", ["pair", "tiny"])
def test_device_cost_decomposition(which, pair, tiny_a):
    mdp, _ = pair if which == "pair" else tiny_a
    rng = np.random.default_rng(0)
    for _ in range(1000):
        s = int(rng.integers(mdp.n_states))
        a = int(rng.integers(mdp.n_actions))
        total = mdp.one_step_cost(s, a)
        parts = sum(mdp.device_cost(s, a, i) for i in range(mdp.m))
        assert abs(total - parts) <= 1e-12


def former_link_loss(mdp, state, levels, device):
    """The former scalar `GlobalMdp._link_loss`: one (state, action), one PER per link,
    each in the loss kernel's float steps."""
    state, levels = mdp.decoded(state, levels)
    g = dense_gains(mdp.topo, [chain.levels[k] for chain, k in zip(mdp.chains, state.gains)])
    p = np.array([mdp.power_levels[d][l] for d, l in enumerate(levels)])
    total = 0.0
    for i, j, w, _, _ in mdp.ordered_pairs:
        if device is None or j == device:
            total += w * reference_packet_error_rate(p, g, mdp.topo, mdp.radio, i, j)
    return total


def check_scalar_queries(mdp, states, actions):
    """one_step_cost and device_cost at each pair equal the former scalar link loss, and
    one_step_costs over all the pairs equals them element for element."""
    want = {d: [former_link_loss(mdp, int(s), int(a), d) for s, a in zip(states, actions)]
            for d in [None, *range(mdp.m)]}
    for k, (s, a) in enumerate(zip(states, actions)):
        assert mdp.one_step_cost(int(s), int(a)) == want[None][k]
        for d in range(mdp.m):
            assert mdp.device_cost(int(s), int(a), d) == want[d][k]
    state = mdp.state_decode(int(states[0]))  # decoded arguments take the same path
    assert mdp.one_step_cost(state, mdp.action_decode(int(actions[0]))) == want[None][0]
    for d, costs in want.items():
        batch = mdp.one_step_costs(states, actions, d)
        assert batch.shape == (len(states),) and np.array_equal(batch, costs)


@pytest.mark.parametrize("name, n_pairs", [("tiny-a", 500), ("tiny-b", 500), ("tiny-c", 500),
                                           ("pair", 500), ("desk", 600)])
def test_scalar_and_batched_queries_equal_the_former_link_loss(name, n_pairs):
    mdp = desk_scenario(horizon=2).mdp if name == "desk" else (
        oracle_instance()[0] if name == "pair" else tiny_instances()[name].mdp)
    rng = np.random.default_rng(7)
    check_scalar_queries(mdp, rng.integers(mdp.n_states, size=n_pairs),
                         rng.integers(mdp.n_actions, size=n_pairs))


def former_decomposition_check(mdp):
    """verify_suite's former cost-decomposition loop: its value and the pairs it drew."""
    rng = np.random.default_rng(0)
    worst, pairs = 0.0, []
    for _ in range(1000):
        s = int(rng.integers(mdp.n_states))
        a = int(rng.integers(mdp.n_actions))
        pairs.append((s, a))
        total = former_link_loss(mdp, s, a, None)
        parts = sum(former_link_loss(mdp, s, a, i) for i in range(mdp.m))
        worst = max(worst, abs(total - parts))
    return worst, pairs


@pytest.mark.parametrize("name", ["tiny-a", "tiny-b", "tiny-c"])
def test_decomposition_check_is_the_former_scalar_loop_bit_for_bit(name, monkeypatch):
    mdp = tiny_instances()[name].mdp
    worst, pairs = former_decomposition_check(mdp)
    drawn = []

    def recorded(states, actions, device=None, _fn=mdp.one_step_costs):
        drawn.append(np.stack([states, actions], axis=-1))
        return _fn(states, actions, device)

    monkeypatch.setattr(mdp, "one_step_costs", recorded)
    assert _decomposition_error(mdp) == worst
    assert len(drawn) == mdp.m + 1
    for d in drawn:  # the same pairs, drawn in the former interleaved order
        assert np.array_equal(d, pairs)


def dict_backward_induction(mdp):
    """Naive reference DP built from the scalar model calls only."""
    feas = action_feasibility(mdp)
    nbc = mdp.n_battery_cfgs
    v_next = {s: 0.0 for s in range(mdp.n_states)}
    values = []
    for _ in range(mdp.horizon, 0, -1):
        v = {}
        for s in range(mdp.n_states):
            best = np.inf
            for a in range(mdp.n_actions):
                if not feas[a, s % nbc]:
                    continue
                q = mdp.one_step_cost(s, a)
                for s2, p in mdp.transition(s, a).items():
                    q += p * v_next[s2]
                if q < best:
                    best = q
            v[s] = best
        values.insert(0, v)
        v_next = v
    return values


def test_vectorized_dp_matches_dict_dp(pair):
    mdp, _ = pair
    sol = backward_induction(mdp)
    ref = dict_backward_induction(mdp)
    for t in range(mdp.horizon):
        for s in range(mdp.n_states):
            assert sol.values[t][s] == pytest.approx(ref[t][s], abs=1e-12)


def test_dp_matches_exhaustive_enumeration(pair):
    mdp, s1 = pair
    sol = backward_induction(mdp)
    assert abs(sol.expected_cost(s1) - exhaustive_minimum(mdp, s1)) <= 1e-9


def q_row(sol, t: int, s_idx: int) -> np.ndarray:
    """Reference: Q_t(s, .) recomputed from V_{t+1} by the scalar model; infeasible
    joint actions are +inf."""
    mdp, nbc = sol.mdp, sol.mdp.n_battery_cfgs
    row = np.full(mdp.n_actions, np.inf)
    vnext = sol.values[t] if t < sol.horizon else None
    for a in np.flatnonzero(action_feasibility(mdp)[:, s_idx % nbc]):
        row[a] = mdp.cost_table()[s_idx // nbc, a]
        if vnext is not None:
            row[a] += sum(prob * vnext[s2] for s2, prob in mdp.transition(s_idx, a).items())
    return row


def test_q_row_consistent_with_values(pair):
    mdp, _ = pair
    sol = backward_induction(mdp)
    for t in (1, mdp.horizon):
        for s in range(mdp.n_states):
            row = q_row(sol, t, s)
            assert np.nanmin(row[np.isfinite(row)]) == pytest.approx(
                sol.values[t - 1][s], abs=1e-12)
            assert row[sol.tables[t - 1][s]] == pytest.approx(
                sol.values[t - 1][s], abs=1e-12)


def test_ties_resolve_to_lowest_action_index():
    # Two devices with identical ladders on a symmetric pair: the argmin scan
    # requires strict improvement, so equal-Q actions keep the smaller index.
    topo = build_topology("line", 2)
    energy = EnergyParams(k_steps=1, cpu_freq=1.0, cycles_per_sample=0.0,
                          batch_size=1, tau=1.0, b_max=1.0, n_levels=2)
    from ehdfl.channel import ChannelChain
    chain = ChannelChain(levels=np.array([1.0]), steady=np.array([1.0]),
                         psi=np.array([[1.0]]))
    mdp = build_mdp(topo, RadioParams(1.0, (0.4, 0.4), 1.0), energy, [chain],
                    HarvestModel(support=np.array([1.0]), probs=np.array([1.0])),
                    power_levels=[0.0, 1.0], horizon=1)
    sol = backward_induction(mdp)
    s = mdp.state_index(GlobalState(gains=(0,), batteries=(1, 1)))
    best = sol.tables[0][s]
    row = q_row(sol, 1, s)
    ties = np.flatnonzero(np.isclose(row, row[best], atol=1e-15))
    assert best == ties.min()


def test_capacity_growth_never_hurts():
    js = []
    for n_levels in (2, 3, 4):
        mdp, s1 = capacity_family(n_levels)
        js.append(backward_induction(mdp).expected_cost(s1))
    assert js[0] >= js[1] >= js[2]


def test_exact_evaluator_matches_deterministic_cost(pair):
    mdp, _ = pair
    pol = FixedLevelsPolicy((1, 0))
    conds = pol.conditionals(mdp, 1)
    rows = expected_cost_rows(mdp, conds)
    a = np.ravel_multi_index((1, 0), mdp.act_dims)
    for s in range(mdp.n_states):
        assert rows[s] == pytest.approx(mdp.one_step_cost(s, a), abs=1e-12)


class UniformPolicy:
    """Uniform over all level combinations, for evaluator cross-checks."""

    def act(self, mdp, s_idx, t, rng):
        return tuple(int(rng.integers(n)) for n in mdp.act_dims)

    def conditionals(self, mdp, t):
        return [np.full((1,) * (mdp.m + 1) + (n,), 1.0 / n) for n in mdp.act_dims]


def test_exact_evaluator_matches_joint_enumeration(pair):
    mdp, _ = pair
    rows = expected_cost_rows(mdp, UniformPolicy().conditionals(mdp, 1))
    n_a = mdp.n_actions
    for s in range(mdp.n_states):
        brute = sum(mdp.one_step_cost(s, a) for a in range(n_a)) / n_a
        assert rows[s] == pytest.approx(brute, abs=1e-12)


def test_propagate_matches_transition_pushforward(pair):
    mdp, s1 = pair
    pol = FixedLevelsPolicy((0, 1))
    conds = pol.conditionals(mdp, 1)
    rho = np.zeros(mdp.n_states)
    rho[mdp.state_index(s1)] = 1.0
    pushed = propagate(mdp, rho, state_rows(mdp, conds))
    a = np.ravel_multi_index((0, 1), mdp.act_dims)
    ref = np.zeros(mdp.n_states)
    for s2, p in mdp.transition(mdp.state_index(s1), a).items():
        ref[s2] += p
    assert np.allclose(pushed, ref, atol=1e-12)


@pytest.mark.parametrize("name", PINNED)
def test_backward_evaluation_matches_forward_oracle(name):
    mdp, s1 = pinned_instances()[name]
    mdp = with_horizon(mdp, 4)
    sol = backward_induction(mdp)
    policies = {
        "centralized": sol.as_policy(),
        "greedy": GreedyPolicy(mdp),
        "myopic": MyopicCentralPolicy(mdp),
        "fixed": FixedLevelsPolicy((0,) * (mdp.m - 1) + (1,)),
        "localized": synthesize(mdp, hops=1, gamma=1.0, rounds=2),
    }
    rows = policies["localized"].conditionals(mdp, 1)
    assert any(((r > 0.01) & (r < 0.99)).any() for r in rows)  # really stochastic
    for pname, pol in policies.items():
        j = evaluate_policy(mdp, pol, s1)
        ref = forward_cost(mdp, pol, s1)
        assert abs(j - ref) <= 1e-12 * abs(ref), pname
    assert abs(evaluate_policy(mdp, sol.as_policy(), s1) - sol.expected_cost(s1)) \
        <= 1e-12 * sol.expected_cost(s1)


def test_blocked_backward_evaluation_matches_forward_oracle_on_desk():
    # The myopic policy's full-scope fold runs in 64 blocks of 4 channel
    # configurations, hops-1's in 4 blocks of 64; greedy's scoped fold runs in one.
    desk = desk_scenario(horizon=2)
    for pol in (GreedyPolicy(desk.mdp), MyopicCentralPolicy(desk.mdp, budget=desk.budget),
                synthesize(desk.mdp, hops=1, gamma=desk.gamma, rounds=1)):
        ref = forward_cost(desk.mdp, pol, desk.s1)
        assert abs(evaluate_policy(desk.mdp, pol, desk.s1) - ref) <= 1e-12 * ref


def per_slot_evaluation(mdp, policy, s1):
    """Reference body: conditionals, expected costs and battery mixes rebuilt every slot."""
    T = mdp.horizon
    v = np.zeros(mdp.n_states)
    for t in range(T, 0, -1):
        conds = policy.conditionals(mdp, t)
        c = expected_cost_rows(mdp, conds)
        v = c + backward_expectation(mdp, v, battery_mixes(mdp, conds)) if t < T else c
    return float(v[mdp.state_index(s1)])


@pytest.mark.parametrize("name", PINNED + ["desk", "ragged"])
def test_stationary_evaluation_builds_once_and_equals_the_per_slot_loop(name, monkeypatch):
    if name == "desk":
        desk = desk_scenario(horizon=3)
        mdp, s1 = desk.mdp, desk.s1
    elif name == "ragged":
        mdp, s1 = ragged_line()
    else:
        mdp, s1 = pinned_instances()[name]
    for pol in (GreedyPolicy(mdp), MyopicCentralPolicy(mdp, budget=DESK_BUDGET),
                FixedLevelsPolicy((0,) * (mdp.m - 1) + (1,))):
        assert pol.stationary
        ref = per_slot_evaluation(mdp, pol, s1)
        calls = []

        def counted(mdp, t, _fn=pol.conditionals, _calls=calls):
            _calls.append(t)
            return _fn(mdp, t)

        monkeypatch.setattr(pol, "conditionals", counted)
        assert evaluate_policy(mdp, pol, s1) == ref, type(pol).__name__
        assert calls == [mdp.horizon]


@pytest.mark.parametrize("name", PINNED)
def test_evaluating_the_solution_policy_gives_the_solution_values(name):
    mdp, _ = pinned_instances()[name]
    sol = backward_induction(mdp)
    pol = sol.as_policy()
    assert not getattr(pol, "stationary", False)  # its tables change with t
    for s in range(mdp.n_states):
        ref = sol.values[0][s]
        assert abs(evaluate_policy(mdp, pol, s) - ref) <= 1e-12 * ref, s


@pytest.mark.parametrize("name", [n for n in PINNED if n != "capacity-2"] + ["desk"])
def test_expected_cost_rows_is_bit_identical_to_the_per_state_reference(name):
    mdp = desk_scenario(horizon=2).mdp if name == "desk" else pinned_instances()[name][0]
    localized = synthesize(mdp, hops=1, gamma=1.0, rounds=1)
    assert any(((r > 0.01) & (r < 0.99)).any() for r in localized.conditionals(mdp, 1))
    for pol in (GreedyPolicy(mdp), MyopicCentralPolicy(mdp, budget=DESK_BUDGET), localized):
        for t in (1, mdp.horizon):
            conds = pol.conditionals(mdp, t)
            assert np.array_equal(expected_cost_rows(mdp, conds),
                                  per_state_expected_cost_rows(mdp, state_rows(mdp, conds)))


def five_policies(mdp):
    """One policy of each type; the localized one is stochastic."""
    budget = mdp.n_states * mdp.n_actions
    return {
        "centralized": backward_induction(mdp, budget=budget).as_policy(),
        "greedy": GreedyPolicy(mdp),
        "myopic": MyopicCentralPolicy(mdp, budget=budget),
        "fixed": FixedLevelsPolicy((0,) * (mdp.m - 1) + (1,)),
        "localized": synthesize(mdp, hops=1, gamma=1.0, rounds=2),
    }


def random_localized(mdp, hops, seed=0):
    """A hops-`hops` LocalizedPolicy with random rows, for shapes synthesis is slow to reach."""
    rng = np.random.default_rng(seed)
    covers = [build_cover(mdp, i, hops) for i in range(mdp.m)]
    tables = []
    for cov in covers:
        x = rng.random((mdp.horizon, cov.n_states, mdp.act_dims[cov.owner]))
        tables.append(list(x / x.sum(axis=2, keepdims=True)))
    return LocalizedPolicy(hops=hops, gamma=1.0, rounds=0, covers=covers, tables=tables,
                           mdp_signature=mdp.signature())


def scope_shape(mdp, name, pol, d):
    """The state axes device d's conditionals of policy type `name` must span."""
    L, m, nb = mdp.n_links, mdp.m, mdp.energy.n_levels
    if name in ("centralized", "myopic"):
        return mdp.state_shape
    if name == "fixed":
        return (1,) * (L + m)
    if name == "greedy":
        return (1,) * (L + d) + (nb,) + (1,) * (m - 1 - d)
    cov = pol.covers[d]
    return (tuple(n if e in cov.links else 1 for e, n in enumerate(mdp.link_dims))
            + tuple(nb if j in cov.devs else 1 for j in range(m)))


def check_scoped_conditionals(mdp, policies):
    """Each device's conditionals span exactly its policy's scope and broadcast to the rows
    at every state, element for element."""
    for name, pol in policies.items():
        for t in (1, mdp.horizon):
            rows = pol.rows(mdp, t, state_digits(mdp))
            conds = pol.conditionals(mdp, t)
            assert len(conds) == mdp.m, name
            for d, cond in enumerate(conds):
                assert cond.shape == scope_shape(mdp, name, pol, d) + rows.shape[-1:], (name, d)
                full = np.broadcast_to(cond, mdp.state_shape + cond.shape[-1:])
                assert np.array_equal(full.reshape(mdp.n_states, -1), rows[d]), (name, t, d)


def check_scoped_fold(mdp, policies, seed=0):
    """The scoped mixes and fold against the per-state reference bodies, within 1e-12
    relative at every state."""
    v_next = 0.5 + np.random.default_rng(seed).random(mdp.n_states)
    for name, pol in policies.items():
        for t in (1, mdp.horizon):
            conds = pol.conditionals(mdp, t)
            mixes = battery_mixes(mdp, conds)
            ref_mixes = per_state_battery_mixes(mdp, state_rows(mdp, conds))
            for mix, ref in zip(mixes, ref_mixes):
                full = np.broadcast_to(mix, mdp.state_shape + mix.shape[-1:])
                np.testing.assert_allclose(full.reshape(ref.shape), ref, rtol=1e-12, atol=0)
            got = backward_expectation(mdp, v_next, mixes)
            ref = per_state_backward_expectation(mdp, v_next, ref_mixes)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0, err_msg=name)


def former_layout_conditionals(mdp, pol, t):
    """A policy's rows on `former_state_shape`: the former gather for a LocalizedPolicy,
    else its rows at every state's digits."""
    if isinstance(pol, LocalizedPolicy):
        return former_conditionals(pol, mdp, t)
    return [r.reshape(former_state_shape(mdp) + r.shape[-1:])
            for r in pol.rows(mdp, t, state_digits(mdp))]


def layout_policies(mdp):
    """`five_policies` and random hops-0 and hops-2 policies: covers over part of the links."""
    return {**five_policies(mdp), "localized-0": random_localized(mdp, 0, seed=1),
            "localized-2": random_localized(mdp, 2, seed=2)}


def check_former_layout(mdp, policies):
    """Broadcast to every state, a LocalizedPolicy's conditionals equal the former gather,
    and every policy's expected_cost_rows equals the former body on the former layout,
    bit for bit."""
    for name, pol in policies.items():
        for t in (1, mdp.horizon):
            conds = pol.conditionals(mdp, t)
            former = former_layout_conditionals(mdp, pol, t)
            if isinstance(pol, LocalizedPolicy):
                for d, (cond, ref) in enumerate(zip(conds, former)):
                    full = np.broadcast_to(ref, former_state_shape(mdp) + ref.shape[-1:])
                    assert np.array_equal(state_rows(mdp, [cond])[0],
                                          full.reshape(mdp.n_states, -1)), (name, t, d)
            assert np.array_equal(expected_cost_rows(mdp, conds),
                                  former_expected_cost_rows(mdp, former)), (name, t)


def scoped_case(name):
    """(mdp, policies) of one instance for the scoped conditionals and fold tests."""
    if name == "desk":
        mdp = desk_scenario(horizon=3).mdp
        return mdp, five_policies(mdp)
    if name == "desk-hops3":  # every cover holds all devices but the antipode: near-full scope
        mdp = desk_scenario(horizon=1).mdp
        return mdp, {"localized": random_localized(mdp, 3)}
    mdp = ragged_line()[0] if name == "ragged" else pinned_instances()[name][0]
    return mdp, five_policies(mdp)


SCOPED_CASES = PINNED + ["ragged", "desk", "desk-hops3"]


@pytest.mark.parametrize("name", SCOPED_CASES)
def test_scoped_conditionals_broadcast_to_the_rows_at_every_state(name):
    check_scoped_conditionals(*scoped_case(name))


@pytest.mark.parametrize("name", SCOPED_CASES)
def test_scoped_fold_matches_the_per_state_reference(name):
    check_scoped_fold(*scoped_case(name))


@pytest.mark.parametrize("name", PINNED + ["ragged", "desk"])
def test_digit_rows_equal_the_former_index_rows_at_every_state(name):
    mdp = desk_scenario(horizon=2).mdp if name == "desk" else scoped_case(name)[0]
    check_digit_rows(mdp, five_policies(mdp))


def mc_totals(mdp, pol, s1):
    """simulate_costs totals, or the CausalityViolation message when the policy drains a battery."""
    try:
        return simulate_costs(mdp, pol, s1, n_samples=300, seed=11)
    except CausalityViolation as exc:
        return str(exc)


@pytest.mark.parametrize("name", PINNED + ["ragged", "desk"])
def test_monte_carlo_totals_are_bit_identical_on_both_sides_of_the_cost_table_switch(
        name, monkeypatch):
    mdp, pols = scoped_case(name)
    s1 = {"desk": lambda: desk_scenario(horizon=3).s1,
          "ragged": lambda: ragged_line()[1]}.get(name, lambda: pinned_instances()[name][1])()
    pols["fixed"] = FixedLevelsPolicy((1,) + (0,) * (mdp.m - 1))  # funds at least one slot
    table = {k: mc_totals(mdp, pol, s1) for k, pol in pols.items()}
    monkeypatch.setattr(mdp_module, "COST_TABLE_ENTRIES", 0)
    for k, pol in pols.items():
        per_sample = mc_totals(mdp, pol, s1)
        assert type(per_sample) is type(table[k]), (name, k)
        assert np.array_equal(per_sample, table[k]), (name, k)
    assert sum(isinstance(x, np.ndarray) for x in table.values()) >= 4, name


def test_exact_evaluation_budget_is_checked_before_anything_is_built(pair, monkeypatch):
    mdp, s1 = pair
    size = mdp.n_states * mdp.m * max(mdp.act_dims)
    pol = GreedyPolicy(mdp)
    assert evaluate_policy(mdp, pol, s1, budget=size) == evaluate_policy(mdp, pol, s1)

    def refuse(*args):
        raise AssertionError("conditionals built past the budget")

    monkeypatch.setattr(pol, "conditionals", refuse)
    with pytest.raises(BudgetExceeded, match=str(size)):
        evaluate_policy(mdp, pol, s1, budget=size - 1)


@pytest.mark.parametrize("name", PINNED + ["capacity-4", "desk", "ring6-3"])
def test_dp_is_bit_identical_to_the_tensordot_reference(name):
    if name == "desk":
        mdp = desk_scenario(horizon=2).mdp
    elif name == "ring6-3":  # three chained continuation slots, two cut points per device
        mdp = with_horizon(ring6(3), 4)
    else:
        mdp = capacity_family(4)[0] if name == "capacity-4" else pinned_instances()[name][0]
    sol = backward_induction(mdp, budget=mdp.n_states * mdp.n_actions)
    values, tables = tensordot_backward_induction(mdp)
    for t in range(mdp.horizon):
        assert np.array_equal(sol.values[t], values[t])
        assert np.array_equal(sol.tables[t], tables[t])


@pytest.mark.parametrize("name", PINNED + ["ragged", "desk"])
def test_pruned_dp_is_bit_identical_to_the_unpruned_tree(name):
    # The pruned tree slices each contraction's output to the fundable battery
    # suffix; slicing the kernel rows instead flips near-tie table entries on desk.
    if name == "desk":
        mdp = desk_scenario(horizon=2).mdp
    else:
        mdp = ragged_line()[0] if name == "ragged" else pinned_instances()[name][0]
    sol = backward_induction(mdp, budget=mdp.n_states * mdp.n_actions)
    values, tables = reference_backward_induction(mdp)
    for t in range(mdp.horizon):
        assert np.array_equal(sol.values[t], values[t])
        assert np.array_equal(sol.tables[t], tables[t])


def tree_terminal_slot(mdp):
    """Reference terminal slot: the energy-pruned tree without continuation.

    Each joint action's one-slot cost is compared alone on the battery
    configurations that fund it, actions in ascending index order, and strict
    improvement replaces the incumbent, so ties keep the lowest index.
    """
    link_dims, m, nb, n_a = mdp.link_dims, mdp.m, mdp.energy.n_levels, mdp.n_actions
    shape = tuple(link_dims + mdp.bat_dims)
    draws = [dq.tolist() for dq in mdp.draw_quanta]
    strides = np.cumprod([1] + mdp.act_dims[::-1])[::-1][1:].tolist()
    cost_a = np.ascontiguousarray(mdp.cost_table().T).reshape((n_a,) + tuple(link_dims) + (1,) * m)
    best = np.full(shape, np.inf)
    arg = np.zeros(shape, dtype=np.int32)

    def descend(d, a, view):
        if d == m:
            incumbent = best[view]
            ok = cost_a[a] < incumbent
            np.copyto(incumbent, cost_a[a], where=ok)
            np.copyto(arg[view], a, where=ok)
            return
        for l, q in enumerate(draws[d]):
            if q < nb:
                descend(d + 1, a + l * strides[d], view + (slice(q, None),))

    descend(0, 0, (slice(None),) * len(link_dims))
    return best, arg


def ring6(n_levels):
    """The six-device desk-settings ring of the capacity spot check, at 2 to 4 battery levels."""
    mdp, _ = capacity_pair(min(n_levels, 3), horizon=2)
    energy = dataclasses.replace(mdp.energy, b_max=float(n_levels - 1), n_levels=n_levels)
    return build_mdp(mdp.topo, mdp.radio, energy, mdp.chains, mdp.harvests, mdp.power_levels, 2)


TERMINAL_MODELS = {name: (lambda name=name: pinned_instances()[name][0]) for name in PINNED}
TERMINAL_MODELS.update({
    "capacity-4": lambda: capacity_family(4)[0],
    "desk": lambda: desk_scenario(horizon=2).mdp,
    "ragged": lambda: ragged_line()[0],
    "ring6-3": lambda: ring6(3),
    "ring6-4": lambda: ring6(4),
})


def check_terminal_slot(mdp):
    """The box prefix-min terminal slot equals the tree's values and int32 table bit for bit."""
    v, arg = mdp_module.bellman_slot(mdp, None)
    v_ref, arg_ref = tree_terminal_slot(mdp)
    assert arg.dtype == np.int32 and v.shape == arg.shape == v_ref.shape
    assert np.array_equal(v, v_ref)
    assert np.array_equal(arg, arg_ref)


def check_draws_rise(mdp):
    """Fundable levels are a ladder prefix: silence draws nothing and draws never fall."""
    for dq in mdp.draw_quanta:
        assert dq[0] == 0 and (np.diff(dq) >= 0).all()


@pytest.mark.parametrize("name", sorted(TERMINAL_MODELS))
def test_terminal_slot_is_the_tree_bit_for_bit(name):
    mdp = TERMINAL_MODELS[name]()
    check_draws_rise(mdp)
    check_terminal_slot(mdp)


@pytest.mark.parametrize("high", [2, 3, 6])
@pytest.mark.parametrize("name", ["desk", "ring6-4", "ragged"])
def test_terminal_slot_ties_keep_the_lowest_joint_index(name, high):
    # Integer-valued cost tables tie joint actions everywhere, so a fold that
    # kept the higher level, or folded devices first to last, picks other actions.
    mdp = TERMINAL_MODELS[name]()
    rng = np.random.default_rng(high)
    mdp.__dict__["_cost_table"] = rng.integers(0, high, mdp.cost_table().shape).astype(float)
    check_terminal_slot(mdp)


def test_shipped_ladders_draw_no_fewer_quanta_as_power_rises():
    for path in sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json")):
        check_draws_rise(load_config(path).build_model())


@pytest.mark.parametrize("dims", [(2,), (3, 2), (2, 3, 2), (3, 3, 2, 3)])
def test_contract_leading_is_tensordot_bit_for_bit(dims):
    rng = np.random.default_rng(sum(dims))
    x = rng.random(dims)
    for n_out in (2, 3):
        mat = rng.random((n_out, dims[0]))
        ref = np.moveaxis(np.tensordot(mat, x, ([1], [0])), 0, -1)
        out = contract_leading(x, mat)
        assert out.shape == ref.shape
        assert np.array_equal(out, ref)


@pytest.mark.parametrize("dims", [(2,), (3, 2), (2, 3, 2), (3, 3, 2, 3), (2,) * 12, (3,) * 8])
def test_contract_trailing_is_tensordot_bit_for_bit(dims):
    rng = np.random.default_rng(sum(dims))
    x = rng.random(dims)
    buf = np.full(3 * x.size, np.nan)
    for n_out in (2, 3):
        mat = rng.random((n_out, dims[-1]))
        ref = np.tensordot(mat, x, ([1], [x.ndim - 1]))
        for out in (contract_trailing(x, mat), contract_trailing(x, mat, buf)):
            assert out.shape == ref.shape
            assert np.array_equal(out, ref)
        # as the DP passes it: a leading slice of a contraction's output, cut at q
        y = contract_trailing(x, rng.random((dims[-1], dims[-1])))
        for q in range(1, len(y)):
            mat = rng.random((n_out, y[q:].shape[-1]))
            ref = np.tensordot(mat, y[q:], ([1], [y.ndim - 1]))
            assert np.array_equal(contract_trailing(y[q:], mat), ref)
            assert np.array_equal(contract_trailing(y[q:], mat, buf), ref)


def mc_mean_stderr(mdp, pol, s1, *, n_samples, seed):
    """Sample mean of simulate_costs and its standard error, std(ddof=1) / sqrt(n)."""
    costs = simulate_costs(mdp, pol, s1, n_samples=n_samples, seed=seed)
    return float(costs.mean()), float(costs.std(ddof=1) / np.sqrt(len(costs)))


def test_exact_vs_monte_carlo_evaluation(pair):
    mdp, s1 = pair
    from ehdfl.baselines import GreedyPolicy
    pol = GreedyPolicy(mdp)
    exact = evaluate_policy(mdp, pol, s1)
    mean, se = mc_mean_stderr(mdp, pol, s1, n_samples=4000, seed=9)
    assert abs(exact - mean) < 4 * se + 1e-6


def test_lockstep_monte_carlo_agrees_with_exact_for_every_policy_type():
    # the ragged line pads level rows to 3 columns and gain rows to 3 states
    for mdp, s1 in (capacity_family(3), ragged_line()):
        policies = {
            "centralized": backward_induction(mdp).as_policy(),
            "greedy": GreedyPolicy(mdp),
            "myopic": MyopicCentralPolicy(mdp),
            "fixed": FixedLevelsPolicy((0, 1, 0)),
            "localized": synthesize(mdp, hops=1, gamma=1.0, rounds=2),
        }
        for name, pol in policies.items():
            # device 1 can fund two transmissions
            run = dataclasses.replace(mdp, horizon=2) if name == "fixed" else mdp
            exact = evaluate_policy(run, pol, s1)
            mean, se = mc_mean_stderr(run, pol, s1, n_samples=4000, seed=3)
            assert se > 0, name
            assert abs(exact - mean) < 5 * se, name


def test_simulate_costs_raises_on_an_infeasible_level(pair):
    mdp, _ = pair
    top = tuple(n - 1 for n in mdp.act_dims)
    empty = GlobalState(gains=(1,), batteries=(0, 0))
    assert not mdp.feasible_level_masks[0][top[0], 0]
    with pytest.raises(CausalityViolation, match="infeasible at battery index 0"):
        simulate_costs(mdp, FixedLevelsPolicy(top), empty, n_samples=20, seed=0)


def test_simulate_costs_deterministic_given_seed(pair):
    mdp, s1 = pair
    from ehdfl.baselines import GreedyPolicy
    a = simulate_costs(mdp, GreedyPolicy(mdp), s1, n_samples=50, seed=4)
    b = simulate_costs(mdp, GreedyPolicy(mdp), s1, n_samples=50, seed=4)
    assert (a == b).all()


def test_solution_round_trip(tmp_path, pair):
    mdp, s1 = pair
    sol = backward_induction(mdp)
    save_solution(sol, tmp_path / "sol.npz")
    back = load_solution(tmp_path / "sol.npz", mdp)
    assert back.expected_cost(s1) == sol.expected_cost(s1)
    assert all((a == b).all() for a, b in zip(back.tables, sol.tables))
    assert (tmp_path / "sol.manifest.txt").exists()


def former_save_artifact(path, meta, manifest_keys, arrays):
    """The former artifact writer: one zlib-compressed npz, no manifest."""
    meta = {"format_version": mdp_module.FORMAT_VERSION, **meta}
    np.savez_compressed(path, meta=json.dumps(meta, sort_keys=True), **arrays)


def former_save_solution(sol, path):
    """The former solution file: compressed, argmin tables as int32."""
    meta = {"kind": "centralized_solution", "mdp_signature": sol.mdp.signature(),
            "horizon": sol.horizon, "n_states": sol.mdp.n_states, "n_actions": sol.mdp.n_actions}
    former_save_artifact(path, meta, (), {"values": np.stack(sol.values),
                                          "tables": np.stack(sol.tables).astype(np.int32)})


@pytest.mark.parametrize("name", ["pair", "tiny-a", "capacity-4"])
def test_new_and_former_solution_files_load_to_the_same_arrays(tmp_path, name):
    mdp = cost_model(name)
    sol = backward_induction(mdp)
    save_solution(sol, tmp_path / "new.npz")
    former_save_solution(sol, tmp_path / "former.npz")
    with np.load(tmp_path / "new.npz") as z:
        assert z["tables"].dtype == np.min_scalar_type(mdp.n_actions - 1)
    with zipfile.ZipFile(tmp_path / "new.npz") as z:
        assert {i.compress_type for i in z.infolist()} == {zipfile.ZIP_STORED}
    for path in ("new.npz", "former.npz"):
        back = load_solution(tmp_path / path, mdp)
        for t in range(mdp.horizon):
            assert np.array_equal(back.values[t], sol.values[t])
            assert back.tables[t].dtype == np.int32
            assert np.array_equal(back.tables[t], sol.tables[t])


def test_solution_rejects_wrong_model(tmp_path, pair, tiny_a):
    mdp, _ = pair
    other, _ = tiny_a
    sol = backward_induction(mdp)
    save_solution(sol, tmp_path / "sol.npz")
    with pytest.raises(ValueError, match="different model"):
        load_solution(tmp_path / "sol.npz", other)


def test_budget_guard_names_the_product(pair):
    mdp, _ = pair
    with pytest.raises(BudgetExceeded, match=str(mdp.n_states * mdp.n_actions)):
        backward_induction(mdp, budget=4)


def test_sizes_do_not_wrap_on_a_64_device_ring():
    small, _ = capacity_family(2)
    m = 64
    mdp = build_mdp(build_topology("ring", m),
                    RadioParams(small.radio.phi, (0.4,) * m, small.radio.tau),
                    small.energy, small.chains[0], small.harvests[0],
                    power_levels=[0.0, 1.0], horizon=small.horizon)
    assert mdp.n_states == 2 ** 128
    assert mdp.n_actions == 2 ** 64
    with pytest.raises(BudgetExceeded):
        backward_induction(mdp)
    with pytest.raises(BudgetExceeded, match=str(2 ** 128 * m * 2)):
        evaluate_policy(mdp, GreedyPolicy(mdp), GlobalState(gains=(0,) * m, batteries=(1,) * m))


@pytest.mark.parametrize("name", PINNED + ["capacity-4", "ragged", "desk", "ring6-3"])
def test_conditionals_and_cost_rows_equal_the_former_layout_at_every_state(name):
    # desk and ring6-3 at T = 2; the ragged line's 2- and 3-state chains expose a link axis swap
    mdp = TERMINAL_MODELS[name]()
    check_former_layout(mdp, layout_policies(mdp))


def test_budget_counts_print_their_digits_then_a_power_of_two():
    assert mdp_module.count_text(10 ** 100 - 1) == "9" * 100
    assert mdp_module.count_text(2 ** 400) == "at least 2^400"
    assert mdp_module.count_text(3 * 8 ** 5000) == "at least 2^15001"


def test_a_shared_chain_is_validated_once_and_a_shared_harvest_snapped_once(monkeypatch):
    mdp = desk_scenario(horizon=2).mdp
    calls = []
    validate, quanta = ChannelChain.validate, HarvestModel.quanta
    monkeypatch.setattr(ChannelChain, "validate",
                        lambda self: calls.append("validate") or validate(self))
    monkeypatch.setattr(HarvestModel, "quanta",
                        lambda self, params: calls.append("quanta") or quanta(self, params))
    again = dataclasses.replace(mdp)
    assert sorted(calls) == ["quanta", "validate"]
    assert len({id(c) for c in again.chains}) == 1 and len(again.chains) == 8
    for got, want in zip(again.harvest_quanta, mdp.harvest_quanta):
        assert np.array_equal(got, want)
    assert all(np.array_equal(k1, k2) for k1, k2 in zip(again.battery_kernels,
                                                         mdp.battery_kernels))
    bad = dataclasses.replace(mdp.chains[0], psi=np.array([[0.8, 0.3], [0.2, 0.8]]))
    with pytest.raises(ValueError, match="psi rows must sum to 1"):
        dataclasses.replace(mdp, chains=[mdp.chains[0]] * 4 + [bad] * 4)


def test_a_shared_ladder_is_checked_once_and_a_shared_chain_read_once_for_the_start(
        monkeypatch):
    mdp = desk_scenario(horizon=2).mdp
    calls = []
    ladder, argmax = mdp_module.power_ladder, np.argmax
    monkeypatch.setattr(mdp_module, "power_ladder",
                        lambda lv: calls.append("ladder") or ladder(lv))
    again = dataclasses.replace(mdp)
    assert calls == ["ladder"] and len(again.power_levels) == 8
    assert all(np.array_equal(got, want) for got, want in zip(again.power_levels,
                                                              mdp.power_levels))
    start = mdp.default_start
    monkeypatch.setattr(np, "argmax", lambda a: calls.append("argmax") or argmax(a))
    assert again.default_start == start
    assert calls == ["ladder", "argmax"]
    two = dataclasses.replace(mdp, power_levels=[mdp.power_levels[0]] * 7 + [[0.0, 2.0]])
    assert calls.count("ladder") == 3 and two.power_levels[7].tolist() == [0.0, 2.0]
    with pytest.raises(ValueError, match="need levels rising strictly from 0.0"):
        dataclasses.replace(mdp, power_levels=[mdp.power_levels[0]] * 7 + [[0.0, 0.0]])
