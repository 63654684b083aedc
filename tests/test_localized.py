import math
import tracemalloc
import zipfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ehdfl import localized
from ehdfl.channel import ChannelChain, RadioParams
from ehdfl.energy import EnergyParams, HarvestModel
from ehdfl.errors import BudgetExceeded
from ehdfl.harness import action_feasibility
from ehdfl.instances import (capacity_family, capacity_pair, desk_scenario,
                             fullinfo_instance, oracle_instance, tiny_instances)
from ehdfl.localized import (ExtensionDefaults, build_cover, extension_action_map,
                             extension_state_map, load_localized, localized_backward_layer,
                             localized_cost_table, masked_softmax, policy_distance,
                             save_localized, synthesize)
from ehdfl.mdp import backward_induction, build_mdp, load_solution, save_solution
from ehdfl.topology import build_topology, k_hop_set
from test_channel import graphs
from test_mdp import COST_MODELS, cost_model, former_link_loss_table, former_save_artifact


# ---------------------------------------------------------------------------
# masked softmax
# ---------------------------------------------------------------------------

def test_masked_softmax_rows_are_distributions():
    rows = np.array([[1.0, 2.0, 0.5], [0.0, 3.0, 1.0]])
    feas = np.array([[True, True, False], [True, True, True]])
    p = masked_softmax(rows, 2.0, feas)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert p[0, 2] == 0.0
    assert (p >= 0).all()


def test_masked_softmax_small_gamma_is_uniform_on_feasible():
    rows = np.array([[5.0, 1.0, 9.0]])
    feas = np.array([[True, False, True]])
    p = masked_softmax(rows, 1e-12, feas)
    assert p[0, 0] == pytest.approx(0.5, abs=1e-9)
    assert p[0, 2] == pytest.approx(0.5, abs=1e-9)


def test_masked_softmax_large_gamma_concentrates():
    rows = np.array([[5.0, 1.0, 9.0]])
    feas = np.array([[True, True, True]])
    p = masked_softmax(rows, 1e4, feas)
    assert p[0, 1] == pytest.approx(1.0)


def test_masked_softmax_huge_gamma_with_low_infeasible_entry():
    # An infeasible Q value below the feasible minimum used to overflow exp().
    rows = np.array([[10.0, -50.0, 11.0]])
    feas = np.array([[True, False, True]])
    with np.errstate(over="raise"):
        p = masked_softmax(rows, 2048.0, feas)
    assert not np.isnan(p).any()
    assert p[0, 1] == 0.0
    assert p[0, 0] == pytest.approx(1.0)


def former_masked_softmax(rows, gamma, feas):
    """Reference body: reductions over each (n, n_levels) row."""
    rmin = np.min(np.where(feas, rows, np.inf), axis=1, keepdims=True)
    z = np.where(feas, rows - rmin, 0.0)
    w = np.exp(-gamma * z) * feas
    return w / w.sum(axis=1, keepdims=True)


def softmax_cases(seed):
    """(rows, feas) with 1 to 4 levels; every row has a feasible level, some exactly one."""
    rng = np.random.default_rng(seed)
    for nl in (1, 2, 3, 4):
        for n in (1, 7, 300):
            rows = rng.normal(scale=rng.choice([0.01, 1.0, 30.0]), size=(n, nl))
            feas = rng.random((nl, n)) < 0.6
            feas[rng.integers(nl, size=n), np.arange(n)] = True
            yield rows, feas.T  # level-major masks, as the synthesis passes them
            single = np.zeros((n, nl), dtype=bool)
            single[np.arange(n), rng.integers(nl, size=n)] = True
            yield rows, single


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_masked_softmax_is_the_former_row_reduction_bit_for_bit(seed):
    for rows, feas in softmax_cases(seed):
        for gamma in (0.5, 64.0, 2048.0):
            p = masked_softmax(rows, gamma, feas)
            assert p.flags.c_contiguous
            assert np.array_equal(p, former_masked_softmax(rows, gamma, feas))


def test_masked_softmax_adds_the_levels_in_level_order():
    # w = (1, t, t) with t = exp(-37) < 2**-53: 1 + t rounds to 1, t + t does not,
    # so a normalizer summed from the top level down gives other bits.
    for rows in ([[0.0, 37.0, 37.0], [2.0, 39.0, 38.9]], [[0.0, 37.0, 37.0, 37.0]]):
        r = np.array(rows)
        f = np.ones(r.shape, dtype=bool)
        ref = former_masked_softmax(r, 1.0, f)
        top_down = former_masked_softmax(r[:, ::-1], 1.0, f[:, ::-1])[:, ::-1]
        assert not np.array_equal(ref, top_down)
        assert np.array_equal(masked_softmax(r, 1.0, f), ref)


@pytest.mark.parametrize("name", ["desk", "ring6-3"])
def test_synthesis_with_the_former_softmax_gives_the_same_tables(name, monkeypatch):
    mdp = desk_scenario(horizon=3).mdp if name == "desk" else capacity_pair(3, horizon=2)[0]
    runs = []
    for softmax in (localized.masked_softmax, former_masked_softmax):
        monkeypatch.setattr(localized, "masked_softmax", softmax)
        runs.append([synthesize(mdp, hops=2, gamma=gamma, rounds=2) for gamma in (0.5, 512.0)])
    for new, ref in zip(*runs):
        for tn, tr in zip(new.tables, ref.tables):
            for a, b in zip(tn, tr):
                assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------

def test_cover_zero_hops_is_own_device_plus_incident_links():
    mdp, _ = oracle_instance()
    cov = build_cover(mdp, 0, 0)
    assert cov.devs == (0,)
    assert cov.links == (0,)  # the only edge touches device 0


def test_cover_grows_with_hops():
    insts = tiny_instances()
    mdp = insts["tiny-a"].mdp
    sizes = [len(build_cover(mdp, 0, h).devs) for h in (0, 1, 2)]
    assert sizes == [1, 2, 3]


def test_cover_devs_match_k_hop_set():
    mdp = tiny_instances()["tiny-b"].mdp
    for i in range(mdp.m):
        for h in (0, 1, 2):
            assert build_cover(mdp, i, h).devs == k_hop_set(mdp.topo.neighbors, i, h)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(graphs(max_m=14))
def test_cover_links_equal_the_former_edge_scan_on_generated_graphs(topo):
    energy = EnergyParams(k_steps=1, cpu_freq=1.0, cycles_per_sample=0.0, batch_size=1,
                          tau=1.0, b_max=1.0, n_levels=2)
    mdp = build_mdp(topo, RadioParams(0.5, 0.3, 1.0), energy, TWO_LEVELS,
                    HarvestModel(support=np.array([0.0]), probs=np.array([1.0])),
                    power_levels=[0.0, 1.0], horizon=1)
    for i in range(topo.m):
        for h in (0, 1, 2, 3):
            cov = build_cover(mdp, i, h)
            assert type(cov.links) is tuple and all(type(e) is int for e in cov.links)
            assert cov.links == tuple(e for e, (a, b) in enumerate(topo.edges)
                                      if a in cov.devs or b in cov.devs)  # the former scan


# ---------------------------------------------------------------------------
# localized cost vs the global decomposition
# ---------------------------------------------------------------------------

def cost_entry(mdp, cov, gain_digits, levels, defaults=ExtensionDefaults()):
    """localized_cost_table entry at one tuple of cover gain digits and cover levels."""
    g = np.ravel_multi_index(gain_digits, cov.link_dims)
    a = np.ravel_multi_index(levels, cov.act_dims)
    return localized_cost_table(mdp, cov, defaults)[g, a]


def former_localized_cost_table(mdp, cover, defaults):
    """The former closure loop: full-length vectors for out-of-cover gains and powers."""
    ng, na = cover.n_gain_cfgs, cover.n_actions
    gains = np.unravel_index(np.arange(ng), cover.link_dims)
    levels = np.unravel_index(np.arange(na), cover.act_dims)

    def gain_vec(e):
        if e in cover.link_pos:
            return mdp.chains[e].levels[gains[cover.link_pos[e]]]
        return np.full(ng, mdp.chains[e].levels[defaults.gain])

    def power_vec(d):
        if d in cover.dev_pos:
            return mdp.power_levels[d][levels[cover.dev_pos[d]]]
        return np.full(na, mdp.power_levels[d][defaults.level])

    out = np.zeros((ng, na))
    for i, j, w, e_own, interf in mdp.ordered_pairs:
        if j == cover.owner:
            out += former_link_loss_table(mdp.radio, i, w, power_vec(j), gain_vec(e_own),
                                          [(power_vec(k), gain_vec(e_k)) for k, e_k in interf])
    return out


def check_localized_cost_tables(mdp):
    """Every device's localized cost table at hops 0-2 and two default triples equals
    the former closure loop bit for bit."""
    for hops in (0, 1, 2):
        for defaults in (ExtensionDefaults(), ExtensionDefaults(gain=1, battery=1, level=1)):
            for i in range(mdp.m):
                cov = build_cover(mdp, i, hops)
                assert np.array_equal(localized_cost_table(mdp, cov, defaults),
                                      former_localized_cost_table(mdp, cov, defaults)), (hops, i)


@pytest.mark.parametrize("name", COST_MODELS)
def test_localized_cost_table_equals_the_former_closure_loop(name):
    check_localized_cost_tables(cost_model(name))


def test_defaults_outside_every_ladder_are_never_read_for_in_cover_coordinates():
    # A one-level chain has no gain digit 1 and a two-level ladder no level 2; at hops 1 on
    # a triangle every cover holds every device and link, so the cost tables use neither
    # default. (The synthesis starts the other cover members at the default level.)
    m = 3
    energy = EnergyParams(k_steps=1, cpu_freq=1.0, cycles_per_sample=0.0, batch_size=1,
                          tau=1.0, b_max=1.0, n_levels=2)
    mdp = build_mdp(build_topology("complete", m), RadioParams(0.5, 0.3, 1.0), energy,
                    ChannelChain(levels=np.array([1.5]), steady=np.array([1.0]),
                                 psi=np.array([[1.0]])),
                    HarvestModel(support=np.array([0.0, 1.0]), probs=np.array([0.5, 0.5])),
                    power_levels=[0.0, 1.0], horizon=2)
    unused = ExtensionDefaults(gain=1, level=2)
    for i in range(m):
        cov = build_cover(mdp, i, 1)
        assert np.array_equal(localized_cost_table(mdp, cov, unused),
                              localized_cost_table(mdp, cov, ExtensionDefaults()))
    got = synthesize(mdp, hops=1, gamma=4.0, rounds=2, defaults=ExtensionDefaults(gain=1))
    want = synthesize(mdp, hops=1, gamma=4.0, rounds=2)
    assert all(np.array_equal(a, b) for tg, tw in zip(got.tables, want.tables)
               for a, b in zip(tg, tw))


def test_full_cover_localized_cost_matches_device_share():
    # When the cover sees everything, the localized cost equals the share of
    # the global cost billed to the owner's own transmissions, and the shares
    # sum back to the global one-slot cost.
    inst = fullinfo_instance()
    mdp = inst.mdp
    hops = mdp.topo.diameter
    covers = [build_cover(mdp, i, hops) for i in range(mdp.m)]
    rng = np.random.default_rng(1)
    for _ in range(50):
        s = int(rng.integers(mdp.n_states))
        a = int(rng.integers(mdp.n_actions))
        state = mdp.state_decode(s)
        levels = mdp.action_decode(a)
        total = 0.0
        for i, cov in enumerate(covers):
            gd = tuple(state.gains[e] for e in cov.links)
            lv = tuple(levels[d] for d in cov.devs)
            li = cost_entry(mdp, cov, gd, lv)
            assert li == pytest.approx(mdp.device_cost(s, a, i), abs=1e-12)
            total += li
        assert total == pytest.approx(mdp.one_step_cost(s, a), abs=1e-12)


def test_truncated_cover_silent_owner_loses_all_packets():
    # A silent owner loses its outgoing packet with certainty, whatever the
    # rest of the network does: the localized cost is just the mixing weight
    # its one neighbor assigns to it.
    mdp, _ = oracle_instance()
    cov = build_cover(mdp, 0, 0)
    state = mdp.state_decode(mdp.n_states - 1)
    gd = tuple(state.gains[e] for e in cov.links)
    li = cost_entry(mdp, cov, gd, (0,), ExtensionDefaults())
    assert li == pytest.approx(mdp.topo.mixing[1, 0], abs=1e-12)


def test_truncated_cover_defaults_control_outsiders():
    # hops=0 on a complete graph of three: the owner sees its own links but
    # not the third device. Silent defaults leave no interference; a loud
    # default adds it on every outgoing link.
    inst = fullinfo_instance()
    mdp = inst.mdp
    cov = build_cover(mdp, 0, 0)
    assert cov.devs == (0,)
    state = mdp.state_decode(mdp.n_states - 1)
    gd = tuple(state.gains[e] for e in cov.links)
    top = len(mdp.power_levels[0]) - 1
    p0 = mdp.power_levels[0][top]
    phi = mdp.radio.phi

    quiet = cost_entry(mdp, cov, gd, (top,), ExtensionDefaults())
    expected = 0.0
    for r in mdp.topo.neighbors[0]:
        e = mdp.topo.edges.index((0, r))
        g = mdp.chains[e].levels[state.gains[e]]
        w = float(mdp.topo.mixing[r, 0])
        expected += w * (1.0 - np.exp(-phi * mdp.radio.noise(r) / (p0 * g)))
    assert quiet == pytest.approx(expected, abs=1e-12)

    loud = cost_entry(mdp, cov, gd, (top,),
                      ExtensionDefaults(level=len(mdp.power_levels[2]) - 1))
    assert loud > quiet


# ---------------------------------------------------------------------------
# localized backward recursion
# ---------------------------------------------------------------------------

def tensordot_backward_layer(mdp, cover, q_next, cost_tbl):
    """Reference layer contracting with tensordot and moving each axis back in place."""
    nl = len(cover.links)
    strides = np.cumprod((1,) + cover.act_dims[::-1])[::-1][1:]  # C-order action strides
    x = q_next.reshape(cover.state_dims + (cover.n_actions,))
    for pos, e in enumerate(cover.links):
        x = np.moveaxis(np.tensordot(mdp.chains[e].psi, x, axes=([1], [pos])), 0, pos)
    out = np.empty((cover.n_states, cover.n_actions))

    def descend(d, part, prefix):
        if d == len(cover.devs):
            out[:, prefix] = part.reshape(cover.n_states, cover.n_actions).min(axis=1)
            return
        for l in range(cover.act_dims[d]):
            kern = mdp.battery_kernels[cover.devs[d]][l]
            xd = np.moveaxis(np.tensordot(kern, part, axes=([1], [nl + d])), 0, nl + d)
            descend(d + 1, xd, prefix + l * int(strides[d]))

    descend(0, x, 0)
    out = out.reshape(cover.n_gain_cfgs, -1, cover.n_actions) + cost_tbl[:, None, :]
    return out.reshape(cover.n_states, cover.n_actions)


def over_batteries(cover, tbl):
    """A (n_gain_cfgs, k) table repeated over the cover's battery digits: (n_states, k)."""
    return np.repeat(tbl, cover.n_states // cover.n_gain_cfgs, axis=0)


def harvest_ring(seed=0):
    """A 4-ring with 3-5-point harvests, 5 battery levels and 3 power levels."""
    rng = np.random.default_rng(seed)
    energy = EnergyParams(k_steps=1, cpu_freq=1.0, cycles_per_sample=0.0, batch_size=1,
                          tau=1.0, b_max=4.0, n_levels=5)
    harvests = []
    for size in (3, 4, 5, 3):
        support = np.sort(rng.choice(5, size=size, replace=False)).astype(float)
        harvests.append(HarvestModel(support=support, probs=rng.dirichlet(np.ones(size))))
    chain = ChannelChain(levels=np.array([0.1, 0.8, 2.0]),  # asymmetric: psi != psi.T
                         steady=np.array([1.0, 1.5, 1.125]) / 3.625,
                         psi=np.array([[0.7, 0.3, 0.0], [0.2, 0.5, 0.3], [0.0, 0.4, 0.6]]))
    return build_mdp(build_topology("ring", 4), RadioParams(0.5, (0.3,) * 4, 1.0), energy,
                     chain, harvests, [0.0, 1.0, 2.0], horizon=2)


LAYER_MODELS = {
    "pair": lambda: oracle_instance()[0],
    "capacity-3": lambda: capacity_family(3)[0],
    "ring6-3": lambda: capacity_pair(3, horizon=2)[0],
    "desk": lambda: desk_scenario(horizon=2).mdp,
}


def layer_pairs(mdp, hops, seed):
    """(gain-only layer, tree layer on the battery-broadcast input) for every cover."""
    rng = np.random.default_rng(seed)
    for owner in range(mdp.m):
        cover = build_cover(mdp, owner, hops)
        q_next = rng.random((cover.n_gain_cfgs, cover.n_actions))
        cost_tbl = rng.random((cover.n_gain_cfgs, cover.n_actions))
        yield (over_batteries(cover, localized_backward_layer(mdp, cover, q_next, cost_tbl)),
               tensordot_backward_layer(mdp, cover, over_batteries(cover, q_next), cost_tbl))


@pytest.mark.parametrize("hops", [1, 2])
@pytest.mark.parametrize("name", sorted(LAYER_MODELS))
def test_backward_layer_is_bit_identical_to_the_tensordot_reference(name, hops):
    # Point and two-point harvests: battery kernel rows with at most two nonzero
    # entries return a battery-constant table exactly.
    for new, ref in layer_pairs(LAYER_MODELS[name](), hops, seed=hops):
        assert np.array_equal(new, ref)


@pytest.mark.parametrize("hops", [0, 1])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backward_layer_matches_the_tree_on_multi_point_harvests(seed, hops):
    # With three or more nonzero kernel entries the tree adds rounding noise only.
    for new, ref in layer_pairs(harvest_ring(seed), hops, seed=hops):
        np.testing.assert_allclose(new, ref, rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# improve rounds: neighbour views against the extension-map gathers
# ---------------------------------------------------------------------------

def _four_levels(mdp):
    return build_mdp(mdp.topo, mdp.radio, mdp.energy, mdp.chains, mdp.harvests,
                     [0.0, 0.5, 1.0, 1.5], mdp.horizon)


SYNTH_MODELS = {
    "pair": lambda: oracle_instance()[0],
    "capacity-3": lambda: capacity_family(3)[0],
    "capacity-3-four-levels": lambda: _four_levels(capacity_family(3)[0]),
    "desk": lambda: desk_scenario(horizon=2).mdp,
    "ring6-3": lambda: capacity_pair(3, horizon=2)[0],
}
DEFAULTS = [ExtensionDefaults(0, 0, 0), ExtensionDefaults(1, 1, 1)]
ROUND_CASES = [("pair", 1), ("capacity-3", 1), ("capacity-3", 2), ("capacity-3", 3),
               ("capacity-3-four-levels", 2), ("desk", 2), ("ring6-3", 1), ("ring6-3", 2)]


def gather_expected_own_rows(ctx, i, q_i, policies, ext_s):
    """Reference expectation: neighbor policy rows gathered through the state map."""
    cov = ctx.covers[i]
    x = q_i.reshape((cov.n_states,) + tuple(cov.act_dims))
    for pos in range(len(cov.devs) - 1, -1, -1):
        d = cov.devs[pos]
        if d == i:
            continue
        rows = policies[d][ext_s[i][d]]  # (n_states_i, nl_d)
        shape = [cov.n_states] + [1] * (x.ndim - 1)
        shape[1 + pos] = cov.act_dims[pos]
        x = (x * rows.reshape(shape)).sum(axis=1 + pos)
    return x.reshape(cov.n_states, cov.act_dims[cov.dev_pos[i]])


def gather_improve_round(ctx, q_list, pi_list):
    """Reference round: np.ix_ gathers through the public extension maps.

    Gain-only Q tables are broadcast to full local states for the gathers, and
    the fused tables, constant over the battery digits, returned on gains again.
    """
    covers, dflt = ctx.covers, ctx.defaults
    ext_s = [{j: extension_state_map(ci, covers[j], dflt) for j in ci.devs} for ci in covers]
    q_full = [over_batteries(c, q) for c, q in zip(covers, q_list)]
    q_new = []
    for i, cov in enumerate(covers):
        acc = np.zeros((cov.n_states, cov.n_actions))
        for j in cov.devs:
            acc += q_full[j][np.ix_(ext_s[i][j], extension_action_map(cov, covers[j], dflt))]
        q_new.append(acc / len(cov.devs))
    pi_new = [masked_softmax(gather_expected_own_rows(ctx, i, q_new[i], pi_list, ext_s),
                             ctx.gamma, ctx.feas_rows[i]) for i in range(len(covers))]
    return ([q.reshape(c.n_gain_cfgs, -1, c.n_actions)[:, 0] for c, q in zip(covers, q_new)],
            pi_new)


def random_round_inputs(name, hops, defaults, seed):
    """A context and random Q tables with stochastic (Dirichlet) policy rows."""
    ctx = localized._SynthContext(SYNTH_MODELS[name](), hops, 0.5, defaults, 50_000_000)
    rng = np.random.default_rng(seed)
    q = [rng.random((c.n_gain_cfgs, c.n_actions)) for c in ctx.covers]
    pi = [rng.dirichlet(np.ones(c.act_dims[c.dev_pos[c.owner]]), size=c.n_states)
          for c in ctx.covers]
    return ctx, q, pi


@pytest.mark.parametrize("defaults", DEFAULTS, ids=["dflt0", "dflt1"])
@pytest.mark.parametrize("name,hops", ROUND_CASES)
def test_neighbour_views_match_the_extension_maps(name, hops, defaults):
    ctx, q, pi = random_round_inputs(name, hops, defaults, seed=hops)
    for i, ci in enumerate(ctx.covers):
        for j in ci.devs:
            cj = ctx.covers[j]
            ext_s = extension_state_map(ci, cj, defaults)
            ext_p = extension_action_map(ci, cj, defaults)
            view = ctx.views[i][j](q[j])
            assert np.may_share_memory(view, q[j])
            full = np.broadcast_to(view, ci.link_dims + tuple(ci.act_dims))
            full = over_batteries(ci, full.reshape(ci.n_gain_cfgs, ci.n_actions))
            assert np.array_equal(full, over_batteries(cj, q[j])[np.ix_(ext_s, ext_p)])
            rows = np.broadcast_to(ctx.pi_views[i][j](pi[j]), ci.state_dims + pi[j].shape[1:])
            assert np.array_equal(rows.reshape(ci.n_states, -1), pi[j][ext_s])


@pytest.mark.parametrize("name,hops", ROUND_CASES)
def test_feasible_rows_read_the_owner_battery_digit(name, hops):
    ctx, _, _ = random_round_inputs(name, hops, DEFAULTS[0], seed=0)
    for cov, feas in zip(ctx.covers, ctx.feas_rows):
        digits = np.unravel_index(np.arange(cov.n_states), cov.state_dims)
        b = digits[len(cov.links) + cov.dev_pos[cov.owner]]
        assert np.array_equal(feas, ctx.mdp.feasible_level_masks[cov.owner][:, b].T)
        assert feas.T.flags.c_contiguous  # level-major, as masked_softmax reads it


@pytest.mark.parametrize("defaults", DEFAULTS, ids=["dflt0", "dflt1"])
@pytest.mark.parametrize("name,hops", ROUND_CASES)
def test_improve_round_is_bit_identical_to_the_gather_reference(name, hops, defaults):
    ctx, q, pi = random_round_inputs(name, hops, defaults, seed=10 + hops)
    ext_s = [{j: extension_state_map(ci, ctx.covers[j], defaults) for j in ci.devs}
             for ci in ctx.covers]
    for i in range(len(ctx.covers)):
        q_full = over_batteries(ctx.covers[i], q[i])
        assert np.array_equal(localized._expected_own_rows(ctx, i, q[i], pi),
                              gather_expected_own_rows(ctx, i, q_full, pi, ext_s))
    got, want = localized._improve_round(ctx, q, pi), gather_improve_round(ctx, q, pi)
    for new, ref in zip(got, want):
        for a, b in zip(new, ref):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("name,hops", [(name, h) for name, top in
                                       [("capacity-3", 3), ("desk", 2), ("ring6-3", 2)]
                                       for h in range(top + 1)])
def test_synthesis_is_bit_identical_with_the_gather_rounds(name, hops, monkeypatch):
    mdp = SYNTH_MODELS[name]()
    runs = []
    for improve_round in (localized._improve_round, gather_improve_round):
        monkeypatch.setattr(localized, "_improve_round", improve_round)
        runs.append([synthesize(mdp, hops=hops, gamma=gamma, rounds=2, defaults=dflt)
                     for gamma in (0.5, 512.0) for dflt in DEFAULTS])
    for new, ref in zip(*runs):
        for tn, tr in zip(new.tables, ref.tables):
            for a, b in zip(tn, tr):
                assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# neighbour expectation: fold-ordered kernel against the cover-order fold
# ---------------------------------------------------------------------------

def former_expected_own_rows(ctx, i, q_i, policies):
    """The former kernel: neighbours folded on cover-order axes, the action axis innermost."""
    cov = ctx.covers[i]
    ns = len(cov.state_dims)
    x = q_i.reshape(cov.link_dims + (1,) * len(cov.devs) + tuple(cov.act_dims))
    for pos in range(len(cov.devs) - 1, -1, -1):
        d = cov.devs[pos]
        if d == i:
            continue
        rows = ctx.pi_views[i][d](policies[d])  # i's state axes, then d's levels
        lead, tail = (slice(None),) * (ns + pos), (None,) * (x.ndim - ns - 1)
        acc = x[lead + (0,)] * rows[(..., 0) + tail]
        for l in range(1, cov.act_dims[pos]):  # level order keeps the sums bit-identical
            acc += x[lead + (l,)] * rows[(..., l) + tail]
        x = acc
    return localized._state_rows(cov, x)  # neighbour rows may leave battery axes at length 1


TWO_LEVELS = ChannelChain(levels=np.array([0.1, 0.8]), steady=np.array([0.4, 0.6]),
                          psi=np.array([[0.55, 0.45], [0.3, 0.7]]))
ONE_LEVEL = ChannelChain(levels=np.array([0.5]), steady=np.array([1.0]), psi=np.array([[1.0]]))
CASE_ENTRIES = 1 << 17  # largest cover states x actions a generated case may have


@st.composite
def expectation_cases(draw):
    """A model on a ring, line, complete or random-geometric graph of 2-7 devices with 2-4
    battery levels and 2-3 power levels per device, hops 0-3, extension defaults, and random
    Q tables and policy rows. Under the zero gain default the links in every cover may have
    one gain level, which keeps dense graphs within CASE_ENTRIES per cover."""
    kind = draw(st.sampled_from(["ring", "line", "complete", "random_geometric"]))
    m, hops = 7 - draw(st.integers(0, 5)), 3 - draw(st.integers(0, 3))  # large first
    defaults = draw(st.sampled_from(DEFAULTS))
    topo = build_topology(kind, m, seed=draw(st.integers(0, 9)))
    members = [set(k_hop_set(topo.neighbors, i, hops)) for i in range(m)]
    thin = defaults.gain == 0 and draw(st.booleans())
    chains = [ONE_LEVEL if thin and all(a in c or b in c for c in members) else TWO_LEVELS
              for a, b in topo.edges]
    n_levels = draw(st.integers(2, 4))
    ladders = [[0.0, 1.0] + draw(st.sampled_from([[], [2.0]])) for _ in range(m)]
    assume(max(math.prod(chains[e].n for e, (a, b) in enumerate(topo.edges) if a in c or b in c)
               * math.prod(n_levels * len(ladders[d]) for d in c) for c in members)
           <= CASE_ENTRIES)
    energy = EnergyParams(k_steps=1, cpu_freq=1.0, cycles_per_sample=0.0, batch_size=1,
                          tau=1.0, b_max=float(n_levels - 1), n_levels=n_levels)
    mdp = build_mdp(topo, RadioParams(0.8, (0.3,) * m, 1.0), energy, chains,
                    HarvestModel(support=np.array([0.0, 1.0]), probs=np.array([0.6, 0.4])),
                    ladders, 1)
    ctx = localized._SynthContext(mdp, hops, draw(st.sampled_from([0.5, 512.0])), defaults,
                                  CASE_ENTRIES)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q = [rng.random((c.n_gain_cfgs, c.n_actions)) for c in ctx.covers]
    pi = [rng.dirichlet(np.ones(c.act_dims[c.dev_pos[c.owner]]), size=c.n_states)
          for c in ctx.covers]
    return ctx, q, pi


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(expectation_cases())
def test_expectation_and_round_equal_the_former_kernel_and_the_gathers_on_generated_models(case):
    ctx, q, pi = case
    ext_s = [{j: extension_state_map(ci, ctx.covers[j], ctx.defaults) for j in ci.devs}
             for ci in ctx.covers]
    for i, cov in enumerate(ctx.covers):
        new = localized._expected_own_rows(ctx, i, q[i], pi)
        assert np.array_equal(new, former_expected_own_rows(ctx, i, q[i], pi))
        assert np.array_equal(new, gather_expected_own_rows(ctx, i, over_batteries(cov, q[i]),
                                                            pi, ext_s))
    got = localized._improve_round(ctx, q, pi)
    with mock.patch.object(localized, "_expected_own_rows", former_expected_own_rows):
        former = localized._improve_round(ctx, q, pi)
    for ref in (former, gather_improve_round(ctx, q, pi)):
        for new, old in zip(got, ref):
            for a, b in zip(new, old):
                assert np.array_equal(a, b)


def test_desk_hops_3_synthesis_equals_the_former_kernel(monkeypatch):
    mdp = desk_scenario(horizon=2).mdp
    new = synthesize(mdp, hops=3, gamma=512.0, rounds=1)
    monkeypatch.setattr(localized, "_expected_own_rows", former_expected_own_rows)
    ref = synthesize(mdp, hops=3, gamma=512.0, rounds=1)
    for tn, tr in zip(new.tables, ref.tables):
        for a, b in zip(tn, tr):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# synthesis output invariants
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pair_policy():
    mdp, s1 = oracle_instance()
    pol = synthesize(mdp, hops=1, gamma=32.0, rounds=5)
    return mdp, s1, pol


def test_conditionals_are_distributions(pair_policy):
    mdp, _, pol = pair_policy
    for t in (1, mdp.horizon):
        for cond in pol.conditionals(mdp, t):
            rows = np.broadcast_to(cond, mdp.state_shape + cond.shape[-1:])
            assert np.allclose(rows.sum(axis=-1), 1.0, atol=1e-12)
            assert (rows >= 0).all()


def test_act_respects_energy_causality(pair_policy):
    mdp, _, pol = pair_policy
    rng = np.random.default_rng(0)
    feas = action_feasibility(mdp)
    for s in range(mdp.n_states):
        for _ in range(20):
            levels = pol.act(mdp, s, 1, rng)
            assert feas[np.ravel_multi_index(levels, mdp.act_dims), s % mdp.n_battery_cfgs]


def test_tiny_gamma_gives_near_uniform_feasible_policy():
    mdp, _ = oracle_instance()
    pol = synthesize(mdp, hops=1, gamma=1e-12, rounds=0)
    for i in range(mdp.m):
        rows = pol.tables[i][0]
        for row in rows:
            nz = row[row > 0]
            assert np.allclose(nz, 1.0 / len(nz), atol=1e-9)


def test_snapshot_rounds_returns_all_requested():
    mdp, _ = oracle_instance()
    snaps = synthesize(mdp, hops=1, gamma=32.0, rounds=4,
                       snapshot_rounds=(0, 2, 4))
    assert sorted(snaps) == [0, 2, 4]
    d = policy_distance(snaps[0], snaps[4])
    assert d.shape == (mdp.m, mdp.horizon)
    assert (d >= 0).all()


def test_synthesis_is_deterministic():
    mdp, _ = oracle_instance()
    a = synthesize(mdp, hops=1, gamma=32.0, rounds=5)
    b = synthesize(mdp, hops=1, gamma=32.0, rounds=5)
    for ta, tb in zip(a.tables, b.tables):
        for ra, rb in zip(ta, tb):
            assert (ra == rb).all()


def test_table_budget_guard():
    mdp = tiny_instances()["tiny-a"].mdp
    with pytest.raises(BudgetExceeded):
        synthesize(mdp, hops=2, gamma=8.0, rounds=1, table_budget=2)


def test_table_budget_is_checked_before_any_table_is_built():
    # A 14-device desk ring at hops 4 needs 2**19 x 2**9 entries per cover; the
    # check must fire on the cover sizes, not after the tables are allocated.
    desk = desk_scenario(horizon=2).mdp
    mdp = build_mdp(build_topology("ring", 14), RadioParams(0.5, (0.3,) * 14, 1.0),
                    desk.energy, desk.chains[0], desk.harvests[0], [0.0, 1.0], horizon=2)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            synthesize(mdp, hops=4, gamma=512.0, rounds=1, table_budget=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_localized_round_trip(tmp_path, pair_policy):
    mdp, s1, pol = pair_policy
    save_localized(pol, tmp_path / "pol.npz")
    back = load_localized(tmp_path / "pol.npz", mdp)
    assert back.gamma == pol.gamma and back.hops == pol.hops
    for ta, tb in zip(pol.tables, back.tables):
        for ra, rb in zip(ta, tb):
            assert (ra == rb).all()
    # Behaviour identical, not just parameters.
    from ehdfl.mdp import evaluate_policy
    assert evaluate_policy(mdp, back, s1) == pytest.approx(
        evaluate_policy(mdp, pol, s1), abs=1e-15)


def test_a_former_localized_policy_file_loads_to_the_same_tables(tmp_path, pair_policy,
                                                                 monkeypatch):
    mdp, _, pol = pair_policy
    monkeypatch.setattr(localized, "save_artifact", former_save_artifact)
    save_localized(pol, tmp_path / "former.npz")
    with zipfile.ZipFile(tmp_path / "former.npz") as z:
        assert {i.compress_type for i in z.infolist()} == {zipfile.ZIP_DEFLATED}
    back = load_localized(tmp_path / "former.npz", mdp)
    assert [c.__dict__ for c in back.covers] == [c.__dict__ for c in pol.covers]
    for ta, tb in zip(pol.tables, back.tables):
        assert all(np.array_equal(ra, rb) for ra, rb in zip(ta, tb))


def test_load_solution_rejects_a_saved_localized_policy(tmp_path, pair_policy):
    mdp, _, pol = pair_policy
    save_localized(pol, tmp_path / "pol.npz")
    with pytest.raises(ValueError, match="holds a localized_policy, not a centralized_solution"):
        load_solution(tmp_path / "pol.npz", mdp)


def test_load_localized_rejects_a_saved_solution(tmp_path, pair_policy):
    mdp, _, _ = pair_policy
    save_solution(backward_induction(mdp), tmp_path / "sol.npz")
    with pytest.raises(ValueError, match="holds a centralized_solution, not a localized_policy"):
        load_localized(tmp_path / "sol.npz", mdp)


def test_localized_load_rejects_wrong_model(tmp_path, pair_policy):
    _, _, pol = pair_policy
    other = tiny_instances()["tiny-a"].mdp
    save_localized(pol, tmp_path / "pol.npz")
    with pytest.raises(ValueError, match="different model"):
        load_localized(tmp_path / "pol.npz", other)
