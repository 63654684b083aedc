import tracemalloc

import numpy as np
import pytest

from ehdfl import localized
from ehdfl.channel import ChannelChain, RadioParams
from ehdfl.energy import EnergyParams, HarvestModel
from ehdfl.errors import BudgetExceeded
from ehdfl.instances import (capacity_family, capacity_pair, desk_scenario,
                             fullinfo_instance, oracle_instance, tiny_instances)
from ehdfl.localized import (ExtensionDefaults, build_cover, extension_action_map,
                             extension_state_map, load_localized, localized_backward_layer,
                             localized_cost_table, masked_softmax, policy_distance,
                             save_localized, synthesize)
from ehdfl.mdp import build_mdp
from ehdfl.topology import build_topology, k_hop_set


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


# ---------------------------------------------------------------------------
# localized cost vs the global decomposition
# ---------------------------------------------------------------------------

def cost_entry(mdp, cov, gain_digits, levels, defaults=ExtensionDefaults()):
    """localized_cost_table entry at one tuple of cover gain digits and cover levels."""
    g = np.ravel_multi_index(gain_digits, cov.link_dims)
    a = np.ravel_multi_index(levels, cov.act_dims)
    return localized_cost_table(mdp, cov, defaults)[g, a]


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
        g = mdp.chains[mdp.entity_of(r, 0)].levels[state.gains[mdp.entity_of(r, 0)]]
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
        for rows in pol.conditionals(mdp, t):
            assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)
            assert (rows >= 0).all()


def test_act_respects_energy_causality(pair_policy):
    mdp, _, pol = pair_policy
    rng = np.random.default_rng(0)
    feas = mdp.action_feasibility
    for s in range(mdp.n_states):
        for _ in range(20):
            levels = pol.act(mdp, s, 1, rng)
            assert feas[mdp.action_index(levels), s % mdp.n_battery_cfgs]


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


def test_localized_load_rejects_wrong_model(tmp_path, pair_policy):
    _, _, pol = pair_policy
    other = tiny_instances()["tiny-a"].mdp
    save_localized(pol, tmp_path / "pol.npz")
    with pytest.raises(ValueError, match="different model"):
        load_localized(tmp_path / "pol.npz", other)
