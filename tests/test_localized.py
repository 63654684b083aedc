import numpy as np
import pytest

from ehdfl.errors import BudgetExceeded
from ehdfl.instances import (capacity_family, capacity_pair, fullinfo_instance,
                             oracle_instance, tiny_instances)
from ehdfl.localized import (ExtensionDefaults, build_cover, load_localized,
                             localized_backward_layer, localized_cost, masked_softmax,
                             policy_distance, synthesize)
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
            li = localized_cost(mdp, cov, gd, lv)
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
    li = localized_cost(mdp, cov, gd, (0,), ExtensionDefaults())
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

    quiet = localized_cost(mdp, cov, gd, (top,), ExtensionDefaults())
    expected = 0.0
    for r in mdp.topo.neighbors[0]:
        g = mdp.chains[mdp.entity_of(r, 0)].levels[state.gains[mdp.entity_of(r, 0)]]
        w = float(mdp.topo.mixing[r, 0])
        expected += w * (1.0 - np.exp(-phi * mdp.radio.noise(r) / (p0 * g)))
    assert quiet == pytest.approx(expected * mdp.cost_scale, abs=1e-12)

    loud = localized_cost(mdp, cov, gd, (top,),
                          ExtensionDefaults(level=len(mdp.power_levels[2]) - 1))
    assert loud > quiet


# ---------------------------------------------------------------------------
# localized backward recursion
# ---------------------------------------------------------------------------

def tensordot_backward_layer(mdp, cover, q_next, cost_tbl):
    """Reference layer contracting with tensordot and moving each axis back in place."""
    nl = len(cover.links)
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
            descend(d + 1, xd, prefix + l * int(cover.act_strides[d]))

    descend(0, x, 0)
    out = out.reshape(cover.n_gain_cfgs, -1, cover.n_actions) + cost_tbl[:, None, :]
    return out.reshape(cover.n_states, cover.n_actions)


@pytest.mark.parametrize("name,hops", [("pair", 1), ("capacity-3", 1), ("capacity-3", 2),
                                       ("ring6-3", 1)])
def test_backward_layer_is_bit_identical_to_the_tensordot_reference(name, hops):
    mdp = {"pair": lambda: oracle_instance()[0],
           "capacity-3": lambda: capacity_family(3)[0],
           "ring6-3": lambda: capacity_pair(3, horizon=2)[0]}[name]()
    rng = np.random.default_rng(hops)
    for owner in range(mdp.m):
        cover = build_cover(mdp, owner, hops)
        q_next = rng.random((cover.n_states, cover.n_actions))
        cost_tbl = rng.random((cover.n_gain_cfgs, cover.n_actions))
        assert np.array_equal(localized_backward_layer(mdp, cover, q_next, cost_tbl),
                              tensordot_backward_layer(mdp, cover, q_next, cost_tbl))


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


def test_localized_round_trip(tmp_path, pair_policy):
    mdp, s1, pol = pair_policy
    pol.save(tmp_path / "pol.npz")
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
    pol.save(tmp_path / "pol.npz")
    with pytest.raises(ValueError, match="different model"):
        load_localized(tmp_path / "pol.npz", other)
