import numpy as np
import pytest

from ehdfl.instances import (capacity_family, desk_scenario, fullinfo_instance,
                             oracle_instance, tiny_instances)
from ehdfl.topology import (build_topology, from_edges, is_connected, k_hop_set,
                            metropolis_weights, spectral_lambda)


@pytest.mark.parametrize("kind,m", [("ring", 8), ("complete", 3), ("line", 5)])
def test_mixing_is_symmetric_doubly_stochastic(kind, m):
    topo = build_topology(kind, m)
    a = topo.mixing
    assert np.allclose(a, a.T)
    assert np.allclose(a.sum(axis=1), 1.0)
    assert (a >= 0).all()
    assert 0.0 <= topo.lam < 1.0


def test_ring_structure():
    topo = build_topology("ring", 6)
    assert topo.n_edges == 6
    assert all(topo.degree(i) == 2 for i in range(6))
    assert topo.diameter == 3


def test_complete_has_all_pairs():
    topo = build_topology("complete", 4)
    assert topo.n_edges == 6
    assert topo.diameter == 1


def test_line_endpoints():
    topo = build_topology("line", 4)
    assert topo.degree(0) == 1 and topo.degree(3) == 1
    assert topo.diameter == 3


def test_k_hop_sets_grow_to_everything():
    topo = build_topology("ring", 8)
    sets = [k_hop_set(topo.neighbors, 0, h) for h in range(5)]
    assert sets[0] == (0,)
    assert set(sets[1]) == {7, 0, 1}
    for a, b in zip(sets, sets[1:]):
        assert set(a) <= set(b)
    assert len(sets[4]) == 8


def test_random_geometric_connected_and_seeded():
    a = build_topology("random_geometric", 10, seed=3)
    b = build_topology("random_geometric", 10, seed=3)
    assert a.edges == b.edges
    assert a.lam < 1.0


def dense_random_geometric_edges(m, seed):
    """Reference: each draw's edges read off the full (m, m) squared-distance array."""
    r = float(np.sqrt(2.0 * np.log(m) / m))
    rng = np.random.default_rng(seed)
    for _ in range(100):
        pts = rng.random((m, 2))
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        edges = [(i, j) for i in range(m) for j in range(i + 1, m) if d2[i, j] <= r * r]
        if is_connected(m, edges):
            return edges
    raise AssertionError("no connected draw")


@pytest.mark.parametrize("m", [2, 3, 8, 50, 200])
def test_random_geometric_edges_equal_the_dense_distance_formula(m):
    # The row-by-row search must accept the same draws and find the same edges.
    for seed in (0, 1, 5, 11):
        topo = build_topology("random_geometric", m, seed=seed)
        assert topo.edges == tuple(dense_random_geometric_edges(m, seed))


def test_disconnected_edge_list_rejected():
    with pytest.raises(ValueError):
        from_edges(4, [(0, 1), (2, 3)])


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        build_topology("star", 4)


def pinned_topologies():
    out = {name: inst.mdp.topo for name, inst in tiny_instances().items()}
    out["pair"] = oracle_instance()[0].topo
    out["capacity"] = capacity_family(2)[0].topo
    out["fullinfo"] = fullinfo_instance().mdp.topo
    out["desk"] = desk_scenario(horizon=1).mdp.topo
    for kind, m in (("ring", 6), ("complete", 4), ("line", 5), ("random_geometric", 10)):
        out[f"{kind}-{m}"] = build_topology(kind, m, seed=3)
    return out


@pytest.mark.parametrize("name", sorted(pinned_topologies()))
def test_lazy_products_equal_the_eager_ones(name):
    # Nothing dense is built until read, and then exactly the Metropolis matrix
    # and its spectral lambda, bit for bit.
    topo = pinned_topologies()[name]
    assert "mixing" not in vars(topo) and "lam" not in vars(topo)
    a = metropolis_weights(topo.m, topo.edges)
    assert np.array_equal(topo.mixing, a)
    assert topo.lam == spectral_lambda(a)
    assert topo.mixing is topo.mixing  # computed once
