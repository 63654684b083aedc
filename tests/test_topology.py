import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from ehdfl.channel import RadioParams, packet_error_rate
from ehdfl.instances import (capacity_family, desk_scenario, fullinfo_instance,
                             oracle_instance, tiny_instances)
from ehdfl.topology import build_topology, from_edges, is_connected, k_hop_set, spectral_lambda
from test_channel import graphs


def former_metropolis_weights(m, edges):
    """The former dense builder: a_ij = 1 / (1 + max(deg_i, deg_j)) on edges, and a_ii
    soaks up the rest of row i, summed by numpy over the whole dense row."""
    deg = np.bincount(np.array(edges, dtype=np.int64).ravel(), minlength=m)
    a = np.zeros((m, m))
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    for i in range(m):
        a[i, i] = 1.0 - a[i].sum()
    return a


def scattered_weights(topo):
    """The link table's weights and the self weights scattered to a dense (m, m) array."""
    a = np.zeros((topo.m, topo.m))
    a[topo.links.rx, topo.links.tx] = topo.links.weight
    a[np.diag_indices(topo.m)] = topo.self_weights
    return a


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
    assert len(topo.edges) == 6
    assert all(len(topo.neighbors[i]) == 2 for i in range(6))
    assert topo.diameter == 3


def test_complete_has_all_pairs():
    topo = build_topology("complete", 4)
    assert len(topo.edges) == 6
    assert topo.diameter == 1


def test_line_endpoints():
    topo = build_topology("line", 4)
    assert len(topo.neighbors[0]) == 1 and len(topo.neighbors[3]) == 1
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
    a = former_metropolis_weights(topo.m, topo.edges)
    assert np.array_equal(scattered_weights(topo), a)
    assert "mixing" not in vars(topo)  # the weights are built without it
    assert np.array_equal(topo.mixing, a)
    assert topo.lam == spectral_lambda(a)
    assert topo.mixing is topo.mixing  # computed once


@pytest.mark.parametrize("kind", ["line", "ring", "complete", "random_geometric"])
def test_link_and_self_weights_equal_the_former_dense_builder(kind):
    # A self weight is 1 - numpy's pairwise sum over a dense row, whose grouping of three
    # or more weights differs from a running sum; every size from 2 to 64 devices.
    for m in range(2, 65):
        for seed in (range(4) if kind == "random_geometric" else (None,)):
            topo = build_topology(kind, m, seed=seed)
            assert np.array_equal(scattered_weights(topo),
                                  former_metropolis_weights(m, topo.edges)), (m, seed)


def test_weights_of_a_4096_device_circulant_graph_stay_small():
    # Degree 4 everywhere, so every self weight takes the dense-row sum, one row at a time;
    # one (m, m) float array alone is 128 MiB at this size.
    m = 4096
    topo = from_edges(m, [(i, (i + k) % m) for i in range(m) for k in (1, 2)])
    tracemalloc.start()
    try:
        own = topo.self_weights
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (own == 1.0 - 4 * (1.0 / 5.0)).all() and peak < 16 * 2 ** 20


def brute_force_links(topo):
    """Each directed link j -> i, j ascending, then i among j's neighbors: (i, j, its
    edge, i's other neighbors in order, their edges)."""
    edge = {e: k for k, e in enumerate(topo.edges)}
    rows = []
    for j in range(topo.m):
        for i in topo.neighbors[j]:
            others = [k for k in topo.neighbors[i] if k != j]
            rows.append((i, j, edge[min(i, j), max(i, j)], others,
                         [edge[min(i, k), max(i, k)] for k in others]))
    return rows


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(graphs(max_m=14))
def test_link_table_equals_a_brute_force_build(topo):
    lk, want = topo.links, brute_force_links(topo)
    width = max(map(len, topo.neighbors)) - 1
    assert lk.rx.tolist() == [r[0] for r in want] and lk.tx.tolist() == [r[1] for r in want]
    assert lk.edge.tolist() == [r[2] for r in want]
    assert lk.others.tolist() == [r[3] + [topo.m] * (width - len(r[3])) for r in want]
    assert lk.other_edges.tolist() == [r[4] + [len(topo.edges)] * (width - len(r[4]))
                                            for r in want]
    assert (np.diff(lk.tx * topo.m + lk.rx) > 0).all()  # the key PER searches on
    assert topo.links is lk  # built once


def former_link_table(topo):
    """The former list builder of the link table: per-link Python interferer lists and an
    edge lookup through a dict, called element by element."""
    m, edge = topo.m, {e: k for k, e in enumerate(topo.edges)}
    pad = [m] * (max(map(len, topo.neighbors)) - 1)
    rows = [(i, j, ([k for k in topo.neighbors[i] if k != j] + pad)[:len(pad)])
            for j in range(m) for i in topo.neighbors[j]]
    rx, tx = np.array([r[:2] for r in rows], dtype=np.int64).T
    others = np.array([r[2] for r in rows], dtype=np.int64).reshape(len(rows), len(pad))
    edge_of = np.vectorize(lambda a, b: edge.get((min(a, b), max(a, b)), len(edge)),
                           otypes=[np.int64])
    return rx, tx, edge_of(rx, tx), others, edge_of(rx[:, None], others)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(graphs(max_m=39))
def test_link_table_equals_the_former_list_builder(topo):
    lk = topo.links
    for got, want in zip(lk, former_link_table(topo)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(scattered_weights(topo), former_metropolis_weights(topo.m, topo.edges))


def test_link_table_and_per_over_every_link_of_a_4096_ring_stay_small():
    # One (m, m) float array alone is 128 MiB at this size.
    topo = build_topology("ring", 4096)
    rng = np.random.default_rng(0)
    p, g = rng.random(topo.m), rng.random(len(topo.edges))
    tracemalloc.start()
    try:
        lk = topo.links
        q = packet_error_rate(p, g, topo, RadioParams(1.0, 1.0, 1.0), lk.rx, lk.tx)
        assert (topo.self_weights == 1.0 - (1.0 / 3.0 + 1.0 / 3.0)).all()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.shape == (2 * topo.m,) and peak < 16 * 2 ** 20
