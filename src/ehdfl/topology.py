"""Communication graph construction, mixing weights, and hop neighborhoods.

Devices sit on an undirected connected graph. Gossip weights follow the
Metropolis-Hastings rule, which yields a symmetric doubly stochastic mixing
matrix with a strictly positive diagonal, hence a spectral quantity
lambda = max(|lambda_2|, |lambda_m|) < 1 on any connected graph.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Topology:
    """Immutable graph bundle: neighbor sets, mixing matrix, hop sets.

    Attributes:
        m: device count.
        edges: undirected edges as sorted (i, j) pairs with i < j.
        mixing: (m, m) symmetric doubly stochastic Metropolis weights.
        lam: max(|lambda_2|, |lambda_m|) of the mixing matrix.
        neighbors: tuple of sorted one-hop neighbor tuples (excluding self).
    """

    m: int
    edges: tuple[tuple[int, int], ...]
    mixing: np.ndarray
    lam: float
    neighbors: tuple[tuple[int, ...], ...]

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degree(self, i: int) -> int:
        return len(self.neighbors[i])

    @property
    def diameter(self) -> int:
        dist = _all_pairs_hops(self.m, self.neighbors)
        return int(dist.max())


def metropolis_weights(m: int, edges) -> np.ndarray:
    """Metropolis-Hastings mixing matrix for an undirected graph.

    a_ij = 1 / (1 + max(deg_i, deg_j)) on edges, a_ii soaks up the rest.
    """
    deg = np.zeros(m, dtype=int)
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    a = np.zeros((m, m))
    for i, j in edges:
        w = 1.0 / (1.0 + max(deg[i], deg[j]))
        a[i, j] = w
        a[j, i] = w
    for i in range(m):
        a[i, i] = 1.0 - a[i].sum()
    return a


def spectral_lambda(a: np.ndarray) -> float:
    """max(|lambda_2|, |lambda_m|) for a symmetric stochastic matrix."""
    m = a.shape[0]
    if m == 1:
        return 0.0
    vals = np.linalg.eigvalsh(a)  # ascending
    return float(max(abs(vals[-2]), abs(vals[0])))


def k_hop_set(neighbors, i: int, hops: int) -> tuple[int, ...]:
    """Sorted tuple of devices within `hops` edges of i, including i.

    hops=0 gives {i}; hops=2 is the gossip-fusion neighborhood used by the
    localized synthesis.
    """
    if hops < 0:
        raise ValueError("hops must be >= 0")
    seen = {i}
    frontier = [i]
    for _ in range(hops):
        nxt = []
        for u in frontier:
            for v in neighbors[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
        if not frontier:
            break
    return tuple(sorted(seen))


def _all_pairs_hops(m: int, neighbors) -> np.ndarray:
    dist = np.full((m, m), -1, dtype=int)
    for s in range(m):
        dist[s, s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in neighbors[u]:
                    if dist[s, v] < 0:
                        dist[s, v] = d
                        nxt.append(v)
            frontier = nxt
    return dist


def is_connected(m: int, edges) -> bool:
    adj = [[] for _ in range(m)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    return len(k_hop_set(adj, 0, m)) == m if m > 0 else False


def _validate(m: int, edges) -> None:
    if m < 2:
        raise ValueError(f"need at least 2 devices, got m={m}")
    seen = set()
    for i, j in edges:
        if not (0 <= i < m and 0 <= j < m) or i == j:
            raise ValueError(f"bad edge ({i}, {j}) for m={m}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
    if not is_connected(m, edges):
        raise ValueError("graph is not connected")


def from_edges(m: int, edges) -> Topology:
    """Assemble a Topology from an undirected edge list (validates)."""
    edges = tuple(sorted((min(i, j), max(i, j)) for i, j in edges))
    _validate(m, edges)
    a = metropolis_weights(m, edges)
    adj = [[] for _ in range(m)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    neighbors = tuple(tuple(sorted(ns)) for ns in adj)
    topo = Topology(m=m, edges=edges, mixing=a, lam=spectral_lambda(a), neighbors=neighbors)
    _check_invariants(topo)
    return topo


def _check_invariants(topo: Topology) -> None:
    a = topo.mixing
    if not np.allclose(a.sum(axis=0), 1.0, atol=1e-12) or not np.allclose(a.sum(axis=1), 1.0, atol=1e-12):
        raise ValueError("mixing matrix is not doubly stochastic")
    if (a < -1e-15).any():
        raise ValueError("mixing matrix has negative entries")
    if (np.diag(a) <= 0).any():
        raise ValueError("mixing matrix diagonal must be positive")
    if topo.m >= 2 and not topo.lam < 1.0:
        raise ValueError(f"spectral lambda must be < 1, got {topo.lam}")


def build_topology(kind: str, m: int, *, seed: int | None = None,
                   radius: float | None = None, attempts: int = 100) -> Topology:
    """Build a named topology.

    Args:
        kind: "ring", "complete", "line", or "random_geometric".
        m: device count, >= 2.
        seed: RNG seed for random_geometric placement.
        radius: connection radius for random_geometric; default scales as
            sqrt(2 ln(m) / m), comfortably above the connectivity threshold.
        attempts: redraw budget for random_geometric before giving up.

    Returns:
        A validated Topology.
    """
    if m < 2:
        raise ValueError(f"need at least 2 devices, got m={m}")
    if kind == "complete":
        edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
        return from_edges(m, edges)
    if kind == "ring":
        if m == 2:
            edges = [(0, 1)]
        else:
            edges = [(i, (i + 1) % m) for i in range(m)]
        return from_edges(m, edges)
    if kind == "line":
        edges = [(i, i + 1) for i in range(m - 1)]
        return from_edges(m, edges)
    if kind == "random_geometric":
        r = radius if radius is not None else float(np.sqrt(2.0 * np.log(max(m, 2)) / m))
        rng = np.random.default_rng(seed)
        for _ in range(attempts):
            pts = rng.random((m, 2))
            d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
            edges = [(i, j) for i in range(m) for j in range(i + 1, m) if d2[i, j] <= r * r]
            if is_connected(m, edges):
                return from_edges(m, edges)
        raise RuntimeError(
            f"random_geometric: no connected draw in {attempts} attempts (m={m}, radius={r:.3f})")
    raise ValueError(f"unknown topology kind {kind!r}")


# ---------------------------------------------------------------------------
# serialization: one edge per line "i j a_ij"; self-weights are inferred
# ---------------------------------------------------------------------------

def save_edge_list(topo: Topology, path) -> None:
    lines = [f"{i} {j} {float(topo.mixing[i, j])!r}" for i, j in topo.edges]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_edge_list(path) -> Topology:
    """Rebuild a Topology from an edge-weight file written by save_edge_list.

    Off-diagonal weights are taken from the file; diagonals are inferred as
    1 - row sum, then the usual invariants are checked.
    """
    edges = []
    weights = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            si, sj, sw = line.split()
            i, j = int(si), int(sj)
            key = (min(i, j), max(i, j))
            edges.append(key)
            weights[key] = float(sw)
    m = max(max(i, j) for i, j in edges) + 1
    edges = tuple(sorted(set(edges)))
    _validate(m, edges)
    a = np.zeros((m, m))
    for (i, j) in edges:
        a[i, j] = a[j, i] = weights[(i, j)]
    for i in range(m):
        a[i, i] = 1.0 - a[i].sum()
    neighbors = tuple(tuple(sorted(j for j in range(m) if a[i, j] > 0 and j != i)) for i in range(m))
    topo = Topology(m=m, edges=edges, mixing=a, lam=spectral_lambda(a), neighbors=neighbors)
    _check_invariants(topo)
    return topo
