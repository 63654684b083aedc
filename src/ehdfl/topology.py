"""Communication graph construction, mixing weights, and hop neighborhoods.

Devices sit on an undirected connected graph. Gossip weights follow the
Metropolis-Hastings rule, which yields a symmetric doubly stochastic mixing
matrix with a strictly positive diagonal, hence a spectral quantity
lambda = max(|lambda_2|, |lambda_m|) < 1 on any connected graph.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True, eq=False)
class Topology:
    """Immutable graph bundle: edges, neighbor sets, mixing weights, hop sets.

    Building one costs O(m + edges). The dense products, ``mixing`` and
    ``lam``, are computed on first read and their invariants checked there;
    parsing a config reads neither, while the cost table, training and
    ``GlobalMdp.signature`` do.

    Attributes:
        m: device count.
        edges: undirected edges as sorted (i, j) pairs with i < j.
        neighbors: tuple of sorted one-hop neighbor tuples (excluding self).
        mixing: (m, m) symmetric doubly stochastic Metropolis weights.
        lam: max(|lambda_2|, |lambda_m|) of the mixing matrix.
    """

    m: int
    edges: tuple[tuple[int, int], ...]
    neighbors: tuple[tuple[int, ...], ...]

    @functools.cached_property
    def mixing(self) -> np.ndarray:
        a = metropolis_weights(self.m, self.edges)
        if (not np.allclose(a.sum(axis=0), 1.0, atol=1e-12)
                or not np.allclose(a.sum(axis=1), 1.0, atol=1e-12)):
            raise ValueError("mixing matrix is not doubly stochastic")
        if (a < -1e-15).any():
            raise ValueError("mixing matrix has negative entries")
        if (np.diag(a) <= 0).any():
            raise ValueError("mixing matrix diagonal must be positive")
        return a

    @functools.cached_property
    def lam(self) -> float:
        lam = spectral_lambda(self.mixing)
        if not lam < 1.0:
            raise ValueError(f"spectral lambda must be < 1, got {lam}")
        return lam

    @functools.cached_property
    def links(self) -> LinkTable:
        """Every directed link j -> i, j ascending, then i among j's sorted neighbors (the
        order the link-loss sums run in, and ascending in j * m + i), built in
        O(m + sum of degree^2)."""
        edge = {e: k for k, e in enumerate(self.edges)}
        pad = [self.m] * (max(map(len, self.neighbors)) - 1)
        rows = [(i, j, ([k for k in self.neighbors[i] if k != j] + pad)[:len(pad)])
                for j in range(self.m) for i in self.neighbors[j]]  # the interference rule
        rx, tx = np.array([r[:2] for r in rows], dtype=np.int64).T
        others = np.array([r[2] for r in rows], dtype=np.int64).reshape(len(rows), len(pad))
        edge_of = np.vectorize(lambda a, b: edge.get((min(a, b), max(a, b)), len(edge)),
                               otypes=[np.int64])
        return LinkTable(rx, tx, edge_of(rx, tx), others, edge_of(rx[:, None], others))

    def degree(self, i: int) -> int:
        return len(self.neighbors[i])

    @property
    def diameter(self) -> int:
        return max(_depth(self.neighbors, s) for s in range(self.m))


class LinkTable(NamedTuple):
    """`Topology.links`, one row per directed link j -> i: its receiver, transmitter and
    index in `Topology.edges`, (P,) each, and its interfering neighbors (i's other
    neighbors, in order) and the edges they reach i on, (P, D) each, padded with m and
    len(edges), D the largest degree less one."""

    rx: np.ndarray
    tx: np.ndarray
    edge: np.ndarray
    others: np.ndarray
    other_edges: np.ndarray


def metropolis_weights(m: int, edges) -> np.ndarray:
    """Metropolis-Hastings mixing matrix for an undirected graph.

    a_ij = 1 / (1 + max(deg_i, deg_j)) on edges, a_ii soaks up the rest.
    """
    deg = np.bincount(np.array(edges, dtype=np.int64).ravel(), minlength=m)
    a = np.zeros((m, m))
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
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


def _depth(neighbors, s: int) -> int:
    """Hops from s to the farthest device it reaches, by breadth-first search."""
    seen, frontier, depth = {s}, {s}, 0
    while True:
        frontier = {v for u in frontier for v in neighbors[u]} - seen
        if not frontier:
            return depth
        seen |= frontier
        depth += 1


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
    adj = [[] for _ in range(m)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    return Topology(m=m, edges=edges, neighbors=tuple(tuple(sorted(ns)) for ns in adj))


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
            edges = []
            for i in range(m - 1):  # row i against the later points only: O(m) memory
                d2 = ((pts[i] - pts[i + 1:]) ** 2).sum(axis=1)
                edges += [(i, j) for j in (i + 1 + np.nonzero(d2 <= r * r)[0]).tolist()]
            if is_connected(m, edges):
                return from_edges(m, edges)
        raise RuntimeError(
            f"random_geometric: no connected draw in {attempts} attempts (m={m}, radius={r:.3f})")
    raise ValueError(f"unknown topology kind {kind!r}")
