"""Communication graph construction, mixing weights, and hop neighborhoods.

Devices sit on an undirected connected graph. Gossip weights follow the
Metropolis-Hastings rule, which yields a symmetric doubly stochastic mixing
matrix with a strictly positive diagonal, hence a spectral quantity
lambda = max(|lambda_2|, |lambda_m|) < 1 on any connected graph. The weights
live on the directed-link table with every other per-pair quantity.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True, eq=False)
class Topology:
    """Immutable graph bundle: edges, neighbor sets, link table and weights, hop sets.

    Building one costs O(m + edges). The link table and self weights are built and
    checked together on first read, by array operations of the size of the table's
    padded (P, D) interferer arrays.

    Attributes:
        m: device count.
        edges: undirected edges as sorted (i, j) pairs with i < j.
        neighbors: tuple of sorted one-hop neighbor tuples (excluding self).
        links: `LinkTable`, every directed link with its Metropolis weight a_ij.
        self_weights: (m,) Metropolis self weights a_ii.
        mixing: (m, m) dense scatter of the weights, for `lam`, the model signature and tests.
        lam: max(|lambda_2|, |lambda_m|) of the mixing matrix.
    """

    m: int
    edges: tuple[tuple[int, int], ...]
    neighbors: tuple[tuple[int, ...], ...]

    @property
    def links(self) -> LinkTable:
        return self._weighted[0]

    @property
    def self_weights(self) -> np.ndarray:
        return self._weighted[1]

    @functools.cached_property
    def mixing(self) -> np.ndarray:
        a = np.diag(self.self_weights)
        a[self.links.rx, self.links.tx] = self.links.weight
        return a

    @functools.cached_property
    def lam(self) -> float:
        lam = spectral_lambda(self.mixing)
        if not lam < 1.0:
            raise ValueError(f"spectral lambda must be < 1, got {lam}")
        return lam

    def out_links(self, j: int) -> slice:
        """The rows of `links` that device j transmits on, one block as the table is
        transmitter-major."""
        return slice(*np.searchsorted(self.links.tx, [j, j + 1]).tolist())

    @functools.cached_property
    def _weighted(self) -> tuple[LinkTable, np.ndarray]:
        """The link table and the self weights, both checked."""
        m, deg = self.m, np.fromiter(map(len, self.neighbors), np.int64, self.m)
        tx = np.repeat(np.arange(m), deg)  # rows j ascending, then i among j's neighbors
        rx = np.fromiter(itertools.chain.from_iterable(self.neighbors), np.int64, len(tx))
        a, b = np.array(self.edges, dtype=np.int64).T
        edge = np.searchsorted(a * m + b, np.minimum(rx, tx) * m + np.maximum(rx, tx))
        # the interference rule: i's neighbor row (and edge row) less j, padded with m (and E)
        start = np.searchsorted(tx, np.arange(m + 1))
        col = np.arange(len(tx)) - start[tx]  # each link's place in its transmitter's row
        nbr, nbr_edge = np.full((m, deg.max()), m), np.full((m, deg.max()), len(self.edges))
        nbr[tx, col], nbr_edge[tx, col] = rx, edge
        others = nbr[rx]
        keep = others != tx[:, None]  # exactly one entry per row is j
        others, other_edges = (x[keep].reshape(len(tx), -1) for x in (others, nbr_edge[rx]))
        weight = 1.0 / (1.0 + np.maximum(deg[rx], deg[tx]))  # a_ij, Metropolis-Hastings
        # a_ii = 1 - (row i).sum() of the dense matrix, numpy's pairwise sum: a running sum
        # from 0.0 groups one or two weights the same way, a wider row is summed as that row
        total, row = np.bincount(tx, weight, minlength=m), np.zeros(m)
        for i in np.flatnonzero(deg > 2).tolist():
            cols = rx[start[i]:start[i + 1]]  # i's neighbors; a_ij = a_ji
            row[cols] = weight[start[i]:start[i + 1]]
            total[i] = row.sum()
            row[cols] = 0.0
        own = 1.0 - total
        for axis in (rx, tx):  # row and column sums
            if not np.allclose(own + np.bincount(axis, weight, minlength=m), 1.0, atol=1e-12):
                raise ValueError("mixing matrix is not doubly stochastic")
        if (weight < -1e-15).any() or (own < -1e-15).any():
            raise ValueError("mixing matrix has negative entries")
        if (own <= 0).any():
            raise ValueError("mixing matrix diagonal must be positive")
        return LinkTable(rx, tx, edge, others, other_edges, weight), own

    @property
    def diameter(self) -> int:
        return max(_depth(self.neighbors, s) for s in range(self.m))


class LinkTable(NamedTuple):
    """`Topology.links`, one row per directed link j -> i, j ascending, then i among j's
    sorted neighbors (ascending in j * m + i; the order of link-loss sums and of every
    per-link array, such as `DflRun.per`): its receiver, transmitter, index in
    `Topology.edges` and weight 1 / (1 + max(deg_i, deg_j)), (P,) each, and its interfering
    neighbors (i's other neighbors, in order) and the edges they reach i on, (P, D) each,
    padded with m and len(edges), D the largest degree less one."""

    rx: np.ndarray
    tx: np.ndarray
    edge: np.ndarray
    others: np.ndarray
    other_edges: np.ndarray
    weight: np.ndarray


def spectral_lambda(a: np.ndarray) -> float:
    """max(|lambda_2|, |lambda_m|) for a symmetric stochastic matrix."""
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
